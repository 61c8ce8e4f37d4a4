"""One benchmark sample, run in a fresh interpreter.

    python3 child.py '<job json>'

The job names the source tree, the boson number of the set-up solve,
the CLI arguments and where to write the sample record.  The child
imports fockladder from the given source tree, makes one ground-state
solve at the workload's boson number (this warms the cached S_x
eigensystem and kick), and, unless the job is set-up only, calls
fockladder.cli.main with the arguments in the current directory.  With
"trace" set, the call runs under the outside-in tracer and the record
carries the per-layer metrics; the spans go to "spans_path".

setup_s runs from "spawned_at", the parent's CLOCK_MONOTONIC reading
just before it started this process, to the end of the set-up solve.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    job = json.loads(sys.argv[1])
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)

    import fockladder
    from fockladder import cli, floquet

    if not os.path.abspath(fockladder.__file__).startswith(src + os.sep):
        raise SystemExit(f"fockladder imported from {fockladder.__file__}, not from {src}")

    params = floquet.SystemParams(n=job["n"], mu=0.0, xi=job["xi"], phi=0.3, tau=0.01)
    floquet.ground_state(floquet.spectrum(floquet.build_floquet(params), params.tau))
    record = {"setup_s": _monotonic() - job["spawned_at"]}

    if not job.get("setup_only"):
        tracer = None
        entry = cli.main
        if job.get("trace"):
            from tracer import ROOT_SPAN, Tracer, layer_metrics

            tracer = Tracer().install()
            entry = tracer.wrap(ROOT_SPAN, cli.main)
        start = time.perf_counter()
        try:
            code = entry(job["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            record["wall_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        record["exit_code"] = code
        if tracer is not None:
            record["still_wrapped"] = tracer.wrapped_bindings()
            record["layers"] = layer_metrics(tracer.spans)
            record["spans"] = len(tracer.spans)
            tracer.dump(job["spans_path"])

    from envinfo import blas_record

    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["runtime"] = blas_record()
    with open(job["record_path"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main()
