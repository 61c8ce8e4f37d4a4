"""fockladder benchmark: one workload, end to end or traced by layer.

    python3 perfbench/run.py --workload flux-scan --seed 0 --seconds 30 --trace 0

Run from the root of a fockladder source tree; the package is imported
from ./src.  Load model: closed loop, one client.  Each sample is a
fresh single-process interpreter (child.py) that sets up, solves once
at the workload's N, then calls fockladder.cli.main with the workload's
arguments; the next sample starts when it has exited.  BLAS keeps its
library-default thread count and FOCKLADDER_THREADS is removed from the
samples' environment.

With --trace 0 the run repeats untraced samples until --seconds of
sample time have passed and reports the end-to-end metrics as medians:
wall_s (cli.main call to return, files written), setup_s (interpreter
start, import and the first solve; measured in every sample and in
extra set-up-only samples) and peak_rss_mib.  With --trace 1 it
alternates untraced and traced samples and reports the per-layer
metrics of the median traced sample; trace_overhead_s is the median
traced wall minus the median untraced wall.

The first sample's outputs are checked (closed-form checks for any
seed, recorded references at seed 0) and every later sample's data file
must be byte-identical to it.  A sample fails on a nonzero exit or a
failed check.  The last line of standard output is the JSON result;
the full record with its environment goes to --out (default
.perfbench_work/results/<workload>-seed<seed>-trace<trace>.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from envinfo import THREAD_KEYS, host_record  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

WORK_DIR = ".perfbench_work"
MIN_SAMPLES = 3
MIN_SETUPS = 5
MAX_FAILURES = 3
SAMPLE_TIMEOUT_S = 60


def declared_units(trace):
    """Unit of every metric a run reports, as declared in BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Runner:
    """Starts samples for one workload and collects their records."""

    def __init__(self, root, workload, seed, n=None):
        self.root = os.path.abspath(root)
        self.workload = workload
        self.seed = seed
        self.n = workload.n if n is None else n
        self.xi, self.argv = workload.params(seed, n)
        self.work = os.path.join(self.root, WORK_DIR, workload.name)
        self.env = {k: v for k, v in os.environ.items() if k != "FOCKLADDER_THREADS"}
        self.env.pop("PYTHONPATH", None)
        self.digest = None
        self.check_error = None
        self.rows = None

    def sample(self, trace=False, setup_only=False):
        """Run one child; returns its record, with "error" set on failure."""
        os.makedirs(self.work, exist_ok=True)
        record_path = os.path.join(self.work, "record.json")
        out_path = os.path.join(self.work, self.workload.out_name())
        for stale in (record_path, out_path, out_path + ".meta.json"):
            if os.path.exists(stale):
                os.remove(stale)
        job = {
            "src": os.path.join(self.root, "src"),
            "n": self.n,
            "xi": self.xi,
            "argv": self.argv,
            "trace": trace,
            "setup_only": setup_only,
            "record_path": record_path,
            "spans_path": os.path.join(self.work, "spans.json"),
        }
        job["spawned_at"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
                                  cwd=self.work, env=self.env, capture_output=True, text=True,
                                  timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"sample did not finish within {SAMPLE_TIMEOUT_S} s"}
        if proc.returncode != 0 or not os.path.exists(record_path):
            return {"error": f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        with open(record_path, encoding="utf-8") as handle:
            record = json.load(handle)
        if setup_only:
            return record
        if record["exit_code"] != 0:
            record["error"] = f"cli exited {record['exit_code']}: {proc.stderr.strip()[-2000:]}"
            return record
        if record.get("still_wrapped"):
            record["error"] = f"tracer left wrappers: {record['still_wrapped']}"
            return record
        self._check_outputs(record)
        return record

    def _check_outputs(self, record):
        out_path = os.path.join(self.work, self.workload.out_name())
        with open(out_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        with open(out_path + ".meta.json", encoding="utf-8") as handle:
            sidecar = json.load(handle)
        record["compute_s"] = sidecar["wall_time_s"]
        record["out_bytes"] = os.path.getsize(out_path) + os.path.getsize(out_path + ".meta.json")
        if self.digest is not None:
            if digest != self.digest:
                record["error"] = "data file differs from the first sample at the same seed"
            elif self.check_error:
                record["error"] = self.check_error
            return
        self.digest = digest
        output = self.workload.load(out_path)
        self.rows = self.workload.rows(output)
        stock_n = self.n == self.workload.n
        reference = load_reference(self.workload) if stock_n and self.seed == 0 else None
        checks = self.workload.check(output, sidecar, self.xi, self.argv, reference, stock_n)
        record["checks"] = checks.count
        record["max_abs_dev"] = checks.max_abs_dev
        if checks.failures:
            self.check_error = record["error"] = "; ".join(checks.failures)


def run_benchmark(root, workload, seed, seconds, trace, n=None):
    """Run one benchmark and return (result line, full record)."""
    runner = Runner(root, workload, seed, n)
    runner.sample(setup_only=True)  # compiles bytecode, warms the page cache
    plain, traced, setups, failures, checked = [], [], [], [], []
    spent = 0.0
    min_samples = 1 if trace else MIN_SAMPLES
    while ((spent < seconds or (len(plain) < min_samples and not failures))
           and len(failures) < MAX_FAILURES):
        for is_traced in ((False, True) if trace else (False,)):
            start = time.perf_counter()
            record = runner.sample(trace=is_traced)
            spent += time.perf_counter() - start
            if "checks" in record:
                checked.append(record)
            if "error" in record:
                failures.append(record["error"])
                continue
            setups.append(record["setup_s"])
            (traced if is_traced else plain).append(record)
    while not trace and len(setups) < MIN_SETUPS:
        record = runner.sample(setup_only=True)
        if "error" in record:
            failures.append(record["error"])
            break
        setups.append(record["setup_s"])

    attempted = len(plain) + len(traced) + len(failures)
    metrics = {}
    if plain and (traced or not trace):
        if trace:
            metrics = _layer_result(traced, plain, runner.rows)
        else:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in plain),
                "setup_s": statistics.median(setups),
                "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
            }
    units = declared_units(trace)
    result = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    full = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "argv": runner.argv,
        "n": runner.n,
        "xi": runner.xi,
        "result": result,
        "error_rate": len(failures) / attempted if attempted else 1.0,
        "max_abs_dev": max((r["max_abs_dev"] for r in checked), default=None),
        "checks": max((r["checks"] for r in checked), default=0),
        "failures": failures,
        "samples": {
            "wall_s": [r["wall_s"] for r in plain],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "setup_s": setups,
            "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
        },
        "environment": {**host_record(root, runner.env),
                        **(plain or traced or [{}])[0].get("runtime", {})},
    }
    return result, full


def _layer_result(traced, plain, rows):
    order = sorted(traced, key=lambda r: r["wall_s"])
    median = order[(len(order) - 1) // 2]
    layers = dict(median["layers"])
    layers["experiments.solves_per_row"] = layers["experiments.solves"] / rows
    layers["cli.compute_s"] = median["compute_s"]
    layers["cli.io_s"] = layers["traced_wall_s"] - median["compute_s"]
    layers["cli.out_bytes"] = median["out_bytes"]
    layers["trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    return layers


def _print_summary(full):
    result = full["result"]
    env = full["environment"]
    print(f"workload {full['workload']} seed {full['seed']} trace {full['trace']}: "
          f"fockladder {' '.join(full['argv'])}")
    print(f"environment: commit {env.get('commit')} python {env.get('python')} "
          f"numpy {env.get('numpy')} scipy {env.get('scipy')} "
          f"{env.get('blas_name')} {env.get('blas_version')} "
          + " ".join(f"{key}={env.get(key)}" for key in THREAD_KEYS)
          + f" nproc={env.get('nproc')}")
    samples = len(full["samples"]["traced_wall_s" if full["trace"] else "wall_s"])
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  samples = {samples} (medians), set-ups = {len(full['samples']['setup_s'])}")
    print(f"  error_rate = {full['error_rate']:.6g} ({result['failed']} of {result['attempted']} failed)")
    print(f"  max_abs_dev = {full['max_abs_dev']} over {full['checks']} checks")
    for failure in full["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="where to write the full result record")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fockladder", "cli.py")):
        print(f"perfbench: no fockladder sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2

    result, full = run_benchmark(root, WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace))
    out = args.out or os.path.join(root, WORK_DIR, "results",
                                   f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(full, handle, indent=1)
        handle.write("\n")
    data_file = os.path.join(root, WORK_DIR, args.workload, WORKLOADS[args.workload].out_name())
    if os.path.exists(data_file):
        os.remove(data_file)  # the bands data file alone is 66 MB
    _print_summary(full)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
