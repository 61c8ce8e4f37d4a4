"""Compare benchmark result records of two versions of the program.

    python3 perfbench/compare.py --base A1.json [A2.json ...] --new B1.json [B2.json ...]

Each file is a full record written by run.py (--out).  All files must
come from one workload and one trace mode, and from the same thread
settings (BLAS threads, OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
FOCKLADDER_THREADS, core count); the comparison is refused otherwise,
since thread counts alone move the timings.  For each metric it prints
the median over each side's runs and the change as a share of the base
median; an end-to-end metric that got worse by more than its bound in
BENCHMARK.json is marked REGRESSION.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from envinfo import THREAD_KEYS

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def _settings(record):
    env = record["environment"]
    return {key: env.get(key) for key in THREAD_KEYS + ("nproc",)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)

    kinds = {(r["workload"], r["trace"]) for r in base + new}
    if len(kinds) != 1:
        print(f"compare: records mix workloads or trace modes: {sorted(kinds)}", file=sys.stderr)
        return 2
    settings = {json.dumps(_settings(r), sort_keys=True) for r in base + new}
    if len(settings) != 1:
        print("compare: refusing to compare records with different thread settings:\n  "
              + "\n  ".join(sorted(settings)), file=sys.stderr)
        return 2

    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workload, trace = kinds.pop()
    print(f"{workload} trace {trace}: {len(base)} base run(s), {len(new)} new run(s)")
    regressions = 0
    for name in sorted({n for r in base for n in r["result"]["metrics"]}):
        before = statistics.median(r["result"]["metrics"][name]["value"] for r in base)
        after = statistics.median(r["result"]["metrics"][name]["value"] for r in new
                                  if name in r["result"]["metrics"])
        meta = declared.get(name, {})
        change = (after - before) / before if before else float("nan")
        worse = change if meta.get("better") == "lower" else -change
        verdict = ""
        if "bound" in meta and worse > meta["bound"]:
            verdict = f"  REGRESSION (bound {meta['bound']:.0%})"
            regressions += 1
        print(f"  {name}: {before:.6g} -> {after:.6g} {meta.get('unit', '')} "
              f"({change:+.2%}){verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
