"""Record the seed-0 reference outputs of every workload.

    python3 perfbench/record_references.py [workload ...]

Runs each workload once at seed 0 from the repository root and stores
the numbers its checks compare against in references/<workload>.json.
Run it only at a commit whose outputs are the accepted baseline.
"""

from __future__ import annotations

import json
import os
import sys

from run import Runner
from workloads import WORKLOADS


def main(names):
    root = os.getcwd()
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        runner = Runner(root, workload, seed=0)
        record = runner.sample()
        if record.get("exit_code") != 0:
            raise SystemExit(f"{name}: {record.get('error')}")
        out_path = os.path.join(runner.work, workload.out_name())
        with open(out_path + ".meta.json", encoding="utf-8") as handle:
            sidecar = json.load(handle)
        values = workload.reference_values(workload.load(out_path), sidecar)
        values["argv"] = runner.argv
        with open(workload.reference_path(), "w", encoding="utf-8") as handle:
            json.dump(values, handle)
            handle.write("\n")
        os.remove(out_path)
        print(f"{name}: wrote {workload.reference_path()}")


if __name__ == "__main__":
    main(sys.argv[1:])
