"""Smoke tests of the benchmark itself, at tiny N.

    python3 -m pytest -q perfbench/tests

They run the real sample processes against ./src, so they take some
seconds; none of them times anything.
"""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracer import LAYERS, ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

TINY_N = 8


@pytest.fixture(scope="module")
def flux_scan_runs():
    workload = WORKLOADS["flux-scan"]
    return {trace: run.run_benchmark(ROOT, workload, seed=1, seconds=0, trace=trace, n=TINY_N)
            for trace in (False, True)}


def test_emitted_metric_names_and_units_match_benchmark_json(flux_scan_runs):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = flux_scan_runs[trace]
        assert result["correct"], flux_scan_runs[trace][1]["failures"]
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == declared


def test_layer_self_times_sum_to_traced_wall(flux_scan_runs):
    metrics = {k: v["value"] for k, v in flux_scan_runs[True][0]["metrics"].items()}
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(metrics["traced_wall_s"], rel=1e-9)
    assert metrics["experiments.solves"] == metrics["floquet.spectrum.calls"] == 121
    assert metrics["cli.compute_s"] + metrics["cli.io_s"] == pytest.approx(metrics["traced_wall_s"])


def test_tracer_restores_every_binding(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fockladder import cli, experiments, floquet, observables

    namespaces = (cli, experiments, floquet, observables)
    before = [dict(vars(module)) for module in namespaces]
    tracer = Tracer().install()
    assert tracer.wrapped_bindings(), "install() wrapped nothing"
    assert cli.scan_flux is not before[0]["scan_flux"]
    out = str(tmp_path / "scan.csv")
    try:
        code = tracer.wrap(ROOT_SPAN, cli.main)(
            ["current-scan", "--n", str(TINY_N), "--phi-points", "5", "--out", out])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.wrapped_bindings() == []
    for module, saved in zip(namespaces, before):
        assert all(vars(module)[name] is value for name, value in saved.items())
    names = {span[2] for span in tracer.spans}
    assert {"cli.main", "experiments.scan_flux", "floquet.spectrum",
            "observables.chiral_current_normalized"} <= names
    ids = {span[0] for span in tracer.spans}
    assert all(span[1] == -1 or span[1] in ids for span in tracer.spans)


def test_seeds_keep_n_and_grid_sizes():
    for workload in WORKLOADS.values():
        _, stock = workload.params(0)
        assert stock == list(workload.argv0)
        for seed in range(1, 30):
            xi, argv = workload.params(seed)
            assert argv[:len(workload.argv0)] == list(workload.argv0)
            assert 0.45 <= xi <= 0.55
            for flag, count in (("--phi-points", "121"), ("--mu-points", "71")):
                if flag in argv:
                    assert argv[argv.index(flag) + 1] == count
            assert workload.params(seed) == (xi, argv)


def test_reference_check_catches_a_perturbed_cell():
    workload = WORKLOADS["flux-scan"]
    reference = load_reference(workload)
    data = np.array(reference["table"])
    sidecar = {"result": {"peak_phi": reference["peak"][0], "peak_jc": reference["peak"][1],
                          "points": 121}}
    xi, argv = workload.params(0)
    assert workload.check(data, sidecar, xi, argv, reference)
    data[10, 1] += 1e-9
    failed = workload.check(data, sidecar, xi, argv, reference)
    assert not failed
    assert any("reference table" in f for f in failed.failures)


def test_compare_refuses_different_thread_settings(tmp_path, flux_scan_runs):
    full = flux_scan_runs[False][1]
    other = copy.deepcopy(full)
    other["environment"]["blas_threads"] = (full["environment"]["blas_threads"] or 1) + 1
    paths = []
    for name, record in (("a.json", full), ("b.json", other), ("c.json", full)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    compare = [sys.executable, os.path.join(BENCH, "compare.py")]
    refused = subprocess.run(compare + ["--base", paths[0], "--new", paths[1]],
                             capture_output=True, text=True)
    assert refused.returncode == 2
    assert "thread" in refused.stderr
    same = subprocess.run(compare + ["--base", paths[0], "--new", paths[2]],
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stderr
    assert "wall_s" in same.stdout
