"""The benchmark's workloads: CLI arguments from a seed, and output checks.

Each workload is one stock `fockladder` CLI invocation.  Seed 0 gives
exactly the stock arguments.  Any other seed perturbs the impurity
coupling xi by up to 10% and shifts the grid ends by a little, but
keeps N and every grid size, so the number of solves a run issues does
not depend on the seed.  The perturbations stay inside the range where
every run succeeds: the flux peak stays inside the flux grid and the
interaction peak inside the interaction grid.

Checks come in two kinds.  Closed-form checks hold for any seed at the
stock N: they compare against the mean-field limits, written out here
independently of the package.  Reference checks hold at seed 0 only:
they compare against numbers recorded in references/<workload>.json.
They compare by tolerance, never bytes, because the last digits depend
on the BLAS thread count.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

STOCK_XI = 0.5
HALF_PI = math.pi / 2.0
# Reference tolerance for numbers the algorithm fixes; scaled by the
# magnitude of the reference value once it exceeds 1.
EXACT_TOL = 1e-12
# Reference tolerance for results of the peak refinement, which a
# change to the search strategy may move (the mu_max gate of the
# fewer-solves-per-peak work).
PEAK_TOL = 1e-4
PEAK_PHI_TOL = 1e-3


def critical_flux(xi):
    """phi_c = acos[(-xi + sqrt(xi^2 + 4)) / 2]."""
    return math.acos((-xi + math.sqrt(xi * xi + 4.0)) / 2.0)


def mu_critical(xi):
    """mu_c = (xi - sqrt(xi^2 + 4)) / 4."""
    return (xi - math.sqrt(xi * xi + 4.0)) / 4.0


class Checks:
    """Named pass/fail results plus the largest deviation from a reference."""

    def __init__(self):
        self.failures = []
        self.count = 0
        self.max_abs_dev = 0.0

    def require(self, name, passed, detail=""):
        self.count += 1
        if not passed:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def close(self, name, got, want, tol, scaled=True):
        """Every |got - want| within tol (times max(1, |want|) when scaled)."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.require(name, False, f"shape {got.shape} != {want.shape}")
            return
        dev = np.abs(got - want)
        limit = tol * np.maximum(1.0, np.abs(want)) if scaled else tol
        worst = float(dev.max()) if dev.size else 0.0
        self.max_abs_dev = max(self.max_abs_dev, worst)
        self.require(name, bool(np.all(dev <= limit)), f"max deviation {worst:.3e}")

    def __bool__(self):
        return not self.failures


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    argv0: tuple  # stock arguments

    def params(self, seed, n=None):
        """(xi, argv) for a seed; n replaces the stock boson number."""
        rng = random.Random(seed)
        argv = list(self.argv0)
        xi = STOCK_XI
        if seed != 0:
            xi = STOCK_XI * (1.0 + rng.uniform(-0.1, 0.1))
            argv += ["--xi", repr(xi)] + self._grid_args(rng)
        if n is not None and n != self.n:
            argv[argv.index("--n") + 1] = str(n)
        return xi, argv

    def _grid_args(self, rng):
        return []

    def out_name(self):
        fmt = self.argv0[self.argv0.index("--format") + 1] if "--format" in self.argv0 else "csv"
        return f"{self.argv0[0]}.{fmt}"

    def reference_path(self):
        return os.path.join(REFERENCE_DIR, f"{self.name}.json")


def _flux_grid_args(rng):
    lo = rng.uniform(0.0, 0.01)
    hi = HALF_PI - rng.uniform(0.0, 0.01)
    return ["--phi-min", repr(lo), "--phi-max", repr(hi), "--phi-points", "121"]


class FluxScan(Workload):
    def _grid_args(self, rng):
        return _flux_grid_args(rng)

    def load(self, path):
        return _read_csv(path)[1]

    def rows(self, data):
        return int(data.shape[0])

    def reference_values(self, data, sidecar):
        result = sidecar["result"]
        return {"table": data.tolist(), "peak": [result["peak_phi"], result["peak_jc"]]}

    def check(self, data, sidecar, xi, argv, reference=None, stock_n=True):
        checks = Checks()
        grid = _argv_grid(argv, "--phi-min", 0.0, "--phi-max", HALF_PI, "--phi-points", 121)
        checks.require("rows", data.shape == (grid.size, 3), f"shape {data.shape}")
        if not checks:
            return checks
        phi, jc, jc_ana = data.T
        checks.close("flux grid", phi, grid, EXACT_TOL)
        phi_c = critical_flux(xi)
        sin2 = np.sin(phi) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            vortex = xi**2 * np.cos(phi) / (sin2 * np.sqrt(xi**2 + sin2))
        checks.close("analytic current", jc_ana, np.where(phi <= phi_c, np.sin(phi), vortex), EXACT_TOL)
        k = int(np.argmax(jc))
        result = sidecar["result"]
        checks.require("sidecar peak", result["peak_phi"] == phi[k] and result["peak_jc"] == jc[k]
                       and result["points"] == grid.size)
        if stock_n:
            checks.require("peak flux near phi_c", abs(phi[k] - phi_c) <= 0.1,
                           f"|{phi[k]:.4f} - {phi_c:.4f}| > 0.1")
            window = (phi >= 0.1) & (phi <= 0.9 * phi_c)
            rel = np.abs(jc[window] - np.sin(phi[window])) / np.sin(phi[window])
            checks.require("Meissner current within 5% of sin(phi)", bool(np.all(rel <= 0.05)),
                           f"worst {rel.max():.4f}")
        if reference is not None:
            checks.close("reference table", data, reference["table"], EXACT_TOL)
            checks.close("reference peak", [result["peak_phi"], result["peak_jc"]],
                         reference["peak"], EXACT_TOL)
        return checks


class PeakSearch(Workload):
    def _grid_args(self, rng):
        shift = rng.uniform(-0.01, 0.01)
        return _flux_grid_args(rng) + [
            "--mu-min", repr(-0.6 + shift), "--mu-max", repr(0.1 + shift), "--mu-points", "71",
        ]

    def load(self, path):
        return _read_csv(path)[1]

    def rows(self, data):
        return int(data.shape[0])

    def reference_values(self, data, sidecar):
        result = sidecar["result"]
        return {"table": data.tolist(),
                "peak": [result["mu_max"], result["max_jc"]],
                "mu_c": result["mu_c"]}

    def check(self, data, sidecar, xi, argv, reference=None, stock_n=True):
        checks = Checks()
        grid = _argv_grid(argv, "--mu-min", -0.6, "--mu-max", 0.1, "--mu-points", 71)
        checks.require("rows", data.shape == (grid.size, 3), f"shape {data.shape}")
        if not checks:
            return checks
        mu, peak_phi, peak_jc = data.T
        result = sidecar["result"]
        checks.close("interaction grid", mu, grid, EXACT_TOL)
        checks.close("mu_c", result["mu_c"], mu_critical(xi), EXACT_TOL)
        checks.require("peak currents in (0, 1]", bool(np.all((peak_jc > 0) & (peak_jc <= 1.0))))
        checks.require("peak fluxes in [0, pi/2]",
                       bool(np.all((peak_phi >= 0) & (peak_phi <= HALF_PI + 1e-12))))
        if stock_n:
            mu_max, mu_c = result["mu_max"], mu_critical(xi)
            checks.require("mu_max attractive and near mu_c",
                           mu_max < 0.0 and abs(mu_max - mu_c) <= 0.05,
                           f"mu_max {mu_max:.5f}, mu_c {mu_c:.5f}")
        if reference is not None:
            table = np.asarray(reference["table"])
            checks.close("reference mu column", mu, table[:, 0], EXACT_TOL)
            checks.close("reference peak_jc column", peak_jc, table[:, 2], PEAK_TOL, scaled=False)
            checks.close("reference peak_phi column", peak_phi, table[:, 1], PEAK_PHI_TOL, scaled=False)
            checks.close("reference mu_max, max_jc", [result["mu_max"], result["max_jc"]],
                         reference["peak"], PEAK_TOL, scaled=False)
            checks.close("reference mu_c", result["mu_c"], reference["mu_c"], EXACT_TOL)
        return checks


class Bands(Workload):
    def load(self, path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["panels"]

    def rows(self, panels):
        return len(panels)

    def reference_values(self, panels, sidecar):
        return {
            "fluxes": [p["flux"] for p in panels],
            "quasienergies": [p["quasienergies"] for p in panels],
            "ground_quasienergy": [p["ground_quasienergy"] for p in panels],
            "ground_density": [p["ground_density"] for p in panels],
        }

    def check(self, panels, sidecar, xi, argv, reference=None, stock_n=True):
        checks = Checks()
        n = int(argv[argv.index("--n") + 1])
        size = n + 1
        phi_c = critical_flux(xi)
        checks.require("panels", len(panels) == 3, f"{len(panels)} panels")
        if not checks:
            return checks
        checks.close("auto fluxes", [p["flux"] for p in panels],
                     [0.5 * phi_c, phi_c, 1.5 * phi_c], EXACT_TOL)
        thetas = -np.pi + 2.0 * np.pi * np.arange(size) / size
        for i, panel in enumerate(panels):
            flux = panel["flux"]
            quasi = np.asarray(panel["quasienergies"])
            density = np.asarray(panel["density"])
            ground = np.asarray(panel["ground_density"])
            checks.require(f"panel {i} shapes",
                           quasi.shape == (2 * size,) and density.shape == (2, 2 * size, size)
                           and ground.shape == (2, size))
            if not checks:
                return checks
            checks.close(f"panel {i} thetas", panel["thetas"], thetas, EXACT_TOL)
            root = np.sqrt(xi**2 + np.sin(thetas) ** 2 * np.sin(flux) ** 2)
            base = np.cos(thetas) * np.cos(flux)
            checks.close(f"panel {i} lower band", panel["e_lower"], -(n / 2.0) * (base + root), EXACT_TOL)
            checks.close(f"panel {i} upper band", panel["e_upper"], -(n / 2.0) * (base - root), EXACT_TOL)
            checks.require(f"panel {i} quasienergies ascending", bool(np.all(np.diff(quasi) >= 0)))
            checks.require(f"panel {i} ground quasienergy", panel["ground_quasienergy"] == quasi[0])
            # Parseval on the (N+1)-point zone: each leg's phase density
            # sums to (N+1) times the leg norm, so a normalized state's
            # densities sum to N+1.
            norms = density.sum(axis=(0, 2)) / size
            checks.close(f"panel {i} Parseval and normalization", norms, np.ones(2 * size), 1e-10)
            checks.close(f"panel {i} ground density normalized", ground.sum(), 1.0, 1e-12)
        if reference is not None:
            checks.close("reference fluxes", [p["flux"] for p in panels], reference["fluxes"], EXACT_TOL)
            for key in ("quasienergies", "ground_quasienergy", "ground_density"):
                checks.close(f"reference {key}", [p[key] for p in panels], reference[key], EXACT_TOL)
        return checks


def _argv_grid(argv, lo_flag, lo, hi_flag, hi, count_flag, count):
    def value(flag, default, kind):
        return kind(argv[argv.index(flag) + 1]) if flag in argv else default

    return np.linspace(value(lo_flag, lo, float), value(hi_flag, hi, float),
                       value(count_flag, count, int))


# The reason for each workload is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        FluxScan("flux-scan", 100, ("current-scan", "--n", "100")),
        PeakSearch("peak-search", 20, ("mu-scan", "--n", "20")),
        Bands("bands", 400, ("bands", "--n", "400", "--format", "json")),
    )
}


def load_reference(workload):
    path = workload.reference_path()
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
