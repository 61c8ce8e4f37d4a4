"""End-to-end acceptance runs over the full experiment pipeline.

Each test prints one PASS/FAIL line with its wall time (bypassing
pytest's capture so the lines appear as the suite runs) and then
asserts the same condition, so a failing criterion fails the test.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from fockladder.experiments import (
    DEFAULT_PHI_GRID,
    band_panels,
    finite_size_extrapolation,
    scan_flux,
)
from fockladder.floquet import SystemParams, build_floquet, build_heff
from fockladder.meanfield import critical_flux
from fockladder.validation import run_invariant_suite

XI = 0.5
PHI_C = critical_flux(XI)


def report(capsys, number, label, passed, detail, elapsed, budget):
    verdict = "PASS" if passed else "FAIL"
    line = (
        f"ACCEPTANCE {number} {verdict} {label}: {detail} "
        f"[{elapsed:.1f}s / budget {budget:.0f}s]"
    )
    with capsys.disabled():
        print(line)
    assert passed, line
    assert elapsed <= budget, f"criterion {number} overran: {elapsed:.1f}s > {budget}s"


def peak_flux(n_bosons, mu):
    records = scan_flux(n_bosons, mu=mu, xi=XI)
    best = max(records, key=lambda r: r.jc_numeric)
    return best.params.phi


def test_criterion_1_meissner_branch_accuracy(capsys):
    budget, start = 60.0, time.perf_counter()
    grid = np.linspace(0.1, 0.9 * PHI_C, 25)

    def worst_error(n_bosons):
        records = scan_flux(n_bosons, mu=0.0, xi=XI, phi_grid=grid)
        return max(
            abs(r.jc_numeric - np.sin(r.params.phi)) / np.sin(r.params.phi)
            for r in records
        )

    err_small = worst_error(20)
    err_large = worst_error(100)
    passed = err_large <= 0.05 and err_small > err_large
    detail = (
        f"max relative current error over [0.1, 0.9 phi_c]: "
        f"N=100 {err_large:.4f} (tol 0.05), N=20 {err_small:.4f}"
    )
    report(capsys, 1, "meissner-accuracy", passed, detail,
           time.perf_counter() - start, budget)


def test_criterion_2_critical_flux_location(capsys):
    budget, start = 60.0, time.perf_counter()
    peak = peak_flux(100, mu=0.0)
    passed = abs(peak - PHI_C) <= 0.1
    detail = f"current peaks at phi={peak:.4f}, phi_c={PHI_C:.4f}, |diff|={abs(peak - PHI_C):.4f} (tol 0.1)"
    report(capsys, 2, "critical-flux-location", passed, detail,
           time.perf_counter() - start, budget)


def test_criterion_3_interaction_shifts_peak(capsys):
    budget, start = 120.0, time.perf_counter()
    free = peak_flux(100, mu=0.0)
    interacting = peak_flux(100, mu=5.0)
    passed = interacting > free
    detail = f"peak flux mu=5: {interacting:.4f} > peak flux mu=0: {free:.4f}"
    report(capsys, 3, "interaction-peak-shift", passed, detail,
           time.perf_counter() - start, budget)


def test_criterion_4_transition_coincidence(capsys):
    budget, start = 600.0, time.perf_counter()
    # tau = 0.0025 keeps the kicked evolution within O(tau^2) of its
    # generator; at tau = 0.01 that systematic alone is ~2.4e-3 and
    # would dominate the extrapolated intercept.
    fit, _ = finite_size_extrapolation(ns=(20, 40, 60, 80, 100), xi=XI, tau=0.0025)
    passed = abs(fit.intercept) <= 1e-3 and fit.slope > 0.0
    detail = (
        f"|mu_max - mu_c| extrapolates to {fit.intercept:.2e} at 1/N=0 "
        f"(tol 1e-3), slope {fit.slope:.4f} > 0, r^2 {fit.r_squared:.5f}"
    )
    report(capsys, 4, "transition-coincidence", passed, detail,
           time.perf_counter() - start, budget)


def test_criterion_5_entropy_agreement(capsys):
    budget, start = 60.0, time.perf_counter()
    records = scan_flux(100, 0.0, XI, phi_grid=DEFAULT_PHI_GRID[1:])
    gaps = np.array([abs(r.entropy_numeric - r.entropy_analytic) for r in records])
    fluxes = np.array([r.params.phi for r in records])
    outside = np.abs(fluxes - PHI_C) > 0.1
    worst_outside = gaps[outside].max()
    argmax_flux = fluxes[int(np.argmax(gaps))]
    passed = worst_outside <= 0.05 and abs(argmax_flux - PHI_C) <= 0.1
    detail = (
        f"entropy gap outside the window {worst_outside:.4f} (tol 0.05); "
        f"largest gap at phi={argmax_flux:.4f}, phi_c={PHI_C:.4f}"
    )
    report(capsys, 5, "entropy-agreement", passed, detail,
           time.perf_counter() - start, budget)


def test_criterion_6_generator_convergence(capsys):
    budget, start = 5.0, time.perf_counter()

    def defect(tau):
        params = SystemParams(n=20, mu=0.5, xi=XI, phi=1.0, tau=tau)
        u = build_floquet(params)
        h = build_heff(params)
        return np.linalg.norm(u - expm(-1j * tau * h), 2)

    ratio = defect(0.01) / defect(0.005)
    passed = 3.5 <= ratio <= 4.5
    detail = f"generator defect shrinks {ratio:.3f}x when tau halves (expect 3.5-4.5)"
    report(capsys, 6, "generator-convergence", passed, detail,
           time.perf_counter() - start, budget)


def test_criterion_7_invariant_suite(capsys):
    budget, start = 60.0, time.perf_counter()
    results = run_invariant_suite()
    failed = [r.name for r in results if not r.passed]
    passed = not failed
    detail = (
        f"{len(results) - len(failed)}/{len(results)} checks passed"
        + (f"; failed: {', '.join(failed)}" if failed else "")
    )
    report(capsys, 7, "invariant-suite", passed, detail,
           time.perf_counter() - start, budget)


def count_phase_maxima(panel):
    profile = panel.density[0, 0, :] + panel.density[1, 0, :]
    floor = 0.05 * profile.max()
    hits = [
        k
        for k in range(1, profile.size - 1)
        if profile[k] > profile[k - 1] and profile[k] >= profile[k + 1]
        and profile[k] >= floor
    ]
    return hits, panel.thetas[hits] if hits else np.array([])


def count_density_holes(panel):
    density = panel.ground_density.sum(axis=0)
    cap = 0.1 * density.max()
    return [
        k
        for k in range(1, density.size - 1)
        if density[k] < density[k - 1] and density[k] < density[k + 1]
        and density[k] < cap
    ]


def test_criterion_8_band_panel_structure(capsys):
    budget, start = 120.0, time.perf_counter()
    meissner, vortex = band_panels(
        100, XI, flux_list=[0.5 * PHI_C, 1.5 * PHI_C]
    )
    single, _ = count_phase_maxima(meissner)
    double, locations = count_phase_maxima(vortex)
    symmetric = len(locations) == 2 and abs(locations[0] + locations[1]) <= (
        2.0 * np.pi / 101.0
    )
    holes = count_density_holes(vortex)
    passed = len(single) == 1 and len(double) == 2 and symmetric and len(holes) >= 2
    detail = (
        f"phase-density maxima: {len(single)} at phi_c/2, {len(double)} at 3 phi_c/2 "
        f"(at theta = {', '.join(f'{t:.3f}' for t in locations)}); "
        f"{len(holes)} sub-10% density holes in the vortex ground state"
    )
    report(capsys, 8, "band-structure", passed, detail,
           time.perf_counter() - start, budget)
