"""Scan pipelines over flux, interaction and system size.

Each experiment drives the Floquet engine across a parameter grid and
pairs the numeric ground-state observables with their closed-form
mean-field values computed at identical parameters: flux scans of the
chiral current and impurity entropy, interaction scans for the current
maximum, the finite-size extrapolation of the maximum toward the
critical attraction and the band/density panels.

Scans are deterministic: given the same grids they produce identical
records in identical order, which is what makes rerun output
byte-identical downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .floquet import SystemParams, sector_ground, sector_spectra, solve_grounds
from .lattice import _check_boson_number, rung_values
from .meanfield import (_FLUX_MAX, band_energy, chiral_current_analytic, critical_flux,
                        entropy_analytic, mu_critical)
from .observables import (
    chiral_current_normalized,
    entanglement_entropy_numeric,
    fock_density_phase,
    phase_grid,
)

__all__ = [
    "ScanRecord",
    "FitResult",
    "BandPanel",
    "DEFAULT_PHI_GRID",
    "DEFAULT_MU_GRID",
    "DEFAULT_NS",
    "analytic_pair",
    "scan_flux",
    "interaction_scan",
    "find_mu_max",
    "fit_inverse_size",
    "finite_size_extrapolation",
    "default_fluxes",
    "band_panels",
]

DEFAULT_PHI_GRID = np.linspace(0.0, np.pi / 2.0, 121)
DEFAULT_MU_GRID = np.linspace(-0.6, 0.1, 71)
DEFAULT_NS = (20, 40, 60, 80, 100)

# Flux peaks: a guard of at most GUARD_POINTS grid fluxes, then one bounded
# Brent search per distinct bracket: that of each guard local maximum and a
# warm one around the previous interaction's peak flux.  The guard is one
# stacked solve, and the searches advance in lockstep, one stacked solve per
# step.  Rows are located to PEAK_XATOL, in flux and, for mu_max, in mu.
# Near mu_max the flux peak is a jump where the parity sectors' lowest
# quasienergies cross (j_c falls by ~0.13 within 1e-6 of flux), so the peak
# current is low by about slope * xatol; inside the mu polish the flux
# searches use POLISH_XATOL, without which mu_max jitters by ~4e-5.
GUARD_POINTS = 31
PEAK_XATOL = 1e-6
POLISH_XATOL = 1e-9


@dataclass(frozen=True)
class ScanRecord:
    """Numeric/analytic pairs of both observables at one parameter point.

    jc fields hold the normalized current 2 J_C/(N J); entropy fields
    are in nats.  An analytic field is None where its closed form does
    not apply (see analytic_pair).
    """

    params: SystemParams
    jc_numeric: float
    jc_analytic: float | None
    entropy_numeric: float
    entropy_analytic: float | None

    @classmethod
    def from_state(cls, params, state):
        """Both observable pairs of the ground state solved at params."""
        jc, entropy = analytic_pair(params.phi, params.xi)
        return cls(params, chiral_current_normalized(state, params.phi), jc,
                   entanglement_entropy_numeric(state), entropy)


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through (1/N, |mu_max - mu_c|)."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple


@dataclass(frozen=True)
class BandPanel:
    """Everything drawn in one band-structure panel at fixed flux.

    thetas is the discrete Brillouin zone; e_lower/e_upper the mean-field
    bands on it; density[m_index, i, k] the phase density P_m(theta_k) of
    parity eigenstate i (m_index 0 = left leg), in quasienergy order but
    with i = 0 the solve_ground state to rounding, which the ground_*
    strips describe site by site.  density[1] is density[0] mirrored,
    theta -> -theta, bit for bit.
    """

    flux: float
    thetas: np.ndarray
    e_lower: np.ndarray
    e_upper: np.ndarray
    quasienergies: np.ndarray
    density: np.ndarray
    ground_quasienergy: float
    ground_density: np.ndarray
    ground_phase: np.ma.MaskedArray


def analytic_pair(phi, xi):
    """Closed-form (jc, entropy) at one flux, None where a form does not apply.

    Both forms hold on 0 <= phi <= pi/2 for coupled legs (xi > 0); the
    entropy form is singular at zero flux, where only the current's
    (0.0) is returned.
    """
    if xi == 0.0 or not 0.0 <= phi <= _FLUX_MAX:
        return None, None
    entropy = entropy_analytic(phi, xi) if np.sin(phi) != 0.0 else None
    return chiral_current_analytic(phi, xi), entropy


def _check_grid(values, name, min_points=1):
    # At least min_points finite, strictly ascending floats in one dimension;
    # finiteness is checked first because NaN passes the ascending test.
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"{name} grid must be one-dimensional")
    if grid.size < min_points:
        raise ValueError(f"{name} grid needs at least {min_points} point" + "s" * (min_points > 1))
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"{name} grid must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError(f"{name} grid must be strictly ascending")
    return grid


def _check_phi_grid(phi_grid, min_points=1):
    grid = _check_grid(DEFAULT_PHI_GRID if phi_grid is None else phi_grid, "flux", min_points)
    if grid[0] < 0.0 or grid[-1] > _FLUX_MAX:
        raise ValueError(f"flux grid [{grid[0]}, {grid[-1]}] outside [0, pi/2]")
    return grid


def scan_flux(n_bosons, mu, xi, tau=SystemParams.tau, phi_grid=None):
    """Chiral current and impurity entropy versus flux, numeric against analytic.

    Returns one ScanRecord per grid flux, ascending, each holding both
    observable pairs of the same ground state.  The analytic entropy is
    singular at zero flux, so an entropy scan starts one grid step in
    (phi_grid=DEFAULT_PHI_GRID[1:]).  The grid is one solve_grounds
    call, whose branch ambiguity names the offending mu and flux.
    """
    grid = _check_phi_grid(phi_grid)
    params = SystemParams(n=n_bosons, mu=float(mu), xi=xi, phi=float(grid[0]), tau=tau)
    _, states = solve_grounds(params, grid)
    return [ScanRecord.from_state(replace(params, phi=float(phi)), state)
            for phi, state in zip(grid, states)]


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _brent_max(lo, hi, xatol):
    # Brent's bounded minimizer FMIN (Brent 1973, ch. 5) on -f: golden
    # section plus trusted parabolic steps, the iterates of scipy's
    # minimize_scalar(method="bounded") without importing scipy.optimize
    # (+16 MiB, +0.25 s per process).  Never evaluates the bounds.  A
    # generator: it yields each point to evaluate, takes f there by send()
    # and returns (x, f(x)) of the best point; _lockstep drives it.
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = -(yield x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, -fx
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < tol2 or b - x - d < tol2:
                    d = tol1 if m >= x else -tol1
        if golden:
            e = a - x if x >= m else b - x
            d = _GOLDEN * e
        u = x + (max(abs(d), tol1) if d >= 0.0 else -max(abs(d), tol1))
        fu = -(yield u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _lockstep(searches, evaluate):
    # Advance _brent_max searches together: each round hands every
    # unfinished search's next point to one evaluate(points) call, which
    # returns f at each.  Returns the searches' (x, f(x)) in order.
    results = [None] * len(searches)
    pending = [(i, next(search)) for i, search in enumerate(searches)]
    while pending:
        values = evaluate([x for _, x in pending])
        live = []
        for (i, _), value in zip(pending, values):
            try:
                live.append((i, searches[i].send(float(value))))
            except StopIteration as done:
                results[i] = done.value
        pending = live
    return results


def _bounded_max(f, lo, hi, xatol):
    # (x, f(x)) at the maximum of f on [lo, hi] located to xatol; one
    # _brent_max search, evaluating f point by point.
    return _lockstep([_brent_max(lo, hi, xatol)], lambda points: [f(x) for x in points])[0]


def _flux_peak(n_bosons, mu, xi, tau, grid, warm=None, xatol=PEAK_XATOL):
    # (phi, jc) at the flux maximum of the current on [grid[0], grid[-1]].
    # Near mu_c the current has two bumps in flux; whether the guard
    # resolves both depends on how it lines up with them, and the warm
    # bracket (one guard step either side of `warm`) is the second
    # chance at a bump the guard merges.
    params = SystemParams(n=n_bosons, mu=float(mu), xi=xi, phi=float(grid[0]), tau=tau)

    def currents(phis):
        # The currents at fluxes phis from one stacked solve.
        phis = np.asarray(phis, dtype=float)
        return chiral_current_normalized(solve_grounds(params, phis)[1], phis)

    stride = max(1, math.ceil((grid.size - 1) / (GUARD_POINTS - 1)))
    guard = np.append(grid[:-1:stride], grid[-1])
    values = currents(guard)
    padded = np.concatenate(([-np.inf], values, [-np.inf]))
    brackets = [
        (guard[max(k - 1, 0)], guard[min(k + 1, guard.size - 1)])
        for k in np.flatnonzero((values > padded[:-2]) & (values >= padded[2:]))
    ]
    if warm is not None and guard.size > 1:
        step = guard[1] - guard[0]
        brackets.append((max(warm - step, grid[0]), min(warm + step, grid[-1])))
    k = int(np.argmax(values))
    best_phi, best = float(guard[k]), float(values[k])
    # Equal brackets run equal searches: one per distinct bracket.
    distinct = dict.fromkeys((float(lo), float(hi)) for lo, hi in brackets if lo < hi)
    searches = [_brent_max(lo, hi, xatol) for lo, hi in distinct]
    for phi, jc in _lockstep(searches, currents):
        if jc > best:
            best_phi, best = phi, jc
    return best_phi, best


def interaction_scan(n_bosons, xi, tau=SystemParams.tau, mu_grid=None, phi_grid=None):
    """Peak chiral current versus interaction strength.

    Returns a list of (mu, peak_phi, peak_jc) triples, one per grid
    interaction, with the current maximized over flux for each (guard +
    warm bracket + bounded Brent, peak flux located to 1e-6); refused at xi = 0.
    Each row's guard is one solve_grounds stack, and one Brent search per
    distinct bracket shares one stack per step; rows run in order, since
    each row's warm bracket is the previous row's peak flux.
    """
    if xi == 0.0:
        raise ValueError("no current maximum at xi = 0: the legs decouple and j_c vanishes identically")
    mu_values = _check_grid(DEFAULT_MU_GRID if mu_grid is None else mu_grid, "interaction", 3)
    grid = _check_phi_grid(phi_grid)
    rows, warm = [], None
    for mu in mu_values:
        peak_phi, peak_jc = _flux_peak(n_bosons, float(mu), xi, tau, grid, warm)
        rows.append((float(mu), peak_phi, peak_jc))
        warm = peak_phi
    return rows


def _refine_interaction_peak(rows, n_bosons, xi, tau, flux_grid):
    # Polish the interaction maximum of interaction_scan rows by a
    # bounded Brent search over mu between the grid neighbours of the
    # discrete maximum (the peak narrows below the default grid step
    # once N reaches ~80).  Each evaluation is a flux-peak search in a
    # window, warm at the grid maximum's peak flux.  flux_grid is the
    # checked scan grid, at least 2 points.  Returns (mu_max, max_jc).
    mu_values = np.array([row[0] for row in rows])
    peak_phis = np.array([row[1] for row in rows])
    peaks = np.array([row[2] for row in rows])
    k = int(np.argmax(peaks))
    if k == 0 or k == mu_values.size - 1:
        raise ValueError(
            f"peak current sits on the interaction grid boundary mu={mu_values[k]}; "
            "widen the mu bracket"
        )

    # Flux window for the polish evaluations: the peak flux
    # drifts slowly with mu, so a window around the coarse-grid peak
    # flux, wide enough to cover that drift across the bracket and any
    # secondary bump beside it, is much cheaper than the full grid.  It
    # stays within the grid's ends, where the rows were searched.
    flux_step = float(np.median(np.diff(flux_grid)))
    local = peak_phis[k - 1:k + 2]
    halfwidth = float(local.max() - local.min()) + 2.0 * flux_step
    window = np.linspace(max(peak_phis[k] - halfwidth, flux_grid[0]),
                         min(peak_phis[k] + halfwidth, flux_grid[-1]), 25)

    return _bounded_max(
        lambda mu: _flux_peak(n_bosons, mu, xi, tau, window, peak_phis[k], POLISH_XATOL)[1],
        float(mu_values[k - 1]), float(mu_values[k + 1]), PEAK_XATOL,
    )


def find_mu_max(n_bosons, xi, tau=SystemParams.tau, mu_grid=None, phi_grid=None):
    """Interaction strength maximizing the peak chiral current.

    For each mu on the grid the current is maximized over flux
    (interaction_scan), then the interaction maximum is polished by a
    bounded Brent search over mu, maximizing over flux at each step.
    Near mu_max the flux peak is a jump where the two parity sectors'
    lowest quasienergies cross, so those flux searches are located to
    1e-9, within the flux grid's own ends.  Every flux search solves in
    stacks, as in interaction_scan, which refuses xi = 0 before any
    solve.  Returns (mu_max, max_jc, rows): the current in 2 J_C/(N J)
    units and the interaction_scan rows the maximum was refined from.
    """
    grid = _check_phi_grid(phi_grid, 2)  # its step sets the mu polish window
    rows = interaction_scan(n_bosons, xi, tau, mu_grid, grid)
    mu_max, max_jc = _refine_interaction_peak(rows, n_bosons, xi, tau, grid)
    return mu_max, max_jc, rows


def fit_inverse_size(points):
    """Least-squares line through (1/N, value) pairs."""
    points = tuple((float(x), float(y)) for x, y in points)
    if len(points) < 3:
        raise ValueError(f"fit needs at least 3 points, got {len(points)}")
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    if np.unique(x).size != x.size:
        raise ValueError("duplicate abscissas make the fit degenerate")
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = y - design @ (slope, intercept)
    total = np.sum((y - y.mean()) ** 2)
    r_squared = 1.0 if total == 0.0 else 1.0 - np.sum(residual**2) / total
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(np.clip(r_squared, 0.0, 1.0)),
        points=points,
    )


def finite_size_extrapolation(ns=DEFAULT_NS, xi=0.5, tau=SystemParams.tau, mu_grid=None,
                              phi_grid=None):
    """Extrapolate |mu_max(N) - mu_c| to the thermodynamic limit.

    Runs find_mu_max per system size and fits a least-squares line
    through (1/N, |mu_max - mu_c|); the intercept estimates the
    residual difference at 1/N = 0.  Returns (fit, mu_maxes) with one
    mu_max per size, in the order of ns.  Every size is checked to be a
    positive even integer before the first solve.
    """
    sizes = tuple(map(_check_boson_number, ns))
    if len(sizes) < 3:
        raise ValueError(f"extrapolation needs at least 3 sizes, got {len(sizes)}")
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"duplicate system sizes in {sizes} make the fit degenerate")

    target = mu_critical(xi)
    mu_maxes = tuple(
        find_mu_max(n_bosons, xi, tau, mu_grid, phi_grid)[0] for n_bosons in sizes
    )
    points = [(1.0 / n, abs(mu_max - target)) for n, mu_max in zip(sizes, mu_maxes)]
    return fit_inverse_size(points), mu_maxes


def default_fluxes(xi):
    """The three panel fluxes phi_c/2, phi_c, 3 phi_c/2."""
    phi_c = critical_flux(xi)
    return (0.5 * phi_c, phi_c, 1.5 * phi_c)


def _theta_mirror(n_bosons):
    # The index of -theta_k on the periodic zone phase_grid(n_bosons).
    return -np.arange(n_bosons + 1) % (n_bosons + 1)


def band_panels(n_bosons, xi, mu=0.0, tau=SystemParams.tau, flux_list=None):
    """Band curves, eigenstate phase densities and ground strips, one sector_spectra per flux."""
    fluxes = default_fluxes(xi) if flux_list is None else tuple(float(f) for f in flux_list)
    if not fluxes:
        raise ValueError("flux list is empty")
    thetas = phase_grid(n_bosons)
    fourier_t = np.exp(1j * np.multiply.outer(rung_values(n_bosons), thetas))

    def panel(flux):
        spec = sector_spectra(SystemParams(n=n_bosons, mu=float(mu), xi=xi, phi=flux, tau=tau))
        eps0, ground, sector = sector_ground(spec)
        # Eigenstate 0 is the ground state, also where rounding sorts the
        # other doublet member's quasienergy below it.
        order, winner = np.argsort(spec.quasienergies, axis=None, kind="stable"), sector * thetas.size
        order = np.concatenate([[winner], order[order != winner]])
        # A sector vector x is the state [x; +-x reversed]/sqrt(2), whose
        # right-leg density is its left-leg one mirrored, theta -> -theta.
        left = np.swapaxes(spec.states, 1, 2).reshape(-1, thetas.size)[order]
        left_density = np.abs((left / np.sqrt(2.0)) @ fourier_t) ** 2
        density = np.stack([left_density, left_density[:, _theta_mirror(n_bosons)]])
        ground_map = fock_density_phase(ground)
        return BandPanel(
            flux=flux,
            thetas=thetas,
            e_lower=band_energy(thetas, flux, xi, n_bosons, "lower"),
            e_upper=band_energy(thetas, flux, xi, n_bosons, "upper"),
            quasienergies=np.sort(spec.quasienergies, axis=None),
            density=density,
            ground_quasienergy=float(eps0),
            ground_density=ground_map.density,
            ground_phase=ground_map.phase,
        )

    return [panel(flux) for flux in fluxes]
