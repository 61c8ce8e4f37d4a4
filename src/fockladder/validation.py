"""Cross-module invariant suite.

Every check here re-derives a property one layer promises to another:
operator algebra on the lattice, unitarity and symmetry of the engine,
identities between the numeric observables and the closed forms.  The
suite is the backing of the `validate` subcommand and is intentionally
cheap (a few seconds) so it can run routinely.  Each flux list is solved
by one floquet.solve_grounds call, the stacked route the scans use.
Each check writes its tolerance once, as the string its detail shows
and its comparison reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import floquet, lattice, meanfield, observables

__all__ = ["CheckResult", "run_invariant_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _within(name, what, worst, tol):
    # tol is written as the detail shows it, e.g. "1e-10".
    return _result(name, worst <= float(tol), f"{what} {worst:.2e} (tol {tol})")


def _check_spin_algebra():
    worst = 0.0
    for n in (2, 20, 100):
        sx = lattice.build_sx(n)
        sy = lattice.build_sy(n)
        sz = lattice.build_sz(n)
        s = n / 2.0
        eye = np.eye(n + 1)
        worst = max(
            worst,
            np.abs(sx @ sy - sy @ sx - 1j * sz).max(),
            np.abs(sy @ sz - sz @ sy - 1j * sx).max(),
            np.abs(sz @ sx - sx @ sz - 1j * sy).max(),
            np.abs(sx @ sx + sy @ sy + sz @ sz - s * (s + 1.0) * eye).max(),
        )
    return _within("spin-algebra", "commutators and Casimir close to", worst, "1e-10")


def _check_unitarity():
    worst = 0.0
    for params in (
        floquet.SystemParams(n=20, mu=0.5, xi=0.5, phi=1.0),
        floquet.SystemParams(n=100, mu=5.0, xi=0.5, phi=0.7),
        floquet.SystemParams(n=100, mu=0.0, xi=0.5, phi=0.3),
    ):
        u = floquet.build_floquet(params)
        worst = max(worst, np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    return _within("floquet-unitarity", "max |U*U - I| =", worst, "1e-10")


def _check_hermiticity():
    worst = 0.0
    for params in (
        floquet.SystemParams(n=20, mu=0.5, xi=0.5, phi=1.0),
        floquet.SystemParams(n=100, mu=-0.4, xi=0.5, phi=0.6),
    ):
        h = floquet.build_heff(params)
        worst = max(worst, np.abs(h - h.conj().T).max())
    return _within("heff-hermiticity", "max |H - H*| =", worst, "1e-12")


def _check_parity():
    worst = 0.0
    for params in (
        floquet.SystemParams(n=20, mu=-0.3, xi=0.5, phi=1.2),
        floquet.SystemParams(n=40, mu=0.5, xi=0.5, phi=1.0),
    ):
        pi_matrix = lattice.parity_operator(params.n)
        u = floquet.build_floquet(params)
        h = floquet.build_heff(params)
        worst = max(
            worst,
            np.abs(u @ pi_matrix - pi_matrix @ u).max(),
            np.abs(h @ pi_matrix - pi_matrix @ h).max(),
            np.abs(pi_matrix @ pi_matrix - np.eye(pi_matrix.shape[0])).max(),
        )
    return _within("parity-commutation", "[U,Pi], [H,Pi] and Pi^2 - I close to", worst, "1e-9")


def _check_spectrum_contract():
    params = floquet.SystemParams(n=100, mu=0.0, xi=0.5, phi=1.0)
    u = floquet.build_floquet(params)
    spec = floquet.spectrum(u, params.tau)
    eps, vectors = spec.quasienergies, spec.states
    residual = np.abs(u @ vectors - vectors * np.exp(-1j * eps * params.tau)).max()
    ortho = np.abs(vectors.conj().T @ vectors - np.eye(vectors.shape[0])).max()
    ordered = bool(np.all(np.diff(eps) >= 0))
    margin = np.abs(eps * params.tau).max() / np.pi
    tol = "1e-8"
    return _result(
        "spectrum-contract",
        residual <= float(tol) and ortho <= float(tol) and ordered and margin < 1.0,
        f"residual {residual:.2e}, orthonormality {ortho:.2e} (tol {tol}), "
        f"ascending {ordered}, zone usage {margin:.2f} of pi",
    )


def _check_two_route_spectrum():
    params = floquet.SystemParams(n=20, mu=0.5, xi=0.5, phi=1.0)
    h = floquet.build_heff(params)
    energies = np.linalg.eigvalsh(h)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * params.tau * w)) @ v.conj().T
    eps = floquet.spectrum(u, params.tau).quasienergies
    gap = np.abs(eps - energies).max()
    return _within("two-route-spectrum", "quasienergies of exp(-iHt) vs eigh(H) differ by",
                   gap, "1e-8")


def _check_route_fidelity():
    # A gapped point: near degeneracy the fidelity between the two
    # routes is limited by gap amplification, not by the tau^2 error.
    base = floquet.SystemParams(n=20, mu=0.5, xi=0.5, phi=0.5, tau=0.01)
    infidelities = []
    for tau in (base.tau, base.tau / 2.0):
        params = replace(base, tau=tau)
        _, numeric = floquet.solve_ground(params)
        _, exact = np.linalg.eigh(floquet.build_heff(params))
        infidelities.append(1.0 - np.abs(np.vdot(numeric, exact[:, 0])) ** 2)
    ratio = infidelities[0] / infidelities[1]
    tol = "1e-4"
    return _result(
        "route-fidelity",
        infidelities[0] <= float(tol) and 3.0 <= ratio <= 5.0,
        f"infidelity {infidelities[0]:.2e} at tau=0.01 (tol {tol}), "
        f"improves {ratio:.2f}x when tau halves (expect ~4)",
    )


def _check_parity_sector_route():
    # solve_ground against the full-space spectrum at a gapped point
    # and at a vortex doublet, where ground_state picks the even member.
    worst_eps, worst_jc, worst_parity = 0.0, 0.0, 0.0
    for params in (
        floquet.SystemParams(n=8, mu=0.0, xi=0.5, phi=0.5),
        floquet.SystemParams(n=100, mu=0.0, xi=0.5, phi=1.4),
    ):
        full_eps, full_state = floquet.ground_state(
            floquet.spectrum(floquet.build_floquet(params), params.tau)
        )
        eps, state = floquet.solve_ground(params)
        pi_matrix = lattice.parity_operator(params.n)
        worst_eps = max(worst_eps, abs(eps - full_eps) / max(1.0, abs(full_eps)))
        worst_jc = max(
            worst_jc,
            abs(
                observables.chiral_current_normalized(state, params.phi)
                - observables.chiral_current_normalized(full_state, params.phi)
            ),
        )
        worst_parity = max(
            worst_parity, abs(abs(np.vdot(state, pi_matrix @ state).real) - 1.0)
        )
    tol = "1e-12"
    return _result(
        "parity-sector-route",
        worst_eps <= float(tol) and worst_jc <= float(tol) and worst_parity <= float(tol),
        f"sector vs full-space ground: relative eps0 gap {worst_eps:.2e}, "
        f"j_c gap {worst_jc:.2e}, |<Pi>| - 1 = {worst_parity:.2e} (tol {tol})",
    )


def _check_parseval():
    params = floquet.SystemParams(n=60, mu=0.0, xi=0.5, phi=1.0)
    spec = floquet.spectrum(floquet.build_floquet(params), params.tau)
    thetas = observables.phase_grid(params.n)
    size = params.n + 1
    worst = 0.0
    for i in range(spec.states.shape[1]):
        state = spec.states[:, i]
        for m_index, m in enumerate((-1, 1)):
            total = observables.phase_energy_density(state, m, thetas).sum() / size
            leg_norm = np.sum(np.abs(state[m_index * size:(m_index + 1) * size]) ** 2)
            worst = max(worst, abs(total - leg_norm))
    return _within("parseval", "phase density sums match leg norms to", worst, "1e-10")


def _check_entropy_bounds():
    params = floquet.SystemParams(n=60, mu=0.0, xi=0.5, phi=0.0)
    _, states = floquet.solve_grounds(params, np.linspace(0.05, np.pi / 2.0, 12))
    entropies = [observables.entanglement_entropy_numeric(state) for state in states]
    worst_low, worst_high = min(0.0, *entropies), max(0.0, *entropies)
    rng = np.random.default_rng(7)
    analytic = [
        meanfield.entropy_analytic(phi, xi)
        for phi, xi in zip(rng.uniform(1e-3, np.pi / 2.0, 1000), rng.uniform(1e-3, 2.0, 1000))
    ]
    ok = (
        worst_low >= 0.0
        and worst_high <= np.log(2.0) + 1e-12
        and min(analytic) >= 0.0
        and max(analytic) <= np.log(2.0) + 1e-12
    )
    return _result(
        "entropy-bounds",
        ok,
        f"numeric entropy in [{worst_low:.2e}, {worst_high:.4f}], "
        f"analytic in [{min(analytic):.2e}, {max(analytic):.4f}], cap ln2 = {np.log(2.0):.4f}",
    )


def _check_current_antisymmetry():
    phis = np.array([0.3, -0.3, 0.55, -0.55])
    params = floquet.SystemParams(n=50, mu=0.0, xi=0.5, phi=0.0)
    _, states = floquet.solve_grounds(params, phis)
    currents = observables.chiral_current_numeric(states, phis)
    worst = np.abs(currents[0::2] + currents[1::2]).max()
    return _within("current-antisymmetry", "J_C(phi) + J_C(-phi) =", worst, "1e-8")


def _check_hellmann_feynman():
    params = floquet.SystemParams(n=50, mu=0.0, xi=0.5, phi=0.3)
    step = 1e-4
    phis = np.array([params.phi - step, params.phi, params.phi + step])
    eps, states = floquet.solve_grounds(params, phis)
    current = observables.chiral_current_numeric(states, phis)[1]
    derivative = (eps[2] - eps[0]) / (2.0 * step)
    rel = abs(derivative - current) / abs(current)
    return _within("hellmann-feynman", "d eps0/d phi vs J_C relative gap", rel, "1e-3")


def _check_meanfield_spinor():
    worst = 0.0
    for theta in np.linspace(-np.pi, np.pi, 41):
        for phi, xi in ((0.3, 0.5), (1.0, 0.5), (1.2, 1.5)):
            vec = meanfield.meanfield_state(theta, phi, xi)
            block = meanfield.bloch_block(theta, phi, xi, 2)
            energy = meanfield.band_energy(theta, phi, xi, 2, "lower")
            worst = max(worst, np.abs(block @ vec - energy * vec).max())
    return _within("meanfield-spinor", "lower-band spinor eigenresidual", worst, "1e-10")


def _check_analytic_current_derivative():
    worst = 0.0
    step = 1e-5
    for phi in (0.4, 1.0):
        xi = 0.5
        values = []
        for shifted in (phi - step, phi + step):
            branch = meanfield.theta0(shifted, xi)[-1]
            values.append(meanfield.band_energy(branch, shifted, xi, 2, "lower"))
        derivative = (values[1] - values[0]) / (2.0 * step)
        worst = max(worst, abs(derivative - meanfield.chiral_current_analytic(phi, xi)))
    return _within("analytic-current-derivative", "2/N dE_-/dphi vs closed form differ by",
                   worst, "1e-6")


def _check_branch_continuity():
    xi = 0.5
    phi_c = meanfield.critical_flux(xi)
    below = meanfield.chiral_current_analytic(np.nextafter(phi_c, 0.0), xi)
    above = meanfield.chiral_current_analytic(np.nextafter(phi_c, 4.0), xi)
    gap = abs(below - above)
    limit = meanfield.theta0(np.nextafter(phi_c, 4.0), xi)[-1]
    tol = "1e-10"
    return _result(
        "branch-continuity",
        gap <= float(tol) and limit <= 1e-4,
        f"current branches differ by {gap:.2e} at phi_c (tol {tol}), "
        f"theta0 -> {limit:.2e} from above",
    )


def _check_theta0_minimum():
    worst_grad = 0.0
    ok_curvature = True
    step = 1e-5
    for phi in (0.3, 1.0):
        root = meanfield.theta0(phi, 0.5)[-1]
        e = [meanfield.band_energy(root + k * step, phi, 0.5, 100, "lower") for k in (-1, 0, 1)]
        worst_grad = max(worst_grad, abs((e[2] - e[0]) / (2.0 * step)))
        ok_curvature = ok_curvature and (e[0] - 2.0 * e[1] + e[2]) > 0.0
    tol = "1e-8"
    return _result(
        "theta0-minimizes-band",
        worst_grad <= float(tol) and ok_curvature,
        f"band gradient at theta0 {worst_grad:.2e} (tol {tol}), curvature positive {ok_curvature}",
    )


def _check_doublet_splitting():
    xi = 0.5
    phi = 1.5 * meanfield.critical_flux(xi)
    splittings = []
    for n in (20, 40, 60, 80, 100):
        params = floquet.SystemParams(n=n, mu=0.0, xi=xi, phi=phi)
        spec = floquet.spectrum(floquet.build_floquet(params), params.tau)
        splittings.append(spec.quasienergies[1] - spec.quasienergies[0])
    decreasing = bool(np.all(np.diff(splittings) < 0))
    return _result(
        "vortex-splitting-monotone",
        decreasing,
        "doublet splitting falls from "
        f"{splittings[0]:.2e} to {splittings[-1]:.2e} over N = 20..100",
    )


def _check_width_scaling():
    widths = []
    for n in (20, 50, 100):
        params = floquet.SystemParams(n=n, mu=0.0, xi=0.5, phi=0.3)
        _, state = floquet.solve_ground(params)
        widths.append(np.sqrt(observables.rung_second_moment(state)) / n)
    decreasing = bool(np.all(np.diff(widths) < 0))
    return _result(
        "ground-width-subextensive",
        decreasing,
        "rms rung width per particle falls "
        f"{widths[0]:.4f} -> {widths[1]:.4f} -> {widths[2]:.4f} over N = 20, 50, 100",
    )


def run_invariant_suite():
    """Run every cross-module invariant; returns a list of CheckResult."""
    checks = (
        _check_spin_algebra,
        _check_unitarity,
        _check_hermiticity,
        _check_parity,
        _check_spectrum_contract,
        _check_two_route_spectrum,
        _check_route_fidelity,
        _check_parity_sector_route,
        _check_parseval,
        _check_entropy_bounds,
        _check_current_antisymmetry,
        _check_hellmann_feynman,
        _check_meanfield_spinor,
        _check_analytic_current_derivative,
        _check_branch_continuity,
        _check_theta0_minimum,
        _check_doublet_splitting,
        _check_width_scaling,
    )
    return [check() for check in checks]
