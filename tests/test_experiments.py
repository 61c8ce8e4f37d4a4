import math
import re

import numpy as np
import pytest

from fockladder.experiments import (
    DEFAULT_PHI_GRID,
    ScanRecord,
    analytic_pair,
    band_panels,
    default_fluxes,
    find_mu_max,
    finite_size_extrapolation,
    fit_inverse_size,
    interaction_scan,
    scan_flux,
)
from fockladder import experiments, floquet
from fockladder.floquet import (
    DEGENERACY_TOL,
    BranchAmbiguityError,
    SystemParams,
    build_floquet,
    sector_ground,
    sector_spectra,
    solve_ground,
    solve_grounds,
    spectrum,
)
from fockladder.meanfield import chiral_current_analytic, critical_flux, entropy_analytic
from fockladder.observables import (
    chiral_current_normalized,
    entanglement_entropy_numeric,
    fock_density_phase,
    phase_energy_density,
)

XI = 0.5


@pytest.fixture
def solves(monkeypatch):
    # Every solve the scan layer asks for, stacked ground states or full
    # sector spectra: a list that must stay empty where a test expects a
    # refusal before any solve.
    calls = []
    monkeypatch.setattr(experiments, "solve_grounds", lambda *args: calls.append(args))
    monkeypatch.setattr(experiments, "sector_spectra", calls.append)
    return calls


class TestScanFlux:
    def test_single_zero_flux_point(self):
        records = scan_flux(8, mu=0.0, xi=XI, phi_grid=[0.0])
        assert len(records) == 1
        assert records[0].jc_numeric == pytest.approx(0.0, abs=1e-10)
        assert records[0].jc_analytic == 0.0

    def test_records_ordered_and_consistent(self):
        grid = np.linspace(0.1, 1.2, 7)
        records = scan_flux(8, mu=0.0, xi=XI, phi_grid=grid)
        assert [r.params.phi for r in records] == pytest.approx(list(grid))
        for record in records:
            assert record.params.n == 8
            assert record.params.xi == XI

    def test_records_carry_both_observable_pairs(self):
        # One solve per flux feeds the current and the entropy pair alike.
        record = scan_flux(20, mu=0.0, xi=XI, phi_grid=[0.4])[0]
        _, state = solve_ground(record.params)
        assert record.jc_numeric == chiral_current_normalized(state, 0.4)
        assert record.entropy_numeric == entanglement_entropy_numeric(state)
        assert (record.jc_analytic, record.entropy_analytic) == analytic_pair(0.4, XI)

    @pytest.mark.parametrize("mu", [0.0, -0.45])
    def test_stacked_records_equal_one_flux_records(self, mu):
        # At N=20 the default grid is solved in stacks of 18 fluxes; every
        # field of every record is that of the record built from
        # solve_ground at its flux.
        records = scan_flux(20, mu, XI)
        assert len(records) == DEFAULT_PHI_GRID.size
        for phi, record in zip(DEFAULT_PHI_GRID, records):
            params = SystemParams(n=20, mu=mu, xi=XI, phi=float(phi))
            assert record == ScanRecord.from_state(params, solve_ground(params)[1])

    def test_rejects_descending_grid(self):
        with pytest.raises(ValueError, match="ascending"):
            scan_flux(8, mu=0.0, xi=XI, phi_grid=[0.5, 0.4])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match=r"^flux grid needs at least 1 point$"):
            scan_flux(8, mu=0.0, xi=XI, phi_grid=[])

    def test_rejects_grid_outside_domain(self):
        with pytest.raises(ValueError, match="outside"):
            scan_flux(8, mu=0.0, xi=XI, phi_grid=[0.5, 2.0])

    def test_analytic_fields_within_the_flux_slack(self):
        # A grid's last flux may round just above pi/2; the scan accepts it,
        # and so do both closed forms.
        phi = 1.5707963267949
        record = scan_flux(8, 0.0, XI, phi_grid=[1.0, phi])[-1]
        assert record.jc_analytic == chiral_current_analytic(phi, XI)
        assert record.entropy_analytic == entropy_analytic(phi, XI)

    def test_nan_grid_rejected_before_any_solve(self, solves):
        # NaN passes the ascending check: every comparison with it is False.
        with pytest.raises(ValueError, match="flux grid must be finite"):
            scan_flux(8, mu=0.0, xi=XI, phi_grid=[0.1, 0.2, math.nan])
        assert solves == []

    @pytest.mark.parametrize("phi_grid", [0.5, [[0.1, 0.2], [0.3, 0.4]]], ids=["scalar", "2d"])
    def test_grid_not_one_dimensional_rejected_before_any_solve(self, solves, phi_grid):
        with pytest.raises(ValueError, match="flux grid must be one-dimensional"):
            scan_flux(20, mu=0.0, xi=XI, phi_grid=phi_grid)
        assert solves == []


class TestGroundRecord:
    # The numeric/analytic pair the `ground` command records at one point.
    def test_pairs_numeric_with_analytic(self):
        _, state = solve_ground(SystemParams(n=20, mu=0.0, xi=XI, phi=0.4))
        jc_analytic, entropy_analytic = analytic_pair(0.4, XI)
        assert chiral_current_normalized(state, 0.4) == pytest.approx(jc_analytic, rel=0.15)
        assert entanglement_entropy_numeric(state) is not None
        assert entropy_analytic == 0.0

    def test_analytic_fields_none_outside_domain(self):
        assert analytic_pair(-0.4, XI) == (None, None)
        assert analytic_pair(2.5, XI) == (None, None)

    def test_record_is_the_flux_scan_record(self):
        params = SystemParams(n=20, mu=0.0, xi=XI, phi=0.4)
        record = ScanRecord.from_state(params, solve_ground(params)[1])
        assert record == scan_flux(20, 0.0, XI, phi_grid=[0.4])[0]

    def test_entropy_analytic_none_at_zero_flux(self):
        assert analytic_pair(0.0, XI) == (0.0, None)

    def test_analytic_fields_none_for_decoupled_legs(self):
        # At xi = 0 neither closed form applies (both divide by xi).
        for phi in (0.0, 0.4, np.pi / 2.0):
            assert analytic_pair(phi, 0.0) == (None, None)


class TestEntropyScan:
    # The entropy pair of scan_flux records at mu = 0.
    def test_analytic_entropy_none_at_zero_flux(self):
        records = scan_flux(8, 0.0, XI, phi_grid=[0.0, 0.5])
        assert records[0].entropy_analytic is None
        assert records[0].entropy_numeric == pytest.approx(0.0, abs=1e-10)
        assert math.copysign(1.0, records[0].entropy_numeric) == 1.0
        assert records[1].entropy_analytic == analytic_pair(0.5, XI)[1]

    def test_entropy_grows_across_transition(self):
        phi_c = critical_flux(XI)
        records = scan_flux(20, 0.0, XI, phi_grid=[phi_c - 0.3, phi_c + 0.3])
        assert records[1].entropy_numeric > records[0].entropy_numeric

    def test_vanishes_toward_zero_flux(self):
        records = scan_flux(20, 0.0, XI, phi_grid=[0.01])
        assert records[0].entropy_numeric == pytest.approx(0.0, abs=1e-3)


class TestInteractionScan:
    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="at least 3"):
            interaction_scan(8, XI, mu_grid=[-0.5, 0.0], phi_grid=[0.3, 0.6])

    def test_rejects_descending_grid(self):
        with pytest.raises(ValueError, match="ascending"):
            interaction_scan(8, XI, mu_grid=[0.0, -0.2, -0.4], phi_grid=[0.3, 0.6])

    @pytest.mark.parametrize(
        "mu_grid, phi_grid, named",
        [([-0.2, math.nan, 0.1], None, "interaction grid must be finite"),
         ([-0.2, 0.0, 0.1], [0.1, math.nan, 0.5], "flux grid must be finite")],
        ids=["mu", "phi"],
    )
    def test_nan_grid_rejected_before_any_solve(self, solves, mu_grid, phi_grid, named):
        with pytest.raises(ValueError, match=named):
            interaction_scan(8, XI, mu_grid=mu_grid, phi_grid=phi_grid)
        assert solves == []

    @pytest.mark.parametrize(
        "mu_grid, phi_grid, named",
        [([[-0.2, 0.0, 0.1]], None, "interaction grid must be one-dimensional"),
         ([-0.2, 0.0, 0.1], [[0.1, 0.3], [0.5, 0.7]], "flux grid must be one-dimensional")],
        ids=["mu", "phi"],
    )
    def test_grid_not_one_dimensional_rejected_before_any_solve(self, solves, mu_grid, phi_grid, named):
        with pytest.raises(ValueError, match=named):
            interaction_scan(8, XI, mu_grid=mu_grid, phi_grid=phi_grid)
        assert solves == []

    def test_decoupled_legs_rejected_before_any_solve(self, solves):
        # At xi = 0 j_c vanishes identically: every row would be rounding noise.
        with pytest.raises(ValueError, match="xi = 0"):
            interaction_scan(8, 0.0)
        assert solves == []

    def test_warm_bracket_keeps_the_higher_bump_at_n20(self):
        # Near mu_c the current has two bumps in flux; a 21-point guard
        # without the warm bracket takes the lower one here (phi 0.565,
        # jc 1.1e-3 low).  The grid ends at the row so the previous
        # rows' peak flux carries in.
        mu, peak_phi, peak_jc = interaction_scan(20, XI, mu_grid=[-0.60, -0.59, -0.58])[-1]
        assert mu == -0.58
        assert abs(peak_phi - 0.68016) <= 1e-3
        assert peak_jc >= 0.39517540 - 1e-6

    def test_warm_bracket_keeps_the_higher_bump_at_n40(self):
        # A 25-point guard without the warm bracket takes the lower bump
        # here (jc 1.7e-4 low); pinned to what a scan of all 121 grid
        # fluxes plus subdivision gives.
        rows = interaction_scan(40, XI, tau=0.0025, mu_grid=[-0.54, -0.53, -0.52])
        mu, peak_phi, peak_jc = rows[-1]
        assert mu == -0.52
        assert abs(peak_phi - 0.6946344376542397) <= 1e-3
        assert peak_jc >= 0.4529862707805174 - 1e-6

    def test_rows_are_interaction_ordered_triples(self):
        grid = np.linspace(-0.5, -0.2, 4)
        rows = interaction_scan(8, XI, mu_grid=grid, phi_grid=np.linspace(0.0, 1.5, 9))
        assert [row[0] for row in rows] == pytest.approx(list(grid))
        for _, peak_phi, peak_jc in rows:
            assert 0.0 <= peak_phi <= np.pi / 2.0
            assert peak_jc > 0.0


class TestFindMuMax:
    def test_boundary_maximum_reports_wider_bracket(self):
        with pytest.raises(ValueError, match="widen the mu bracket"):
            find_mu_max(
                8, XI, mu_grid=np.linspace(-0.2, 0.1, 4),
                phi_grid=np.linspace(0.0, 1.5, 9),
            )

    def test_one_point_flux_grid_rejected_before_any_solve(self, solves):
        # Its step, which sets the polish window, is undefined.
        mu_grid = np.linspace(-0.7, -0.2, 6)
        with pytest.raises(ValueError, match="flux grid needs at least 2 points"):
            find_mu_max(8, XI, mu_grid=mu_grid, phi_grid=[0.6])
        with pytest.raises(ValueError, match="flux grid needs at least 2 points"):
            finite_size_extrapolation(ns=(8, 10, 12), xi=XI, mu_grid=mu_grid, phi_grid=[0.6])
        assert solves == []

    def test_decoupled_legs_rejected_before_any_solve(self, solves):
        # At xi = 0 j_c vanishes identically: a maximum would be rounding noise.
        with pytest.raises(ValueError, match="xi = 0"):
            find_mu_max(8, 0.0)
        with pytest.raises(ValueError, match="xi = 0"):
            finite_size_extrapolation(ns=(8, 10, 12), xi=0.0)
        assert solves == []

    def test_coarse_and_fine_interaction_grids_agree(self):
        # The refined maximum must not depend on the starting grid
        # resolution (measured 3.0e-6 apart).
        phi_grid = np.linspace(0.0, np.pi / 2.0, 31)
        coarse, _, _ = find_mu_max(
            20, XI, mu_grid=np.linspace(-0.6, 0.1, 11), phi_grid=phi_grid
        )
        fine, _, _ = find_mu_max(
            20, XI, mu_grid=np.linspace(-0.6, 0.1, 71), phi_grid=phi_grid
        )
        assert abs(coarse - fine) < 5e-5

    def test_solve_count_on_default_grids(self, monkeypatch):
        # 71 rows of guard + warm bracket + Brent, plus the mu polish:
        # 5,448 points (an exhaustive 121-point scan is 8,591 alone) in
        # 1,362 stacked calls, one per guard and one per lockstep Brent step.
        stacks, spectra = [], []

        def counted(params, phis):
            stacks.append(len(phis))
            return solve_grounds(params, phis)

        def full(params):
            spectra.append(params)
            return sector_spectra(params)

        monkeypatch.setattr(experiments, "solve_grounds", counted)
        monkeypatch.setattr(experiments, "sector_spectra", full)
        find_mu_max(20, XI)
        assert sum(stacks) + len(spectra) <= 5550
        assert len(stacks) + len(spectra) <= 1390

    def test_flux_peak_searches_each_distinct_bracket_once(self, monkeypatch):
        # The first mu-polish window of find_mu_max(20, 0.5) is centred on its
        # warm flux, so the warm bracket is also the guard bracket at the
        # centre.  That bracket gets one search, and the peak is the one found
        # when the repeat ran a search of its own, last.
        window = np.linspace(0.6681779613536589, 0.7532899021255834, 25)
        warm, mu, tau = float(window[12]), -0.4073, 0.01
        params = SystemParams(n=20, mu=mu, xi=XI, phi=0.0, tau=tau)

        def currents(phis):
            return chiral_current_normalized(solve_grounds(params, phis)[1], np.asarray(phis))

        values = currents(window)
        padded = np.concatenate(([-np.inf], values, [-np.inf]))
        maxima = np.flatnonzero((values > padded[:-2]) & (values >= padded[2:]))
        brackets = [(float(window[max(k - 1, 0)]), float(window[min(k + 1, 24)])) for k in maxima]
        step = window[1] - window[0]
        repeat = (float(max(warm - step, window[0])), float(min(warm + step, window[-1])))
        assert repeat == (window[11], window[13]) and repeat in brackets
        started, brent = [], experiments._brent_max

        def recorded(lo, hi, xatol):
            started.append((lo, hi))
            return brent(lo, hi, xatol)

        monkeypatch.setattr(experiments, "_brent_max", recorded)
        peak = experiments._flux_peak(20, mu, XI, tau, window, warm, experiments.POLISH_XATOL)
        assert started == brackets
        k = int(np.argmax(values))
        best = (float(window[k]), float(values[k]))
        searches = [brent(lo, hi, experiments.POLISH_XATOL) for lo, hi in brackets + [repeat]]
        for phi, jc in experiments._lockstep(searches, currents):
            if jc > best[1]:
                best = (phi, jc)
        assert peak == best

    def test_polish_solves_only_inside_the_flux_grid(self, monkeypatch):
        # The mu polish's flux window is clamped to the scan's own grid, not
        # to [0, pi/2]: on [0.2, 0.6] it once solved fluxes up to 0.627.
        fluxes = []

        def recorded(params, phis):
            fluxes.extend(phis)
            return solve_grounds(params, phis)

        monkeypatch.setattr(experiments, "solve_grounds", recorded)
        phi_grid = np.linspace(0.2, 0.6, 31)
        find_mu_max(20, XI, mu_grid=np.linspace(-0.6, 0.1, 15), phi_grid=phi_grid)
        assert fluxes
        assert phi_grid[0] <= min(fluxes) and max(fluxes) <= phi_grid[-1]


def _sector_jump(x):
    # The sector crossing: the current rises linearly to x = 0.68, then
    # drops to the other sector's branch.
    return 0.6166 + 1.33 * (x - 0.68) if x <= 0.68 else 0.4834 - 0.5 * (x - 0.68)


class TestBoundedMax:
    # The private Brent maximizer behind every flux and interaction peak.
    XATOL = 1e-6

    @staticmethod
    def counted(f):
        calls = []

        def wrapped(x):
            calls.append(x)
            return f(x)

        return wrapped, calls

    CASES = {
        "quadratic": (lambda x: -(x - 0.3) ** 2, 0.0, 1.0),
        "jump": (_sector_jump, 0.6, 0.75),
        "bound": (lambda x: x, 0.0, 1.0),
        "damped_cosine": (lambda x: math.cos(3.0 * x) * math.exp(-x), -1.0, 1.0),
        "skewed": (lambda x: x * math.exp(-5.0 * x), 0.0, 2.0),
    }

    def test_quadratic(self):
        f, calls = self.counted(self.CASES["quadratic"][0])
        x, fx = experiments._bounded_max(f, 0.0, 1.0, self.XATOL)
        assert len(calls) <= 8
        assert abs(x - 0.3) <= self.XATOL
        assert fx == -((x - 0.3) ** 2)

    def test_one_sided_jump(self):
        x, fx = experiments._bounded_max(_sector_jump, 0.6, 0.75, self.XATOL)
        assert 0.0 <= 0.68 - x <= self.XATOL
        assert fx >= 0.6166 - 1.33 * self.XATOL

    def test_maximum_on_a_bound(self):
        x, fx = experiments._bounded_max(lambda x: x, 0.0, 1.0, self.XATOL)
        assert 0.0 < 1.0 - x <= self.XATOL
        assert fx == x

    @pytest.mark.parametrize("xatol", [1e-5, 1e-6, 1e-9])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_scipy_bounded(self, name, xatol):
        from scipy.optimize import minimize_scalar

        f, lo, hi = self.CASES[name]
        x, fx = experiments._bounded_max(f, lo, hi, xatol)
        ref = minimize_scalar(
            lambda t: -f(t), bounds=(lo, hi), method="bounded", options={"xatol": xatol}
        )
        assert abs(x - ref.x) <= 1e-12
        assert fx == -ref.fun

    @pytest.mark.parametrize("xatol", [1e-6, 1e-9])
    def test_lockstep_equals_each_search_alone(self, xatol):
        # All five searches advance together, one evaluate call per round;
        # each gets the points and the result it gets alone.
        alone = {}
        for name, (f, lo, hi) in self.CASES.items():
            counted, calls = self.counted(f)
            alone[name] = (experiments._bounded_max(counted, lo, hi, xatol), calls)

        queue, points, rounds = [], {name: [] for name in self.CASES}, []

        def named(name, search):
            # Passes the search through, queueing its name for each point.
            x = next(search)
            while True:
                queue.append(name)
                try:
                    x = search.send((yield x))
                except StopIteration as done:
                    return done.value

        def evaluate(xs):
            rounds.append(len(xs))
            names = [queue.pop(0) for _ in xs]
            for name, x in zip(names, xs):
                points[name].append(x)
            return [self.CASES[name][0](x) for name, x in zip(names, xs)]

        searches = [named(name, experiments._brent_max(lo, hi, xatol))
                    for name, (_, lo, hi) in self.CASES.items()]
        results = experiments._lockstep(searches, evaluate)
        for name, result in zip(self.CASES, results):
            assert result == alone[name][0]
            assert points[name] == alone[name][1]
        assert len(rounds) == max(len(calls) for _, calls in alone.values())

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_evaluation_count_ceiling(self, name):
        # Golden section alone needs ~38 steps to shrink [0, 1] to the
        # 1e-8 relative floor of the stopping test.
        f, lo, hi = self.CASES[name]
        f, calls = self.counted(f)
        experiments._bounded_max(f, lo, hi, 1e-9)
        assert len(calls) <= 40


class TestFitInverseSize:
    def test_recovers_exact_line(self):
        points = [(0.05, 0.6), (0.025, 0.35), (0.01, 0.2)]
        fit = fit_inverse_size(points)
        assert fit.slope == pytest.approx(10.0, abs=1e-9)
        assert fit.intercept == pytest.approx(0.1, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_inverse_size([(0.1, 1.0), (0.2, 2.0)])

    def test_rejects_duplicate_abscissas(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_inverse_size([(0.1, 1.0), (0.1, 2.0), (0.2, 3.0)])


class TestFiniteSizeExtrapolation:
    def test_rejects_duplicate_sizes(self):
        with pytest.raises(ValueError, match="duplicate"):
            finite_size_extrapolation(ns=(20, 20, 40))

    def test_rejects_too_few_sizes(self):
        with pytest.raises(ValueError, match="at least 3"):
            finite_size_extrapolation(ns=(20, 40))

    def test_every_size_checked_before_any_solve(self, monkeypatch):
        # An odd size last must not cost the find_mu_max runs before it.
        calls = []
        monkeypatch.setattr(experiments, "find_mu_max", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="unsupported particle number 13"):
            finite_size_extrapolation(ns=(8, 12, 13), xi=XI)
        assert calls == []

    def test_fractional_size_refused_before_any_solve(self, monkeypatch):
        # Truncating it would silently run 8.9 as N=8.
        calls = []
        monkeypatch.setattr(experiments, "find_mu_max", lambda *args: calls.append(args))
        with pytest.raises(TypeError, match="boson number must be an integer, got 8.9"):
            finite_size_extrapolation(ns=(8.9, 12, 16), xi=XI)
        assert calls == []


class TestBandPanels:
    def test_default_fluxes_bracket_transition(self):
        phi_c = critical_flux(XI)
        np.testing.assert_allclose(
            default_fluxes(XI), (0.5 * phi_c, phi_c, 1.5 * phi_c), atol=1e-15
        )

    def test_panel_shapes_and_ordering(self):
        n_bosons = 20
        panels = band_panels(n_bosons, XI, flux_list=[0.3, 0.9])
        assert len(panels) == 2
        panel = panels[1]
        size = n_bosons + 1
        assert panel.thetas.shape == (size,)
        assert panel.density.shape == (2, 2 * size, size)
        assert panel.ground_density.shape == (2, size)
        assert np.all(panel.e_lower <= panel.e_upper)
        assert np.all(np.diff(panel.quasienergies) >= 0)
        assert panel.ground_quasienergy == panel.quasienergies[0]

    def test_eigenstate_phase_density_parseval(self):
        n_bosons = 12
        panel = band_panels(n_bosons, XI, flux_list=[0.7])[0]
        totals = panel.density.sum(axis=(0, 2)) / (n_bosons + 1)
        np.testing.assert_allclose(totals, 1.0, atol=1e-10)

    def test_rejects_empty_flux_list(self):
        with pytest.raises(ValueError, match="empty"):
            band_panels(8, XI, flux_list=[])

    def test_every_eigenstate_is_parity_symmetric_at_a_doublet(self):
        # A parity eigenstate's right leg is its left leg reversed, so its
        # right-leg density at theta_k is the left-leg one at theta_{-k},
        # exactly: in the Meissner phase (0.3) and at a vortex doublet (1.4).
        n_bosons = 100
        meissner, doublet = band_panels(n_bosons, XI, flux_list=[0.3, 1.4])
        assert doublet.quasienergies[1] - doublet.quasienergies[0] <= DEGENERACY_TOL
        mirror = -np.arange(n_bosons + 1) % (n_bosons + 1)
        for panel in (meissner, doublet):
            assert np.array_equal(panel.density[1], panel.density[0][:, mirror])

    def test_every_eigenstate_matches_phase_energy_density(self):
        # Eigenstate i, built here from its sector vector x as
        # [x; +-x reversed]/sqrt(2) in panel order (the ground state, then
        # the rest by ascending quasienergy), against observables' route.
        n_bosons = 8
        size = n_bosons + 1
        for panel in band_panels(n_bosons, XI):
            spec = sector_spectra(SystemParams(n=n_bosons, mu=0.0, xi=XI, phi=panel.flux))
            winner = sector_ground(spec)[2] * size
            energies = spec.quasienergies.ravel()
            order = sorted(range(2 * size), key=lambda j: (j != winner, energies[j]))
            for i, (sector, column) in enumerate(divmod(j, size) for j in order):
                x = spec.states[sector, :, column]
                state = np.concatenate([x, (1 - 2 * sector) * x[::-1]]) / np.sqrt(2.0)
                for leg, m in enumerate((-1, 1)):
                    np.testing.assert_allclose(
                        panel.density[leg, i], phase_energy_density(state, m, panel.thetas),
                        rtol=0, atol=1e-12)

    def test_ground_matches_solve_ground(self):
        params = SystemParams(n=100, mu=0.0, xi=XI, phi=1.4)
        panel = band_panels(params.n, XI, flux_list=[params.phi])[0]
        eps0, state = solve_ground(params)
        # Two algorithms (full sector spectra, and solve_ground's top
        # eigenpair of Y), so they agree to rounding, not bit for bit.
        assert panel.ground_quasienergy == pytest.approx(eps0, rel=1e-12, abs=0)
        np.testing.assert_allclose(panel.ground_density, fock_density_phase(state).density,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_bosons", [20, 100])
    def test_eigenstate_zero_is_the_solve_ground_state(self, n_bosons):
        # On a doublet tied within DEGENERACY_TOL the odd member's minimum
        # can sort first by rounding; eigenstate 0 is still the member
        # solve_ground picks.  At N=20, phi >= 1.42 the two members' phase
        # densities differ by ~1e-4; at N=100 by ~1e-13.
        for panel in band_panels(n_bosons, XI, flux_list=np.linspace(1.0, 1.57, 20)):
            eps0, state = solve_ground(SystemParams(n=n_bosons, mu=0.0, xi=XI, phi=panel.flux))
            expected = np.stack([phase_energy_density(state, m, panel.thetas) for m in (-1, 1)])
            assert panel.ground_quasienergy == panel.quasienergies[0]
            assert panel.ground_quasienergy == pytest.approx(eps0, rel=1e-12, abs=0)
            np.testing.assert_allclose(panel.density[:, 0], expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_bosons", [8, 100])
    def test_quasienergies_match_full_space_spectrum(self, n_bosons):
        for panel in band_panels(n_bosons, XI, flux_list=[0.3, 1.4]):
            params = SystemParams(n=n_bosons, mu=0.0, xi=XI, phi=panel.flux)
            full = spectrum(build_floquet(params), params.tau).quasienergies
            assert np.all(
                np.abs(panel.quasienergies - full) <= 1e-12 * np.maximum(1.0, np.abs(full))
            )


class TestBranchAbortMessages:
    # Only floquet.sector_spectra meets the zone edge, and its message names
    # the point; the scans pass it on as it is.  With the certificate floor
    # above 1 no point is certified, so every flux takes the full sector
    # spectra, and the third spectrum call fails.
    @pytest.fixture
    def edge_on_third_spectrum(self, monkeypatch):
        calls = []

        def refuse_third(u, tau):
            calls.append(tau)
            if len(calls) == 3:
                raise BranchAmbiguityError("edge")
            return spectrum(u, tau)

        monkeypatch.setattr(floquet, "_COS_FLOOR", 2.0)
        monkeypatch.setattr(floquet, "spectrum", refuse_third)
        return calls

    def test_flux_scan_names_the_flux(self, edge_on_third_spectrum):
        with pytest.raises(BranchAmbiguityError, match=r"^at mu=0.0, phi=0.5: edge$"):
            scan_flux(8, 0.0, XI, phi_grid=[0.1, 0.3, 0.5, 0.7])
        assert len(edge_on_third_spectrum) == 3

    def test_interaction_scan_names_the_point(self, edge_on_third_spectrum):
        with pytest.raises(BranchAmbiguityError, match=r"^at mu=-0.1, phi=0.5: edge$"):
            interaction_scan(8, XI, mu_grid=[-0.1, 0.0, 0.1], phi_grid=[0.1, 0.3, 0.5, 0.7])
        assert len(edge_on_third_spectrum) == 3

    def test_stacked_failure_names_the_failing_flux(self, edge_on_third_spectrum):
        # At N=20 the default grid goes in stacks of 18 fluxes; the message
        # names the third flux, not its stack's first, and no flux takes its
        # sector spectra twice.
        expected = f"at mu=-0.45, phi={DEFAULT_PHI_GRID[2]}: edge"
        with pytest.raises(BranchAmbiguityError, match=f"^{re.escape(expected)}$"):
            scan_flux(20, -0.45, XI)
        assert len(edge_on_third_spectrum) == 3

    def test_band_panel_names_the_flux(self, edge_on_third_spectrum):
        with pytest.raises(BranchAmbiguityError, match=r"^at mu=0.0, phi=0.5: edge$"):
            band_panels(8, XI, flux_list=[0.1, 0.3, 0.5, 0.7])
        assert len(edge_on_third_spectrum) == 3

    def test_solve_ground_names_the_point(self, edge_on_third_spectrum):
        for phi in (0.1, 0.3):
            solve_ground(SystemParams(n=8, mu=-0.1, xi=XI, phi=phi))
        with pytest.raises(BranchAmbiguityError, match=r"^at mu=-0.1, phi=0.5: edge$"):
            solve_ground(SystemParams(n=8, mu=-0.1, xi=XI, phi=0.5))
        assert len(edge_on_third_spectrum) == 3

    def test_uncertified_point_names_itself(self, monkeypatch):
        # N=100, mu=5 is certified at no default-grid flux, so it takes the
        # full sector spectra with the floor as it is.
        def refuse(u, tau):
            raise BranchAmbiguityError("edge")

        monkeypatch.setattr(floquet, "spectrum", refuse)
        with pytest.raises(BranchAmbiguityError, match=r"^at mu=5.0, phi=0.5: edge$"):
            scan_flux(100, 5.0, XI, phi_grid=[0.5])
