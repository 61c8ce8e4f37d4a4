from fockladder import floquet
from fockladder.validation import CheckResult, run_invariant_suite


class TestInvariantSuite:
    def test_every_check_passes(self):
        results = run_invariant_suite()
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_structure(self):
        results = run_invariant_suite()
        assert len(results) >= 15
        assert all(isinstance(r, CheckResult) for r in results)
        names = [r.name for r in results]
        assert len(set(names)) == len(names)
        assert all(r.detail for r in results)

    def test_covers_required_families(self):
        names = {r.name for r in run_invariant_suite()}
        for expected in (
            "spin-algebra",
            "floquet-unitarity",
            "heff-hermiticity",
            "parity-commutation",
            "parseval",
            "entropy-bounds",
            "current-antisymmetry",
            "hellmann-feynman",
            "parity-sector-route",
        ):
            assert expected in names

    def test_flux_lists_run_the_stacked_route(self, monkeypatch):
        # solve_ground reaches floquet.solve_grounds too, as a list of one flux.
        lists = []
        solve_grounds = floquet.solve_grounds

        def recorder(params, phis):
            lists.append((params.n, len(phis)))
            return solve_grounds(params, phis)

        monkeypatch.setattr(floquet, "solve_grounds", recorder)
        results = run_invariant_suite()
        assert [r.name for r in results if not r.passed] == []
        for n in (50, 60):
            assert any(size >= 2 for m, size in lists if m == n), lists
