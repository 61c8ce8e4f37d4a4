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
