import numpy as np
import pytest

from fockladder.lattice import (
    _splus_couplings,
    build_sx,
    build_sy,
    build_sz,
    dim_bec,
    parity_operator,
    rung_values,
)


def commutator(a, b):
    return a @ b - b @ a


def site(n_bosons, n, m):
    # Linear index of rung n on leg m: leg-major, rung-ascending.
    return (m == 1) * (n_bosons + 1) + n + n_bosons // 2


class TestDimensions:
    def test_sizes(self):
        assert dim_bec(4) == 5

    def test_rung_values(self):
        np.testing.assert_array_equal(rung_values(4), [-2, -1, 0, 1, 2])

    @pytest.mark.parametrize("bad", [0, -2, 3, 101])
    def test_rejects_bad_boson_numbers(self, bad):
        with pytest.raises(ValueError, match="unsupported particle number"):
            dim_bec(bad)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            dim_bec(4.0)


class TestSpinOperators:
    def test_splus_matrix_elements_n2(self):
        # S = 1: <n+1|S+|n> = sqrt(2 - n(n+1)) = sqrt(2) for n = -1, 0.
        sp = build_sx(2) + 1j * build_sy(2)
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = np.sqrt(2.0)
        np.testing.assert_allclose(sp, expected, atol=1e-15)

    def test_splus_couplings_cached_read_only_per_size(self):
        couplings = _splus_couplings(20)
        assert couplings is _splus_couplings(20) and not couplings.flags.writeable
        n = np.arange(-10.0, 10.0)
        assert (couplings == np.sqrt(110.0 - n * (n + 1.0))).all()

    def test_splus_raises_rung_index(self):
        n_bosons = 6
        sp = build_sx(n_bosons) + 1j * build_sy(n_bosons)
        basis = np.zeros(dim_bec(n_bosons))
        basis[2] = 1.0
        raised = sp @ basis
        assert np.argmax(np.abs(raised)) == 3

    @pytest.mark.parametrize("n_bosons", [2, 6, 20])
    def test_su2_algebra(self, n_bosons):
        sx = build_sx(n_bosons)
        sy = build_sy(n_bosons)
        sz = build_sz(n_bosons)
        np.testing.assert_allclose(commutator(sx, sy), 1j * sz, atol=1e-12)
        np.testing.assert_allclose(commutator(sy, sz), 1j * sx, atol=1e-12)
        np.testing.assert_allclose(commutator(sz, sx), 1j * sy, atol=1e-12)

    @pytest.mark.parametrize("n_bosons", [2, 6, 20])
    def test_casimir(self, n_bosons):
        sx = build_sx(n_bosons)
        sy = build_sy(n_bosons)
        sz = build_sz(n_bosons)
        s = n_bosons / 2.0
        casimir = sx @ sx + sy @ sy + sz @ sz
        np.testing.assert_allclose(
            casimir, s * (s + 1.0) * np.eye(dim_bec(n_bosons)), atol=1e-10
        )

    def test_hermitian_kinds(self):
        for op in (build_sx(4), build_sy(4), build_sz(4)):
            assert np.abs(op - op.conj().T).max() <= 1e-12
        sp = build_sx(4) + 1j * build_sy(4)
        assert np.abs(sp - sp.conj().T).max() > 1.0


class TestParity:
    def test_squares_to_identity(self):
        pi_op = parity_operator(6)
        np.testing.assert_allclose(pi_op @ pi_op, np.eye(14), atol=1e-15)

    def test_flips_rung_and_leg(self):
        n_bosons = 4
        pi_op = parity_operator(n_bosons)
        source = site(n_bosons, n=1, m=-1)
        target = site(n_bosons, n=-1, m=1)
        basis = np.zeros(2 * dim_bec(n_bosons))
        basis[source] = 1.0
        image = pi_op @ basis
        assert image[target] == pytest.approx(1.0)
        assert np.sum(np.abs(image)) == pytest.approx(1.0)
