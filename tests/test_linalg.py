import numpy as np
import pytest

from mupre.linalg import (
    NonFiniteError,
    PowerIterState,
    inv_power,
    mat_inv_power,
    newton_schulz,
    ns_schedule,
    power_iter_step,
    spectral_norm_exact,
    sym_eig,
    sym_eig_stack,
)


def rand_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def rand_psd(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    k = rank or n
    b = rng.standard_normal((n, k))
    return b @ b.T


class TestSymEig:
    def test_diagonal_descending(self):
        dec = sym_eig(np.diag([1.0, 5.0, 3.0]))
        assert np.allclose(dec.eigenvalues, [5.0, 3.0, 1.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 5, 17])
    def test_reconstruction_and_orthonormality(self, n, seed):
        a = rand_symmetric(n, seed)
        dec = sym_eig(a)
        v, w = dec.eigenvectors, dec.eigenvalues
        assert np.all(np.diff(w) <= 1e-12)
        recon = (v * w) @ v.T
        assert np.max(np.abs(recon - a)) < 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError, match="finite"):
            sym_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestMatInvPower:
    def test_frozen_quarter_power(self):
        # (diag(3,0) + I)^(-1/4) = diag(4^-0.25, 1)
        out = mat_inv_power(np.diag([3.0, 0.0]), 0.25, 1.0)
        assert np.allclose(out, np.diag([0.7071067811865476, 1.0]), atol=1e-12)

    def test_exact_inverse(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.max(np.abs(mat_inv_power(a, 1.0, 0.0) @ a - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("seed", [3, 4])
    def test_zero_exponent_is_identity(self, seed):
        a = rand_psd(6, seed)
        assert np.array_equal(mat_inv_power(a, 0.0, 0.5), np.eye(6))

    @pytest.mark.parametrize("e", [0.25, 0.5, 1.0])
    def test_commutes_with_input(self, e):
        a = rand_psd(7, 11)
        p = mat_inv_power(a, e, 1e-3)
        assert np.max(np.abs(p @ a - a @ p)) < 1e-8

    def test_matches_scalar_power_on_eigenbasis(self):
        a = rand_psd(5, 12)
        dec = sym_eig(a)
        p = mat_inv_power(a, 0.5, 0.1)
        expected = (dec.eigenvectors * (dec.eigenvalues + 0.1) ** -0.5) @ dec.eigenvectors.T
        assert np.max(np.abs(p - expected)) < 1e-10

    def test_clamps_roundoff_negatives(self):
        a = rand_psd(6, 13, rank=3)  # exactly rank deficient, eigh gives ~ -1e-16
        out = mat_inv_power(a, 0.5, 1e-2)
        assert np.all(np.isfinite(out))

    def test_singular_at_zero_eps(self):
        with pytest.raises(ValueError, match="singular"):
            mat_inv_power(np.diag([1.0, 0.0]), 0.5, 0.0)

    def test_rejects_strongly_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            mat_inv_power(np.diag([1.0, -1.0]), 0.5, 1.0)



def psd_stack(n=6):
    """A 2 x 2 stack of n x n PSD matrices."""
    return np.stack([rand_psd(n, seed) for seed in range(4)]).reshape(2, 2, n, n)


class TestSymEigStack:
    def test_matches_sym_eig_bits(self):
        a = psd_stack()
        dec = sym_eig_stack(a)
        for i, j in np.ndindex(2, 2):
            one = sym_eig(a[i, j])
            assert np.array_equal(dec.eigenvalues[i, j], one.eigenvalues)
            assert np.array_equal(dec.eigenvectors[i, j], one.eigenvectors)

    def test_rejects_non_finite(self):
        a = psd_stack()
        a[1, 0, 2, 3] = np.nan
        with pytest.raises(NonFiniteError, match="non-finite"):
            sym_eig_stack(a)


class TestInvPower:
    """inv_power takes the decompositions of a stack, with one shift per
    matrix; each matrix gets mat_inv_power's bits and checks."""

    @pytest.mark.parametrize("e,eps", [(0.25, 1e-3), (0.5, 0.0), (1.0, 1e-2)])
    def test_decomposition_input_matches_matrix_bits(self, e, eps):
        a = psd_stack()
        shifts = eps * np.array([[1.0, 2.0], [3.0, 4.0]])
        out = inv_power(sym_eig_stack(a), e, shifts)
        for i, j in np.ndindex(2, 2):
            assert np.array_equal(out[i, j], mat_inv_power(a[i, j], e, shifts[i, j]))

    def test_decomposition_input_keeps_checks(self):
        singular = np.stack([rand_psd(3, 1), np.diag([1.0, 0.0, 0.0])])
        with pytest.raises(ValueError, match="singular"):
            inv_power(sym_eig_stack(singular), 0.5, np.array([1e-3, 0.0]))
        # a zero shift is fine at full rank
        inv_power(sym_eig_stack(singular), 0.5, np.array([0.0, 1e-3]))
        indefinite = np.stack([rand_psd(2, 2), np.diag([1.0, -1.0])])
        with pytest.raises(ValueError, match="PSD"):
            inv_power(sym_eig_stack(indefinite), 0.5, 1.0)


class TestNewtonSchulz:
    def test_identity_maps_near_identity(self):
        out = newton_schulz(np.eye(3))
        assert np.max(np.abs(out - np.eye(3))) < 0.05

    def test_diagonal_polishes_to_ones(self):
        out = newton_schulz(np.diag([2.0, 0.5]))
        assert np.max(np.abs(out - np.eye(2))) < 0.05

    def test_zero_input_returns_zero(self):
        assert np.array_equal(newton_schulz(np.zeros((3, 4))), np.zeros((3, 4)))

    @pytest.mark.parametrize("iters, polish", [(1, 0), (2, 0), (3, 2), (5, 2), (8, 2)])
    def test_schedule_polishes_trailing_steps(self, iters, polish):
        schedule = ns_schedule(iters)
        assert len(schedule) == iters and sum(schedule) == polish
        assert list(schedule) == sorted(schedule)  # quintic steps come first

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4), (5, 5)])
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_close_to_svd_sign_oracle(self, shape, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(shape)
        u, _, vt = np.linalg.svd(g, full_matrices=False)
        out = newton_schulz(g)
        assert spectral_norm_exact(out - u @ vt) < 0.05

    @pytest.mark.parametrize("shape", [(5, 5), (8, 4), (9, 6)])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_gram_near_projector(self, shape, seed):
        # Full-rank inputs with rows >= cols: row-space projector is I.
        rng = np.random.default_rng(seed)
        m = rng.standard_normal(shape)
        y = newton_schulz(m)
        p = np.eye(shape[1])
        assert spectral_norm_exact(y.T @ y - p) < 0.5

    def test_singular_values_in_band(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((12, 7))
        s = np.linalg.svd(newton_schulz(m), compute_uv=False)
        assert np.all(s <= 1.5) and np.all(s >= 0.5)

    def test_wide_input_transposed_internally(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 9))
        out = newton_schulz(g)
        assert out.shape == (3, 9)
        u, _, vt = np.linalg.svd(g, full_matrices=False)
        assert spectral_norm_exact(out - u @ vt) < 0.05


class TestPowerIter:
    def test_frozen_single_step(self):
        # A = diag(3, 1), v = (1, 1)/sqrt(2): sigma = sqrt(5), v' = (9, 1)/sqrt(82)
        state = PowerIterState(v=np.array([1.0, 1.0]) / np.sqrt(2))
        out = power_iter_step(np.diag([3.0, 1.0]), state)
        assert out.sigma_hat == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert np.allclose(out.v, np.array([9.0, 1.0]) / np.sqrt(82.0), atol=1e-12)

    def test_zero_matrix_skips_direction_update(self):
        state = PowerIterState(v=np.array([1.0, 0.0]))
        out = power_iter_step(np.zeros((2, 2)), state)
        assert out.sigma_hat == 0.0
        assert np.array_equal(out.v, state.v)

    def test_converges_to_top_singular_value(self):
        state = PowerIterState(v=np.array([1.0, 1.0]) / np.sqrt(2))
        a = np.diag([3.0, 1.0])
        for _ in range(50):
            state = power_iter_step(a, state)
        assert state.sigma_hat == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sigma_hat_never_exceeds_exact(self, seed):
        a = rand_psd(6, seed)
        rng = np.random.default_rng(seed + 100)
        v = rng.standard_normal(6)
        state = PowerIterState(v=v / np.linalg.norm(v))
        exact = spectral_norm_exact(a)
        for _ in range(10):
            state = power_iter_step(a, state)
            assert state.sigma_hat <= exact + 1e-9
            assert abs(np.linalg.norm(state.v) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            power_iter_step(np.ones((3, 4)), PowerIterState(v=np.ones(3)))


class TestNorms:
    def test_spectral_norm_matches_svd(self):
        a = np.random.default_rng(5).standard_normal((7, 4))
        assert spectral_norm_exact(a) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0], rel=1e-12
        )
