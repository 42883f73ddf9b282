import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mupre.linalg import (
    NS_DEFAULT_EPS,
    NS_QUINTIC,
    NonFiniteError,
    PowerIterState,
    inv_power,
    mat_inv_power,
    range_inv_power_apply,
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


def traced_peak(fn, *args):
    """Bytes allocated at the peak of one call, over what was live before it."""
    fn(*args)  # warm up any one-off allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


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


class TestRangeInvPowerApply:
    """range_inv_power_apply applies the root of a low-rank matrix from the
    decomposition of its compression onto a basis of its range."""

    @pytest.mark.parametrize("e", [0.25, 0.5, 1.0])
    def test_matches_formed_root(self, e):
        # 2 x 2 stack of rank-3 10 x 10 PSD matrices, with a 4-column basis
        # that holds each range, applied to 10 x 2 right-hand sides
        rng = np.random.default_rng(40)
        b = rng.standard_normal((2, 2, 10, 3))
        a = b @ b.swapaxes(-1, -2)
        basis = np.linalg.qr(np.concatenate((b, rng.standard_normal((2, 2, 10, 1))), -1)).Q
        s = basis.swapaxes(-1, -2) @ a @ basis
        dec = sym_eig_stack((s + s.swapaxes(-1, -2)) / 2.0)
        m = rng.standard_normal((2, 2, 10, 2))
        shifts = np.array([[1e-3, 1e-2], [1e-1, 1.0]])
        out = range_inv_power_apply(dec, basis, e, shifts, m.copy())
        for i, j in np.ndindex(2, 2):
            want = mat_inv_power(a[i, j], e, shifts[i, j]) @ m[i, j]
            assert np.linalg.norm(out[i, j] - want) <= 1e-12 * np.linalg.norm(want)

    def test_consumes_m(self):
        # the result is M itself, with the bits of the floor term added last
        rng = np.random.default_rng(41)
        basis = np.linalg.qr(rng.standard_normal((1, 8, 2))).Q
        dec = sym_eig_stack(np.diag([2.0, 0.5])[np.newaxis])
        m = rng.standard_normal((1, 8, 3))
        eps = np.array([0.1])
        floor = eps**-0.5  # the array power, as in the kernel
        coef = dec.eigenvectors.swapaxes(-1, -2) @ (basis.swapaxes(-1, -2) @ m)
        coef *= ((dec.eigenvalues + eps) ** -0.5 - floor)[..., np.newaxis]
        want = basis @ (dec.eigenvectors @ coef) + floor * m
        out = range_inv_power_apply(dec, basis, 0.5, eps, m)
        assert out is m
        assert out.tobytes() == want.tobytes()

    def test_zero_shift_is_singular(self):
        # the complement of the basis is A's null space
        basis = np.eye(3)[:, :1][np.newaxis]
        dec = sym_eig_stack(np.array([[[2.0]]]))
        with pytest.raises(ValueError, match="singular"):
            range_inv_power_apply(dec, basis, 0.5, 0.0, np.ones((1, 3, 1)))

    def test_keeps_psd_check(self):
        basis = np.eye(3)[:, :2][np.newaxis]
        dec = sym_eig_stack(np.diag([1.0, -1.0])[np.newaxis])
        with pytest.raises(ValueError, match="PSD"):
            range_inv_power_apply(dec, basis, 0.5, 1.0, np.ones((1, 3, 1)))


class TestFailedRoots:
    """A singular or non-PSD root raises numpy.linalg.LinAlgError, the
    ValueError that the trainer records as a divergence."""

    @pytest.mark.parametrize("a,eps", [(np.diag([1.0, 0.0]), 0.0), (np.diag([1.0, -1.0]), 1.0)],
                             ids=["singular", "not-psd"])
    def test_formed_roots(self, a, eps):
        with pytest.raises(np.linalg.LinAlgError):
            mat_inv_power(a, 0.5, eps)
        with pytest.raises(np.linalg.LinAlgError):
            inv_power(sym_eig_stack(a[np.newaxis]), 0.5, eps)

    @pytest.mark.parametrize("s,eps", [(np.array([[2.0]]), 0.0), (np.diag([1.0, -1.0]), 1.0)],
                             ids=["singular", "not-psd"])
    def test_range_roots(self, s, eps):
        basis = np.eye(3)[np.newaxis, :, :len(s)]
        with pytest.raises(np.linalg.LinAlgError):
            range_inv_power_apply(sym_eig_stack(s[np.newaxis]), basis, 0.5, eps, np.ones((1, 3, 1)))


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


class TestNewtonSchulzProperties:
    """After normalization Newton-Schulz applies an odd polynomial to the
    input's singular values, so it keeps the input's null spaces and commutes
    with transposition, whatever the rank and aspect ratio."""

    @settings(max_examples=200, deadline=None)
    @given(r=st.integers(1, 24), c=st.integers(1, 24), data=st.data(),
           log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_null_spaces_and_transpose(self, r, c, data, log_scale, seed):
        k = data.draw(st.integers(0, min(r, c)), label="rank")
        rng = np.random.default_rng(seed)
        left = np.linalg.qr(rng.standard_normal((r, r)))[0]
        right = np.linalg.qr(rng.standard_normal((c, c)))[0]
        core = 10.0**log_scale * rng.standard_normal((k, k))
        m = left[:, :k] @ core @ right[:, :k].T
        out = newton_schulz(m)
        size = np.linalg.norm(out)
        assert np.linalg.norm(out @ right[:, k:]) <= 1e-12 * size
        assert np.linalg.norm(left[:, k:].T @ out) <= 1e-12 * size
        assert np.linalg.norm(out - newton_schulz(m.T).T) <= 1e-12 * size


def textbook_newton_schulz(m, iters, eps=NS_DEFAULT_EPS):
    """The iteration as plain expressions, one fresh array per operation."""
    fro = float(np.linalg.norm(m))
    if fro == 0.0:
        return np.zeros_like(m)
    x = m / (fro + eps)
    transposed = x.shape[0] < x.shape[1]
    if transposed:
        x = x.T
    a, b, c = NS_QUINTIC
    for polish in ns_schedule(iters):
        g = x.T @ x
        if polish:
            x = 1.5 * x - 0.5 * (x @ g)
        else:
            x = a * x + x @ (b * g + c * (g @ g))
    return x.T if transposed else x


class TestNewtonSchulzInPlace:
    """The in-place iteration runs the textbook operations in their order,
    so it gives the same bits, and it keeps at most three arrays alive."""

    @settings(max_examples=300, deadline=None)
    @given(r=st.integers(1, 40), c=st.integers(1, 40), data=st.data(),
           iters=st.integers(1, 6), log_scale=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_bits_match_textbook_expressions(self, r, c, data, iters, log_scale, seed):
        k = data.draw(st.integers(0, min(r, c)), label="rank")
        rng = np.random.default_rng(seed)
        m = 10.0**log_scale * (rng.standard_normal((r, k)) @ rng.standard_normal((k, c)))
        out = newton_schulz(m, iters)
        assert np.array_equal(out, textbook_newton_schulz(m, iters))

    def test_input_untouched(self):
        m = np.random.default_rng(3).standard_normal((9, 5))
        kept = m.copy()
        newton_schulz(m)
        assert np.array_equal(m, kept)

    def test_peak_allocation(self):
        m = np.random.default_rng(4).standard_normal((128, 128))
        assert traced_peak(newton_schulz, m) <= 3.05 * m.nbytes


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


def _spectral_cases():
    rng = np.random.default_rng(7)
    low_rank = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 9))
    return {
        "wide": rng.standard_normal((5, 11)),
        "square": rng.standard_normal((16, 16)),
        "rank-deficient": low_rank,
        "rank-deficient-wide": low_rank.T,
        "column": rng.standard_normal((13, 1)),
        "row": rng.standard_normal((1, 13)),
        "scaled": 1e-150 * rng.standard_normal((6, 6)),
    }


SPECTRAL_CASES = _spectral_cases()


class TestNorms:
    def test_spectral_norm_matches_svd(self):
        a = np.random.default_rng(5).standard_normal((7, 4))
        assert spectral_norm_exact(a) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0], rel=1e-12
        )

    @pytest.mark.parametrize("a", SPECTRAL_CASES.values(), ids=SPECTRAL_CASES.keys())
    def test_spectral_norm_matches_svd_on_shapes(self, a):
        assert spectral_norm_exact(a) == pytest.approx(
            np.linalg.svd(a, compute_uv=False)[0], rel=1e-12
        )

    @pytest.mark.parametrize("shape", [(4, 6), (0, 5), (5, 0), (0, 0)])
    def test_zero_and_empty_give_zero(self, shape):
        assert spectral_norm_exact(np.zeros(shape)) == 0.0

    def test_non_finite_input_raises(self):
        a = np.ones((3, 4))
        a[1, 2] = np.inf
        with pytest.raises(NonFiniteError):
            spectral_norm_exact(a)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
    def test_overflowing_gram_raises(self, shape):
        a = np.full(shape, 1e200)
        a[0, 0] = -1e200  # a -inf entry as well as +inf ones
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            spectral_norm_exact(a)

    def test_peak_allocation(self):
        a = np.random.default_rng(6).standard_normal((128, 128))
        assert traced_peak(spectral_norm_exact, a) <= 1.05 * a.nbytes  # the Gram's size
