import copy
import importlib
import math
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mupre
import mupre.linalg
import mupre.optim
from mupre.linalg import (
    NonFiniteError,
    PowerIterState,
    mat_inv_power,
    spectral_norm_exact,
    sym_eig,
    sym_eig_stack,
)
from mupre.config import EPS_MODES, GRAFT_RULES, RULES, OptimizerConfig
from mupre.optim import (
    RANGE_BASIS_MAX_FRACTION,
    BlockState,
    LayerState,
    UpdateReport,
    adam_step,
    adamuon_step,
    apply_weight_decay,
    block_partition,
    graft,
    muon_step,
    optimizer_step,
    rms_normalize,
    sgd_step,
    shampoo_step,
    soap_step,
    spectral_normalize,
)
from mupre.scaling import BlockPartition

BENCH = Path(mupre.__file__).resolve().parents[2] / "bench"


def cfg(rule, **kw):
    return OptimizerConfig(rule=rule, **kw)


def rank1(delta, x):
    return np.outer(np.asarray(delta, float), np.asarray(x, float))


# per-rule settings OptimizerConfig needs beyond its defaults
RULE_KW = {"soap": {"e_l": 1.0, "e_r": 1.0}}


def accepted_graft_pairs():
    """Every (rule, graft_rule) pair OptimizerConfig builds without error."""
    pairs = []
    for rule, graft_rule in product(RULES, GRAFT_RULES):
        try:
            cfg(rule, graft_rule=graft_rule, **RULE_KW.get(rule, {}))
        except ValueError:
            continue
        pairs.append((rule, graft_rule))
    return pairs


class TestConfigValidation:
    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown rule"):
            cfg("sophia")

    def test_soap_requires_indicator_exponents(self):
        with pytest.raises(ValueError, match="0 or 1"):
            cfg("soap", e_l=0.5, e_r=0.5)

    def test_blocking_limited_to_matrix_factor_rules(self):
        with pytest.raises(ValueError, match="blocking"):
            cfg("muon", block_in=32)
        cfg("shampoo", block_in=32, block_out=32)
        cfg("soap", e_l=1.0, e_r=1.0, block_in=8)

    def test_beta_range(self):
        with pytest.raises(ValueError, match="betas"):
            cfg("adam", beta1=1.0)

    def test_graft_rule_vocabulary(self):
        with pytest.raises(ValueError, match="graft_rule"):
            cfg("shampoo", graft_rule="soap")

    def test_adam_graft_rejected_where_the_rule_owns_the_second_moment(self):
        rejected = set(product(RULES, GRAFT_RULES)) - set(accepted_graft_pairs())
        assert rejected == {("adam", "adam"), ("adamuon", "adam"), ("adamuon", "sgd")}
        for rule in ("adam", "adamuon"):
            with pytest.raises(ValueError, match="second-moment slot"):
                cfg(rule, graft_rule="adam")

    def test_adamuon_takes_no_graft(self):
        # its first moment is the EMA of newton_schulz(g), not of g
        with pytest.raises(ValueError, match="adamuon' takes no graft_rule"):
            cfg("adamuon", graft_rule="sgd")


class TestAdam:
    def test_sign_limit_at_zero_betas(self):
        # t=1, betas=0, eps=0: update = g / |g| elementwise
        out = adam_step(LayerState(), np.array([[2.0]]), cfg("adam", beta1=0, beta2=0, eps=0))
        assert np.allclose(out.update, [[1.0]], atol=1e-15)

    def test_bias_correction_first_step(self):
        out = adam_step(
            LayerState(), np.array([[1.0]]), cfg("adam", beta1=0.9, beta2=0.99, eps=0)
        )
        assert out.update[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_gradient_zero_update(self):
        out = adam_step(LayerState(), np.zeros((2, 3)), cfg("adam", eps=1e-8))
        assert np.array_equal(out.update, np.zeros((2, 3)))

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_zero_entries_map_to_zero_bits(self, eps):
        # entries whose history is zero divide by a zero denominator at
        # eps = 0; they map to +0.0, every other entry is m^ / (sqrt(v^) + eps)
        rng = np.random.default_rng(19)
        c = cfg("adam", beta1=0.9, beta2=0.95, eps=eps)
        state, m, v = LayerState(), 0.0, 0.0
        for t in range(1, 4):
            g = rng.standard_normal((4, 5))
            g[:, 1] = 0.0
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.95 * v + (1.0 - 0.95) * (g * g)
            denom = np.sqrt(v / (1.0 - 0.95**t)) + eps
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.where(denom > 0.0, (m / (1.0 - 0.9**t)) / denom, 0.0)
            assert adam_step(state, g, c).update.tobytes() == want.tobytes()

    def test_zero_history_zero_eps_gives_zero_update(self):
        out = adam_step(LayerState(), np.zeros((2, 2)), cfg("adam", beta1=0, beta2=0, eps=0))
        assert out.update.tobytes() == np.zeros((2, 2)).tobytes()

    def test_matches_reference_trajectory(self):
        # plain-numpy reference implementation, independent of the module
        rng = np.random.default_rng(0)
        c = cfg("adam", beta1=0.9, beta2=0.95, eps=1e-8)
        state = LayerState()
        m = np.zeros((3, 2))
        v = np.zeros((3, 2))
        for t in range(1, 6):
            g = rng.standard_normal((3, 2))
            out = adam_step(state, g, c)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.95 * v + 0.05 * g * g
            ref = (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.95**t)) + 1e-8)
            assert np.max(np.abs(out.update - ref)) < 1e-14

    def test_determinism(self):
        c = cfg("adam")
        g = np.random.default_rng(1).standard_normal((4, 4))
        s1, s2 = LayerState(), LayerState()
        for _ in range(3):
            u1 = adam_step(s1, g, c).update
            u2 = adam_step(s2, g, c).update
        assert np.array_equal(u1, u2)


class TestShampoo:
    def test_frozen_rank1_quarter_exponents(self):
        # delta=(1,0), x=(1,1), e=1/4 per side, eps=1 absolute, t=1, betas=0:
        # update = 3^(-1/2) * delta x^T
        g = rank1([1.0, 0.0], [1.0, 1.0])
        c = cfg("shampoo", e_l=0.25, e_r=0.25, beta1=0, beta2=0, eps=1.0, eps_mode="absolute")
        out = shampoo_step(LayerState(), g, c)
        expected = 3.0**-0.5 * g
        assert np.max(np.abs(out.update - expected)) < 1e-12

    def test_zero_exponents_reduce_to_momentum(self):
        g = np.random.default_rng(2).standard_normal((4, 3))
        c = cfg("shampoo", e_l=0.0, e_r=0.0, beta1=0.9, beta2=0.9, eps=1e-8)
        state = LayerState()
        ref_state = LayerState()
        out = shampoo_step(state, g, c)
        ref = sgd_step(ref_state, g, cfg("sgd", beta1=0.9))
        assert np.array_equal(out.update, ref.update)

    def test_blocked_1x1_is_sign(self):
        g = np.array([[2.0, -3.0], [0.5, -0.25]])
        c = cfg(
            "shampoo", e_l=0.25, e_r=0.25, beta1=0, beta2=0, eps=0.0,
            eps_mode="absolute", block_in=1, block_out=1,
        )
        out = shampoo_step(LayerState(), g, c)
        assert np.allclose(out.update, np.sign(g), atol=1e-12)

    def test_relative_eps_matches_manual(self):
        # relative mode: per-factor eps = eps * top eigenvalue of the factor
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 5))
        c = cfg("shampoo", e_l=0.5, e_r=0.5, beta1=0, beta2=0, eps=1e-2, eps_mode="relative")
        out = shampoo_step(LayerState(), g, c)
        l, r = g @ g.T, g.T @ g
        top = np.linalg.eigvalsh(l)[-1]
        ref = mat_inv_power(l, 0.5, 1e-2 * top) @ g @ mat_inv_power(r, 0.5, 1e-2 * top)
        assert np.max(np.abs(out.update - ref)) < 1e-10

    def test_ema_and_bias_correction(self):
        rng = np.random.default_rng(4)
        c = cfg("shampoo", e_l=0.5, e_r=0.5, beta1=0.9, beta2=0.95, eps=1e-6, eps_mode="absolute")
        state = LayerState()
        m = np.zeros((3, 3))
        l = np.zeros((3, 3))
        r = np.zeros((3, 3))
        for t in range(1, 4):
            g = rng.standard_normal((3, 3))
            out = shampoo_step(state, g, c)
            m = 0.9 * m + (1.0 - 0.9) * g
            l = 0.95 * l + 0.05 * g @ g.T
            r = 0.95 * r + 0.05 * g.T @ g
            c2 = 1 - 0.95**t
            ref = (
                mat_inv_power(l / c2, 0.5, 1e-6)
                @ (m / (1 - 0.9**t))
                @ mat_inv_power(r / c2, 0.5, 1e-6)
            )
            assert np.max(np.abs(out.update - ref)) < 1e-9

    def test_zero_gradient_zero_update(self):
        c = cfg("shampoo", e_l=0.5, e_r=0.5, eps=1e-5)
        out = shampoo_step(LayerState(), np.zeros((3, 2)), c)
        assert np.array_equal(out.update, np.zeros((3, 2)))


def tile_spans(g, c):
    """((r0, r1), (c0, c1)) bounds of the config's tiles in row-major order."""
    part = block_partition(g, c.block_out, c.block_in)
    return list(product(part.row_spans, part.col_spans))


def per_tile_shampoo(g_seq, c, cutoff=RANGE_BASIS_MAX_FRACTION, factors_seq=None):
    """Shampoo updates and final per-tile (L, R) by a tile-by-tile route with
    the step's arithmetic written out in the same order.

    factors_seq gives each step's gradient factors (left, right), or None
    for a step without them. A factor side of size n whose tile's other
    side is k is spanned at step t by the row slice of the factor on that
    side when the slice has fewer than k columns, else by the tile's k
    gradient columns. The side is decomposed inside the orthonormal basis
    Q of its spanning sets while Q's width, the columns accumulated so
    far, stays <= cutoff n: Q is the thin QR of [Q, spanning set], the
    checked sym_eig decomposes S = Q^T L Q / corr2 and the root is applied
    as eps'^(-e) M + Q W diag(phi) W^T Q^T M. Otherwise the basis is
    dropped for good and the checked sym_eig decomposes the full factor,
    once for its top eigenvalue in relative mode and again inside
    mat_inv_power; cutoff=0 takes that dense route on every side."""
    m, acc, basis, updates = 0.0, {}, {}, []
    for t, (g, factors) in enumerate(zip(g_seq, factors_seq or [None] * len(g_seq)), start=1):
        m = c.beta1 * m + (1.0 - c.beta1) * g
        corr1, corr2 = 1.0 - c.beta1**t, 1.0 - c.beta2**t
        out = np.empty_like(g)
        for i, ((r0, r1), (c0, c1)) in enumerate(tile_spans(g, c)):
            gb, mb = g[r0:r1, c0:c1], m[r0:r1, c0:c1]
            fl, fr = (None, None) if factors is None else (factors[0][r0:r1], factors[1][c0:c1])
            l, r = acc.get(i, (0.0, 0.0))
            l = c.beta2 * l + (1.0 - c.beta2) * (gb @ gb.T)
            r = c.beta2 * r + (1.0 - c.beta2) * (gb.T @ gb)
            l, r = (l + l.T) / 2.0, (r + r.T) / 2.0
            acc[i] = (l, r)
            upd, zero = mb / corr1, False
            for side, f, gs, fs, e in (("l", l, gb, fl, c.e_l), ("r", r, gb.T, fr, c.e_r)):
                if e == 0.0:
                    continue
                n, k = gs.shape
                if fs is not None and fs.shape[1] < k:
                    gs = fs
                q = basis.pop((i, side), None)
                width = gs.shape[1] + (0 if q is None else q.shape[1])
                if (t == 1 or q is not None) and width <= cutoff * n:
                    q = gs if q is None else np.hstack([q, gs])
                    q = basis[i, side] = np.linalg.qr(q).Q
                    s = q.T @ f @ q
                    dec = sym_eig((s + s.T) / (2.0 * corr2))
                else:
                    dec = None
                    a = f / corr2
                eps = c.eps
                if c.eps_mode == "relative":
                    top = float((sym_eig(a) if dec is None else dec).eigenvalues[0])
                    if top <= 0.0:
                        zero = True
                        continue
                    eps = c.eps * top
                if dec is None:
                    p = mat_inv_power(a, e, eps)
                    upd = p @ upd if side == "l" else upd @ p
                    continue
                # the array power, as in the kernel: NumPy's scalar power has other bits
                floor = np.asarray(eps) ** (-e)
                phi = (np.maximum(dec.eigenvalues, 0.0) + eps) ** (-e) - floor
                w, mm = dec.eigenvectors, upd if side == "l" else upd.T
                coef = w.T @ (q.T @ mm)
                coef *= phi[:, np.newaxis]
                applied = q @ (w @ coef)
                applied += floor * mm
                upd = applied if side == "l" else applied.T
            out[r0:r1, c0:c1] = np.zeros_like(mb) if zero else upd
        updates.append(out)
    return updates, acc


def per_tile_soap(g_seq, c):
    """SOAP updates by a tile-by-tile route with the checked sym_eig and the
    step's arithmetic written out in the same order."""
    m, tiles, updates = 0.0, {}, []
    for t, g in enumerate(g_seq, start=1):
        m = c.beta1 * m + (1.0 - c.beta1) * g
        corr1, corr2 = 1.0 - c.beta1**t, 1.0 - c.beta2**t
        refresh = t == 1 or (t - 1) % c.precond_freq == 0
        out = np.empty_like(g)
        for i, ((r0, r1), (c0, c1)) in enumerate(tile_spans(g, c)):
            gb, mb = g[r0:r1, c0:c1], m[r0:r1, c0:c1]
            tile = tiles.setdefault(i, {"l": 0.0, "r": 0.0, "v": 0.0})
            for side, e, gram in (("l", c.e_l, gb @ gb.T), ("r", c.e_r, gb.T @ gb)):
                if e == 1.0:
                    acc = c.beta2 * tile[side] + (1.0 - c.beta2) * gram
                    tile[side] = (acc + acc.T) / 2.0
                    if refresh:
                        tile["q_" + side] = sym_eig(tile[side] / corr2).eigenvectors
            q_l, q_r = tile.get("q_l"), tile.get("q_r")
            g_rot, m_rot = gb, mb
            if q_l is not None:
                g_rot, m_rot = q_l.T @ g_rot, q_l.T @ m_rot
            if q_r is not None:
                g_rot, m_rot = g_rot @ q_r, m_rot @ q_r
            tile["v"] = c.beta2 * tile["v"] + (1.0 - c.beta2) * (g_rot * g_rot)
            m_hat, v_hat = m_rot / corr1, tile["v"] / corr2
            denom = np.sqrt(v_hat) + c.eps
            upd = np.where(denom > 0.0, m_hat / np.where(denom > 0.0, denom, 1.0), 0.0)
            if q_l is not None:
                upd = q_l @ upd
            if q_r is not None:
                upd = upd @ q_r.T
            out[r0:r1, c0:c1] = upd
        updates.append(out)
    return updates


@st.composite
def uneven_tilings(draw):
    """(rows, cols, b_out, b_in) with a trailing row of tiles and possibly a
    trailing column, so the tiles come in two or four shapes."""
    b_out, b_in = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rows = b_out * draw(st.integers(1, 3)) + draw(st.integers(1, b_out - 1))
    cols = b_in * draw(st.integers(1, 3)) + draw(st.integers(0, b_in - 1))
    return rows, cols, b_out, b_in


def factored_gradients(rng, shape, b, steps, zero_left_until=0, repeat=False):
    """steps gradients left @ right.T with b batch columns, and their factor
    pairs. The gradients have unit Frobenius norm in expectation, which
    keeps the dense route's own round-off, of order (lambda / eps) times
    machine epsilon at an absolute eps, below a 1e-10 comparison. left is
    zero through step zero_left_until, as a zero-init readout keeps fc2's
    left factor zero at step 1; with repeat the last column of both
    factors repeats the first, so the factors are rank deficient."""
    g_seq, f_seq = [], []
    for t in range(1, steps + 1):
        left = rng.standard_normal((shape[0], b)) / math.sqrt(b * shape[0] * shape[1])
        right = rng.standard_normal((shape[1], b))
        if repeat:
            left[:, -1], right[:, -1] = left[:, 0], right[:, 0]
        if t <= zero_left_until:
            left[...] = 0.0
        g_seq.append(left @ right.T)
        f_seq.append((left, right))
    return g_seq, f_seq


def factored_steps(state, g_seq, f_seq, c):
    """The Shampoo updates of a run that hands each gradient's factors over."""
    out = []
    for g, factors in zip(g_seq, f_seq):
        state.factors = factors
        out.append(shampoo_step(state, g, c).update)
        assert state.factors is None
    return out


def gradients_with_zero_tile(rng, shape, span, steps, from_step=1):
    """Random gradients whose entries in one tile are zero at every step
    from from_step on."""
    (r0, r1), (c0, c1) = span
    g_seq = []
    for t in range(1, steps + 1):
        g = rng.standard_normal(shape)
        if t >= from_step:
            g[r0:r1, c0:c1] = 0.0
        g_seq.append(g)
    return g_seq


class TestRelativeDamping:
    """Relative mode takes a factor's top eigenvalue and its inverse root from
    one eigendecomposition."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return sym_eig_stack(a, *args, **kwargs)

        monkeypatch.setattr(mupre.optim, "sym_eig_stack", counting)
        return calls

    @pytest.mark.parametrize(
        "shape,blocks,e_r,groups",
        [
            ((6, 8), (None, None), 0.5, 1),
            ((6, 8), (3, 4), 0.5, 1),
            ((6, 8), (3, 4), 0.0, 1),
            ((7, 9), (3, 4), 0.5, 4),
            ((24, 2), (None, None), 0.5, 1),
        ],
        ids=["unblocked", "blocked-2x2", "blocked-2x2-left-only", "blocked-uneven",
             "unblocked-range-basis"],
    )
    def test_one_decomposition_per_factor_per_tile(self, eig_calls, shape, blocks, e_r, groups):
        # one stacked call per factor side and tile shape, one stack entry
        # per factor side and tile
        b_out, b_in = blocks
        c = cfg("shampoo", e_l=0.25, e_r=e_r, eps=1e-3, block_out=b_out, block_in=b_in)
        tiles = len(block_partition(np.zeros(shape), b_out, b_in))
        sides = 2 if e_r > 0.0 else 1
        rng = np.random.default_rng(16)
        state = LayerState()
        for step in range(1, 4):
            shampoo_step(state, rng.standard_normal(shape), c)
            assert len(eig_calls) == sides * groups * step
            assert sum(math.prod(s[:-2]) for s in eig_calls) == sides * tiles * step

    @pytest.mark.parametrize("e_l,e_r", [(0.25, 0.25), (0.5, 0.0), (0.0, 1.0)])
    def test_bits_match_two_decomposition_route(self, e_l, e_r):
        rng = np.random.default_rng(17)
        g_seq = []
        for _ in range(5):
            g = rng.standard_normal((6, 8))
            g[:3, :4] = 0.0  # one tile whose gradient stays zero
            g_seq.append(g)
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, block_out=3, block_in=4)
        state = LayerState()
        for g, want in zip(g_seq, per_tile_shampoo(g_seq, c)[0]):
            got = shampoo_step(state, g, c).update
            assert np.array_equal(got, want)
        assert not np.any(got[:3, :4])

    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.floats(1e-3, 1e3),
        e_l=st.sampled_from((0.0, 0.25, 0.5)),
        e_r=st.sampled_from((0.0, 0.25, 0.5)),
        eps=st.sampled_from((1e-4, 1e-2)),
        block=st.sampled_from((None, 3)),
        seed=st.integers(0, 2**16),
    )
    def test_direction_invariant_to_gradient_scale(self, scale, e_l, e_r, eps, block, seed):
        # relative damping scales with the factors: (c^2 (L + eps' I))^(-e)
        # = c^(-2e) (L + eps' I)^(-e), so the update scales by c^(1-2e_l-2e_r)
        rng = np.random.default_rng(seed)
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=eps, block_out=block, block_in=block)
        state, scaled_state = LayerState(), LayerState()
        factor = scale ** (1.0 - 2.0 * e_l - 2.0 * e_r)
        for _ in range(3):
            g = rng.standard_normal((5, 4))
            out = shampoo_step(state, g, c).update
            scaled = shampoo_step(scaled_state, scale * g, c).update / factor
            assert np.max(np.abs(scaled - out)) <= 1e-8 * np.max(np.abs(out))


class TestStackedTiles:
    """Shampoo and SOAP run the tiles of each shape as one stack; every
    tile gets the bits the tile-by-tile route gives it."""

    @settings(max_examples=60, deadline=None)
    @given(
        tiling=uneven_tilings(),
        e_l=st.sampled_from((0.0, 0.25, 0.5)),
        e_r=st.sampled_from((0.0, 0.25, 0.5)),
        eps_mode=st.sampled_from(EPS_MODES),
        beta2=st.sampled_from((0.0, 0.95)),
        zero_tile=st.integers(0, 63),
        zero_from=st.sampled_from((1, 2)),
        seed=st.integers(0, 2**16),
    )
    def test_shampoo_matches_per_tile_route(
        self, tiling, e_l, e_r, eps_mode, beta2, zero_tile, zero_from, seed
    ):
        # with beta2 = 0 a tile whose gradient goes zero after step 1 has
        # zero factors but nonzero momentum
        rows, cols, b_out, b_in = tiling
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode, beta2=beta2,
                block_out=b_out, block_in=b_in)
        part = block_partition(np.zeros((rows, cols)), b_out, b_in)
        assert 2 <= len(part.groups()) <= 4
        spans = tile_spans(np.zeros((rows, cols)), c)
        zero = zero_tile % len(spans)
        g_seq = gradients_with_zero_tile(
            np.random.default_rng(seed), (rows, cols), spans[zero], 4, zero_from
        )
        want, acc = per_tile_shampoo(g_seq, c)
        state = LayerState()
        for g, expected in zip(g_seq, want):
            # bytes, so a zero tile's signed zeros count too
            assert shampoo_step(state, g, c).update.tobytes() == expected.tobytes()
        # the per-tile factors stay readable in row-major tile order
        for block, (l, r) in zip(state.blocks, (acc[i] for i in range(len(spans)))):
            assert np.array_equal(block.l, l) and np.array_equal(block.r, r)
        if zero_from == 1:
            (r0, r1), (c0, c1) = spans[zero]
            assert not np.any(expected[r0:r1, c0:c1])

    @settings(max_examples=60, deadline=None)
    @given(
        b_out=st.integers(4, 8),
        b_in=st.integers(4, 8),
        rest=st.tuples(st.integers(1, 3), st.integers(0, 3)),
        b=st.integers(1, 3),
        e_l=st.sampled_from((0.0, 0.25, 0.5)),
        e_r=st.sampled_from((0.25, 0.5)),
        eps_mode=st.sampled_from(EPS_MODES),
        zero_left_until=st.integers(0, 1),
        repeat=st.booleans(),
        bare_step=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_shampoo_with_factors_matches_per_tile_route(
        self, b_out, b_in, rest, b, e_l, e_r, eps_mode, zero_left_until, repeat, bare_step, seed
    ):
        # two tiles down plus a trailing row (and maybe column) of tiles;
        # factor slices of b < k columns span the sides of 4-8 wide tiles,
        # and step bare_step (if any) comes without factors
        rows, cols = 2 * b_out + rest[0], 2 * b_in + rest[1]
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode,
                block_out=b_out, block_in=b_in)
        g_seq, f_seq = factored_gradients(
            np.random.default_rng(seed), (rows, cols), b, 4, zero_left_until, repeat
        )
        if bare_step:
            f_seq[min(bare_step, len(f_seq)) - 1] = None
        want, acc = per_tile_shampoo(g_seq, c, factors_seq=f_seq)
        state = LayerState()
        for got, expected in zip(factored_steps(state, g_seq, f_seq, c), want):
            assert got.tobytes() == expected.tobytes()
        for i, block in enumerate(state.blocks):
            assert np.array_equal(block.l, acc[i][0]) and np.array_equal(block.r, acc[i][1])

    @settings(max_examples=60, deadline=None)
    @given(
        tiling=uneven_tilings(),
        sides=st.sampled_from(((1.0, 1.0), (0.0, 1.0), (1.0, 0.0))),
        precond_freq=st.sampled_from((1, 3)),
        zero_tile=st.integers(0, 63),
        seed=st.integers(0, 2**16),
    )
    def test_soap_matches_per_tile_route(self, tiling, sides, precond_freq, zero_tile, seed):
        rows, cols, b_out, b_in = tiling
        c = cfg("soap", e_l=sides[0], e_r=sides[1], eps=1e-8, precond_freq=precond_freq,
                block_out=b_out, block_in=b_in)
        spans = tile_spans(np.zeros((rows, cols)), c)
        span = spans[zero_tile % len(spans)]
        g_seq = gradients_with_zero_tile(np.random.default_rng(seed), (rows, cols), span, 5)
        state = LayerState()
        for g, expected in zip(g_seq, per_tile_soap(g_seq, c)):
            assert soap_step(state, g, c).update.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        blocks=st.sampled_from(((None, None), (2, 3), (4, 4))),
        beta1=st.sampled_from((0.0, 0.9)),
        beta2=st.sampled_from((0.0, 0.95, 0.999)),
        eps=st.sampled_from((1e-8, 1e-3)),
        seed=st.integers(0, 2**16),
    )
    def test_soap_without_bases_is_adam_bits(self, shape, blocks, beta1, beta2, eps, seed):
        kw = dict(beta1=beta1, beta2=beta2, eps=eps)
        c_soap = cfg("soap", e_l=0.0, e_r=0.0, block_out=blocks[0], block_in=blocks[1], **kw)
        rng = np.random.default_rng(seed)
        s_soap, s_adam = LayerState(), LayerState()
        for _ in range(4):
            g = rng.standard_normal(shape)
            want = adam_step(s_adam, g, cfg("adam", **kw)).update
            assert soap_step(s_soap, g, c_soap).update.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "c",
        [
            cfg("shampoo", e_l=0.25, e_r=0.25),
            cfg("shampoo", e_l=0.5, e_r=0.0, eps_mode="absolute", block_out=3, block_in=4),
            cfg("soap", e_l=1.0, e_r=1.0, block_out=3, block_in=4),
        ],
        ids=["shampoo", "shampoo-blocked-absolute", "soap-blocked"],
    )
    def test_overflowing_accumulator_raises_non_finite(self, c):
        g = np.full((7, 9), 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                optimizer_step(LayerState(), g, c)

    @pytest.mark.parametrize(
        "c,shape",
        [
            (cfg("shampoo", e_l=0.5, e_r=0.25, eps=1e-4, block_out=3, block_in=4), (7, 9)),
            # two 24x2 tiles whose left sides stay on the range-basis route
            (cfg("shampoo", e_l=0.5, e_r=0.25, eps=1e-4, block_in=2), (24, 4)),
            (cfg("soap", e_l=1.0, e_r=1.0, precond_freq=3, block_out=3, block_in=4), (7, 9)),
        ],
        ids=["shampoo", "shampoo-range-basis", "soap"],
    )
    def test_deep_copied_state_continues_bit_identically(self, c, shape):
        rng = np.random.default_rng(27)
        state = LayerState()
        for _ in range(2):
            optimizer_step(state, rng.standard_normal(shape), c)
        snap = copy.deepcopy(state)
        for _ in range(3):
            g = rng.standard_normal(shape)
            assert np.array_equal(optimizer_step(state, g, c).update,
                                  optimizer_step(snap, g, c).update)


class TestGroupState:
    """A layer's state holds one BlockState of stacks per tile group;
    LayerState.blocks is each tile's view of them."""

    # 32 x 16 tiles of a 70 x 45 layer come in four shapes: 32 x 16, 32 x 13,
    # 6 x 16 and 6 x 13
    SHAPE = (70, 45)
    CONFIGS = [
        cfg("shampoo", e_l=0.5, e_r=0.25, eps=1e-4, block_out=32, block_in=16),
        cfg("soap", e_l=1.0, e_r=1.0, precond_freq=2, block_out=32, block_in=16),
    ]

    def run(self, c, steps=3):
        # Shampoo gets batch-2 gradient factors, so its sides keep bases
        rng = np.random.default_rng(41)
        g_seq, f_seq = factored_gradients(rng, self.SHAPE, 2, steps)
        state = LayerState()
        for g, factors in zip(g_seq, f_seq):
            state.factors = factors
            optimizer_step(state, g, c)
        return state

    @pytest.mark.parametrize("c", CONFIGS, ids=["shampoo", "soap"])
    def test_blocks_are_views_of_the_group_stacks(self, c):
        state = self.run(c)
        assert len({group.shape for group, _ in state.groups}) == 4
        blocks = state.blocks
        assert len(blocks) == len(block_partition(np.zeros(self.SHAPE), 32, 16))
        names = [f.name for f in fields(BlockState)]
        held = set()
        for group, stacks in state.groups:
            for k, i in enumerate(group.indices):
                for name in names:
                    stack, tile = getattr(stacks, name), getattr(blocks[i], name)
                    if stack is None:
                        assert tile is None
                        continue
                    held.add(name)
                    assert np.shares_memory(tile, stack)
                    assert np.array_equal(tile, stack.reshape(-1, *stack.shape[-2:])[k])
        assert held == ({"l", "r", "q_l", "q_r"} if c.rule == "shampoo" else set(names))

    @pytest.mark.parametrize("c", CONFIGS, ids=["shampoo", "soap"])
    def test_deep_copy_copies_the_stacks(self, c):
        state = self.run(c)
        snap = copy.deepcopy(state)
        for tile, copied in zip(state.blocks, snap.blocks, strict=True):
            for f in fields(BlockState):
                a, b = getattr(tile, f.name), getattr(copied, f.name)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.tobytes() == b.tobytes() and not np.shares_memory(a, b)

    @pytest.mark.parametrize("c", CONFIGS, ids=["shampoo", "soap"])
    def test_reuse_on_another_tile_shape_raises(self, c):
        # four 4 x 4 tiles, then four 2 x 8 tiles of the same 8 x 8 layer
        state = LayerState()
        g = np.random.default_rng(5).standard_normal((8, 8))
        optimizer_step(state, g, replace(c, block_out=4, block_in=4))
        message = "layer state was created for a different block partition"
        with pytest.raises(ValueError, match=message):
            optimizer_step(state, g, replace(c, block_out=2, block_in=8))


class TestBenchReference:
    """The benchmark's reference route (bench/reference.py) reads the state
    a step starts from; it must keep agreeing with the program."""

    @pytest.mark.parametrize("c,shape,b", [
        (cfg("shampoo", e_l=0.5, e_r=0.5, eps=1e-5, graft_rule="adam", graft_eps=1e-12,
             block_out=32, block_in=16), (70, 45), 2),
        (cfg("shampoo", e_l=0.25, e_r=0.25, eps=1e-3), (24, 10), None),
    ], ids=["blocked-graft-factors", "unblocked-relative"])
    def test_check_step_passes_on_program_steps(self, monkeypatch, c, shape, b):
        monkeypatch.syspath_prepend(str(BENCH))
        reference = importlib.import_module("reference")
        rng = np.random.default_rng(8)
        if b is None:
            g_seq, f_seq = [rng.standard_normal(shape) for _ in range(5)], [None] * 5
        else:
            g_seq, f_seq = factored_gradients(rng, shape, b, 5)
        state = LayerState()
        for g, factors in zip(g_seq, f_seq):
            state.factors = factors
            before = copy.deepcopy((state, g, c))
            update = optimizer_step(state, g, c).update
            measure, gap, ok = reference.check_step(*before, update)
            assert measure == "rel_gap" and ok, gap


class TestRangeBasisRoute:
    """A factor side of size n whose tile's other side is k is decomposed
    inside the span of its gradients while t k <= RANGE_BASIS_MAX_FRACTION n;
    that route gives the dense route's update up to round-off."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 40),
        k=st.integers(1, 3),
        tiles=st.integers(1, 2),
        transpose=st.booleans(),
        e_l=st.sampled_from((0.25, 0.5)),
        e_r=st.sampled_from((0.25, 0.5)),
        eps_mode=st.sampled_from(EPS_MODES),
        beta2=st.sampled_from((0.0, 0.95)),
        zero_from=st.integers(1, 25),
        seed=st.integers(0, 2**16),
    )
    def test_matches_dense_route(
        self, n, k, tiles, transpose, e_l, e_r, eps_mode, beta2, zero_from, seed
    ):
        # n x k tiles (k x n when transposed) side by side; the last tile's
        # gradient goes zero from zero_from on, and the run ends two steps
        # past the route's cutoff on the size-n side
        shape, blocks = (n, k * tiles), (None, k)
        if transpose:
            shape, blocks = shape[::-1], blocks[::-1]
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode, beta2=beta2,
                block_out=blocks[0], block_in=blocks[1])
        steps = int(RANGE_BASIS_MAX_FRACTION * n) // k + 2
        span = tile_spans(np.zeros(shape), c)[-1]
        g_seq = gradients_with_zero_tile(
            np.random.default_rng(seed), shape, span, steps, zero_from
        )
        state = LayerState()
        for g, want in zip(g_seq, per_tile_shampoo(g_seq, c, cutoff=0.0)[0]):
            got = shampoo_step(state, g, c).update
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_zero_absolute_shift_raises_as_dense_route(self):
        g = np.random.default_rng(31).standard_normal((40, 1))
        c = cfg("shampoo", e_l=0.5, e_r=0.0, eps=0.0, eps_mode="absolute")
        with pytest.raises(ValueError) as dense:
            mat_inv_power(g @ g.T, 0.5, 0.0)
        with pytest.raises(ValueError) as route:
            shampoo_step(LayerState(), g, c)
        assert str(route.value) == str(dense.value)

    def test_state_without_basis_takes_dense_route(self):
        # a basis started after step 1 would miss the earlier gradients
        c = cfg("shampoo", e_l=0.5, e_r=0.25, eps=1e-3)
        rng = np.random.default_rng(33)
        g_seq = [rng.standard_normal((30, 1)) for _ in range(3)]
        state = LayerState()
        for g in g_seq[:2]:
            shampoo_step(state, g, c)
        state.groups[0][1].q_l = None
        got = shampoo_step(state, g_seq[2], c).update
        want = per_tile_shampoo(g_seq, c, cutoff=0.0)[0][2]
        assert state.blocks[0].q_l is None
        assert got.tobytes() == want.tobytes()

    def test_factors_keep_dense_ema_bits(self, monkeypatch):
        # two 40x3 tiles: the left sides take the route while 3 t <= 20,
        # with a basis of 3 t columns, and drop it after
        c = cfg("shampoo", e_l=0.25, e_r=0.5, beta2=0.95, block_in=3)
        rng = np.random.default_rng(32)
        g_seq = [rng.standard_normal((40, 6)) for _ in range(9)]
        route = LayerState()
        factors = []
        for t, g in enumerate(g_seq, start=1):
            shampoo_step(route, g, c)
            on_route = 3 * t <= RANGE_BASIS_MAX_FRACTION * 40
            for block in route.blocks:
                assert block.q_r is None
                if on_route:
                    assert block.q_l.shape == (40, 3 * t)
                    assert np.allclose(block.q_l.T @ block.q_l, np.eye(3 * t), atol=1e-12)
                else:
                    assert block.q_l is None
            factors.append([(b.l.copy(), b.r.copy()) for b in route.blocks])
        monkeypatch.setattr(mupre.optim, "RANGE_BASIS_MAX_FRACTION", 0.0)
        dense = LayerState()
        for g, want in zip(g_seq, factors):
            shampoo_step(dense, g, c)
            for block, (l, r) in zip(dense.blocks, want):
                assert block.q_l is None
                assert block.l.tobytes() == l.tobytes() and block.r.tobytes() == r.tobytes()


class TestFactorSpannedRoute:
    """Given the gradient's batch factors, a side takes the row slice of its
    factor as the spanning set of the range-basis route when the slice is
    narrower than the tile's other side, and the route still gives the
    dense route's update up to round-off."""

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        b=st.integers(1, 4),
        blocked=st.booleans(),
        e_l=st.sampled_from((0.25, 0.5)),
        e_r=st.sampled_from((0.25, 0.5)),
        eps_mode=st.sampled_from(EPS_MODES),
        beta2=st.sampled_from((0.0, 0.95)),
        zero_left_until=st.integers(0, 2),
        repeat=st.booleans(),
        bare_step=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_matches_dense_route(
        self, shape, b, blocked, e_l, e_r, eps_mode, beta2, zero_left_until, repeat,
        bare_step, seed,
    ):
        # the run ends two steps past the cutoff of the larger side; step
        # bare_step (if any) comes without factors and spans with G's columns
        block_in = -(-shape[1] // 2) if blocked else None
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode, beta2=beta2,
                block_in=block_in)
        steps = int(RANGE_BASIS_MAX_FRACTION * max(shape)) // b + 2
        g_seq, f_seq = factored_gradients(
            np.random.default_rng(seed), shape, b, steps, zero_left_until, repeat and b > 1
        )
        if bare_step:
            f_seq[min(bare_step, len(f_seq)) - 1] = None
        dense = per_tile_shampoo(g_seq, c, cutoff=0.0)[0]
        for got, want in zip(factored_steps(LayerState(), g_seq, f_seq, c), dense):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 40),
        k=st.integers(1, 3),
        extra=st.integers(0, 2),
        transpose=st.booleans(),
        e_l=st.sampled_from((0.25, 0.5)),
        e_r=st.sampled_from((0.25, 0.5)),
        eps_mode=st.sampled_from(EPS_MODES),
        seed=st.integers(0, 2**16),
    )
    def test_wide_factors_keep_todays_bits(self, n, k, extra, transpose, e_l, e_r, eps_mode, seed):
        # n x k gradients (k x n when transposed) with b >= k factor columns:
        # the size-n side keeps the gradient's own columns, and the size-k
        # side, past its cutoff from step 1, stays dense
        shape = (k, n) if transpose else (n, k)
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode)
        steps = int(RANGE_BASIS_MAX_FRACTION * n) // k + 2
        g_seq, f_seq = factored_gradients(np.random.default_rng(seed), shape, k + extra, steps)
        plain, state = LayerState(), LayerState()
        todays = per_tile_shampoo(g_seq, c)[0]
        for g, got, want in zip(g_seq, factored_steps(state, g_seq, f_seq, c), todays):
            assert got.tobytes() == want.tobytes()
            assert shampoo_step(plain, g, c).update.tobytes() == want.tobytes()

    def test_square_layer_takes_the_route_on_both_sides(self):
        # a 40 x 40 gradient of batch 3 is spanned by 3 columns a side: the
        # bases grow 3 columns a step until 3 t > 20, then both are released
        c = cfg("shampoo", e_l=0.25, e_r=0.25, eps=1e-3)
        g_seq, f_seq = factored_gradients(np.random.default_rng(41), (40, 40), 3, 8)
        state = LayerState()
        for t, (g, factors) in enumerate(zip(g_seq, f_seq), start=1):
            state.factors = factors
            shampoo_step(state, g, c)
            block = state.blocks[0]
            for q in (block.q_l, block.q_r):
                if 3 * t <= RANGE_BASIS_MAX_FRACTION * 40:
                    assert q.shape == (40, 3 * t)
                else:
                    assert q is None

    def test_leaving_sides_release_bases_before_dense_decomposition(self, monkeypatch):
        # on the step both sides of a 16 x 16 layer leave the route, every
        # dense decomposition sees a state that no longer holds a basis
        c = cfg("shampoo", e_l=0.5, e_r=0.5, eps=1e-3)
        g_seq, f_seq = factored_gradients(np.random.default_rng(42), (16, 16), 2, 6)
        state = LayerState()
        seen = []

        def watching(a):
            if a.shape[-1] == 16:
                block = state.blocks[0]
                seen.append((block.q_l, block.q_r))
            return sym_eig_stack(a)

        monkeypatch.setattr(mupre.optim, "sym_eig_stack", watching)
        factored_steps(state, g_seq, f_seq, c)
        # 2 t <= 8 through step 4; steps 5 and 6 are dense on both sides
        assert len(seen) == 4
        assert all(q_l is None and q_r is None for q_l, q_r in seen)


# (left, right, gradient shape) triples that do not factor the gradient
BAD_FACTOR_SHAPES = pytest.mark.parametrize(
    "left,right,g_shape",
    [
        (np.ones((5, 2)), np.ones((4, 2)), (6, 4)),
        (np.ones((6, 2)), np.ones((3, 2)), (6, 4)),
        (np.ones((6, 2)), np.ones((4, 3)), (6, 4)),
        (np.ones(6), np.ones((4, 1)), (6, 4)),
        (np.ones((6, 0)), np.ones((4, 0)), (6, 4)),
    ],
    ids=["left-rows", "right-rows", "column-counts", "one-dimensional", "no-columns"],
)

# the rules whose range-basis routes read the gradient's factors
FACTOR_READERS = ("shampoo", "muon")


class TestGradientFactors:
    """Factors handed to a step are checked against its gradient and cleared
    by every rule; only the FACTOR_READERS read them."""

    def step(self, left, right, g):
        state = LayerState(factors=(left, right))
        return shampoo_step(state, g, cfg("shampoo", e_l=0.25, e_r=0.25)), state

    @BAD_FACTOR_SHAPES
    def test_wrong_shapes_raise(self, left, right, g_shape):
        with pytest.raises(ValueError) as err:
            self.step(left, right, g=np.zeros(g_shape))
        assert not isinstance(err.value, NonFiniteError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_factors_raise_non_finite(self, bad, side):
        factors = [np.ones((6, 2)), np.ones((4, 2))]
        factors[side][1, 1] = bad
        with pytest.raises(NonFiniteError):
            self.step(*factors, g=np.full((6, 4), 2.0))

    def test_product_must_match_gradient(self):
        rng = np.random.default_rng(44)
        left, right = rng.standard_normal((30, 2)), rng.standard_normal((20, 2))
        g = left @ right.T
        noise = rng.standard_normal(g.shape)
        noise *= np.linalg.norm(g) / np.linalg.norm(noise)
        with pytest.raises(ValueError, match="multiply to the gradient"):
            self.step(left, right, g=g + 1e-10 * noise)
        report, state = self.step(left, right, g=g + 1e-14 * noise)
        assert np.all(np.isfinite(report.update)) and state.factors is None

    @pytest.mark.parametrize("rule,graft_rule", accepted_graft_pairs())
    def test_every_rule_clears_and_only_shampoo_reads(self, rule, graft_rule, monkeypatch):
        # a mismatched pair: any rule that read it would raise; the name
        # predates Muon's route, which reads them too
        c = cfg(rule, graft_rule=graft_rule, **RULE_KW.get(rule, {}))
        g = np.random.default_rng(45).standard_normal((6, 4))
        state = LayerState(factors=(np.ones((6, 1)), np.ones((4, 1))))
        if rule in FACTOR_READERS:
            with pytest.raises(ValueError, match="multiply"):
                optimizer_step(state, g, c)
        else:
            got = optimizer_step(state, g, c).update
            assert got.tobytes() == optimizer_step(LayerState(), g, c).update.tobytes()
        assert state.factors is None


class TestSoap:
    def test_frozen_rank1_two_sided(self):
        # delta=(1,0), x=(3,4), t=1, betas=0, eps=0:
        # update = (delta/|delta|)(x/|x|)^T = [[0.6, 0.8], [0, 0]]
        g = rank1([1.0, 0.0], [3.0, 4.0])
        c = cfg("soap", e_l=1.0, e_r=1.0, beta1=0, beta2=0, eps=0.0)
        out = soap_step(LayerState(), g, c)
        assert np.max(np.abs(out.update - [[0.6, 0.8], [0.0, 0.0]])) < 1e-12

    def test_frozen_rank1_with_eps(self):
        # same but eps=5: scalar in rotated space is 5/(5+5) = 0.5
        g = rank1([1.0, 0.0], [3.0, 4.0])
        c = cfg("soap", e_l=1.0, e_r=1.0, beta1=0, beta2=0, eps=5.0)
        out = soap_step(LayerState(), g, c)
        assert np.max(np.abs(out.update - [[0.3, 0.4], [0.0, 0.0]])) < 1e-12

    def test_identity_indicators_reduce_to_adam(self):
        rng = np.random.default_rng(5)
        c_soap = cfg("soap", e_l=0.0, e_r=0.0, beta1=0.9, beta2=0.95, eps=1e-8)
        c_adam = cfg("adam", beta1=0.9, beta2=0.95, eps=1e-8)
        s1, s2 = LayerState(), LayerState()
        for _ in range(4):
            g = rng.standard_normal((4, 3))
            u_soap = soap_step(s1, g, c_soap).update
            u_adam = adam_step(s2, g, c_adam).update
            assert np.max(np.abs(u_soap - u_adam)) < 1e-12

    def test_basis_cached_between_refreshes(self):
        rng = np.random.default_rng(6)
        c = cfg("soap", e_l=1.0, e_r=1.0, precond_freq=3)
        state = LayerState()
        soap_step(state, rng.standard_normal((4, 4)), c)
        q_l_after_1 = state.blocks[0].q_l.copy()
        soap_step(state, rng.standard_normal((4, 4)), c)
        assert np.array_equal(state.blocks[0].q_l, q_l_after_1)  # t=2: stale
        soap_step(state, rng.standard_normal((4, 4)), c)
        soap_step(state, rng.standard_normal((4, 4)), c)
        assert not np.array_equal(state.blocks[0].q_l, q_l_after_1)  # t=4: refreshed

    def test_one_sided_rotation(self):
        # e_l=0: left basis stays coordinate; compare against direct formula
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 4))
        c = cfg("soap", e_l=0.0, e_r=1.0, beta1=0, beta2=0, eps=1e-3)
        out = soap_step(LayerState(), g, c)
        w, q = np.linalg.eigh(g.T @ g)
        g_rot = g @ q
        ref = (g_rot / (np.abs(g_rot) + 1e-3)) @ q.T
        assert np.max(np.abs(out.update - ref)) < 1e-10


class TestMuon:
    def test_rank1_closed_form(self):
        delta, x = np.array([2.0, 0.0, 0.0]), np.array([0.0, 5.0])
        out = muon_step(LayerState(), rank1(delta, x), cfg("muon", beta1=0))
        expected = rank1(delta / 2.0, x / 5.0)
        assert spectral_norm_exact(out.update - expected) < 0.05

    def test_zero_gradient(self):
        out = muon_step(LayerState(), np.zeros((3, 3)), cfg("muon"))
        assert np.array_equal(out.update, np.zeros((3, 3)))

    def test_momentum_is_plain_ema(self):
        rng = np.random.default_rng(8)
        c = cfg("muon", beta1=0.9)
        state = LayerState()
        m = np.zeros((4, 4))
        for _ in range(3):
            g = rng.standard_normal((4, 4))
            muon_step(state, g, c)
            m = 0.9 * m + (1.0 - 0.9) * g
        assert np.max(np.abs(state.m - m)) < 1e-14


def close(got, want, tol):
    return np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


class TestMuonRoute:
    """Given the gradients' batch factors, Muon orthogonalizes the core
    Q_l^T m Q_r while the bases of both sides stay within
    RANGE_BASIS_MAX_FRACTION of their side, and its update is the dense
    one up to round-off; past the cutoff it is the dense one bit for bit."""

    def test_matches_dense_route_across_the_cutoff(self):
        # n = 64 and B = 4: both sides take the route while 4 t <= 32; the
        # left factor is zero at step 1, as a zero-init readout makes fc2's
        c = cfg("muon")
        g_seq, f_seq = factored_gradients(np.random.default_rng(51), (64, 64), 4, 12, 1)
        route, dense = LayerState(), LayerState()
        for t, (g, factors) in enumerate(zip(g_seq, f_seq), start=1):
            route.factors = factors
            got, want = muon_step(route, g, c), muon_step(dense, g, c)
            block = route.blocks[0]
            if 4 * t <= RANGE_BASIS_MAX_FRACTION * 64:
                assert block.q_l.shape == block.q_r.shape == (64, 4 * t)
                assert got.core.shape == (4 * t, 4 * t)
                assert close(got.update, want.update, 1e-12)
                assert abs(got.spec - want.spec) <= 1e-12 * want.spec
                assert abs(got.srank - want.srank) <= 1e-12 * want.srank
            else:
                assert block.q_l is None and block.q_r is None and got.core is None
                assert got.update.tobytes() == want.update.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        b=st.integers(1, 4),
        beta1=st.sampled_from((0.0, 0.95)),
        seed=st.integers(0, 2**16),
    )
    def test_matches_dense_route(self, shape, b, beta1, seed):
        # the run ends two steps past the cutoff of the larger side
        c = cfg("muon", beta1=beta1)
        steps = int(RANGE_BASIS_MAX_FRACTION * max(shape)) // b + 2
        g_seq, f_seq = factored_gradients(np.random.default_rng(seed), shape, b, steps)
        route, dense = LayerState(), LayerState()
        for g, factors in zip(g_seq, f_seq):
            route.factors = factors
            got, want = muon_step(route, g, c), muon_step(dense, g, c)
            assert close(got.update, want.update, 1e-12)
            assert abs(got.spec - want.spec) <= 1e-12 * want.spec

    @pytest.mark.parametrize("shape", [(64, 1), (1, 64), (64, 7), (7, 64)])
    def test_narrow_layers_stay_dense_without_qr(self, shape, monkeypatch):
        # B = 4 columns a step exceed half of a side of 1 or 7 from step 1
        qr_calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: qr_calls.append(a.shape) or qr(a))
        c = cfg("muon")
        g_seq, f_seq = factored_gradients(np.random.default_rng(52), shape, 4, 4)
        route, dense = LayerState(), LayerState()
        for g, factors in zip(g_seq, f_seq):
            route.factors = factors
            got, want = muon_step(route, g, c), muon_step(dense, g, c)
            assert got.core is None and got.update.tobytes() == want.update.tobytes()
            assert route.blocks[0].q_l is None and route.blocks[0].q_r is None
        assert qr_calls == []

    def test_hand_built_state_stays_dense(self):
        # a basis started at t > 1 would miss the earlier gradients
        rng = np.random.default_rng(53)
        c = cfg("muon")
        g_seq, f_seq = factored_gradients(rng, (40, 40), 2, 3)
        route = LayerState(t=3, m=rng.standard_normal((40, 40)))
        dense = copy.deepcopy(route)
        for g, factors in zip(g_seq, f_seq):
            route.factors = factors
            got, want = muon_step(route, g, c), muon_step(dense, g, c)
            assert got.core is None and got.update.tobytes() == want.update.tobytes()
            assert route.blocks[0].q_l is None and route.blocks[0].q_r is None

    def test_zero_gradient_gives_zero_update(self):
        left, right = np.zeros((16, 2)), np.random.default_rng(54).standard_normal((16, 2))
        state = LayerState(factors=(left, right))
        report = muon_step(state, left @ right.T, cfg("muon"))
        assert state.blocks[0].q_l.shape == (16, 2) and report.core.shape == (2, 2)
        assert not np.any(report.update) and not np.any(report.core)
        assert report.frob == report.spec == report.srank == 0.0

    @BAD_FACTOR_SHAPES
    def test_wrong_shapes_raise(self, left, right, g_shape):
        with pytest.raises(ValueError) as err:
            muon_step(LayerState(factors=(left, right)), np.zeros(g_shape), cfg("muon"))
        assert not isinstance(err.value, NonFiniteError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_factors_raise_non_finite(self, bad, side):
        factors = [np.ones((6, 2)), np.ones((4, 2))]
        factors[side][1, 1] = bad
        with pytest.raises(NonFiniteError):
            muon_step(LayerState(factors=tuple(factors)), np.full((6, 4), 2.0), cfg("muon"))

    @settings(max_examples=150, deadline=None)
    @given(
        n_l=st.integers(1, 30), n_r=st.integers(1, 30), data=st.data(),
        log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1),
    )
    def test_core_orthogonalizes_as_the_product(self, n_l, n_r, data, log_scale, seed):
        # newton_schulz maps X to X p(X^T X), so it commutes with orthonormal
        # bases on both sides, and the core carries the update's spectrum
        r_l = data.draw(st.integers(1, n_l), label="r_l")
        r_r = data.draw(st.integers(1, n_r), label="r_r")
        rng = np.random.default_rng(seed)
        q_l = np.linalg.qr(rng.standard_normal((n_l, r_l))).Q
        q_r = np.linalg.qr(rng.standard_normal((n_r, r_r))).Q
        core = 10.0**log_scale * rng.standard_normal((r_l, r_r))
        ns_core = mupre.optim.newton_schulz(core)
        update = q_l @ ns_core @ q_r.T
        assert close(update, mupre.optim.newton_schulz(q_l @ core @ q_r.T), 1e-12)
        spec = spectral_norm_exact(update)
        assert abs(UpdateReport(update, ns_core).spec - spec) <= 1e-13 * spec


class TestFirstMoment:
    """Every rule advances the first moment in place, with the bits of the
    textbook EMA beta1 m + (1 - beta1) g, and never aliases the gradient."""

    @pytest.mark.parametrize("rule,kw", [
        ("sgd", {}), ("adam", {}), ("shampoo", {}), ("soap", {"e_l": 1.0, "e_r": 1.0}),
        ("muon", {}), ("shampoo", {"graft_rule": "adam", "block_in": 2}),
    ], ids=["sgd", "adam", "shampoo", "soap", "muon", "blocked-graft"])
    @pytest.mark.parametrize("beta1", [0.0, 0.9, 0.37])
    def test_bits_match_textbook_ema(self, rule, kw, beta1):
        rng = np.random.default_rng(31)
        c = cfg(rule, beta1=beta1, **kw)
        state = LayerState()
        m = np.zeros((6, 5))
        for _ in range(6):
            g = rng.standard_normal((6, 5)) * 10.0 ** rng.uniform(-3, 3)
            kept = g.copy()
            optimizer_step(state, g, c)
            m = beta1 * m + (1.0 - beta1) * g
            assert np.array_equal(state.m, m)
            assert np.array_equal(g, kept) and not np.shares_memory(state.m, g)

    def test_moment_array_is_reused(self):
        state = LayerState()
        rng = np.random.default_rng(32)
        sgd_step(state, rng.standard_normal((3, 4)), cfg("sgd"))
        first = state.m
        sgd_step(state, rng.standard_normal((3, 4)), cfg("sgd"))
        assert state.m is first


class TestAdaMuon:
    def test_sign_of_orthogonalized_gradient(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((4, 3))
        from mupre.linalg import newton_schulz

        out = adamuon_step(LayerState(), g, cfg("adamuon", beta1=0, beta2=0, eps=0))
        o = newton_schulz(g)
        assert np.max(np.abs(out.update - np.sign(o))) < 1e-12

    def test_large_eps_scales_by_inverse_eps(self):
        rng = np.random.default_rng(10)
        g = rank1(rng.standard_normal(4), rng.standard_normal(3))
        from mupre.linalg import newton_schulz

        eps = 1e6
        out = adamuon_step(LayerState(), g, cfg("adamuon", beta1=0, beta2=0, eps=eps))
        o = newton_schulz(g)
        # t=1, betas=0: update = o / (|o| + eps) elementwise
        assert np.max(np.abs(out.update - o / (np.abs(o) + eps))) < 1e-15

    def test_rms_align_flag(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((6, 8))
        out = adamuon_step(LayerState(), g, cfg("adamuon", rms_align=True))
        rms = np.sqrt(np.mean(out.update**2))
        assert rms == pytest.approx(0.2, rel=1e-12)


class TestGraft:
    def test_norm_transfer_exact(self):
        rng = np.random.default_rng(12)
        q1 = UpdateReport(rng.standard_normal((4, 4)))
        q2 = UpdateReport(rng.standard_normal((4, 4)))
        out = graft(q1, q2, eps=0.0)
        assert out.frob == pytest.approx(q1.frob, rel=1e-12)
        # direction preserved
        cos = np.sum(out.update * q2.update) / (out.frob * q2.frob)
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_zero_direction_gives_zero(self):
        q1 = UpdateReport(np.ones((2, 2)))
        q2 = UpdateReport(np.zeros((2, 2)))
        assert np.array_equal(graft(q1, q2, eps=1e-8).update, np.zeros((2, 2)))
        assert np.array_equal(graft(q1, q2, eps=0.0).update, np.zeros((2, 2)))

    def test_grafted_step_norm_matches_adam(self):
        rng = np.random.default_rng(13)
        c = cfg(
            "shampoo", e_l=0.5, e_r=0.5, eps=1e-5, eps_mode="relative",
            graft_rule="adam", graft_eps=0.0, graft_ref_eps=1e-8,
        )
        c_adam = cfg("adam", eps=1e-8)
        state, adam_state = LayerState(), LayerState()
        for _ in range(3):
            g = rng.standard_normal((5, 4))
            out = optimizer_step(state, g, c)
            ref = adam_step(adam_state, g, c_adam)
            assert out.frob == pytest.approx(ref.frob, rel=1e-10)

    def test_grafted_direction_matches_ungrafted(self):
        rng = np.random.default_rng(14)
        g = rng.standard_normal((5, 4))
        c = cfg("shampoo", e_l=0.25, e_r=0.25, beta1=0, beta2=0, eps=1e-3,
                eps_mode="absolute", graft_rule="adam")
        base = shampoo_step(LayerState(), g, cfg(
            "shampoo", e_l=0.25, e_r=0.25, beta1=0, beta2=0, eps=1e-3, eps_mode="absolute"))
        out = optimizer_step(LayerState(), g, c)
        cos = np.sum(out.update * base.update) / (out.frob * base.frob)
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_zero_eps_reference_on_zero_history(self, monkeypatch):
        # every hidden layer's first gradient is exactly zero in training;
        # at graft_ref_eps = 0 the adam reference maps it to +0.0, then
        # tracks adam_step at eps = 0
        refs = []
        real_graft = mupre.optim.graft
        monkeypatch.setattr(mupre.optim, "graft",
                            lambda q1, q2, eps: refs.append(q1) or real_graft(q1, q2, eps))
        rng = np.random.default_rng(17)
        c = cfg("muon", graft_rule="adam", graft_ref_eps=0.0)
        state, adam_state = LayerState(), LayerState()
        grads = [np.zeros((6, 5))] + [rng.standard_normal((6, 5)) for _ in range(4)]
        for g in grads:
            optimizer_step(state, g, c)
            want = adam_step(adam_state, g, cfg("adam", eps=0.0))
            assert refs[-1].frob == pytest.approx(want.frob, rel=1e-12)
        assert refs[0].update.tobytes() == np.zeros((6, 5)).tobytes()
        assert refs[-1].frob > 0.0

    @pytest.mark.parametrize("rule,graft_rule", accepted_graft_pairs())
    def test_grafted_norm_is_reference_rule_norm(self, rule, graft_rule):
        # the graft takes its norm from the reference rule run on its own
        rng = np.random.default_rng(16)
        c_graft = cfg(rule, graft_rule=graft_rule, graft_ref_eps=1e-6, **RULE_KW.get(rule, {}))
        if graft_rule == "adam":
            ref_step, c_ref = adam_step, cfg("adam", eps=c_graft.graft_ref_eps)
        else:
            ref_step, c_ref = sgd_step, cfg("sgd")
        state, ref_state = LayerState(), LayerState()
        for _ in range(6):
            g = rng.standard_normal((6, 5))
            out = optimizer_step(state, g, c_graft)
            assert out.frob == pytest.approx(ref_step(ref_state, g, c_ref).frob, rel=1e-10)

    @pytest.mark.parametrize("rule,graft_rule", accepted_graft_pairs())
    def test_grafted_update_is_positive_multiple_of_ungrafted(self, rule, graft_rule):
        # the graft reference must not disturb the rule's own state: over
        # several steps the grafted update stays a positive scalar multiple
        rng = np.random.default_rng(15)
        c_base = cfg(rule, **RULE_KW.get(rule, {}))
        c_graft = cfg(rule, graft_rule=graft_rule, **RULE_KW.get(rule, {}))
        state, base_state = LayerState(), LayerState()
        for _ in range(6):
            g = rng.standard_normal((6, 5))
            out = optimizer_step(state, g, c_graft).update
            base = optimizer_step(base_state, g, c_base).update
            scale = np.sum(out * base) / np.sum(base * base)
            assert scale > 0.0
            assert np.max(np.abs(out - scale * base)) <= 1e-12 * np.max(np.abs(out))


class TestFactorSymmetry:
    """The factor EMAs go to sym_eig_stack as they are, so every step must
    leave them exactly symmetric."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        blocks=st.tuples(st.integers(1, 16), st.integers(1, 16)),
        rule=st.sampled_from(("shampoo", "soap")),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_factor_stacks_stay_exactly_symmetric(self, shape, blocks, rule, log_scale, seed):
        c = cfg(rule, block_out=blocks[0], block_in=blocks[1], **RULE_KW.get(rule, {}))
        rng = np.random.default_rng(seed)
        state = LayerState()
        for _ in range(4):
            optimizer_step(state, 10.0**log_scale * rng.standard_normal(shape), c)
        for _, stacks in state.groups:
            for acc in (stacks.l, stacks.r):
                assert np.array_equal(acc, acc.swapaxes(-1, -2))


class TestBlocking:
    def test_none_is_full_extent_and_large_blocks_clamp(self):
        assert BlockPartition(7, 5) == BlockPartition(7, 5, 7, 5) == BlockPartition(7, 5, 70, 9)
        part = BlockPartition(7, 5, None, 2)
        assert (part.b_out, part.b_in, part.col_spans) == (7, 2, [(0, 2), (2, 4), (4, 5)])
        assert block_partition(np.zeros((7, 5)), 70, None) == BlockPartition(7, 5)

    def test_partition_counts_and_trailing_blocks(self):
        part = block_partition(np.zeros((70, 33)), b_out=32, b_in=32)
        assert (part.n_out, part.n_in) == (3, 2)
        shapes = {grp.shape: grp.indices for grp in part.groups()}
        assert shapes[(32, 32)] == (0, 2)
        assert shapes[(32, 1)] == (1, 3)  # trailing column block keeps real width
        assert shapes[(6, 32)] == (4,)
        assert shapes[(6, 1)] == (5,)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(15)
        g = rng.standard_normal((37, 21))
        part = block_partition(g, 8, 5)
        out = np.full_like(g, np.nan)
        for grp in part.groups():
            grp.view(out)[...] = grp.view(g)
        assert np.array_equal(out, g)
        assert sorted(i for grp in part.groups() for i in grp.indices) == list(range(len(part)))

    def test_full_block_matches_unblocked(self):
        rng = np.random.default_rng(16)
        g = rng.standard_normal((6, 7))
        c_unblocked = cfg("shampoo", e_l=0.5, e_r=0.5, beta1=0, beta2=0,
                          eps=1e-4, eps_mode="absolute")
        c_blocked = cfg("shampoo", e_l=0.5, e_r=0.5, beta1=0, beta2=0,
                        eps=1e-4, eps_mode="absolute", block_in=7, block_out=6)
        u1 = shampoo_step(LayerState(), g, c_unblocked).update
        u2 = shampoo_step(LayerState(), g, c_blocked).update
        assert np.array_equal(u1, u2)

    def test_blocks_are_independent(self):
        # preconditioning a block-diagonal gradient must equal preconditioning
        # each diagonal block on its own
        rng = np.random.default_rng(17)
        a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        g = np.zeros((8, 8))
        g[:4, :4], g[4:, 4:] = a, b
        c = cfg("shampoo", e_l=0.5, e_r=0.5, beta1=0, beta2=0, eps=1e-3,
                eps_mode="absolute", block_in=4, block_out=4)
        u = shampoo_step(LayerState(), g, c).update
        c_small = cfg("shampoo", e_l=0.5, e_r=0.5, beta1=0, beta2=0, eps=1e-3,
                      eps_mode="absolute")
        ua = shampoo_step(LayerState(), a, c_small).update
        ub = shampoo_step(LayerState(), b, c_small).update
        assert np.max(np.abs(u[:4, :4] - ua)) < 1e-12
        assert np.max(np.abs(u[4:, 4:] - ub)) < 1e-12

    def test_soap_full_block_matches_unblocked(self):
        rng = np.random.default_rng(18)
        g = rng.standard_normal((5, 6))
        c1 = cfg("soap", e_l=1.0, e_r=1.0, beta1=0, beta2=0, eps=1e-6)
        c2 = cfg("soap", e_l=1.0, e_r=1.0, beta1=0, beta2=0, eps=1e-6,
                 block_in=6, block_out=5)
        u1 = soap_step(LayerState(), g, c1).update
        u2 = soap_step(LayerState(), g, c2).update
        assert np.array_equal(u1, u2)


class TestNormalization:
    def test_spectral_normalize_exact_mode(self):
        rng = np.random.default_rng(19)
        u = rng.standard_normal((6, 4))
        state = PowerIterState(v=np.ones(4) / 2.0)
        out, _ = spectral_normalize(u, state, d_out=6, d_in=4, exact=True)
        assert spectral_norm_exact(out) == pytest.approx(np.sqrt(6 / 4), rel=1e-10)

    def test_spectral_normalize_online_converges(self):
        rng = np.random.default_rng(20)
        u = rng.standard_normal((8, 8))
        state = PowerIterState(v=rng.standard_normal(8))
        state.v /= np.linalg.norm(state.v)
        for _ in range(20):
            out, state = spectral_normalize(u, state, 8, 8)
        assert spectral_norm_exact(out) == pytest.approx(1.0, rel=0.05)

    def test_spectral_normalize_zero_update_passthrough(self):
        state = PowerIterState(v=np.array([1.0, 0.0]))
        out, new_state = spectral_normalize(np.zeros((2, 2)), state, 2, 2)
        assert np.array_equal(out, np.zeros((2, 2)))
        assert new_state is state

    def test_rms_normalize_target(self):
        rng = np.random.default_rng(21)
        u = rng.standard_normal((16, 4))
        out = rms_normalize(u, d_out=16, d_in=4)
        rms = np.sqrt(np.mean(out**2))
        assert rms == pytest.approx(np.sqrt(16 / 4) / np.sqrt(16), rel=1e-12)
        # a unit column then carries spectral norm ~ sqrt(d_out/d_in)
        col_norm = np.sqrt(16) * rms
        assert col_norm == pytest.approx(np.sqrt(16 / 4), rel=1e-12)

    def test_rms_normalize_zero_passthrough(self):
        assert np.array_equal(rms_normalize(np.zeros((3, 3)), 3, 3), np.zeros((3, 3)))


class TestWeightDecay:
    def test_independent_ignores_eta(self):
        w = np.full((2, 2), 10.0)
        out = apply_weight_decay(w, lam=0.1, mode="independent", eta=123.0)
        assert np.allclose(out, 9.0)

    def test_coupled_scales_with_eta(self):
        w = np.full((2, 2), 10.0)
        out = apply_weight_decay(w, lam=0.1, mode="coupled", eta=0.5)
        assert np.allclose(out, 9.5)

    def test_decay_amounts_differ_by_eta_exactly(self):
        w = np.random.default_rng(22).standard_normal((3, 3))
        eta, lam = 0.25, 0.01
        d_ind = w - apply_weight_decay(w, lam, "independent", eta)
        d_cpl = w - apply_weight_decay(w, lam, "coupled", eta)
        assert np.max(np.abs(d_cpl - eta * d_ind)) < 1e-15

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            apply_weight_decay(np.eye(2), -0.1, "independent")

    def test_zero_lambda_identity(self):
        w = np.random.default_rng(23).standard_normal((2, 5))
        assert np.array_equal(apply_weight_decay(w, 0.0, "coupled", 0.3), w)


class TestReports:
    def test_srank_consistency(self):
        rng = np.random.default_rng(24)
        rep = UpdateReport(rng.standard_normal((5, 7)))
        assert rep.srank == pytest.approx(rep.frob**2 / rep.spec**2, abs=1e-8)

    def test_zero_update_report(self):
        rep = UpdateReport(np.zeros((3, 3)))
        assert rep.frob == 0.0 and rep.spec == 0.0 and rep.srank == 0.0

    def test_rank1_srank_is_one(self):
        rep = UpdateReport(rank1([1.0, 2.0], [3.0, 4.0, 5.0]))
        assert rep.srank == pytest.approx(1.0, abs=1e-10)

    def test_srank_frozen(self):
        assert UpdateReport(np.diag([2.0, 1.0, 1.0])).srank == pytest.approx(1.5, abs=1e-12)

    def test_srank_rank_one(self):
        rng = np.random.default_rng(2)
        a = np.outer(rng.standard_normal(5), rng.standard_normal(7))
        assert UpdateReport(a).srank == pytest.approx(1.0, abs=1e-8)

    def test_srank_scale_invariant(self):
        a = np.random.default_rng(3).standard_normal((6, 4))
        assert UpdateReport(a).srank == pytest.approx(UpdateReport(37.5 * a).srank, rel=1e-10)

    def test_srank_bounds(self):
        sr = UpdateReport(np.random.default_rng(4).standard_normal((6, 9))).srank
        assert 1.0 - 1e-12 <= sr <= 6.0 + 1e-12


class TestDeterminism:
    @pytest.mark.parametrize(
        "c",
        [
            cfg("sgd"),
            cfg("adam"),
            cfg("shampoo", e_l=0.25, e_r=0.25, eps=1e-5),
            cfg("soap", e_l=1.0, e_r=1.0),
            cfg("muon"),
            cfg("adamuon"),
            cfg("shampoo", e_l=0.5, e_r=0.5, eps=1e-5, graft_rule="adam"),
        ],
        ids=lambda c: c.rule + ("-graft" if c.graft_rule else ""),
    )
    def test_identical_state_gradient_config(self, c):
        rng = np.random.default_rng(25)
        gs = [rng.standard_normal((6, 5)) for _ in range(3)]
        s1, s2 = LayerState(), LayerState()
        for g in gs:
            u1 = optimizer_step(s1, g.copy(), c).update
            u2 = optimizer_step(s2, g.copy(), c).update
            assert np.array_equal(u1, u2)

    def test_state_snapshot_replay(self):
        c = cfg("shampoo", e_l=0.5, e_r=0.5, eps=1e-5)
        rng = np.random.default_rng(26)
        state = LayerState()
        for _ in range(3):
            optimizer_step(state, rng.standard_normal((4, 4)), c)
        snap = copy.deepcopy(state)
        g = rng.standard_normal((4, 4))
        u1 = optimizer_step(state, g, c).update
        u2 = optimizer_step(snap, g, c).update
        assert np.array_equal(u1, u2)
