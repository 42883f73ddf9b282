import copy
import importlib
import math
import tracemalloc
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    FACTOR_PRODUCT_TOL,
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

from .shampoo_reference import exact_blocked_shampoo

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
        with pytest.raises(ValueError, match="beta1 must be < 1, got 1.0"):
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

    @pytest.mark.parametrize("e_l,e_r", [(0.0, 0.5), (0.5, 0.0), (0.0, 0.0)])
    def test_zero_exponent_side_keeps_no_factor(self, e_l, e_r):
        # e = 0 is the identity, so that side's EMA would never be read
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-4, block_out=3, block_in=4)
        rng = np.random.default_rng(7)
        state = LayerState()
        for _ in range(3):
            shampoo_step(state, rng.standard_normal((7, 9)), c)
        for _, stacks in state.groups:
            assert (stacks.l is None) == (e_l == 0.0) and (stacks.r is None) == (e_r == 0.0)

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
    part = block_partition(g.shape, c.block_out, c.block_in)
    return list(product(part.row_spans, part.col_spans))


def tile_of(stack, group, k):
    """The k-th tile's matrix of a group's stack, or None; a band-shaped
    stack, such as a basis held once per band, broadcasts over its band."""
    if stack is None:
        return None
    return np.broadcast_to(stack, group.grid + stack.shape[2:])[divmod(k, group.grid[1])]


def expanded(s, q):
    """Q S Q^T, made exactly symmetric."""
    a = q @ s @ q.T
    return (a + a.T) / 2.0


def rotated_back(a, q_l, q_r):
    """Q_l A Q_r^T, of a matrix or of every entry of a stack, skipping a
    side without a basis."""
    if q_l is not None:
        a = q_l @ a
    return a if q_r is None else a @ q_r.swapaxes(-1, -2)


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
                        # descending, as soap_step orders its bases
                        q = sym_eig(tile[side] / corr2).eigenvectors
                        tile["q_" + side] = q[:, ::-1].copy()
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
    keeps kappa_t (conditioning), and so the round-off of the dense route
    and of the range-basis route, moderate at an absolute eps. left is
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


def mup_like_gradients(rng, shape, b, steps):
    """steps gradients left @ right.T of a d_out x d_in hidden layer under
    muP, and their factor pairs: the left factor is zero at step 1, as a
    zero-init readout makes fc2's, and Gaussian after; the right factor
    holds the features tanh(w x) of a scalar input x at b samples, which
    are numerically rank deficient. The gradients have unit Frobenius norm
    in expectation, as in factored_gradients."""
    w = 3.0 * rng.standard_normal(shape[1])
    g_seq, f_seq = [], []
    for t in range(1, steps + 1):
        right = np.tanh(np.outer(w, rng.standard_normal(b)))
        left = rng.standard_normal((shape[0], b)) / math.sqrt(b * shape[0] * shape[1])
        if t == 1:
            left[...] = 0.0
        g_seq.append(left @ right.T)
        f_seq.append((left, right))
    return g_seq, f_seq


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


U = np.finfo(float).eps
# c of the bound c u kappa_t (rounding_ratio) of every route test. Over
# 2,000 draws per test the largest ratio measured is 8.2 against mpmath (at
# an absolute eps of 1, kappa_t near 1) and 7.0 between two float64 runs;
# CHANGES.md gives each test's
C = 32.0


def conditioning(state, c):
    """kappa_t after step t: the largest (lam_max + eps') / eps' over the
    tiles and e > 0 sides of the bias-corrected factors in state.blocks; 1
    with none, and for a zero factor in relative mode, whose update is 0."""
    corr2, kappa = 1.0 - c.beta2**state.t, 1.0
    for block, side in product(state.blocks, "lr"):
        if getattr(c, "e_" + side) > 0.0:
            top = max(np.linalg.eigvalsh(getattr(block, side))[-1] / corr2, 0.0)
            eps = c.eps * top if c.eps_mode == "relative" else c.eps
            kappa = max(kappa, (top + eps) / eps if eps > 0.0 else 1.0)
    return kappa


def rounding_ratio(got, want, kappa):
    """||got - want|| / (u kappa ||want||), the round-off of a root of a
    factor of condition kappa; 0 for equal arrays."""
    gap = np.linalg.norm(got - want)
    return 0.0 if gap == 0.0 else gap / (U * kappa * np.linalg.norm(want))


def run(g_seq, c, f_seq=None, state=None):
    """A Shampoo run's updates, each step's kappa_t and its final state,
    handing each gradient's factors (f_seq, or None) over to its step."""
    state, updates, kappas = state or LayerState(), [], []
    for g, factors in zip(g_seq, f_seq or [None] * len(g_seq)):
        state.factors = factors
        updates.append(shampoo_step(state, g, c).update)
        assert state.factors is None
        kappas.append(conditioning(state, c))
    return updates, kappas, state


def route_off(g_seq, c, state=None):
    """run with RANGE_BASIS_MAX_FRACTION 0: every side takes the dense
    route, which does not read the gradient's factors."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mupre.optim, "RANGE_BASIS_MAX_FRACTION", 0.0)
        return run(g_seq, c, None, state)


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
        tiles = len(block_partition(shape, b_out, b_in))
        sides = 2 if e_r > 0.0 else 1
        rng = np.random.default_rng(16)
        state = LayerState()
        for step in range(1, 4):
            shampoo_step(state, rng.standard_normal(shape), c)
            assert len(eig_calls) == sides * groups * step
            assert sum(math.prod(s[:-2]) for s in eig_calls) == sides * tiles * step

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
    """Shampoo and SOAP run the tiles of each shape as one stack. A Shampoo
    tile gets the update of the same tile run alone, as a one-tile layer,
    up to round-off; a SOAP tile gets the bits of the tile-by-tile route."""

    def check_tiles(self, g_seq, c, f_seq, zero):
        """Every tile of a layer run against that tile run alone, as a
        one-tile layer with its rows of the factors: each step's update,
        then the factors and first moment that state.blocks and state.m
        read back. zero(t, i) says if tile i's update at step t is zero,
        which must be +0.0 bytes."""
        f_seq = f_seq or [None] * len(g_seq)
        got, _, state = run(g_seq, c, f_seq)
        unblocked = replace(c, block_out=None, block_in=None)
        tiles = [(slice(*rows), slice(*cols)) for rows, cols in tile_spans(g_seq[0], c)]
        for i, (block, (rows, cols)) in enumerate(zip(state.blocks, tiles, strict=True)):
            lone_f = [f and (f[0][rows], f[1][cols]) for f in f_seq]
            want, kappas, lone = run([g[rows, cols].copy() for g in g_seq], unblocked, lone_f)
            for t, (update, w, kappa) in enumerate(zip(got, want, kappas), start=1):
                assert rounding_ratio(update[rows, cols], w, kappa) <= C
                assert not zero(t, i) or update[rows, cols].tobytes() == bytes(w.nbytes)
            for a, b in ((block.l, lone.blocks[0].l), (block.r, lone.blocks[0].r)):
                assert (a is None) == (b is None)
                assert a is None or rounding_ratio(a, b, kappa) <= C
            assert rounding_ratio(state.m[rows, cols], lone.m, kappa) <= C

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
        # the zero tile's update is zero from zero_from on when its moment is
        # zero, or, with beta2 = 0 in relative mode, when its factors are
        # zero though its momentum is not (zero_from = 2)
        rows, cols, b_out, b_in = tiling
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode, beta2=beta2,
                block_out=b_out, block_in=b_in)
        part = block_partition((rows, cols), b_out, b_in)
        assert 2 <= len(part.groups()) <= 4
        spans = tile_spans(np.zeros((rows, cols)), c)
        zero = zero_tile % len(spans)
        g_seq = gradients_with_zero_tile(
            np.random.default_rng(seed), (rows, cols), spans[zero], 4, zero_from
        )
        zero_factor = eps_mode == "relative" and beta2 == 0.0 and (e_l > 0.0 or e_r > 0.0)
        self.check_tiles(g_seq, c, None, lambda t, i: (
            i == zero and t >= zero_from and (zero_from == 1 or zero_factor)))

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
        # step bare_step (if any) comes without factors, and every tile's
        # gradient is zero through step zero_left_until
        rows, cols = 2 * b_out + rest[0], 2 * b_in + rest[1]
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode,
                block_out=b_out, block_in=b_in)
        g_seq, f_seq = factored_gradients(
            np.random.default_rng(seed), (rows, cols), b, 4, zero_left_until, repeat
        )
        if bare_step:
            f_seq[min(bare_step, len(f_seq)) - 1] = None
        self.check_tiles(g_seq, c, f_seq, lambda t, i: t <= zero_left_until)

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


class TestExactReference:
    """Blocked Shampoo gives the update of exact arithmetic, recomputed in
    mpmath (exact_blocked_shampoo), within C u kappa_t relative on every
    tile, whether its sides take the dense route or the range-basis route,
    and exact zeros on a tile whose update is zero."""

    def check(self, g_seq, c, f_seq=None):
        """Returns whether some side held a range basis after each step."""
        want, kappas = exact_blocked_shampoo(g_seq, c)
        state, routed = LayerState(), []
        for t, (g, exact, kappa) in enumerate(zip(g_seq, want, kappas)):
            state.factors = f_seq and f_seq[t]
            got = shampoo_step(state, g, c).update
            for (r0, r1), (c0, c1) in tile_spans(g, c):
                assert rounding_ratio(got[r0:r1, c0:c1], exact[r0:r1, c0:c1], kappa) <= C
            routed.append(any(q is not None for _, s in state.groups for q in (s.q_l, s.q_r)))
        return routed

    # the last three cases run on seed 17's gradients, with the exponent
    # pairs of TestRelativeDamping's former byte check against a test-side
    # copy of the route
    @pytest.mark.parametrize("e_l,e_r,eps_mode,seed", [
        (0.25, 0.25, "absolute", 44), (0.25, 0.25, "relative", 44), (0.5, 0.5, "absolute", 44),
        (0.5, 0.5, "relative", 44), (0.25, 0.25, "relative", 17), (0.5, 0.0, "relative", 17),
        (0.0, 1.0, "relative", 17),
    ], ids=["0.25-absolute", "0.25-relative", "0.5-absolute", "0.5-relative",
            "0.25-0.25-relative", "0.5-0.0-relative", "0.0-1.0-relative"])
    def test_matches_mpmath_recomputation(self, e_l, e_r, eps_mode, seed):
        # 3 x 4 tiles of 6 x 8 gradients: both sides of every tile take the
        # dense route, a side with e = 0 is the identity, and the top-left
        # tile's gradient is zero throughout
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode, block_out=3, block_in=4)
        spans = tile_spans(np.zeros((6, 8)), c)
        g_seq = gradients_with_zero_tile(np.random.default_rng(seed), (6, 8), spans[0], 5)
        assert self.check(g_seq, c) == [False] * 5

    # 12 x 12 layers, or 12 x 10 in 12 x 5 tiles, given batch-2 factors for
    # two steps past the one the larger side's basis would fill it. Shifts
    # of 0.1 relative or 1 absolute keep kappa_t under 15, where C u kappa_t
    # sees a rotated gradient off by 1e-12 relative
    @pytest.mark.parametrize("shape,block_in,e_l,e_r,eps_mode,eps,beta2,zero_left_until", [
        ((12, 12), None, 0.25, 0.25, "relative", 0.1, 0.95, 0),
        ((12, 12), None, 0.5, 0.25, "absolute", 1.0, 0.95, 0),
        ((12, 10), 5, 0.5, 0.5, "relative", 0.1, 0.95, 0),
        ((12, 10), 5, 0.25, 0.5, "absolute", 1e-3, 0.95, 0),
        ((12, 12), None, 0.5, 0.25, "relative", 0.1, 0.0, 1),
    ], ids=["both-sides-relative", "both-sides-absolute", "12x5-tiles-relative",
            "12x5-tiles-absolute", "zero-left-span"])
    def test_route_matches_mpmath_recomputation(
        self, shape, block_in, e_l, e_r, eps_mode, eps, beta2, zero_left_until
    ):
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=eps, eps_mode=eps_mode, beta2=beta2,
                block_in=block_in)
        g_seq, f_seq = factored_gradients(np.random.default_rng(45), shape, 2,
                                          8 + zero_left_until, zero_left_until)
        assert self.check(g_seq, c, f_seq)[:3] == [True] * 3

    def test_ill_conditioned_route_matches_mpmath_recomputation(self):
        # TestFactorSpannedRoute's pinned example: a 1 x 12 layer's right
        # side gains one direction a step, with beta2 = 0, and kappa_t
        # reaches 1.8e4 at step 6
        c = cfg("shampoo", e_l=0.0, e_r=0.5, eps=1e-3, eps_mode="absolute", beta2=0.0)
        g_seq, _ = factored_gradients(np.random.default_rng(1804), (1, 12), 2, 10, 2, True)
        assert self.check(g_seq, c) == [True] * 10


class TestStepMemory:
    """A blocked Shampoo step allocates a bounded number of temporary stacks
    over its inputs and the state it holds: each side's factor is
    decomposed as it stands and its root applied inside the eigenbasis, so
    no factor, moment, decomposition or root is copied."""

    # a 256 x 256 layer in 32 x 32 tiles: each stack of its one tile group,
    # (8, 8, 32, 32), and each layer-sized array is 0.5 MiB
    STACK = 2**19
    # measured: 3.25 stacks a step, the update, one side's eigenvectors and
    # one product, with small arrays; copying each side's bias-corrected
    # factor, its reordered decomposition and its root took 5.07
    MAX_STACKS = 4

    def test_blocked_grafted_step_stays_within_its_temporaries(self):
        # B = 32 factors do not narrow a 32-wide side, so every side is dense
        c = cfg("shampoo", e_l=0.25, e_r=0.25, eps=1e-3, graft_rule="adam",
                block_out=32, block_in=32)
        g_seq, f_seq = factored_gradients(np.random.default_rng(43), (256, 256), 32, 5)
        state = LayerState()
        tracemalloc.start()
        try:
            for g, factors in zip(g_seq, f_seq):
                state.factors = factors
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                optimizer_step(state, g, c)
                after, peak = tracemalloc.get_traced_memory()
                # the state is allocated at step 1, and held after it
                assert peak - max(before, after) <= self.MAX_STACKS * self.STACK
        finally:
            tracemalloc.stop()
        assert all(q is None for q in (state.groups[0][1].q_l, state.groups[0][1].q_r))


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
        # a Shampoo side still on the range-basis route after these steps
        # (all but the left sides of the 6-row tiles, whose bases outgrow
        # 6 / 2 columns at step 2) holds its factor compressed to its basis,
        # and each group its first moment rotated into its bases, which a
        # tile gets expanded, as new arrays; every other field is a view
        state = self.run(c)
        assert len({group.shape for group, _ in state.groups}) == 4
        blocks = state.blocks
        assert len(blocks) == len(block_partition(self.SHAPE, 32, 16))
        names = [f.name for f in fields(BlockState)]
        held, compressed = set(), 0
        for group, stacks in state.groups:
            for k, i in enumerate(group.indices):
                for name in names:
                    stack, tile = getattr(stacks, name), getattr(blocks[i], name)
                    if stack is None:
                        assert tile is None
                        continue
                    held.add(name)
                    own = tile_of(stack, group, k)
                    if name == "m":
                        q_l, q_r = (tile_of(q, group, k) for q in (stacks.q_l, stacks.q_r))
                        assert q_l is not None or q_r is not None
                        assert not np.shares_memory(tile, stack)
                        assert tile.tobytes() == rotated_back(own, q_l, q_r).tobytes()
                        continue
                    q = getattr(stacks, "q_" + name, None) if c.rule == "shampoo" else None
                    if q is not None:
                        q = tile_of(q, group, k)
                        assert own.shape == (q.shape[1], q.shape[1]) < tile.shape
                        compressed += 1
                        assert not np.shares_memory(tile, stack)
                        assert tile.tobytes() == expanded(own, q).tobytes()
                        continue
                    assert np.shares_memory(tile, stack)
                    assert np.array_equal(tile, own)
        assert held == {"l", "r", "q_l", "q_r", "m" if c.rule == "shampoo" else "v"}
        assert (compressed > 0) == (c.rule == "shampoo")

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
    """A factor side of size n whose first gradient columns number at most
    RANGE_BASIS_MAX_FRACTION n is decomposed inside the span of its
    gradients until their numerical rank, at most t k for a tile whose
    other side is k, reaches n; that route gives the dense route's update
    up to round-off."""

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
        # past the step the size-n side's basis fills it
        shape, blocks = (n, k * tiles), (None, k)
        if transpose:
            shape, blocks = shape[::-1], blocks[::-1]
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode, beta2=beta2,
                block_out=blocks[0], block_in=blocks[1])
        steps = -(-n // k) + 2
        span = tile_spans(np.zeros(shape), c)[-1]
        g_seq = gradients_with_zero_tile(
            np.random.default_rng(seed), shape, span, steps, zero_from
        )
        state = LayerState()
        for g, want, kappa in zip(g_seq, *route_off(g_seq, c)[:2], strict=True):
            assert rounding_ratio(shampoo_step(state, g, c).update, want, kappa) <= C

    def test_zero_absolute_shift_raises_as_dense_route(self):
        # the 40 x 40 factor of a 40 x 1 gradient is singular, whether it
        # is formed or kept compressed to its range basis
        g = np.random.default_rng(31).standard_normal((40, 1))
        c = cfg("shampoo", e_l=0.5, e_r=0.0, eps=0.0, eps_mode="absolute")
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            mat_inv_power(g @ g.T, 0.5, 0.0)
        state = LayerState()
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            shampoo_step(state, g, c)
        assert state.groups[0][1].q_l.shape == (1, 1, 40, 1)

    @pytest.mark.parametrize("eps_mode", EPS_MODES)
    def test_zero_shift_raises_on_a_route_side_only(self, eps_mode):
        # a 40 x 3 gradient: the left side takes the route, and the right
        # side's dense 3 x 3 factor is positive definite, so a zero shift
        # is singular on the left only
        g = np.random.default_rng(35).standard_normal((40, 3))
        for e_l, e_r in ((0.0, 0.5), (0.5, 0.0)):
            c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=0.0, eps_mode=eps_mode)
            state = LayerState()
            if e_l == 0.0:
                got = shampoo_step(state, g, c).update
                want = g @ mat_inv_power(g.T @ g, 0.5, 0.0)
                assert close(got, want, 1e-10)
                assert state.groups[0][1].q_r is None
            else:
                with pytest.raises(np.linalg.LinAlgError, match="singular"):
                    shampoo_step(state, g, c)
                assert state.groups[0][1].q_l.shape == (1, 1, 40, 3)

    def test_state_without_basis_takes_dense_route(self):
        # a basis started after step 1 would miss the earlier gradients: a
        # side whose state holds its dense factor, a dense first moment and
        # no basis stays dense
        c = cfg("shampoo", e_l=0.5, e_r=0.25, eps=1e-3)
        rng = np.random.default_rng(33)
        g_seq = [rng.standard_normal((30, 1)) for _ in range(3)]
        state = LayerState()
        for g in g_seq[:2]:
            shampoo_step(state, g, c)
        stacks = state.groups[0][1]
        assert stacks.l.shape == (1, 1, 2, 2) and stacks.m.shape == (1, 1, 2, 1)
        dense = route_off(g_seq[:2], c)[2]
        stacks.q_l, stacks.l = None, dense.blocks[0].l[np.newaxis, np.newaxis].copy()
        # assigning m drops the rotated moment, as a state without basis holds none
        state.m = dense.m.copy()
        assert stacks.m is None
        got = shampoo_step(state, g_seq[2], c).update
        ((want,), _, _) = route_off(g_seq[2:], c, dense)
        assert state.blocks[0].q_l is None
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_compressed_factor_without_basis_raises(self, side):
        # both sides of a 30 x 30 layer given batch-2 factors hold 4 x 4
        # compressed factors after two steps; without its basis a side's
        # factor fits neither route
        c = cfg("shampoo", e_l=0.5, e_r=0.25, eps=1e-3)
        g_seq, f_seq = factored_gradients(np.random.default_rng(34), (30, 30), 2, 3)
        state = LayerState()
        run(g_seq[:2], c, f_seq[:2], state)
        stacks = state.groups[0][1]
        assert stacks.l.shape == stacks.r.shape == (1, 1, 4, 4)
        # the first moment goes dense, so only the factor misfits
        dense_m = state.m.copy()
        setattr(stacks, "q_" + side, None)
        state.m = dense_m
        message = f"factor on side '{side}' is 4x4 where the step expects 30x30"
        with pytest.raises(ValueError, match=message):
            state.blocks
        state.factors = f_seq[2]
        with pytest.raises(ValueError, match=message):
            shampoo_step(state, g_seq[2], c)

    def test_rotated_moment_without_basis_raises(self):
        # a 30 x 30 layer given batch-2 factors, left side only: after two
        # steps its first moment is kept as the 4 x 30 Q_l^T m, which
        # without the basis fits neither route
        c = cfg("shampoo", e_l=0.5, e_r=0.0, eps=1e-3)
        g_seq, f_seq = factored_gradients(np.random.default_rng(36), (30, 30), 2, 3)
        state = LayerState()
        run(g_seq[:2], c, f_seq[:2], state)
        stacks = state.groups[0][1]
        assert stacks.m.shape == (1, 1, 4, 30)
        stacks.l = state.blocks[0].l[np.newaxis, np.newaxis].copy()
        stacks.q_l = None
        state.factors = f_seq[2]
        message = "first moment is 4x30 where the step expects 30x30"
        with pytest.raises(ValueError, match=message):
            shampoo_step(state, g_seq[2], c)

    @pytest.mark.parametrize("shape,e_r,blocks", [
        ((40, 40), 0.25, None), ((40, 3), 0.25, None), ((40, 40), 0.0, None), ((40, 40), 0.25, 20),
    ], ids=["both-sides", "left-side", "right-exponent-zero", "blocked"])
    def test_report_core_carries_the_update_spectrum(self, shape, e_r, blocks):
        # a one-tile layer on the route keeps its preconditioned moment in
        # the bases as the report's core, whose Gram gives spec; a blocked
        # layer's report has none
        c = cfg("shampoo", e_l=0.25, e_r=e_r, eps=1e-3, block_out=blocks)
        g_seq, f_seq = factored_gradients(np.random.default_rng(39), shape, 3, 5)
        state = LayerState()
        for g, factors in zip(g_seq, f_seq):
            state.factors = factors
            report = shampoo_step(state, g, c)
            assert (report.core is not None) == (blocks is None)
            spec = spectral_norm_exact(report.update)
            assert abs(report.spec - spec) <= 1e-12 * spec
            assert abs(report.srank - report.frob**2 / spec**2) <= 1e-12 * report.srank

    def test_factors_match_dense_ema(self, monkeypatch):
        # two 40x3 tiles: the left sides take the route while 3 t < 40,
        # with a basis of 3 t columns, the numerical rank of the Gaussian
        # gradients seen, and a compressed 3t x 3t factor, and drop it at
        # step 14, where it fills the side, expanding the factor once; the
        # dense 3 x 3 right sides keep the dense route's bits
        c = cfg("shampoo", e_l=0.25, e_r=0.5, beta2=0.95, block_in=3)
        rng = np.random.default_rng(32)
        g_seq = [rng.standard_normal((40, 6)) for _ in range(16)]
        route = LayerState()
        factors = []
        for t, g in enumerate(g_seq, start=1):
            shampoo_step(route, g, c)
            on_route = 3 * t < 40
            ((_, stacks),) = route.groups
            assert stacks.l.shape[-1] == (3 * t if on_route else 40)
            for block in route.blocks:
                assert block.q_r is None and block.l.shape == (40, 40)
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
                assert close(block.l, l, 1e-13) and block.r.tobytes() == r.tobytes()


class TestFactorSpannedRoute:
    """Given the gradient's batch factors, a side takes the row slice of its
    factor as the spanning set of the range-basis route when the slice is
    narrower than the tile's other side. A route side keeps its factor
    compressed to its basis, and while both sides take the route the
    r_l x r_r core is preconditioned; the update is still the dense
    route's up to round-off."""

    @settings(max_examples=120, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        b=st.integers(1, 4),
        blocked=st.sampled_from(("no", "columns", "both")),
        e_l=st.sampled_from((0.0, 0.25, 0.5)),
        e_r=st.sampled_from((0.0, 0.25, 0.5)),
        eps_mode=st.sampled_from(EPS_MODES),
        beta2=st.sampled_from((0.0, 0.95)),
        zero_left_until=st.integers(0, 2),
        repeat=st.booleans(),
        given_factors=st.booleans(),
        bare_step=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    # kappa_t reaches 1.8e4 at step 6 of this example, whose round-off a
    # fixed 1e-12 bound took for a fault
    @example(shape=(1, 12), b=2, blocked="no", e_l=0.0, e_r=0.5, eps_mode="absolute",
             beta2=0.0, zero_left_until=2, repeat=True, given_factors=False, bare_step=0,
             seed=1804)
    def test_matches_dense_route(
        self, shape, b, blocked, e_l, e_r, eps_mode, beta2, zero_left_until, repeat,
        given_factors, bare_step, seed,
    ):
        # the run ends two steps past the step the larger side's basis would
        # fill it, so the sides that take the route leave it and expand their
        # factors; step bare_step (if any), or every step when the factors
        # are not given, takes each tile as its own factorization G I or
        # I G. Blocked layers have tiles of half a side or less, and
        # trailing ones
        half = (-(-shape[0] // 2) if blocked == "both" else None,
                -(-shape[1] // 2) if blocked != "no" else None)
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode, beta2=beta2,
                block_out=half[0], block_in=half[1])
        steps = -(-max(shape) // b) + zero_left_until + 2
        g_seq, f_seq = factored_gradients(
            np.random.default_rng(seed), shape, b, steps, zero_left_until, repeat and b > 1
        )
        if not given_factors:
            f_seq = [None] * steps
        elif bare_step:
            f_seq[min(bare_step, len(f_seq)) - 1] = None
        route = run(g_seq, c, f_seq)[0]
        for got, want, kappa in zip(route, *route_off(g_seq, c)[:2], strict=True):
            assert rounding_ratio(got, want, kappa) <= C

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 40),
        k=st.integers(1, 3),
        extra=st.integers(0, 2),
        transpose=st.booleans(),
        blocked=st.booleans(),
        e_l=st.sampled_from((0.25, 0.5)),
        e_r=st.sampled_from((0.25, 0.5)),
        eps_mode=st.sampled_from(EPS_MODES),
        seed=st.integers(0, 2**16),
    )
    def test_wide_factors_keep_todays_bits(
        self, n, k, extra, transpose, blocked, e_l, e_r, eps_mode, seed
    ):
        # n x k gradients (k x n when transposed) with b >= k factor
        # columns, or, blocked, gradients of n x k tiles (k x n) and a
        # trailing row (column) of n // 2 x k tiles with k <= b < n: the
        # factors are not narrower than both sides of a tile, so each tile
        # is its own factorization. The size-n side takes the route,
        # and the size-k side, past its entry cutoff at step 1, stays
        # dense, so the run has the bits of one given no factors
        b = k + (min(extra, n - 1 - k) if blocked else extra)
        shape, blocks = (n, k), (None, None)
        if blocked:
            shape, blocks = (2 * n + n // 2, 3 * k), (n, k)
        if transpose:
            shape, blocks = shape[::-1], blocks[::-1]
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode,
                block_out=blocks[0], block_in=blocks[1])
        steps = -(-n // k) + 2
        g_seq, f_seq = factored_gradients(np.random.default_rng(seed), shape, b, steps)
        plain = LayerState()
        for g, got in zip(g_seq, run(g_seq, c, f_seq)[0], strict=True):
            assert got.tobytes() == shampoo_step(plain, g, c).update.tobytes()

    def test_square_layer_takes_the_route_on_both_sides(self):
        # a 40 x 40 gradient of batch 3 is spanned by 3 Gaussian columns a
        # side, of numerical rank 3: the bases grow 3 columns a step until
        # they fill the side at step 14, then both are released
        c = cfg("shampoo", e_l=0.25, e_r=0.25, eps=1e-3)
        g_seq, f_seq = factored_gradients(np.random.default_rng(41), (40, 40), 3, 16)
        state = LayerState()
        for t, (g, factors) in enumerate(zip(g_seq, f_seq), start=1):
            state.factors = factors
            shampoo_step(state, g, c)
            block = state.blocks[0]
            for q in (block.q_l, block.q_r):
                if 3 * t < 40:
                    assert q.shape == (40, 3 * t)
                else:
                    assert q is None

    def test_each_band_grows_its_basis_once(self, monkeypatch):
        # a 24 x 16 layer of 3 x 2 tiles of 8 x 8 given batch-2 factors: the
        # tiles of a row band share its left factor rows, and those of a
        # column band its right factor rows, so each step grows one left
        # basis per row band and one right basis per column band
        grown = []
        new_directions = mupre.optim._new_directions

        def growing(q, span):
            grown.append((q.shape[:-1], span.shape[:-1]))
            return new_directions(q, span)

        monkeypatch.setattr(mupre.optim, "_new_directions", growing)
        c = cfg("shampoo", e_l=0.25, e_r=0.25, eps=1e-3, block_out=8, block_in=8)
        g_seq, f_seq = factored_gradients(np.random.default_rng(43), (24, 16), 2, 3)
        state = run(g_seq, c, f_seq)[2]
        left, right = ((3, 1, 8), (3, 1, 8)), ((1, 2, 8), (1, 2, 8))
        assert grown == [left, right] * 3
        ((_, stacks),) = state.groups
        assert stacks.q_l.shape == (3, 1, 8, 6) and stacks.q_r.shape == (1, 2, 8, 6)

    def test_leaving_sides_release_bases_before_dense_decomposition(self, monkeypatch):
        # on the step both sides of a 16 x 16 layer leave the route, every
        # dense decomposition sees a state that no longer holds a basis
        c = cfg("shampoo", e_l=0.5, e_r=0.5, eps=1e-3)
        g_seq, f_seq = factored_gradients(np.random.default_rng(42), (16, 16), 2, 10)
        state = LayerState()
        seen = []

        def watching(a):
            if a.shape[-1] == 16:
                block = state.blocks[0]
                seen.append((block.q_l, block.q_r))
            return sym_eig_stack(a)

        monkeypatch.setattr(mupre.optim, "sym_eig_stack", watching)
        run(g_seq, c, f_seq, state)
        # 2 t < 16 through step 7; the bases fill the sides at step 8, and
        # steps 8-10 are dense on both sides
        assert len(seen) == 6
        assert all(q_l is None and q_r is None for q_l, q_r in seen)

    @pytest.mark.parametrize("eps_mode", EPS_MODES)
    @pytest.mark.parametrize("e_l,e_r", [(0.25, 0.25), (0.5, 0.5), (0.5, 0.25)])
    def test_matches_dense_route_from_a_zero_left_span(self, eps_mode, e_l, e_r):
        # a 48 x 48 layer with batch 12 (entry cutoff 24): the left basis
        # has width 0 after step 1 and the right one the numerical rank of
        # the tanh features, so the route lasts at least through step 3
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-3, eps_mode=eps_mode)
        g_seq, f_seq = mup_like_gradients(np.random.default_rng(61), (48, 48), 12, 8)
        state, on_route = LayerState(), []
        for t, (g, factors, want, kappa) in enumerate(zip(g_seq, f_seq, *route_off(g_seq, c)[:2]),
                                                      start=1):
            state.factors = factors
            got = shampoo_step(state, g, c).update
            assert rounding_ratio(got, want, kappa) <= C
            block = state.blocks[0]
            if t == 1:
                assert not np.any(got)
                assert block.q_l.shape == (48, 0)
                assert block.q_r.shape == (48, np.linalg.matrix_rank(factors[1]))
            on_route.append(block.q_l is not None and block.q_r is not None)
        assert on_route[:3] == [True] * 3


def precondition_side(data, rng, n, route):
    """One side of size n of a 1 x 2 tile group, for _precondition: (its
    factor stack, its basis stack or None, each tile's dense n x n factor,
    each tile's n x r span X, so that M = X_l C X_r^T lies in the ranges).

    A route side's basis has w < n columns: each tile's first r are
    orthonormal and the rest zero, as in a tile that kept fewer directions
    than its group's widest, and its factor is S = K K^T in the basis, K
    of j <= r columns, so a basis of width 0 or a zero or rank-deficient S
    can occur. A dense side's factor is K K^T for K of j <= n columns."""
    if not route:
        dense = [k @ k.T for k in (rng.standard_normal((n, data.draw(st.integers(0, n))))
                                   for _ in range(2))]
        return np.stack(dense)[np.newaxis], None, dense, [np.eye(n)] * 2
    w = data.draw(st.integers(0, n - 1))
    q, s = np.zeros((1, 2, n, w)), np.zeros((1, 2, w, w))
    for i in range(2):
        r = data.draw(st.integers(0, w))
        if r:
            q[0, i, :, :r] = np.linalg.qr(rng.standard_normal((n, r))).Q
        k = rng.standard_normal((r, data.draw(st.integers(0, r))))
        s[0, i, :r, :r] = k @ k.T
    dense = [expanded(s[0, i], q[0, i]) for i in range(2)]
    spans = [q[0, i][:, np.any(q[0, i] != 0.0, axis=0)] for i in range(2)]
    return s, q, dense, spans


class TestPrecondition:
    """_precondition, Shampoo's one preconditioning path, writes
    (L + eps_l' I)^(-e_l) M (R + eps_r' I)^(-e_r) of the dense factors into
    the update for an M in the bases' ranges, whichever sides hold a range
    basis, taking the first moment rotated into those bases and reading it
    only."""

    @settings(max_examples=200, deadline=None)
    @given(
        n_l=st.integers(1, 9),
        n_r=st.integers(1, 9),
        e_l=st.sampled_from((0.0, 0.25, 0.5)),
        e_r=st.sampled_from((0.0, 0.25, 0.5)),
        route_l=st.booleans(),
        route_r=st.booleans(),
        eps_mode=st.sampled_from(EPS_MODES),
        corr1=st.sampled_from((1.0, 0.271)),
        corr2=st.sampled_from((1.0, 0.19)),
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_roots_of_dense_factors(
        self, n_l, n_r, e_l, e_r, route_l, route_r, eps_mode, corr1, corr2, data, seed
    ):
        rng = np.random.default_rng(seed)
        c = cfg("shampoo", e_l=e_l, e_r=e_r, eps=1e-2, eps_mode=eps_mode)
        accs, bases, dense, spans = {}, {}, {}, {}
        for side, n, e, route in (("l", n_l, e_l, route_l), ("r", n_r, e_r, route_r)):
            acc, q, dense[side], spans[side] = precondition_side(data, rng, n, route and n > 1)
            if e > 0.0:
                accs[side], bases[side] = acc, q
        m = [x_l @ rng.standard_normal((x_l.shape[1], x_r.shape[1])) @ x_r.T
             for x_l, x_r in zip(spans["l"], spans["r"])]
        # _precondition takes the moment rotated into the bases, and
        # returns the result in them after writing it expanded into out
        q_l, q_r = bases.get("l"), bases.get("r")
        rot = mupre.optim._rebase(np.stack(m)[np.newaxis], (None, None), (q_l, q_r), (n_l, n_r),
                                  "update")
        kept, got = rot.copy(), np.full((1, 2, n_l, n_r), np.nan)
        held = mupre.optim._precondition(accs, bases, rot, corr1, corr2, c, got)
        assert rot.tobytes() == kept.tobytes()
        expanded_held = mupre.optim._rebase(held, (q_l, q_r), (None, None), (n_l, n_r), "update")
        assert expanded_held.tobytes() == got.tobytes()
        for i in range(2):
            want = m[i] / corr1
            for side in accs:
                a = dense[side][i] / corr2
                eps = c.eps
                if eps_mode == "relative":
                    top = np.linalg.eigvalsh(a)[-1]
                    want = want * (top > 0.0)
                    eps = c.eps * top if top > 0.0 else 1.0
                root = mat_inv_power(a, getattr(c, "e_" + side), eps)
                want = root @ want if side == "l" else want @ root
            assert np.linalg.norm(got[0, i] - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("s,eps", [(np.array([[2.0]]), 0.0), (np.diag([1.0, -1.0]), 1.0)],
                             ids=["singular", "not-psd"])
    def test_range_roots(self, s, eps):
        # a root of a factor compressed to a basis of 1 or 2 of 3 columns,
        # as Shampoo's range-basis route forms it: a zero shift is singular
        # on the basis's complement even though s itself is not
        basis = np.eye(3)[np.newaxis, np.newaxis, :, :len(s)]
        c = OptimizerConfig("shampoo", e_l=0.5, e_r=0.0, eps=eps, eps_mode="absolute")
        with pytest.raises(np.linalg.LinAlgError):
            mupre.optim._precondition({"l": s[np.newaxis, np.newaxis]}, {"l": basis},
                                      np.ones((1, 1, len(s), 1)), 1.0, 1.0, c,
                                      np.empty((1, 1, 3, 1)))


AXIS_MOVES = ("coordinate", "enter", "grow", "release")


@st.composite
def rebase_axis(draw, stack, rng):
    """One axis of a _rebase call: (size n, basis now, basis nxt, move).
    A basis is a prefix of one orthonormal n x (n - 1) stack per tile, so
    a grown one begins with the columns of the one before; it can be 0
    wide and never fills the side, as a range basis."""
    n, move = draw(st.integers(1, 8)), draw(st.sampled_from(AXIS_MOVES))
    if move == "coordinate" or n == 1 and move == "enter":
        return n, None, None, "coordinate"
    q = np.linalg.qr(rng.standard_normal(stack + (n, n))).Q[..., :n - 1]
    w0 = draw(st.integers(0, n - 1))
    w1 = draw(st.integers(w0, n - 1))
    if move == "enter":
        return n, None, q[..., :w1].copy(), move
    if move == "release":
        return n, q[..., :w0].copy(), None, move
    return n, q[..., :w0].copy(), q[..., :w1].copy(), move


class TestRebase:
    """_rebase, the one change of basis of every array the range-basis
    route holds: per axis, a released basis expands, a new one rotates in
    and a grown one pads with zeros."""

    @settings(max_examples=300, deadline=None)
    @given(stack=st.tuples(st.integers(1, 2), st.integers(1, 2)), data=st.data(),
           seed=st.integers(0, 2**16))
    def test_moves_between_bases(self, stack, data, seed):
        rng = np.random.default_rng(seed)
        (n_l, *row), (n_r, *col) = (data.draw(rebase_axis(stack, rng)) for _ in range(2))
        shape, now, nxt = (n_l, n_r), (row[0], col[0]), (row[1], col[1])
        # x lies in the range of every basis it meets: on an axis that
        # enters a basis, x is expanded from that basis's coordinates
        widths = [n if q is None else q.shape[-1]
                  for n, q in zip(shape, (row[1] if row[2] == "enter" else row[0],
                                          col[1] if col[2] == "enter" else col[0]))]
        x = rng.standard_normal(stack + tuple(widths))
        if row[2] == "enter":
            x = row[1] @ x
        if col[2] == "enter":
            x = x @ col[1].swapaxes(-1, -2)
        rebase = mupre.optim._rebase
        moved = rebase(x, now, nxt, shape, "x")
        via = rebase(moved, nxt, (None, None), shape, "x")
        straight = rebase(x, now, (None, None), shape, "x")
        assert np.linalg.norm(via - straight) <= 1e-13 * np.linalg.norm(straight)
        # growth pads the stack moved on the other axes, bit for bit, with zeros
        held = tuple(a if move == "grow" else b for a, b, move in (row, col))
        want = np.zeros(moved.shape)
        block = rebase(x, now, held, shape, "x")
        want[..., :block.shape[-2], :block.shape[-1]] = block
        assert moved.tobytes() == want.tobytes()
        assert rebase(x, now, now, shape, "x") is x
        out = np.empty(straight.shape)
        assert rebase(x, now, (None, None), shape, "x", out=out) is out
        assert out.tobytes() == straight.tobytes()
        misfit = np.zeros(x.shape[:-2] + (x.shape[-2] + 1, x.shape[-1]))
        with pytest.raises(ValueError, match=(
            f"layer state's test stack is {x.shape[-2] + 1}x{x.shape[-1]} "
            f"where the step expects {x.shape[-2]}x{x.shape[-1]}"
        )):
            rebase(misfit, now, nxt, shape, "test stack")


SPAN_KINDS = ("zero", "gauss", "repeat", "tanh")


def band_span(kind, rng, w, b):
    """An n x b spanning set of one row band: zero, Gaussian, Gaussian with
    the last column repeating the first, or the features tanh(w x) of a
    scalar x at b samples (numerically rank deficient for large b)."""
    if kind == "zero":
        return np.zeros((w.size, b))
    if kind == "tanh":
        return np.tanh(np.outer(w, rng.standard_normal(b)))
    span = rng.standard_normal((w.size, b))
    if kind == "repeat":
        span[:, -1] = span[:, 0]
    return span


class TestRangeBasisGrowth:
    """A range basis grows in place to hold the numerical range of the
    spanning sets seen on its side: each tile's real columns stay
    orthonormal, a tile group pads a tile that keeps fewer directions than
    its others with zero columns, and every spanning set seen lies in its
    tile's basis up to max(n, b) eps sigma_max(span)."""

    def run(self, n, b, kinds, seed):
        """Shampoo steps on a layer of len(kinds[0]) row bands of n rows,
        left side only, whose bands are spanned by kinds[t - 1] at step t;
        yields (t, left-basis stack, the spans seen so far per band) while
        the side is on the route."""
        bands = len(kinds[0])
        c = cfg("shampoo", e_l=0.25, e_r=0.0, eps=1e-3, block_out=n)
        rng = np.random.default_rng(seed)
        w = 3.0 * rng.standard_normal((bands, n))
        state, seen = LayerState(), [[] for _ in range(bands)]
        for t, step_kinds in enumerate(kinds, start=1):
            spans = [band_span(kind, rng, w[i], b) for i, kind in enumerate(step_kinds)]
            left, right = np.vstack(spans), rng.standard_normal((2 * b + 1, b))
            state.factors = (left, right)
            shampoo_step(state, left @ right.T, c)
            ((_, stacks),) = state.groups
            if stacks.q_l is None:
                return
            for i, span in enumerate(spans):
                seen[i].append(span)
            yield t, stacks.q_l, seen

    def check_tile(self, q, spans):
        """q's nonzero columns are orthonormal to 1e-12 and hold every span
        up to its rank tolerance; returns how many columns are nonzero."""
        real = np.any(q != 0.0, axis=0)
        assert np.abs(q.T @ q - np.diag(real.astype(float))).max(initial=0.0) <= 1e-12
        for span in spans:
            n, b = span.shape
            top = np.linalg.norm(span, 2)
            gap = np.linalg.norm(span - q @ (q.T @ span), 2)
            assert gap <= 2.0 * max(n, b) * np.finfo(float).eps * top
        return int(real.sum())

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(4, 40),
        b=st.integers(1, 12),
        bands=st.integers(1, 3),
        data=st.data(),
        zero_first=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_basis_holds_every_span_orthonormally(self, n, b, bands, data, zero_first, seed):
        b = min(b, n // 2)  # enters the route at step 1
        kinds = data.draw(st.lists(st.lists(st.sampled_from(SPAN_KINDS), min_size=bands,
                                            max_size=bands), min_size=1, max_size=6))
        if zero_first:
            kinds[0] = ["zero"] * bands
        for t, q, seen in self.run(n, b, kinds, seed):
            assert q.shape[-1] < n
            counts = [self.check_tile(q[i, 0], seen[i]) for i in range(bands)]
            if t == 1 and zero_first:
                assert q.shape[-1] == 0
            for count, spans in zip(counts, seen):
                # no tile holds more directions than its spans' numerical
                # ranks add up to, so one that saw only zero spans holds none
                assert count <= sum(np.linalg.matrix_rank(span) for span in spans)

    def test_tiles_of_one_group_differ_in_rank(self):
        # three 64-row bands, batch 16: one always zero, one of tanh
        # features, one Gaussian. The group grows by the largest count, the
        # Gaussian band's 16 a step, until it fills the 64 rows at step 4
        kinds = [("zero", "tanh", "gauss")] * 5
        widths = []
        for t, q, seen in self.run(64, 16, kinds, seed=62):
            counts = [self.check_tile(q[i, 0], seen[i]) for i in range(3)]
            assert counts[0] == 0 and 0 < counts[1] < counts[2] == 16 * t
            widths.append(q.shape[-1])
        assert widths == [16, 32, 48]

    def test_zero_then_rank_deficient_spans_grow_by_numerical_rank(self):
        # one 64-row band: a zero span at step 1, then tanh features of 32
        # samples, whose numerical rank is well below 32; later steps add
        # a few directions or none, as the features of new samples nearly
        # lie in the span of the old ones: 128 columns seen, under 32 kept
        kinds = [("zero",)] + [("tanh",)] * 4
        widths = []
        for t, q, seen in self.run(64, 32, kinds, seed=63):
            assert self.check_tile(q[0, 0], seen[0]) == q.shape[-1]
            widths.append(q.shape[-1])
        assert len(widths) == 5 and widths[0] == 0
        assert 0 < widths[1] == np.linalg.matrix_rank(seen[0][1]) < 32
        assert widths == sorted(widths) and widths[-1] < 32


class TestSpans:
    """Each tile group's factor pair (_spans) multiplies to every tile's
    gradient: band slices of the gradient's factors when they are narrower
    than both sides of the tile, else the tile itself times I."""

    @settings(max_examples=100, deadline=None)
    @given(
        tiling=uneven_tilings(),
        b=st.integers(1, 4),
        given_factors=st.lists(st.booleans(), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_pair_multiplies_to_each_tile(self, tiling, b, given_factors, seed):
        rows, cols, b_out, b_in = tiling
        c = cfg("shampoo", e_l=0.25, e_r=0.25, eps=1e-3, block_out=b_out, block_in=b_in)
        steps = len(given_factors)
        g_seq, f_seq = factored_gradients(np.random.default_rng(seed), (rows, cols), b, steps)
        state = LayerState()
        for g, factors, given_step in zip(g_seq, f_seq, given_factors):
            factors = factors if given_step else None
            state.factors = factors
            shampoo_step(state, g, c)
            for group, stacks in state.groups:
                gb = group.view(g)
                left, right = mupre.optim._spans(group, gb, factors)
                product = left @ right.swapaxes(-1, -2)
                if factors is not None and b < min(group.shape):
                    assert left.shape == (group.grid[0], 1, group.shape[0], b)
                    assert right.shape == (1, group.grid[1], group.shape[1], b)
                    gap = np.linalg.norm(product - gb, axis=(-2, -1))
                    assert np.all(gap <= FACTOR_PRODUCT_TOL * np.linalg.norm(gb, axis=(-2, -1)))
                    continue
                assert product.tobytes() == np.ascontiguousarray(gb).tobytes()
                # the side spanned by I is as wide as its size: never on the route
                (b_out, b_in), q_l, q_r = group.shape, stacks.q_l, stacks.q_r
                eye, n, q = (right, b_in, q_r) if b_out >= b_in else (left, b_out, q_l)
                assert np.array_equal(eye, np.eye(n)) and q is None


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
    def test_rules_clear_and_only_factor_readers_read(self, rule, graft_rule, monkeypatch):
        # a mismatched pair: any rule that read it would raise
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
    """Given the gradients' batch factors, each side of a Muon layer holds
    a basis of their numerical range until it fills the side, under
    Shampoo's rule (_range_basis). Muon keeps its momentum in whichever
    bases its sides hold, as the core Q_l^T m Q_r, Q_l^T m or m Q_r, and
    orthogonalizes that core; its update is the dense one up to round-off.
    With no basis held it orthogonalizes the dense momentum, still the
    dense update up to round-off, and a layer that never takes the route
    keeps the dense bits."""

    def test_matches_dense_route_across_the_cutoff(self):
        # n = 64 and B = 4: the left factor is zero at step 1, as a
        # zero-init readout makes fc2's, so the left basis holds 4 (t - 1)
        # columns and the right one 4 t. The right one fills the side at
        # step 16, which keeps the momentum as Q_l^T m, and the left one at
        # step 17, so that step and every one after it is dense
        c = cfg("muon")
        g_seq, f_seq = factored_gradients(np.random.default_rng(51), (64, 64), 4, 20, 1)
        route, dense, cores = LayerState(), LayerState(), []
        for t, (g, factors) in enumerate(zip(g_seq, f_seq), start=1):
            route.factors = factors
            got, want = muon_step(route, g, c), muon_step(dense, g, c)
            block = route.blocks[0]
            for q, width in ((block.q_l, 4 * t - 4), (block.q_r, 4 * t)):
                assert q is None if width >= 64 else q.shape == (64, width)
            cores.append(None if got.core is None else got.core.shape)
            assert close(got.update, want.update, 1e-12)
            assert abs(got.spec - want.spec) <= 1e-12 * want.spec
            assert abs(got.srank - want.srank) <= 1e-12 * want.srank
            assert close(route.m, dense.m, 1e-13)
        assert cores == [(4 * t - 4, 4 * t) for t in range(1, 16)] + [(60, 64)] + [None] * 4

    def test_lopsided_bases_stay_on_the_route(self):
        # the left factors share two directions and the right ones add 4 a
        # step: the left basis holds 2 columns throughout, and the right
        # one fills the side at step 16. From then on the left basis alone
        # holds the momentum, as the 2 x 64 core Q_l^T m
        c = cfg("muon")
        rng = np.random.default_rng(55)
        shared = rng.standard_normal((64, 2)) / 64.0
        route, dense = LayerState(), LayerState()
        for t in range(1, 21):
            left, right = shared @ rng.standard_normal((2, 4)), rng.standard_normal((64, 4))
            g = left @ right.T
            route.factors = (left, right)
            got, want = muon_step(route, g, c), muon_step(dense, g, c)
            q_l, q_r = route.blocks[0].q_l, route.blocks[0].q_r
            assert q_l.shape == (64, 2)
            if t < 16:
                assert got.core.shape == (2, 4 * t)
                assert np.allclose(q_r.T @ q_r, np.eye(4 * t), atol=1e-12)
            else:
                assert got.core.shape == (2, 64) and q_r is None
            assert close(got.update, want.update, 1e-12)
            assert abs(got.spec - want.spec) <= 1e-12 * want.spec

    def test_full_basis_stops_growing(self, monkeypatch):
        # the lopsided run above: the right basis would hold all 64 columns
        # at step 16, so it is released there and grows no more, while the
        # left one, of 2 columns, is grown at every step; no basis ever
        # holds a whole side
        grown = []
        new_directions = mupre.optim._new_directions
        monkeypatch.setattr(mupre.optim, "_new_directions",
                            lambda q, span: grown.append(q.shape[-2:]) or new_directions(q, span))
        c = cfg("muon")
        rng = np.random.default_rng(55)
        shared = rng.standard_normal((64, 2)) / 64.0
        state = LayerState()
        for t in range(1, 21):
            left, right = shared @ rng.standard_normal((2, 4)), rng.standard_normal((64, 4))
            state.factors = (left, right)
            report = muon_step(state, left @ right.T, c)
            assert report.core.shape == (2, min(4 * t, 64))
            assert (state.groups[0][1].q_r is None) == (t >= 16)
        # the left side grows at steps 1-20, the right one at steps 1-16
        assert [shape for shape in grown if shape[1] == 64] == []
        assert len(grown) == 20 + 16

    @pytest.mark.parametrize("beta1", [0.0, 0.95])
    def test_matches_dense_route_from_a_zero_left_span(self, beta1):
        # a 64 x 64 layer with batch 16 (entry cutoff 32): step 1 has a
        # width-0 left basis and a zero core, and the rank-deficient tanh
        # features keep the right basis narrow, so the route lasts at least
        # through step 3
        c = cfg("muon", beta1=beta1)
        g_seq, f_seq = mup_like_gradients(np.random.default_rng(64), (64, 64), 16, 10)
        route, dense, on_route = LayerState(), LayerState(), []
        for t, (g, factors) in enumerate(zip(g_seq, f_seq), start=1):
            route.factors = factors
            got, want = muon_step(route, g, c), muon_step(dense, g, c)
            if t == 1:
                assert got.core.shape == (0, np.linalg.matrix_rank(factors[1]))
                assert not np.any(got.update) and not np.any(want.update)
                continue
            assert close(got.update, want.update, 1e-12)
            assert abs(got.spec - want.spec) <= 1e-12 * want.spec
            on_route.append(got.core is not None)
        assert on_route[:2] == [True] * 2

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        b=st.integers(1, 4),
        beta1=st.sampled_from((0.0, 0.95)),
        seed=st.integers(0, 2**16),
    )
    def test_matches_dense_route(self, shape, b, beta1, seed):
        # the run lasts until both bases would hold their whole side, so
        # every example that takes the route leaves it by the last step.
        # Each step adds min(b, n_l, n_r) directions a side: b from the
        # factors, or the rank of the gradient, whose own columns span
        # the longer side when b >= min(n_l, n_r)
        c = cfg("muon", beta1=beta1)
        steps = -(-max(shape) // min(b, *shape)) + 1
        g_seq, f_seq = factored_gradients(np.random.default_rng(seed), shape, b, steps)
        route, dense = LayerState(), LayerState()
        for g, factors in zip(g_seq, f_seq):
            route.factors = factors
            got, want = muon_step(route, g, c), muon_step(dense, g, c)
            assert close(got.update, want.update, 1e-12)
            assert abs(got.spec - want.spec) <= 1e-12 * want.spec
        assert got.core is None

    @settings(max_examples=60, deadline=None)
    @given(
        small=st.integers(2, 12),
        extra=st.integers(1, 4),
        b=st.integers(1, 3),
        transpose=st.booleans(),
        beta1=st.sampled_from((0.0, 0.95)),
        seed=st.integers(0, 2**16),
    )
    def test_matches_dense_route_through_a_one_sided_stretch(
        self, small, extra, b, transpose, beta1, seed
    ):
        # both sides enter at step 1 and grow by b columns a step; the
        # larger side is extra steps' growth wider, so the smaller side's
        # basis is released first and the larger one alone holds the
        # momentum until it fills its side too
        b = min(b, small // 2)
        large = small + extra * b
        shape = (large, small) if transpose else (small, large)
        c = cfg("muon", beta1=beta1)
        steps = -(-large // b) + 1
        g_seq, f_seq = factored_gradients(np.random.default_rng(seed), shape, b, steps)
        route, dense, one_sided = LayerState(), LayerState(), 0
        for g, factors in zip(g_seq, f_seq):
            route.factors = factors
            got, want = muon_step(route, g, c), muon_step(dense, g, c)
            assert close(got.update, want.update, 1e-12)
            assert abs(got.spec - want.spec) <= 1e-12 * want.spec
            bases = (route.blocks[0].q_l, route.blocks[0].q_r)
            held = [q is not None for q in bases]
            if held == [transpose, not transpose]:
                one_sided += 1
                width = bases[0 if transpose else 1].shape[-1]
                assert got.core.shape == ((width, small) if transpose else (small, width))
            else:
                assert held in ([True, True], [False, False])
        assert one_sided >= 1 and got.core is None

    @pytest.mark.parametrize("shape", [(64, 1), (1, 64), (64, 7), (7, 64)])
    def test_narrow_layers_take_a_one_sided_route(self, shape):
        # the size-64 side takes the route, spanned by the gradient's one
        # column (d x 1, 1 x d: B = 4 is not below 1) or by the factors'
        # 4 columns (d x 7, 7 x d); the side of 1 or 7 is past its entry
        # cutoff from step 1, so the core keeps it whole
        c = cfg("muon")
        g_seq, f_seq = factored_gradients(np.random.default_rng(52), shape, 4, 4)
        route, dense = LayerState(), LayerState()
        long_side = 0 if shape[0] == 64 else 1
        for t, (g, factors) in enumerate(zip(g_seq, f_seq), start=1):
            route.factors = factors
            got, want = muon_step(route, g, c), muon_step(dense, g, c)
            bases = (route.blocks[0].q_l, route.blocks[0].q_r)
            width = t * min(4, min(shape))
            assert bases[1 - long_side] is None and bases[long_side].shape == (64, width)
            core = list(shape)
            core[long_side] = width
            assert got.core.shape == tuple(core)
            assert close(got.update, want.update, 1e-12)
            assert abs(got.spec - want.spec) <= 1e-12 * want.spec

    def test_hand_built_state_stays_dense(self):
        # a basis started at t > 1 would miss the earlier gradients
        rng = np.random.default_rng(53)
        c = cfg("muon")
        g_seq, f_seq = factored_gradients(rng, (40, 40), 2, 3)
        route = LayerState(t=3)
        route.m = rng.standard_normal((40, 40))
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
        # a zero left span gives a left basis of width 0 and a 0 x 2 core
        assert state.blocks[0].q_l.shape == (16, 0) and report.core.shape == (0, 2)
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


class TestExitRule:
    """A side leaves the range-basis route at the step its basis fills the
    side, one side at a time, for Shampoo and Muon alike."""

    @pytest.mark.parametrize("rule", ["shampoo", "muon"])
    def test_basis_is_released_at_the_step_it_fills_its_side(self, rule):
        # a 12 x 40 layer given batch-3 Gaussian factors: each side's basis
        # grows by 3 columns a step, so the 12-row side fills at step 4 and
        # the 40-column side at step 14
        c = cfg(rule, **({"e_l": 0.25, "e_r": 0.25} if rule == "shampoo" else {}))
        g_seq, f_seq = factored_gradients(np.random.default_rng(71), (12, 40), 3, 15)
        state = LayerState()
        for t, (g, factors) in enumerate(zip(g_seq, f_seq), start=1):
            state.factors = factors
            optimizer_step(state, g, c)
            ((_, stacks),) = state.groups
            for side, n in (("l", 12), ("r", 40)):
                q = getattr(stacks, "q_" + side)
                released = 3 * t >= n
                assert q is None if released else q.shape[-1] == 3 * t


class TestFirstMoment:
    """Every rule advances the first moment in place, and never aliases the
    gradient. Without range bases it has the bits of the textbook EMA
    beta1 m + (1 - beta1) g; a tile group whose sides hold bases keeps it
    rotated into them, and LayerState.m reads it back dense, the textbook
    EMA up to round-off."""

    @pytest.mark.parametrize("rule,kw,route", [
        ("sgd", {}, False), ("adam", {}, False), ("shampoo", {}, False),
        ("soap", {"e_l": 1.0, "e_r": 1.0}, False), ("muon", {}, False),
        # 6 x 2 and 6 x 1 tiles, whose left sides take the route
        ("shampoo", {"graft_rule": "adam", "block_in": 2}, True),
    ], ids=["sgd", "adam", "shampoo", "soap", "muon", "blocked-graft"])
    @pytest.mark.parametrize("beta1", [0.0, 0.9, 0.37])
    def test_bits_match_textbook_ema(self, rule, kw, route, beta1):
        rng = np.random.default_rng(31)
        c = cfg(rule, beta1=beta1, **kw)
        state, routed = LayerState(), False
        m = np.zeros((6, 5))
        for _ in range(6):
            g = rng.standard_normal((6, 5)) * 10.0 ** rng.uniform(-3, 3)
            kept = g.copy()
            optimizer_step(state, g, c)
            m = beta1 * m + (1.0 - beta1) * g
            routed |= any(stacks.m is not None for _, stacks in state.groups)
            if route:
                assert close(state.m, m, 1e-13)
            else:
                assert np.array_equal(state.m, m)
            assert np.array_equal(g, kept) and not np.shares_memory(state.m, g)
        assert routed == route

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        b=st.integers(1, 4),
        rule=st.sampled_from(("shampoo", "muon")),
        sides=st.sampled_from(((0.25, 0.25), (0.25, 0.0), (0.0, 0.25))),
        blocked=st.booleans(),
        beta1=st.sampled_from((0.0, 0.9)),
        zero_left_until=st.integers(0, 2),
        bare_step=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_rotated_moment_expands_to_dense_ema(
        self, shape, b, rule, sides, blocked, beta1, zero_left_until, bare_step, seed
    ):
        # the run ends two steps past the last step a basis, growing by at
        # least one direction a step, could fill its side, so groups enter
        # the route at step 1, grow, and leave it;
        # zero left factors give left bases of width 0, a Shampoo side with
        # e = 0 keeps no basis, so the moment is rotated on one side only,
        # and step bare_step (if any) takes the tile as its own
        # factorization
        kw = dict(beta1=beta1)
        if rule == "shampoo":
            half = -(-shape[1] // 2) if blocked else None
            kw.update(e_l=sides[0], e_r=sides[1], eps=1e-3, block_in=half)
        c = cfg(rule, **kw)
        steps = max(shape) + zero_left_until + 2
        g_seq, f_seq = factored_gradients(
            np.random.default_rng(seed), shape, b, steps, zero_left_until
        )
        if bare_step:
            f_seq[min(bare_step, steps) - 1] = None
        state, m, read = LayerState(), np.zeros(shape), None
        for g, factors in zip(g_seq, f_seq):
            state.factors = factors
            optimizer_step(state, g, c)
            m = beta1 * m + (1.0 - beta1) * g
            # LayerState.m reads back dense, always into the same array
            assert np.linalg.norm(state.m - m) <= 1e-13 * np.linalg.norm(m)
            assert read is None or state.m is read
            read = state.m
        assert all(stacks.m is None for _, stacks in state.groups)

    def test_grafted_blocked_shampoo_keeps_one_dense_moment(self):
        # the Adam graft reads the dense m every step; the layer keeps one
        # array for it, and its route groups write their part into it. The
        # 8 x 8 and 8 x 4 tiles' sides take the route through step 3
        c = cfg("shampoo", e_l=0.25, e_r=0.25, graft_rule="adam", block_out=8, block_in=8)
        g_seq, f_seq = factored_gradients(np.random.default_rng(38), (24, 20), 2, 6)
        state, first, m, routed = LayerState(), None, np.zeros((24, 20)), []
        for g, factors in zip(g_seq, f_seq):
            state.factors = factors
            optimizer_step(state, g, c)
            m = c.beta1 * m + (1.0 - c.beta1) * g
            first = state.m if first is None else first
            assert state.m is first and close(state.m, m, 1e-13)
            routed.append(all(stacks.m is not None for _, stacks in state.groups))
        assert routed == [True] * 3 + [False] * 3

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
    """The factor stacks go to sym_eig_stack as they are, so every step must
    leave them exactly symmetric: the dense EMAs, the factors compressed to
    a range basis, and the dense factors LayerState.blocks expands from
    those."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        blocks=st.tuples(st.integers(1, 16), st.integers(1, 16)),
        rule=st.sampled_from(("shampoo", "soap")),
        b=st.integers(0, 3),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_factor_stacks_stay_exactly_symmetric(self, shape, blocks, rule, b, log_scale, seed):
        # b > 0 hands Shampoo the gradients' factors of b columns
        c = cfg(rule, block_out=blocks[0], block_in=blocks[1], **RULE_KW.get(rule, {}))
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        if b:
            g_seq, f_seq = factored_gradients(rng, shape, b, 4)
            f_seq = [(scale * left, right) for left, right in f_seq]
        else:
            g_seq, f_seq = [rng.standard_normal(shape) for _ in range(4)], [None] * 4
        state = LayerState()
        for g, factors in zip(g_seq, f_seq):
            state.factors = factors
            optimizer_step(state, scale * g, c)
        for _, stacks in state.groups:
            for acc in (stacks.l, stacks.r):
                assert np.array_equal(acc, acc.swapaxes(-1, -2))
        for block in state.blocks:
            for acc in (block.l, block.r):
                assert np.array_equal(acc, acc.T)


class TestBlocking:
    def test_none_is_full_extent_and_large_blocks_clamp(self):
        assert BlockPartition(7, 5) == BlockPartition(7, 5, 7, 5) == BlockPartition(7, 5, 70, 9)
        part = BlockPartition(7, 5, None, 2)
        assert (part.b_out, part.b_in, part.col_spans) == (7, 2, [(0, 2), (2, 4), (4, 5)])
        assert block_partition((7, 5), 70, None) == BlockPartition(7, 5)

    def test_partition_counts_and_trailing_blocks(self):
        part = block_partition((70, 33), b_out=32, b_in=32)
        assert (part.n_out, part.n_in) == (3, 2)
        shapes = {grp.shape: grp.indices for grp in part.groups()}
        assert shapes[(32, 32)] == (0, 2)
        assert shapes[(32, 1)] == (1, 3)  # trailing column block keeps real width
        assert shapes[(6, 32)] == (4,)
        assert shapes[(6, 1)] == (5,)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(15)
        g = rng.standard_normal((37, 21))
        part = block_partition(g.shape, 8, 5)
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
        # the exact rescale, by the dense sigma, that the online estimate
        # stands in for
        rng = np.random.default_rng(19)
        u = rng.standard_normal((6, 4))
        out = (np.sqrt(6 / 4) / spectral_norm_exact(u)) * u
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
