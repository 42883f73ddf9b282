"""Optimizer update rules and their supporting machinery.

Each step function consumes the running per-layer state and a raw gradient
and returns an UpdateReport holding the preconditioned update direction
(learning rate NOT applied; the trainer owns learning rates, weight decay
and residual multipliers). Steps mutate the passed LayerState in place and
are deterministic: identical (state, gradient, config) gives identical
output.

Conventions shared by every rule:
  - first moment  m_t = beta1 m_{t-1} + (1 - beta1) g_t, bias-corrected
    by 1 / (1 - beta1^t) where the rule calls for it
  - second-moment EMAs use beta2 the same way
  - blocking partitions the gradient into independent b_out x b_in tiles,
    trailing tiles at their natural (smaller) size
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .config import WD_MODES, OptimizerConfig
from .linalg import (
    EigDecomp,
    Matrix,
    PowerIterState,
    as_matrix,
    newton_schulz,
    power_iter_step,
    shifted_powers,
    spectral_norm_exact,
    sym_eig_stack,
)
from .scaling import BlockPartition, TileGroup

# A side of size n enters the range-basis route at step 1 when its first
# spanning set has at most this fraction of n columns, for Shampoo and
# Muon alike (_range_basis); a wider set would fill the side's basis within
# a step or two. Once on the route, a side stays until its basis fills the
# side. Timed with one BLAS thread on a 2-vCPU Xeon, one Shampoo step of a
# 512 x 512 layer given B = 32 factors, both bases square and grown by 32
# columns to r, best of 7: the route, with its compressed factors and
# r x r core, took 46 ms at r = 0.5 n against 115 ms for the dense step,
# and breaks even near 0.9 n (106 ms at r = 0.875 n, 131 ms at r = 0.94 n).
RANGE_BASIS_MAX_FRACTION = 0.5

# Largest relative Frobenius gap between a gradient and the product of the
# factors given with it (_take_factors).
FACTOR_PRODUCT_TOL = 1e-12


class UpdateReport:
    """An update direction plus its norm statistics.

    frob is computed eagerly from the update; the exact spectral norm and
    the stable rank frob^2 / spec^2 are computed on first access (they need
    a Gram matrix's eigenvalues, which per-step callers may not want). srank
    is defined as 0 for an all-zero update.

    core, when given, is a smaller matrix with the update's singular values,
    such as C in update = Q_l C Q_r^T with orthonormal Q_l and Q_r, or
    Q_l C or C Q_r^T when one side holds a basis (the range-basis route of
    Muon and of a one-tile Shampoo layer, whose sides hold bases on their
    own); spec then takes the Gram of the core instead of the update's.
    """

    def __init__(self, update: Matrix, core: Matrix | None = None):
        self.update = update
        self.core = core
        self.frob = float(np.linalg.norm(update))

    @cached_property
    def spec(self) -> float:
        if self.frob == 0.0:
            return 0.0
        return spectral_norm_exact(self.update if self.core is None else self.core)

    @cached_property
    def srank(self) -> float:
        if self.spec == 0.0:
            return 0.0
        return self.frob**2 / self.spec**2


@dataclass
class BlockState:
    """Optimizer state of a tile group, each field a stack shaped (tiles
    down, tiles across, rows, cols), or of one tile, each field that tile's
    matrix (LayerState.blocks).

    For SOAP, l and r are the dense EMAs of G G^T and G^T G, q_l and q_r
    hold their eigenbases, and v is the second moment in the rotated
    space. For Shampoo and Muon, q_l or q_r holds an orthonormal basis Q
    of the numerical range of the spanning sets seen on that side (that
    side's factor of the step's pair; see _spans), while the side takes
    the range-basis route, and is None after it; each side enters and
    leaves on its own (_range_basis), and a basis that fills its side is
    released. A basis spanned by band slices is held once per band,
    (tiles down, 1, rows, r) for q_l and (1, tiles across, cols, r) for
    q_r. A tile or band that needs fewer columns than its group's widest
    holds zero columns in their place, and a zero span gives a basis of
    width 0. While a Shampoo side holds a basis, its l or r is the EMA
    compressed to it, S = Q^T A Q, r x r for Q's r columns; otherwise it
    is the dense n x n EMA A. A side with exponent 0 keeps no factor or
    basis. Muon keeps no factor, only the bases of its one whole-matrix
    tile.

    While either side of a Shampoo or Muon group holds a basis, m is the
    group's first moment rotated into the bases, C = Q_l^T m Q_r, with a
    side without a basis left as it is: r_l x r_r, r_l x n_r or n_l x r_r.
    Otherwise m is None and the group's first moment is its part of the
    layer's dense one. A field is None until its first use. Each array
    held in a range basis follows its bases from step to step by _rebase.
    """

    l: Matrix | None = None
    r: Matrix | None = None
    q_l: Matrix | None = None
    q_r: Matrix | None = None
    v: Matrix | None = None
    m: Matrix | None = None


@dataclass
class LayerState:
    """Mutable per-layer optimizer state shared by all rules.

    t counts completed steps. m/v are full-matrix first/second moments
    (v doubles as the graft reference's second moment). groups holds the
    factor state of shampoo/soap, and muon's range bases: for each tile
    group of the layer's partition, one BlockState of stacks, which a step
    updates in place.

    A tile group whose sides hold range bases keeps its first moment
    rotated into them, in its BlockState's m, and leaves its part of the
    dense array alone; reading m writes each such group's Q_l C Q_r^T into
    its part and returns the dense array, the same object from step to
    step, allocated on first use. Assigning m replaces the whole first
    moment: the groups' rotated moments are dropped, and a group still on
    the route rotates the new one into its bases at its next step.

    factors is an optional pair (left, right) with left d_out x B, right
    d_in x B and the next gradient equal to left @ right.T, set by the
    trainer right before a step. Shampoo and Muon take their row slices as
    the spanning sets of their range-basis routes; every rule clears the
    field, and a step without factors takes each tile as its own
    factorization (_spans).
    """

    t: int = 0
    v: Matrix | None = None
    groups: list[tuple[TileGroup, BlockState]] = field(default_factory=list)
    factors: tuple[Matrix, Matrix] | None = None
    _m: Matrix | None = field(default=None, init=False, repr=False)

    @property
    def m(self) -> Matrix | None:
        """The layer's dense first moment."""
        for group, stacks in self.groups:
            if stacks.m is not None:
                if self._m is None:
                    self._m = np.zeros(_extent(self.groups))
                _rebase(stacks.m, (stacks.q_l, stacks.q_r), (None, None), group.shape,
                        "first moment", out=group.view(self._m))
        return self._m

    @m.setter
    def m(self, m: Matrix | None) -> None:
        for _, stacks in self.groups:
            stacks.m = None
        self._m = m

    @property
    def blocks(self) -> list[BlockState]:
        """Each tile's view of its group's stacks, in row-major tile order;
        empty before the first shampoo/soap step. A basis held once per
        band is broadcast to the band's tiles. Arrays held in a range
        basis are given dense, as new arrays: a compressed Shampoo factor as
        Q S Q^T (_factor), so every tile's l and r are n x n EMAs, and a
        rotated first moment as Q_l C Q_r^T, the tile's part of the layer's
        m. A SOAP eigenbasis is as wide as its side, and its factors are
        dense already."""
        tiles = {}
        for group, stacks in self.groups:
            bases = [None if q is None or q.shape[-1] == n else q
                     for q, n in zip((stacks.q_l, stacks.q_r), group.shape)]
            dense = {side: _factor(getattr(stacks, side), q, None, n, f"factor on side {side!r}")
                     for side, q, n in zip("lr", bases, group.shape)}
            if stacks.m is not None:
                dense["m"] = _rebase(stacks.m, bases, (None, None), group.shape, "first moment")
            arrays = (dense.get(f.name, getattr(stacks, f.name)) for f in fields(BlockState))
            arrays = [None if a is None else np.broadcast_to(a, group.grid + a.shape[2:])
                      for a in arrays]
            for k, i in enumerate(group.indices):
                at = divmod(k, group.grid[1])
                tiles[i] = BlockState(*(None if a is None else a[at] for a in arrays))
        return [tiles[i] for i in sorted(tiles)]


def _extent(groups: list[tuple[TileGroup, BlockState]]) -> tuple[int, int]:
    """Rows and columns of the matrix the tile groups cover."""
    return (max(g.row + g.grid[0] * g.shape[0] for g, _ in groups),
            max(g.col + g.grid[1] * g.shape[1] for g, _ in groups))


def block_partition(shape: tuple[int, int], b_out: int | None, b_in: int | None) -> BlockPartition:
    """Partition covering a matrix of this shape; a missing block size means
    one full-extent tile."""
    return BlockPartition(*shape, b_out, b_in)


def _bias_correction(beta: float, t: int) -> float:
    # beta = 0 gives 1 - 0^t = 1: no correction needed or applied.
    return 1.0 - beta**t


def _update_first_moment(state: LayerState, g: Matrix, beta1: float) -> Matrix:
    """Advance m, the EMA of g, in place and return it."""
    if state._m is None:
        state._m = np.zeros_like(g)
    state._m *= beta1
    state._m += (1.0 - beta1) * g
    return state._m


def _adam_ratio(m_hat: Matrix, v_hat: Matrix, eps: float) -> Matrix:
    """Entrywise m_hat / (sqrt(v_hat) + eps), computed in place: both inputs
    are fresh arrays the caller gives up, and the result is m_hat.

    Entries with a zero denominator necessarily have a zero numerator (the
    second moment majorizes the first along the history), so they map to 0.
    """
    denom = np.sqrt(v_hat, out=v_hat)
    denom += eps
    zero = ~(denom > 0.0)
    denom[zero] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        m_hat /= denom
    m_hat[zero] = 0.0
    return m_hat


def _adam_update(state: LayerState, x: Matrix, cfg: OptimizerConfig, eps: float) -> Matrix:
    """Advance v, the EMA of x * x, and return m^ / (sqrt(v^) + eps) from
    it and state.m, which the caller has advanced to step state.t. An
    entry with a zero history gets a +0.0 update, also at eps = 0."""
    if state.v is None:
        state.v = np.zeros_like(x)
    state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (x * x)
    v_hat = state.v / _bias_correction(cfg.beta2, state.t)
    return _adam_ratio(state.m / _bias_correction(cfg.beta1, state.t), v_hat, eps)


def adam_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Bias-corrected Adam: m^ / (sqrt(v^) + eps)."""
    g = as_matrix(g, "gradient")
    state.t += 1
    _update_first_moment(state, g, cfg.beta1)
    return UpdateReport(_adam_update(state, g, cfg, cfg.eps))


def sgd_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Momentum SGD; the update is the bias-corrected first moment."""
    g = as_matrix(g, "gradient")
    state.t += 1
    m = _update_first_moment(state, g, cfg.beta1)
    return UpdateReport(m / _bias_correction(cfg.beta1, state.t))


def _group_states(state: LayerState, part: BlockPartition) -> list[tuple[TileGroup, BlockState]]:
    """The state's tile groups with their stacks, created empty on first use."""
    groups = part.groups()
    if not state.groups:
        state.groups = [(group, BlockState()) for group in groups]
    elif [group for group, _ in state.groups] != groups:
        raise ValueError("layer state was created for a different block partition")
    return state.groups


def _factor_ema(stacks: BlockState, side: str, root: np.ndarray, beta2: float) -> np.ndarray:
    """Advance the group's factor stack on one side in place and return it:
    acc <- beta2 acc + (1 - beta2) K K^T for the stack K = root, such as G
    on side "l" and G^T on side "r".

    NumPy forms K K^T with a symmetric rank-k update that mirrors one
    triangle, and the EMA scales and adds entrywise, so the stack stays
    exactly symmetric: it goes to sym_eig_stack as it is.
    """
    gram = root @ root.swapaxes(-1, -2)
    acc = getattr(stacks, side)
    if acc is None:
        acc = np.zeros(gram.shape)
        setattr(stacks, side, acc)
    acc *= beta2
    gram *= 1.0 - beta2
    acc += gram
    return acc


Bases = tuple[np.ndarray | None, np.ndarray | None]


def _rebase(
    x: np.ndarray, now: Bases, nxt: Bases, shape: tuple[int, int], what: str,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The stack x, held with its rows in the basis now[0] and its columns
    in now[1], expressed in the bases nxt instead; None is the coordinate
    basis of an axis of the extent in shape. The result is written into
    out when it is given.

    Per axis, a basis that goes expands x (Q x on the rows, x Q^T on the
    columns), and a new one rotates x in (Q^T x, x Q). A basis that grew
    pads x with zeros, after the products: this is exact, since x lies in
    the old range and the grown basis begins with the old columns. x
    itself comes back when no axis changes, so an EMA can advance it in
    place. An x that does not fit now raises ValueError naming what.
    """
    widths = (shape[0] if now[0] is None else now[0].shape[-1],
              shape[1] if now[1] is None else now[1].shape[-1])
    if x.shape[-2:] != widths:
        raise ValueError(
            f"layer state's {what} is {x.shape[-2]}x{x.shape[-1]} where the step expects "
            f"{widths[0]}x{widths[1]}; state kept in range bases needs those bases"
        )
    products, grows = [], False
    for axis in (0, 1):
        q, q_nxt = now[axis], nxt[axis]
        if q is not None and q_nxt is not None:
            grows |= q_nxt.shape[-1] != q.shape[-1]
        elif q is not None or q_nxt is not None:
            # x becomes p x on the rows and x p^T on the columns, for p = Q
            # to expand and p = Q^T to rotate in
            products.append((axis, q if q_nxt is None else q_nxt.swapaxes(-1, -2)))
    for i, (axis, p) in enumerate(products):
        dest = out if i == len(products) - 1 and not grows else None
        x = np.matmul(p, x, out=dest) if axis == 0 else np.matmul(x, p.swapaxes(-1, -2), out=dest)
    if grows:
        size = tuple(w if q is None else q.shape[-1] for w, q in zip(x.shape[-2:], nxt))
        grown = np.zeros(x.shape[:-2] + size)
        grown[..., :x.shape[-2], :x.shape[-1]] = x
        x = grown
    if out is None or x is out:
        return x
    out[...] = x
    return out


def _factor(
    acc: np.ndarray | None, now: np.ndarray | None, nxt: np.ndarray | None, n: int, what: str
) -> np.ndarray | None:
    """The factor stack acc of a side of size n, held in the basis now, in
    the basis nxt (_rebase); an expansion Q S Q^T is made exactly
    symmetric."""
    if acc is None:
        return None
    a = _rebase(acc, (now, now), (nxt, nxt), (n, n), what)
    if now is not None and nxt is None:
        a = (a + a.swapaxes(-1, -2)) / 2.0
    return a


def _shifts(dec: EigDecomp, eps: float, eps_mode: str) -> tuple[np.ndarray | float, np.ndarray]:
    """The shift eps' of each bias-corrected factor of a stack, from its
    decomposition (ascending, so the top eigenvalue is the last), and the
    mask of factors whose tile update is zero.

    In absolute mode eps' = eps and the mask is all False. In relative mode
    eps' is eps times the factor's top eigenvalue, and a top eigenvalue
    <= 0 (a zero factor) has no relative shift: the mask marks the tile,
    whose update is zero, and its root takes eps' = 1 only to keep the
    stack off the singular check. An empty decomposition, of a range
    basis of width 0, is that of a zero factor.
    """
    zero = np.zeros(dec.eigenvalues.shape[:-1], dtype=bool)
    if eps_mode == "relative":
        top = dec.eigenvalues[..., -1] if dec.eigenvalues.shape[-1] else np.zeros(zero.shape)
        zero = top <= 0.0
        eps = np.where(zero, 1.0, eps * top)
    return eps, zero


def _take_factors(
    state: LayerState, g: Matrix, scratch: Matrix
) -> tuple[Matrix, Matrix] | None:
    """Clear the state's gradient factors and return them checked against g.

    Factors that are not two matrices of g's row and column counts with
    one common positive column count, or whose product is further than
    FACTOR_PRODUCT_TOL from g in relative Frobenius norm, raise ValueError;
    non-finite factors raise NonFiniteError. The check overwrites scratch,
    an array of g's shape, so it allocates no g-sized temporary.
    """
    factors, state.factors = state.factors, None
    if factors is None:
        return None
    left, right = factors
    left = as_matrix(left, "left gradient factor")
    right = as_matrix(right, "right gradient factor")
    if (left.shape[0], right.shape[0]) != g.shape or not 0 < left.shape[1] == right.shape[1]:
        raise ValueError(
            f"gradient factors {left.shape} and {right.shape} do not factor a "
            f"{g.shape} gradient"
        )
    gap = np.matmul(left, right.T, out=scratch)
    gap -= g
    # a NaN gap fails the comparison too
    if not float(np.linalg.norm(gap)) <= FACTOR_PRODUCT_TOL * float(np.linalg.norm(g)):
        raise ValueError("gradient factors do not multiply to the gradient")
    return left, right


Pair = tuple[np.ndarray, np.ndarray]


def _spans(group: TileGroup, gb: np.ndarray, factors: tuple[Matrix, Matrix] | None) -> Pair:
    """One factor pair (L, R) of the group's gradient stack gb, with
    G = L R^T on every tile; L spans side "l" and R side "r".

    When the gradient's factors have fewer columns B than both sides of
    the tile, the pair is their band slices: left's rows of each row band,
    shaped (tiles down, 1, rows, B), and right's rows of each column band,
    shaped (1, tiles across, cols, B), so each band's basis is grown once.
    Otherwise, or without factors, the tile is its own factorization:
    G = G I for a tile at least as tall as it is wide, else G = I G. A
    side spanned by I has as many columns as it is wide, so it is dense.
    """
    (n_down, n_across), (b_out, b_in) = group.grid, group.shape
    b = 0 if factors is None else factors[0].shape[1]
    if 0 < b < min(b_out, b_in):
        left, right = factors
        return (left[group.row:group.row + n_down * b_out].reshape(n_down, 1, b_out, b),
                right[group.col:group.col + n_across * b_in].reshape(1, n_across, b_in, b))
    if b_out >= b_in:
        return gb, np.eye(b_in)
    return np.eye(b_out), gb.swapaxes(-1, -2)


def _new_directions(q: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Orthonormal directions that extend the basis stack q to hold each
    tile's spanning set, as a stack of the largest count over the tiles:
    a tile with fewer holds zero columns after its own.

    The span is projected out of q twice (block classical Gram-Schmidt
    with one reorthogonalization) and the remainder is factored as a thin
    QR whose R has the SVD U S V^T. The directions kept are those of the
    singular values above max(n, b) eps sigma_max(span), the default
    tolerance of numpy.linalg.matrix_rank, for n x b spans; what is
    dropped is round-off, or a span's part in q. The kept directions are
    projected out of q once more and re-orthonormalized by a thin QR.
    """
    n, b = span.shape[-2:]
    qt = q.swapaxes(-1, -2)
    rem = span - q @ (qt @ span)
    rem -= q @ (qt @ rem)
    rem_q, rem_r = np.linalg.qr(rem)
    u, s, _ = np.linalg.svd(rem_r, full_matrices=False)
    top = np.linalg.svd(span, compute_uv=False)[..., :1]
    keep = s > max(n, b) * np.finfo(float).eps * top
    count = int(keep.sum(axis=-1).max())
    keep = keep[..., np.newaxis, :count]
    d = np.where(keep, rem_q @ u[..., :count], 0.0)
    d -= q @ (qt @ d)
    # a QR's column j depends on columns 0..j only: zero columns after a
    # tile's kept ones leave those alone and are zeroed again after
    return np.where(keep, np.linalg.qr(d).Q, 0.0)


def _gram_root(pair: Pair, side: str) -> np.ndarray:
    """A stack X with X X^T equal to each tile's G G^T on side "l" and G^T G
    on side "r", from the group's factor pair G = L R^T (_spans): with the
    thin QR R = U T of the other side's factor, X = L T^T on side "l", and
    X = R T^T for L = U T on side "r"."""
    span, other = pair if side == "l" else pair[::-1]
    return span @ np.linalg.qr(other, mode="r").swapaxes(-1, -2)


def _range_basis(
    stacks: BlockState, side: str, span: np.ndarray, t: int
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The group's orthonormal basis stack for one side before and after
    step t grows it: after is None when the side takes the dense route,
    and before is None when the side held no basis to grow, as it took the
    dense route at step t - 1 or takes it from step 1.

    The basis, kept in the side's q stack, holds the numerical range of
    the spanning sets seen so far on a side of size n (_spans), one per
    band for band slices. Each step appends, as a new array, the
    directions of the step's set that it lacks (_new_directions) after its
    columns, so a zero set adds none and a rank-deficient one adds its
    numerical rank; a band's basis is broadcast to its tiles when the set
    is per tile. A side enters the route at step 1, from a basis of width
    0, when its spanning set has at most floor(RANGE_BASIS_MAX_FRACTION n)
    columns, and stays on it until the basis fills the side, n columns
    wide. Then the basis is
    released and the side takes the dense route, as it does for a state
    that holds no basis after step 1 (one built by hand), since a basis
    started late would miss the earlier gradients. Each side follows this
    rule on its own, for Shampoo and Muon alike, so one side can hold a
    basis while the other is dense.

    While the side stays on the route, before is a view of after's first
    columns, so the old array is not held beside the step's arrays; a
    released basis comes back as before, as it was held, to expand with.
    """
    name = "q_" + side
    n = span.shape[-2]
    held = getattr(stacks, name) if t > 1 else None
    if t == 1 and span.shape[-1] <= int(RANGE_BASIS_MAX_FRACTION * n):
        held = np.empty(span.shape[:-1] + (0,))
    q = held
    if q is not None:
        d = _new_directions(q, span)
        q = np.concatenate((np.broadcast_to(q, d.shape[:-1] + q.shape[-1:]), d), axis=-1)
        if q.shape[-1] >= n:
            q = None
        else:
            held = q[..., :held.shape[-1]]
    setattr(stacks, name, q)
    return held, q


def _advance_factor(
    stacks: BlockState, side: str, n: int, root: np.ndarray,
    now: np.ndarray | None, nxt: np.ndarray | None, beta2: float,
) -> np.ndarray:
    """Advance the group's factor EMA on one side of size n in place and
    return its stack, given the step's Gram root (_gram_root) and the
    side's basis before and after this step's growth (_range_basis).

    The stack held follows the basis (_factor): on the route it is the
    compression S = Q^T A Q, padded when the basis grows and advanced by
    K K^T for K = Q^T X; a side that leaves the route expands it once to
    the dense Q S Q^T, and a dense side advances by X X^T.
    """
    setattr(stacks, side, _factor(getattr(stacks, side), now, nxt, n, f"factor on side {side!r}"))
    if nxt is not None:
        root = nxt.swapaxes(-1, -2) @ root
    return _factor_ema(stacks, side, root, beta2)


def _rotated_gradient(bases: Bases, pair: Pair) -> np.ndarray:
    """Q_l^T G Q_r of each tile, skipping a side without a basis, from the
    group's factor pair (_spans) as (Q_l^T L)(Q_r^T R)^T."""
    left, right = pair
    q_l, q_r = bases
    if q_l is not None:
        left = q_l.swapaxes(-1, -2) @ left
    if q_r is not None:
        right = q_r.swapaxes(-1, -2) @ right
    return left @ right.swapaxes(-1, -2)


def _advance_moment(
    state: LayerState, group: TileGroup, stacks: BlockState, g: Matrix,
    now: Bases, nxt: Bases, pair: Pair, beta1: float,
) -> np.ndarray:
    """Advance the group's first moment in place and return its stack in
    the bases nxt (q_l, q_r) that the sides hold after this step's growth,
    given those they held before it, now, and the step's factor pair
    (_spans).

    A group with no basis in nxt keeps its moment in its view of the
    layer's dense m, advanced by beta1 m + (1 - beta1) G entrywise, with
    the textbook EMA's bits; a group whose last basis went this step
    writes its expanded C there first. Otherwise the moment is the stack C
    in BlockState.m, Q_l^T m Q_r with a side without a basis left as it
    is, carried from now to nxt (_rebase) and advanced by beta1 C +
    (1 - beta1) Q_l^T G Q_r (_rotated_gradient). A group that holds no C
    on the route, such as at step 1, rotates its part of the dense m into
    the bases, or starts from zero. A C that does not fit now raises
    ValueError.
    """
    gb = group.view(g)
    dense = nxt[0] is None and nxt[1] is None
    c = stacks.m
    if c is not None:
        c = _rebase(c, now, nxt, group.shape, "first moment")
    elif not dense and state._m is not None:
        c = _rebase(group.view(state._m), (None, None), nxt, group.shape, "first moment")
    if dense:
        stacks.m = None
        if state._m is None:
            state._m = np.zeros_like(g)
        moment = group.view(state._m)
        if c is not None:
            moment[...] = c
    else:
        if c is None:
            c = np.zeros(gb.shape[:-2] + tuple(
                n if q is None else q.shape[-1] for n, q in zip(group.shape, nxt)))
        moment = stacks.m = c
        gb = _rotated_gradient(nxt, pair)
    del c
    moment *= beta1
    moment += (1.0 - beta1) * gb
    return moment


def _precondition(
    accs: dict[str, np.ndarray], bases: dict[str, np.ndarray | None], moment: np.ndarray,
    corr1: float, corr2: float, cfg: OptimizerConfig, out: np.ndarray,
) -> np.ndarray:
    """Write (L + eps_l' I)^(-e_l) M (R + eps_r' I)^(-e_r) for the group's
    update stack M = moment / corr1 into out, the group's view of the
    update, and return it in the bases the sides hold. moment is the
    group's first moment rotated into those bases as Q_l^T m Q_r
    (_advance_moment), and is only read. L = accs["l"] / corr2 and
    R = accs["r"] / corr2; a side missing from accs (e = 0) is the
    identity, so with no side out gets M. A tile with a zero factor gets a
    zero update (_shifts).

    Each side's factor EMA is decomposed as it stands, V diag(lam) V^T,
    and its root applied inside that eigenbasis: V (p * V^T M) on the left
    and (M V * p) V^T on the right, for p = (lam / corr2 + eps')^(-e)
    (shifted_powers), with 1 / corr1 folded into the first side's p. No
    factor, moment, decomposition or root is copied. When no side holds a
    basis, each product is written into out, which is returned; otherwise
    the result, in the bases, is expanded into out (_rebase) and returned.

    A side that holds a range basis Q (_range_basis) has the compressed
    factor S = Q^T A Q, r x r for Q's r columns; a dense side's factor is
    n x n. This is exact: M's columns lie in Q_l's range and its rows in
    Q_r's, as every gradient's do, and the root leaves that range
    invariant. On Q's complement, which is never empty, the root is
    eps'^(-e), so a zero shift on a route side is singular and raises
    numpy.linalg.LinAlgError, as a dense factor with a zero eigenvalue
    does. Each side's decomposition is released before the next side's is
    formed.
    """
    if not accs:
        return np.divide(moment, corr1, out=out)
    dest = out if all(q is None for q in bases.values()) else None
    zero = np.zeros(moment.shape[:-2], dtype=bool)
    rot = moment
    for i, (side, acc) in enumerate(accs.items()):
        dec = sym_eig_stack(acc)
        dec.eigenvalues /= corr2
        eps, zero_side = _shifts(dec, cfg.eps, cfg.eps_mode)
        if bases[side] is not None and np.any(np.asarray(eps) == 0.0):
            raise np.linalg.LinAlgError(
                f"inverse root on side {side!r} is singular: zero shift on a range basis's complement"
            )
        p = shifted_powers(dec.eigenvalues, getattr(cfg, "e_" + side), eps)
        if i == 0:
            p /= corr1
        v = dec.eigenvectors
        if side == "l":
            t = v.swapaxes(-1, -2) @ rot
            t *= p[..., np.newaxis]
            rot = np.matmul(v, t, out=dest)
        else:
            t = rot @ v
            t *= p[..., np.newaxis, :]
            rot = np.matmul(t, v.swapaxes(-1, -2), out=dest)
        del dec, v, t
        zero |= zero_side
    rot[zero] = 0.0
    if dest is None:
        _rebase(rot, (bases.get("l"), bases.get("r")), (None, None), out.shape[-2:], "update",
                out=out)
    return rot


def shampoo_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Two-sided inverse-power preconditioning of the first moment.

    Per tile: L += GG^T and R += G^T G EMAs (beta2, bias-corrected), then
    update = (L^ + eps I)^(-e_l) M (R^ + eps I)^(-e_r). In relative mode the
    eps shift for each factor is eps times that factor's top eigenvalue,
    and a tile with a zero factor (e > 0) gets a zero update. A side with
    e = 0 is the identity and keeps no factor. The tiles of one shape go
    through every stage as one stack. A factor side whose gradients have a
    numerical rank well below its size takes the range-basis route: its
    factor is kept and decomposed inside a basis of their numerical range
    (_range_basis), which grows by at most B columns a step when the
    state's gradient factors are given, and by none for a zero gradient,
    until it fills the side. The first moment of a group whose sides hold
    bases is kept rotated into them (_advance_moment), and the update is
    preconditioned in that rotation (_precondition) and expanded into the
    update (_rebase). A basis of width 0 holds a zero factor, and its tile's
    update is zero. When the layer is one tile and a side holds a basis,
    the report keeps the preconditioned moment in the bases as its core.
    """
    g = as_matrix(g, "gradient")
    out = np.empty_like(g)  # every tile group fills its part below
    factors = _take_factors(state, g, out)
    state.t += 1
    part = block_partition(g.shape, cfg.block_out, cfg.block_in)
    corr1 = _bias_correction(cfg.beta1, state.t)
    corr2 = _bias_correction(cfg.beta2, state.t)
    core = None
    for group, stacks in _group_states(state, part):
        gb = group.view(g)
        pair = _spans(group, gb, factors)
        # every side's basis first, then the first moment and the factors,
        # so a side that leaves the route releases its basis before any
        # dense decomposition of this step; e == 0 is the exact identity:
        # that side is skipped
        now, bases = {}, {}
        for side, span in zip("lr", pair):
            if getattr(cfg, "e_" + side) != 0.0:
                now[side], bases[side] = _range_basis(stacks, side, span, state.t)
        nxt = (bases.get("l"), bases.get("r"))
        moment = _advance_moment(state, group, stacks, g, (now.get("l"), now.get("r")), nxt,
                                 pair, cfg.beta1)
        accs = {}
        for side, q in bases.items():
            own = gb if side == "l" else gb.swapaxes(-1, -2)
            # a dense side advances by the tile's own Gram, with or without
            # factors, so its bits do not depend on them
            root = own if q is None else _gram_root(pair, side)
            accs[side] = _advance_factor(stacks, side, own.shape[-2], root, now[side], q, cfg.beta2)
        del now  # the bases before growth, not alive beside the roots
        upd = _precondition(accs, bases, moment, corr1, corr2, cfg, group.view(out))
        if len(part) == 1 and stacks.m is not None:
            core = upd[0, 0]
    return UpdateReport(out, core)


def _soap_basis(
    stacks: BlockState, side: str, gb: np.ndarray, beta2: float, corr2: float, refresh: bool
) -> np.ndarray:
    """Advance the group's factor EMA on one side and return its eigenbasis
    stack, refreshed from the bias-corrected factor when due."""
    acc = _factor_ema(stacks, side, gb if side == "l" else gb.swapaxes(-1, -2), beta2)
    q = getattr(stacks, "q_" + side)
    if refresh or q is None:
        # descending, as the basis has always been ordered: a reordered
        # basis sums the rotation back in another order, and SOAP's blocked
        # updates move by percents under such a change of rounding
        q = sym_eig_stack(acc / corr2).eigenvectors[..., ::-1].copy()
        setattr(stacks, "q_" + side, q)
    return q


def soap_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Adam run inside the (refreshed) eigenbases of the factor EMAs.

    Side indicators e_l / e_r pick which bases are tracked; an indicator of
    0 leaves that side in the coordinate basis, so e_l = e_r = 0 is exactly
    adam_step. Second moments live in the rotated space per tile. The tiles
    of one shape go through every stage as one stack.
    """
    g = as_matrix(g, "gradient")
    state.t += 1
    m = _update_first_moment(state, g, cfg.beta1)
    part = block_partition(g.shape, cfg.block_out, cfg.block_in)
    corr1 = _bias_correction(cfg.beta1, state.t)
    corr2 = _bias_correction(cfg.beta2, state.t)
    refresh = state.t == 1 or (state.t - 1) % cfg.precond_freq == 0
    out = np.empty_like(g)
    for group, stacks in _group_states(state, part):
        gb = group.view(g)
        q_l = q_r = None  # an untracked side stays in the coordinate basis
        if cfg.e_l == 1.0:
            q_l = _soap_basis(stacks, "l", gb, cfg.beta2, corr2, refresh)
        if cfg.e_r == 1.0:
            q_r = _soap_basis(stacks, "r", gb, cfg.beta2, corr2, refresh)
        if stacks.v is None:
            stacks.v = np.zeros(gb.shape)
        v = stacks.v
        v *= cfg.beta2
        rot = _rebase(gb, (None, None), (q_l, q_r), group.shape, "gradient")
        # square in place unless rot is the caller's gradient (no basis)
        rot = np.square(rot, out=None if rot is gb else rot)
        rot *= 1.0 - cfg.beta2
        v += rot
        del rot
        m_hat = _rebase(group.view(m), (None, None), (q_l, q_r), group.shape, "first moment")
        upd = _adam_ratio(m_hat / corr1, v / corr2, cfg.eps)
        group.view(out)[...] = _rebase(upd, (q_l, q_r), (None, None), group.shape, "update")
    return UpdateReport(out)


def muon_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Orthogonalized momentum: newton_schulz(m_t) with plain EMA momentum.

    Each side of the layer's one whole-matrix tile takes the range-basis
    route under Shampoo's rule (_range_basis): it enters at step 1 when its
    spanning set (_spans) is narrow, such as the batch factors' slice of a
    wide layer or the one gradient column of a d x 1 layer's left side,
    holds an orthonormal basis of the numerical range of the sets seen so
    far, and releases it at the step it fills the side. The momentum is
    kept in whichever bases the sides hold (_advance_moment): the r_l x r_r
    core C = Q_l^T m_t Q_r, or Q_l^T m_t or m_t Q_r with one basis. The step
    orthogonalizes that core and expands it, Q_l newton_schulz(C) Q_r^T
    (_rebase), into the array that checked the factors; this equals
    newton_schulz(m_t) up to round-off, since the iteration maps X to
    X p(X^T X), and the report keeps the orthogonalized core. A basis of
    width 0, whose spans were all zero, gives a zero core and a zero
    update, as m_t is zero. With no basis held the d_out x d_in momentum is
    orthogonalized.
    """
    g = as_matrix(g, "gradient")
    out = np.empty_like(g)
    factors = _take_factors(state, g, out)
    state.t += 1
    ((group, stacks),) = _group_states(state, BlockPartition(*g.shape))
    pair = _spans(group, group.view(g), factors)
    now, nxt = zip(*(_range_basis(stacks, side, span, state.t) for side, span in zip("lr", pair)))
    moment = _advance_moment(state, group, stacks, g, now, nxt, pair, cfg.beta1)
    del now  # a released basis, not alive beside the orthogonalization
    orth = newton_schulz(moment[0, 0], cfg.ns_iters, cfg.eps)
    if all(q is None for q in nxt):
        return UpdateReport(orth)
    bases = tuple(None if q is None else q[0, 0] for q in nxt)
    return UpdateReport(_rebase(orth, bases, (None, None), g.shape, "update", out=out), orth)


def adamuon_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Adam with both moments accumulated on the orthogonalized gradient.

    o_t = newton_schulz(g_t) replaces the raw gradient in an otherwise
    standard Adam step (the first moment provides the momentum). With
    rms_align the update is rescaled to Frobenius norm
    0.2 sqrt(d_in d_out), i.e. entrywise RMS 0.2.
    """
    g = as_matrix(g, "gradient")
    state.t += 1
    # cfg.eps is the Adam denominator guard here; the orthogonalization keeps
    # its own normalization guard.
    o = newton_schulz(g, cfg.ns_iters)
    _update_first_moment(state, o, cfg.beta1)
    upd = _adam_update(state, o, cfg, cfg.eps)
    if cfg.rms_align:
        fro = float(np.linalg.norm(upd))
        if fro > 0.0:
            d_out, d_in = upd.shape
            upd = upd * (0.2 * np.sqrt(d_in * d_out) / fro)
    return UpdateReport(upd)


def graft(q1: UpdateReport, q2: UpdateReport, eps: float = 0.0) -> UpdateReport:
    """Take the norm of q1 and the direction of q2.

    update = (|Q1|_F / (|Q2|_F + eps)) Q2. A zero direction (with eps = 0)
    returns the zero update rather than dividing by zero.
    """
    denom = q2.frob + eps
    if denom == 0.0:
        return UpdateReport(np.zeros_like(q2.update))
    return UpdateReport((q1.frob / denom) * q2.update)


_STEP_FNS = {
    "sgd": sgd_step,
    "adam": adam_step,
    "shampoo": shampoo_step,
    "soap": soap_step,
    "muon": muon_step,
    "adamuon": adamuon_step,
}


def optimizer_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Dispatch on cfg.rule, wrapping the result in grafting when configured.

    The graft reference rule shares the layer's first moment (both rules use
    the same beta1 EMA of the gradient) and owns the spare second-moment slot,
    so a single LayerState carries the whole grafted pair. The slot is spare
    because OptimizerConfig rejects an adam reference for SECOND_MOMENT_RULES,
    and the moment is shared because it rejects every graft on adamuon.
    """
    if cfg.rule not in ("shampoo", "muon"):
        state.factors = None  # only the range-basis routes of these two read them
    if cfg.graft_rule is None:
        return _STEP_FNS[cfg.rule](state, g, cfg)
    g = as_matrix(g, "gradient")
    q2 = _STEP_FNS[cfg.rule](state, g, cfg)  # advances t and the shared moment
    if cfg.graft_rule == "adam":
        q1 = UpdateReport(_adam_update(state, g, cfg, cfg.graft_ref_eps))
    else:
        q1 = UpdateReport(state.m / _bias_correction(cfg.beta1, state.t))
    return graft(q1, q2, cfg.graft_eps)


def spectral_normalize(
    update: Matrix, state: PowerIterState, d_out: int, d_in: int
) -> tuple[Matrix, PowerIterState]:
    """Rescale an update to spectral norm sqrt(d_out / d_in).

    The norm estimate comes from one online power-iteration step. A zero
    estimate passes the update through unscaled; a zero update leaves the
    state untouched.
    """
    update = as_matrix(update, "spectral_normalize input")
    if not np.any(update):
        return update, state
    new_state = power_iter_step(update, state)
    if new_state.sigma_hat == 0.0:
        return update, new_state
    return (np.sqrt(d_out / d_in) / new_state.sigma_hat) * update, new_state


def rms_normalize(update: Matrix, d_out: int, d_in: int) -> Matrix:
    """Rescale an update to entrywise RMS sqrt(d_out / d_in) / sqrt(d_out).

    Under that RMS a one-hot input picks out a column whose 2-norm is the
    sqrt(d_out / d_in) spectral target, which is the right scale for lookup
    style layers where the spectral norm itself is the wrong yardstick.
    A zero update passes through.
    """
    update = as_matrix(update, "rms_normalize input")
    rms = float(np.sqrt(np.mean(update * update)))
    if rms == 0.0:
        return update
    target = np.sqrt(d_out / d_in) / np.sqrt(d_out)
    return (target / rms) * update


def apply_weight_decay(w: Matrix, lam: float, mode: str, eta: float = 0.0) -> Matrix:
    """Decay weights before the update is applied.

    independent: W - lam W (decoupled from the learning rate)
    coupled:     W - eta lam W
    """
    if lam < 0:
        raise ValueError(f"weight decay must be >= 0, got {lam}")
    if mode not in WD_MODES:
        raise ValueError(f"weight decay mode must be one of {WD_MODES}")
    w = as_matrix(w, "weights")
    if mode == "independent":
        return (1.0 - lam) * w
    return (1.0 - eta * lam) * w
