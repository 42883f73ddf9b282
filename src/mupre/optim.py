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
    inv_power,
    newton_schulz,
    power_iter_step,
    range_inv_power_apply,
    spectral_norm_exact,
    sym_eig_stack,
)
from .scaling import BlockPartition, TileGroup

# Shampoo decomposes a factor side of size n inside the span of its
# gradients while that span has at most this fraction of n columns
# (_range_basis), and Muon orthogonalizes inside the spans of both sides
# under the same rule (muon_step). Timed with one BLAS thread on a 2-vCPU
# Xeon, Shampoo's route costs about half the dense route at 0.5 n columns
# (24.8 ms against 48.7 ms at n = 512) and stops winning between 0.63 n
# and 0.75 n. Muon's route, both sides' QR included, took 50 ms against
# 99 ms for the dense Newton-Schulz at n = 512 and 0.5 n columns a side,
# and stops winning near 0.7 n.
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
    such as C in update = Q_l C Q_r^T with orthonormal Q_l and Q_r (Muon's
    range-basis route); spec then takes the Gram of the core instead of the
    update's.
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
    """Preconditioner accumulators of a tile group, each field a stack
    shaped (tiles down, tiles across, rows, cols), or of one tile, each
    field that tile's matrix (LayerState.blocks).

    l and r are the dense EMAs of G G^T and G^T G for Shampoo and SOAP; v
    is SOAP's second moment in the rotated space. For SOAP, q_l and q_r
    hold the factors' eigenbases. For Shampoo, q_l or q_r holds an
    orthonormal basis of the spanning sets seen on that side (the tile's
    gradient columns, or the row slice of the gradient's factor on that
    side; see _range_basis) while the side takes the range-basis route,
    and is None after it; l and r stay the dense EMAs either way. Muon
    keeps only q_l and q_r, of its one whole-matrix tile, while both sides
    take the route (_muon_bases). A field is None until its first use.
    """

    l: Matrix | None = None
    r: Matrix | None = None
    q_l: Matrix | None = None
    q_r: Matrix | None = None
    v: Matrix | None = None


@dataclass
class LayerState:
    """Mutable per-layer optimizer state shared by all rules.

    t counts completed steps. m/v are full-matrix first/second moments
    (v doubles as the graft reference's second moment). groups holds the
    factor state of shampoo/soap, and muon's range bases: for each tile
    group of the layer's partition, one BlockState of stacks, which a step
    updates in place.

    factors is an optional pair (left, right) with left d_out x B, right
    d_in x B and the next gradient equal to left @ right.T, set by the
    trainer right before a step. Shampoo and Muon take their row slices as
    the spanning sets of their range-basis routes; every rule clears the
    field, and a step without factors spans each side with the tile's own
    gradient columns.
    """

    t: int = 0
    m: Matrix | None = None
    v: Matrix | None = None
    groups: list[tuple[TileGroup, BlockState]] = field(default_factory=list)
    factors: tuple[Matrix, Matrix] | None = None

    @property
    def blocks(self) -> list[BlockState]:
        """Each tile's view of its group's stacks, in row-major tile order;
        empty before the first shampoo/soap step."""
        tiles = {}
        for group, stacks in self.groups:
            arrays = [getattr(stacks, f.name) for f in fields(BlockState)]
            for k, i in enumerate(group.indices):
                at = divmod(k, group.grid[1])
                tiles[i] = BlockState(*(None if a is None else a[at] for a in arrays))
        return [tiles[i] for i in sorted(tiles)]


def block_partition(g: Matrix, b_out: int | None, b_in: int | None) -> BlockPartition:
    """Partition covering g; a missing block size means one full-extent tile."""
    g = as_matrix(g, "block_partition input")
    return BlockPartition(*g.shape, b_out, b_in)


def _bias_correction(beta: float, t: int) -> float:
    # beta = 0 gives 1 - 0^t = 1: no correction needed or applied.
    return 1.0 - beta**t


def _update_first_moment(state: LayerState, g: Matrix, beta1: float) -> Matrix:
    """Advance m, the EMA of g, in place and return it."""
    if state.m is None:
        state.m = np.zeros_like(g)
    state.m *= beta1
    state.m += (1.0 - beta1) * g
    return state.m


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


def _factor_ema(stacks: BlockState, side: str, gb: np.ndarray, beta2: float) -> np.ndarray:
    """Advance the group's factor EMA on one side in place and return the
    stack: L <- beta2 L + (1 - beta2) G G^T on side "l",
    R <- beta2 R + (1 - beta2) G^T G on side "r".

    NumPy forms G G^T and G^T G with a symmetric rank-k update that mirrors
    one triangle, and the EMA scales and adds entrywise, so the stack stays
    exactly symmetric: it goes to sym_eig_stack as it is.
    """
    gram = gb @ gb.swapaxes(-1, -2) if side == "l" else gb.swapaxes(-1, -2) @ gb
    acc = getattr(stacks, side)
    if acc is None:
        acc = np.zeros(gram.shape)
        setattr(stacks, side, acc)
    acc *= beta2
    gram *= 1.0 - beta2
    acc += gram
    return acc


def _shifts(dec: EigDecomp, eps: float, eps_mode: str) -> tuple[np.ndarray | float, np.ndarray]:
    """The shift eps' of each bias-corrected factor of a stack, from its
    decomposition, and the mask of factors whose tile update is zero.

    In absolute mode eps' = eps and the mask is all False. In relative mode
    eps' is eps times the factor's top eigenvalue, and a top eigenvalue
    <= 0 (a zero factor) has no relative shift: the mask marks the tile,
    whose update is zero, and its root takes eps' = 1 only to keep the
    stack off the singular check.
    """
    zero = np.zeros(dec.eigenvalues.shape[:-1], dtype=bool)
    if eps_mode == "relative":
        top = dec.eigenvalues[..., 0]
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


def _factor_spans(
    group: TileGroup, factors: tuple[Matrix, Matrix] | None
) -> dict[str, np.ndarray | None]:
    """Per side, the row slice of the gradient's factor on that side for
    each tile of the group: left's rows of the tile's row band on side "l",
    right's rows of its column band on side "r", as broadcast stacks.
    Without factors both are None."""
    if factors is None:
        return {"l": None, "r": None}
    left, right = factors
    (n_down, n_across), (b_out, b_in) = group.grid, group.shape
    b = left.shape[1]
    span_l = left[group.row:group.row + n_down * b_out].reshape(n_down, 1, b_out, b)
    span_r = right[group.col:group.col + n_across * b_in].reshape(1, n_across, b_in, b)
    return {
        "l": np.broadcast_to(span_l, (n_down, n_across, b_out, b)),
        "r": np.broadcast_to(span_r, (n_down, n_across, b_in, b)),
    }


def _range_basis(
    stacks: BlockState, side: str, gb: np.ndarray, span: np.ndarray | None, t: int
) -> np.ndarray | None:
    """The group's orthonormal basis stack for one side at step t, or None
    when the side takes the dense route.

    A side of size n whose tile's other side is k gets a spanning set of
    the step's gradient on that side: span, the row slice of the
    gradient's factor, when it has fewer than k columns, else the tile's k
    gradient columns. While the basis's width, the columns accumulated so
    far plus this step's, is at most RANGE_BASIS_MAX_FRACTION n, the basis
    is the thin QR of [Q, spanning set] and is kept in the side's q stack.
    Past that the basis is released and the side takes the dense route, as
    it does for a state that holds no basis after step 1 (one built by
    hand), since a basis started late would miss the earlier gradients.
    """
    g_side = gb if side == "l" else gb.swapaxes(-1, -2)
    n, k = g_side.shape[-2:]
    if span is None or span.shape[-1] >= k:
        span = g_side
    name = "q_" + side
    q = getattr(stacks, name) if t > 1 else None
    width = span.shape[-1] + (0 if q is None else q.shape[-1])
    if (t == 1 or q is not None) and width <= RANGE_BASIS_MAX_FRACTION * n:
        q = np.linalg.qr(span if q is None else np.concatenate((q, span), axis=-1)).Q
    else:
        q = None
    setattr(stacks, name, q)
    return q


def _precondition(
    side: str, acc: np.ndarray, q: np.ndarray | None, upd: np.ndarray,
    corr2: float, e: float, cfg: OptimizerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """(A + eps' I)^(-e) applied to the group's update stack on one side,
    A = acc / corr2, and the mask of tiles whose update is zero (_shifts).
    upd is a fresh stack the caller gives up.

    With a range basis Q (_range_basis), which holds A's range, the factor
    is decomposed as S = Q^T A Q, r x r for Q's r columns, and
    range_inv_power_apply applies the root without forming it. Without
    one the n x n factor is decomposed and its root formed.
    """
    if q is not None:
        s = q.swapaxes(-1, -2) @ acc @ q
        dec = sym_eig_stack((s + s.swapaxes(-1, -2)) / (2.0 * corr2))
        eps, zero = _shifts(dec, cfg.eps, cfg.eps_mode)
        if side == "l":
            return range_inv_power_apply(dec, q, e, eps, upd), zero
        return range_inv_power_apply(dec, q, e, eps, upd.swapaxes(-1, -2)).swapaxes(-1, -2), zero
    dec = sym_eig_stack(acc / corr2)
    eps, zero = _shifts(dec, cfg.eps, cfg.eps_mode)
    p = inv_power(dec, e, eps)
    return (p @ upd if side == "l" else upd @ p), zero


def shampoo_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Two-sided inverse-power preconditioning of the first moment.

    Per tile: L += GG^T and R += G^T G EMAs (beta2, bias-corrected), then
    update = (L^ + eps I)^(-e_l) M (R^ + eps I)^(-e_r). In relative mode the
    eps shift for each factor is eps times that factor's top eigenvalue,
    and a tile with a zero factor (e > 0) gets a zero update. The tiles of
    one shape go through every stage as one stack. A factor side whose rank
    is bounded well below its size takes the range-basis route: it is
    decomposed inside the span of its gradients (_range_basis), which the
    state's gradient factors, when given, bound by B columns a step.
    """
    g = as_matrix(g, "gradient")
    out = np.empty_like(g)  # every tile group fills its part below
    factors = _take_factors(state, g, out)
    state.t += 1
    m = _update_first_moment(state, g, cfg.beta1)
    part = block_partition(g, cfg.block_out, cfg.block_in)
    corr1 = _bias_correction(cfg.beta1, state.t)
    corr2 = _bias_correction(cfg.beta2, state.t)
    for group, stacks in _group_states(state, part):
        gb = group.view(g)
        l = _factor_ema(stacks, "l", gb, cfg.beta2)
        r = _factor_ema(stacks, "r", gb, cfg.beta2)
        # e == 0 is the exact identity: skip the multiply
        sides = [(side, acc, e) for side, acc, e in (("l", l, cfg.e_l), ("r", r, cfg.e_r))
                 if e > 0.0]
        # every side's basis first, so a side that leaves the route releases
        # its basis before any dense decomposition of this step
        spans = _factor_spans(group, factors)
        bases = [_range_basis(stacks, side, gb, spans[side], state.t)
                 for side, _, _ in sides]
        upd = group.view(m) / corr1
        zero = np.zeros(group.grid, dtype=bool)
        # one side's root is released before the other's is formed
        for (side, acc, e), q in zip(sides, bases):
            upd, zero_side = _precondition(side, acc, q, upd, corr2, e, cfg)
            zero |= zero_side
        upd[zero] = 0.0
        group.view(out)[...] = upd
    return UpdateReport(out)


def _rotate(a: np.ndarray, q_l: np.ndarray | None, q_r: np.ndarray | None) -> np.ndarray:
    """Q_l^T A Q_r, skipping a side without a basis."""
    if q_l is not None:
        a = q_l.swapaxes(-1, -2) @ a
    if q_r is not None:
        a = a @ q_r
    return a


def _soap_basis(
    stacks: BlockState, side: str, gb: np.ndarray, beta2: float, corr2: float, refresh: bool
) -> np.ndarray:
    """Advance the group's factor EMA on one side and return its eigenbasis
    stack, refreshed from the bias-corrected factor when due."""
    acc = _factor_ema(stacks, side, gb, beta2)
    q = getattr(stacks, "q_" + side)
    if refresh or q is None:
        q = sym_eig_stack(acc / corr2).eigenvectors
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
    part = block_partition(g, cfg.block_out, cfg.block_in)
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
        rot = _rotate(gb, q_l, q_r)
        # square in place unless rot is the caller's gradient (no basis)
        rot = np.square(rot, out=None if rot is gb else rot)
        rot *= 1.0 - cfg.beta2
        v += rot
        del rot
        upd = _adam_ratio(_rotate(group.view(m), q_l, q_r) / corr1, v / corr2, cfg.eps)
        if q_l is not None:
            upd = q_l @ upd
        if q_r is not None:
            upd = upd @ q_r.swapaxes(-1, -2)
        group.view(out)[...] = upd
    return UpdateReport(out)


def _muon_bases(
    state: LayerState, g: Matrix, factors: tuple[Matrix, Matrix] | None
) -> tuple[Matrix, Matrix] | None:
    """Orthonormal bases (Q_l, Q_r) of the spanning sets seen so far on
    both sides of the layer's one whole-matrix tile, or None when the layer
    takes the dense route, which then holds no basis.

    Each side follows Shampoo's rule (_range_basis). The route needs both
    sides, and the smaller side's rule is the stricter one (its spanning
    set is no narrower and its cutoff no larger), so it goes first: a
    layer it keeps off the route, such as a d x 1 layer, pays no QR.
    """
    ((group, stacks),) = _group_states(state, BlockPartition(*g.shape))
    spans = _factor_spans(group, factors)
    gb = group.view(g)
    bases = {}
    for side in ("l", "r") if g.shape[0] <= g.shape[1] else ("r", "l"):
        q = _range_basis(stacks, side, gb, spans[side], state.t)
        if q is None:
            stacks.q_l = stacks.q_r = None
            return None
        bases[side] = q[0, 0]
    return bases["l"], bases["r"]


def muon_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Orthogonalized momentum: newton_schulz(m_t) with plain EMA momentum.

    Given the gradients' batch factors, m_t lies in the span of those seen
    so far on each side. While both sides hold an orthonormal basis of
    theirs (_muon_bases), the step orthogonalizes the r_l x r_r core
    Q_l^T m_t Q_r and returns Q_l newton_schulz(core) Q_r^T, which equals
    newton_schulz(m_t) in exact arithmetic, since the iteration maps X to
    X p(X^T X); the report keeps the orthogonalized core. Past the cutoff,
    or without factors, the n x n momentum is orthogonalized.
    """
    g = as_matrix(g, "gradient")
    out = np.empty_like(g)  # the factor check's scratch, then the update
    factors = _take_factors(state, g, out)
    state.t += 1
    m = _update_first_moment(state, g, cfg.beta1)
    bases = _muon_bases(state, g, factors)
    if bases is None:
        del out  # not alive beside the dense iteration's temporaries
        return UpdateReport(newton_schulz(m, cfg.ns_iters, cfg.eps))
    q_l, q_r = bases
    core = newton_schulz(q_l.T @ m @ q_r, cfg.ns_iters, cfg.eps)
    np.matmul(q_l @ core, q_r.T, out=out)
    return UpdateReport(out, core)


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
    update: Matrix,
    state: PowerIterState,
    d_out: int,
    d_in: int,
    exact: bool = False,
) -> tuple[Matrix, PowerIterState]:
    """Rescale an update to spectral norm sqrt(d_out / d_in).

    The norm estimate comes from one online power-iteration step (or the
    dense decomposition when exact=True, for oracle substitution). A zero
    estimate passes the update through unscaled; a zero update leaves the
    state untouched.
    """
    update = as_matrix(update, "spectral_normalize input")
    if not np.any(update):
        return update, state
    new_state = power_iter_step(update, state)
    sigma = spectral_norm_exact(update) if exact else new_state.sigma_hat
    if sigma == 0.0:
        return update, new_state
    return (np.sqrt(d_out / d_in) / sigma) * update, new_state


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
