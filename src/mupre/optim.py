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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import WD_MODES, OptimizerConfig
from .linalg import (
    Matrix,
    PowerIterState,
    as_matrix,
    inv_power,
    newton_schulz,
    power_iter_step,
    spectral_norm_exact,
    sym_eig_stack,
)
from .scaling import BlockPartition, TileGroup

class UpdateReport:
    """An update direction plus its norm statistics.

    frob is computed eagerly; the exact spectral norm and the stable rank
    frob^2 / spec^2 are computed on first access (they need an
    eigendecomposition, which per-step callers may not want). srank is
    defined as 0 for an all-zero update.
    """

    def __init__(self, update: Matrix):
        self.update = update
        self.frob = float(np.linalg.norm(update))

    @cached_property
    def spec(self) -> float:
        if self.frob == 0.0:
            return 0.0
        return spectral_norm_exact(self.update)

    @cached_property
    def srank(self) -> float:
        if self.spec == 0.0:
            return 0.0
        return self.frob**2 / self.spec**2


@dataclass
class BlockState:
    """Per-tile preconditioner accumulators.

    The step functions keep the tiles of one shape in one stack per field
    and set each tile's field to its view of that stack, so a step updates
    every tile of a shape at once and in place.
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
    (v doubles as the graft reference's second moment). blocks holds the
    per-tile factor state for shampoo/soap.
    """

    t: int = 0
    m: Matrix | None = None
    v: Matrix | None = None
    blocks: list[BlockState] = field(default_factory=list)


def block_partition(g: Matrix, b_out: int | None, b_in: int | None) -> BlockPartition:
    """Partition covering g; a missing block size means one full-extent tile."""
    g = as_matrix(g, "block_partition input")
    return BlockPartition(*g.shape, b_out, b_in)


def _bias_correction(beta: float, t: int) -> float:
    # beta = 0 gives 1 - 0^t = 1: no correction needed or applied.
    return 1.0 - beta**t


def _update_first_moment(state: LayerState, g: Matrix, beta1: float) -> Matrix:
    if state.m is None:
        state.m = np.zeros_like(g)
    state.m = beta1 * state.m + (1.0 - beta1) * g
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


def adam_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Bias-corrected Adam: m^ / (sqrt(v^) + eps)."""
    g = as_matrix(g, "gradient")
    state.t += 1
    m = _update_first_moment(state, g, cfg.beta1)
    if state.v is None:
        state.v = np.zeros_like(g)
    state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (g * g)
    m_hat = m / _bias_correction(cfg.beta1, state.t)
    v_hat = state.v / _bias_correction(cfg.beta2, state.t)
    if cfg.eps == 0.0 and not np.any(v_hat):
        raise ZeroDivisionError("adam_step with eps=0 and an all-zero gradient history")
    return UpdateReport(_adam_ratio(m_hat, v_hat, cfg.eps))


def sgd_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Momentum SGD; the update is the bias-corrected first moment."""
    g = as_matrix(g, "gradient")
    state.t += 1
    m = _update_first_moment(state, g, cfg.beta1)
    return UpdateReport(m / _bias_correction(cfg.beta1, state.t))


def _ensure_blocks(state: LayerState, n: int) -> list[BlockState]:
    if not state.blocks:
        state.blocks = [BlockState() for _ in range(n)]
    if len(state.blocks) != n:
        raise ValueError("layer state was created for a different block partition")
    return state.blocks


def _group_stack(
    blocks: list[BlockState], group: TileGroup, name: str, tile_shape=None
) -> np.ndarray | None:
    """The stack of the group's tiles whose views the blocks hold in field
    `name`. An unset field gets a seated stack of zeros of tile_shape, or
    None without one. Tiles that are not views of one stack (a deep copy, a
    hand-built state) are copied into one first."""
    tiles = [getattr(blocks[i], name) for i in group.indices]
    if tiles[0] is None:
        if tile_shape is None:
            return None
        stack = np.zeros(group.grid + tile_shape)
        _seat(blocks, group, name, stack)
        return stack
    stack = tiles[0].base
    if (
        stack is not None
        and stack.shape == group.grid + tiles[0].shape
        and all(tile.base is stack for tile in tiles)
    ):
        return stack
    stack = np.empty(group.grid + tiles[0].shape)
    stack.reshape(-1, *tiles[0].shape)[...] = tiles
    _seat(blocks, group, name, stack)
    return stack


def _seat(blocks: list[BlockState], group: TileGroup, name: str, stack: np.ndarray) -> None:
    """Set each tile's field `name` to its view of the group's stack."""
    for i, tile in zip(group.indices, stack.reshape(-1, *stack.shape[-2:])):
        setattr(blocks[i], name, tile)


def _factor_ema(
    blocks: list[BlockState], group: TileGroup, side: str, gb: np.ndarray, beta2: float
) -> np.ndarray:
    """Advance the group's factor EMA on one side in place and return the
    stack: L <- beta2 L + (1 - beta2) G G^T on side "l",
    R <- beta2 R + (1 - beta2) G^T G on side "r".

    NumPy forms G G^T and G^T G with a symmetric rank-k update that mirrors
    one triangle, and the EMA scales and adds entrywise, so the stack stays
    exactly symmetric: it goes to sym_eig_stack as it is.
    """
    gram = gb @ gb.swapaxes(-1, -2) if side == "l" else gb.swapaxes(-1, -2) @ gb
    acc = _group_stack(blocks, group, side, gram.shape[-2:])
    acc *= beta2
    gram *= 1.0 - beta2
    acc += gram
    return acc


def _inverse_roots(
    acc: np.ndarray, corr2: float, e: float, eps: float, eps_mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """(A + eps' I)^(-e) for each bias-corrected factor A = acc / corr2 of a
    stack, and the mask of factors whose tile update is zero.

    In absolute mode eps' = eps and the mask is all False. In relative mode
    eps' is eps times the factor's top eigenvalue, and a top eigenvalue
    <= 0 (a zero factor) has no relative shift: the mask marks the tile,
    whose update is zero, and its root is computed with eps' = 1 only to
    keep the stack off the singular check.
    """
    dec = sym_eig_stack(acc / corr2)
    zero = np.zeros(acc.shape[:-2], dtype=bool)
    if eps_mode == "relative":
        top = dec.eigenvalues[..., 0]
        zero = top <= 0.0
        eps = np.where(zero, 1.0, eps * top)
    return inv_power(dec, e, eps), zero


def shampoo_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Two-sided inverse-power preconditioning of the first moment.

    Per tile: L += GG^T and R += G^T G EMAs (beta2, bias-corrected), then
    update = (L^ + eps I)^(-e_l) M (R^ + eps I)^(-e_r). In relative mode the
    eps shift for each factor is eps times that factor's top eigenvalue,
    and a tile with a zero factor (e > 0) gets a zero update. The tiles of
    one shape go through every stage as one stack.
    """
    g = as_matrix(g, "gradient")
    state.t += 1
    m = _update_first_moment(state, g, cfg.beta1)
    part = block_partition(g, cfg.block_out, cfg.block_in)
    blocks = _ensure_blocks(state, len(part))
    corr1 = _bias_correction(cfg.beta1, state.t)
    corr2 = _bias_correction(cfg.beta2, state.t)
    out = np.empty_like(g)
    for group in part.groups():
        gb = group.view(g)
        l = _factor_ema(blocks, group, "l", gb, cfg.beta2)
        r = _factor_ema(blocks, group, "r", gb, cfg.beta2)
        upd = group.view(m) / corr1
        zero = np.zeros(group.grid, dtype=bool)
        if cfg.e_l > 0.0:  # e == 0 is the exact identity: skip the multiply
            p_l, zero_l = _inverse_roots(l, corr2, cfg.e_l, cfg.eps, cfg.eps_mode)
            upd = p_l @ upd
            zero |= zero_l
            del p_l  # before the right root: one full-size root at a time
        if cfg.e_r > 0.0:
            p_r, zero_r = _inverse_roots(r, corr2, cfg.e_r, cfg.eps, cfg.eps_mode)
            upd = upd @ p_r
            zero |= zero_r
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
    blocks: list[BlockState], group: TileGroup, side: str, gb: np.ndarray,
    beta2: float, corr2: float, refresh: bool,
) -> np.ndarray:
    """Advance the group's factor EMA on one side and return its eigenbasis
    stack, refreshed from the bias-corrected factor when due."""
    acc = _factor_ema(blocks, group, side, gb, beta2)
    q = _group_stack(blocks, group, "q_" + side)
    if refresh or q is None:
        q = sym_eig_stack(acc / corr2).eigenvectors
        _seat(blocks, group, "q_" + side, q)
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
    blocks = _ensure_blocks(state, len(part))
    corr1 = _bias_correction(cfg.beta1, state.t)
    corr2 = _bias_correction(cfg.beta2, state.t)
    refresh = state.t == 1 or (state.t - 1) % cfg.precond_freq == 0
    out = np.empty_like(g)
    for group in part.groups():
        gb = group.view(g)
        q_l = q_r = None  # an untracked side stays in the coordinate basis
        if cfg.e_l == 1.0:
            q_l = _soap_basis(blocks, group, "l", gb, cfg.beta2, corr2, refresh)
        if cfg.e_r == 1.0:
            q_r = _soap_basis(blocks, group, "r", gb, cfg.beta2, corr2, refresh)
        v = _group_stack(blocks, group, "v", group.shape)
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


def muon_step(state: LayerState, g: Matrix, cfg: OptimizerConfig) -> UpdateReport:
    """Orthogonalized momentum: newton_schulz(m_t) with plain EMA momentum."""
    g = as_matrix(g, "gradient")
    state.t += 1
    m = _update_first_moment(state, g, cfg.beta1)
    return UpdateReport(newton_schulz(m, cfg.ns_iters, cfg.eps))


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
    m = _update_first_moment(state, o, cfg.beta1)
    if state.v is None:
        state.v = np.zeros_like(g)
    state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (o * o)
    m_hat = m / _bias_correction(cfg.beta1, state.t)
    v_hat = state.v / _bias_correction(cfg.beta2, state.t)
    upd = _adam_ratio(m_hat, v_hat, cfg.eps)
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
    if cfg.graft_rule is None:
        return _STEP_FNS[cfg.rule](state, g, cfg)
    g = as_matrix(g, "gradient")
    q2 = _STEP_FNS[cfg.rule](state, g, cfg)  # advances t and the shared moment
    m_hat = state.m / _bias_correction(cfg.beta1, state.t)
    if cfg.graft_rule == "adam":
        if state.v is None:
            state.v = np.zeros_like(g)
        state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (g * g)
        v_hat = state.v / _bias_correction(cfg.beta2, state.t)
        if cfg.graft_ref_eps == 0.0 and not np.any(v_hat):
            raise ZeroDivisionError(
                "graft reference adam with eps=0 and an all-zero gradient history"
            )
        q1 = UpdateReport(_adam_ratio(m_hat, v_hat, cfg.graft_ref_eps))
    else:
        q1 = UpdateReport(m_hat)
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
