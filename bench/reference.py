"""Independent recomputation of `mupre.optim.optimizer_step` updates.

The program computes Shampoo's inverse roots from symmetric
eigendecompositions; this module takes them from an SVD, walks its own
tile loop and applies its own Adam graft, so agreement between the two
tests the update rule rather than one implementation against itself.
Inputs are the caller's copies of (state, gradient, config) taken before
the program's call mutated the state.
"""

from __future__ import annotations

import numpy as np

# largest relative Frobenius gap allowed between program and reference
REL_TOL = 1e-9
# Muon's orthogonalized update has every nonzero singular value near 1
MUON_SPEC_BAND = (0.95, 1.05)


def _inv_root(a: np.ndarray, e: float, eps: float, eps_mode: str) -> np.ndarray | None:
    """(A + eps' I)^(-e) for symmetric PSD A via its SVD; None for A = 0 in
    relative mode, where eps' = eps * sigma_max."""
    u, s, _ = np.linalg.svd(a)
    if eps_mode == "relative":
        if s[0] <= 0.0:
            return None
        eps = eps * s[0]
    return (u * (s + eps) ** (-e)) @ u.T


def _adam_direction(m_hat: np.ndarray, v_hat: np.ndarray, eps: float) -> np.ndarray:
    denom = np.sqrt(v_hat) + eps
    out = np.zeros_like(m_hat)
    np.divide(m_hat, denom, out=out, where=denom > 0.0)
    return out


def shampoo_update(state, g: np.ndarray, cfg) -> np.ndarray:
    """Blocked two-sided Shampoo of the bias-corrected momentum, optionally
    grafted onto the norm of an Adam or SGD reference step."""
    t = state.t + 1
    m_prev = np.zeros_like(g) if state.m is None else state.m
    m = cfg.beta1 * m_prev + (1.0 - cfg.beta1) * g
    c1 = 1.0 - cfg.beta1**t
    c2 = 1.0 - cfg.beta2**t
    rows, cols = g.shape
    b_out = min(cfg.block_out or rows, rows)
    b_in = min(cfg.block_in or cols, cols)
    out = np.zeros_like(g)
    tile = 0
    for r0 in range(0, rows, b_out):
        for c0 in range(0, cols, b_in):
            sl = (slice(r0, r0 + b_out), slice(c0, c0 + b_in))
            gb = g[sl]
            prev = state.blocks[tile] if state.blocks else None
            tile += 1
            l_prev = prev.l if prev is not None and prev.l is not None else 0.0
            r_prev = prev.r if prev is not None and prev.r is not None else 0.0
            left = cfg.beta2 * l_prev + (1.0 - cfg.beta2) * (gb @ gb.T)
            right = cfg.beta2 * r_prev + (1.0 - cfg.beta2) * (gb.T @ gb)
            upd = m[sl] / c1
            if cfg.e_l > 0.0:
                p_l = _inv_root(left / c2, cfg.e_l, cfg.eps, cfg.eps_mode)
                if p_l is None:
                    continue
                upd = p_l @ upd
            if cfg.e_r > 0.0:
                p_r = _inv_root(right / c2, cfg.e_r, cfg.eps, cfg.eps_mode)
                if p_r is None:
                    continue
                upd = upd @ p_r
            out[sl] = upd
    if cfg.graft_rule is None:
        return out
    m_hat = m / c1
    if cfg.graft_rule == "adam":
        v_prev = np.zeros_like(g) if state.v is None else state.v
        v_hat = (cfg.beta2 * v_prev + (1.0 - cfg.beta2) * g * g) / c2
        ref = _adam_direction(m_hat, v_hat, cfg.graft_ref_eps)
    else:
        ref = m_hat
    denom = float(np.linalg.norm(out)) + cfg.graft_eps
    if denom == 0.0:
        return np.zeros_like(out)
    return (float(np.linalg.norm(ref)) / denom) * out


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """|got - want|_F / |want|_F, or |got|_F when the reference is zero."""
    scale = float(np.linalg.norm(want))
    diff = float(np.linalg.norm(got - want))
    return diff / scale if scale > 0.0 else diff


def spectral_norm_svd(update: np.ndarray) -> float:
    return float(np.linalg.svd(update, compute_uv=False)[0])


def check_step(state, g: np.ndarray, cfg, update: np.ndarray) -> tuple[str, float, bool]:
    """(measure, value, ok) for one optimizer_step call.

    `state` is a copy of the layer state from before the call and `update`
    the direction the program returned.
    """
    if cfg.rule == "shampoo":
        gap = relative_gap(update, shampoo_update(state, g, cfg))
        return "rel_gap", gap, gap <= REL_TOL
    if cfg.rule == "muon" and cfg.graft_rule is None:
        if not np.any(update):
            return "muon_zero_update", 0.0, True
        spec = spectral_norm_svd(update)
        return "muon_spec", spec, MUON_SPEC_BAND[0] <= spec <= MUON_SPEC_BAND[1]
    raise ValueError(f"no reference route for rule {cfg.rule!r} with graft {cfg.graft_rule!r}")
