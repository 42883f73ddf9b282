"""Reference Shampoo updates for tests, computed apart from mupre.optim's
steps: of one batch gradient G = (1/B) Delta X^T through the B x B Gram
matrices of the batch and through the full d x d factors, and of a blocked
run in exact arithmetic."""

from itertools import product

import numpy as np
from mpmath import mp

from mupre.linalg import mat_inv_power, sym_eig
from mupre.optim import block_partition


def _pseudo_sqrt(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K^{1/2}, K^{-1/2+}) for a PSD Gram matrix, by eigendecomposition."""
    eig = sym_eig(k)
    w = np.clip(eig.eigenvalues, 0.0, None)
    cutoff = (w[-1] if w.size else 0.0) * 1e-12
    root = np.sqrt(w)
    inv_root = np.where(w > cutoff, 1.0 / np.where(w > cutoff, root, 1.0), 0.0)
    v = eig.eigenvectors
    return (v * root) @ v.T, (v * inv_root) @ v.T


def gram_oracle_shampoo(
    delta: np.ndarray, x: np.ndarray, eps: float, e_l: float, e_r: float
) -> np.ndarray:
    """Shampoo update of G = (1/B) Delta X^T through B x B Gram matrices.

    Never forms the d x d factor matrices: both inverse-power factors act
    inside the B-dimensional column spaces of Delta and X, with pseudo
    inverse square roots covering rank-deficient batches.
    """
    delta = np.asarray(delta, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if delta.ndim != 2 or x.ndim != 2 or delta.shape[1] != x.shape[1]:
        raise ValueError("expected d_out x B and d_in x B with matching B")
    b = delta.shape[1]
    k_d = delta.T @ delta
    k_x = x.T @ x
    sqrt_kd, pinv_sqrt_kd = _pseudo_sqrt(k_d)
    sqrt_kx, pinv_sqrt_kx = _pseudo_sqrt(k_x)
    s_l = sqrt_kd @ k_x @ sqrt_kd / b**2
    s_r = sqrt_kx @ k_d @ sqrt_kx / b**2
    w_l = pinv_sqrt_kd @ mat_inv_power(s_l, e_l, eps) @ sqrt_kd
    w_r = pinv_sqrt_kx @ mat_inv_power(s_r, e_r, eps) @ sqrt_kx
    return delta @ (w_l @ w_r.T) @ x.T / b


def dense_shampoo(g: np.ndarray, eps: float, e_l: float, e_r: float) -> np.ndarray:
    """Reference path through the full d x d factor eigendecompositions."""
    g = np.asarray(g, dtype=np.float64)
    return mat_inv_power(g @ g.T, e_l, eps) @ g @ mat_inv_power(g.T @ g, e_r, eps)


def exact_root(a, e, eps, eps_mode):
    """(A + eps' I)^(-e) of a symmetric PSD mpmath matrix A by mp.eigsy,
    with eps' = eps, or eps times the top eigenvalue in relative mode, and
    its (lam_max + eps') / eps'; None for a zero factor in relative mode,
    whose tile update is zero."""
    lam, v = mp.eigsy(a)
    # eigsy's round-off negatives count as zero, as the step clamps them
    lam = [max(x, 0) for x in lam]
    top = max(lam)
    if eps_mode == "relative":
        if top <= 0:
            return None
        eps = eps * top
    powered = mp.diag([(x + eps) ** -mp.mpf(e) for x in lam])
    return v * powered * v.T, float((top + eps) / eps)


def exact_blocked_shampoo(g_seq, c):
    """Blocked Shampoo's updates recomputed in mpmath at 40 digits from the
    float64 gradients and settings, each tile on its own and every side
    dense: (L^ + eps_l' I)^(-e_l) M^ (R^ + eps_r' I)^(-e_r) with the
    bias-corrected EMAs L^ of G G^T, R^ of G^T G and M^ of G, a side with
    e = 0 the identity, rounded to float64 at the end; and each step's
    kappa_t, the largest (lam_max + eps') / eps' over the tiles and the
    e > 0 sides. The range-basis route gives this update too."""
    with mp.workdps(40):
        b1, b2 = mp.mpf(c.beta1), mp.mpf(c.beta2)
        part = block_partition(g_seq[0].shape, c.block_out, c.block_in)
        spans = list(product(part.row_spans, part.col_spans))
        ema = {i: [mp.zeros(r1 - r0, c1 - c0), mp.zeros(r1 - r0), mp.zeros(c1 - c0)]
               for i, ((r0, r1), (c0, c1)) in enumerate(spans)}
        updates, kappas = [], []
        for t, g in enumerate(g_seq, start=1):
            c1_t, c2_t = 1 - b1**t, 1 - b2**t
            out, kappa = np.zeros_like(g), 1.0
            for i, ((r0, r1), (c0, c1)) in enumerate(spans):
                gb = mp.matrix(g[r0:r1, c0:c1].tolist())
                m, l, r = ema[i]
                m = b1 * m + (1 - b1) * gb
                l = b2 * l + (1 - b2) * gb * gb.T
                r = b2 * r + (1 - b2) * gb.T * gb
                ema[i] = [m, l, r]
                upd = m / c1_t
                for side, e, acc in (("l", c.e_l, l), ("r", c.e_r, r)):
                    root = exact_root(acc / c2_t, e, mp.mpf(c.eps), c.eps_mode) if e else (1, 1.0)
                    if root is None:
                        break
                    upd = root[0] * upd if side == "l" else upd * root[0]
                    kappa = max(kappa, root[1])
                else:
                    out[r0:r1, c0:c1] = np.array(upd.tolist(), dtype=float)
            updates.append(out)
            kappas.append(kappa)
    return updates, kappas
