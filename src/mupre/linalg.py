"""Dense linear-algebra kernels shared by the optimizers and oracles.

Everything operates on plain 2-D float64 numpy arrays ("matrices"). All
routines are pure functions of their inputs: no globals, no hidden state,
safe to call from concurrent workers. Shapes are desk-scale (<= a few
thousand), dense and real; sparse, complex and GPU paths are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Matrix = np.ndarray

# Aggressive quintic for the orthogonalization iteration. Maximizes the slope
# at zero so small singular values are pulled up quickly, at the price of
# never actually converging to 1 (it wanders in a band around 1).
NS_QUINTIC = (3.4445, -4.7750, 2.0315)

# Number of trailing iterations replaced by the convergent cubic
# X <- X (3 I - X^T X) / 2, which polishes the singular-value band onto 1.
NS_POLISH_STEPS = 2

# Guard added to the Frobenius norm in the pre-normalization step.
NS_DEFAULT_EPS = 1e-7

# Largest asymmetry sym_eig accepts, relative to the largest entry.
SYM_TOL = 1e-10

# Eigenvalues of a PSD factor may fall below 0 by round-off down to
# -NEG_TOL times the top eigenvalue; below that the factor is corrupt.
NEG_TOL = 1e-6

# power_iter_step keeps its direction while |A^T A v| is below this.
POWER_ITER_EPS = 1e-8

_SINGULAR = "mat_inv_power is singular: zero eigenvalue with eps=0"


class NonFiniteError(ValueError):
    """An input holds inf or NaN entries. During training this means the run
    overflowed; the trainer raises it too for a loss past its divergence
    factor, and records it as a divergence."""


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce to a 2-D float64 array, rejecting bad shapes and non-finite
    entries (NonFiniteError)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return m


@dataclass
class EigDecomp:
    """Symmetric eigendecomposition, eigenvalues in LAPACK's ascending
    order, so the top one is eigenvalues[-1].

    eigenvectors[:, i] is the unit eigenvector for eigenvalues[i]; the
    column set is orthonormal. For a stack, both arrays carry the stack's
    leading axes: eigenvectors[..., :, i] belongs to eigenvalues[..., i].
    Both are LAPACK's own output arrays, not reordered copies.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class PowerIterState:
    """Carried state of the online top-singular-direction estimate.

    v is a unit vector in input (column) space; sigma_hat is the most recent
    singular-value estimate |A v|.
    """

    v: np.ndarray
    sigma_hat: float = 0.0


def sym_eig(a: Matrix) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Raises ValueError for non-square or asymmetric input (asymmetry measured
    against SYM_TOL relative to the largest entry). Non-convergence of the
    underlying LAPACK solver propagates as numpy.linalg.LinAlgError.
    """
    a = as_matrix(a, "sym_eig input")
    n, m = a.shape
    if n != m:
        raise ValueError(f"sym_eig needs a square matrix, got {a.shape}")
    scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
    if n and float(np.abs(a - a.T).max()) > SYM_TOL * scale:
        raise ValueError("sym_eig input is not symmetric within tolerance")
    # Symmetrize to kill representable round-off before factorizing.
    dec = sym_eig_stack(((a + a.T) / 2.0)[np.newaxis])
    return EigDecomp(eigenvalues=dec.eigenvalues[0], eigenvectors=dec.eigenvectors[0])


def sym_eig_stack(a: np.ndarray) -> EigDecomp:
    """Eigendecompositions of a (..., n, n) stack of symmetric matrices in one
    LAPACK call, eigenvalues ascending along the last axis (EigDecomp).

    There is no symmetry check and no symmetrizing copy: LAPACK reads one
    triangle only, so the caller passes matrices that are exactly symmetric
    by construction, such as optim's factor EMAs of G G^T and G^T G.
    Non-finite entries raise NonFiniteError; non-convergence propagates as
    numpy.linalg.LinAlgError.
    """
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("sym_eig_stack input contains non-finite entries")
    w, v = np.linalg.eigh(a)
    return EigDecomp(eigenvalues=w, eigenvectors=v)


def shifted_powers(lam: np.ndarray, e: float, eps) -> np.ndarray:
    """(lam + eps)^(-e) for ascending eigenvalue rows lam of PSD matrices
    (EigDecomp), eps one shift or one per row: the diagonal of each
    matrix's inverse root in its eigenbasis, as a new array. mat_inv_power
    and Shampoo's steps both take their roots' spectra from here.

    Eigenvalues that are slightly negative from accumulated round-off are
    clamped to 0 first; anything below -NEG_TOL * lambda_max means the
    accumulator was corrupted, and a zero shift with a clamped zero
    eigenvalue is singular: both raise numpy.linalg.LinAlgError, which the
    trainer records as a divergence.
    """
    n = lam.shape[-1]
    if n:
        low, top = lam[..., 0], lam[..., -1]
        bad = low < -NEG_TOL * np.maximum(np.abs(top), 1e-300)
        if np.any(bad):
            raise np.linalg.LinAlgError(
                f"mat_inv_power input is not PSD (min eigenvalue {low[bad].flat[0]:.3e})"
            )
    lam = np.maximum(lam, 0.0)
    eps = np.asarray(eps, dtype=float)
    if n and np.any((eps == 0.0) & (lam[..., 0] == 0.0)):
        raise np.linalg.LinAlgError(_SINGULAR)
    return (lam + eps[..., np.newaxis]) ** (-e)


def mat_inv_power(a: Matrix, e: float, eps: float) -> Matrix:
    """(A + eps I)^(-e) for symmetric PSD A, as V diag((lam + eps)^(-e)) V^T
    from sym_eig, with the eigenvalues checked and clamped as in
    shifted_powers.

    e == 0 returns the exact identity. eps == 0 with a clamped zero
    eigenvalue and e > 0 is singular.
    """
    if e < 0:
        raise ValueError(f"mat_inv_power exponent must be >= 0, got {e}")
    if e == 0:
        return np.eye(as_matrix(a, "mat_inv_power input").shape[0])
    dec = sym_eig(a)
    v = dec.eigenvectors
    return (v * shifted_powers(dec.eigenvalues, e, eps)) @ v.T


def ns_schedule(iters: int) -> tuple[bool, ...]:
    """Per iteration of the orthogonalization, whether it is a polish step.

    The trailing NS_POLISH_STEPS iterations polish with the convergent cubic
    and the rest use the quintic; a run of at most NS_POLISH_STEPS
    iterations is all quintic, so it still lifts small singular values.
    """
    quintic = iters - NS_POLISH_STEPS if iters > NS_POLISH_STEPS else iters
    return (False,) * quintic + (True,) * (iters - quintic)


def newton_schulz(m: Matrix, iters: int = 5, eps: float = NS_DEFAULT_EPS) -> Matrix:
    """Approximate msign(M) = U V^T from the reduced SVD M = U S V^T.

    The input is pre-normalized by its Frobenius norm (+ eps); wide inputs
    are transposed so the Gram matrix in the iteration stays at the smaller
    dimension. The leading iterations use the aggressive quintic; the final
    NS_POLISH_STEPS use the convergent cubic so generic nonzero singular
    values land near 1 instead of oscillating in the quintic's band.
    An all-zero input returns the zero matrix.
    """
    if iters < 1:
        raise ValueError(f"newton_schulz needs iters >= 1, got {iters}")
    m = as_matrix(m, "newton_schulz input")
    fro = float(np.linalg.norm(m))
    if fro == 0.0:
        return np.zeros_like(m)
    x = m / (fro + eps)
    transposed = x.shape[0] < x.shape[1]
    if transposed:
        x = x.T
    # In place, with the textbook steps' operations in their order, so the
    # bits match x <- 1.5 x - 0.5 x G and x <- a x + x (b G + c G G):
    # at most x, G and one temporary of x's or G's size are alive at once.
    a, b, c = NS_QUINTIC
    for polish in ns_schedule(iters):
        g = x.T @ x
        if polish:
            y = x @ g
            y *= -0.5
            x *= 1.5
            x += y
        else:
            gg = g @ g  # not g.T @ g: NumPy takes syrk for that, with other bits
            gg *= c
            g *= b
            g += gg
            del gg
            y = x @ g
            x *= a
            y += x
            x = y
        del g, y
    return x.T if transposed else x


def power_iter_step(a: Matrix, state: PowerIterState) -> PowerIterState:
    """One online power-iteration step for the top singular pair of A.

    sigma_hat is estimated from the incoming direction as |A v|; the new
    direction is A^T A v renormalized. The direction update is skipped when
    renormalizing would produce a vector of norm below 0.5, i.e. when
    |A^T y| < POWER_ITER_EPS; this keeps v a stale-but-valid unit vector for
    sparse or vanishing updates instead of amplifying noise.
    """
    a = as_matrix(a, "power_iter input")
    v = np.asarray(state.v, dtype=float).reshape(-1)
    if v.shape[0] != a.shape[1]:
        raise ValueError(
            f"power_iter state dimension {v.shape[0]} does not match matrix {a.shape}"
        )
    y = a @ v
    sigma_hat = float(np.linalg.norm(y))
    z = a.T @ y
    norm_z = float(np.linalg.norm(z))
    if norm_z / (norm_z + POWER_ITER_EPS) < 0.5:
        new_v = v
    else:
        new_v = z / norm_z
    return PowerIterState(v=new_v, sigma_hat=sigma_hat)


def spectral_norm_exact(a: Matrix) -> float:
    """Largest singular value: the square root of the top eigenvalue of the
    smaller Gram matrix, from its eigenvalues alone. An empty input gives 0.

    NumPy forms A A^T and A^T A with a symmetric rank-k update that mirrors
    one triangle, so the Gram goes to eigvalsh as it is, with no symmetry
    check or symmetrizing copy. A finite input whose Gram overflows raises
    NonFiniteError.
    """
    a = as_matrix(a, "spectral_norm input")
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    if not gram.size:
        return 0.0
    # min and max see NaN and either infinity without allocating a mask
    if not (np.isfinite(gram.max()) and np.isfinite(gram.min())):
        raise NonFiniteError("spectral_norm Gram matrix overflowed")
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))

