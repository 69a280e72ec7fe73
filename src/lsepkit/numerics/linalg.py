"""Dense linear algebra for the small complex systems that appear in the
two-level dynamics (4x4 generators, their steady states and spectra).

Matrices and vectors are plain numpy arrays of complex dtype.  The solver
is LAPACK's LU factorization with partial pivoting, guarded by the
matrix's reciprocal condition number; the eigen-decomposition is
delegated to LAPACK and then verified against an explicit residual bound,
so callers always get either a certified decomposition or an exception.
"""

from __future__ import annotations

import numpy as np

from .. import NumericalFailure


class SingularMatrix(NumericalFailure):
    """Reciprocal condition number underflowed the singularity threshold."""


class NotConverged(NumericalFailure):
    """Eigen-decomposition failed or missed the residual bound."""


class DefectiveMatrix(NumericalFailure):
    """Eigenvector basis is numerically rank deficient."""


# Reciprocal 2-norm condition number below which a system is treated as
# singular.
RCOND_MIN = 1e-12

# Residual certificate for eig: ||A v - w v|| <= EIG_RTOL * ||A|| per pair.
EIG_RTOL = 1e-9


def solve_linear(a, b):
    """Solve a x = b for a square complex matrix.

    Parameters
    ----------
    a : (n, n) array_like
    b : (n,) or (n, k) array_like

    Raises
    ------
    SingularMatrix
        If the smallest singular value of ``a`` falls below ``RCOND_MIN``
        times the largest, i.e. the system has no trustworthy solution.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")

    svals = np.linalg.svd(a, compute_uv=False)
    if svals[0] == 0.0:
        raise SingularMatrix("zero matrix")
    if svals[-1] < RCOND_MIN * svals[0]:
        raise SingularMatrix(
            f"reciprocal condition {svals[-1] / svals[0]:.3e} below {RCOND_MIN:.0e}"
        )
    return np.linalg.solve(a, b)


def eig(a):
    """Eigenvalues and unit-norm right eigenvectors of a complex matrix.

    Returns
    -------
    values : (n,) complex ndarray
    vectors : (n, n) complex ndarray
        Column ``vectors[:, i]`` belongs to ``values[i]``, normalized to
        unit 2-norm.

    Raises
    ------
    NotConverged
        If the QR iteration fails or a pair misses the residual bound
        ``||A v - w v|| <= EIG_RTOL * ||A||``.
    DefectiveMatrix
        If the eigenvector matrix is numerically rank deficient, i.e. the
        matrix is defective and cannot be diagonalized.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(str(exc)) from exc

    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0.0):
        raise NotConverged("zero eigenvector returned")
    vectors = vectors / norms

    norm_a = np.linalg.norm(a, 2)
    residual = np.linalg.norm(a @ vectors - vectors * values, axis=0)
    bound = EIG_RTOL * max(norm_a, np.finfo(float).tiny)
    if np.any(residual > bound):
        raise NotConverged(
            f"residual {np.max(residual):.3e} exceeds {bound:.3e}"
        )

    # Condition of the eigenvector basis flags defectiveness (a defective
    # matrix has no complete basis; numerically the basis collapses).
    svals = np.linalg.svd(vectors, compute_uv=False)
    if svals[-1] < 1e-9 * svals[0]:
        raise DefectiveMatrix(
            f"eigenvector basis condition {svals[0] / svals[-1]:.3e}"
        )
    return values, vectors
