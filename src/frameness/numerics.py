"""Dense complex linear-algebra primitives.

Matrices are plain ``numpy`` arrays of complex128. Eigenvalue work is
delegated to LAPACK through ``numpy.linalg``; the functions here add the
tolerance bookkeeping (hermiticity checks, clamping of slightly negative
eigenvalues) that the rest of the package relies on.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDensity, NonHermitianInput, NotPositive

# The package's acceptance thresholds; no call takes a tolerance argument.
# Numerical zero: entries above -ZERO_TOL count as nonnegative, weights,
# probabilities and eigenvalues at or below it count as zero, and weight
# vectors must sum to 1 within it.
ZERO_TOL = 1e-12
# How far a total that must be 1 may miss it: a density's trace, a
# probability vector's sum, a channel's per-sector completeness and a
# state's norm.
SUM_TOL = 1e-9
# Largest accepted entry of |a - a^dagger|, and the lowest accepted
# eigenvalue (-P_TOL) of a positive semidefinite matrix.
H_TOL = 1e-10
P_TOL = 1e-10
MAX_DIM = 64


def as_complex_matrix(a: np.ndarray) -> np.ndarray:
    """Coerce to a square complex128 matrix, enforcing the size cap."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("empty matrix")
    if m.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds the cap of {MAX_DIM}")
    return m


def is_hermitian(a: np.ndarray) -> bool:
    m = as_complex_matrix(a)
    return bool(np.max(np.abs(m - m.conj().T)) <= H_TOL)


def is_psd(a: np.ndarray) -> bool:
    m = as_complex_matrix(a)
    if not is_hermitian(m):
        return False
    w = np.linalg.eigvalsh(m)
    return bool(w.min() >= -P_TOL)


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of a Hermitian matrix.

    Raises :class:`NonHermitianInput` if any entry of ``a - a†`` exceeds ``H_TOL``.
    """
    m = as_complex_matrix(a)
    dev = np.max(np.abs(m - m.conj().T))
    if dev > H_TOL:
        raise NonHermitianInput(f"matrix deviates from Hermitian by {dev:.3e}")
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``[-P_TOL, 0)`` are clamped to zero before the root is
    taken; anything below ``-P_TOL`` raises :class:`NotPositive`.
    """
    w, v = hermitian_eig(a)
    if w.min() < -P_TOL:
        raise NotPositive(f"eigenvalue {w.min():.3e} below -{P_TOL:.1e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _product_eig_sqrt_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The 2x2 case of product_eig_sqrt. Recombining trace and determinant
    # at the root level keeps a zero eigenvalue at ~1e-16 instead of the
    # sqrt-amplified ~1e-8 a generic eigensolver leaves on rank-1 products.
    t = max(float(np.trace(a @ b).real), 0.0)
    det_a = float((a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real)
    det_b = float((b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]).real)
    root = np.sqrt(max(det_a, 0.0) * max(det_b, 0.0))
    s = np.sqrt(max(t + 2.0 * root, 0.0))
    g = np.sqrt(max(t - 2.0 * root, 0.0))
    return np.array([0.5 * (s + g), 0.5 * (s - g)])


def product_eig_sqrt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of ``a @ b``, sorted descending.

    Both inputs must be positive semidefinite; the product then has real
    nonnegative spectrum (it is similar to ``sqrt(a) b sqrt(a)``), so the
    general eigensolver output is taken realpart-first and clamped at zero.
    This is the fast path; callers cross-check it against the explicit
    matrix-root route when the stakes warrant it.
    """
    ma = as_complex_matrix(a)
    mb = as_complex_matrix(b)
    if not is_psd(ma):
        raise NotPositive("first factor is not positive semidefinite")
    if not is_psd(mb):
        raise NotPositive("second factor is not positive semidefinite")
    if ma.shape[0] == 2:
        return _product_eig_sqrt_2x2(ma, mb)
    ev = np.linalg.eigvals(ma @ mb)
    ev = np.clip(ev.real, 0.0, None)
    return np.sqrt(np.sort(ev)[::-1])


def _checked_density(rho: np.ndarray, dim: int | None = None) -> tuple[np.ndarray, ...]:
    """The one density check: ``rho`` checked, with its descending eigenpairs."""
    m = as_complex_matrix(rho)
    if dim is not None and m.shape[0] != dim:
        raise InvalidDensity(f"expected dimension {dim}, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise InvalidDensity("density matrix has non-finite entries")
    if not is_hermitian(m):
        raise InvalidDensity("density matrix is not Hermitian")
    w, v = np.linalg.eigh(m)
    if w[0] < -P_TOL:
        raise InvalidDensity(f"density matrix has eigenvalue {w[0]:.3e}")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > SUM_TOL:
        raise InvalidDensity(f"trace {tr!r} is not 1")
    return m, w[::-1].copy(), v[:, ::-1].copy()


def validate_density(rho: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Return ``rho`` as a checked density matrix or raise :class:`InvalidDensity`."""
    return _checked_density(rho, dim)[0]
