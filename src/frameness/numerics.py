"""Shared thresholds and the one density check.

Matrices are plain ``numpy`` arrays of complex128, capped at ``MAX_DIM``.
The density check makes one ``numpy.linalg.eigh`` call, and its eigenpairs
feed the qubit closed forms and the convex roof.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDensity

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
        raise InvalidDensity(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise InvalidDensity("empty matrix")
    if m.shape[0] > MAX_DIM:
        raise InvalidDensity(f"dimension {m.shape[0]} exceeds the cap of {MAX_DIM}")
    return m


def is_hermitian(a: np.ndarray) -> bool:
    m = as_complex_matrix(a)
    return bool(np.max(np.abs(m - m.conj().T)) <= H_TOL)


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
