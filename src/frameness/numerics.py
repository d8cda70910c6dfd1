"""Shared thresholds, the input readers, the one density check and the trial streams.

Matrices are plain ``numpy`` arrays of complex128, capped at ``MAX_DIM``.
The density check makes one ``numpy.linalg.eigh`` call per distinct matrix,
kept across calls, and its eigenpairs feed the qubit closed forms and the
convex roof. The trial streams are one PCG64 per seed and stream index,
addressed by offset: a batch of trials advances each stream once and reads
its normals in one draw.
"""

from __future__ import annotations

import functools
import numbers
import reprlib
from typing import Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .errors import BadParameter, FramenessError, InvalidDensity

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


class _Shown(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than Python turns into text
            return f"<int of {x.bit_length()} bits>"


def shown(value, maxlong: int = 40) -> str:
    """``value`` as an error message echoes it, in at most 100 characters.

    ``reprlib`` shortens it: six items of a list, tuple or set, four of a
    dict, 30 characters of a string, ``maxlong`` of an int and 100 of any
    other value. An int too long to turn into text shows its size in bits,
    and a longer whole keeps its first 48 and last 49 characters. It is
    called only to raise, so no accepted input pays for it.
    """
    short = _Shown()
    short.maxlong, short.maxother = maxlong, 100
    text = short.repr(value)
    return text if len(text) <= 100 else f"{text[:48]}...{text[-49:]}"


def instance(value, kind: type, error: type[FramenessError], name: str, label: str | None = None):
    """``value`` if it is a ``kind``, else raise ``error`` naming ``label`` (default ``kind.__name__``)."""
    if not isinstance(value, kind):
        raise error(f"{name} must be a {label or kind.__name__}, got {type(value).__name__}")
    return value


def integer(value, error: type[FramenessError], name: str, lo=None, hi=None) -> int:
    """``value`` as an ``int`` in ``lo..hi``; ``error`` is raised on anything else.

    Only Python and numpy integers are read, never ``bool`` or a float, so
    nothing is truncated: 2.0, 2.5 and ``True`` are all rejected.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {shown(value)}")
    n = int(value)
    if lo is not None and n < lo:
        raise error(f"{name} must be at least {lo}, got {shown(n)}")
    if hi is not None and n > hi:
        raise error(f"{name} must be at most {hi}, got {shown(n)}")
    return n


def number(value, error: type[FramenessError], name: str, real: bool = True):
    """``value`` if it is a ``numbers.Number`` other than ``bool``, else raise ``error``.

    Strings and bytes are never parsed: ``"0.5"`` is rejected, not read as 0.5.
    Complex values are rejected unless ``real`` is false.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        raise error(f"{name} must be a number, got {shown(value)}")
    if real and isinstance(value, (complex, np.complexfloating)):
        raise error(f"{name} must be a real number, got {shown(value)}")
    return value


def array(values, error: type[FramenessError], name: str, real: bool = True) -> np.ndarray:
    """``values`` as a float64 array of any shape, complex128 unless ``real``.

    An ``ndarray`` of ints or floats (or complex numbers, unless ``real``) is
    converted whole; anything else is read entry by entry through :func:`number`.
    Ragged nesting and integers beyond the float range also raise ``error``.
    """
    dtype = np.float64 if real else np.complex128
    if isinstance(values, np.ndarray) and values.dtype.kind in ("iuf" if real else "iufc"):
        return np.asarray(values, dtype=dtype)
    try:
        entries = np.asarray(values, dtype=object)
    except ValueError:  # arrays of differing shapes
        raise error(f"ragged nesting of {name} values") from None
    try:
        return np.array([number(v, error, name, real) for v in entries.flat], dtype).reshape(entries.shape)
    except OverflowError:
        raise error(f"{name} out of float range") from None


def in_order_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """The float64 sum of ``a`` over ``axis``: its slices added to 0.0 in index order.

    It rounds as a Python loop over the slices rounds, whatever their number.
    numpy's own ``a.sum(axis)`` does so below 8 entries, so it sums those;
    from 8 on it adds the entries of the last axis pairwise instead.
    """
    if a.shape[axis] < 8:
        return a.sum(axis)
    axis %= a.ndim
    lead = (slice(None),) * axis
    total = np.zeros(a.shape[:axis] + a.shape[axis + 1 :])
    for j in range(a.shape[axis]):
        total += a[lead + (j,)]
    return total


def as_complex_matrix(a: np.ndarray) -> np.ndarray:
    """Read a square complex128 matrix, enforcing the size cap."""
    m = array(a, InvalidDensity, "matrix entry", real=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDensity(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise InvalidDensity("empty matrix")
    if m.shape[0] > MAX_DIM:
        raise InvalidDensity(f"dimension {m.shape[0]} exceeds the cap of {MAX_DIM}")
    return m


def _checked_density(rho: np.ndarray, dim: int | None = None) -> tuple[np.ndarray, ...]:
    """The one density check: ``rho`` read, with its descending eigenpairs (read-only).

    A wrong size raises before the spectrum: it costs no ``eigh`` and leaves the memo.
    """
    m = as_complex_matrix(rho)
    if dim is not None and m.shape[0] != dim:
        raise InvalidDensity(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    return (m, *_density_spectrum(m.shape[0], m.tobytes()))


# Keyed on the matrix's bytes, so consecutive calls on one density (the three
# qubit closed forms of a state) share one eigh. Equal bytes are an equal
# matrix, so a hit returns what a fresh eigh would; an edited array has other
# bytes, and a rejected matrix raises, so it is never kept. One entry, as for
# the verify batch: its key and eigenvectors take about 130 KB at MAX_DIM.
@functools.lru_cache(maxsize=1)
def _density_spectrum(n: int, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    m = np.frombuffer(data, np.complex128).reshape(n, n)
    if not np.isfinite(m).all():
        raise InvalidDensity("density matrix has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > H_TOL:
        raise InvalidDensity("density matrix is not Hermitian")
    w, v = np.linalg.eigh(m)
    if w[0] < -P_TOL:
        raise InvalidDensity(f"density matrix has eigenvalue {w[0]:.3e}")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > SUM_TOL:
        raise InvalidDensity(f"trace {tr!r} is not 1")
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    w.flags.writeable = v.flags.writeable = False
    return w, v


def validate_density(rho: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Return ``rho`` as a checked density matrix or raise :class:`InvalidDensity`.

    A ``dim`` other than ``None`` must be an integer in 1..``MAX_DIM``, else
    :class:`BadParameter` is raised.
    """
    if dim is not None:
        dim = integer(dim, BadParameter, "dimension", 1, MAX_DIM)
    return _checked_density(rho, dim)[0]


def trial_normals(seed: int, trials: range, sizes: Sequence[int]) -> list[np.ndarray]:
    """Row ``i`` of array ``k`` holds the ``sizes[k]`` normals of trial ``trials[i]`` on stream ``k``.

    Stream k of ``seed`` is ``PCG64(SeedSequence([seed, k]))``, and trial t's
    n normals come from its n 64-bit words at offset ``t * n``. The stream
    is advanced to the first trial and read as ``(T, n)`` uniforms in [0, 1),
    one word each. Box-Muller turns uniforms u and v at columns j and
    j + n/2 of a row into its normals r cos(theta) and r sin(theta) at those
    columns, with r = sqrt(-2 log(1 - u)) and theta = pi (2v - 1). So a row
    depends on its trial alone: a one-trial range gives the row of that
    trial in any wider range. Raises
    :class:`BadParameter` on a bad seed, a size that is negative or odd, a
    ``trials`` that is not a ``range``, a trial outside 0..2**32-1 or a
    range whose step is not 1; a seed may be any size.
    """
    seed = integer(seed, BadParameter, "seed", 0)
    trials = instance(trials, range, BadParameter, "trials")
    if trials:
        integer(min(trials[0], trials[-1]), BadParameter, "trial", 0)
        integer(max(trials[0], trials[-1]), BadParameter, "trial", hi=2**32 - 1)
    if trials.step != 1:
        raise BadParameter(f"trials must be a range of step 1, got {shown(trials)}")
    sizes = [integer(n, BadParameter, "size", 0) for n in sizes]
    if any(n % 2 for n in sizes):
        raise BadParameter(f"sizes must be even, got {shown(sizes)}")
    out = []
    for k, n in enumerate(sizes):
        bits = PCG64(SeedSequence([seed, k]))
        bits.advance(trials.start * n if trials else 0)
        u = Generator(bits).random((len(trials), n))
        r = np.sqrt(-2.0 * np.log1p(-u[:, : n // 2]))
        theta = np.pi * (2.0 * u[:, n // 2 :] - 1.0)
        out.append(np.concatenate((r * np.cos(theta), r * np.sin(theta)), axis=1))
    return out
