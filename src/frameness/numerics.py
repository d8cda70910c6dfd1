"""Shared thresholds, the input readers, the one density check and the trial streams.

Matrices are plain ``numpy`` arrays of complex128, capped at ``MAX_DIM``.
The density check makes one ``numpy.linalg.eigh`` call per distinct matrix,
kept across calls, and its eigenpairs feed the qubit closed forms and the
convex roof. The trial streams hash their numpy seeds for a whole batch as
array arithmetic, numpy seeds each stream's PCG64 from the hashed words, and
the draws of the last seed and trial range are kept and served as prefixes.
"""

from __future__ import annotations

import functools
import numbers
import reprlib
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence splits it: little-endian 32-bit words, 0 as ``[0]``."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The ``count + 1`` successive hash constants, as a uint32 column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (values ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``SeedSequence(entropy[:, i]).generate_state(4, np.uint64)``.

    ``entropy`` is ``(L, N)`` uint32 with ``L >= 4``; zero words padding an
    entropy to the pool's 4 words do not change its hash. The hash of each
    pool word runs on all N columns at once; the ``(N, 4)`` rows are C-contiguous.
    """
    c = _hash_consts(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hashmix(entropy[:4], c[:4], c[1:5])
    j = 4
    # Every pool word is mixed into the three others, then each further
    # entropy word into all four, as SeedSequence.mix_entropy does.
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], c[j : j + 3], c[j + 1 : j + 4]))
        j += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, c[j : j + 4], c[j + 1 : j + 5]))
        j += 4
    b = _hash_consts(_INIT_B, _MULT_B, 8)
    words = _hashmix(np.tile(pool, (2, 1)), b[:8], b[1:]).astype(np.uint64)
    # Each uint64 word is two hashed uint32 words, low first.
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


class _Words(ISeedSequence):
    """PCG64's seed: it asks for 4 uint64 words and reads the buffer of ``words``, a C-contiguous row."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# The draws of the last (seed, trials) key: one read-only (T, width) array per
# stream index k, whose first n columns are the stream's first n normals.
# seeded_normals serves prefixes of it and publishes a new (key, draws) pair in
# one assignment, so a concurrent caller never pairs a key with another's draws
# (two publishing at once may drop one's growth, which costs only a redraw).
# No Generator is kept (about 1.5 KB each): a wider request redraws its k.
_tape: tuple[tuple[int, range] | None, tuple[np.ndarray, ...]] = (None, ())


def seeded_normals(seed: int, trials: range, sizes: Sequence[int]) -> list[np.ndarray]:
    """Row ``i`` of array ``k`` is ``default_rng([seed, trials[i], k]).normal(size=sizes[k])``.

    The rows equal those draws bit for bit, as read-only views. The draws of
    the last ``(seed, trials)`` are kept for each k, and a request no wider
    than them is served as their prefix. A wider one redraws that k at twice
    the kept width or more, so the kept draws stay at most twice the widest
    request; a new ``(seed, trials)`` replaces them. A redraw hashes every
    missing (trial, k) stream at once as uint32 array arithmetic, and numpy
    seeds each stream's PCG64 from the hashed words. A size of 0 draws
    nothing. Raises :class:`BadParameter` on a bad seed or size, a
    ``trials`` that is not a ``range`` or a trial outside 0..2**32-1 (one
    SeedSequence entropy word; a seed may be any size).
    """
    global _tape
    seed = integer(seed, BadParameter, "seed", 0)
    trials = instance(trials, range, BadParameter, "trials")
    if trials:
        integer(min(trials[0], trials[-1]), BadParameter, "trial", 0)
        integer(max(trials[0], trials[-1]), BadParameter, "trial", hi=_MASK32)
    sizes = [integer(n, BadParameter, "size", 0) for n in sizes]
    key = (seed, trials)
    tape_key, draws = _tape
    draws = list(draws) if tape_key == key else []
    if len(draws) < len(sizes):
        empty = np.empty((len(trials), 0))
        empty.flags.writeable = False
        draws += [empty] * (len(sizes) - len(draws))
    grow = {k: max(n, 2 * draws[k].shape[1]) for k, n in enumerate(sizes) if n > draws[k].shape[1]}
    if grow:
        for k, fresh in zip(grow, _draw(seed, trials, grow)):
            fresh.flags.writeable = False
            draws[k] = fresh
        _tape = key, tuple(draws)
    return [draws[k][:, :n] for k, n in enumerate(sizes)]


def _draw(seed: int, trials: range, widths: dict[int, int]) -> list[np.ndarray]:
    """The first ``widths[k]`` normals of each ``[seed, t, k]`` stream, one ``(T, width)`` array per k.

    Each stream's entropy is the seed's words, the one word of ``t``, then ``k``.
    """
    out = [np.empty((len(trials), n)) for n in widths.values()]
    seed_words = _words(seed)
    s = len(seed_words)
    entropy = np.zeros((max(4, s + 2), len(widths), len(trials)), dtype=np.uint32)
    entropy[:s] = np.array(seed_words, dtype=np.uint32)[:, None, None]
    entropy[s] = np.arange(trials.start, trials.stop, trials.step)
    entropy[s + 1] = np.array(list(widths), dtype=np.uint32)[:, None]
    for col, row in enumerate(_seed_words(entropy.reshape(len(entropy), -1))):
        j, i = divmod(col, len(trials))
        np.random.Generator(np.random.PCG64(_Words(row))).standard_normal(out=out[j][i])
    return out
