"""States under a U(1) superselection rule.

A pure state decomposes over charge sectors labelled by nonnegative integers
``n`` inside a fixed ambient window ``0..dim-1``. Sectors may carry extra
multiplicity amplitudes at ingestion; :func:`standard_form` collapses them to
the one pure-state type, :class:`StandardState`: per-sector squared norms.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, FramenessError, InvalidDensity, InvalidState
from .numerics import MAX_DIM, SUM_TOL, ZERO_TOL, array, as_complex_matrix, instance, integer, number, shown, validate_density


@dataclass(frozen=True)
class StandardState:
    """Standard form of a pure state: per-sector weights on ``0..dim-1``."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = array(self.weights, InvalidState, "weight")
        if w.ndim != 1 or w.size == 0:
            raise InvalidState("weights must be a nonempty 1-D sequence")
        object.__setattr__(self, "weights", checked_weights(w))

    @property
    def dim(self) -> int:
        return int(self.weights.size)

    def vector(self) -> np.ndarray:
        """Representative amplitude vector with real entries sqrt(weight)."""
        return np.sqrt(self.weights).astype(np.complex128)

    def projector(self) -> np.ndarray:
        v = self.vector()
        return np.outer(v, v.conj())


def checked_weights(weights: np.ndarray) -> np.ndarray:
    """Validate weight vectors along the last axis; return them clipped at 0.

    Every row must be finite, nonnegative up to ``ZERO_TOL`` and sum to 1
    within ``ZERO_TOL``; otherwise :class:`InvalidState` is raised.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not np.isfinite(w).all():
        raise InvalidState("weights must be finite")
    if w.size and w.min() < -ZERO_TOL:
        raise InvalidState(f"negative weight {w.min():.3e}")
    with np.errstate(over="ignore"):  # finite weights may still sum to inf
        totals = w.sum(axis=-1)
    off = abs(totals - 1.0) > ZERO_TOL
    if off.any():
        raise InvalidState(f"weights sum to {float(np.extract(off, totals)[0])!r}, expected 1")
    return np.clip(w, 0.0, None)


def _check_probabilities(probs: np.ndarray) -> None:
    """Raise unless every row along the last axis is a probability vector.

    Entries must be finite and above ``-ZERO_TOL``, and each row must sum
    to 1 within ``SUM_TOL``; otherwise :class:`InvalidState` is raised.
    """
    if not np.isfinite(probs).all():
        raise InvalidState("probabilities must be finite")
    if probs.min() < -ZERO_TOL:
        raise InvalidState(f"negative probability {probs.min():.3e}")
    totals = probs.sum(axis=-1)
    off = abs(totals - 1.0) > SUM_TOL
    if off.any():
        raise InvalidState(f"probabilities sum to {float(np.extract(off, totals)[0])!r}")


@dataclass(frozen=True)
class BipartitePureState:
    """Charge-correlated two-party pure state with fixed total charge.

    Each key of ``amplitudes`` is a pair of integers ``(n, r)``: a system
    charge ``n`` in ``0..system_dim-1`` and a reference charge ``r >= 0``
    with ``n + r == total``. Each amplitude is a finite number, and the norm
    is 1 within ``SUM_TOL``; otherwise :class:`InvalidState` is raised.
    """

    amplitudes: Mapping[tuple[int, int], complex]
    total: int
    system_dim: int

    def __post_init__(self) -> None:
        system_dim = integer(self.system_dim, InvalidState, "system dimension", 1, MAX_DIM)
        total = integer(self.total, InvalidState, "total charge", 0, MAX_DIM - 1)
        if not isinstance(self.amplitudes, Mapping):
            raise InvalidState(f"amplitudes must map (n, r) pairs to numbers, got {shown(self.amplitudes)}")
        keys = []
        for key in self.amplitudes:
            try:
                n, r = key
            except (TypeError, ValueError):
                raise InvalidState(f"amplitude key {shown(key)} is not a pair (n, r)") from None
            n = integer(n, InvalidState, "system charge", 0, system_dim - 1)
            r = integer(r, InvalidState, "reference charge", 0)
            if n + r != total:
                raise InvalidState(f"amplitude key {shown(key)} has total charge {shown(n + r)}, not {total}")
            keys.append((n, r))
        amps = array(list(self.amplitudes.values()), InvalidState, "amplitude", real=False)
        if amps.shape != (len(keys),) or not np.isfinite(amps).all():
            raise InvalidState("each amplitude must be a finite number")
        norm = float(np.sqrt(np.vdot(amps, amps).real))
        if abs(norm - 1.0) > SUM_TOL:
            raise InvalidState(f"state norm {norm!r} deviates from 1")
        object.__setattr__(self, "amplitudes", dict(zip(keys, amps.tolist())))
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "system_dim", system_dim)

    def reduced_system(self) -> np.ndarray:
        return self._reduced(0, self.system_dim)

    def reduced_reference(self) -> np.ndarray:
        return self._reduced(1, self.total + 1)

    def _reduced(self, keep: int, d: int) -> np.ndarray:
        # The total charge is sharp, so the traced-out label fixes the kept one: rho is diagonal.
        rho = np.zeros((d, d), dtype=np.complex128)
        for x, a in self.amplitudes.items():
            rho[x[keep], x[keep]] = a * np.conj(a)
        return rho


def standard_form(sectors: Mapping[int, Sequence[complex]], dim: int) -> StandardState:
    """Collapse amplitude blocks per charge sector to per-sector weights.

    ``sectors`` maps each label ``n`` in ``0..dim-1`` to the amplitudes over
    that sector's multiplicity space. Raises :class:`InvalidState` on a bad
    label, block or ``dim``, or if the norm deviates from 1 beyond
    ``SUM_TOL``; the weights are renormalized exactly.
    """
    dim = integer(dim, InvalidState, "dimension", 1, MAX_DIM)
    if not isinstance(sectors, Mapping):
        raise InvalidState(f"sectors must map labels to amplitudes, got {shown(sectors)}")
    if not sectors:
        raise InvalidState("state needs at least one sector")
    w = np.zeros(dim)
    total = 0.0  # summed over the blocks in the order given
    for n, amps in sectors.items():
        n = integer(n, InvalidState, "sector", 0, dim - 1)
        vec = np.atleast_1d(array(amps, InvalidState, "amplitude", real=False))
        if vec.ndim != 1 or vec.size == 0:
            raise InvalidState(f"sector {n} needs a nonempty amplitude vector")
        w[n] = np.vdot(vec, vec).real
        total += w[n]
    if abs(np.sqrt(total) - 1.0) > SUM_TOL:
        raise InvalidState(f"state norm {float(np.sqrt(total))!r} deviates from 1")
    return StandardState(w / total)


def spectrum(state: StandardState) -> tuple[int, ...]:
    """Sector labels carrying weight above ``ZERO_TOL``, ascending."""
    state = instance(state, StandardState, InvalidState, "state")
    return tuple(int(n) for n in np.flatnonzero(state.weights > ZERO_TOL))


def is_gapless(support: Sequence[int]) -> bool:
    """True when the set of labels ``support``, in any order, is a contiguous run of integers."""
    labels = {integer(n, InvalidState, "sector label") for n in support}
    if not labels:
        raise InvalidState("spectrum support is empty")
    return max(labels) - min(labels) + 1 == len(labels)


def twirl(rho: np.ndarray, sector_of: Sequence[int] | None = None) -> np.ndarray:
    """Dephase a density matrix in the charge basis.

    Coherences between distinct sectors are erased; blocks within a sector
    survive. By default basis index ``i`` carries charge ``i``; pass
    ``sector_of`` to assign charges when basis states share a sector.
    """
    m = validate_density(rho)
    d = m.shape[0]
    try:
        labels = np.arange(d) if sector_of is None else np.asarray(sector_of, dtype=object)
    except ValueError:  # arrays of differing shapes
        raise BadParameter(f"sector label must be an integer, got {shown(sector_of)}") from None
    if labels.shape != (d,):
        raise BadParameter(f"sector labels must have length {d}")
    labels = np.array([integer(n, BadParameter, "sector label") for n in labels])
    mask = labels[:, None] == labels[None, :]
    return np.where(mask, m, 0.0)


def purify(state: StandardState) -> BipartitePureState:
    """Charge-correlated purification against a reference register.

    The reference holds the deficit to the top occupied charge, so the
    joint state has a sharp total charge and its system marginal equals
    the dephased input.
    """
    support = spectrum(state)
    t = support[-1]
    amps = {(n, t - n): complex(np.sqrt(state.weights[n])) for n in support}
    return BipartitePureState(amps, total=t, system_dim=state.dim)


def majorizes(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when sorted prefix sums of ``a`` dominate those of ``b``.

    Both inputs must be probability vectors; the shorter one is padded
    with zeros. Prefix sums are compared within ``ZERO_TOL``.
    """
    vecs = []
    for seq in (a, b):
        v = array(seq, InvalidState, "probability")
        if v.ndim != 1 or v.size == 0:
            raise InvalidState(f"probabilities must be a nonempty 1-D sequence, got shape {v.shape}")
        _check_probabilities(v)
        vecs.append(v)
    va, vb = vecs
    size = max(va.size, vb.size)
    va = np.pad(va, (0, size - va.size))
    vb = np.pad(vb, (0, size - vb.size))
    pa = np.cumsum(np.sort(va)[::-1])
    pb = np.cumsum(np.sort(vb)[::-1])
    return bool(np.all(pa >= pb - ZERO_TOL))


def random_weights(dim: int, draws: np.ndarray) -> np.ndarray:
    """Standard forms of Haar-uniform pure states, one per row of ``draws``.

    Each row of the ``(T, 2 * dim)`` normal draws holds the real parts, then
    the imaginary parts, of the state's amplitudes.
    """
    w = np.abs(draws[:, :dim] + 1j * draws[:, dim:]) ** 2
    return checked_weights(w / w.sum(axis=-1, keepdims=True))


def random_standard_state(dim: int, rng: np.random.Generator) -> StandardState:
    """Standard form of a Haar-uniform pure state on the ambient sphere."""
    dim = integer(dim, BadParameter, "dimension", 1, MAX_DIM)
    rng = instance(rng, np.random.Generator, BadParameter, "rng", "numpy.random.Generator")
    return StandardState(random_weights(dim, rng.normal(size=(1, 2 * dim)))[0])


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> np.ndarray:
    """Random density matrix from a complex Gaussian factor of given rank."""
    dim = integer(dim, BadParameter, "dimension", 1, MAX_DIM)
    r = dim if rank is None else integer(rank, BadParameter, "rank", 1, dim)
    rng = instance(rng, np.random.Generator, BadParameter, "rng", "numpy.random.Generator")
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _complex_from_pair(pair: Sequence[float], error: type[FramenessError]) -> complex:
    """``complex(re, im)`` of a ``[re, im]`` pair of real numbers, else raise ``error``."""
    try:
        re, im = pair
        return complex(float(number(re, error, "entry")), float(number(im, error, "entry")))
    except (TypeError, ValueError, OverflowError):
        raise error(f"entry {shown(pair)} is not a [re, im] pair of numbers") from None


def state_from_dict(data: dict) -> StandardState:
    """Build a state from its JSON-level dictionary form, in either file form.

    ``dim`` and each sector's ``n`` must be integers, no ``n`` repeated, and
    every amplitude and weight a real number; a ``dim`` next to ``weights``
    must equal their number. Else :class:`InvalidState` is raised.
    """
    if "sectors" in data:
        if "dim" not in data:
            raise InvalidState("state dictionary needs a 'dim' key")
        sectors = {}
        try:
            for block in data["sectors"]:
                n = integer(block["n"], InvalidState, "sector")
                if n in sectors:
                    raise InvalidState(f"sector {shown(n)} is given twice")
                sectors[n] = np.array([_complex_from_pair(p, InvalidState) for p in block["amplitudes"]])
        except (KeyError, TypeError):
            raise InvalidState(
                "each sector needs an integer 'n' and 'amplitudes' of [re, im] pairs"
            ) from None
        return standard_form(sectors, data["dim"])
    if "weights" in data:
        state = StandardState(data["weights"])
        if "dim" in data and integer(data["dim"], InvalidState, "dimension") != state.dim:
            raise InvalidState(f"dimension {shown(data['dim'])} does not match the {state.dim} weights")
        return state
    raise InvalidState("state dictionary needs a 'sectors' or 'weights' key")


def _density_matrix(data: dict) -> np.ndarray:
    """The matrix of a density dictionary, shape-checked but not validated."""
    for key in ("dim", "matrix"):
        if key not in data:
            raise InvalidDensity(f"density dictionary needs a {key!r} key")
    dim = integer(data["dim"], InvalidDensity, "dimension", 1, MAX_DIM)
    try:
        rows = [list(row) for row in data["matrix"]]
    except TypeError:
        raise InvalidDensity("matrix must be a list of rows") from None
    if len({len(row) for row in rows}) > 1:
        raise InvalidDensity("matrix rows differ in length")
    m = np.array([[_complex_from_pair(e, InvalidDensity) for e in row] for row in rows], complex)
    if m.shape != (dim, dim):
        raise InvalidDensity(f"matrix shape {m.shape} does not match dim {dim}")
    return m


def density_from_dict(data: dict) -> np.ndarray:
    return validate_density(_density_matrix(data))


def density_to_dict(rho: np.ndarray) -> dict:
    m = as_complex_matrix(rho)
    return {
        "dim": int(m.shape[0]),
        "matrix": [
            [[float(z.real), float(z.imag)] for z in row] for row in m
        ],
    }
