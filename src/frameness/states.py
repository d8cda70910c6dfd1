"""States under a U(1) superselection rule.

A pure state decomposes over charge sectors labelled by nonnegative integers
``n`` inside a fixed ambient window ``0..dim-1``. Sectors may carry extra
multiplicity amplitudes at ingestion, but every downstream computation uses
the standard form: the vector of per-sector squared norms.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InvalidDensity,
    LengthMismatch,
    NotNormalized,
    NotProbabilityVector,
)
from .numerics import SUM_TOL, ZERO_TOL, validate_density


@dataclass(frozen=True)
class SectoredPureState:
    """Pure state given as complex amplitude blocks per charge sector.

    ``sectors`` maps a sector label ``n`` to the amplitude vector over that
    sector's multiplicity space. Labels must lie in ``0..dim-1``.
    """

    sectors: Mapping[int, np.ndarray]
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        clean: dict[int, np.ndarray] = {}
        for n, amps in self.sectors.items():
            n = int(n)
            if not 0 <= n < self.dim:
                raise ValueError(f"sector label {n} outside window 0..{self.dim - 1}")
            vec = np.atleast_1d(np.asarray(amps, dtype=np.complex128))
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError(f"sector {n} needs a nonempty amplitude vector")
            clean[n] = vec
        if not clean:
            raise ValueError("state needs at least one sector")
        object.__setattr__(self, "sectors", clean)

    def squared_norm(self) -> float:
        return float(sum(np.vdot(v, v).real for v in self.sectors.values()))


@dataclass(frozen=True)
class StandardState:
    """Standard form of a pure state: per-sector weights on ``0..dim-1``."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D sequence")
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
    within ``ZERO_TOL``; otherwise :class:`NotNormalized` is raised.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not np.isfinite(w).all():
        raise NotNormalized("weights must be finite")
    if w.size and w.min() < -ZERO_TOL:
        raise NotNormalized(f"negative weight {w.min():.3e}")
    totals = w.sum(axis=-1)
    off = abs(totals - 1.0) > ZERO_TOL
    if off.any():
        raise NotNormalized(f"weights sum to {np.extract(off, totals)[0]!r}, expected 1")
    return np.clip(w, 0.0, None)


def _check_probabilities(probs: np.ndarray) -> None:
    """Raise unless every row along the last axis is a probability vector.

    Entries must be finite and above ``-ZERO_TOL``, and each row must sum
    to 1 within ``SUM_TOL``; otherwise :class:`NotProbabilityVector` is raised.
    """
    if not np.isfinite(probs).all():
        raise NotProbabilityVector("probabilities must be finite")
    if probs.min() < -ZERO_TOL:
        raise NotProbabilityVector(f"negative probability {probs.min():.3e}")
    totals = probs.sum(axis=-1)
    off = abs(totals - 1.0) > SUM_TOL
    if off.any():
        raise NotProbabilityVector(f"probabilities sum to {np.extract(off, totals)[0]!r}")


@dataclass(frozen=True)
class NumberSpectrum:
    """Occupied sector labels of a state, sorted ascending."""

    support: tuple[int, ...]

    @property
    def n_min(self) -> int:
        return self.support[0]

    @property
    def n_max(self) -> int:
        return self.support[-1]


@dataclass(frozen=True)
class BipartitePureState:
    """Charge-correlated two-party pure state with fixed total charge."""

    amplitudes: Mapping[tuple[int, int], complex]
    total: int
    system_dim: int

    def reduced_system(self) -> np.ndarray:
        rho = np.zeros((self.system_dim, self.system_dim), dtype=np.complex128)
        for (ns, nr), a in self.amplitudes.items():
            for (ms, mr), b in self.amplitudes.items():
                if nr == mr:
                    rho[ns, ms] += a * np.conj(b)
        return rho

    def reduced_reference(self) -> np.ndarray:
        d = self.total + 1
        rho = np.zeros((d, d), dtype=np.complex128)
        for (ns, nr), a in self.amplitudes.items():
            for (ms, mr), b in self.amplitudes.items():
                if ns == ms:
                    rho[nr, mr] += a * np.conj(b)
        return rho


def standard_form(state: SectoredPureState) -> StandardState:
    """Collapse multiplicity amplitudes to per-sector weights.

    Raises :class:`NotNormalized` if the input norm deviates from 1 beyond
    ``SUM_TOL``; the output is renormalized exactly.
    """
    total = state.squared_norm()
    if abs(np.sqrt(total) - 1.0) > SUM_TOL:
        raise NotNormalized(f"state norm {np.sqrt(total)!r} deviates from 1")
    w = np.zeros(state.dim)
    for n, amps in state.sectors.items():
        w[n] = np.vdot(amps, amps).real
    return StandardState(w / total)


def spectrum(state: StandardState) -> NumberSpectrum:
    """Sector labels carrying weight above ``ZERO_TOL``."""
    support = tuple(int(n) for n in np.flatnonzero(state.weights > ZERO_TOL))
    return NumberSpectrum(support)


def is_gapless(spec: NumberSpectrum) -> bool:
    """True when the support is a contiguous run of integers."""
    if not spec.support:
        raise ValueError("spectrum support is empty")
    return spec.n_max - spec.n_min + 1 == len(spec.support)


def twirl(rho: np.ndarray, sector_of: Sequence[int] | None = None) -> np.ndarray:
    """Dephase a density matrix in the charge basis.

    Coherences between distinct sectors are erased; blocks within a sector
    survive. By default basis index ``i`` carries charge ``i``; pass
    ``sector_of`` to assign charges when basis states share a sector.
    """
    m = validate_density(rho)
    d = m.shape[0]
    labels = np.arange(d) if sector_of is None else np.asarray(sector_of, dtype=int)
    if labels.shape != (d,):
        raise ValueError(f"sector labels must have length {d}")
    mask = labels[:, None] == labels[None, :]
    return np.where(mask, m, 0.0)


def purify(state: StandardState) -> BipartitePureState:
    """Charge-correlated purification against a reference register.

    The reference holds the deficit to the top occupied charge, so the
    joint state has a sharp total charge and its system marginal equals
    the dephased input.
    """
    spec = spectrum(state)
    t = spec.n_max
    amps = {
        (n, t - n): complex(np.sqrt(state.weights[n])) for n in spec.support
    }
    return BipartitePureState(amps, total=t, system_dim=state.dim)


def majorizes(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when sorted prefix sums of ``a`` dominate those of ``b``.

    Both inputs must be probability vectors; the shorter one is padded
    with zeros. Prefix sums are compared within ``ZERO_TOL``.
    """
    vecs = []
    for seq in (a, b):
        v = np.asarray(seq, dtype=np.float64)
        if v.ndim != 1:
            raise LengthMismatch(f"expected a 1-D sequence, got shape {v.shape}")
        if v.size == 0:
            raise LengthMismatch("empty sequence")
        _check_probabilities(v)
        vecs.append(v)
    va, vb = vecs
    size = max(va.size, vb.size)
    va = np.pad(va, (0, size - va.size))
    vb = np.pad(vb, (0, size - vb.size))
    pa = np.cumsum(np.sort(va)[::-1])
    pb = np.cumsum(np.sort(vb)[::-1])
    return bool(np.all(pa >= pb - ZERO_TOL))


def random_weights(dim: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Standard forms of Haar-uniform pure states, one row per generator.

    Each generator makes one normal draw of ``2 * dim`` values: the real
    parts, then the imaginary parts, of the state's amplitudes.
    """
    draws = np.array([rng.normal(size=2 * dim) for rng in rngs])
    w = np.abs(draws[:, :dim] + 1j * draws[:, dim:]) ** 2
    return checked_weights(w / w.sum(axis=-1, keepdims=True))


def random_standard_state(dim: int, rng: np.random.Generator) -> StandardState:
    """Standard form of a Haar-uniform pure state on the ambient sphere."""
    return StandardState(random_weights(dim, [rng])[0])


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> np.ndarray:
    """Random density matrix from a complex Gaussian factor of given rank."""
    r = dim if rank is None else rank
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _complex_from_pair(pair: Sequence[float]) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def state_from_dict(data: dict) -> SectoredPureState | StandardState:
    """Build a state from its JSON-level dictionary form."""
    if "sectors" in data:
        dim = int(data["dim"])
        sectors = {
            int(block["n"]): np.array(
                [_complex_from_pair(p) for p in block["amplitudes"]]
            )
            for block in data["sectors"]
        }
        return SectoredPureState(sectors, dim)
    if "weights" in data:
        return StandardState(np.asarray(data["weights"], dtype=np.float64))
    raise ValueError("state dictionary needs a 'sectors' or 'weights' key")


def _density_entry(entry: Sequence[float]) -> complex:
    try:
        return _complex_from_pair(entry)
    except (TypeError, ValueError):
        raise InvalidDensity(f"matrix entry {entry!r} is not a [re, im] pair of numbers") from None


def _density_matrix(data: dict) -> np.ndarray:
    """The matrix of a density dictionary, shape-checked but not validated."""
    for key in ("dim", "matrix"):
        if key not in data:
            raise InvalidDensity(f"density dictionary needs a {key!r} key")
    try:
        dim = operator.index(data["dim"])
    except TypeError:
        raise InvalidDensity(f"dim {data['dim']!r} is not an integer") from None
    try:
        rows = [list(row) for row in data["matrix"]]
    except TypeError:
        raise InvalidDensity("matrix must be a list of rows") from None
    if len({len(row) for row in rows}) > 1:
        raise InvalidDensity("matrix rows differ in length")
    m = np.array([[_density_entry(e) for e in row] for row in rows], dtype=np.complex128)
    if m.shape != (dim, dim):
        raise InvalidDensity(f"matrix shape {m.shape} does not match dim {dim}")
    return m


def density_from_dict(data: dict) -> np.ndarray:
    return validate_density(_density_matrix(data))


def density_to_dict(rho: np.ndarray) -> dict:
    m = np.asarray(rho, dtype=np.complex128)
    return {
        "dim": int(m.shape[0]),
        "matrix": [
            [[float(z.real), float(z.imag)] for z in row] for row in m
        ],
    }


def load_state(path: str) -> SectoredPureState | StandardState:
    with open(path, encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))


def load_density(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return density_from_dict(json.load(fh))
