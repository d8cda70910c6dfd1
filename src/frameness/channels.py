"""Covariant channels built from charge-shifting Kraus operators.

Every Kraus operator shifts each charge sector by a fixed amount, so it is
described by one integer shift and one coefficient per source sector.
Outcome groups bundle Kraus operators whose results are merged into a
single (generally mixed) output.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyShiftSet,
    MixedOutcomeGroup,
    NonFiniteCoefficient,
    NotProbabilityVector,
    OvercompleteChannel,
    ShiftOutOfRange,
)
from .numerics import validate_density
from .states import StandardState, checked_weights

COMPLETENESS_TOL = 1e-9
PROB_EPS = 1e-12


@dataclass(frozen=True)
class U1Kraus:
    """One charge-shifting Kraus operator: ``n -> n + shift`` with weight ``coeffs[n]``."""

    shift: int
    coeffs: Mapping[int, complex]

    def __post_init__(self) -> None:
        clean = {int(n): complex(c) for n, c in self.coeffs.items()}
        for n, c in clean.items():
            if not cmath.isfinite(c):
                raise NonFiniteCoefficient(f"coefficient at sector {n} is {c!r}")
        object.__setattr__(self, "coeffs", clean)

    def window_coeffs(self, dim: int) -> Iterator[tuple[int, complex]]:
        """Nonzero ``(n, coeff)`` pairs; raises if one maps outside ``0..dim-1``."""
        for n, c in self.coeffs.items():
            if c == 0:
                continue
            if not (0 <= n < dim and 0 <= n + self.shift < dim):
                raise ShiftOutOfRange(
                    f"coefficient at sector {n} with shift {self.shift} "
                    f"maps outside 0..{dim - 1}"
                )
            yield n, c

    def matrix(self, dim: int) -> np.ndarray:
        m = np.zeros((dim, dim), dtype=np.complex128)
        for n, c in self.window_coeffs(dim):
            m[n + self.shift, n] = c
        return m


@dataclass(frozen=True)
class U1Channel:
    """Collection of outcome groups of charge-shifting Kraus operators."""

    outcomes: Sequence[Sequence[U1Kraus]]
    dim: int

    def __post_init__(self) -> None:
        groups = tuple(tuple(g) for g in self.outcomes)
        if not groups or any(len(g) == 0 for g in groups):
            raise ValueError("channel needs at least one nonempty outcome group")
        object.__setattr__(self, "outcomes", groups)

    def all_kraus(self) -> Iterator[U1Kraus]:
        for group in self.outcomes:
            yield from group


@dataclass(frozen=True)
class ChannelReport:
    """Per-sector completeness sums and the trace-preservation verdict."""

    per_sector_sums: np.ndarray
    trace_preserving: bool


@dataclass(frozen=True)
class Ensemble:
    """Probability-weighted collection of states.

    Members carry either :class:`StandardState` payloads, bare amplitude
    vectors, or density matrices; ``mixture`` assembles the corresponding
    average density matrix.
    """

    members: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        pairs = tuple((float(p), s) for p, s in self.members)
        if not pairs:
            raise ValueError("ensemble needs at least one member")
        _check_probabilities(np.array([p for p, _ in pairs]))
        object.__setattr__(self, "members", pairs)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.members])

    @property
    def states(self) -> tuple:
        return tuple(s for _, s in self.members)

    def mixture(self) -> np.ndarray:
        out: np.ndarray | None = None
        for p, s in self.members:
            rho = _as_density(s)
            out = p * rho if out is None else out + p * rho
        assert out is not None
        return out


def _check_probabilities(probs: np.ndarray) -> None:
    """Raise unless every row along the last axis is a probability vector."""
    if not np.isfinite(probs).all():
        raise NotProbabilityVector("probabilities must be finite")
    if probs.min() < -PROB_EPS:
        raise NotProbabilityVector(f"negative probability {probs.min():.3e}")
    totals = probs.sum(axis=-1)
    off = abs(totals - 1.0) > COMPLETENESS_TOL
    if off.any():
        raise NotProbabilityVector(f"probabilities sum to {np.extract(off, totals)[0]!r}")


def _as_density(state: Any) -> np.ndarray:
    if isinstance(state, StandardState):
        return state.projector()
    arr = np.asarray(state, dtype=np.complex128)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    if arr.ndim == 2:
        return arr
    raise ValueError(f"cannot interpret ensemble member of shape {arr.shape}")


def squared_moduli(coeffs: np.ndarray) -> np.ndarray:
    """``abs(c) ** 2`` of every entry, rounded exactly as Python rounds it.

    ``np.abs(coeffs) ** 2`` differs from Python's complex ``abs`` in the
    last bit for about a third of the entries.
    """
    return np.float_power(np.hypot(coeffs.real, coeffs.imag), 2.0)


def _kraus_moduli(kraus: Sequence[U1Kraus], dim: int) -> np.ndarray:
    """``(len(kraus), dim)`` squared moduli; raises if one maps outside the window."""
    coeffs = np.zeros((len(kraus), dim), dtype=np.complex128)
    for i, k in enumerate(kraus):
        for n, c in k.window_coeffs(dim):
            coeffs[i, n] = c
    return squared_moduli(coeffs)


def _completeness_sums(moduli: np.ndarray) -> np.ndarray:
    """Per-sector sums over the operator axis ``-2``, added in operator order."""
    sums = np.zeros(moduli.shape[:-2] + moduli.shape[-1:])
    for j in range(moduli.shape[-2]):
        sums += moduli[..., j, :]
    if sums.max() > 1.0 + COMPLETENESS_TOL:
        raise OvercompleteChannel(
            f"completeness sum {sums.max()!r} exceeds 1 on some sector"
        )
    return sums


def validate_channel(channel: U1Channel) -> ChannelReport:
    """Check window bounds and completeness; report per-sector sums."""
    sums = _completeness_sums(_kraus_moduli(list(channel.all_kraus()), channel.dim))
    tp = bool(np.max(np.abs(sums - 1.0)) <= COMPLETENESS_TOL)
    return ChannelReport(per_sector_sums=sums, trace_preserving=tp)


def _slot_shifts(shifts: Iterable[int], kraus_per_shift: int) -> tuple[int, ...]:
    shift_list = sorted(set(int(s) for s in shifts))
    if not shift_list:
        raise EmptyShiftSet("at least one shift is required")
    if kraus_per_shift < 1:
        raise ValueError("kraus_per_shift must be at least 1")
    return tuple(ell for ell in shift_list for _ in range(kraus_per_shift))


def _live_slots(slot_shifts: Sequence[int], dim: int) -> np.ndarray:
    """``(S, dim)`` mask: slot ``j`` maps sector ``n`` inside the window."""
    target = np.arange(dim) + np.asarray(slot_shifts)[:, None]
    return (target >= 0) & (target < dim)


def sample_coefficients(
    dim: int,
    shifts: Iterable[int],
    kraus_per_shift: int,
    rngs: Sequence[np.random.Generator],
) -> tuple[tuple[int, ...], np.ndarray]:
    """Random trace-preserving coefficients, one ``(S, dim)`` array per generator.

    The S slots are the (shift, repeat) pairs, shifts ascending. For every
    source sector the coefficients across its admissible slots form an
    independent Haar-uniform complex unit vector, so the per-sector
    completeness sums are 1. Each generator makes one normal draw that
    holds, sector by sector, the real then the imaginary parts of that
    sector's vector. Returns the shift of each slot and the
    ``(len(rngs), S, dim)`` coefficients, zero outside the window.
    """
    slot_shifts = _slot_shifts(shifts, kraus_per_shift)
    live = _live_slots(slot_shifts, dim)
    sizes = live.sum(axis=0)
    if not sizes.all():
        raise ValueError(
            f"sector {int(np.argmin(sizes))} admits no shift from "
            f"{sorted(set(slot_shifts))}; a trace-preserving channel needs one"
        )
    draws = np.array([rng.normal(size=2 * int(sizes.sum())) for rng in rngs])
    starts = np.concatenate(([0], np.cumsum(2 * sizes)[:-1]))
    coeffs = np.zeros((len(rngs), len(slot_shifts), dim), dtype=np.complex128)
    for size in np.unique(sizes):
        sectors = np.flatnonzero(sizes == size)
        re = starts[sectors, None] + np.arange(size)
        vec = draws[:, re] + 1j * draws[:, re + size]
        # np.linalg.norm of one complex vector: the same BLAS dot on the
        # strided real and imaginary parts, so the rounding matches it.
        norm = np.sqrt(np.vecdot(vec.real, vec.real) + np.vecdot(vec.imag, vec.imag))
        slots = np.array([np.flatnonzero(live[:, n]) for n in sectors])
        coeffs[:, slots, sectors[:, None]] = vec / norm[..., None]
    return slot_shifts, coeffs


def coefficient_channel(slot_shifts: Sequence[int], coeffs: np.ndarray) -> U1Channel:
    """Channel with one singleton outcome per slot that maps any sector inside the window."""
    dim = coeffs.shape[-1]
    live = _live_slots(slot_shifts, dim)
    outcomes = [
        [U1Kraus(shift=ell, coeffs={int(n): row[n] for n in np.flatnonzero(mask)})]
        for ell, row, mask in zip(slot_shifts, coeffs, live)
        if mask.any()
    ]
    return U1Channel(outcomes, dim)


def random_channel(
    dim: int,
    shifts: Iterable[int],
    kraus_per_shift: int = 1,
    seed: Any = 0,
) -> U1Channel:
    """Sample a trace-preserving channel with the given shift set.

    The coefficients come from :func:`sample_coefficients` with one
    generator seeded by ``seed``. Each Kraus operator forms its own
    outcome group.
    """
    slot_shifts, coeffs = sample_coefficients(
        dim, shifts, kraus_per_shift, [np.random.default_rng(seed)]
    )
    return coefficient_channel(slot_shifts, coeffs[0])


def apply_slots_pure(
    slot_shifts: Sequence[int], moduli: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome probabilities and post-states of singleton-outcome channels on pure states.

    ``moduli[..., j, n]`` is ``abs(c) ** 2`` of slot ``j``'s coefficient at
    source sector ``n``; slot ``j`` shifts by ``slot_shifts[j]``. Leading
    axes are batch axes shared with ``weights[..., n]``. Returns the
    probabilities ``(..., S)``, the post-state weights ``(..., S, d)`` and
    the mask ``(..., S)`` of kept outcomes: those with probability above
    ``PROB_EPS``. Dropped outcomes have all-zero post-states.

    Raises as :func:`apply_channel_pure` does: on an overcomplete or
    non-trace-preserving channel, a post-state that is not normalized, or
    kept probabilities that do not form a probability vector.
    """
    sums = _completeness_sums(moduli)
    if np.max(np.abs(sums - 1.0)) > COMPLETENESS_TOL:
        raise ValueError("channel is not trace-preserving")
    d = moduli.shape[-1]
    contrib = weights[..., None, :] * moduli
    # A running sum in sector order, rounded as a per-operator loop rounds it.
    probs = np.zeros(contrib.shape[:-1])
    for n in range(d):
        probs += contrib[..., n]
    posts = np.zeros_like(contrib)
    for j, ell in enumerate(slot_shifts):
        if ell >= 0:
            posts[..., j, ell:] = contrib[..., j, : max(d - ell, 0)]
        elif ell > -d:
            posts[..., j, : d + ell] = contrib[..., j, -ell:]
    kept = ~(probs <= PROB_EPS)
    np.divide(posts, probs[..., None], out=posts, where=kept[..., None])
    posts[~kept] = 0.0
    posts[kept] = checked_weights(posts[kept])
    _check_probabilities(np.where(kept, probs, 0.0))
    return probs, posts, kept


def apply_kraus_pure(kraus: U1Kraus, state: StandardState) -> tuple[float, StandardState | None]:
    """Outcome probability and post-state of one Kraus operator on a pure state.

    Returns ``(0.0, None)`` when the outcome probability falls below
    ``PROB_EPS``.
    """
    d = state.dim
    p = 0.0
    new = np.zeros(d)
    for n, c in kraus.coeffs.items():
        if c == 0 or not (0 <= n < d and 0 <= n + kraus.shift < d):
            continue
        contrib = state.weights[n] * abs(c) ** 2
        p += contrib
        new[n + kraus.shift] += contrib
    if p <= PROB_EPS:
        return 0.0, None
    return float(p), StandardState(new / p)


def apply_channel_pure(channel: U1Channel, state: StandardState) -> Ensemble:
    """Outcome ensemble of a trace-preserving pure-to-pure channel."""
    kraus = list(channel.all_kraus())
    moduli = _kraus_moduli(kraus, channel.dim)
    for group in channel.outcomes:
        if len(group) != 1:
            raise MixedOutcomeGroup(
                f"outcome group with {len(group)} Kraus operators; "
                "pure-state application needs singletons"
            )
    probs, posts, kept = apply_slots_pure(
        [k.shift for k in kraus], moduli, state.weights
    )
    return Ensemble(
        tuple((p, StandardState(w)) for p, w, keep in zip(probs, posts, kept) if keep)
    )


def apply_channel_density(channel: U1Channel, rho: np.ndarray) -> Ensemble:
    """Outcome ensemble of a channel on a density matrix, grouped by outcome."""
    m = validate_density(rho, dim=channel.dim)
    report = validate_channel(channel)
    if not report.trace_preserving:
        raise ValueError("channel is not trace-preserving")
    members = []
    for group in channel.outcomes:
        acc = np.zeros_like(m)
        for k in group:
            km = k.matrix(channel.dim)
            acc += km @ m @ km.conj().T
        p = float(np.trace(acc).real)
        if p <= PROB_EPS:
            continue
        members.append((p, acc / p))
    return Ensemble(tuple(members))


def channel_from_dict(data: dict) -> U1Channel:
    dim = int(data["dim"])
    outcomes = []
    for group in data["outcomes"]:
        ops = []
        for entry in group:
            coeffs = {
                int(n): complex(float(pair[0]), float(pair[1]))
                for n, pair in entry["coeffs"].items()
            }
            ops.append(U1Kraus(shift=int(entry["shift"]), coeffs=coeffs))
        outcomes.append(ops)
    return U1Channel(outcomes, dim)


def channel_to_dict(channel: U1Channel) -> dict:
    return {
        "dim": channel.dim,
        "outcomes": [
            [
                {
                    "shift": k.shift,
                    "coeffs": {
                        str(n): [c.real, c.imag] for n, c in sorted(k.coeffs.items())
                    },
                }
                for k in group
            ]
            for group in channel.outcomes
        ],
    }


def load_channel(path: str) -> U1Channel:
    with open(path, encoding="utf-8") as fh:
        return channel_from_dict(json.load(fh))
