"""Covariant channels built from charge-shifting Kraus operators.

Every Kraus operator shifts each charge sector by a fixed amount, so it is
described by one integer shift and one coefficient per source sector.
Outcome groups bundle Kraus operators whose results are merged into a
single (generally mixed) output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyShiftSet,
    MixedOutcomeGroup,
    NotProbabilityVector,
    OvercompleteChannel,
    ShiftOutOfRange,
)
from .numerics import validate_density
from .states import StandardState

COMPLETENESS_TOL = 1e-9
PROB_EPS = 1e-12


@dataclass(frozen=True)
class U1Kraus:
    """One charge-shifting Kraus operator: ``n -> n + shift`` with weight ``coeffs[n]``."""

    shift: int
    coeffs: Mapping[int, complex]

    def __post_init__(self) -> None:
        clean = {int(n): complex(c) for n, c in self.coeffs.items()}
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
        probs = np.array([p for p, _ in pairs])
        if not np.isfinite(probs).all():
            raise NotProbabilityVector("probabilities must be finite")
        if probs.min() < -PROB_EPS:
            raise ValueError(f"negative probability {probs.min():.3e}")
        if abs(probs.sum() - 1.0) > COMPLETENESS_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}")
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


def _as_density(state: Any) -> np.ndarray:
    if isinstance(state, StandardState):
        return state.projector()
    arr = np.asarray(state, dtype=np.complex128)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    if arr.ndim == 2:
        return arr
    raise ValueError(f"cannot interpret ensemble member of shape {arr.shape}")


def validate_channel(channel: U1Channel) -> ChannelReport:
    """Check window bounds and completeness; report per-sector sums."""
    d = channel.dim
    sums = np.zeros(d)
    for k in channel.all_kraus():
        for n, c in k.window_coeffs(d):
            sums[n] += abs(c) ** 2
    if sums.max() > 1.0 + COMPLETENESS_TOL:
        raise OvercompleteChannel(
            f"completeness sum {sums.max()!r} exceeds 1 on some sector"
        )
    tp = bool(np.max(np.abs(sums - 1.0)) <= COMPLETENESS_TOL)
    return ChannelReport(per_sector_sums=sums, trace_preserving=tp)


def random_channel(
    dim: int,
    shifts: Iterable[int],
    kraus_per_shift: int = 1,
    seed: Any = 0,
) -> U1Channel:
    """Sample a trace-preserving channel with the given shift set.

    For every source sector the coefficients across all admissible
    (shift, repeat) slots form an independent Haar-uniform complex unit
    vector, which makes the per-sector completeness sums exactly 1.
    Each Kraus operator forms its own outcome group.
    """
    shift_list = sorted(set(int(s) for s in shifts))
    if not shift_list:
        raise EmptyShiftSet("at least one shift is required")
    if kraus_per_shift < 1:
        raise ValueError("kraus_per_shift must be at least 1")
    slots = [(ell, a) for ell in shift_list for a in range(kraus_per_shift)]
    rng = np.random.default_rng(seed)
    coeffs: dict[tuple[int, int], dict[int, complex]] = {s: {} for s in slots}
    for n in range(dim):
        live = [(ell, a) for ell, a in slots if 0 <= n + ell < dim]
        if not live:
            raise ValueError(
                f"sector {n} admits no shift from {shift_list}; "
                "a trace-preserving channel needs one"
            )
        vec = rng.normal(size=len(live)) + 1j * rng.normal(size=len(live))
        vec /= np.linalg.norm(vec)
        for slot, c in zip(live, vec):
            coeffs[slot][n] = complex(c)
    outcomes = [
        [U1Kraus(shift=ell, coeffs=coeffs[(ell, a)])]
        for ell, a in slots
        if coeffs[(ell, a)]
    ]
    return U1Channel(outcomes, dim)


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
    report = validate_channel(channel)
    if not report.trace_preserving:
        raise ValueError("channel is not trace-preserving")
    members = []
    for group in channel.outcomes:
        if len(group) != 1:
            raise MixedOutcomeGroup(
                f"outcome group with {len(group)} Kraus operators; "
                "pure-state application needs singletons"
            )
        p, out = apply_kraus_pure(group[0], state)
        if out is not None:
            members.append((p, out))
    return Ensemble(tuple(members))


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
