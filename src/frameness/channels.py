"""Covariant channels built from charge-shifting Kraus operators.

Every Kraus operator shifts each charge sector by a fixed amount, so it is
described by one integer shift and one coefficient per source sector.
Outcome groups bundle Kraus operators whose results are merged into a
single (generally mixed) output.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import BadParameter, InvalidChannel, InvalidState
from .numerics import MAX_DIM, SUM_TOL, ZERO_TOL, array, in_order_sum, instance, integer, number, shown, validate_density
from .states import StandardState, _check_probabilities, _complex_from_pair, checked_weights


@dataclass(frozen=True)
class U1Kraus:
    """One charge-shifting Kraus operator: ``n -> n + shift`` with weight ``coeffs[n]``."""

    shift: int
    coeffs: Mapping[int, complex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shift", integer(self.shift, InvalidChannel, "shift"))
        if not isinstance(self.coeffs, Mapping):
            raise InvalidChannel(f"coefficients must map sectors to numbers, got {shown(self.coeffs)}")
        clean = {}
        for n, c in self.coeffs.items():
            n = integer(n, InvalidChannel, "sector")
            try:
                clean[n] = complex(number(c, InvalidChannel, "", real=False))
            except OverflowError:  # an int beyond the float range
                clean[n] = complex(cmath.inf)
            except InvalidChannel as exc:  # the sector's label is built only to raise
                raise InvalidChannel(f"coefficient at sector {shown(n)}{exc}") from None
            if not cmath.isfinite(clean[n]):
                raise InvalidChannel(f"coefficient at sector {shown(n)} is {clean[n]!r}")
        object.__setattr__(self, "coeffs", clean)

    def row(self, dim: int) -> np.ndarray:
        """The ``(dim,)`` coefficients by sector; raises if a nonzero one maps outside ``0..dim-1``."""
        row = np.zeros(dim, dtype=np.complex128)
        for n, c in self.coeffs.items():
            if c == 0:
                continue
            if not (0 <= n < dim and 0 <= n + self.shift < dim):
                raise InvalidChannel(
                    f"coefficient at sector {shown(n)} with shift {shown(self.shift)} "
                    f"maps outside 0..{dim - 1}"
                )
            row[n] = c
        return row

    def matrix(self, dim: int) -> np.ndarray:
        """``coeffs[n]`` at row ``(n + shift) mod dim``, column ``n``; an entry that wraps is an exact zero."""
        m = np.zeros((dim, dim), dtype=np.complex128)
        n = np.arange(dim)
        m[(n + self.shift % dim) % dim, n] = self.row(dim)
        return m


@dataclass(frozen=True)
class U1Channel:
    """Collection of outcome groups of charge-shifting Kraus operators."""

    outcomes: Sequence[Sequence[U1Kraus]]
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", integer(self.dim, InvalidChannel, "dimension", 1, MAX_DIM))
        try:
            groups = tuple(tuple(g) for g in self.outcomes)
        except TypeError:  # the outcomes, or a group, are not iterable
            raise InvalidChannel(f"outcomes must be groups of U1Kraus operators, got {shown(self.outcomes)}") from None
        if not groups or any(len(g) == 0 for g in groups):
            raise InvalidChannel("channel needs at least one nonempty outcome group")
        for k in (k for g in groups for k in g):
            if not isinstance(k, U1Kraus):
                raise InvalidChannel(f"outcome group member {shown(k)} is not a U1Kraus")
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
        try:
            pairs = tuple((float(number(p, InvalidState, "probability")), s) for p, s in self.members)
        except InvalidState:  # a probability that is not a real number
            raise
        except OverflowError:  # an integer beyond the float range
            raise InvalidState("probability out of float range") from None
        except (TypeError, ValueError):  # a member, or the members, cannot be unpacked
            raise InvalidState("ensemble members must be (probability, state) pairs") from None
        if not pairs:
            raise InvalidState("ensemble needs at least one member")
        _check_probabilities(np.array([p for p, _ in pairs]))
        object.__setattr__(self, "members", pairs)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.members])

    def mixture(self) -> np.ndarray:
        terms = [p * _as_density(s) for p, s in self.members]
        for term in terms[1:]:
            if term.shape != terms[0].shape:
                raise InvalidState(f"ensemble members of shapes {terms[0].shape} and {term.shape} do not mix")
        return functools.reduce(np.add, terms)


def _as_density(state: Any) -> np.ndarray:
    if isinstance(state, StandardState):
        return state.projector()
    arr = array(state, InvalidState, "ensemble entry", real=False)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr
    raise InvalidState(f"cannot interpret ensemble member of shape {arr.shape}")


def squared_moduli(coeffs: np.ndarray) -> np.ndarray:
    """``abs(c) ** 2`` of every entry, rounded exactly as Python rounds it.

    ``np.abs(coeffs) ** 2`` differs from Python's complex ``abs`` in the
    last bit for about a third of the entries.
    """
    with np.errstate(over="ignore"):  # moduli above 1e154 square to inf, which the sums reject
        return np.float_power(np.hypot(coeffs.real, coeffs.imag), 2.0)


def _completeness_sums(moduli: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-sector sums over the operator axis ``-2`` in operator order, and whether each is 1 within ``SUM_TOL``."""
    sums = in_order_sum(moduli, -2)
    if sums.max() > 1.0 + SUM_TOL:
        raise InvalidChannel(
            f"completeness sum {float(sums.max())!r} exceeds 1 on some sector"
        )
    return sums, bool(np.max(np.abs(sums - 1.0)) <= SUM_TOL)


def validate_channel(channel: U1Channel) -> ChannelReport:
    """Check window bounds and completeness; report per-sector sums."""
    channel = instance(channel, U1Channel, InvalidChannel, "channel")
    sums, tp = _completeness_sums(squared_moduli(np.array([k.row(channel.dim) for k in channel.all_kraus()])))
    return ChannelReport(per_sector_sums=sums, trace_preserving=tp)


def _shown_shifts(shifts: list[int] | str, count: int) -> str:
    """``shifts`` as :func:`shown` echoes it, each int cut to 12 characters so that six fit
    in a message under 200, followed by ``count`` when shortening cut it."""
    text = shown(shifts, maxlong=12)
    try:
        cut = text != repr(shifts)
    except ValueError:  # an int too long to turn into text
        cut = True
    return f"{text} ({count} in all)" if cut else text


def _shift_set(shifts: Iterable[int]) -> list[int]:
    """The distinct shifts, ascending; :class:`InvalidChannel` unless a nonempty iterable of integers."""
    try:
        items = iter(shifts)
    except TypeError:
        raise InvalidChannel(f"shifts must be an iterable of integers, got {type(shifts).__name__}") from None
    shift_list = sorted({integer(s, InvalidChannel, "shift") for s in items})
    if not shift_list:
        raise InvalidChannel("at least one shift is required")
    return shift_list


def _slot_layout(dim: int, shifts: Iterable[int], kraus_per_shift: int) -> tuple[tuple[int, ...], int]:
    """The shift of each slot, the (shift, repeat) pairs with shifts ascending, and ``dim``: Python ints only.

    A shift with ``|ell| >= dim`` moves every sector out of the window, so it
    lays out no slot: there are at most ``(2 * dim - 1) * kraus_per_shift``
    slots, and a slot of shift ``ell`` is live on sectors ``max(0, -ell)`` to
    ``min(dim, dim - ell) - 1``.
    """
    dim = integer(dim, BadParameter, "dimension", 1, MAX_DIM)
    shift_list = _shift_set(shifts)
    kraus_per_shift = integer(kraus_per_shift, InvalidChannel, "kraus_per_shift", 1, MAX_DIM)
    live = [ell for ell in shift_list if -dim < ell < dim]
    # Shifts >= 0 cover a prefix of the sectors and shifts < 0 a suffix, so the first
    # sector past the prefix is uncovered unless the suffix starts at or before it.
    gap = dim - min((ell for ell in live if ell >= 0), default=dim)
    if gap < -max((ell for ell in live if ell < 0), default=-dim):
        raise InvalidChannel(
            f"sector {gap} admits no shift from "
            f"{_shown_shifts(shift_list, len(shift_list))}; a trace-preserving channel needs one"
        )
    return tuple(ell for ell in live for _ in range(kraus_per_shift)), dim


def coefficient_draws(layout: tuple[tuple[int, ...], int]) -> int:
    """Normal draws per channel that :func:`sample_coefficients` consumes on ``layout``."""
    slot_shifts, dim = layout
    return 2 * sum(dim - abs(ell) for ell in slot_shifts)


def sample_coefficients(layout: tuple[tuple[int, ...], int], draws: np.ndarray) -> np.ndarray:
    """Random trace-preserving coefficients, one ``(S, dim)`` array per row of ``draws``.

    ``layout`` is what :func:`_slot_layout` returns: the shifts of the S
    slots and ``dim``. For every source sector the coefficients across the
    slots live on it form an independent Haar-uniform complex unit vector,
    so the per-sector completeness sums are 1. Each row of the
    ``(T, coefficient_draws(layout))`` normal draws holds, sector by
    sector, the real then the imaginary parts of its live slots in order.
    Returns the ``(T, S, dim)`` coefficients, zero outside the window.
    """
    slot_shifts, dim = layout
    target = np.arange(dim) + np.asarray(slot_shifts)[:, None]
    live = (target >= 0) & (target < dim)
    coeffs = np.zeros((len(draws),) + live.shape, dtype=np.complex128)
    start = 0
    for n, size in enumerate(live.sum(axis=0).tolist()):
        vec = draws[:, start : start + size] + 1j * draws[:, start + size : start + 2 * size]
        start += 2 * size
        # Summed in index order by numpy's own arithmetic, not by a BLAS dot,
        # so the rounding is the same on every BLAS kernel.
        norm = np.sqrt(in_order_sum(vec.real * vec.real, -1) + in_order_sum(vec.imag * vec.imag, -1))
        coeffs[:, live[:, n], n] = vec / norm[:, None]
    return coeffs


def coefficient_channel(layout: tuple[tuple[int, ...], int], coeffs: np.ndarray) -> U1Channel:
    """Channel with one singleton outcome per slot of ``layout``."""
    slot_shifts, dim = layout
    outcomes = [
        [U1Kraus(shift=ell, coeffs={n: row[n] for n in range(max(0, -ell), min(dim, dim - ell))})]
        for ell, row in zip(slot_shifts, coeffs)
    ]
    return U1Channel(outcomes, dim)


def random_channel(
    dim: int,
    shifts: Iterable[int],
    kraus_per_shift: int = 1,
    seed: int | Sequence[int] = 0,
) -> U1Channel:
    """Sample a trace-preserving channel with the given shift set.

    The coefficients come from :func:`sample_coefficients` with the normal
    draws of ``default_rng(seed)``; ``seed`` is a nonnegative int or a
    sequence of them. Each Kraus operator forms its own outcome group.
    """
    for s in seed if isinstance(seed, Sequence) else [seed]:
        integer(s, BadParameter, "seed", 0)
    layout = _slot_layout(dim, shifts, kraus_per_shift)
    draws = np.random.default_rng(seed).normal(size=(1, coefficient_draws(layout)))
    return coefficient_channel(layout, sample_coefficients(layout, draws)[0])


def apply_slots_pure(
    slot_shifts: Sequence[int], moduli: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities and post-states of singleton-outcome channels on pure states.

    ``slot_shifts`` are integers of any size, and ``moduli[..., j, n]`` is
    ``abs(c) ** 2`` of slot ``j``'s coefficient at source sector ``n``, zero
    where ``n + slot_shifts[j]`` leaves ``0..d-1``: a shift that leaves the
    window gives zeros. Leading axes are batch axes shared with
    ``weights[..., n]``. Returns the probabilities ``(..., S)`` and the
    post-state weights ``(..., S, d)``. An outcome with probability at or
    below ``ZERO_TOL`` is dropped: its probability and its post-state are
    all zeros, so the kept outcomes are those with ``probs > 0``.

    Raises as :func:`apply_channel_pure` does: on an overcomplete or
    non-trace-preserving channel, a post-state that is not normalized, or
    kept probabilities that do not form a probability vector.
    """
    if not _completeness_sums(moduli)[1]:
        raise InvalidChannel("channel is not trace-preserving")
    d = moduli.shape[-1]
    contrib = weights[..., None, :] * moduli
    probs = in_order_sum(contrib, -1)
    # Sector n of slot j's post-state reads source (n - shift) mod d; a wrapped read meets a zero.
    src = (np.arange(d) - np.array([ell % d for ell in slot_shifts])[:, None]) % d
    kept = ~(probs <= ZERO_TOL)
    posts = np.divide(contrib, probs[..., None], out=np.zeros_like(contrib), where=kept[..., None])
    posts = np.take_along_axis(posts, src.reshape((1,) * (contrib.ndim - 2) + src.shape), -1)
    probs[~kept] = 0.0
    posts[kept] = checked_weights(posts[kept])
    _check_probabilities(probs)
    return probs, posts


def apply_channel_pure(channel: U1Channel, state: StandardState) -> Ensemble:
    """Outcome ensemble of a trace-preserving pure-to-pure channel; an all-zero operator's outcome is left out."""
    channel = instance(channel, U1Channel, InvalidChannel, "channel")
    state = instance(state, StandardState, InvalidState, "state")
    if state.dim != channel.dim:
        raise InvalidState(f"state of dimension {state.dim} on a channel of dimension {channel.dim}")
    kraus = list(channel.all_kraus())
    moduli = squared_moduli(np.array([k.row(channel.dim) for k in kraus]))
    for group in channel.outcomes:
        if len(group) != 1:
            raise InvalidChannel(
                f"outcome group with {len(group)} Kraus operators; "
                "pure-state application needs singletons"
            )
    probs, posts = apply_slots_pure([k.shift for k in kraus], moduli, state.weights)
    return Ensemble(tuple((p, StandardState(w)) for p, w in zip(probs, posts) if p > 0))


def apply_channel_density(channel: U1Channel, rho: np.ndarray) -> Ensemble:
    """Outcome ensemble of a channel on a density matrix, grouped by outcome."""
    m = validate_density(rho, dim=instance(channel, U1Channel, InvalidChannel, "channel").dim)
    report = validate_channel(channel)
    if not report.trace_preserving:
        raise InvalidChannel("channel is not trace-preserving")
    members = []
    for group in channel.outcomes:
        acc = np.zeros_like(m)
        for k in group:
            km = k.matrix(channel.dim)
            acc += km @ m @ km.conj().T
        p = float(np.trace(acc).real)
        if p <= ZERO_TOL:
            continue
        members.append((p, acc / p))
    return Ensemble(tuple(members))


def _sector_coeffs(coeffs: dict) -> dict[int, complex]:
    """Coefficients by sector. A key is an ``int`` or a decimal string as ``str(n)``
    writes it: "02", "1_0" and " 2" are rejected, so no two keys read as one sector."""
    out = {}
    for key, pair in coeffs.items():
        if isinstance(key, str):
            try:
                n = int(key)
            except ValueError:
                n = None
            if n is None or key != str(n):
                raise InvalidChannel(f"sector key {shown(key)} is not an integer as str(n) writes it")
        else:
            n = integer(key, InvalidChannel, "sector")
        if n in out:
            raise InvalidChannel(f"sector {shown(n)} is given twice")
        out[n] = _complex_from_pair(pair, InvalidChannel)
    return out


def channel_from_dict(data: dict) -> U1Channel:
    """Build a channel from its JSON-level dictionary form.

    ``dim`` must be an integer in 1..``MAX_DIM``, each ``shift`` an integer,
    each sector key an integer or its decimal string, no sector may repeat
    within a Kraus operator, and each coefficient must be a [re, im] pair
    of real numbers; otherwise :class:`InvalidChannel` is raised.
    """
    try:
        dim = data["dim"]
        groups = [[(e["shift"], _sector_coeffs(e["coeffs"])) for e in group] for group in data["outcomes"]]
    except (KeyError, TypeError, AttributeError):
        raise InvalidChannel(
            "a channel needs an integer 'dim' and 'outcomes' of Kraus entries, each "
            "with an integer 'shift' and 'coeffs' from integer strings to [re, im] pairs"
        ) from None
    return U1Channel([[U1Kraus(shift, coeffs) for shift, coeffs in group] for group in groups], dim)


def channel_to_dict(channel: U1Channel) -> dict:
    channel = instance(channel, U1Channel, InvalidChannel, "channel")
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
