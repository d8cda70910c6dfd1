"""Frameness monotones for states under the charge superselection rule.

Pure-state monotones act on standard-form weight vectors. A qubit density
[[a, c], [c*, b]] has the exact R-spectrum sqrt(ab) +- |c|, so its
concurrence C = 2|c|, C^2, the frameness of formation and an optimal
decomposition are read off its entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import Ensemble
from .errors import BadMonotone, BadParameter, InvalidState
from .numerics import MAX_DIM, ZERO_TOL, _checked_density, in_order_sum, instance, integer, number, shown
from .states import StandardState

KINDS = ("vidal", "entropy", "concurrence", "variance")


@dataclass(frozen=True)
class MonotoneId:
    """Name of one monotone: a kind plus the order k where applicable."""

    kind: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise BadMonotone(f"unknown monotone kind {shown(self.kind)}")
        if self.kind in ("vidal", "concurrence"):
            if self.k is None:
                raise BadMonotone(f"{self.kind} needs an order k")
            object.__setattr__(self, "k", integer(self.k, BadMonotone, "order k", 2))
        elif self.k is not None:
            raise BadMonotone(f"{self.kind} does not take an order k")


# Each evaluator acts along the last axis of a (..., d) array of weights and
# rounds every row exactly as the same code rounds a single 1-D vector.


def _tail_sum(weights: np.ndarray, k: int) -> np.ndarray:
    ordered = np.sort(weights, axis=-1)[..., ::-1]
    return ordered[..., k - 1 :].sum(axis=-1)


def _elementary_symmetric(
    values: np.ndarray, k: int, leave_one_out: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    # e_k of the last axis of values: the coefficient of x^k in prod(1 + v x),
    # accumulated stably, with no cancellation for nonnegative v. acc[j] holds
    # e_j of the positions seen so far, for every row at once. leave_one_out adds
    # a trailing axis of d + 1 columns on which position j enters as v_j * 1.0,
    # but as +0.0 at column j: +0.0 leaves a finite acc >= 0 unchanged, so each
    # column l < d rounds as the row without v_l alone, and column d as the
    # whole row. That form returns e_k of the row and e_{k-1} without each v_l.
    d = values.shape[-1]
    acc = np.zeros((k + 1,) + values.shape[:-1] + ((d + 1,) if leave_one_out else ()))
    acc[0] = 1.0
    kept = 1.0 - np.eye(d, d + 1) if leave_one_out else None
    for j in range(d):
        column = values[..., j, None] * kept[j] if leave_one_out else values[..., j]
        top = min(j + 1, k)
        head = acc[1 : top + 1]
        head += column * acc[:top]
    return (acc[k, ..., d], acc[k - 1, ..., :d]) if leave_one_out else acc[k]


def _concurrence_ratio(total: np.ndarray, d: int, k: int) -> tuple[np.ndarray, float]:
    # e_k(w), given as total, over its value den on the flat state of length d, capped at 1, and den.
    den = math.comb(d, k) / d**k
    return np.minimum(total / den, 1.0), den


def _variance_and_mean(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # vecdot runs the same dot per row as the 1-D product; a matrix
    # product would round differently from d = 4 on. m2 - m1^2 cancels near
    # a charge eigenstate and can fall below 0 there, so it is clamped.
    labels = np.arange(weights.shape[-1])
    m1 = np.vecdot(weights, labels)
    m2 = np.vecdot(weights, labels**2)
    return np.maximum(4.0 * (m2 - m1 * m1), 0.0), m1


# Each pure monotone f of weights w extends to unnormalized weights a as
# h(a) = |a| f(a / |a|), with |a| the sum of a. h is homogeneous of degree 1,
# so its gradient dh/da depends on w = a / |a| alone. The slopes below give
# it along the last axis of a (..., d) array of weights.


def _vidal_slope(weights: np.ndarray, k: int) -> np.ndarray:
    # Indicator of the d - k + 1 smallest weights, a subgradient at ties.
    order = np.argsort(weights, axis=-1, kind="stable")
    slope = np.zeros_like(weights)
    np.put_along_axis(slope, order[..., : weights.shape[-1] - k + 1], 1.0, axis=-1)
    return slope


def _entropy_and_slope(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Terms added in sector order, so the zero terms of empty sectors change
    # nothing; 0.0 - s, not -s: a charge eigenstate's zero sum stays +0.0.
    # A weight one ulp above 1 has a positive log, so the value is clamped.
    logs = np.log2(np.where(w > 0.0, w, 1.0))
    return np.maximum(0.0 - in_order_sum(w * logs, -1), 0.0), -logs


class WeightMonotone:
    """``measure`` on weight vectors of length ``dim``, read once: first ``measure`` (a
    :class:`MonotoneId`, else :class:`BadMonotone`), then ``dim`` (1..``MAX_DIM``, else
    :class:`BadParameter`), then the order k (at most ``dim``, else :class:`BadMonotone`).
    ``values`` and ``value_and_slope`` map ``(..., dim)`` weights along the last axis."""

    def __init__(self, measure: MonotoneId, dim: int) -> None:
        self.measure = instance(measure, MonotoneId, BadMonotone, "measure")
        self.dim = integer(dim, BadParameter, "dimension", 1, MAX_DIM)
        if measure.k is not None:
            integer(measure.k, BadMonotone, "order k", 2, self.dim)

    def values(self, w: np.ndarray) -> np.ndarray:
        """The ``(...)`` values; a single vector gives a scalar."""
        kind, k = self.measure.kind, self.measure.k
        if kind == "vidal":
            return _tail_sum(w, k)
        if kind == "entropy":
            return _entropy_and_slope(np.asarray(w, dtype=np.float64))[0]
        if kind == "concurrence":
            return np.float_power(_concurrence_ratio(_elementary_symmetric(w, k), w.shape[-1], k)[0], 1.0 / k)
        return _variance_and_mean(w)[0]

    def value_and_slope(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``values``, bit for bit, and dh/da: -log2 w for the entropy (0 on empty sectors),
        4 (n - mu)^2 for the variance, mu the mean charge, and a subgradient
        where vidal's tail sum or the capped concurrence is not smooth."""
        kind, k = self.measure.kind, self.measure.k
        if kind == "vidal":
            return _tail_sum(w, k), _vidal_slope(w, k)
        if kind == "entropy":
            return _entropy_and_slope(w)
        if kind == "variance":
            value, mean = _variance_and_mean(w)
            return value, 4.0 * np.square(np.arange(w.shape[-1]) - mean[..., None])
        # The concurrence: h^(1-k) e_{k-1}(w without w_l) / (k den) below the cap
        # and 1 at it, the flat state; 0 where h = 0, a subgradient.
        total, left_out = _elementary_symmetric(w, k, leave_one_out=True)
        capped, den = _concurrence_ratio(total, w.shape[-1], k)
        scale = (k * den * np.float_power(capped, (k - 1) / k))[..., None]
        slope = np.divide(left_out, scale, out=np.zeros(w.shape), where=scale > 0.0)
        return np.float_power(capped, 1.0 / k), np.where(capped[..., None] >= 1.0, 1.0, slope)


def weight_evaluator(measure: MonotoneId, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """The values of ``measure`` on weight vectors of length ``dim``: ``WeightMonotone(measure, dim).values``."""
    return WeightMonotone(measure, dim).values


def smoothed_tail_sum(vidal: WeightMonotone, width: float) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Values and slope of a smooth stand-in for a resolved vidal monotone's tail sum from position k.

    The sum of the k - 1 largest weights is replaced by its log-sum-exp
    over (k - 1)-subsets, width * log e_{k-1}(exp(w / width)), which exceeds
    it by at most width * log C(dim, k - 1). The stand-in is concave and
    differentiable, and tends to the tail sum as ``width`` goes to 0. Maps
    weights to (values, slope) as ``WeightMonotone.value_and_slope`` does.
    """
    k, dim = vidal.measure.k, vidal.dim

    def value_and_slope(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Shifted by the mean of the k - 1 largest weights, the exponentials
        # of those weights multiply to 1, so e_{k-1} lies in [1, C(dim, k-1)]
        # and no exponent exceeds 1 / width.
        shift = np.partition(w, dim - k + 1, axis=-1)[..., dim - k + 1 :].mean(axis=-1)
        z = np.exp((w - shift[..., None]) / width)
        total, left_out = _elementary_symmetric(z, k - 1, leave_one_out=True)
        value = w.sum(axis=-1) - (k - 1) * shift - width * np.log(total)
        grad = 1.0 - z * left_out / total[..., None]
        return value, grad + (value - np.vecdot(w, grad))[..., None]

    return value_and_slope


def evaluate_pure(measure: MonotoneId, state: StandardState) -> float:
    """Value of a pure-state monotone on a standard-form state."""
    state = instance(state, StandardState, InvalidState, "state")
    return float(weight_evaluator(measure, state.dim)(state.weights))


def _qubit(rho: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    # The exact R-spectrum of a U(1) qubit [[a, c], [c*, b]], mu =
    # sqrt(ab) +- |c|, with the density's check. c comes from the Hermitian
    # part and mu2 is clamped at zero, so states that are Hermitian or PSD
    # only within H_TOL or P_TOL stay in range.
    checked = _checked_density(rho, 2)
    m = checked[0]
    root = math.sqrt(max(m[0, 0].real * m[1, 1].real, 0.0))
    off = 0.5 * abs(m[0, 1] + m[1, 0].conjugate())
    return np.array([root + off, max(root - off, 0.0)]), checked


def _member_weights(c: float) -> tuple[float, float, float]:
    # Weights (x+, x-) = (1 +- s)/2, s = sqrt(1 - c^2), of every optimal
    # member of a qubit with concurrence c, capped at 1. x- = c^2 / (4 x+)
    # keeps full relative precision where 1 - x+ would cancel.
    c = min(c, 1.0)
    s = math.sqrt(max(1.0 - c * c, 0.0))
    xp = 0.5 * (1.0 + s)
    return xp, c * c / (4.0 * xp), s


def qubit_R_eigs(rho: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of R = sqrt(sqrt(rho) rho~ sqrt(rho)) for a qubit.

    Under the charge rule they are exactly sqrt(rho00 rho11) +- |rho01|.
    """
    return _qubit(rho)[0]


def qubit_concurrence(rho: np.ndarray) -> float:
    """Closed-form mixed-state concurrence of a qubit: mu1 - mu2 = 2|rho01|.

    Capped at 1, which a state accepted through the trace tolerance could
    otherwise exceed.
    """
    mu = qubit_R_eigs(rho)
    return min(float(mu[0] - mu[1]), 1.0)


def qubit_fof(rho: np.ndarray) -> float:
    """Squared qubit concurrence C^2, the closed form of the variance roof."""
    return qubit_concurrence(rho) ** 2


def qubit_formation(rho: np.ndarray) -> float:
    """The paper's qubit frameness of formation h((1 + sqrt(1 - C^2)) / 2).

    h is the binary entropy in bits; this is the closed form of the
    entropy roof.
    """
    return _formation_bits(qubit_concurrence(rho))


def _formation_bits(c: float) -> float:
    xp, xm, _ = _member_weights(c)
    return float(_entropy_and_slope(np.array([xp, xm]))[0])


@dataclass(frozen=True)
class AppendixResult:
    """Closed-form values on the two-parameter qubit family."""

    mu1: float
    mu2: float
    concurrence: float
    fof: float
    formation: float
    rho: np.ndarray


def appendix_closed_form(p: float, alpha: float) -> AppendixResult:
    """Closed forms for rho = p |phi1><phi1| + (1-p) |phi2><phi2|.

    Here phi1 = cos(a/2)|0> + sin(a/2)|1> and phi2 is its orthogonal
    complement. Raises :class:`BadParameter` unless p and alpha are
    numbers, p lies in [0, 1] and alpha is finite.
    """
    try:
        p = float(number(p, BadParameter, "p"))
        if not 0.0 <= p <= 1.0:
            raise BadParameter(f"p={p} outside [0, 1]")
        alpha = float(number(alpha, BadParameter, "alpha"))
    except OverflowError:  # an int beyond the float range; p is a float once read
        raise BadParameter(f"{'alpha' if isinstance(p, float) else 'p'} out of float range") from None
    if not math.isfinite(alpha):
        raise BadParameter(f"alpha={alpha} is not finite")
    s = math.sin(alpha)
    v = (1.0 - 2.0 * p) ** 2 * s * s
    base = p * (1.0 - p) + 0.5 * v
    gap = 0.5 * abs((1.0 - 2.0 * p) * s) * math.sqrt(v + 4.0 * p * (1.0 - p))
    mu1 = math.sqrt(max(base + gap, 0.0))
    mu2 = math.sqrt(max(base - gap, 0.0))
    phi1 = np.array([math.cos(alpha / 2.0), math.sin(alpha / 2.0)], dtype=np.complex128)
    phi2 = np.array([-math.sin(alpha / 2.0), math.cos(alpha / 2.0)], dtype=np.complex128)
    rho = p * np.outer(phi1, phi1.conj()) + (1.0 - p) * np.outer(phi2, phi2.conj())
    concurrence = abs((1.0 - 2.0 * p) * s)
    return AppendixResult(
        mu1=mu1,
        mu2=mu2,
        concurrence=concurrence,
        fof=v,
        formation=_formation_bits(concurrence),
        rho=rho,
    )


def optimal_qubit_decomposition(rho: np.ndarray) -> Ensemble:
    """Decomposition of a qubit state whose members all attain the closed-form concurrence.

    With x+- = (1 +- s)/2, s = sqrt(1 - C^2), and u the phase of rho01, the
    members are (sqrt(x+), sqrt(x-) u*) with probability
    p = (1 + (rho00 - rho11)/s)/2 and (sqrt(x-), sqrt(x+) u*) with 1 - p;
    each has concurrence 2 sqrt(x+ x-) = C. A rank-1 state is its own
    single member.
    """
    mu, (m, w, v) = _qubit(rho)
    a, b = m[0, 0].real, m[1, 1].real
    xp, xm, s = _member_weights(float(mu[0] - mu[1]))
    # At unit trace s^2 = (a - b)^2 + 4 det(rho), so p lies in [0, 1]. A
    # state accepted with s <= |a - b| through the density tolerances has no
    # such split; it is pure to within those tolerances.
    if w[1] <= ZERO_TOL or s <= abs(a - b):
        vec = v[:, 0] / np.linalg.norm(v[:, 0])
        return Ensemble(((1.0, vec),))
    p = 0.5 + 0.5 * (a - b) / s
    c = m[0, 1]
    u = np.conj(c / abs(c)) if c != 0 else 1.0
    rp, rm = math.sqrt(xp), math.sqrt(xm)
    vecs = np.array([[rp, rm * u], [rm, rp * u]], dtype=np.complex128)
    return Ensemble(tuple((q, vec) for q, vec in zip((p, 1.0 - p), vecs) if q > ZERO_TOL))
