"""Frameness monotones for states under the charge superselection rule.

Pure-state monotones act on standard-form weight vectors. For qubits the
mixed-state extension of the order-2 concurrence has a closed form through
the spectrum of an R matrix; the optimal decomposition achieving it is
constructed explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .channels import Ensemble
from .errors import BadAngle, BadK, BadProbability, WrongDimension
from .numerics import ZERO_TOL, _checked_density, _product_eig_sqrt_2x2
from .states import StandardState

KINDS = ("vidal", "entropy", "concurrence", "variance")
CROSS_CHECK_TOL = 1e-8
_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


@dataclass(frozen=True)
class MonotoneId:
    """Name of one monotone: a kind plus the order k where applicable."""

    kind: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown monotone kind {self.kind!r}")
        if self.kind in ("vidal", "concurrence"):
            if self.k is None:
                raise BadK(f"{self.kind} needs an order k")
            if int(self.k) < 2:
                raise BadK(f"order k must be at least 2, got {self.k}")
            object.__setattr__(self, "k", int(self.k))
        elif self.k is not None:
            raise BadK(f"{self.kind} does not take an order k")

    def label(self) -> str:
        return self.kind if self.k is None else f"{self.kind}[{self.k}]"


def _check_k(k: int, dim: int) -> int:
    k = int(k)
    if not 2 <= k <= dim:
        raise BadK(f"order k={k} outside 2..{dim}")
    return k


# Each evaluator acts along the last axis of a (..., d) array of weights and
# rounds every row exactly as the same code rounds a single 1-D vector.


def _tail_sum(weights: np.ndarray, k: int) -> np.ndarray:
    ordered = np.sort(weights, axis=-1)[..., ::-1]
    return ordered[..., k - 1 :].sum(axis=-1)


# numpy adds runs shorter than this left to right and longer ones pairwise.
_PAIRWISE_BLOCK = 8


def _shannon_bits(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    pos = w > 0.0
    if w.shape[-1] < _PAIRWISE_BLOCK:
        # Left-to-right sums: the zero terms of empty sectors change nothing.
        return -(w * np.log2(np.where(pos, w, 1.0))).sum(axis=-1)
    # Pairwise sums: sum exactly the positive terms of each row, grouping
    # rows by support size so that every group is a rectangular array.
    rows = w.reshape(-1, w.shape[-1])
    pos = pos.reshape(rows.shape)
    counts = pos.sum(axis=-1)
    out = np.empty(counts.shape)
    for c in np.unique(counts):
        group = counts == c
        v = rows[group][pos[group]].reshape(np.count_nonzero(group), c)
        out[group] = -(v * np.log2(v)).sum(axis=-1)
    return out.reshape(w.shape[:-1])[()]


def _elementary_symmetric(values: np.ndarray, k: int) -> np.ndarray:
    # Coefficient of x^k in prod(1 + v x), accumulated stably; no
    # cancellation occurs for nonnegative inputs. acc[j] holds e_j of the
    # values seen so far, for every row at once.
    acc = np.zeros((k + 1,) + values.shape[:-1])
    acc[0] = 1.0
    for i in range(values.shape[-1]):
        top = min(i + 1, k)
        head = acc[1 : top + 1]
        head += values[..., i] * acc[:top]
    return acc[k]


def _concurrence_weights(weights: np.ndarray, k: int) -> np.ndarray:
    d = weights.shape[-1]
    num = _elementary_symmetric(weights, k)
    den = math.comb(d, k) / d**k
    return np.float_power(np.minimum(num / den, 1.0), 1.0 / k)


def _variance_weights(weights: np.ndarray) -> np.ndarray:
    # vecdot runs the same dot per row as the 1-D product; a matrix
    # product would round differently from d = 4 on.
    labels = np.arange(weights.shape[-1])
    m1 = np.vecdot(weights, labels)
    m2 = np.vecdot(weights, labels**2)
    return 4.0 * (m2 - m1 * m1)


def vidal_f(state: StandardState, k: int) -> float:
    """Tail sum of the descending weights from position k (1-based)."""
    k = _check_k(k, state.dim)
    return float(_tail_sum(state.weights, k))


def entropy_of_frameness(state: StandardState) -> float:
    """Shannon entropy of the weights, in bits."""
    return float(_shannon_bits(state.weights))


def elementary_symmetric(values: Sequence[float], k: int) -> float:
    """k-th elementary symmetric polynomial of the given reals."""
    v = np.asarray(values, dtype=np.float64)
    k = _check_k(k, v.size)
    return float(_elementary_symmetric(v, k))


def concurrence_pure(state: StandardState, k: int) -> float:
    """Order-k concurrence: symmetric-polynomial ratio against the flat state."""
    k = _check_k(k, state.dim)
    return float(_concurrence_weights(state.weights, k))


def variance_pure(state: StandardState) -> float:
    """Four times the charge variance; sensitive to the sector labels."""
    return float(_variance_weights(state.weights))


def weight_evaluator(measure: MonotoneId, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve a monotone to a function on weight vectors of length ``dim``.

    The function maps a ``(..., dim)`` array to the ``(...)`` array of
    values along the last axis; a single vector gives a scalar.
    """
    if measure.kind == "vidal":
        k = _check_k(measure.k, dim)
        return lambda w: _tail_sum(w, k)
    if measure.kind == "entropy":
        return _shannon_bits
    if measure.kind == "concurrence":
        k = _check_k(measure.k, dim)
        return lambda w: _concurrence_weights(w, k)
    return _variance_weights


def evaluate_pure(measure: MonotoneId, state: StandardState) -> float:
    """Value of a pure-state monotone on a standard-form state."""
    return float(weight_evaluator(measure, state.dim)(state.weights))


def conjugate_flip(rho: np.ndarray) -> np.ndarray:
    """Entrywise conjugate followed by the charge-reversing flip on a qubit."""
    return _FLIP @ rho.conj() @ _FLIP


def qubit_R_eigs(rho: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of R = sqrt(sqrt(rho) rho~ sqrt(rho)) for a qubit.

    The values come from the product-eigenvalue fast path and are
    cross-checked against the explicit matrix-root route.
    """
    m = np.asarray(rho)
    if m.shape != (2, 2):
        raise WrongDimension(f"expected a 2x2 matrix, got shape {m.shape}")
    m, w, v = _checked_density(m)
    # rho~ has the spectrum of rho, so both factors are already known PSD.
    tilde = conjugate_flip(m)
    fast = _product_eig_sqrt_2x2(m, tilde)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    direct = np.sqrt(np.clip(np.linalg.eigvalsh(root @ tilde @ root), 0.0, None))[::-1]
    # The matrix-root route cannot pin a zero eigenvalue tighter than
    # sqrt(machine eps) ~ 1.5e-8, so the guard leaves headroom for
    # rank-deficient inputs; full-rank states agree far below 1e-8.
    if np.max(np.abs(fast - direct)) > 10.0 * CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"R-spectrum paths disagree: {fast} vs {direct}"
        )
    return fast


def qubit_concurrence(rho: np.ndarray) -> float:
    """Closed-form mixed-state concurrence of a qubit: |mu1 - mu2|."""
    mu = qubit_R_eigs(rho)
    return float(abs(mu[0] - mu[1]))


def qubit_fof(rho: np.ndarray) -> float:
    """Closed-form qubit frameness of formation: the squared concurrence."""
    return qubit_concurrence(rho) ** 2


@dataclass(frozen=True)
class AppendixResult:
    """Closed-form values on the two-parameter qubit family."""

    mu1: float
    mu2: float
    concurrence: float
    fof: float
    rho: np.ndarray


def appendix_closed_form(p: float, alpha: float) -> AppendixResult:
    """Closed forms for rho = p |phi1><phi1| + (1-p) |phi2><phi2|.

    Here phi1 = cos(a/2)|0> + sin(a/2)|1> and phi2 is its orthogonal
    complement. Raises :class:`BadProbability` for p outside [0, 1] and
    :class:`BadAngle` for a non-finite alpha.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise BadProbability(f"p={p} outside [0, 1]")
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise BadAngle(f"alpha={alpha} is not finite")
    s = math.sin(alpha)
    v = (1.0 - 2.0 * p) ** 2 * s * s
    base = p * (1.0 - p) + 0.5 * v
    gap = 0.5 * abs((1.0 - 2.0 * p) * s) * math.sqrt(v + 4.0 * p * (1.0 - p))
    mu1 = math.sqrt(max(base + gap, 0.0))
    mu2 = math.sqrt(max(base - gap, 0.0))
    phi1 = np.array([math.cos(alpha / 2.0), math.sin(alpha / 2.0)], dtype=np.complex128)
    phi2 = np.array([-math.sin(alpha / 2.0), math.cos(alpha / 2.0)], dtype=np.complex128)
    rho = p * np.outer(phi1, phi1.conj()) + (1.0 - p) * np.outer(phi2, phi2.conj())
    return AppendixResult(
        mu1=mu1,
        mu2=mu2,
        concurrence=abs((1.0 - 2.0 * p) * s),
        fof=v,
        rho=rho,
    )


def preconcurrence_matrix(phis: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of overlaps <phi_i | flip conj(phi_j)> for qubit vectors.

    Symmetric for any collection of vectors; its singular values are the
    R-spectrum when the vectors form a subnormalized eigendecomposition.
    """
    cols = [np.asarray(p, dtype=np.complex128) for p in phis]
    r = len(cols)
    tau = np.zeros((r, r), dtype=np.complex128)
    for i in range(r):
        for j in range(r):
            tau[i, j] = np.vdot(cols[i], _FLIP @ cols[j].conj())
    return tau


def takagi(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric matrix as W diag(s) W^T with unitary W.

    Built on the SVD: the gauge V† conj(U) is symmetric unitary and block
    diagonal over repeated singular values, so its principal square root
    rotates U onto a valid W.
    """
    a = np.asarray(sym, dtype=np.complex128)
    u, s, vh = np.linalg.svd(a)
    gauge = vh @ u.conj()
    w = u @ np.asarray(scipy.linalg.sqrtm(gauge), dtype=np.complex128)
    return s, w


def optimal_qubit_decomposition(rho: np.ndarray) -> Ensemble:
    """Decomposition of a qubit state whose members all attain the closed-form concurrence.

    Follows the classic recipe: diagonalize the preconcurrence matrix of a
    subnormalized eigendecomposition by a symmetric congruence, flip the
    second branch's sign, then rotate by the smallest nonnegative angle
    that equalizes the members' preconcurrences.
    """
    m = np.asarray(rho)
    if m.shape != (2, 2):
        raise WrongDimension(f"expected a 2x2 matrix, got shape {m.shape}")
    _, w, v = _checked_density(m)
    w = np.clip(w, 0.0, None)
    keep = w > ZERO_TOL
    if keep.sum() <= 1:
        vec = v[:, 0] / np.linalg.norm(v[:, 0])
        return Ensemble(((1.0, vec),))

    phis = [np.sqrt(w[i]) * v[:, i] for i in range(2)]
    tau = preconcurrence_matrix(phis)
    mu, wmat = takagi(tau)
    y = wmat.conj().T
    xi = [y[i, 0] * phis[0] + y[i, 1] * phis[1] for i in range(2)]
    xi[1] = 1j * xi[1]  # preconcurrences now (mu1, -mu2)

    p1 = float(np.vdot(xi[0], xi[0]).real)
    p2 = float(np.vdot(xi[1], xi[1]).real)
    gap = float(mu[0] - mu[1])
    pre1 = mu[0] / p1
    pre2 = -mu[1] / p2
    if abs(pre1 - pre2) <= 1e-12:
        theta = 0.0
    else:
        overlap = float(np.vdot(xi[0], xi[1]).real)
        a = 0.5 * (mu[0] + mu[1] - gap * (p1 - p2))
        b = gap * overlap
        theta = (0.5 * math.atan2(a, b)) % (0.5 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    zetas = [c * xi[0] + s * xi[1], -s * xi[0] + c * xi[1]]

    members = []
    for z in zetas:
        p = float(np.vdot(z, z).real)
        if p <= ZERO_TOL:
            continue
        members.append((p, z / np.sqrt(p)))
    return Ensemble(tuple(members))
