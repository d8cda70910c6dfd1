"""Convex-roof extension of pure-state monotones to density matrices.

Every decomposition of a rank-r state into m pure members corresponds to an
m x r matrix with orthonormal columns acting on the subnormalized
eigenvectors. The roof is minimized over that manifold with a derivative-free
coordinate search on a Givens angle/phase mesh, restarted from seeded random
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Ensemble
from .errors import NotIsometry, RankMismatch
from .monotones import MonotoneId, weight_evaluator
from .numerics import ZERO_TOL, _checked_density

ISOMETRY_TOL = 1e-10
TIE_TOL = 1e-12


@dataclass(frozen=True)
class RoofConfig:
    """Search budget for the roof optimizer.

    ``ensemble_size`` of ``None`` means ``min(2r, r + 2)`` for a rank-r
    input. ``seed`` must be a nonnegative integer; restarts draw their
    starting points from streams derived from it.
    """

    ensemble_size: int | None = None
    restarts: int = 32
    max_iters: int = 120
    step_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise ValueError("ensemble_size must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.step_tolerance <= 0:
            raise ValueError("step_tolerance must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class RoofResult:
    """Outcome of a roof minimization.

    ``value`` is the probability-weighted average of the pure monotone over
    ``ensemble``; ``iterations_used`` counts coordinate sweeps summed over
    restarts, and ``converged`` says whether every restart shrank its step
    below tolerance within budget. ``gapped_support`` flags inputs whose
    occupied sectors are not contiguous.
    """

    value: float
    ensemble: Ensemble
    converged: bool
    iterations_used: int
    gapped_support: bool


def _support_factor(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Columns sqrt(e_j) v_j over the numerically occupied part of descending eigenpairs."""
    w = np.clip(w, 0.0, None)
    r = int((w > ZERO_TOL).sum())
    return v[:, :r] * np.sqrt(w[:r])


def _givens_mesh(m: int, r: int, params: np.ndarray) -> np.ndarray:
    """First r columns of the unitary built from a full pairwise rotation mesh."""
    u = np.eye(m, dtype=np.complex128)
    idx = 0
    for i in range(m - 1):
        for j in range(i + 1, m):
            c = math.cos(params[idx])
            s = math.sin(params[idx])
            e = complex(math.cos(params[idx + 1]), math.sin(params[idx + 1]))
            idx += 2
            row_i = u[i, :].copy()
            row_j = u[j, :]
            u[i, :] = c * row_i - e * s * row_j
            u[j, :] = np.conj(e) * s * row_i + c * row_j
    return u[:, :r]


def _average_value(factor: np.ndarray, mix: np.ndarray, evaluator) -> float:
    members = factor @ mix.T
    w2 = np.abs(members) ** 2
    probs = w2.sum(axis=0)
    total = 0.0
    for i in range(mix.shape[0]):
        p = probs[i]
        if p > ZERO_TOL:
            total += p * evaluator(w2[:, i] / p)
    return total


def _coordinate_search(
    factor: np.ndarray,
    m: int,
    r: int,
    evaluator,
    rng: np.random.Generator,
    max_iters: int,
    step_tolerance: float,
) -> tuple[float, np.ndarray, int, bool]:
    nparams = m * (m - 1)
    params = rng.uniform(0.0, 2.0 * np.pi, size=nparams)
    value = _average_value(factor, _givens_mesh(m, r, params), evaluator)
    step = 0.5
    sweeps = 0
    while sweeps < max_iters and step > step_tolerance:
        sweeps += 1
        improved = False
        for c in range(nparams):
            for delta in (step, -step):
                old = params[c]
                params[c] = old + delta
                cand = _average_value(factor, _givens_mesh(m, r, params), evaluator)
                if cand < value - 1e-14:
                    value = cand
                    improved = True
                    break
                params[c] = old
        if not improved:
            step *= 0.5
    return value, params, sweeps, step <= step_tolerance


def decomposition_from_map(rho: np.ndarray, mix: np.ndarray) -> Ensemble:
    """Pure-state ensemble induced by an isometry on the subnormalized eigenvectors.

    ``mix`` must be an m x r matrix with orthonormal columns where r is the
    numerical rank of ``rho``; member i is the normalization of
    ``sum_j mix[i, j] sqrt(e_j) v_j``.
    """
    _, w, v = _checked_density(rho)
    mat = np.asarray(mix, dtype=np.complex128)
    if mat.ndim != 2:
        raise NotIsometry(f"expected a matrix, got shape {mat.shape}")
    factor = _support_factor(w, v)
    r = factor.shape[1]
    if mat.shape[1] != r:
        raise RankMismatch(
            f"isometry has {mat.shape[1]} columns but the state has rank {r}"
        )
    if mat.shape[0] < r:
        raise RankMismatch("isometry needs at least rank-many rows")
    gram = mat.conj().T @ mat
    if np.max(np.abs(gram - np.eye(r))) > ISOMETRY_TOL:
        raise NotIsometry("columns are not orthonormal")
    return _ensemble(factor, mat)


def _ensemble(factor: np.ndarray, mix: np.ndarray) -> Ensemble:
    members = []
    vecs = factor @ mix.T
    for i in range(mix.shape[0]):
        vec = vecs[:, i]
        p = float(np.vdot(vec, vec).real)
        if p <= ZERO_TOL:
            continue
        members.append((p, vec / np.sqrt(p)))
    return Ensemble(tuple(members))


def convex_roof(
    measure: MonotoneId, rho: np.ndarray, cfg: RoofConfig = RoofConfig()
) -> RoofResult:
    """Minimize the average pure monotone over decompositions of ``rho``.

    Deterministic for a fixed (input, config) pair: restart i draws from the
    stream seeded by (cfg.seed, i), and ties across restarts within 1e-12
    resolve to the lowest restart index.
    """
    m_rho, w, v = _checked_density(rho)
    evaluator = weight_evaluator(measure, m_rho.shape[0])
    factor = _support_factor(w, v)
    r = factor.shape[1]
    diag = np.diag(m_rho).real
    occupied = np.flatnonzero(diag > ZERO_TOL)
    gapped = bool(occupied.size > 0 and occupied[-1] - occupied[0] + 1 != occupied.size)
    if r == 1:
        # A rank-1 input has a single decomposition: no search.
        vec = factor[:, 0] / np.linalg.norm(factor[:, 0])
        return RoofResult(
            value=float(evaluator(np.abs(vec) ** 2)),
            ensemble=Ensemble(((1.0, vec),)),
            converged=True,
            iterations_used=0,
            gapped_support=gapped,
        )
    m = cfg.ensemble_size if cfg.ensemble_size is not None else min(2 * r, r + 2)
    if m < r:
        raise RankMismatch(f"ensemble size {m} below the state's rank {r}")

    best: tuple[float, np.ndarray] | None = None
    total_sweeps = 0
    all_converged = True
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        value, params, sweeps, conv = _coordinate_search(
            factor, m, r, evaluator, rng, cfg.max_iters, cfg.step_tolerance
        )
        total_sweeps += sweeps
        all_converged = all_converged and conv
        if best is None or value < best[0] - TIE_TOL:
            best = (value, params)

    assert best is not None
    ensemble = _ensemble(factor, _givens_mesh(m, r, best[1]))
    value = sum(
        p * evaluator(np.abs(vec) ** 2) for p, vec in ensemble.members
    )
    return RoofResult(
        value=float(value),
        ensemble=ensemble,
        converged=all_converged,
        iterations_used=total_sweeps,
        gapped_support=gapped,
    )
