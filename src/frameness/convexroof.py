"""Convex-roof extension of pure-state monotones to density matrices.

Every decomposition of a rank-r state into m pure members corresponds to an
m x r matrix with orthonormal columns acting on the subnormalized
eigenvectors. The roof is minimized over that manifold with a derivative-free
first-improvement coordinate search on a Givens angle/phase mesh, restarted
from seeded random points.

The search probes speculatively in batches: from the current point it builds
the remaining probes of the sweep in order, evaluates each batch with one
evaluator call and moves to the first probe that improves. Every probe is
rounded as if evaluated alone, so the path, the value and the ensemble are
those of the search that evaluates one probe at a time. A batch holds at
most ``PROBE_ELEMENTS`` array entries, which bounds memory at any dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Ensemble
from .errors import BadRoofConfig, NotIsometry, RankMismatch
from .monotones import MonotoneId, weight_evaluator
from .numerics import ZERO_TOL, _checked_density

ISOMETRY_TOL = 1e-10
TIE_TOL = 1e-12


@dataclass(frozen=True)
class RoofConfig:
    """Search budget for the roof optimizer.

    ``ensemble_size`` of ``None`` means ``min(2r, r + 2)`` for a rank-r
    input. ``step_tolerance`` must be finite and positive. ``seed`` must be
    a nonnegative integer; restarts draw their starting points from streams
    derived from it.
    """

    ensemble_size: int | None = None
    restarts: int = 32
    max_iters: int = 120
    step_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise BadRoofConfig("ensemble_size must be positive")
        if self.restarts < 1:
            raise BadRoofConfig("restarts must be positive")
        if self.max_iters < 1:
            raise BadRoofConfig("max_iters must be positive")
        if not math.isfinite(self.step_tolerance):
            raise BadRoofConfig("step_tolerance must be finite")
        if self.step_tolerance <= 0:
            raise BadRoofConfig("step_tolerance must be positive")
        if self.seed < 0:
            raise BadRoofConfig("seed must be nonnegative")


@dataclass(frozen=True)
class RoofResult:
    """Outcome of a roof minimization.

    ``value`` is the probability-weighted average of the pure monotone over
    ``ensemble``; ``iterations_used`` counts coordinate sweeps summed over
    restarts, and ``converged`` says whether every restart shrank its step
    below tolerance within budget. A sweep probes every coordinate in order
    and takes the first improvement; the probes are evaluated in batches,
    with the same results as one at a time. ``gapped_support`` flags inputs
    whose occupied sectors are not contiguous.
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


# Array entries per batch of speculative probes. One candidate ensemble of
# m members in dimension d takes about m * (2m + d): its rotation
# coefficients and its members. A batch holds as many candidates as fit,
# at least one.
PROBE_ELEMENTS = 2**16


def _trig(angles) -> np.ndarray:
    """(cos, sin) of each angle, from ``math`` one angle at a time."""
    return np.array([(math.cos(x), math.sin(x)) for x in angles]).reshape(-1, 2)


def _givens_meshes(m: int, r: int, trig: np.ndarray) -> np.ndarray:
    """First r columns of the unitaries built from full pairwise rotation meshes.

    ``trig`` is a (K, m(m-1), 2) table: for each of K meshes, the cosine and
    sine of the angle theta and then of the phase phi of each pair (i, j).
    Rotation (i, j) replaces rows i and j by c u_i - e s u_j and
    conj(e) s u_i + c u_j, with c, s = cos, sin(theta) and e = exp(i phi).
    Returns (K, m, r). Each mesh rounds as if built alone: e s is formed
    componentwise, and the K meshes run along the last, contiguous axis.
    """
    k = trig.shape[0]
    c = trig[:, 0::2, 0].T
    s = trig[:, 0::2, 1].T
    es_re = trig[:, 1::2, 0].T * s
    es_im = trig[:, 1::2, 1].T * s
    coefficients = np.empty((c.shape[0], 2, 2, 1, k), dtype=np.complex128)
    coefficients[:, 0, 0, 0] = c
    coefficients[:, 1, 1, 0] = c
    coefficients[:, 0, 1, 0].real = -es_re
    coefficients[:, 0, 1, 0].imag = -es_im
    coefficients[:, 1, 0, 0].real = es_re
    coefficients[:, 1, 0, 0].imag = -es_im
    u = np.eye(m, r, dtype=np.complex128)[:, :, None].repeat(k, axis=2)
    pair = 0
    for i in range(m - 1):
        for j in range(i + 1, m):
            # A view of rows i and j; terms[a, b] is coefficient (a, b) times row b.
            rows = u[i : j + 1 : j - i]
            terms = coefficients[pair] * rows
            np.add(terms[:, 0], terms[:, 1], out=rows)
            pair += 1
    return np.ascontiguousarray(u.transpose(2, 0, 1))


def _average_values(factor: np.ndarray, meshes: np.ndarray, evaluator) -> np.ndarray:
    """Average monotone of the ensemble each (m, r) mesh induces, in one evaluator call.

    Members with probability at or below ``ZERO_TOL`` are dropped, and each
    average is accumulated over the members left to right.
    """
    members = factor @ meshes.transpose(0, 2, 1)
    w2 = np.abs(members) ** 2
    probs = w2.sum(axis=1)
    kept = probs > ZERO_TOL
    p = probs[kept]
    terms = np.zeros(probs.shape)
    terms[kept] = p * evaluator(w2.transpose(0, 2, 1)[kept] / p[:, None])
    return np.add.accumulate(terms, axis=1)[:, -1]


def _coordinate_search(
    factor: np.ndarray,
    m: int,
    r: int,
    evaluator,
    rng: np.random.Generator,
    max_iters: int,
    step_tolerance: float,
) -> tuple[float, np.ndarray, int, bool]:
    # First-improvement search: probe (c, +step), (c, -step), (c + 1, +step),
    # ... in order, move to the first probe below the current value and go
    # on from the next coordinate. The probes after the current one are
    # evaluated speculatively, a batch at a time; whatever follows the first
    # improvement is discarded, so the path is that of one probe at a time.
    nparams = m * (m - 1)
    params = rng.uniform(0.0, 2.0 * np.pi, size=nparams)
    trig = _trig(params)
    value = _average_values(factor, _givens_meshes(m, r, trig[None]), evaluator)[0]
    batch = max(1, PROBE_ELEMENTS // (m * (2 * m + factor.shape[0])))
    coord_of = np.arange(2 * nparams) // 2
    rows = np.arange(batch)
    step = 0.5
    sweeps = 0
    while sweeps < max_iters and step > step_tolerance:
        sweeps += 1
        improved = False
        deltas = np.tile([step, -step], nparams)
        probe = 0
        while probe < 2 * nparams:
            end = min(probe + batch, 2 * nparams)
            coords = coord_of[probe:end]
            trials = params[coords] + deltas[probe:end]
            tables = trig[None].repeat(end - probe, axis=0)
            tables[rows[: end - probe], coords] = _trig(trials)
            values = _average_values(factor, _givens_meshes(m, r, tables), evaluator)
            better = values < value - 1e-14
            hit = int(better.argmax())
            if not better[hit]:
                probe = end
                continue
            coord = coords[hit]
            params[coord] = trials[hit]
            trig = tables[hit]
            value = values[hit]
            improved = True
            probe = 2 * (coord + 1)
        if not improved:
            step *= 0.5
    return value, trig, sweeps, step <= step_tolerance


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
        value, trig, sweeps, conv = _coordinate_search(
            factor, m, r, evaluator, rng, cfg.max_iters, cfg.step_tolerance
        )
        total_sweeps += sweeps
        all_converged = all_converged and conv
        if best is None or value < best[0] - TIE_TOL:
            best = (value, trig)

    assert best is not None
    ensemble = _ensemble(factor, _givens_meshes(m, r, best[1][None])[0])
    values = evaluator(np.abs(np.array([vec for _, vec in ensemble.members])) ** 2)
    value = sum(p * v for (p, _), v in zip(ensemble.members, values))
    return RoofResult(
        value=float(value),
        ensemble=ensemble,
        converged=all_converged,
        iterations_used=total_sweeps,
        gapped_support=gapped,
    )
