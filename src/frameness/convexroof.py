"""Convex-roof extension of pure-state monotones to density matrices.

Every decomposition of a rank-r state into m pure members corresponds to an
m x r matrix with orthonormal columns acting on the subnormalized
eigenvectors. The roof is minimized over that manifold with a derivative-free
first-improvement coordinate search on a Givens angle/phase mesh, restarted
from seeded random points.

The restarts run in lockstep. Each round takes, for every live restart, the
next run of probes of its current sweep (as many as its share of the
round's budget allows, up to the end of the sweep), scores all of them with
one evaluator call and moves each restart to its own first improving probe.
Every probe is rounded as if evaluated alone, so the paths, the value and
the ensemble are those of a search that runs the restarts one after another
and evaluates one probe at a time. A round builds at most ``PROBE_ELEMENTS``
array entries of candidates, which bounds memory at any dimension and
restart count. A restart stops when a sweep without a move halves its
step to ``STEP_TOLERANCE`` or below, or when it has used ``max_iters``
sweeps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import Ensemble
from .errors import BadRoofConfig, NotIsometry, RankMismatch
from .monotones import MonotoneId, weight_evaluator
from .numerics import ZERO_TOL, _checked_density

ISOMETRY_TOL = 1e-10
TIE_TOL = 1e-12
# A restart has converged once its step is at or below this.
STEP_TOLERANCE = 1e-6


@dataclass(frozen=True)
class RoofConfig:
    """Search budget for the roof optimizer.

    ``ensemble_size`` of ``None`` means ``min(2r, r + 2)`` for a rank-r
    input. ``ensemble_size``, ``restarts``, ``max_iters`` and ``seed`` must
    be integers (Python or numpy, not ``bool``) and are stored as ``int``.
    ``seed`` must be nonnegative; restarts draw their starting points from
    streams derived from it. The step floor is the module constant
    ``STEP_TOLERANCE``.
    """

    ensemble_size: int | None = None
    restarts: int = 32
    max_iters: int = 120
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("ensemble_size", "restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if value is None and name == "ensemble_size":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise BadRoofConfig(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise BadRoofConfig("ensemble_size must be positive")
        if self.restarts < 1:
            raise BadRoofConfig("restarts must be positive")
        if self.max_iters < 1:
            raise BadRoofConfig("max_iters must be positive")
        if self.seed < 0:
            raise BadRoofConfig("seed must be nonnegative")


@dataclass(frozen=True)
class RoofResult:
    """Outcome of a roof minimization.

    ``value`` is the probability-weighted average of the pure monotone over
    ``ensemble``; ``iterations_used`` counts coordinate sweeps summed over
    restarts, and ``converged`` says whether every restart shrank its step
    to ``STEP_TOLERANCE`` within ``max_iters`` sweeps. A sweep probes every
    coordinate in order and takes the first improvement. The restarts
    advance in lockstep rounds that score the probes of all live restarts
    together, with the same results as one probe and one restart at a
    time. ``gapped_support`` flags inputs whose occupied sectors are not
    contiguous.
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


# Array entries per round of speculative probes. One candidate ensemble of
# m members in dimension d takes about m * (2m + d): its rotation
# coefficients and its members. A round holds as many candidates as fit,
# at least one.
PROBE_ELEMENTS = 2**16


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
    table = trig.T
    c = table[0, 0::2]
    s = table[1, 0::2]
    es_re = table[0, 1::2] * s
    es_im = table[1, 1::2] * s
    coefficients = np.empty((c.shape[0], 2, 2, 1, k), dtype=np.complex128)
    coefficients[:, 0, 0, 0] = c
    coefficients[:, 1, 1, 0] = c
    upper = coefficients[:, 0, 1, 0]
    lower = coefficients[:, 1, 0, 0]
    np.negative(es_re, out=upper.real)
    np.negative(es_im, out=upper.imag)
    lower.real = es_re
    lower.imag = upper.imag
    # u starts as the first r columns of the m x m identity.
    u = np.zeros((m, r, k), dtype=np.complex128)
    u.reshape(m * r, k)[: r * (r + 1) : r + 1] = 1.0
    # terms[a, b] is coefficient (a, b) times row b of the pair.
    terms = np.empty((2, 2, r, k), dtype=np.complex128)
    first, second = terms[:, 0], terms[:, 1]
    for coefficient, (i, j) in zip(coefficients, itertools.combinations(range(m), 2)):
        rows = u[i : j + 1 : j - i]
        np.multiply(coefficient, rows, out=terms)
        np.add(first, second, out=rows)
    return np.ascontiguousarray(u.transpose(2, 0, 1))


def _average_values(factor: np.ndarray, meshes: np.ndarray, evaluator) -> np.ndarray:
    """Average monotone of the ensemble each (m, r) mesh induces, in one evaluator call.

    Members with probability at or below ``ZERO_TOL`` are dropped, and each
    average is accumulated over the members left to right. The evaluator
    scores every member's weights as a row of its own, so a dropped
    member's row (divided by 1) changes no other.
    """
    members = factor @ meshes.transpose(0, 2, 1)
    w2 = np.square(np.abs(members))
    probs = np.add.reduce(w2, axis=1)
    kept = probs > ZERO_TOL
    weights = np.divide(w2.transpose(0, 2, 1), np.where(kept, probs, 1.0)[..., None], order="C")
    terms = np.where(kept, probs * evaluator(weights), 0.0)
    return np.add.accumulate(terms, axis=1)[:, -1]


def _lockstep_search(
    factor: np.ndarray, m: int, evaluator, seeds: list[list[int]], budget: int, cfg: RoofConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run one first-improvement search per seed, all in lockstep.

    Returns each restart's final value, its (cos, sin) table, its sweep
    count and whether its step shrank to ``STEP_TOLERANCE``. A round builds at
    most ``budget`` candidate meshes when ``len(seeds) <= budget``.
    """
    # Each restart runs a first-improvement search: probe (c, +step),
    # (c, -step), (c + 1, +step), ... in order, move to the first probe below
    # the current value and go on from the next coordinate; a sweep without
    # a move halves the step. Row i of every state array is restart i:
    # point[i, c] holds coordinate c's angle with its cosine and sine, and
    # probes[i, k] the same for probe k of the current sweep, its column k.
    # A round takes a window of the next probes of every live restart's
    # sweep, scores them all in one evaluator call and moves each restart to
    # its own first improvement; the probes after it are discarded, so every
    # restart follows the path of one probe at a time. A move changes only
    # the coordinate it probed, and the rest of the sweep probes later
    # coordinates, so each probe's angle, cosine and sine are computed once,
    # as its sweep starts.
    r = factor.shape[1]
    nparams = m * (m - 1)
    width = 2 * nparams
    columns = np.arange(width)
    coord_of = columns >> 1
    # After a move at probe k, the sweep goes on from the first probe of
    # the next coordinate.
    after = (columns | 1) + 1
    signs = np.tile([1.0, -1.0], nparams)
    restarts = len(seeds)
    lanes = np.arange(restarts)
    point = np.empty((restarts, nparams, 3))
    point[..., 0] = [np.random.default_rng(s).uniform(0.0, 2.0 * np.pi, nparams) for s in seeds]
    np.cos(point[..., 0], out=point[..., 1])
    np.sin(point[..., 0], out=point[..., 2])
    value = _average_values(factor, _givens_meshes(m, r, point[..., 1:]), evaluator)
    probes = np.empty((restarts, width, 3))
    scores = np.empty((restarts, width))
    step = np.full(restarts, 0.5)
    sweeps = np.zeros(restarts, dtype=np.int64)
    live = np.ones(restarts, dtype=bool)
    # Every restart starts at the end of a sweep that moved, so the sweep
    # bookkeeping starts its first sweep, or none if the budget allows none.
    # A finished restart keeps its row, with no probes left in it.
    position = np.full(restarts, width)
    improved = np.ones(restarts, dtype=bool)
    quota = max(1, budget // restarts)
    while True:
        ended = live & (position == width)
        if np.count_nonzero(ended):
            step[ended & ~improved] *= 0.5
            more = ended & (sweeps < cfg.max_iters) & (step > STEP_TOLERANCE)
            done = ended & ~more
            if np.count_nonzero(done):
                live &= ~done
                count = np.count_nonzero(live)
                if not count:
                    break
                quota = max(1, budget // count)
            starting = more.nonzero()[0]
            sweeps[starting] += 1
            improved[starting] = False
            position[starting] = 0
            sweep = point[starting[:, None], coord_of]
            sweep[..., 0] += step[starting, None] * signs
            np.cos(sweep[..., 0], out=sweep[..., 1])
            np.sin(sweep[..., 0], out=sweep[..., 2])
            probes[starting] = sweep
        window = columns >= position[:, None]
        stop = width
        if quota < width:
            stop = np.minimum(position + quota, width)
            window &= columns < stop[:, None]
        owner, column = window.nonzero()
        tables = point.repeat(stop - position, axis=0)
        tables[np.arange(owner.size), coord_of[column]] = probes[owner, column]
        scores.fill(np.inf)
        scores[window] = _average_values(factor, _givens_meshes(m, r, tables[..., 1:]), evaluator)
        limit = value - 1e-14
        first = (scores < limit[:, None]).argmax(axis=1)
        best = scores[lanes, first]
        moved = best < limit
        movers = moved.nonzero()[0]
        if movers.size:
            hit = first[movers]
            point[movers, hit >> 1] = probes[movers, hit]
        value = np.where(moved, best, value)
        improved |= moved
        position = np.where(moved, after[first], stop)
    return value, point[..., 1:], sweeps, step <= STEP_TOLERANCE


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

    # A round builds at most the budget's worth of candidate meshes, one
    # probe per restart at the least, so restarts run in groups of at most
    # that many.
    budget = max(1, PROBE_ELEMENTS // (m * (2 * m + factor.shape[0])))
    runs = []
    for first in range(0, cfg.restarts, budget):
        seeds = [[cfg.seed, restart] for restart in range(first, min(first + budget, cfg.restarts))]
        runs.append(_lockstep_search(factor, m, evaluator, seeds, budget, cfg))
    finals, trigs, sweeps, converged = (np.concatenate(parts) for parts in zip(*runs))
    best = 0
    for restart in range(1, cfg.restarts):
        if finals[restart] < finals[best] - TIE_TOL:
            best = restart

    ensemble = _ensemble(factor, _givens_meshes(m, r, trigs[best : best + 1])[0])
    values = evaluator(np.abs(np.array([vec for _, vec in ensemble.members])) ** 2)
    value = sum(p * v for (p, _), v in zip(ensemble.members, values))
    return RoofResult(
        value=float(value),
        ensemble=ensemble,
        converged=bool(converged.all()),
        iterations_used=int(sweeps.sum()),
        gapped_support=gapped,
    )
