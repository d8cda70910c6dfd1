"""Convex-roof extension of pure-state monotones to density matrices.

A decomposition of a rank-r state into m pure members is an m x r isometry
U: the members are the rows of V = U F^T, F the support factor. With each
monotone written as a degree-1 homogeneous function h of the weights
a = |V|^2 (``monotones.WeightMonotone.value_and_slope``), the roof average
sum_i h(|V_i|^2) has a closed-form gradient in U. It is minimized by
Riemannian gradient descent on the isometries (Wen and Yin, Math. Program.
142, 397, 2013): Barzilai-Borwein steps under a nonmonotone Armijo test,
projected onto the tangent space and retracted by the polar factor.
Restart i starts from a Haar isometry drawn from the stream seeded by
(seed, i). All live restarts share one objective call per round, which
asks the monotone once for values and slope; each restart follows the
path it would follow alone. One function, ``_search``, runs the stages.
Vidal's tail sum is not smooth: its search first descends log-sum-exp
stand-ins (``monotones.smoothed_tail_sum``) of shrinking width, since the
tail sum's plateaus hold each member on its starting sectors. At the
concurrence cap the search follows a subgradient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import Ensemble
from .errors import BadDecomposition, BadParameter
from .monotones import MonotoneId, WeightMonotone, smoothed_tail_sum
from .numerics import ZERO_TOL, _checked_density, array, instance, integer
from .states import is_gapless

ISOMETRY_TOL = 1e-10
TIE_TOL = 1e-12
# A restart has converged once the norm of its Riemannian gradient is at
# or below this.
GRADIENT_TOL = 1e-8
# Nonmonotone Armijo line search (Wen and Yin): the first step length, the
# sufficient-decrease factor, the factor a failed step shrinks by, the
# failures after which an iteration ends without a move, and the weight of
# past values in the reference value.
INITIAL_STEP = 1e-3
ARMIJO = 1e-4
BACKTRACK = 0.1
MAX_BACKTRACKS = 5
AVERAGING = 0.85
# Widths of the smoothed tail sums a vidal search descends in turn; each
# stage ends once the gradient norm is at or below STAGE_TOL times its width.
SMOOTHING_WIDTHS = (0.2, 0.06, 0.018, 0.0054)
STAGE_TOL = 0.1
# Most restarts x ensemble size x dimension entries a search may hold at
# once. Each costs about 0.3 KB across the working arrays (more for a
# concurrence or vidal order near the dimension), so a search within this
# holds about 300 MB.
ROOF_ELEMENTS = 2**20


@dataclass(frozen=True)
class RoofConfig:
    """Search budget for the roof optimizer.

    ``ensemble_size`` of ``None`` means ``r + 2`` for a rank-r input (a
    rank-1 input needs no search). ``ensemble_size``, ``restarts``,
    ``max_iters`` and ``seed`` must be integers (Python or numpy, not
    ``bool``) and are stored as ``int``. ``seed`` must be nonnegative;
    restarts draw their starting points from streams derived from it.
    ``max_iters`` bounds the gradient iterations of each restart, summed
    over a vidal search's stages; the gradient-norm threshold is the module
    constant ``GRADIENT_TOL``.
    """

    ensemble_size: int | None = None
    restarts: int = 32
    max_iters: int = 120
    seed: int = 0

    def __post_init__(self) -> None:
        for name, lo in (("ensemble_size", 1), ("restarts", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is not None or name != "ensemble_size":
                object.__setattr__(self, name, integer(value, BadParameter, name, lo))


@dataclass(frozen=True)
class RoofResult:
    """Outcome of a roof minimization.

    ``value`` is the probability-weighted average of the pure monotone over
    ``ensemble``; ``iterations_used`` counts gradient iterations summed over
    restarts, and ``converged`` says whether every restart reached a
    Riemannian gradient norm at or below ``GRADIENT_TOL`` within
    ``max_iters`` iterations. An iteration is one accepted step, or a step
    given up after ``MAX_BACKTRACKS`` backtracks. A vidal roof of rank 2 or
    more never reports ``converged``: the tail sum has no gradient, and a
    vanishing subgradient does not show that a plateau is the roof.
    ``gapped_support`` flags inputs whose occupied sectors are not
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


def _objective(factor: np.ndarray, stack: np.ndarray, value_and_slope) -> tuple[np.ndarray, np.ndarray]:
    """Roof average of each isometry in a (L, m, r) stack, with its Euclidean gradient.

    Member i of isometry U is row i of V = U F^T, and the average is the sum
    of h(|V_i|^2), h the degree-1 extension of the monotone, with gradient
    2 (D * V) conj(F) in U, D = dh/da. One GEMM builds the members of the
    whole stack; every other step acts on one row or one isometry at a
    time, so no isometry's value or gradient depends on the others.
    """
    size, m, r = stack.shape
    members = stack.reshape(size * m, r) @ factor.T
    w2 = np.square(members.real) + np.square(members.imag)
    probs = w2.sum(axis=1)
    weights = w2 / np.where(probs > 0.0, probs, 1.0)[:, None]
    values, slope = value_and_slope(weights)
    values = (probs * values).reshape(size, m).sum(axis=1)
    grad = (2.0 * slope * members) @ factor.conj()
    return values, grad.reshape(size, m, r)


def _tangent(stack: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Projection of each gradient onto the tangent space at its isometry: G - U sym(U^H G)."""
    inner = stack.conj().transpose(0, 2, 1) @ grad
    return grad - stack @ (0.5 * (inner + inner.conj().transpose(0, 2, 1)))


def _polar(stack: np.ndarray) -> np.ndarray:
    """Nearest isometry to each matrix of the stack, its polar factor W Z^H."""
    w, _, zh = np.linalg.svd(stack, full_matrices=False)
    return w @ zh


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real inner product Re tr(x^H y) of each pair of matrices."""
    rows = (x.shape[0], x.shape[1] * x.shape[2])
    return np.vecdot(x.reshape(rows), y.reshape(rows)).real


def _descend(
    factor: np.ndarray, u: np.ndarray, value_and_slope, tol: float, iterations: np.ndarray, max_iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Riemannian gradient descent from every isometry of the stack ``u``, updated in place.

    Each round evaluates one trial point per live restart in one objective
    call. A restart whose trial passes the nonmonotone Armijo test moves
    there and takes its next step length from the Barzilai-Borwein ratio;
    one that fails shrinks its step and tries again in the next round, and
    after ``MAX_BACKTRACKS`` failures ends the iteration where it is. A
    restart stops once its gradient norm is at or below ``tol`` or its
    count in ``iterations``, updated in place, reaches ``max_iters``. Returns
    each restart's final value and whether its gradient norm reached ``tol``.
    """
    value, grad = _objective(factor, u, value_and_slope)
    g = _tangent(u, grad)
    converged = np.zeros(len(u), dtype=bool)
    # Every restart starts live; each round first writes back the stopped ones and compacts the rest.
    lanes, x, fx, g2, count = np.arange(len(u)), u.copy(), value.copy(), _inner(g, g), iterations.copy()
    reference, weight = fx.copy(), np.ones_like(fx)
    step, failures = np.full_like(fx, INITIAL_STEP), np.zeros_like(count)
    while True:
        stop = (g2 <= tol**2) | (count >= max_iters)
        if np.count_nonzero(stop):
            out = lanes[stop]
            u[out], value[out], converged[out], iterations[out] = x[stop], fx[stop], g2[stop] <= tol**2, count[stop]
            state = (lanes, x, fx, g, g2, count, reference, weight, step, failures)
            lanes, x, fx, g, g2, count, reference, weight, step, failures = (a[~stop] for a in state)
        if not lanes.size:
            return value, converged
        trial = _polar(x - step[:, None, None] * g)
        trial_value, trial_grad = _objective(factor, trial, value_and_slope)
        passed = trial_value <= reference - ARMIJO * step * g2
        # Most rounds pass on every lane and update whole arrays; else failed lanes backtrack, the rest move.
        moved = ended = slice(None)
        all_passed = np.count_nonzero(passed) == lanes.size
        if not all_passed:
            failed = ~passed
            step[failed] *= BACKTRACK
            failures[failed] += 1
            moved, ended = passed, passed | (failed & (failures > MAX_BACKTRACKS))
            trial, trial_value, trial_grad = trial[moved], trial_value[moved], trial_grad[moved]
        trial_xi = _tangent(trial, trial_grad)
        s = trial - x[moved]
        y = trial_xi - g[moved]
        sy = np.abs(_inner(s, y))
        # Short and long Barzilai-Borwein steps, alternately; _search ignores their division warnings.
        bb = np.where(count[moved] % 2 == 1, _inner(s, s) / sy, sy / _inner(y, y))
        step[moved] = np.where(np.isfinite(bb) & (bb > 0.0), bb, step[moved])
        # The reference value is a running average of the values reached
        # (Zhang and Hager), which lets a step rise above the last value.
        if all_passed:
            # Every lane moves: take the trial arrays, and update the pair in place
            # with the roundings of the masked form, ((A w) ref + value) / (A w + 1).
            weight *= AVERAGING
            reference *= weight
            reference += trial_value
            weight += 1.0
            reference /= weight
            x, fx, g, g2 = trial, trial_value, trial_xi, _inner(trial_xi, trial_xi)
        else:
            total = AVERAGING * weight[moved] + 1.0
            reference[moved] = (AVERAGING * weight[moved] * reference[moved] + trial_value) / total
            weight[moved] = total
            x[moved], fx[moved], g[moved], g2[moved] = trial, trial_value, trial_xi, _inner(trial_xi, trial_xi)
        count[ended] += 1
        failures[ended] = 0


def _search(monotone: WeightMonotone, factor: np.ndarray, u: np.ndarray, max_iters: int) -> tuple[np.ndarray, ...]:
    """The roof search from every isometry of the stack ``u``, updated in place: a vidal
    search descends its ``SMOOTHING_WIDTHS`` stand-ins, each to ``STAGE_TOL`` times the width,
    then every search the monotone itself to ``GRADIENT_TOL``, the stages sharing ``max_iters``.
    Returns each restart's value, whether it converged (never, for vidal) and its iterations."""
    iterations = np.zeros(len(u), dtype=np.int64)
    vidal = monotone.measure.kind == "vidal"
    with np.errstate(divide="ignore", invalid="ignore"):
        for width in SMOOTHING_WIDTHS if vidal else ():
            _descend(factor, u, smoothed_tail_sum(monotone, width), STAGE_TOL * width, iterations, max_iters)
        values, converged = _descend(factor, u, monotone.value_and_slope, GRADIENT_TOL, iterations, max_iters)
    return values, converged & (not vidal), iterations


def decomposition_from_map(rho: np.ndarray, mix: np.ndarray) -> Ensemble:
    """Pure-state ensemble induced by an isometry on the subnormalized eigenvectors.

    ``mix`` must be an m x r matrix with orthonormal columns where r is the
    numerical rank of ``rho``; member i is the normalization of
    ``sum_j mix[i, j] sqrt(e_j) v_j``.
    """
    _, w, v = _checked_density(rho)
    mat = array(mix, BadDecomposition, "isometry entry", real=False)
    if mat.ndim != 2:
        raise BadDecomposition(f"expected a matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():  # NaN would pass the orthonormality test
        raise BadDecomposition("isometry has non-finite entries")
    factor = _support_factor(w, v)
    r = factor.shape[1]
    if mat.shape[1] != r:
        raise BadDecomposition(
            f"isometry has {mat.shape[1]} columns but the state has rank {r}"
        )
    if mat.shape[0] < r:
        raise BadDecomposition("isometry needs at least rank-many rows")
    gram = mat.conj().T @ mat
    if np.max(np.abs(gram - np.eye(r))) > ISOMETRY_TOL:
        raise BadDecomposition("columns are not orthonormal")
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


# Keyed on the budget and shape alone, never on the density, so consecutive
# roofs at one budget and shape (the qubit roofs of the acceptance suite)
# share one draw. Read-only: a search moves a copy. One entry, as for the
# density spectrum: at most ROOF_ELEMENTS complex entries, 16 MB.
@functools.lru_cache(maxsize=1)
def _haar_starts(seed: int, restarts: int, m: int, r: int) -> np.ndarray:
    # The polar factor of a complex Gaussian matrix is a Haar isometry.
    z = np.array([np.random.default_rng([seed, i]).normal(size=(2, m, r)) for i in range(restarts)])
    starts = _polar(z[:, 0] + 1j * z[:, 1])
    starts.flags.writeable = False
    return starts


def convex_roof(
    measure: MonotoneId, rho: np.ndarray, cfg: RoofConfig = RoofConfig()
) -> RoofResult:
    """Minimize the average pure monotone over decompositions of ``rho``.

    Deterministic for a fixed (input, config) pair: restart i draws from the
    stream seeded by (cfg.seed, i), and ties across restarts within 1e-12
    resolve to the lowest restart index. A ``cfg`` that is not a
    :class:`RoofConfig`, or a search whose restarts x ensemble size x
    dimension exceeds ``ROOF_ELEMENTS``, raises ``BadParameter`` before any
    draw.
    """
    instance(cfg, RoofConfig, BadParameter, "cfg")
    m_rho, w, v = _checked_density(rho)
    monotone = WeightMonotone(measure, m_rho.shape[0])
    factor = _support_factor(w, v)
    r = factor.shape[1]
    gapped = not is_gapless(np.flatnonzero(np.diag(m_rho).real > ZERO_TOL))
    if r == 1:
        # A rank-1 input has a single decomposition: no search.
        ensemble = Ensemble(((1.0, factor[:, 0] / np.linalg.norm(factor[:, 0])),))
        converged, iterations = np.ones(1, dtype=bool), np.zeros(1, dtype=np.int64)
    else:
        m = cfg.ensemble_size if cfg.ensemble_size is not None else r + 2
        if m < r:
            raise BadDecomposition(f"ensemble size {m} below the state's rank {r}")
        elements = cfg.restarts * m * m_rho.shape[0]
        if elements > ROOF_ELEMENTS:
            raise BadParameter(
                f"restarts x ensemble size x dimension = {cfg.restarts} x {m} x {m_rho.shape[0]}"
                f" = {elements} exceeds the roof budget of {ROOF_ELEMENTS} entries"
            )
        mixes = _haar_starts(cfg.seed, cfg.restarts, m, r).copy()
        finals, converged, iterations = _search(monotone, factor, mixes, cfg.max_iters)
        best = 0
        for restart in range(1, cfg.restarts):
            if finals[restart] < finals[best] - TIE_TOL:
                best = restart
        ensemble = _ensemble(factor, mixes[best])
    values = monotone.values(np.abs(np.array([vec for _, vec in ensemble.members])) ** 2)
    value = sum(p * v for (p, _), v in zip(ensemble.members, values))
    return RoofResult(
        value=float(value),
        ensemble=ensemble,
        converged=bool(converged.all()),
        iterations_used=int(iterations.sum()),
        gapped_support=gapped,
    )
