import tracemalloc
from math import comb

import numpy as np
import pytest

from frameness import (
    BadDecomposition,
    BadMonotone,
    BadParameter,
    MonotoneId,
    RoofConfig,
    StandardState,
    apply_channel_density,
    convex_roof,
    decomposition_from_map,
    evaluate_pure,
    qubit_concurrence,
    qubit_fof,
    qubit_formation,
    random_channel,
    random_density_matrix,
    twirl,
)
from frameness import convexroof
from frameness.convexroof import (
    ROOF_ELEMENTS,
    SMOOTHING_WIDTHS,
    _ensemble,
    _objective,
    _polar,
    _search,
    _support_factor,
    _tangent,
)
from frameness.monotones import WeightMonotone, smoothed_tail_sum
from frameness.numerics import MAX_DIM, _checked_density

CONC2 = MonotoneId("concurrence", 2)
VAR = MonotoneId("variance")
FAST_CFG = RoofConfig(ensemble_size=2, restarts=8, seed=5)


def haar_isometry(m, r, rng):
    z = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
    q, rr = np.linalg.qr(z)
    return q * (np.diagonal(rr) / np.abs(np.diagonal(rr)))


def test_decomposition_identity_map_is_spectral():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(2, rng)
    w, v = np.linalg.eigh(rho)
    ens = decomposition_from_map(rho, np.eye(2))
    probs = sorted(ens.probabilities)
    assert np.allclose(probs, np.sort(w), atol=1e-12)
    assert np.max(np.abs(ens.mixture() - rho)) < 1e-12
    # A zero row of the map gives a member of probability 0, which is left out.
    padded = decomposition_from_map(rho, np.vstack([np.eye(2), np.zeros((1, 2))]))
    assert np.array_equal(padded.probabilities, ens.probabilities)


def test_decomposition_hadamard_on_mixed():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    ens = decomposition_from_map(0.5 * np.eye(2), h)
    assert len(ens.members) == 2
    for p, vec in ens.members:
        assert p == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(np.abs(vec) ** 2, [0.5, 0.5], atol=1e-12)


def test_decomposition_random_isometries_reconstruct():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        r = int(rng.integers(1, d + 1))
        rho = random_density_matrix(d, rng, rank=r)
        m = int(rng.integers(r, 2 * r + 1))
        ens = decomposition_from_map(rho, haar_isometry(m, r, rng))
        assert np.max(np.abs(ens.mixture() - rho)) < 1e-9


def test_decomposition_rejects_bad_maps():
    rho = random_density_matrix(2, np.random.default_rng(11))
    with pytest.raises(BadDecomposition, match="columns are not orthonormal"):
        decomposition_from_map(rho, np.ones((2, 2)))
    with pytest.raises(BadDecomposition, match="isometry has 3 columns but the state has rank 2"):
        decomposition_from_map(rho, np.eye(3))
    with pytest.raises(BadDecomposition, match="isometry has 2 columns but the state has rank 1"):
        decomposition_from_map(np.diag([1.0, 0.0]), np.eye(2))
    with pytest.raises(BadDecomposition, match=r"^expected a matrix, got shape \(2,\)$"):
        decomposition_from_map(rho, [1.0, 0.0])
    with pytest.raises(BadDecomposition, match="^isometry needs at least rank-many rows$"):
        decomposition_from_map(rho, [[1.0, 0.0]])
    # NaN passed the orthonormality test, then raised RuntimeWarnings and
    # InvalidState from the ensemble's probabilities.
    for bad in (np.nan, np.inf):
        with pytest.raises(BadDecomposition, match="^isometry has non-finite entries$"):
            decomposition_from_map(rho, [[bad, 0.0], [0.0, 1.0]])


def test_roof_rank_one_is_exact():
    vec = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    rho = np.outer(vec, vec)
    for measure in (MonotoneId("vidal", 2), MonotoneId("entropy"), CONC2, VAR):
        res = convex_roof(measure, rho, FAST_CFG)
        assert res.converged
        assert res.iterations_used == 0
        direct = evaluate_pure(measure, StandardState([0.3, 0.7]))
        assert res.value == pytest.approx(direct, abs=1e-12)
        assert len(res.ensemble.members) == 1
    # On a charge eigenstate every roof is +0.0; the entropy roof was -0.0.
    for measure in (MonotoneId("vidal", 2), MonotoneId("entropy"), CONC2, VAR):
        assert not np.signbit(convex_roof(measure, np.diag([0.0, 1.0]), FAST_CFG).value), measure


def test_roof_diagonal_qubit_vanishes():
    rho = np.diag([0.3, 0.7])
    for measure in (CONC2, VAR, MonotoneId("vidal", 2), MonotoneId("entropy")):
        res = convex_roof(measure, rho, FAST_CFG)
        assert res.value <= 1e-6


def test_entropy_roof_is_nonnegative_on_dephased_states():
    # The search reached members one ulp past a charge eigenstate, whose
    # entropy was negative: -1.0e-17 on diag(0.7, 0.3) at seed 4, and down
    # to -2.0e-16 on these dephased d = 3 states.
    entropy = MonotoneId("entropy")
    assert not np.signbit(convex_roof(entropy, np.diag([0.7, 0.3]), RoofConfig(seed=4)).value)
    for s in (11, 14, 16, 17):
        rho = twirl(random_density_matrix(3, np.random.default_rng([5, 3, s])))
        assert not np.signbit(convex_roof(entropy, rho, RoofConfig(restarts=4, max_iters=60)).value), s


def test_roof_matches_qubit_closed_forms():
    rng = np.random.default_rng(13)
    for _ in range(10):
        rho = random_density_matrix(2, rng)
        res_c = convex_roof(CONC2, rho, FAST_CFG)
        assert abs(res_c.value - qubit_concurrence(rho)) < 1e-3
        res_v = convex_roof(VAR, rho, FAST_CFG)
        assert abs(res_v.value - qubit_fof(rho)) < 2e-3


def test_roof_default_config_matches_closed_form():
    rho = random_density_matrix(2, np.random.default_rng(17))
    res = convex_roof(CONC2, rho, RoofConfig(seed=2, restarts=6))
    assert abs(res.value - qubit_concurrence(rho)) < 1e-3


def test_roof_never_exceeds_explicit_decompositions():
    rng = np.random.default_rng(19)
    rho = random_density_matrix(2, rng)
    res = convex_roof(CONC2, rho, FAST_CFG)
    evaluator = lambda vec: 2.0 * np.sqrt(np.prod(np.abs(vec) ** 2))
    for _ in range(100):
        m = int(rng.integers(2, 5))
        ens = decomposition_from_map(rho, haar_isometry(m, 2, rng))
        avg = sum(p * evaluator(vec) for p, vec in ens.members)
        assert res.value <= avg + 1e-10


def test_roof_result_consistency():
    rho = random_density_matrix(2, np.random.default_rng(23))
    res = convex_roof(CONC2, rho, FAST_CFG)
    assert np.max(np.abs(res.ensemble.mixture() - rho)) < 1e-8
    avg = sum(
        p * 2.0 * np.sqrt(np.prod(np.abs(vec) ** 2)) for p, vec in res.ensemble.members
    )
    assert abs(res.value - avg) < 1e-10
    assert not res.gapped_support


def test_roof_flags_gapped_support():
    rho = np.diag([0.5, 0.0, 0.5])
    res = convex_roof(VAR, rho, RoofConfig(ensemble_size=2, restarts=4, seed=1))
    assert res.gapped_support


def test_roof_deterministic():
    rho = random_density_matrix(2, np.random.default_rng(29))
    a = convex_roof(CONC2, rho, FAST_CFG)
    b = convex_roof(CONC2, rho, FAST_CFG)
    assert a.value == b.value
    for (pa, va), (pb, vb) in zip(a.ensemble.members, b.ensemble.members):
        assert pa == pb
        assert np.array_equal(va, vb)


@pytest.mark.parametrize("field", ["ensemble_size", "restarts", "max_iters", "seed"])
def test_roof_config_rejects_non_integer_fields(field):
    for bad in (2.5, 3.0, True, np.bool_(True), "3"):
        with pytest.raises(BadParameter, match=f"{field} must be an integer"):
            RoofConfig(**{field: bad})


def test_roof_config_accepts_numpy_integers():
    fields = ("ensemble_size", "restarts", "max_iters", "seed")
    cfg = RoofConfig(
        ensemble_size=np.int64(2), restarts=np.int32(3), max_iters=np.uint8(9), seed=np.int16(7)
    )
    plain = RoofConfig(ensemble_size=2, restarts=3, max_iters=9, seed=7)
    assert cfg == plain
    assert all(type(getattr(cfg, name)) is int for name in fields)
    rho = random_density_matrix(2, np.random.default_rng(59))
    a, b = convex_roof(VAR, rho, cfg), convex_roof(VAR, rho, plain)
    assert _roof_bytes(a.value, a.ensemble, a.converged, a.iterations_used) == (
        _roof_bytes(b.value, b.ensemble, b.converged, b.iterations_used)
    )


def test_roof_rejects_too_small_ensemble():
    rho = random_density_matrix(3, np.random.default_rng(31))
    with pytest.raises(BadDecomposition, match="ensemble size 2 below the state's rank 3"):
        convex_roof(CONC2, rho, RoofConfig(ensemble_size=2, restarts=2, seed=0))


@pytest.mark.parametrize(
    "cfg, product",
    [
        (RoofConfig(ensemble_size=10**12, restarts=1), "1 x 1000000000000 x 2 = 2000000000000"),
        (RoofConfig(restarts=10**12), "1000000000000 x 4 x 2 = 8000000000000"),
    ],
)
def test_roof_budget_is_checked_before_any_draw(cfg, product):
    # Each once raised numpy's MemoryError or kept drawing restarts without end.
    rho = random_density_matrix(2, np.random.default_rng(3))
    _checked_density(rho)
    tracemalloc.start()
    try:
        with pytest.raises(BadParameter, match=f"^restarts x ensemble size x dimension = {product} exceeds"):
            convex_roof(CONC2, rho, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_roof_budget_bound_is_inclusive(monkeypatch):
    rho = random_density_matrix(2, np.random.default_rng(3))
    cfg = RoofConfig(ensemble_size=3, restarts=2, max_iters=2)
    monkeypatch.setattr(convexroof, "ROOF_ELEMENTS", 2 * 3 * 2)
    convex_roof(CONC2, rho, cfg)
    monkeypatch.setattr(convexroof, "ROOF_ELEMENTS", 2 * 3 * 2 - 1)
    with pytest.raises(BadParameter, match="exceeds the roof budget of 11 entries$"):
        convex_roof(CONC2, rho, cfg)


def test_roof_rejects_a_config_that_is_no_roof_config():
    # Once a bare AttributeError on cfg.ensemble_size.
    rho = random_density_matrix(2, np.random.default_rng(3))
    with pytest.raises(BadParameter, match="^cfg must be a RoofConfig, got NoneType$"):
        convex_roof(CONC2, rho, None)
    with pytest.raises(BadParameter, match="^cfg must be a RoofConfig, got dict$"):
        convex_roof(CONC2, np.diag([1.0, 0.0]), {"restarts": 2})


def test_roof_rejects_a_measure_that_is_no_monotone_id():
    rho = random_density_matrix(2, np.random.default_rng(3))
    with pytest.raises(BadMonotone, match="^measure must be a MonotoneId, got str$"):
        convex_roof("entropy", rho)


def test_default_roof_fits_the_budget_at_every_dimension():
    # The default ensemble size is at most rank + 2, and the rank at most MAX_DIM.
    assert RoofConfig().restarts * (MAX_DIM + 2) * MAX_DIM <= ROOF_ELEMENTS


def test_roof_convexity_in_the_state():
    rng = np.random.default_rng(37)
    for _ in range(5):
        rho1 = random_density_matrix(2, rng)
        rho2 = random_density_matrix(2, rng)
        r1 = convex_roof(CONC2, rho1, FAST_CFG).value
        r2 = convex_roof(CONC2, rho2, FAST_CFG).value
        for t in (0.25, 0.5, 0.75):
            mix = convex_roof(CONC2, t * rho1 + (1 - t) * rho2, FAST_CFG).value
            assert mix <= t * r1 + (1 - t) * r2 + 2e-3
            # closed-form evaluator: same inequality without optimizer noise
            assert qubit_concurrence(t * rho1 + (1 - t) * rho2) <= (
                t * qubit_concurrence(rho1) + (1 - t) * qubit_concurrence(rho2) + 1e-12
            )


def test_closed_form_is_ensemble_monotone():
    # concurrence of the input dominates the average over channel outcomes,
    # with the closed form standing in for the roof on both sides
    rng = np.random.default_rng(41)
    for trial in range(25):
        rho = random_density_matrix(2, rng)
        ch = random_channel(2, (-1, 0, 1), seed=500 + trial)
        ens = apply_channel_density(ch, rho)
        avg = sum(p * qubit_concurrence(sigma) for p, sigma in ens.members)
        assert qubit_concurrence(rho) - avg >= -1e-9


def test_variance_roof_matches_qubit_fof():
    rng = np.random.default_rng(47)
    rho = random_density_matrix(2, rng)
    assert qubit_fof(rho) == qubit_concurrence(rho) ** 2
    res = convex_roof(VAR, rho, FAST_CFG)
    assert abs(res.value - qubit_fof(rho)) < 2e-3


def _roof_bytes(value, ensemble, converged, iterations_used):
    parts = [repr(value), str(iterations_used), str(converged)]
    for p, vec in ensemble.members:
        parts.append(repr(p))
        parts.append(np.asarray(vec).tobytes().hex())
    return parts


KINDS = (MonotoneId("vidal", 2), MonotoneId("entropy"), CONC2, VAR)
# The acceptance suite's roof budget.
ACCEPTANCE_CFG = RoofConfig(ensemble_size=2, restarts=8, seed=1)


def _smooth_kinds(d):
    # (label, value_and_slope) of every objective whose degree-1 extension
    # is differentiable at generic weights below the concurrence cap: the
    # smooth kinds and vidal's smoothed tail sums at the widest and
    # narrowest widths the search uses.
    kinds = [MonotoneId("entropy"), VAR] + [MonotoneId("concurrence", k) for k in range(2, d + 1)]
    out = [(m, WeightMonotone(m, d).value_and_slope) for m in kinds]
    for k in range(2, d + 1):
        vidal = WeightMonotone(MonotoneId("vidal", k), d)
        for width in (SMOOTHING_WIDTHS[0], SMOOTHING_WIDTHS[-1]):
            out.append((f"smoothed vidal[{k}] at {width}", smoothed_tail_sum(vidal, width)))
    return out


def test_weight_gradient_matches_central_differences():
    rng = np.random.default_rng(67)
    for d in range(2, 7):
        for _ in range(4):
            a = rng.uniform(0.05, 1.0, size=d) * rng.uniform(0.2, 3.0)
            for label, value_and_slope in _smooth_kinds(d):
                h = lambda a: a.sum() * float(value_and_slope(a / a.sum())[0])
                got = value_and_slope(a / a.sum())[1]
                step = 1e-6
                fd = [(h(a + step * e) - h(a - step * e)) / (2 * step) for e in np.eye(d)]
                assert np.max(np.abs(got - fd)) < 1e-7 * max(1.0, np.max(np.abs(fd))), (d, label)


def test_smoothed_tail_sum_brackets_the_tail_sum():
    # tail - width log C(d, k - 1) <= stand-in <= tail, and the stand-in
    # stays finite where the gaps between weights are many widths apart.
    rng = np.random.default_rng(61)
    for d in (2, 3, 6, 64):
        w = np.vstack([rng.dirichlet(np.full(d, 0.3), size=20), np.eye(d)[:2], np.full((1, d), 1.0 / d)])
        for k in sorted({2, 3, d} & set(range(2, d + 1))):
            vidal = WeightMonotone(MonotoneId("vidal", k), d)
            tail = vidal.values(w)
            for width in SMOOTHING_WIDTHS:
                value, slope = smoothed_tail_sum(vidal, width)(w)
                assert np.all(np.isfinite(slope))
                assert np.all(value <= tail + 1e-12), (d, k, width)
                assert np.all(value >= tail - width * np.log(comb(d, k - 1)) - 1e-12), (d, k, width)


def test_objective_gradient_matches_central_differences():
    # The Euclidean gradient 2 (D * V) conj(F) of the roof average, checked
    # along random directions at random isometries.
    rng = np.random.default_rng(71)
    for d in range(2, 6):
        rho = random_density_matrix(d, rng)
        _, w, v = _checked_density(rho)
        factor = _support_factor(w, v)
        m = d + 2
        stack = np.array([haar_isometry(m, d, rng) for _ in range(3)])
        for label, value_and_slope in _smooth_kinds(d):
            _, grad = _objective(factor, stack, value_and_slope)
            for _ in range(2):
                e = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
                step = 1e-6
                up, _ = _objective(factor, stack + step * e, value_and_slope)
                down, _ = _objective(factor, stack - step * e, value_and_slope)
                fd = (up - down) / (2 * step)
                exact = np.sum((grad.conj() * e).real, axis=(1, 2))
                assert np.max(np.abs(exact - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd))), (d, label)


def test_tangent_projection_is_orthogonal():
    # xi is tangent at the isometry U (U^H xi is skew-Hermitian), and the
    # residual G - xi is normal there: U S with S Hermitian.
    rng = np.random.default_rng(73)
    stack = np.array([haar_isometry(5, 3, rng) for _ in range(4)])
    adjoint = stack.conj().transpose(0, 2, 1)
    grad = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
    xi = _tangent(stack, grad)
    skew = adjoint @ xi
    assert np.max(np.abs(skew + skew.conj().transpose(0, 2, 1))) < 1e-13
    normal = adjoint @ (grad - xi)
    assert np.max(np.abs(stack @ normal - (grad - xi))) < 1e-13
    assert np.max(np.abs(normal - normal.conj().transpose(0, 2, 1))) < 1e-13
    assert np.max(np.abs(_polar(stack) - stack)) < 1e-13


def _staged_search(factor, stack, measure, d, max_iters):
    return (stack, *_search(WeightMonotone(measure, d), factor, stack, max_iters))


def test_batched_restarts_match_each_restart_alone():
    rng = np.random.default_rng(79)
    for d, rank, m in ((2, 2, 2), (3, 2, 4), (4, 4, 6), (9, 3, 5)):
        _, w, v = _checked_density(random_density_matrix(d, rng, rank=rank))
        factor = _support_factor(w, v)
        starts = np.array([haar_isometry(m, rank, rng) for _ in range(5)])
        for measure in KINDS + (MonotoneId("vidal", min(3, d)),):
            batch = _staged_search(factor, starts.copy(), measure, d, 30)
            for i in range(len(starts)):
                alone = _staged_search(factor, starts[i : i + 1].copy(), measure, d, 30)
                assert np.array_equal(alone[0][0], batch[0][i]), (d, rank, m, measure, i)
                assert alone[1][0].hex() == batch[1][i].hex()
                assert (alone[2][0], alone[3][0]) == (batch[2][i], batch[3][i])


def test_ties_resolve_to_the_lowest_restart(monkeypatch):
    # Finals within TIE_TOL of the best so far do not replace it, even when
    # lower; an argmin over the finals would pick restart 3.
    finals = np.array([0.5, 0.5 - 0.5e-12, 0.5 - 2e-12, 0.5 - 2.5e-12])

    def fake_search(monotone, factor, stack, max_iters):
        return finals.copy(), np.ones(len(stack), dtype=bool), np.zeros(len(stack), dtype=np.int64)

    monkeypatch.setattr(convexroof, "_search", fake_search)
    rho = random_density_matrix(3, np.random.default_rng(97))
    res = convex_roof(MonotoneId("entropy"), rho, RoofConfig(restarts=4, seed=3))
    _, w, v = _checked_density(rho)
    factor = _support_factor(w, v)
    z = np.random.default_rng([3, 2]).normal(size=(2, 5, 3))
    expected = _ensemble(factor, _polar((z[0] + 1j * z[1])[None])[0])
    assert _roof_bytes(0.0, res.ensemble, True, 0) == _roof_bytes(0.0, expected, True, 0)


def test_roof_draws_its_starts_once_per_budget(monkeypatch):
    # Consecutive roofs at one budget and shape share one draw of the Haar
    # starts, and each keeps the bytes of a roof drawn from a cold memo.
    cfg = RoofConfig(restarts=8, max_iters=30, seed=6)
    rhos = [random_density_matrix(3, np.random.default_rng([89, i])) for i in range(2)]
    cold = []
    for rho in rhos:
        convexroof._haar_starts.cache_clear()
        res = convex_roof(VAR, rho, cfg)
        cold.append(_roof_bytes(res.value, res.ensemble, res.converged, res.iterations_used))
    convexroof._haar_starts.cache_clear()
    draws = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: draws.append(args) or default_rng(*args))
    warm = []
    for rho in rhos:
        res = convex_roof(VAR, rho, cfg)
        warm.append(_roof_bytes(res.value, res.ensemble, res.converged, res.iterations_used))
        warm.append(len(draws))
    assert warm == [cold[0], 8, cold[1], 8]
    starts = convexroof._haar_starts(cfg.seed, cfg.restarts, 5, 3)
    assert starts.shape == (8, 5, 3) and not starts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        starts[0, 0, 0] = 0.0


@pytest.mark.parametrize("measure", KINDS, ids=lambda m: m.kind if m.k is None else f"{m.kind}[{m.k}]")
def test_roof_repeats_its_bytes(measure):
    rng = np.random.default_rng(83)
    for d in (3, 4):
        rho = random_density_matrix(d, rng)
        cfg = RoofConfig(restarts=3, max_iters=25, seed=9)
        a, b = convex_roof(measure, rho, cfg), convex_roof(measure, rho, cfg)
        assert _roof_bytes(a.value, a.ensemble, a.converged, a.iterations_used) == (
            _roof_bytes(b.value, b.ensemble, b.converged, b.iterations_used)
        )


def _fisher_information(rho):
    # F_Q = 2 sum_ij (l_i - l_j)^2 / (l_i + l_j) |<i|N|j>|^2, the exact
    # variance roof (Toth and Petz, PRA 87, 032324, 2013).
    lam, vecs = np.linalg.eigh(rho)
    n = vecs.conj().T @ np.diag(np.arange(rho.shape[0])) @ vecs
    total = 0.0
    for i in range(len(lam)):
        for j in range(len(lam)):
            if lam[i] + lam[j] > 0.0:
                total += 2.0 * (lam[i] - lam[j]) ** 2 / (lam[i] + lam[j]) * abs(n[i, j]) ** 2
    return total


def test_variance_roof_reaches_quantum_fisher_information():
    worst = 0.0
    for d in (3, 4, 5):
        for s in range(2):
            rho = random_density_matrix(d, np.random.default_rng([29, d, s]))
            res = convex_roof(VAR, rho, RoofConfig(restarts=2, max_iters=4000, seed=1))
            worst = max(worst, abs(res.value - _fisher_information(rho)))
    assert worst <= 1e-10


def test_qubit_roofs_match_closed_forms_at_acceptance_budget():
    rng = np.random.default_rng(89)
    closed = ((MonotoneId("entropy"), qubit_formation), (CONC2, qubit_concurrence), (VAR, qubit_fof))
    for _ in range(20):
        rho = random_density_matrix(2, rng)
        for measure, exact in closed:
            res = convex_roof(measure, rho, ACCEPTANCE_CFG)
            assert abs(res.value - exact(rho)) <= 1e-12, (measure, res.value - exact(rho))


# vidal[2] roofs of the Givens coordinate search that the gradient search
# replaced, on random_density_matrix(d, default_rng([71, d, s])) at
# RoofConfig(restarts=1, max_iters=60, seed=1).
GIVENS_VIDAL2_VALUES = {
    (3, 0): 0.1515813648992573,
    (3, 1): 0.16330644272195982,
    (3, 2): 0.1641120107436282,
    (4, 0): 0.233470826985218,
    (4, 1): 0.2352645027513111,
    (4, 2): 0.30633209022631086,
    (5, 0): 0.2475056725641951,
    (5, 1): 0.20979719270008393,
    (5, 2): 0.18907726981327766,
}


def test_vidal_roofs_do_not_exceed_givens_values():
    vidal2 = MonotoneId("vidal", 2)
    for (d, s), old in GIVENS_VIDAL2_VALUES.items():
        rho = random_density_matrix(d, np.random.default_rng([71, d, s]))
        res = convex_roof(vidal2, rho, RoofConfig(restarts=1, max_iters=60, seed=1))
        assert res.value <= old + 1e-12, (d, s, res.value, old)
        assert not res.converged


def _geometric_coherence(rho):
    # 1 - max F(rho, sigma) over dephased sigma, which equals the convex
    # roof of 1 - max_j w_j (Streltsov et al., PRL 115, 020403, 2015).
    # With sigma = diag(x)^2, F = ||sqrt(rho) diag(x)||_1^2; alternate the
    # unitary of the trace norm's polar form and the best unit x >= 0.
    lam, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.conj().T
    x = np.sqrt(np.diag(rho).real)
    for _ in range(20000):
        left, _, right = np.linalg.svd(root * x)
        g = np.clip(np.diag((left @ right).conj().T @ root).real, 0.0, None)
        g /= np.linalg.norm(g)
        if np.max(np.abs(g - x)) <= 1e-15:
            break
        x = g
    return 1.0 - np.linalg.svd(root * x, compute_uv=False).sum() ** 2


def test_vidal2_roof_reaches_geometric_coherence():
    worst = 0.0
    for d in (3, 4, 5, 6):
        for s in range(3):
            rho = random_density_matrix(d, np.random.default_rng([37, d, s]))
            res = convex_roof(MonotoneId("vidal", 2), rho, RoofConfig(seed=1))
            worst = max(worst, abs(res.value - _geometric_coherence(rho)))
    assert worst <= 1e-9


def _flat_mixture(d, fidelity):
    # p |Psi><Psi| + (1 - p) I/d with Psi the flat state and <Psi|rho|Psi> = fidelity.
    p = (d * fidelity - 1.0) / (d - 1.0)
    return p * np.full((d, d), 1.0 / d) + (1.0 - p) * np.eye(d) / d, p


def _concurrence2_floor(rho):
    # sqrt(d / (d - 1)) ||offdiag rho||_F: concurrence[2] of a pure state is this
    # norm of its projector, and the norm is convex, so it is at or below the roof.
    d = rho.shape[0]
    return np.sqrt(d / (d - 1)) * np.linalg.norm(rho - np.diag(np.diag(rho)))


def test_concurrence2_roof_against_its_bounds():
    # A roof value is the average over one decomposition, so it is an upper
    # bound on the exact roof at any budget: these checks hold for a short search.
    cfg = RoofConfig(restarts=2, max_iters=30)
    # On the flat mixtures the exact roof is p (Rungta & Caves, PRA 67, 012307,
    # 2003), and the floor equals p; at d = 2 the search reaches it.
    for fidelity in (0.6, 0.9):
        rho, p = _flat_mixture(2, fidelity)
        assert abs(convex_roof(CONC2, rho, cfg).value - p) <= 1e-12
        for d in range(3, 7):
            rho, p = _flat_mixture(d, fidelity)
            assert abs(_concurrence2_floor(rho) - p) <= 1e-12
            assert convex_roof(CONC2, rho, cfg).value >= p - 1e-12, (d, fidelity)
    for d in range(2, 7):
        for rank in (d, 2):
            rho = random_density_matrix(d, np.random.default_rng([41, d, rank]), rank=rank)
            assert _concurrence2_floor(rho) <= convex_roof(CONC2, rho, cfg).value + 1e-12, (d, rank)
