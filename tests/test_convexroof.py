import math

import numpy as np
import pytest

from frameness import (
    BadRoofConfig,
    MonotoneId,
    NotIsometry,
    RankMismatch,
    RoofConfig,
    StandardState,
    apply_channel_density,
    convex_roof,
    decomposition_from_map,
    evaluate_pure,
    qubit_concurrence,
    qubit_fof,
    random_channel,
    random_density_matrix,
)
from frameness import convexroof
from frameness.convexroof import TIE_TOL, _ensemble, _givens_meshes, _support_factor
from frameness.monotones import weight_evaluator
from frameness.numerics import ZERO_TOL, _checked_density

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
    with pytest.raises(NotIsometry):
        decomposition_from_map(rho, np.ones((2, 2)))
    with pytest.raises(RankMismatch):
        decomposition_from_map(rho, np.eye(3))
    with pytest.raises(RankMismatch):
        decomposition_from_map(np.diag([1.0, 0.0]), np.eye(2))


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


def test_roof_diagonal_qubit_vanishes():
    rho = np.diag([0.3, 0.7])
    for measure in (CONC2, VAR, MonotoneId("vidal", 2), MonotoneId("entropy")):
        res = convex_roof(measure, rho, FAST_CFG)
        assert res.value <= 1e-6


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
        with pytest.raises(BadRoofConfig, match=f"{field} must be an integer"):
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
    with pytest.raises(RankMismatch):
        convex_roof(CONC2, rho, RoofConfig(ensemble_size=2, restarts=2, seed=0))


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


# The search that evaluates one probe at a time and runs the restarts one
# after another, kept as an oracle: the lockstep search must follow its paths
# and return its bytes.


def _sequential_mesh(m, r, params):
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


def _sequential_value(factor, mix, evaluator):
    members = factor @ mix.T
    w2 = np.abs(members) ** 2
    probs = w2.sum(axis=0)
    total = 0.0
    for i in range(mix.shape[0]):
        p = probs[i]
        if p > ZERO_TOL:
            total += p * evaluator(w2[:, i] / p)
    return total


def _sequential_search(factor, m, r, evaluator, rng, max_iters, step_tolerance):
    nparams = m * (m - 1)
    params = rng.uniform(0.0, 2.0 * np.pi, size=nparams)
    value = _sequential_value(factor, _sequential_mesh(m, r, params), evaluator)
    step = 0.5
    sweeps = 0
    while sweeps < max_iters and step > step_tolerance:
        sweeps += 1
        improved = False
        for c in range(nparams):
            for delta in (step, -step):
                old = params[c]
                params[c] = old + delta
                cand = _sequential_value(factor, _sequential_mesh(m, r, params), evaluator)
                if cand < value - 1e-14:
                    value = cand
                    improved = True
                    break
                params[c] = old
        if not improved:
            step *= 0.5
    return value, params, sweeps, step <= step_tolerance


def _sequential_roof(measure, rho, cfg, step_tolerance=1e-6):
    m_rho, w, v = _checked_density(rho)
    evaluator = weight_evaluator(measure, m_rho.shape[0])
    factor = _support_factor(w, v)
    r = factor.shape[1]
    m = cfg.ensemble_size if cfg.ensemble_size is not None else min(2 * r, r + 2)
    best = None
    total_sweeps = 0
    all_converged = True
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        value, params, sweeps, conv = _sequential_search(
            factor, m, r, evaluator, rng, cfg.max_iters, step_tolerance
        )
        total_sweeps += sweeps
        all_converged = all_converged and conv
        if best is None or value < best[0] - TIE_TOL:
            best = (value, params)
    ensemble = _ensemble(factor, _sequential_mesh(m, r, best[1]))
    value = sum(p * evaluator(np.abs(vec) ** 2) for p, vec in ensemble.members)
    return float(value), ensemble, all_converged, total_sweeps


def _roof_bytes(value, ensemble, converged, iterations_used):
    parts = [repr(value), str(iterations_used), str(converged)]
    for p, vec in ensemble.members:
        parts.append(repr(p))
        parts.append(np.asarray(vec).tobytes().hex())
    return parts


KINDS = (MonotoneId("vidal", 2), MonotoneId("entropy"), CONC2, VAR)


def test_batched_search_matches_sequential_reference(monkeypatch):
    rng = np.random.default_rng(43)
    outcomes = set()
    # A coarse step floor, so that some restarts converge within 5 sweeps.
    monkeypatch.setattr(convexroof, "STEP_TOLERANCE", 0.2)
    for d in range(2, 6):
        for rank in range(2, d + 1):
            rho = random_density_matrix(d, rng, rank=rank)
            # Three restarts only up to d = 3, where the oracle stays quick.
            for restarts in (1, 3) if d < 4 else (1,):
                for size in (rank, None, 2 * rank):
                    for kind in KINDS:
                        cfg = RoofConfig(
                            ensemble_size=size, restarts=restarts, max_iters=5, seed=d + rank
                        )
                        res = convex_roof(kind, rho, cfg)
                        got = _roof_bytes(res.value, res.ensemble, res.converged, res.iterations_used)
                        expected = _roof_bytes(*_sequential_roof(kind, rho, cfg, 0.2))
                        assert got == expected, (d, rank, restarts, size, kind)
                        outcomes.add(res.converged)
    assert outcomes == {True, False}
    monkeypatch.undo()
    # Diagonal inputs whose restarts end within TIE_TOL of each other at
    # different ensembles, with a later restart slightly lower: only the
    # lowest-index tie-break returns the oracle's ensemble.
    for weights, size in (([0.3, 0.7], 2), ([0.3, 0.7], 3), ([0.2, 0.3, 0.5], 3)):
        rho = np.diag(weights)
        cfg = RoofConfig(ensemble_size=size, restarts=3, seed=0)
        res = convex_roof(MonotoneId("vidal", 2), rho, cfg)
        got = _roof_bytes(res.value, res.ensemble, res.converged, res.iterations_used)
        assert got == _roof_bytes(*_sequential_roof(MonotoneId("vidal", 2), rho, cfg)), (weights, size)


def test_average_values_drop_empty_members():
    # Angles of 1e-7 give nearly the identity mesh, whose members r.. have
    # probability near 1e-14, below ZERO_TOL: they add nothing, and the
    # random meshes scored with them keep the bytes of the
    # one-member-at-a-time sum.
    rng = np.random.default_rng(61)
    for d, rank, m in ((2, 1, 3), (3, 2, 4), (4, 4, 6)):
        _, w, v = _checked_density(random_density_matrix(d, rng, rank=rank))
        factor = _support_factor(w, v)
        params = rng.uniform(0.0, 2.0 * np.pi, size=(3, m * (m - 1)))
        params[1] = 1e-7
        trig = np.stack([np.cos(params), np.sin(params)], axis=-1)
        for kind in KINDS:
            evaluator = weight_evaluator(kind, d)
            got = convexroof._average_values(factor, _givens_meshes(m, rank, trig), evaluator)
            expected = [_sequential_value(factor, _sequential_mesh(m, rank, row), evaluator) for row in params]
            assert [float(x).hex() for x in got] == [float(x).hex() for x in expected], (d, rank, m, kind)


@pytest.mark.parametrize("candidates", [None, 1, 3])
def test_roof_batch_size_invariant(monkeypatch, candidates):
    # d = 3 at full rank: m = 5, so one candidate takes 5 * (2 * 5 + 3) = 65
    # entries, and a sweep has 40 probes. The default budget holds 1,008
    # candidates: whole sweeps of 2 restarts, or 31 probes each of 32.
    rho = random_density_matrix(3, np.random.default_rng(53))
    for restarts in (2, 32):
        cfg = RoofConfig(restarts=restarts, max_iters=8, seed=4)
        whole = convex_roof(VAR, rho, cfg)
        batches = []

        def recording(m, r, trig):
            batches.append(trig.shape[0])
            return _givens_meshes(m, r, trig)

        with monkeypatch.context() as patch:
            if candidates is not None:
                patch.setattr("frameness.convexroof.PROBE_ELEMENTS", candidates * 65)
            patch.setattr("frameness.convexroof._givens_meshes", recording)
            pieces = convex_roof(VAR, rho, cfg)
            bound = max(1, convexroof.PROBE_ELEMENTS // 65)
        assert _roof_bytes(pieces.value, pieces.ensemble, pieces.converged, pieces.iterations_used) == (
            _roof_bytes(whole.value, whole.ensemble, whole.converged, whole.iterations_used)
        )
        assert max(batches) <= bound
        if candidates is None:
            # Rounds score several restarts' probes in one call.
            assert max(batches) > 40
