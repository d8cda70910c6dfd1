import math

import numpy as np
import pytest

from frameness import (
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


# The one-probe-at-a-time search that the batched search replaced, kept as an
# oracle: the batched search must follow its path and return its bytes.


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


def _sequential_roof(measure, rho, cfg):
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
            factor, m, r, evaluator, rng, cfg.max_iters, cfg.step_tolerance
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


def test_batched_search_matches_sequential_reference():
    rng = np.random.default_rng(43)
    outcomes = set()
    for d in range(2, 6):
        for rank in range(2, d + 1):
            rho = random_density_matrix(d, rng, rank=rank)
            for size in (rank, None, 2 * rank):
                for kind in KINDS:
                    cfg = RoofConfig(
                        ensemble_size=size, restarts=1, max_iters=5,
                        step_tolerance=0.2, seed=d + rank,
                    )
                    res = convex_roof(kind, rho, cfg)
                    got = _roof_bytes(res.value, res.ensemble, res.converged, res.iterations_used)
                    assert got == _roof_bytes(*_sequential_roof(kind, rho, cfg)), (d, rank, size, kind)
                    outcomes.add(res.converged)
    assert outcomes == {True, False}


@pytest.mark.parametrize("candidates, largest", [(None, 40), (1, 1), (3, 3)])
def test_roof_batch_size_invariant(monkeypatch, candidates, largest):
    # d = 3 at full rank: m = 5, so one candidate takes 5 * (2 * 5 + 3) = 65
    # entries, and the default budget holds a whole sweep of 40 probes.
    rho = random_density_matrix(3, np.random.default_rng(53))
    cfg = RoofConfig(restarts=2, max_iters=8, seed=4)
    whole = convex_roof(VAR, rho, cfg)
    if candidates is not None:
        monkeypatch.setattr("frameness.convexroof.PROBE_ELEMENTS", candidates * 65)
    batches = []

    def recording(m, r, trig):
        batches.append(trig.shape[0])
        return _givens_meshes(m, r, trig)

    monkeypatch.setattr("frameness.convexroof._givens_meshes", recording)
    pieces = convex_roof(VAR, rho, cfg)
    assert _roof_bytes(pieces.value, pieces.ensemble, pieces.converged, pieces.iterations_used) == (
        _roof_bytes(whole.value, whole.ensemble, whole.converged, whole.iterations_used)
    )
    # one start per restart and the final ensemble are single meshes
    assert batches.count(1) >= cfg.restarts + 1
    assert max(batches) == largest
