import numpy as np
import pytest

from frameness import (
    MonotoneId,
    NotIsometry,
    RankMismatch,
    RoofConfig,
    StandardState,
    apply_channel_density,
    brute_force_roof,
    convex_roof,
    decomposition_from_map,
    qubit_concurrence,
    qubit_fof,
    random_channel,
    random_density_matrix,
    variance_pure,
)

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
    res = convex_roof(VAR, rho, FAST_CFG)
    assert res.converged
    assert res.iterations_used == 0
    assert res.value == pytest.approx(variance_pure(StandardState([0.3, 0.7])), abs=1e-12)
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


def test_brute_force_prefix_monotone():
    rho = random_density_matrix(2, np.random.default_rng(43))
    small = brute_force_roof(CONC2, rho, samples=100, seed=9)
    large = brute_force_roof(CONC2, rho, samples=600, seed=9)
    assert large <= small + 1e-12
    assert large >= qubit_concurrence(rho) - 1e-9


def test_brute_force_pure_input_exact():
    vec = np.array([np.sqrt(0.4), np.sqrt(0.6)])
    rho = np.outer(vec, vec)
    direct = variance_pure(StandardState(np.abs(vec) ** 2 / np.sum(np.abs(vec) ** 2)))
    assert brute_force_roof(VAR, rho, samples=1) == pytest.approx(direct, abs=1e-12)


def test_variance_roof_matches_qubit_fof():
    rng = np.random.default_rng(47)
    rho = random_density_matrix(2, rng)
    assert qubit_fof(rho) == qubit_concurrence(rho) ** 2
    res = convex_roof(VAR, rho, FAST_CFG)
    assert abs(res.value - qubit_fof(rho)) < 2e-3
