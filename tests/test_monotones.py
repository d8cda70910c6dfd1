import csv
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from frameness import (
    BadK,
    BadProbability,
    InvalidDensity,
    MonotoneId,
    StandardState,
    WrongDimension,
    appendix_closed_form,
    concurrence_pure,
    elementary_symmetric,
    entropy_of_frameness,
    evaluate_pure,
    optimal_qubit_decomposition,
    preconcurrence_matrix,
    qubit_R_eigs,
    qubit_concurrence,
    qubit_fof,
    random_density_matrix,
    random_standard_state,
    takagi,
    variance_pure,
    vidal_f,
)
from frameness import monotones

PLUS = 0.5 * np.ones((2, 2))
GOLDEN_CLOSED_FORMS = Path(__file__).parent / "golden" / "qubit_closed_forms.csv"
CLOSED_FORM_COLUMNS = ["state", "mu1", "mu2", "concurrence", "fof", "members"]


def closed_form_rows(count=40):
    """``repr`` of the qubit closed forms on seeded qubits, 1 in 10 of rank 1.

    ``members`` lists p, the real parts and the imaginary parts of each
    member of the optimal decomposition.
    """
    rows = []
    for i in range(count):
        rng = np.random.default_rng([97, i])
        rho = random_density_matrix(2, rng, rank=1 if i % 10 == 0 else None)
        mu = qubit_R_eigs(rho)
        members = optimal_qubit_decomposition(rho).members
        flat = [x for p, vec in members for x in (p, *vec.real, *vec.imag)]
        rows.append(
            [
                str(i),
                repr(float(mu[0])),
                repr(float(mu[1])),
                repr(qubit_concurrence(rho)),
                repr(qubit_fof(rho)),
                " ".join(repr(float(x)) for x in flat),
            ]
        )
    return rows


def pure_qubit_concurrence(vec):
    w = np.abs(np.asarray(vec)) ** 2
    return 2.0 * np.sqrt(w[0] * w[1])


def test_monotone_id_validation():
    assert MonotoneId("entropy").label() == "entropy"
    assert MonotoneId("vidal", 3).label() == "vidal[3]"
    with pytest.raises(BadK):
        MonotoneId("vidal")
    with pytest.raises(BadK):
        MonotoneId("concurrence", 1)
    with pytest.raises(BadK):
        MonotoneId("variance", 2)
    with pytest.raises(ValueError):
        MonotoneId("negativity")


def test_vidal_examples():
    st = StandardState([0.5, 0.3, 0.2])
    assert vidal_f(st, 2) == pytest.approx(0.5, abs=1e-15)
    assert vidal_f(st, 3) == pytest.approx(0.2, abs=1e-15)
    flat = StandardState(np.full(5, 0.2))
    for k in range(2, 6):
        assert vidal_f(flat, k) == pytest.approx((5 - k + 1) / 5, abs=1e-12)
    with pytest.raises(BadK):
        vidal_f(st, 1)
    with pytest.raises(BadK):
        vidal_f(st, 4)


def test_vidal_decreasing_in_k_and_permutation_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        st = random_standard_state(6, rng)
        vals = [vidal_f(st, k) for k in range(2, 7)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        perm = StandardState(rng.permutation(st.weights))
        for k in range(2, 7):
            assert vidal_f(perm, k) == pytest.approx(vidal_f(st, k), abs=1e-15)


def test_entropy_values():
    assert entropy_of_frameness(StandardState([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    # frozen from -0.25 log2 0.25 - 0.75 log2 0.75
    assert entropy_of_frameness(StandardState([0.25, 0.75])) == pytest.approx(
        0.8112781244591328, abs=1e-15
    )
    assert entropy_of_frameness(StandardState([0.0, 1.0, 0.0])) == 0.0
    assert entropy_of_frameness(StandardState(np.full(8, 0.125))) == pytest.approx(
        3.0, abs=1e-12
    )


def esp_enumeration(values, k):
    return sum(math.prod(c) for c in itertools.combinations(values, k))


def test_elementary_symmetric_against_enumeration():
    assert elementary_symmetric([0.5, 0.3, 0.2], 2) == pytest.approx(0.31, abs=1e-15)
    assert elementary_symmetric([0.5, 0.3, 0.2], 3) == pytest.approx(0.03, abs=1e-15)
    rng = np.random.default_rng(17)
    for _ in range(20):
        vals = rng.uniform(0.0, 1.0, size=7)
        for k in range(2, 8):
            assert elementary_symmetric(vals, k) == pytest.approx(
                esp_enumeration(vals, k), rel=1e-12
            )
    with pytest.raises(BadK):
        elementary_symmetric([0.5, 0.5], 3)


def test_concurrence_pure_examples():
    st = StandardState([0.5, 0.5, 0.0])
    # S_2 = 1/4 against the flat benchmark 1/3
    assert concurrence_pure(st, 2) == pytest.approx(np.sqrt(0.75), abs=1e-15)
    assert concurrence_pure(st, 3) == 0.0
    flat = StandardState(np.full(4, 0.25))
    for k in range(2, 5):
        assert concurrence_pure(flat, k) == pytest.approx(1.0, abs=1e-12)
    point = StandardState([0.0, 1.0, 0.0])
    for k in (2, 3):
        assert concurrence_pure(point, k) == 0.0


def test_concurrence_concave():
    rng = np.random.default_rng(29)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        a = random_standard_state(d, rng).weights
        b = random_standard_state(d, rng).weights
        for t in (0.25, 0.5, 0.75):
            mix = StandardState(t * a + (1 - t) * b)
            for k in range(2, d + 1):
                lhs = concurrence_pure(mix, k)
                rhs = t * concurrence_pure(StandardState(a), k) + (1 - t) * concurrence_pure(StandardState(b), k)
                assert lhs >= rhs - 1e-10


def test_variance_examples():
    assert variance_pure(StandardState([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    assert variance_pure(StandardState([0.5, 0.0, 0.5])) == pytest.approx(4.0, abs=1e-15)
    assert variance_pure(StandardState([0.0, 1.0])) == 0.0


def test_variance_sees_sector_labels():
    narrow = variance_pure(StandardState([0.5, 0.5, 0.0]))
    spread = variance_pure(StandardState([0.5, 0.0, 0.5]))
    assert narrow == pytest.approx(1.0, abs=1e-15)
    assert spread == pytest.approx(4.0, abs=1e-15)
    assert narrow != spread


def test_evaluate_pure_dispatch():
    st = StandardState([0.5, 0.3, 0.2])
    assert evaluate_pure(MonotoneId("vidal", 2), st) == vidal_f(st, 2)
    assert evaluate_pure(MonotoneId("entropy"), st) == entropy_of_frameness(st)
    assert evaluate_pure(MonotoneId("concurrence", 2), st) == concurrence_pure(st, 2)
    assert evaluate_pure(MonotoneId("variance"), st) == variance_pure(st)
    with pytest.raises(BadK):
        evaluate_pure(MonotoneId("vidal", 4), st)


def test_qubit_R_eigs_plus_state():
    mu = qubit_R_eigs(PLUS)
    assert abs(mu[0] - 1.0) < 1e-12
    assert abs(mu[1]) < 1e-12


def test_qubit_R_eigs_maximally_mixed():
    mu = qubit_R_eigs(0.5 * np.eye(2))
    assert np.max(np.abs(mu - 0.5)) < 1e-12


def test_qubit_R_eigs_errors():
    with pytest.raises(WrongDimension):
        qubit_R_eigs(np.eye(3) / 3)
    with pytest.raises(InvalidDensity):
        qubit_R_eigs(np.array([[0.5, 0.5], [0.4, 0.5]]))


def test_qubit_R_eigs_matches_exact_form():
    # mu = sqrt(rho00 rho11) +- |rho01| on rank-1, diagonal and full-rank qubits
    rng = np.random.default_rng(41)
    for i in range(60):
        if i % 3 == 0:
            rho = random_density_matrix(2, rng, rank=1)
        elif i % 3 == 1:
            q = rng.uniform()
            rho = np.diag([q, 1.0 - q])
        else:
            rho = random_density_matrix(2, rng)
        root = math.sqrt(rho[0, 0].real * rho[1, 1].real)
        exact = [root + abs(rho[0, 1]), root - abs(rho[0, 1])]
        assert np.max(np.abs(qubit_R_eigs(rho) - exact)) < 1e-12


def test_qubit_R_eigs_guard_trips_on_small_error(monkeypatch):
    route = monotones._product_eig_sqrt_2x2
    monkeypatch.setattr(monotones, "_product_eig_sqrt_2x2", lambda a, b: route(a, b) + 1e-9)
    rng = np.random.default_rng(43)
    for i in range(20):
        rho = random_density_matrix(2, rng, rank=1 if i % 4 == 0 else None)
        with pytest.raises(ArithmeticError):
            qubit_R_eigs(rho)


def test_qubit_concurrence_on_pure_states():
    rng = np.random.default_rng(43)
    for _ in range(25):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        assert qubit_concurrence(rho) == pytest.approx(
            pure_qubit_concurrence(vec), abs=1e-10
        )


def test_qubit_concurrence_diagonal_is_zero():
    rng = np.random.default_rng(47)
    for _ in range(20):
        q = rng.uniform()
        rho = np.diag([q, 1 - q])
        assert qubit_concurrence(rho) <= 1e-12
        assert qubit_fof(rho) <= 1e-12


def test_qubit_fof_is_squared_concurrence():
    rng = np.random.default_rng(53)
    for _ in range(20):
        rho = random_density_matrix(2, rng)
        assert qubit_fof(rho) == qubit_concurrence(rho) ** 2


def test_appendix_frozen_point():
    res = appendix_closed_form(0.25, np.pi / 2)
    assert res.mu1 == pytest.approx(0.75, abs=1e-15)
    assert res.mu2 == pytest.approx(0.25, abs=1e-15)
    assert res.concurrence == pytest.approx(0.5, abs=1e-15)
    assert res.fof == pytest.approx(0.25, abs=1e-15)


def test_appendix_matches_R_route():
    for p in (0.0, 0.2, 0.35, 0.5):
        for alpha in (0.0, np.pi / 6, np.pi / 3, np.pi / 2):
            res = appendix_closed_form(p, alpha)
            mu = qubit_R_eigs(res.rho)
            assert abs(mu[0] - res.mu1) < 1e-10
            assert abs(mu[1] - res.mu2) < 1e-10
            assert abs(abs(mu[0] - mu[1]) - res.concurrence) < 1e-10
            assert abs((mu[0] - mu[1]) ** 2 - res.fof) < 1e-10


def test_appendix_rejects_bad_probability():
    with pytest.raises(BadProbability):
        appendix_closed_form(1.25, 0.0)
    with pytest.raises(BadProbability):
        appendix_closed_form(-0.1, 0.0)


def test_preconcurrence_matrix_symmetric():
    rng = np.random.default_rng(59)
    for _ in range(20):
        phis = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2)]
        tau = preconcurrence_matrix(phis)
        assert np.max(np.abs(tau - tau.T)) < 1e-12


def test_takagi_factorization():
    rng = np.random.default_rng(61)
    for _ in range(25):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        sym = a + a.T
        s, w = takagi(sym)
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.max(np.abs(w @ w.conj().T - np.eye(3))) < 1e-10
        assert np.max(np.abs((w * s) @ w.T - sym)) < 1e-10


def test_takagi_degenerate_antidiagonal():
    sym = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    s, w = takagi(sym)
    assert np.allclose(s, [0.5, 0.5])
    assert np.max(np.abs((w * s) @ w.T - sym)) < 1e-12


def test_optimal_decomposition_rank_one():
    ens = optimal_qubit_decomposition(PLUS)
    assert len(ens.members) == 1
    p, vec = ens.members[0]
    assert p == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(vec, np.array([1.0, 1.0]) / np.sqrt(2))) == pytest.approx(
        1.0, abs=1e-10
    )


def test_optimal_decomposition_maximally_mixed():
    ens = optimal_qubit_decomposition(0.5 * np.eye(2))
    assert np.max(np.abs(ens.mixture() - 0.5 * np.eye(2))) < 1e-12
    for p, vec in ens.members:
        assert pure_qubit_concurrence(vec) <= 1e-8


def test_optimal_decomposition_random_states():
    rng = np.random.default_rng(67)
    for _ in range(50):
        rho = random_density_matrix(2, rng)
        target = qubit_concurrence(rho)
        ens = optimal_qubit_decomposition(rho)
        assert np.max(np.abs(ens.mixture() - rho)) < 1e-9
        for p, vec in ens.members:
            assert abs(pure_qubit_concurrence(vec) - target) < 1e-8
        average = sum(p * pure_qubit_concurrence(vec) for p, vec in ens.members)
        assert abs(average - target) < 1e-8


def test_qubit_closed_forms_match_golden():
    """R spectrum, concurrence, FoF and decomposition equal, bit for bit, a capture
    from the code that validated each input several times."""
    with open(GOLDEN_CLOSED_FORMS, newline="", encoding="utf-8") as fh:
        golden = list(csv.reader(fh))
    assert golden[0] == CLOSED_FORM_COLUMNS
    assert closed_form_rows() == golden[1:]
