import csv
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from frameness import (
    BadMonotone,
    BadParameter,
    FramenessError,
    InvalidDensity,
    MonotoneId,
    StandardState,
    appendix_closed_form,
    evaluate_pure,
    optimal_qubit_decomposition,
    qubit_R_eigs,
    qubit_concurrence,
    qubit_fof,
    qubit_formation,
    random_density_matrix,
    random_standard_state,
)
from frameness.monotones import WeightMonotone, _elementary_symmetric, weight_evaluator

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
    with pytest.raises(BadMonotone, match="vidal needs an order k"):
        MonotoneId("vidal")
    with pytest.raises(BadMonotone, match="order k must be at least 2, got 1"):
        MonotoneId("concurrence", 1)
    with pytest.raises(BadMonotone, match="variance does not take an order k"):
        MonotoneId("variance", 2)
    for kind in ("negativity", "Entropy", ""):
        with pytest.raises(BadMonotone, match="unknown monotone kind"):
            MonotoneId(kind)
    assert issubclass(BadMonotone, FramenessError)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: MonotoneId("vidal", k),
        lambda k: MonotoneId("concurrence", k),
    ],
    ids=["MonotoneId-vidal", "MonotoneId-concurrence"],
)
def test_non_integer_orders_are_rejected(call):
    for bad in (2.5, np.float64(2.9), 3.0, True, np.bool_(True), "3"):
        with pytest.raises(BadMonotone, match="order k must be an integer"):
            call(bad)
    for good in (2, np.int64(3), np.uint8(2)):
        call(good)


def test_vidal_examples():
    st = StandardState([0.5, 0.3, 0.2])
    assert evaluate_pure(MonotoneId("vidal", 2), st) == pytest.approx(0.5, abs=1e-15)
    assert evaluate_pure(MonotoneId("vidal", 3), st) == pytest.approx(0.2, abs=1e-15)
    flat = StandardState(np.full(5, 0.2))
    for k in range(2, 6):
        assert evaluate_pure(MonotoneId("vidal", k), flat) == pytest.approx((5 - k + 1) / 5, abs=1e-12)
    with pytest.raises(BadMonotone, match="^order k must be at least 2, got 1$"):
        evaluate_pure(MonotoneId("vidal", 1), st)
    with pytest.raises(BadMonotone, match="^order k must be at most 3, got 4$"):
        evaluate_pure(MonotoneId("vidal", 4), st)


def test_vidal_decreasing_in_k_and_permutation_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        st = random_standard_state(6, rng)
        vals = [evaluate_pure(MonotoneId("vidal", k), st) for k in range(2, 7)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        perm = StandardState(rng.permutation(st.weights))
        for k in range(2, 7):
            vidal = MonotoneId("vidal", k)
            assert evaluate_pure(vidal, perm) == pytest.approx(evaluate_pure(vidal, st), abs=1e-15)


def test_concurrence_does_not_increase_with_k():
    # Maclaurin's inequality: (e_k / C(d, k))^(1/k) does not increase with k,
    # so neither does concurrence[k], on rows with empty sectors as well.
    rng = np.random.default_rng(37)
    for d in range(2, 17):
        dirichlet = rng.dirichlet(np.ones(d), size=20)
        gapped = rng.dirichlet(np.ones(d), size=10)
        gapped[np.arange(10), rng.integers(d, size=10)] = 0.0
        gapped /= gapped.sum(axis=1, keepdims=True)
        rows = np.vstack([dirichlet, gapped, np.full(d, 1.0 / d), np.eye(d)[rng.integers(d)]])
        vals = np.array([WeightMonotone(MonotoneId("concurrence", k), d).values(rows) for k in range(2, d + 1)])
        assert np.all(np.diff(vals, axis=0) <= 1e-12), d


def test_entropy_values():
    assert evaluate_pure(MonotoneId("entropy"), StandardState([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    # frozen from -0.25 log2 0.25 - 0.75 log2 0.75
    assert evaluate_pure(MonotoneId("entropy"), StandardState([0.25, 0.75])) == pytest.approx(
        0.8112781244591328, abs=1e-15
    )
    assert evaluate_pure(MonotoneId("entropy"), StandardState([0.0, 1.0, 0.0])) == 0.0
    assert evaluate_pure(MonotoneId("entropy"), StandardState(np.full(8, 0.125))) == pytest.approx(
        3.0, abs=1e-12
    )


def test_entropy_sums_in_sector_order():
    # The entropy is 0.0 minus the sector-order loop over w log2 w, bit for
    # bit at every dimension, batched and alone, so inserting empty sectors
    # anywhere leaves its bits unchanged. The loop takes numpy's log2, which
    # math.log2 misses in the last bit for about 1 weight in 1000.
    rng = np.random.default_rng(27)
    for d in range(1, 17):
        w = rng.dirichlet(np.full(d, 0.5), size=12)
        w[:6] *= rng.random((6, d)) < 0.6
        w[:6, 0] += w[:6].sum(axis=1) == 0.0
        w[:6] /= w[:6].sum(axis=1, keepdims=True)
        evaluator = weight_evaluator(MonotoneId("entropy"), d)
        for row, value in zip(w, evaluator(w)):
            loop = 0.0
            for x in row:
                loop += x * np.log2(x) if x > 0.0 else 0.0
            assert value == 0.0 - loop and evaluator(row) == value, (d, row)
            for extra in range(1, 17 - d):
                padded = np.insert(row, rng.integers(d + 1, size=extra), 0.0)
                assert weight_evaluator(MonotoneId("entropy"), d + extra)(padded) == value, (d, padded)


def esp_enumeration(values, k):
    return sum(math.prod(c) for c in itertools.combinations(values, k))


def test_elementary_symmetric_against_enumeration():
    assert _elementary_symmetric(np.array([0.5, 0.3, 0.2]), 2) == pytest.approx(0.31, abs=1e-15)
    assert _elementary_symmetric(np.array([0.5, 0.3, 0.2]), 3) == pytest.approx(0.03, abs=1e-15)
    rng = np.random.default_rng(17)
    for _ in range(20):
        vals = rng.uniform(0.0, 1.0, size=7)
        for k in range(2, 8):
            assert _elementary_symmetric(vals, k) == pytest.approx(esp_enumeration(vals, k), rel=1e-12)
        # The leave-one-out form at k + 1: e_{k+1} of the row, and e_k of the row with
        # entry l deleted, at every l.
        for k in range(7):
            total, left_out = _elementary_symmetric(vals, k + 1, leave_one_out=True)
            assert total.shape == () and left_out.shape == (7,)
            assert total == _elementary_symmetric(vals, k + 1)
            for l in range(7):
                assert left_out[l] == pytest.approx(esp_enumeration(np.delete(vals, l), k), rel=1e-12)
    # Every row of a batch as that row alone; no 3-subset of two values.
    batch = rng.uniform(0.0, 1.0, size=(4, 7))
    for k in range(2, 8):
        assert np.array_equal(_elementary_symmetric(batch, k), [_elementary_symmetric(v, k) for v in batch])
        for part, rows in zip(
            _elementary_symmetric(batch, k, leave_one_out=True),
            zip(*[_elementary_symmetric(v, k, leave_one_out=True) for v in batch]),
        ):
            assert np.array_equal(part, rows)
    assert _elementary_symmetric(np.array([0.5, 0.5]), 3) == 0.0
    assert _elementary_symmetric(np.array([0.5, 0.5]), 3, leave_one_out=True)[0] == 0.0


def two_loop_elementary_symmetric(values, k):
    """e_k of each row and e_{k-1} of each row without each entry, as two separate
    loops over the positions: the whole row, and d leave-one-out columns."""
    d = values.shape[-1]

    def loop(levels, kept):
        acc = np.zeros((levels + 1,) + values.shape[:-1] + (() if kept is None else (d,)))
        acc[0] = 1.0
        for j in range(d):
            column = values[..., j] if kept is None else values[..., j, None] * kept[j]
            top = min(j + 1, levels)
            acc[1 : top + 1] += column * acc[:top]
        return acc[levels]

    return loop(k, None), loop(k - 1, 1.0 - np.eye(d))


def test_leave_one_out_form_matches_two_loops_bit_for_bit():
    # The one loop's column d takes every entry as v * 1.0, so it rounds as the
    # whole-row loop; the levels below k round as the leave-one-out loop at k - 1.
    rng = np.random.default_rng(41)
    for d in range(1, 17):
        for batch in ((), (3,), (2, 3)):
            vals = rng.uniform(0.0, 2.0, size=batch + (d,))
            vals[rng.uniform(size=vals.shape) < 0.3] = 0.0
            for k in range(1, d + 2):
                merged = _elementary_symmetric(vals, k, leave_one_out=True)
                for got, want in zip(merged, two_loop_elementary_symmetric(vals, k)):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (d, k)
                    assert not np.signbit(got).any(), (d, k)


def test_concurrence_pure_examples():
    st = StandardState([0.5, 0.5, 0.0])
    # S_2 = 1/4 against the flat benchmark 1/3
    assert evaluate_pure(MonotoneId("concurrence", 2), st) == pytest.approx(np.sqrt(0.75), abs=1e-15)
    assert evaluate_pure(MonotoneId("concurrence", 3), st) == 0.0
    flat = StandardState(np.full(4, 0.25))
    for k in range(2, 5):
        assert evaluate_pure(MonotoneId("concurrence", k), flat) == pytest.approx(1.0, abs=1e-12)
    point = StandardState([0.0, 1.0, 0.0])
    for k in (2, 3):
        assert evaluate_pure(MonotoneId("concurrence", k), point) == 0.0


def test_concurrence_concave():
    rng = np.random.default_rng(29)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        a = random_standard_state(d, rng).weights
        b = random_standard_state(d, rng).weights
        for t in (0.25, 0.5, 0.75):
            mix = StandardState(t * a + (1 - t) * b)
            for k in range(2, d + 1):
                conc = MonotoneId("concurrence", k)
                lhs = evaluate_pure(conc, mix)
                rhs = t * evaluate_pure(conc, StandardState(a)) + (1 - t) * evaluate_pure(conc, StandardState(b))
                assert lhs >= rhs - 1e-10


def test_variance_examples():
    assert evaluate_pure(MonotoneId("variance"), StandardState([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    assert evaluate_pure(MonotoneId("variance"), StandardState([0.5, 0.0, 0.5])) == pytest.approx(4.0, abs=1e-15)
    assert evaluate_pure(MonotoneId("variance"), StandardState([0.0, 1.0])) == 0.0


def test_variance_sees_sector_labels():
    narrow = evaluate_pure(MonotoneId("variance"), StandardState([0.5, 0.5, 0.0]))
    spread = evaluate_pure(MonotoneId("variance"), StandardState([0.5, 0.0, 0.5]))
    assert narrow == pytest.approx(1.0, abs=1e-15)
    assert spread == pytest.approx(4.0, abs=1e-15)
    assert narrow != spread


def test_evaluate_pure_dispatch():
    st = StandardState([0.5, 0.3, 0.2])
    # Each kind against its formula on the weights, and bit for bit against
    # the batched evaluator on a one-row batch.
    expected = {
        MonotoneId("vidal", 2): 0.3 + 0.2,
        MonotoneId("entropy"): -sum(w * math.log2(w) for w in (0.5, 0.3, 0.2)),
        MonotoneId("concurrence", 2): math.sqrt(esp_enumeration([0.5, 0.3, 0.2], 2) / (3 / 9)),
        MonotoneId("variance"): 4.0 * ((0.3 + 4 * 0.2) - (0.3 + 2 * 0.2) ** 2),
    }
    for measure, value in expected.items():
        assert evaluate_pure(measure, st) == pytest.approx(value, abs=1e-15)
        assert evaluate_pure(measure, st) == weight_evaluator(measure, 3)(st.weights[None])[0]
    with pytest.raises(BadMonotone, match="^order k must be at most 3, got 4$"):
        evaluate_pure(MonotoneId("vidal", 4), st)
    # Every kind and order is +0.0 on a charge eigenstate, alone and in a
    # batch, below and from 8 sectors on; the entropy was -0.0.
    for d in range(1, 13):
        orders = [(kind, k) for kind in ("vidal", "concurrence") for k in range(2, d + 1)]
        for measure in [MonotoneId("entropy"), MonotoneId("variance")] + [MonotoneId(*o) for o in orders]:
            batch = weight_evaluator(measure, d)(np.eye(d))
            for w, value in zip(np.eye(d), batch):
                assert math.copysign(1.0, evaluate_pure(measure, StandardState(w))) == 1.0, (d, measure)
                assert math.copysign(1.0, value) == 1.0, (d, measure)


def test_values_are_nonnegative_near_charge_eigenstates():
    # Weight 1 - eps at sector n and eps at sector m != n: the variance's
    # 4 (m2 - m1^2) cancelled there and went below 0 from d = 6 on, to
    # -1.4e-14 at d = 6 and -3.6e-12 at d = 64.
    measures = [MonotoneId("vidal", 2), MonotoneId("entropy"), MonotoneId("concurrence", 2), MonotoneId("variance")]
    eps = np.array([1e-12, 1e-13, 1e-14, 1e-15, 1e-16])
    for d in range(2, 65):
        n, m = np.nonzero(~np.eye(d, dtype=bool))
        rows = np.zeros((len(n), len(eps), d))
        rows[np.arange(len(n)), :, n] = 1.0 - eps
        rows[np.arange(len(n)), :, m] = eps
        for measure in measures:
            assert not np.signbit(WeightMonotone(measure, d).values(rows)).any(), (d, measure)
            # One at a time, with the largest charge n = d - 1 against m = 0 and m = d // 2.
            for w in rows[(n == d - 1) & ((m == 0) | (m == d // 2))].reshape(-1, d):
                assert math.copysign(1.0, evaluate_pure(measure, StandardState(w))) == 1.0, (d, measure, w)


def test_entropy_is_nonnegative_one_ulp_past_a_charge_eigenstate():
    # A weight one ulp above 1 has a positive log2: the entropy was -3.2e-16
    # there, alone, in a batch and in the roof objective.
    entropy = MonotoneId("entropy")
    for d in range(1, 10):
        rows = np.eye(d)
        rows[np.arange(d), np.arange(d)] = np.nextafter(1.0, 2.0)
        monotone = WeightMonotone(entropy, d)
        assert not np.signbit(monotone.values(rows)).any(), d
        assert not np.signbit(monotone.value_and_slope(rows)[0]).any(), d
        for w in rows:
            assert math.copysign(1.0, evaluate_pure(entropy, StandardState(w))) == 1.0, (d, w)


def test_roof_values_equal_weight_evaluator_bit_for_bit():
    # The values the roof objective takes with its slope, against the
    # evaluator that verify, evaluate_pure and the final roof value use:
    # below and from 8 sectors on, with empty sectors, on the pure and the
    # flat state (the concurrence cap), in batches and rows.
    rng = np.random.default_rng(101)
    for d in range(2, 17):
        w = rng.dirichlet(np.full(d, 0.5), size=16)
        w[:4, 0] = 0.0
        w[:4] /= w[:4].sum(axis=1, keepdims=True)
        w = np.vstack([w, np.eye(d)[:2], np.full((1, d), 1.0 / d)])
        orders = [(kind, k) for kind in ("vidal", "concurrence") for k in range(2, d + 1)]
        for measure in [MonotoneId("entropy"), MonotoneId("variance")] + [MonotoneId(*o) for o in orders]:
            for rows in (w, w[0]):
                values, slope = WeightMonotone(measure, d).value_and_slope(rows)
                assert values.tobytes() == weight_evaluator(measure, d)(rows).tobytes(), (d, measure)
                assert slope.shape == rows.shape


def test_weight_monotone_reads_the_dimension_then_the_order():
    with pytest.raises(BadParameter, match="^dimension must be at least 1, got 0$"):
        WeightMonotone(MonotoneId("vidal", 2), 0)
    with pytest.raises(BadMonotone, match="^order k must be at most 2, got 3$"):
        WeightMonotone(MonotoneId("concurrence", 3), 2)


def test_weight_monotone_rejects_a_measure_that_is_no_monotone_id():
    # Each once raised a bare AttributeError on measure.k.
    message = "^measure must be a MonotoneId, got str$"
    for call in (
        lambda: WeightMonotone("entropy", 3),
        lambda: weight_evaluator("entropy", 3),
        lambda: evaluate_pure("entropy", StandardState([0.5, 0.5])),
    ):
        with pytest.raises(BadMonotone, match=message):
            call()
    # The monotone keeps what it read and nothing else, also after a slope.
    monotone = WeightMonotone(MonotoneId("concurrence", 3), 5)
    monotone.value_and_slope(np.full(5, 0.2))
    assert set(vars(monotone)) == {"measure", "dim"}


def test_qubit_R_eigs_plus_state():
    mu = qubit_R_eigs(PLUS)
    assert abs(mu[0] - 1.0) < 1e-12
    assert abs(mu[1]) < 1e-12


def test_qubit_R_eigs_maximally_mixed():
    mu = qubit_R_eigs(0.5 * np.eye(2))
    assert np.max(np.abs(mu - 0.5)) < 1e-12


def test_qubit_R_eigs_errors():
    with pytest.raises(InvalidDensity, match=r"expected a 2x2 matrix, got shape \(3, 3\)"):
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


def test_qubit_concurrence_near_diagonal_is_exact():
    # C = 2|rho01| to rounding, however small the off-diagonal entry
    for c in (2e-12, 3e-9j, (1 - 1j) * 1e-15):
        rho = np.array([[0.5, c], [np.conj(c), 0.5]])
        assert abs(qubit_concurrence(rho) - 2 * abs(c)) <= 1e-15


def test_qubit_concurrence_capped_at_one():
    # trace 1 + 8e-10 passes the density check; 2|rho01| would be 1 + 8e-10
    rho = np.full((2, 2), 0.5 + 4e-10)
    assert qubit_concurrence(rho) == 1.0
    assert qubit_fof(rho) == 1.0
    assert qubit_formation(rho) == 1.0


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
    # alpha = 0 is the charge basis: zero concurrence and a formation of +0.0.
    for p in (0.0, 0.5, 1.0):
        assert math.copysign(1.0, appendix_closed_form(p, 0.0).formation) == 1.0, p


def test_appendix_matches_R_route():
    for p in (0.0, 0.2, 0.35, 0.5):
        for alpha in (0.0, np.pi / 6, np.pi / 3, np.pi / 2):
            res = appendix_closed_form(p, alpha)
            mu = qubit_R_eigs(res.rho)
            assert abs(mu[0] - res.mu1) < 1e-10
            assert abs(mu[1] - res.mu2) < 1e-10
            assert abs(abs(mu[0] - mu[1]) - res.concurrence) < 1e-10
            assert abs((mu[0] - mu[1]) ** 2 - res.fof) < 1e-10
            assert abs(qubit_formation(res.rho) - res.formation) < 1e-10


def test_appendix_rejects_bad_probability():
    with pytest.raises(BadParameter, match=r"p=1.25 outside \[0, 1\]"):
        appendix_closed_form(1.25, 0.0)
    with pytest.raises(BadParameter, match=r"p=-0.1 outside \[0, 1\]"):
        appendix_closed_form(-0.1, 0.0)
    # Read as p = 0.5 and alpha = 1.0 before.
    with pytest.raises(BadParameter, match="^p must be a number, got '0.5'$"):
        appendix_closed_form("0.5", 1.0)
    with pytest.raises(BadParameter, match="^alpha must be a number, got True$"):
        appendix_closed_form(0.5, True)
    # Raised a bare TypeError before.
    with pytest.raises(BadParameter, match="^p must be a real number, got 1j$"):
        appendix_closed_form(1j, 0.0)
    with pytest.raises(BadParameter, match="^alpha must be a real number, got 1j$"):
        appendix_closed_form(0.5, 1j)
    # Raised a bare OverflowError from float() before.
    with pytest.raises(BadParameter, match="^alpha out of float range$"):
        appendix_closed_form(0.3, 10**400)
    with pytest.raises(BadParameter, match="^p out of float range$"):
        appendix_closed_form(10**400, 0.3)


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


def near_pure_qubit(t):
    """(1 - t)|psi><psi| + t I/2 with psi = (0.6, 0.8i)."""
    psi = np.array([0.6, 0.8j])
    return (1 - t) * np.outer(psi, psi.conj()) + t * np.eye(2) / 2


def test_optimal_decomposition_random_states():
    rng = np.random.default_rng(67)
    inputs = [random_density_matrix(2, rng) for _ in range(50)]
    inputs += [near_pure_qubit(t) for t in (1e-7, 1e-9, 1e-11)]
    for rho in inputs:
        target = qubit_concurrence(rho)
        ens = optimal_qubit_decomposition(rho)
        assert len(ens.members) == 2
        assert np.max(np.abs(ens.mixture() - rho)) < 1e-12
        for p, vec in ens.members:
            assert abs(pure_qubit_concurrence(vec) - target) < 1e-12
        average = sum(p * pure_qubit_concurrence(vec) for p, vec in ens.members)
        assert abs(average - target) < 1e-12


def test_optimal_decomposition_at_density_tolerances():
    # Accepted only through the trace tolerance: C = 1 (s = 0), and a
    # near-pure state with s = 1e-6 < |rho00 - rho11| = 4e-5.
    c = math.sqrt(1 - 1e-12) / 2
    for rho in (
        [[0.5 + 4.9e-10, 0.5], [0.5, 0.5 + 4.9e-10]],
        [[0.5 + 2e-5 + 4.5e-10, c], [c, 0.5 - 2e-5 + 4.5e-10]],
    ):
        rho = np.array(rho)
        target = qubit_concurrence(rho)
        ens = optimal_qubit_decomposition(rho)
        assert np.max(np.abs(ens.mixture() - rho)) < 1e-9
        for p, vec in ens.members:
            assert abs(pure_qubit_concurrence(vec) - target) < 1e-9


def test_qubit_formation_closed_form():
    assert qubit_formation(PLUS) == 1.0
    assert qubit_formation(np.diag([0.3, 0.7])) == 0.0
    for q in (0.0, 0.3, 0.5, 1.0):
        assert math.copysign(1.0, qubit_formation(np.diag([q, 1.0 - q]))) == 1.0, q
    rng = np.random.default_rng(71)
    for i in range(30):
        rho = random_density_matrix(2, rng) if i % 3 else near_pure_qubit(10.0 ** -(i // 3 + 1))
        x = (1 + math.sqrt(1 - qubit_concurrence(rho) ** 2)) / 2
        h = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        formation = qubit_formation(rho)
        assert abs(formation - h) < 1e-12
        # every optimal member carries the same weight entropy
        for p, vec in optimal_qubit_decomposition(rho).members:
            weights = StandardState(np.abs(vec) ** 2)
            assert abs(evaluate_pure(MonotoneId("entropy"), weights) - formation) < 1e-12


def test_qubit_closed_forms_match_golden():
    """R spectrum, concurrence, C^2 and decomposition equal, bit for bit, a capture
    from the exact closed forms."""
    with open(GOLDEN_CLOSED_FORMS, newline="", encoding="utf-8") as fh:
        golden = list(csv.reader(fh))
    assert golden[0] == CLOSED_FORM_COLUMNS
    assert closed_form_rows() == golden[1:]
