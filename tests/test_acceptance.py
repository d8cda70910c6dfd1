"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
PASS line with the observed margins once its assertions hold. Run with
``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from frameness import (
    MonotoneId,
    RoofConfig,
    StandardState,
    appendix_closed_form,
    apply_channel_pure,
    channel_from_dict,
    channel_to_dict,
    convex_roof,
    evaluate_pure,
    optimal_qubit_decomposition,
    purify,
    qubit_concurrence,
    qubit_fof,
    qubit_formation,
    qubit_R_eigs,
    random_channel,
    random_density_matrix,
    random_standard_state,
    twirl,
    validate_channel,
)
from frameness.channels import _slot_layout, coefficient_channel
from frameness.cli import VIOLATION_TOL, run_verification, sample_trials

ROOF_CFG = RoofConfig(ensemble_size=2, restarts=8, seed=1)
VERIFY_DIMS = (2, 3, 4, 6)
VERIFY_SHIFTS = ((-1, 0, 1), (0, 2))
VERIFY_TRIALS = 1000
VERIFY_SEED = 0


@pytest.fixture(scope="module")
def qubit_batch():
    """100 seeded random qubit densities with their closed-form concurrences."""
    rng = np.random.default_rng(2026)
    batch = []
    for _ in range(100):
        rho = random_density_matrix(2, rng)
        batch.append((rho, qubit_concurrence(rho)))
    return batch


def _all_measures(dim):
    out = [MonotoneId("vidal", k) for k in range(2, dim + 1)]
    out.append(MonotoneId("entropy"))
    out.extend(MonotoneId("concurrence", k) for k in range(2, dim + 1))
    out.append(MonotoneId("variance"))
    return out


def test_criterion_1_roof_matches_qubit_concurrence(qubit_batch):
    start = time.perf_counter()
    worst = 0.0
    for rho, closed in qubit_batch:
        result = convex_roof(MonotoneId("concurrence", 2), rho, ROOF_CFG)
        worst = max(worst, abs(result.value - closed))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3
    assert elapsed <= 60.0
    print(
        f"PASS criterion 1: roof concurrence vs closed form on 100 qubits, "
        f"worst {worst:.3e} <= 1e-3 in {elapsed:.1f}s"
    )


def test_criterion_2_roof_matches_qubit_fof(qubit_batch):
    worst_roof = 0.0
    for rho, closed in qubit_batch:
        result = convex_roof(MonotoneId("variance"), rho, ROOF_CFG)
        worst_roof = max(worst_roof, abs(result.value - closed**2))
    assert worst_roof <= 2e-3
    print(
        f"PASS criterion 2: variance roof vs squared concurrence on 100 qubits, "
        f"worst {worst_roof:.3e} <= 2e-3"
    )


def test_criterion_3_two_parameter_family_grid():
    """Closed-form family values agree with the R-spectrum route on a grid."""
    worst = 0.0
    points = 0
    for p in np.arange(0.0, 0.500001, 0.1):
        for alpha in np.arange(0.0, np.pi / 2 + 1e-9, np.pi / 8):
            res = appendix_closed_form(float(p), float(alpha))
            mu = qubit_R_eigs(res.rho)
            worst = max(
                worst,
                abs(mu[0] - res.mu1),
                abs(mu[1] - res.mu2),
                abs(qubit_concurrence(res.rho) - res.concurrence),
                abs(qubit_fof(res.rho) - res.fof),
                abs(qubit_formation(res.rho) - res.formation),
            )
            points += 1
    assert points == 30
    assert worst <= 1e-10
    print(
        f"PASS criterion 3: closed-form grid of {points} points vs R route, "
        f"worst {worst:.3e} <= 1e-10"
    )


def test_criterion_4_no_monotonicity_violations():
    combos = 0
    violations = 0
    worst = np.inf
    for dim in VERIFY_DIMS:
        for shifts in VERIFY_SHIFTS:
            for measure in _all_measures(dim):
                report, _ = run_verification(
                    measure, dim, VERIFY_TRIALS, VERIFY_SEED, shifts
                )
                combos += 1
                violations += report.violations
                worst = min(worst, report.worst_margin)
    assert violations == 0
    print(
        f"PASS criterion 4: 0 violations over {combos} measure/dim/shift combos "
        f"x {VERIFY_TRIALS} trials, worst margin {worst:.3e} >= {-VIOLATION_TOL}"
    )


def test_criterion_5_simultaneous_tail_sums():
    """Every trial satisfies all tail-sum margins at once on the same stream."""
    worst = np.inf
    trials_checked = 0
    for dim in VERIFY_DIMS:
        ks = list(range(2, dim + 1))
        for shifts in VERIFY_SHIFTS:
            layout = _slot_layout(dim, shifts, 1)
            weights, coeffs = sample_trials(layout, VERIFY_SEED, range(VERIFY_TRIALS))
            for trial in range(VERIFY_TRIALS):
                state = StandardState(weights[trial])
                channel = coefficient_channel(layout, coeffs[trial])
                ensemble = apply_channel_pure(channel, state)
                for k in ks:
                    measure = MonotoneId("vidal", k)
                    before = evaluate_pure(measure, state)
                    after = sum(
                        p * evaluate_pure(measure, out)
                        for p, out in ensemble.members
                    )
                    worst = min(worst, before - after)
                trials_checked += 1
    assert worst >= -VIOLATION_TOL
    print(
        f"PASS criterion 5: all orders jointly nonincreasing on "
        f"{trials_checked} shared trials, worst margin {worst:.3e}"
    )


def test_criterion_6_invariant_states_measure_zero():
    worst = 0.0
    for dim in range(2, 9):
        for n in range(dim):
            weights = np.zeros(dim)
            weights[n] = 1.0
            state = StandardState(weights)
            for measure in _all_measures(dim):
                worst = max(worst, abs(evaluate_pure(measure, state)))
    for q in np.linspace(0.0, 1.0, 11):
        rho = np.diag([q, 1.0 - q]).astype(complex)
        worst = max(worst, qubit_concurrence(rho), qubit_fof(rho))
    assert worst <= 1e-12
    print(
        f"PASS criterion 6: eigenstates and diagonal qubits score "
        f"{worst:.1e} <= 1e-12 on every monotone"
    )


def test_criterion_7_reference_bit_values():
    plus = StandardState(np.array([0.5, 0.5]))
    rho_plus = 0.5 * np.ones((2, 2), dtype=complex)
    gaps = (
        abs(evaluate_pure(MonotoneId("variance"), plus) - 1.0),
        abs(evaluate_pure(MonotoneId("entropy"), plus) - 1.0),
        abs(qubit_fof(rho_plus) - 1.0),
    )
    assert max(gaps) <= 1e-12
    print(
        f"PASS criterion 7: reference bit scores variance 1, entropy 1 bit, "
        f"fof 1 within {max(gaps):.1e} <= 1e-12"
    )


def test_criterion_8_roof_convexity():
    rng = np.random.default_rng(99)
    worst_closed = 0.0
    worst_roof = 0.0
    measure = MonotoneId("concurrence", 2)
    for _ in range(50):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        roof_a = convex_roof(measure, a, ROOF_CFG).value
        roof_b = convex_roof(measure, b, ROOF_CFG).value
        for t in (0.25, 0.5, 0.75):
            mix = t * a + (1.0 - t) * b
            closed_excess = qubit_concurrence(mix) - (
                t * qubit_concurrence(a) + (1.0 - t) * qubit_concurrence(b)
            )
            roof_excess = convex_roof(measure, mix, ROOF_CFG).value - (
                t * roof_a + (1.0 - t) * roof_b
            )
            worst_closed = max(worst_closed, closed_excess)
            worst_roof = max(worst_roof, roof_excess)
    assert worst_closed <= 1e-12
    assert worst_roof <= 2e-3
    print(
        f"PASS criterion 8: mixing never raises the roof over 50 pairs x 3 "
        f"weights, closed-form excess {worst_closed:.1e} <= 1e-12, "
        f"optimizer excess {worst_roof:.3e} <= 2e-3"
    )


def test_criterion_9_structural_invariants():
    checked = 0
    for i in range(500):
        rng = np.random.default_rng([2026, i])
        dim = 2 + i % 7

        state = random_standard_state(dim, rng)
        pure = purify(state)
        sys_marginal = pure.reduced_system()
        ref_marginal = pure.reduced_reference()
        assert np.max(np.abs(sys_marginal - np.diag(state.weights))) <= 1e-12
        sys_spec = np.sort(np.diag(sys_marginal).real)
        ref_spec = np.sort(np.diag(ref_marginal).real)
        assert np.max(np.abs(sys_spec - ref_spec)) <= 1e-12

        rho = random_density_matrix(dim, rng)
        dephased = twirl(rho)
        assert np.array_equal(twirl(dephased), dephased)
        assert np.array_equal(np.diag(dephased), np.diag(rho))
        assert abs(np.trace(dephased) - np.trace(rho)) <= 1e-12

        shifts = VERIFY_SHIFTS[i % 2]
        channel = random_channel(dim, shifts, 1 + i % 2, seed=[2026, i, 7])
        report = validate_channel(channel)
        assert report.trace_preserving
        assert np.max(np.abs(report.per_sector_sums - 1.0)) <= 1e-12
        restored = channel_from_dict(json.loads(json.dumps(channel_to_dict(channel))))
        for orig, back in zip(channel.all_kraus(), restored.all_kraus()):
            assert orig.shift == back.shift
            assert np.array_equal(orig.matrix(dim), back.matrix(dim))
        ensemble = apply_channel_pure(channel, state)
        assert abs(sum(ensemble.probabilities) - 1.0) <= 1e-9

        rho2 = random_density_matrix(2, rng)
        decomposition = optimal_qubit_decomposition(rho2)
        assert np.max(np.abs(decomposition.mixture() - rho2)) <= 1e-9

        checked += 1
    assert checked == 500
    print(
        "PASS criterion 9: twirl, purification, channel serialization and "
        f"qubit decompositions hold structural invariants on {checked} instances"
    )


def test_criterion_10_entropy_roof_matches_qubit_formation(qubit_batch):
    start = time.perf_counter()
    worst = 0.0
    for rho, _ in qubit_batch:
        result = convex_roof(MonotoneId("entropy"), rho, ROOF_CFG)
        worst = max(worst, abs(result.value - qubit_formation(rho)))
    elapsed = time.perf_counter() - start
    assert worst <= 2e-3
    print(
        f"PASS criterion 10: entropy roof vs frameness of formation on 100 qubits, "
        f"worst {worst:.3e} <= 2e-3 in {elapsed:.1f}s"
    )
