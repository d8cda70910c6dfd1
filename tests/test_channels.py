import numpy as np
import pytest

from frameness import (
    EmptyShiftSet,
    Ensemble,
    MixedOutcomeGroup,
    NonFiniteCoefficient,
    NotProbabilityVector,
    OvercompleteChannel,
    ShiftOutOfRange,
    StandardState,
    U1Channel,
    U1Kraus,
    apply_channel_density,
    apply_channel_pure,
    apply_kraus_pure,
    random_channel,
    random_density_matrix,
    random_standard_state,
    spectrum,
    twirl,
    validate_channel,
)
from frameness.channels import channel_from_dict, channel_to_dict

RT2 = np.sqrt(2.0)


def identity_channel(dim):
    return U1Channel([[U1Kraus(0, {n: 1.0 for n in range(dim)})]], dim)


def measurement_channel(dim):
    return U1Channel([[U1Kraus(0, {n: 1.0})] for n in range(dim)], dim)


def test_validate_identity_and_measurement():
    for ch in (identity_channel(3), measurement_channel(3)):
        report = validate_channel(ch)
        assert report.trace_preserving
        assert np.allclose(report.per_sector_sums, 1.0)


def test_validate_subnormalized():
    ch = U1Channel([[U1Kraus(0, {0: 0.5, 1: 0.5})]], 2)
    report = validate_channel(ch)
    assert not report.trace_preserving


def test_validate_overcomplete():
    ch = U1Channel(
        [[U1Kraus(0, {0: 1.0, 1: 1.0})], [U1Kraus(0, {0: 1.0, 1: 1.0})]], 2
    )
    with pytest.raises(OvercompleteChannel):
        validate_channel(ch)


def test_validate_shift_out_of_range():
    ch = U1Channel([[U1Kraus(1, {1: 1.0})]], 2)
    with pytest.raises(ShiftOutOfRange):
        validate_channel(ch)
    with pytest.raises(ShiftOutOfRange):
        U1Kraus(1, {1: 1.0}).matrix(2)
    # an explicit zero outside the window is tolerated
    ok = U1Channel([[U1Kraus(1, {0: 1.0, 1: 0.0})]], 2)
    validate_channel(ok)


def test_kraus_rejects_non_finite_coefficients():
    for bad in (float("nan"), complex(0.5, float("inf"))):
        with pytest.raises(NonFiniteCoefficient):
            U1Kraus(0, {0: 1.0, 1: bad})
    data = channel_to_dict(identity_channel(2))
    data["outcomes"][0][0]["coeffs"]["0"] = [float("nan"), 0.0]
    with pytest.raises(NonFiniteCoefficient):
        channel_from_dict(data)


def test_kraus_matrix():
    k = U1Kraus(1, {0: 1 / RT2, 1: 1 / RT2})
    m = k.matrix(3)
    expect = np.zeros((3, 3), dtype=complex)
    expect[1, 0] = 1 / RT2
    expect[2, 1] = 1 / RT2
    assert np.array_equal(m, expect)


def test_random_channel_trace_preserving_and_deterministic():
    ch = random_channel(4, (-1, 0, 1), seed=7)
    report = validate_channel(ch)
    assert report.trace_preserving
    assert np.max(np.abs(report.per_sector_sums - 1.0)) < 1e-12

    again = random_channel(4, (-1, 0, 1), seed=7)
    assert channel_to_dict(again) == channel_to_dict(ch)
    other = random_channel(4, (-1, 0, 1), seed=8)
    assert channel_to_dict(other) != channel_to_dict(ch)


def test_random_channel_multiple_kraus_per_shift():
    ch = random_channel(5, (0, 2), kraus_per_shift=3, seed=2)
    report = validate_channel(ch)
    assert report.trace_preserving
    assert len(list(ch.all_kraus())) == len(ch.outcomes)


def test_random_channel_bad_requests():
    with pytest.raises(EmptyShiftSet):
        random_channel(3, (), seed=0)
    with pytest.raises(ValueError):
        random_channel(2, (5,), seed=0)


def test_apply_kraus_pure_shifts_weights():
    k = U1Kraus(1, {0: 1 / RT2, 1: 1 / RT2})
    p, out = apply_kraus_pure(k, StandardState([0.5, 0.5, 0.0]))
    assert p == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(out.weights, [0.0, 0.5, 0.5], atol=1e-15)


def test_apply_kraus_pure_zero_outcome():
    k = U1Kraus(0, {2: 1.0})
    p, out = apply_kraus_pure(k, StandardState([1.0, 0.0, 0.0]))
    assert p == 0.0
    assert out is None


def test_apply_channel_pure_measurement_on_plus():
    ens = apply_channel_pure(measurement_channel(2), StandardState([0.5, 0.5]))
    assert len(ens.members) == 2
    for p, out in ens.members:
        assert p == pytest.approx(0.5, abs=1e-15)
        assert out.weights.max() == pytest.approx(1.0, abs=1e-15)


def test_apply_channel_pure_identity():
    st = StandardState([0.25, 0.75])
    ens = apply_channel_pure(identity_channel(2), st)
    assert len(ens.members) == 1
    assert np.allclose(ens.members[0][1].weights, st.weights, atol=1e-15)


def test_apply_channel_pure_rejects_groups_and_nontp():
    grouped = U1Channel([[U1Kraus(0, {0: 1.0}), U1Kraus(0, {1: 1.0})]], 2)
    with pytest.raises(MixedOutcomeGroup):
        apply_channel_pure(grouped, StandardState([0.5, 0.5]))
    lossy = U1Channel([[U1Kraus(0, {0: 0.5, 1: 0.5})]], 2)
    with pytest.raises(ValueError):
        apply_channel_pure(lossy, StandardState([0.5, 0.5]))


def test_apply_channel_pure_probabilities_sum():
    rng = np.random.default_rng(12)
    for trial in range(25):
        d = int(rng.integers(2, 7))
        st = random_standard_state(d, rng)
        ch = random_channel(d, (-1, 0, 1), seed=trial)
        ens = apply_channel_pure(ch, st)
        assert abs(ens.probabilities.sum() - 1.0) < 1e-9


def test_outcome_spectrum_shifts_inside_window():
    rng = np.random.default_rng(13)
    for trial in range(25):
        d = int(rng.integers(3, 7))
        st = random_standard_state(d, rng)
        support = set(spectrum(st).support)
        ch = random_channel(d, (-1, 1), seed=100 + trial)
        for group in ch.outcomes:
            k = group[0]
            p, out = apply_kraus_pure(k, st)
            if out is None:
                continue
            shifted = {n + k.shift for n in support if 0 <= n + k.shift < d}
            assert set(spectrum(out).support) <= shifted


def test_apply_channel_density_dephasing_group():
    # both measurement projectors merged into one outcome = full dephasing
    ch = U1Channel([[U1Kraus(0, {0: 1.0}), U1Kraus(0, {1: 1.0})]], 2)
    plus = 0.5 * np.ones((2, 2))
    ens = apply_channel_density(ch, plus)
    assert len(ens.members) == 1
    p, out = ens.members[0]
    assert p == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-15)


def test_pure_and_density_routes_agree():
    rng = np.random.default_rng(19)
    for trial in range(20):
        d = int(rng.integers(2, 6))
        st = random_standard_state(d, rng)
        ch = random_channel(d, (-1, 0), seed=200 + trial)
        pure_route = apply_channel_pure(ch, st)
        dens_route = apply_channel_density(ch, st.projector())
        kept = [(p, out) for p, out in pure_route.members]
        assert len(kept) == len(dens_route.members)
        for (p1, out1), (p2, out2) in zip(kept, dens_route.members):
            assert abs(p1 - p2) < 1e-12
            # twirl the pure outcome projector: off-diagonals may differ,
            # the charge populations must match
            assert np.max(np.abs(np.diag(out2).real - out1.weights)) < 1e-12


def test_covariance_with_twirl():
    # dephasing commutes with charge-shifting Kraus conjugation; the left
    # side uses an inline mask oracle because the intermediate matrix is
    # subnormalized
    rng = np.random.default_rng(23)
    for trial in range(20):
        d = int(rng.integers(2, 6))
        rho = random_density_matrix(d, rng)
        ch = random_channel(d, (-1, 0, 1), seed=300 + trial)
        for k in ch.all_kraus():
            km = k.matrix(d)
            raw = km @ rho @ km.conj().T
            lhs = np.where(np.eye(d, dtype=bool), raw, 0.0)
            rhs = km @ twirl(rho) @ km.conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_ensemble_validation_and_mixture():
    a = StandardState([1.0, 0.0])
    b = StandardState([0.0, 1.0])
    for pairs in [
        ((0.5, a),),
        ((-0.1, a), (1.1, b)),
        ((np.nan, a), (1.0, b)),
        ((np.inf, a), (-np.inf, b)),
    ]:
        with pytest.raises(NotProbabilityVector):
            Ensemble(pairs)
    ens = Ensemble(((0.5, a), (0.5, b)))
    assert np.allclose(ens.mixture(), np.diag([0.5, 0.5]))


def test_channel_json_roundtrip():
    ch = random_channel(3, (-1, 0), seed=5)
    back = channel_from_dict(channel_to_dict(ch))
    assert channel_to_dict(back) == channel_to_dict(ch)
