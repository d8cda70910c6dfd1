import numpy as np
import pytest

from frameness import (
    BadParameter,
    MonotoneId,
    Ensemble,
    InvalidChannel,
    InvalidState,
    StandardState,
    U1Channel,
    U1Kraus,
    apply_channel_density,
    apply_channel_pure,
    random_channel,
    random_density_matrix,
    evaluate_pure,
    purify,
    random_standard_state,
    spectrum,
    twirl,
    validate_channel,
)
from frameness.channels import (
    _slot_layout,
    apply_slots_pure,
    channel_from_dict,
    channel_to_dict,
    coefficient_draws,
    sample_coefficients,
    squared_moduli,
)

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


def test_subnormalized_channel_application_is_typed():
    # One slot of moduli 0.5 on both sectors: each completeness sum is 0.5.
    moduli = np.full((1, 2), 0.5)
    with pytest.raises(InvalidChannel, match="channel is not trace-preserving"):
        apply_slots_pure([0], moduli, np.array([0.5, 0.5]))
    ch = U1Channel([[U1Kraus(0, {0: np.sqrt(0.5), 1: np.sqrt(0.5)})]], 2)
    with pytest.raises(InvalidChannel, match="channel is not trace-preserving"):
        apply_channel_pure(ch, StandardState(np.array([0.5, 0.5])))
    with pytest.raises(InvalidChannel, match="channel is not trace-preserving"):
        apply_channel_density(ch, np.eye(2) / 2)


def test_validate_overcomplete():
    ch = U1Channel(
        [[U1Kraus(0, {0: 1.0, 1: 1.0})], [U1Kraus(0, {0: 1.0, 1: 1.0})]], 2
    )
    with pytest.raises(InvalidChannel, match=r"^completeness sum 2\.0 exceeds 1 on some sector$"):
        validate_channel(ch)


def test_validate_shift_out_of_range():
    ch = U1Channel([[U1Kraus(1, {1: 1.0})]], 2)
    with pytest.raises(InvalidChannel, match=r"sector 1 with shift 1 maps outside 0\.\.1"):
        validate_channel(ch)
    with pytest.raises(InvalidChannel, match=r"sector 1 with shift 1 maps outside 0\.\.1"):
        U1Kraus(1, {1: 1.0}).matrix(2)
    # an explicit zero outside the window is tolerated
    ok = U1Channel([[U1Kraus(1, {0: 1.0, 1: 0.0})]], 2)
    validate_channel(ok)


def test_kraus_rejects_non_finite_coefficients():
    for bad in (float("nan"), complex(0.5, float("inf"))):
        with pytest.raises(InvalidChannel, match="coefficient at sector 1 is"):
            U1Kraus(0, {0: 1.0, 1: bad})
    data = channel_to_dict(identity_channel(2))
    data["outcomes"][0][0]["coeffs"]["0"] = [float("nan"), 0.0]
    with pytest.raises(InvalidChannel, match=r"coefficient at sector 0 is \(nan\+0j\)"):
        channel_from_dict(data)


def test_kraus_reads_a_sector_key_of_any_size():
    # A key past Python's 4300-digit text limit once raised a bare ValueError
    # from the label built for each coefficient; the label is built only to raise.
    big = 10**5000
    kraus = U1Kraus(0, {big: 1.0})
    channel = channel_from_dict({"dim": 1, "outcomes": [[{"shift": 0, "coeffs": {big: [1, 0]}}]]})
    assert kraus.coeffs == channel.outcomes[0][0].coeffs == {big: 1 + 0j}
    label = "coefficient at sector <int of 16610 bits>"
    with pytest.raises(InvalidChannel, match=rf"^{label} with shift 0 maps outside 0\.\.2$") as info:
        kraus.row(3)
    assert len(str(info.value)) < 200
    for bad, tail in (("x", " must be a number, got 'x'"), (float("nan"), r" is \(nan\+0j\)")):
        with pytest.raises(InvalidChannel, match=f"^{label}{tail}$"):
            U1Kraus(0, {big: bad})


def test_kraus_matrix():
    k = U1Kraus(1, {0: 1 / RT2, 1: 1 / RT2})
    m = k.matrix(3)
    expect = np.zeros((3, 3), dtype=complex)
    expect[1, 0] = 1 / RT2
    expect[2, 1] = 1 / RT2
    assert np.array_equal(m, expect)
    # A shift past int64 once raised a bare OverflowError from the row index.
    assert np.array_equal(U1Kraus(10**30, {0: 0.0}).matrix(2), np.zeros((2, 2)))


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
    with pytest.raises(InvalidChannel, match="at least one shift is required"):
        random_channel(3, (), seed=0)
    # A shift list that is no iterable once raised a bare TypeError.
    with pytest.raises(InvalidChannel, match="^shifts must be an iterable of integers, got int$"):
        random_channel(3, 1)
    with pytest.raises(InvalidChannel, match="sector 0 admits no shift"):
        random_channel(2, (5,), seed=0)
    # Shifts with |shift| >= dim lay out no slot, and the message still names them all.
    with pytest.raises(InvalidChannel, match=r"^sector 0 admits no shift from \[-7, 5\]; a trace-preserving channel needs one$"):
        random_channel(3, (5, -7), seed=0)
    with pytest.raises(InvalidChannel, match="^kraus_per_shift must be at least 1, got 0$"):
        random_channel(3, (0,), kraus_per_shift=0, seed=0)
    with pytest.raises(InvalidChannel, match="^kraus_per_shift must be at most 64, got 65$"):
        random_channel(3, (0,), kraus_per_shift=65, seed=0)
    assert len(list(random_channel(3, (0,), kraus_per_shift=64, seed=0).all_kraus())) == 64
    for seed in (-1, [2026, -1, 7]):
        with pytest.raises(BadParameter, match="^seed must be at least 0, got -1$"):
            random_channel(3, (-1, 0, 1), seed=seed)
    # Shifts 0.5 and 1.5 made shifts 0 and 1; a float seed raised a bare TypeError.
    with pytest.raises(InvalidChannel, match=r"^shift must be an integer, got 0\.5$"):
        random_channel(3, [0.5, 1.5])
    for seed, bad in ((2.5, "2.5"), ([1, True], "True"), ("7", "'7'")):
        with pytest.raises(BadParameter, match=f"^seed must be an integer, got {bad}$"):
            random_channel(3, (-1, 0, 1), seed=seed)
    for dim, rule in ((2.5, "an integer, got 2.5"), (True, "an integer, got True"), (0, "at least 1, got 0")):
        with pytest.raises(BadParameter, match=f"^dimension must be {rule}$"):
            random_channel(dim, (0,))


def live_mask(shifts, dim):
    """The ``(len(shifts), dim)`` mask of the shifts that map each sector into ``0..dim-1``."""
    return np.array([[0 <= n + ell < dim for n in range(dim)] for ell in shifts], dtype=bool).reshape(-1, dim)


def test_slot_layout_lays_out_live_shifts_only():
    # Every shift from -10**5 to 10**5 was a slot, all but 2d - 1 of them live on no sector.
    for dim in (2, 3, 8):
        for kraus_per_shift in (1, 2):
            layout = _slot_layout(dim, range(-(10**5), 10**5 + 1), kraus_per_shift)
            slot_shifts = layout[0]
            assert len(slot_shifts) == (2 * dim - 1) * kraus_per_shift
            assert slot_shifts == tuple(ell for ell in range(1 - dim, dim) for _ in range(kraus_per_shift))
            assert layout == (slot_shifts, dim) and {type(x) for x in (*slot_shifts, dim)} == {int}
            assert live_mask(slot_shifts, dim).any(axis=1).all()
            assert layout == _slot_layout(dim, range(1 - dim, dim), kraus_per_shift)


def test_coverage_rule_and_draw_count_match_a_mask_reference():
    # Every nonempty subset of the shifts -d-1..d+1, dead ones included, at d = 1..5.
    rng = np.random.default_rng(5)
    cases = 0
    for dim in range(1, 6):
        span = range(-dim - 1, dim + 2)
        for bits in range(1, 2 ** len(span)):
            shifts = [ell for i, ell in enumerate(span) if bits >> i & 1]
            kraus_per_shift = 1 + bits % 2
            mask = live_mask(shifts, dim)
            covered = mask.any(axis=0)
            cases += 1
            if not covered.all():
                with pytest.raises(InvalidChannel, match=f"^sector {np.argmin(covered)} admits no shift from "):
                    _slot_layout(dim, shifts, kraus_per_shift)
                continue
            layout = _slot_layout(dim, shifts, kraus_per_shift)
            mask = np.repeat(mask[mask.any(axis=1)], kraus_per_shift, axis=0)
            assert coefficient_draws(layout) == 2 * mask.sum()
            coeffs = sample_coefficients(layout, rng.normal(size=(2, coefficient_draws(layout))))
            assert np.array_equal(coeffs != 0, np.broadcast_to(mask, coeffs.shape))
    assert cases == 10907


def test_dead_shifts_leave_the_random_channel_unchanged():
    for dim, dead, alive, kraus_per_shift in [
        (2, (0, 2), (0,), 1),
        (3, (-5, -1, 0, 1, 7), (-1, 0, 1), 2),
        (3, range(-20000, 20001), range(-2, 3), 1),
    ]:
        expected = channel_to_dict(random_channel(dim, alive, kraus_per_shift, seed=9))
        assert channel_to_dict(random_channel(dim, dead, kraus_per_shift, seed=9)) == expected


def test_apply_channel_pure_leaves_dead_operators_out():
    # A shift with |shift| >= dim has an all-zero row: an outcome of probability 0.
    st = StandardState([0.25, 0.75])
    ch = random_channel(2, (-1, 0, 1), seed=4)
    ens = apply_channel_pure(ch, st)
    rho = np.array([[0.25, 0.1], [0.1, 0.75]])
    mixed = apply_channel_density(ch, rho)
    # Shifts past int64 once made apply_channel_density raise a bare OverflowError.
    for extra in ([[U1Kraus(5, {})], [U1Kraus(-2, {0: 0.0})]], [[U1Kraus(10**30, {0: 0.0})]], [[U1Kraus(2**63, {1: 0.0})]]):
        dead_channel = U1Channel(list(ch.outcomes) + extra, 2)
        dead = apply_channel_pure(dead_channel, st)
        assert len(dead.members) == len(ens.members)
        for (p, out), (q, post) in zip(ens.members, dead.members):
            assert p == q and np.array_equal(out.weights, post.weights)
        assert np.array_equal(validate_channel(dead_channel).per_sector_sums, validate_channel(ch).per_sector_sums)
        dead_mixed = apply_channel_density(dead_channel, rho)
        assert len(dead_mixed.members) == len(mixed.members)
        for (p, out), (q, post) in zip(mixed.members, dead_mixed.members):
            assert p == q and np.array_equal(out, post)
    # The dead operator's row is still read, so a nonzero coefficient it sends outside raises.
    with pytest.raises(InvalidChannel, match="^coefficient at sector 0 with shift 5 maps outside 0..1$"):
        apply_channel_pure(U1Channel(list(ch.outcomes) + [[U1Kraus(5, {0: 1.0})]], 2), st)
    grouped = U1Channel([[U1Kraus(0, {0: 1.0, 1: 1.0}), U1Kraus(5, {})]], 2)
    with pytest.raises(InvalidChannel, match="^outcome group with 2 Kraus operators; pure-state application needs singletons$"):
        apply_channel_pure(grouped, st)
    with pytest.raises(InvalidChannel, match="^channel is not trace-preserving$"):
        apply_channel_pure(U1Channel([[U1Kraus(5, {})]], 2), st)


def test_channel_members_are_typed():
    # A bare TypeError, and [[1]] failed later with a bare AttributeError.
    cases = [
        (5, "^outcomes must be groups of U1Kraus operators, got 5$"),
        ([5], r"^outcomes must be groups of U1Kraus operators, got \[5\]$"),
        ([U1Kraus(0, {0: 1.0})], r"^outcomes must be groups of U1Kraus operators, got \[U1Kraus\(shift=0, coeffs=\{0: \(1\+0j\)\}\)\]$"),
        ([[1]], "^outcome group member 1 is not a U1Kraus$"),
        ([[U1Kraus(0, {0: 1.0})], "ab"], "^outcome group member 'a' is not a U1Kraus$"),
    ]
    for outcomes, message in cases:
        with pytest.raises(InvalidChannel, match=message):
            U1Channel(outcomes, 1)


def test_apply_channel_pure_shifts_weights():
    shift = U1Kraus(1, {0: 1 / RT2, 1: 1 / RT2})
    rest = U1Kraus(0, {0: 1 / RT2, 1: 1 / RT2, 2: 1.0})
    ens = apply_channel_pure(U1Channel([[shift], [rest]], 3), StandardState([0.5, 0.5, 0.0]))
    (p, out), _ = ens.members
    assert p == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(out.weights, [0.0, 0.5, 0.5], atol=1e-15)


def test_apply_slots_pure_zero_outcome():
    probs, posts = apply_slots_pure([0, 0, 0], np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert probs.tolist() == [1.0, 0.0, 0.0]
    assert not posts[1:].any()
    assert len(apply_channel_pure(measurement_channel(3), StandardState([1.0, 0.0, 0.0])).members) == 1


def test_apply_slots_pure_drops_outcomes_at_zero_tolerance():
    # An outcome of probability at or below ZERO_TOL is dropped: probability 0 and an all-zero post-state.
    probs, posts = apply_slots_pure([0, 0, 0], np.eye(3), np.array([1.0 - 2e-12, 1e-12, 1e-12]))
    assert probs.tolist() == [1.0 - 2e-12, 0.0, 0.0]
    assert posts.tolist() == [[1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3]
    assert len(apply_channel_pure(measurement_channel(3), StandardState([1.0 - 2e-12, 1e-12, 1e-12])).members) == 1


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
    with pytest.raises(InvalidChannel, match="outcome group with 2 Kraus operators"):
        apply_channel_pure(grouped, StandardState([0.5, 0.5]))
    lossy = U1Channel([[U1Kraus(0, {0: 0.5, 1: 0.5})]], 2)
    with pytest.raises(InvalidChannel, match="channel is not trace-preserving"):
        apply_channel_pure(lossy, StandardState([0.5, 0.5]))
    # A bare broadcast ValueError, and a dimension-1 state was broadcast over every sector.
    for weights in ([0.5, 0.25, 0.25], [1.0]):
        with pytest.raises(InvalidState, match=f"^state of dimension {len(weights)} on a channel of dimension 2$"):
            apply_channel_pure(lossy, StandardState(weights))


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
        support = set(spectrum(st))
        layout = _slot_layout(d, (-1, 1), 1)
        draws = np.random.default_rng(100 + trial).normal(size=(1, coefficient_draws(layout)))
        coeffs = sample_coefficients(layout, draws)
        probs, posts = apply_slots_pure(layout[0], squared_moduli(coeffs[0]), st.weights)
        assert probs.any()
        for ell, post, p in zip(layout[0], posts, probs):
            if p > 0:
                shifted = {n + ell for n in support if 0 <= n + ell < d}
                assert set(spectrum(StandardState(post))) <= shifted


def test_apply_channel_density_dephasing_group():
    # both measurement projectors merged into one outcome = full dephasing
    ch = U1Channel([[U1Kraus(0, {0: 1.0}), U1Kraus(0, {1: 1.0})]], 2)
    plus = 0.5 * np.ones((2, 2))
    ens = apply_channel_density(ch, plus)
    assert len(ens.members) == 1
    p, out = ens.members[0]
    assert p == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-15)


def test_density_outcomes_mix_to_the_channel_output():
    rho = random_density_matrix(4, np.random.default_rng(29))
    ch = random_channel(4, (-1, 0, 2), 2, seed=31)
    ens = apply_channel_density(ch, rho)
    expected = sum(k.matrix(4) @ rho @ k.matrix(4).conj().T for k in ch.all_kraus())
    assert np.max(np.abs(ens.mixture() - expected)) < 1e-12
    # An outcome of probability 0 is left out of the ensemble.
    ens = apply_channel_density(measurement_channel(2), np.diag([1.0, 0.0]))
    assert len(ens.members) == 1
    assert np.array_equal(ens.mixture(), np.diag([1.0, 0.0]))


def test_empty_channel_is_rejected():
    for outcomes in ([], [[U1Kraus(0, {0: 1.0, 1: 1.0})], []]):
        with pytest.raises(InvalidChannel, match="^channel needs at least one nonempty outcome group$"):
            U1Channel(outcomes, 2)


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
    for pairs, message in [
        (((0.5, a),), "^probabilities sum to 0.5$"),
        (((-0.1, a), (1.1, b)), "^negative probability -1.000e-01$"),
        (((np.nan, a), (1.0, b)), "^probabilities must be finite$"),
        (((np.inf, a), (-np.inf, b)), "^probabilities must be finite$"),
        # Read as 0.5 and 0.5 before.
        ((("0.5", a), ("0.5", b)), "^probability must be a number, got '0.5'$"),
        (((True, a), (False, b)), "^probability must be a number, got True$"),
        # Raised a bare TypeError, or (numpy's complex) dropped the imaginary part.
        (((1j, a), (1.0, b)), r"^probability must be a real number, got 1j$"),
        (((np.complex128(0.5), a), (0.5, b)), r"^probability must be a real number, got np\.complex128\(0\.5\+0j\)$"),
        # A bare ValueError and TypeError: members that are not pairs.
        (((0.5,),), r"^ensemble members must be \(probability, state\) pairs$"),
        ([1.0], r"^ensemble members must be \(probability, state\) pairs$"),
        # A bare OverflowError.
        (((10**400, a),), "^probability out of float range$"),
        ((), "^ensemble needs at least one member$"),
    ]:
        with pytest.raises(InvalidState, match=message):
            Ensemble(pairs)
    # A bare ValueError from the mixture.
    with pytest.raises(InvalidState, match="^ensemble entry must be a number, got 'abc'$"):
        Ensemble(((1.0, "abc"),)).mixture()
    # A non-square 2-D member was returned as a (2, 3) "mixture".
    for member, shape in [(np.zeros((1, 2, 2)), r"\(1, 2, 2\)"), (np.ones((2, 3)), r"\(2, 3\)")]:
        with pytest.raises(InvalidState, match=rf"^cannot interpret ensemble member of shape {shape}$"):
            Ensemble(((1.0, member),)).mixture()
    # A bare broadcast ValueError.
    with pytest.raises(InvalidState, match=r"^ensemble members of shapes \(2, 2\) and \(3, 3\) do not mix$"):
        Ensemble(((0.5, [1, 0]), (0.5, [1, 0, 0]))).mixture()
    ens = Ensemble(((0.5, a), (0.5, b)))
    assert np.allclose(ens.mixture(), np.diag([0.5, 0.5]))


def test_channel_loader_reads_sector_keys_exactly():
    # "1_0" loaded as sector 10, and "0" with "00" as one sector 0.
    cases = [
        ({"1_0": [1.0, 0.0]}, "^sector key '1_0' is not an integer as str\\(n\\) writes it$"),
        ({"0": [1.0, 0.0], "00": [0.0, 0.0]}, "^sector key '00' is not an integer as str\\(n\\) writes it$"),
        ({" 0": [1.0, 0.0]}, "^sector key ' 0' is not an integer as str\\(n\\) writes it$"),
        ({"+0": [1.0, 0.0]}, "^sector key '\\+0' is not an integer as str\\(n\\) writes it$"),
        ({"0": [1.0, 0.0], 0: [0.0, 0.0]}, "^sector 0 is given twice$"),
        ({True: [1.0, 0.0]}, "^sector must be an integer, got True$"),
    ]
    for coeffs, message in cases:
        with pytest.raises(InvalidChannel, match=message):
            channel_from_dict({"dim": 1, "outcomes": [[{"shift": 0, "coeffs": coeffs}]]})
    data = {"dim": 2, "outcomes": [[{"shift": 0, "coeffs": {"0": [1.0, 0.0], 1: [1.0, 0.0]}}]]}
    assert channel_from_dict(data).outcomes[0][0].coeffs == {0: 1.0, 1: 1.0}
    assert U1Kraus(0, {0: 1j}).coeffs == {0: 1j}


def test_channel_json_roundtrip():
    ch = random_channel(3, (-1, 0), seed=5)
    back = channel_from_dict(channel_to_dict(ch))
    assert channel_to_dict(back) == channel_to_dict(ch)


def test_channel_dimension_is_an_integer_in_range():
    # 2.7 raised numpy's bare TypeError in validate_channel; 0 and 10**6 were accepted.
    kraus = [[U1Kraus(0, {0: 1.0})]]
    for dim, rule in ((2.7, "an integer, got 2.7"), (True, "an integer, got True"), (0, "at least 1, got 0"), (10**6, "at most 64, got 1000000")):
        with pytest.raises(InvalidChannel, match=f"^dimension must be {rule}$"):
            U1Channel(kraus, dim)
    channel = U1Channel(kraus, np.int64(1))
    assert type(channel.dim) is int and validate_channel(channel).trace_preserving



def test_object_arguments_of_the_wrong_type_raise_typed_errors():
    # Each raised a bare AttributeError, such as "'str' object has no attribute 'all_kraus'".
    channel = U1Channel([[U1Kraus(0, {0: 1.0})]], 1)
    state = StandardState([1.0])
    for call, error, message in (
        (lambda: spectrum("x"), InvalidState, "state must be a StandardState, got str"),
        (lambda: purify("x"), InvalidState, "state must be a StandardState, got str"),
        (lambda: evaluate_pure(MonotoneId("entropy"), "x"), InvalidState, "state must be a StandardState, got str"),
        (lambda: apply_channel_pure(channel, np.ones(1)), InvalidState, "state must be a StandardState, got ndarray"),
        (lambda: apply_channel_pure("x", state), InvalidChannel, "channel must be a U1Channel, got str"),
        (lambda: apply_channel_density("x", np.eye(1)), InvalidChannel, "channel must be a U1Channel, got str"),
        (lambda: validate_channel("x"), InvalidChannel, "channel must be a U1Channel, got str"),
        (lambda: channel_to_dict(None), InvalidChannel, "channel must be a U1Channel, got NoneType"),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            call()
