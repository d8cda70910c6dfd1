import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frameness import (
    BadParameter,
    BipartitePureState,
    InvalidChannel,
    InvalidDensity,
    InvalidState,
    StandardState,
    U1Kraus,
    is_gapless,
    majorizes,
    purify,
    qubit_concurrence,
    random_density_matrix,
    random_standard_state,
    spectrum,
    standard_form,
    twirl,
    validate_channel,
)
from frameness.channels import channel_from_dict, channel_to_dict, random_channel
from frameness.states import (
    density_from_dict,
    density_to_dict,
    state_from_dict,
)

RT2 = np.sqrt(2.0)


def test_standard_form_merges_multiplicities():
    # (|0,a> + |0,b> + sqrt(2)|1,a>) / 2 carries weight 1/2 on each sector
    std = standard_form({0: [0.5, 0.5], 1: [RT2 / 2]}, dim=2)
    assert np.allclose(std.weights, [0.5, 0.5], atol=1e-15)


def test_standard_form_ignores_phases():
    rng = np.random.default_rng(8)
    for _ in range(20):
        amps = {0: rng.normal(size=3) + 1j * rng.normal(size=3), 2: rng.normal(size=2)}
        norm = np.sqrt(sum(np.vdot(v, v).real for v in amps.values()))
        amps = {n: v / norm for n, v in amps.items()}
        base = standard_form(amps, dim=4)
        phased = {
            n: v * np.exp(1j * rng.uniform(0, 2 * np.pi, size=v.shape))
            for n, v in amps.items()
        }
        rot = standard_form(phased, dim=4)
        assert np.max(np.abs(base.weights - rot.weights)) < 1e-14


def test_standard_form_rejects_unnormalized():
    with pytest.raises(InvalidState, match=r"^state norm 1\.4142135623730951 deviates from 1$"):
        standard_form({0: [1.0], 1: [1.0]}, dim=2)
    with pytest.raises(InvalidState, match="^state needs at least one sector$"):
        standard_form({}, 2)
    for block in ([], [[1.0]]):
        with pytest.raises(InvalidState, match="^sector 0 needs a nonempty amplitude vector$"):
            standard_form({0: block}, 1)


def test_sectored_state_window():
    with pytest.raises(InvalidState, match="^sector must be at most 2, got 5$"):
        standard_form({5: [1.0]}, dim=3)
    # Sector 0.7 was stored as sector 0, and dims 2.5 and True were accepted.
    cases = [
        ({0.7: [1.0]}, 2, r"^sector must be an integer, got 0\.7$"),
        ({True: [1.0]}, 2, "^sector must be an integer, got True$"),
        ({0: [1.0]}, 2.5, r"^dimension must be an integer, got 2\.5$"),
        ({0: [1.0]}, True, "^dimension must be an integer, got True$"),
        ({0: [1.0]}, 0, "^dimension must be at least 1, got 0$"),
        ({0: [1.0]}, 65, "^dimension must be at most 64, got 65$"),
        # A list of blocks raised a bare AttributeError; the string and the
        # bool amplitudes were read as 1+0j, and the overflow raised a bare
        # OverflowError.
        ([[1.0]], 1, r"^sectors must map labels to amplitudes, got \[\[1\.0\]\]$"),
        ({0: ["1"]}, 1, "^amplitude must be a number, got '1'$"),
        ({0: [True]}, 1, "^amplitude must be a number, got True$"),
        ({0: [10**400]}, 1, "^amplitude out of float range$"),
    ]
    for sectors, dim, message in cases:
        with pytest.raises(InvalidState, match=message):
            standard_form(sectors, dim)


def test_standard_state_checks_weights():
    with pytest.raises(InvalidState, match="^weights sum to 0.8, expected 1$"):
        StandardState([0.5, 0.3])
    with pytest.raises(InvalidState, match="^negative weight -5.000e-01$"):
        StandardState([1.5, -0.5])
    with pytest.raises(InvalidState, match="^weights must be finite$"):
        StandardState([np.nan, 0.5, 0.5])
    with pytest.raises(InvalidState, match="^weights must be finite$"):
        StandardState([np.inf, -np.inf, 1.0])
    # A bare TypeError, and a complex array dropped its imaginary parts.
    # The strings and the bools then loaded as [0.5, 0.5] and [1, 0], and
    # the overflow and the ragged arrays raised a bare OverflowError and
    # ValueError.
    cases = [
        ([1j], "^weight must be a real number, got 1j$"),
        (np.array([1.0 + 0j]), r"^weight must be a real number, got \(1\+0j\)$"),
        (["0.5", "0.5"], "^weight must be a number, got '0.5'$"),
        ([True, False], "^weight must be a number, got True$"),
        (np.array([True, False]), "^weight must be a number, got True$"),
        ([10**400], "^weight out of float range$"),
        ([np.zeros((2, 2)), np.zeros((2, 3))], "^ragged nesting of weight values$"),
    ]
    for weights, message in cases:
        with pytest.raises(InvalidState, match=message):
            StandardState(weights)


def test_spectrum_and_gaps():
    gapped = spectrum(StandardState([0.5, 0.0, 0.5]))
    assert gapped == (0, 2)
    assert not is_gapless(gapped)
    solid = spectrum(StandardState([0.3, 0.7]))
    assert solid == (0, 1)
    assert is_gapless(solid)
    point = spectrum(StandardState([0.0, 1.0, 0.0]))
    assert point == (1,)
    assert is_gapless(point)
    assert is_gapless(np.array([2, 3, 4]))
    # The labels are read as a set: True, False and False before.
    assert not is_gapless([0, 0, 2])
    assert is_gapless([2, 0, 1])
    assert is_gapless([1, 1, 1])
    # True, True and a bare TypeError before.
    for support, message in [
        ([0.5, 1.5], "^sector label must be an integer, got 0.5$"),
        ([True], "^sector label must be an integer, got True$"),
        ("ab", "^sector label must be an integer, got 'a'$"),
        ([], "^spectrum support is empty$"),
    ]:
        with pytest.raises(InvalidState, match=message):
            is_gapless(support)


def test_twirl_kills_off_diagonals():
    plus = 0.5 * np.ones((2, 2))
    assert np.array_equal(twirl(plus), np.diag([0.5, 0.5]))


def test_twirl_idempotent_and_trace_preserving():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho = random_density_matrix(5, rng)
        once = twirl(rho)
        assert np.array_equal(twirl(once), once)
        assert np.array_equal(np.diag(once), np.diag(rho))
        assert np.linalg.eigvalsh(once).min() > -1e-12


def test_twirl_rejects_non_integer_labels():
    # [0, 0.7, 1.9] read as int labels [0, 0, 1] kept the 0-1 coherence.
    flat = np.full((3, 3), 1 / 3)
    # [0, 0, True] read the bool as sector 1.
    # Arrays numpy cannot stack, even as objects.
    ragged = [np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 2))]
    for labels in ([0, 0.7, 1.9], np.array([0.0, 0.0, 1.0]), [True, False, True], ["0", "0", "1"], [[0], [0, 1], 2], [0, 0, True], ragged):
        with pytest.raises(BadParameter, match="^sector label must be an integer, got "):
            twirl(flat, sector_of=labels)
    with pytest.raises(BadParameter, match="^sector labels must have length 3$"):
        twirl(flat, sector_of=[0, 1])
    out = twirl(flat, sector_of=np.array([0, 0, 1], dtype=np.uint8))
    assert np.array_equal(out != 0, [[True, True, False], [True, True, False], [False, False, True]])


def test_twirl_keeps_multiplicity_blocks():
    rng = np.random.default_rng(9)
    rho = random_density_matrix(3, rng)
    out = twirl(rho, sector_of=[0, 0, 1])
    assert out[0, 1] == rho[0, 1]
    assert out[1, 0] == rho[1, 0]
    assert out[0, 2] == 0.0
    assert out[2, 1] == 0.0


def test_purify_amplitudes_and_total():
    bp = purify(StandardState([0.6, 0.3, 0.1]))
    assert bp.total == 2
    assert set(bp.amplitudes) == {(0, 2), (1, 1), (2, 0)}
    assert bp.amplitudes[(0, 2)] == pytest.approx(np.sqrt(0.6))


def test_bipartite_state_is_checked():
    # Before, (-1, 2) put its weight on sector 1 through index -1, (0, 5) raised a bare
    # IndexError, a string amplitude a bare TypeError, and the states with no sharp
    # total charge or with norm 26 were accepted.
    cases = [
        ({(-1, 2): 1.0}, 1, 2, "^system charge must be at least 0, got -1$"),
        ({(0, 5): 1.0}, 1, 2, r"^amplitude key \(0, 5\) has total charge 5, not 1$"),
        ({(0, 1): "1"}, 1, 2, "^amplitude must be a number, got '1'$"),
        ({(0, 0): 1, (1, 1): 5}, 0, 2, r"^amplitude key \(1, 1\) has total charge 2, not 0$"),
        ({(0, 1): 1, (1, 0): 5}, 1, 2, "^state norm 5.0990195135927845 deviates from 1$"),
        ({(2, -1): 1.0}, 1, 3, "^reference charge must be at least 0, got -1$"),
        ({(0, 1): math.nan}, 1, 2, "^each amplitude must be a finite number$"),
        ({(0, 1): [1.0, 0.0]}, 1, 2, "^each amplitude must be a finite number$"),
        ({(0, 1): 10**400}, 1, 2, "^amplitude out of float range$"),
        ({0: 1.0}, 1, 2, r"^amplitude key 0 is not a pair \(n, r\)$"),
        ({(0.0, 1): 1.0}, 1, 2, "^system charge must be an integer, got 0.0$"),
        ([1.0], 1, 2, r"^amplitudes must map \(n, r\) pairs to numbers, got \[1.0\]$"),
        ({(0, 1): 1.0}, 1, 0, "^system dimension must be at least 1, got 0$"),
        ({(0, 1): 1.0}, 1, 65, "^system dimension must be at most 64, got 65$"),
        ({(0, 64): 1.0}, 64, 2, "^total charge must be at most 63, got 64$"),
        ({(0, 1): 1.0}, True, 2, "^total charge must be an integer, got True$"),
    ]
    for amplitudes, total, system_dim, message in cases:
        with pytest.raises(InvalidState, match=message):
            BipartitePureState(amplitudes, total, system_dim)
    bp = BipartitePureState({(np.int64(1), 0): 0.6, (0, 1): 0.8j}, np.int64(1), 2)
    assert bp.amplitudes == {(1, 0): 0.6, (0, 1): 0.8j} and (bp.total, bp.system_dim) == (1, 2)
    assert np.array_equal(bp.reduced_system(), np.diag([0.8j * -0.8j, 0.36]))
    assert np.array_equal(bp.reduced_reference(), np.diag([0.36, 0.8j * -0.8j]))


def _dense_vector(bp):
    d_ref = bp.total + 1
    psi = np.zeros((bp.system_dim, d_ref), dtype=np.complex128)
    for (ns, nr), a in bp.amplitudes.items():
        psi[ns, nr] = a
    return psi


def test_purify_marginals():
    rng = np.random.default_rng(14)
    for dim in (2, 3, 5, 8):
        st = random_standard_state(dim, rng)
        bp = purify(st)
        psi = _dense_vector(bp)
        # independent partial-trace oracle on the dense amplitude table
        rho_s = np.einsum("nr,mr->nm", psi, psi.conj())
        rho_r = np.einsum("nr,ns->rs", psi, psi.conj())
        assert np.max(np.abs(rho_s - np.diag(st.weights))) < 1e-12
        assert np.max(np.abs(rho_s - bp.reduced_system())) < 1e-12
        assert np.max(np.abs(rho_r - bp.reduced_reference())) < 1e-12
        ws = np.sort(np.linalg.eigvalsh(rho_s))[::-1]
        wr = np.sort(np.linalg.eigvalsh(rho_r))[::-1]
        size = max(ws.size, wr.size)
        ws = np.pad(ws, (0, size - ws.size))
        wr = np.pad(wr, (0, size - wr.size))
        assert np.max(np.abs(ws - wr)) < 1e-12


def test_majorizes_basic():
    assert majorizes([0.7, 0.3], [0.6, 0.4])
    assert not majorizes([0.5, 0.5], [0.6, 0.4])
    assert majorizes([1.0], [0.7, 0.3])
    assert majorizes([0.4, 0.3, 0.3], [1.0 / 3.0] * 3)


def test_majorizes_reflexive_and_flat_bottom():
    rng = np.random.default_rng(21)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        w = random_standard_state(d, rng).weights
        assert majorizes(w, w)
        assert majorizes(w, np.full(d, 1.0 / d))


def test_majorizes_rejects_bad_input():
    with pytest.raises(InvalidState, match="^probabilities sum to 0.9$"):
        majorizes([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(InvalidState, match="^negative probability -2.000e-01$"):
        majorizes([1.2, -0.2], [0.5, 0.5])
    with pytest.raises(InvalidState, match="^probabilities must be finite$"):
        majorizes([np.nan, 0.5, 0.5], [1.0])
    with pytest.raises(InvalidState, match="^negative probability -5.000e-10$"):
        majorizes([1 + 5e-10, -5e-10], [0.5, 0.5])
    with pytest.raises(InvalidState, match=r"^probabilities must be a nonempty 1-D sequence, got shape \(2, 2\)$"):
        majorizes(np.eye(2), [0.5, 0.5])
    with pytest.raises(InvalidState, match=r"^probabilities must be a nonempty 1-D sequence, got shape \(0,\)$"):
        majorizes([], [0.5, 0.5])
    # A bare TypeError; the strings and the bools were read as numbers.
    with pytest.raises(InvalidState, match="^probability must be a real number, got 1j$"):
        majorizes([1j], [1.0])
    with pytest.raises(InvalidState, match="^probability must be a number, got '0.5'$"):
        majorizes([1.0], ["0.5", "0.5"])
    with pytest.raises(InvalidState, match="^probability must be a number, got True$"):
        majorizes([True, False], [1.0])


def test_random_inputs_check_dimension_and_rank():
    # rank 0 gave an all-NaN matrix, rank 2.5 a bare TypeError, dim 0 the
    # message "weights sum to 0.0", and dim 100 was accepted.
    rng = np.random.default_rng(0)
    cases = [
        (lambda: random_density_matrix(3, rng, rank=0), "^rank must be at least 1, got 0$"),
        (lambda: random_density_matrix(3, rng, rank=4), "^rank must be at most 3, got 4$"),
        (lambda: random_density_matrix(3, rng, rank=2.5), "^rank must be an integer, got 2.5$"),
        (lambda: random_density_matrix(65, rng), "^dimension must be at most 64, got 65$"),
        (lambda: random_standard_state(0, rng), "^dimension must be at least 1, got 0$"),
        (lambda: random_standard_state(100, rng), "^dimension must be at most 64, got 100$"),
        (lambda: random_standard_state(2.0, rng), "^dimension must be an integer, got 2.0$"),
    ]
    for call, message in cases:
        with pytest.raises(BadParameter, match=message):
            call()
    assert np.linalg.matrix_rank(random_density_matrix(3, rng, rank=np.int64(2))) == 2


@pytest.mark.parametrize("helper", [random_density_matrix, random_standard_state])
@pytest.mark.parametrize(
    "rng", [5, None, np.random.RandomState(0), np.random.PCG64(0)], ids=["int", "None", "RandomState", "PCG64"]
)
def test_random_inputs_reject_non_generator_rng(helper, rng):
    # An int or None raised a bare AttributeError on rng.normal, and a
    # legacy RandomState was accepted.
    with pytest.raises(BadParameter, match=f"^rng must be a numpy.random.Generator, got {type(rng).__name__}$"):
        helper(2, rng)


def test_random_standard_state_deterministic():
    a = random_standard_state(4, np.random.default_rng(77))
    b = random_standard_state(4, np.random.default_rng(77))
    assert np.array_equal(a.weights, b.weights)
    assert a.weights.min() >= 0.0
    assert a.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_json_roundtrips():
    state = state_from_dict(
        {
            "dim": 2,
            "sectors": [
                {"n": 0, "amplitudes": [[RT2 / 2, 0.0]]},
                {"n": 1, "amplitudes": [[0.0, RT2 / 2]]},
            ],
        }
    )
    assert isinstance(state, StandardState)
    assert np.allclose(state.weights, [0.5, 0.5])

    flat = state_from_dict({"dim": 3, "weights": [0.2, 0.5, 0.3]})
    assert isinstance(flat, StandardState)

    rng = np.random.default_rng(31)
    rho = random_density_matrix(3, rng)
    blob = json.dumps(density_to_dict(rho))
    back = density_from_dict(json.loads(blob))
    assert np.max(np.abs(back - rho)) == 0.0

    with pytest.raises(InvalidState, match="needs a 'sectors' or 'weights' key"):
        state_from_dict({"dim": 2})


def test_density_to_dict_reads_through_the_matrix_reader():
    rho = random_density_matrix(3, np.random.default_rng(8))
    # The payloads written before the reader, for ndarrays of each dtype and nested lists.
    for given in (rho, rho.real.astype(np.float32), np.eye(2, dtype=int), rho.tolist(), [[0.5, 0], [0, 0.5]]):
        m = np.asarray(given, dtype=np.complex128)
        old = {"dim": int(m.shape[0]), "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in m]}
        assert json.dumps(density_to_dict(given)) == json.dumps(old)
    # A bare ValueError, a matrix written as [[[1.0, 0.0]]] and a bare TypeError before.
    for given, message in [
        ([["a"]], "^matrix entry must be a number, got 'a'$"),
        ([[True]], "^matrix entry must be a number, got True$"),
        (np.zeros(3), r"^expected a square matrix, got shape \(3,\)$"),
    ]:
        with pytest.raises(InvalidDensity, match=message):
            density_to_dict(given)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def is_number(x) -> bool:
    """True for a JSON number: an int or a float, never a bool or a string."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@st.composite
def density_payloads(draw):
    """``density_from_dict`` payloads from 2x2 to 4x4 with up to two NaN or
    infinite parts; before those go in, the matrix is raw, Hermitian, or
    a normalized Gram matrix."""
    dim = draw(st.integers(2, 4))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim * dim, max_size=2 * dim * dim))
    a = np.reshape(parts[: dim * dim], (dim, dim)) + 1j * np.reshape(parts[dim * dim :], (dim, dim))
    form = draw(st.sampled_from(["raw", "hermitian", "density"]))
    if form != "raw":
        a = 0.5 * (a + a.conj().T)
    if form == "density":
        a = a @ a.conj().T
        with np.errstate(all="ignore"):
            a = a / np.trace(a).real
    for _ in range(draw(st.integers(0, 2))):
        part = a.real if draw(st.booleans()) else a.imag
        part[draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] = draw(NON_FINITE)
    return {"dim": dim, "matrix": [[[z.real, z.imag] for z in row] for row in a]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(density_payloads())
@example({"dim": 1, "matrix": [[[10**400, 0.0]]]})  # escaped as a bare OverflowError
# Each of these loaded: a bool dim read as 1, strings and bools as numbers.
@example({"dim": True, "matrix": [[[1.0, 0.0]]]})
@example({"dim": 2, "matrix": [[["0.5", "0"], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]})
@example({"dim": 1, "matrix": [[[True, False]]]})
def test_density_loader_rejects_or_returns_a_density(payload):
    try:
        rho = density_from_dict(payload)
    except InvalidDensity:
        return
    assert type(payload["dim"]) is int
    assert all(is_number(x) for row in payload["matrix"] for entry in row for x in entry)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert np.linalg.eigvalsh(rho).min() >= -1e-10
    assert abs(np.trace(rho).real - 1.0) <= 1e-9
    if rho.shape == (2, 2):
        c = qubit_concurrence(rho)
        assert math.isfinite(c)
        assert 0.0 <= c <= 1.0


# What a malformed payload may hold where a number, an integer or a list belongs.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["n", "dim", "amplitudes"]), st.integers(0, 2), max_size=2),
)


@st.composite
def state_payloads(draw):
    """``state_from_dict`` payloads in the weights or the sectored form.

    Each is drawn well formed and normalized, with one to five sectors and
    up to two amplitudes per sector; then up to two of its fields are
    dropped or replaced by junk."""
    dim = draw(st.integers(1, 5))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim, max_size=2 * dim))
    amps = np.array(parts[:dim]) + 1j * np.array(parts[dim:])
    if np.linalg.norm(amps) > 0.0:
        amps = amps / np.linalg.norm(amps)
    slots = []
    if draw(st.booleans()):
        payload = {"weights": (np.abs(amps) ** 2).tolist()}
        if draw(st.booleans()):
            payload["dim"] = dim
        slots += [(payload["weights"], n) for n in range(dim)]
    else:
        blocks = []
        for n in draw(st.permutations(range(dim))):
            split = draw(st.sampled_from([[amps[n]], [amps[n] * 0.6, amps[n] * 0.8]]))
            pairs = [[z.real, z.imag] for z in split]
            blocks.append({"n": n, "amplitudes": pairs})
            slots += [(blocks[-1], "n"), (blocks[-1], "amplitudes")]
            slots += [(pair, i) for pair in pairs for i in range(2)]
        payload = {"dim": dim, "sectors": blocks}
        slots += [(payload, "sectors")]
    slots += [(payload, key) for key in ("dim", "weights") if key in payload]
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            container.pop(key, None)
        else:
            container[key] = draw(JUNK)
    return payload


@settings(max_examples=300, deadline=None)
@given(state_payloads())
# Each of these escaped as a bare KeyError, TypeError, ValueError,
# OverflowError, MemoryError or (the last) RuntimeWarning, or (the first)
# loaded as dim 2, sector 1.
@example({"dim": 2.9, "sectors": [{"n": 1.7, "amplitudes": [[1.0, 0.0]]}]})
@example({"sectors": [{"n": 0, "amplitudes": [[1.0, 0.0]]}]})
@example({"dim": 1, "sectors": [{"amplitudes": [[1.0, 0.0]]}]})
@example({"dim": 1, "sectors": [{"n": 0, "amplitudes": [["a", 0.0]]}]})
@example({"dim": 1, "sectors": [{"n": 0, "amplitudes": [[10**400, 0.0]]}]})
@example({"dim": 10**12, "sectors": [{"n": 0, "amplitudes": [[1.0, 0.0]]}]})
@example({"weights": ["a", 1.0]})
@example({"weights": [10**400]})
@example({"weights": [1e308, 1e308]})
# Each of these loaded: bools read as dim 1 and sector 1, strings and bools
# as numbers.
@example({"dim": True, "sectors": [{"n": 0, "amplitudes": [[1.0, 0.0]]}]})
@example({"dim": 2, "sectors": [{"n": True, "amplitudes": [[1.0, 0.0]]}]})
@example({"dim": 1, "sectors": [{"n": 0, "amplitudes": [["1", "0"]]}]})
@example({"weights": ["0.5", "0.5"]})
@example({"weights": [True, False]})
# Loaded as weights [1.0]: the repeated sector kept its last block.
@example({"dim": 1, "sectors": [{"n": 0, "amplitudes": [[0.6, 0]]}, {"n": 0, "amplitudes": [[1, 0]]}]})
# Each of these loaded as a dim-2 state: the weights' dim was not read.
@example({"dim": 5, "weights": [0.5, 0.5]})
@example({"dim": "x", "weights": [0.5, 0.5]})
def test_state_loader_rejects_or_returns_a_state(payload):
    try:
        state = state_from_dict(payload)
    except InvalidState:
        return
    if "dim" in payload:
        assert type(payload["dim"]) is int
    if "sectors" in payload:
        for block in payload["sectors"]:
            assert type(block["n"]) is int
            assert all(is_number(x) for pair in block["amplitudes"] for x in pair)
        assert len({block["n"] for block in payload["sectors"]}) == len(payload["sectors"])
    else:
        assert all(is_number(w) for w in payload["weights"])
    assert isinstance(state, StandardState)
    assert state.dim == payload.get("dim", state.dim)
    if "weights" in payload:
        assert state.dim == len(payload["weights"])
    assert np.isfinite(state.weights).all()
    assert state.weights.min() >= 0.0
    assert abs(state.weights.sum() - 1.0) <= 1e-12


@st.composite
def channel_payloads(draw):
    """``channel_from_dict`` payloads: the dictionary form of a random
    channel, then up to two of its fields dropped, replaced by junk or, for
    a sector key, renamed to junk."""
    dim = draw(st.integers(1, 4))
    shifts = draw(st.sampled_from([(0,), (0, 1), (-1, 0, 1)]))
    channel = random_channel(dim, shifts, draw(st.integers(1, 2)), seed=draw(st.integers(0, 3)))
    payload = channel_to_dict(channel)
    slots = [(payload, "dim"), (payload, "outcomes")]
    for group in payload["outcomes"]:
        for entry in group:
            coeffs = entry["coeffs"]
            slots += [(group, 0), (entry, "shift"), (entry, "coeffs")]
            slots += [(coeffs, n) for n in coeffs]
            slots += [(pair, i) for pair in coeffs.values() for i in range(2)]
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and key not in container:
            continue
        action = draw(st.sampled_from(["drop", "junk", "rename"]))
        if action == "drop" and isinstance(container, dict):
            container.pop(key)
        elif action == "rename" and container is not payload and isinstance(container, dict):
            container[draw(st.one_of(st.text(max_size=3), JUNK.filter(lambda j: j.__hash__)))] = container.pop(key)
        else:
            container[key] = draw(JUNK)
    return payload


@settings(max_examples=300, deadline=None)
@given(channel_payloads())
# Each of these escaped as a bare KeyError, TypeError, IndexError or
# ValueError, or loaded with a truncated dim or shift.
@example({})
@example({"dim": 2, "outcomes": "ab"})
@example({"dim": 2, "outcomes": [[{"shift": 0, "coeffs": {"0": [1.0]}}]]})
@example({"dim": 2, "outcomes": [[{"shift": 0, "coeffs": {"x": [1.0, 0.0]}}]]})
@example({"dim": 2.7, "outcomes": [[{"shift": 0, "coeffs": {"0": [1.0, 0.0], "1": [1.0, 0.0]}}]]})
@example({"dim": 2, "outcomes": [[{"shift": 0.5, "coeffs": {"0": [1.0, 0.0], "1": [1.0, 0.0]}}]]})
@example({"dim": 2, "outcomes": [[{"shift": 0, "coeffs": {1.7: [1.0, 0.0]}}]]})
@example({"dim": 65, "outcomes": [[{"shift": 0, "coeffs": {"0": [1.0, 0.0]}}]]})
# Each of these loaded: bools read as dim 1 and shift 0, strings and bools
# as numbers.
@example({"dim": True, "outcomes": [[{"shift": 0, "coeffs": {"0": [1.0, 0.0]}}]]})
@example({"dim": 1, "outcomes": [[{"shift": False, "coeffs": {"0": [1.0, 0.0]}}]]})
@example({"dim": 1, "outcomes": [[{"shift": 0, "coeffs": {"0": ["1", "0"]}}]]})
@example({"dim": 1, "outcomes": [[{"shift": 0, "coeffs": {"0": [True, False]}}]]})
# Each of these loaded: "1_0" as sector 10, and "0" with "00" as one sector.
@example({"dim": 1, "outcomes": [[{"shift": 0, "coeffs": {"0": [1.0, 0.0], "1_0": [0.0, 0.0]}}]]})
@example({"dim": 1, "outcomes": [[{"shift": 0, "coeffs": {"0": [0.5, 0.0], "00": [1.0, 0.0]}}]]})
def test_channel_loader_rejects_or_returns_a_channel(payload):
    try:
        channel = channel_from_dict(payload)
        report = validate_channel(channel)
    except InvalidChannel:
        return
    assert type(payload["dim"]) is int
    for group in payload["outcomes"]:
        for entry in group:
            assert type(entry["shift"]) is int
            assert all(is_number(x) for pair in entry["coeffs"].values() for x in pair)
            assert all(type(n) is int or n == str(int(n)) for n in entry["coeffs"])
            assert len({int(n) for n in entry["coeffs"]}) == len(entry["coeffs"])
    assert type(channel.dim) is int and 1 <= channel.dim == payload["dim"]
    for kraus in channel.all_kraus():
        assert type(kraus.shift) is int
        assert all(type(n) is int and cmath.isfinite(c) for n, c in kraus.coeffs.items())
    assert np.isfinite(report.per_sector_sums).all()
    assert channel_to_dict(channel_from_dict(channel_to_dict(channel))) == channel_to_dict(channel)


def test_kraus_operator_reads_integers_only():
    # Sector 1.7 was stored as 1, and shift 0.5 failed later with an IndexError;
    # the string coefficients were stored as 1j and 1+0j.
    cases = [
        (0, {1.7: 1.0}, r"^sector must be an integer, got 1\.7$"),
        (0.5, {0: 1.0}, r"^shift must be an integer, got 0\.5$"),
        (True, {0: 1.0}, "^shift must be an integer, got True$"),
        (0, {"0": 1.0}, "^sector must be an integer, got '0'$"),
        (0, [1.0], r"^coefficients must map sectors to numbers, got \[1\.0\]$"),
        (0, {0: "1j"}, "^coefficient at sector 0 must be a number, got '1j'$"),
        (0, {0: "1"}, "^coefficient at sector 0 must be a number, got '1'$"),
        (0, {0: True}, "^coefficient at sector 0 must be a number, got True$"),
        (0, {0: 10**400}, r"^coefficient at sector 0 is \(inf\+0j\)$"),
    ]
    for shift, coeffs, message in cases:
        with pytest.raises(InvalidChannel, match=message):
            U1Kraus(shift, coeffs)
    kraus = U1Kraus(np.int64(-1), {np.uint8(1): 1.0})
    assert (type(kraus.shift), list(kraus.coeffs)) == (int, [1])
