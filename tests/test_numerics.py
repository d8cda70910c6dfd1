import re

import numpy as np
import pytest

from frameness import (
    BadDecomposition,
    BadMonotone,
    BadParameter,
    BipartitePureState,
    InvalidChannel,
    InvalidDensity,
    InvalidState,
    MonotoneId,
    RoofConfig,
    U1Channel,
    U1Kraus,
    channel_from_dict,
    convex_roof,
    decomposition_from_map,
    optimal_qubit_decomposition,
    qubit_concurrence,
    qubit_fof,
    random_channel,
    random_density_matrix,
    standard_form,
    state_from_dict,
    twirl,
    validate_density,
)
from frameness.monotones import KINDS
from frameness.numerics import (
    _checked_density,
    _density_spectrum,
    array,
    as_complex_matrix,
    in_order_sum,
    integer,
    number,
    shown,
)


def test_predicates():
    # Hermiticity is checked once, inside the density check.
    validate_density(np.eye(3) / 3)
    with pytest.raises(InvalidDensity, match="^density matrix is not Hermitian$"):
        validate_density(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_validate_density():
    rho = validate_density(np.diag([0.25, 0.75]))
    assert rho.dtype == np.complex128
    with pytest.raises(InvalidDensity):
        validate_density(np.eye(2))
    with pytest.raises(InvalidDensity):
        validate_density(np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(InvalidDensity):
        validate_density(np.diag([1.5, -0.5]))
    with pytest.raises(InvalidDensity, match=r"^expected a 3x3 matrix, got shape \(2, 2\)$"):
        validate_density(np.diag([0.5, 0.5]), dim=3)


def test_validate_density_reads_dim_as_an_integer():
    # "3" raised "expected a 3x3 matrix, got shape (3, 3)"; 3.0 and True were accepted.
    rho = np.eye(3) / 3
    for dim, rule in (("3", "an integer, got '3'"), (3.0, "an integer, got 3.0"), (True, "an integer, got True"),
                      (0, "at least 1, got 0"), (65, "at most 64, got 65")):
        with pytest.raises(BadParameter, match=f"^dimension must be {rule}$"):
            validate_density(rho, dim)
    assert np.array_equal(validate_density(rho, np.int64(3)), rho)


def test_validate_density_rejects_oversize():
    with pytest.raises(InvalidDensity, match="exceeds the cap of 64"):
        validate_density(np.eye(65) / 65)


# (value, integer(value, ..., 0, 64), number(value, ...)); a str is the rule
# the value breaks, as the error message states it.
READER_CASES = {
    "bool": (True, "an integer, got True", "a number, got True"),
    "float": (2.5, "an integer, got 2.5", 2.5),
    "str": ("2", "an integer, got '2'", "a number, got '2'"),
    "bytes": (b"2", "an integer, got b'2'", "a number, got b'2'"),
    "int64": (np.int64(2), 2, np.int64(2)),
    "uint8": (np.uint8(1), 1, np.uint8(1)),
    "below": (-1, "at least 0, got -1", -1),
    "above": (10**6, "at most 64, got 1000000", 10**6),
    "inf": (float("inf"), "an integer, got inf", float("inf")),
    "complex": (1j, "an integer, got 1j", "a real number, got 1j"),
    "complex128": (np.complex128(1), "an integer, got np.complex128(1+0j)", "a real number, got np.complex128(1+0j)"),
}


@pytest.mark.parametrize("value, as_integer, as_number", list(READER_CASES.values()), ids=list(READER_CASES))
def test_integer_and_number_readers(value, as_integer, as_number):
    readers = ((lambda v: integer(v, BadParameter, "x", 0, 64), as_integer), (lambda v: number(v, BadParameter, "x"), as_number))
    for read, expected in readers:
        if isinstance(expected, str):
            with pytest.raises(BadParameter, match=f"^x must be {re.escape(expected)}$"):
                read(value)
        else:
            got = read(value)
            assert got == expected and type(got) is type(expected)


def _loop_sum(a, axis):
    loop = np.zeros(np.delete(a.shape, axis))
    for j in range(a.shape[axis]):
        loop += np.take(a, j, axis=axis)
    return loop


def test_in_order_sum_rounds_as_a_python_loop():
    a = np.random.default_rng(5).uniform(-1.0, 1.0, size=(40, 3, 9)) * np.logspace(0, 8, 9)
    for axis in (-1, 2, 1, 0, -3):
        assert np.array_equal(in_order_sum(a, axis), _loop_sum(a, axis))
    # numpy adds the 9 entries of a last-axis row pairwise, which rounds otherwise.
    assert not np.array_equal(a.sum(axis=-1), in_order_sum(a, -1))
    assert in_order_sum(np.zeros((2, 0)), 1).tolist() == [0.0, 0.0]
    # Every length on both sides of numpy's 8-term block, on every axis of
    # contiguous arrays and transposed views, with -0.0 entries and slices of
    # -0.0 only, whose loop sum is +0.0: bit for bit, signs of zero included.
    rng = np.random.default_rng(6)
    for n in range(10):
        for axis in range(3):
            shape = [4, 3, 5]
            shape[axis] = n
            b = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            b[rng.random(shape) < 0.3] = -0.0
            b[:1] = b[..., :1] = -0.0
            for view in (b, b.T):
                for ax in range(3):
                    assert in_order_sum(view, ax).tobytes() == _loop_sum(view, ax).tobytes(), (n, axis, ax)


def test_array_reader_converts_numeric_arrays_whole():
    complex_matrix = np.eye(2, dtype=np.complex128)
    assert array(complex_matrix, BadParameter, "x", real=False) is complex_matrix
    small = array(np.array([[1, 2]], dtype=np.int8), BadParameter, "x")
    assert small.dtype == np.float64 and small.tolist() == [[1.0, 2.0]]
    # Object arrays and nested lists are read entry by entry.
    assert array(np.array([0.5, 1], dtype=object), BadParameter, "x").tolist() == [0.5, 1.0]
    assert array([[1j, 2], [3, 4.5]], BadParameter, "x", real=False).tolist() == [[1j, 2], [3, 4.5]]
    with pytest.raises(BadParameter, match=r"^x must be a real number, got \(1\+0j\)$"):
        array(complex_matrix, BadParameter, "x")


STRINGS = [["0.5", "0"], ["0", "0.5"]]
# (call, error class, message): every matrix a library call takes is read
# through numerics.array. Before, the strings and the ragged rows raised a
# bare ValueError or were read as numbers (the concurrence was 0.0 and the
# roof ran), the bool matrix counted as Hermitian and the overflow raised a
# bare OverflowError.
MATRIX_READS = {
    "validate_density": (lambda: validate_density([["a"]]), InvalidDensity, "^matrix entry must be a number, got 'a'$"),
    "qubit_concurrence": (lambda: qubit_concurrence(STRINGS), InvalidDensity, "^matrix entry must be a number, got '0.5'$"),
    "bool": (lambda: validate_density([[True]]), InvalidDensity, "^matrix entry must be a number, got True$"),
    "convex_roof": (lambda: convex_roof(MonotoneId("entropy"), STRINGS), InvalidDensity, "^matrix entry must be a number, got '0.5'$"),
    "decomposition_from_map": (
        lambda: decomposition_from_map(np.eye(2) / 2, [["a", "b"], ["c", "d"]]),
        BadDecomposition,
        "^isometry entry must be a number, got 'a'$",
    ),
    "ragged": (lambda: validate_density([[0.5], [0.0, 0.5]]), InvalidDensity, r"^matrix entry must be a number, got \[0\.5\]$"),
    "overflow": (lambda: validate_density([[10**400]]), InvalidDensity, "^matrix entry out of float range$"),
    "empty": (lambda: as_complex_matrix(np.zeros((0, 0))), InvalidDensity, "^empty matrix$"),
}


@pytest.mark.parametrize("call, error, message", list(MATRIX_READS.values()), ids=list(MATRIX_READS))
def test_matrix_inputs_are_read_as_numbers(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.fixture
def eigh_calls(monkeypatch):
    """The arguments of every ``np.linalg.eigh`` call, from an empty density memo on."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    _density_spectrum.cache_clear()
    return calls


def test_qubit_closed_forms_of_one_density_share_one_eigh(eigh_calls):
    rho = random_density_matrix(2, np.random.default_rng(4))
    qubit_concurrence(rho)
    qubit_fof(rho.tolist())
    optimal_qubit_decomposition(rho.copy())
    assert len(eigh_calls) == 1


def test_density_edited_in_place_is_checked_again(eigh_calls):
    rho = random_density_matrix(3, np.random.default_rng(6))
    entry = rho[0, 1]
    validate_density(rho)
    rho[0, 1] += 0.1
    with pytest.raises(InvalidDensity, match="^density matrix is not Hermitian$"):
        validate_density(rho)
    # The rejected matrix was not kept, so the restored one is still a hit.
    rho[0, 1] = entry
    validate_density(rho)
    assert len(eigh_calls) == 1


def test_rejected_density_raises_on_every_call(eigh_calls):
    rho = np.diag([1.5, -0.5])
    for _ in range(3):
        with pytest.raises(InvalidDensity, match="^density matrix has eigenvalue -5.000e-01$"):
            validate_density(rho)
    assert len(eigh_calls) == 3


def test_wrong_size_qubit_keeps_the_memo(eigh_calls):
    # The qubit closed forms check the 2x2 size before the spectrum: the
    # rejected matrix costs no eigh and the checked qubit stays memoized.
    rho = random_density_matrix(2, np.random.default_rng(9))
    value = qubit_concurrence(rho)
    with pytest.raises(InvalidDensity, match=r"^expected a 2x2 matrix, got shape \(3, 3\)$"):
        qubit_concurrence(np.eye(3) / 3)
    assert qubit_concurrence(rho) == value
    info = _density_spectrum.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert len(eigh_calls) == 1


def test_memoized_eigenpairs_reject_writes(eigh_calls):
    rho = random_density_matrix(3, np.random.default_rng(8))
    _, w, v = _checked_density(rho)
    _, w2, v2 = _checked_density(rho)
    assert w2 is w and v2 is v
    for a in (w, v):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert _density_spectrum.cache_info().maxsize == 1


def _ensemble_bytes(ensemble):
    return [(np.float64(p).tobytes(), vec.tobytes()) for p, vec in ensemble.members]


def _roof_bytes(measure, rho):
    res = convex_roof(measure, rho, RoofConfig(restarts=2, max_iters=20))
    head = (np.float64(res.value).tobytes(), res.converged, res.iterations_used, res.gapped_support)
    return head, _ensemble_bytes(res.ensemble)


def test_memo_hits_return_the_bytes_of_a_fresh_check():
    for i in range(200):
        d = 2 + i % 7
        rho = random_density_matrix(d, np.random.default_rng([12, i]), rank=1 + i % d)
        kind = KINDS[i % len(KINDS)]
        measure = MonotoneId(kind, 2) if kind in ("vidal", "concurrence") else MonotoneId(kind)
        outputs = [lambda: _roof_bytes(measure, rho)]
        if d == 2:
            outputs += [
                lambda: np.float64(qubit_concurrence(rho)).tobytes(),
                lambda: np.float64(qubit_fof(rho)).tobytes(),
                lambda: _ensemble_bytes(optimal_qubit_decomposition(rho)),
            ]
        for output in outputs:
            _density_spectrum.cache_clear()
            fresh = output()
            hits = _density_spectrum.cache_info().hits
            assert output() == fresh
            assert _density_spectrum.cache_info().hits > hits


LONG = "x" * 100000
HUGE = 10**5000  # past Python's limit on the digits of an int turned into text


def test_shown_bounds_every_echo():
    assert shown("a,b") == "'a,b'" and shown([[1]]) == "[[1]]" and shown(2**64 - 1) == str(2**64 - 1)
    assert shown(LONG) == "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"
    assert shown(HUGE) == "<int of 16610 bits>"
    assert shown(10**50) == "1" + "0" * 17 + "..." + "0" * 19
    assert shown([10**50] * 3, maxlong=12) == "[1000...00000, 1000...00000, 1000...00000]"
    nested = [[[[[[LONG] * 6] * 6] * 6] * 6] * 6] * 6
    assert len(shown(nested)) == 100 and shown(nested)[48:51] == "..."


# Each echoed its whole value: a message as long as the value, or, for an int past
# the digit limit, a bare ValueError raised while the message was built.
LONG_VALUE_CASES = {
    "integer": (lambda: integer(HUGE, BadParameter, "dimension", 1, 64), BadParameter,
                "dimension must be at most 64, got <int of 16610 bits>"),
    "integer-text": (lambda: integer(LONG, BadParameter, "dimension", 1, 64), BadParameter,
                     "dimension must be an integer, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    "number": (lambda: number(LONG, BadParameter, "p"), BadParameter, "p must be a number, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    "random_channel": (lambda: random_channel(3, [HUGE]), InvalidChannel,
                       "sector 0 admits no shift from [<int of 16610 bits>] (1 in all); a trace-preserving channel needs one"),
    "U1Kraus": (lambda: U1Kraus(0, [LONG]), InvalidChannel,
                "coefficients must map sectors to numbers, got ['xxxxxxxxxxxx...xxxxxxxxxxxxx']"),
    "U1Kraus.row": (lambda: U1Kraus(HUGE, {0: 1.0}).row(2), InvalidChannel,
                    "coefficient at sector 0 with shift <int of 16610 bits> maps outside 0..1"),
    "U1Channel": (lambda: U1Channel(HUGE, 2), InvalidChannel,
                  "outcomes must be groups of U1Kraus operators, got <int of 16610 bits>"),
    "U1Channel-member": (lambda: U1Channel([[LONG]], 2), InvalidChannel,
                         "outcome group member 'xxxxxxxxxxxx...xxxxxxxxxxxxx' is not a U1Kraus"),
    "BipartitePureState": (lambda: BipartitePureState([LONG], 0, 1), InvalidState,
                           "amplitudes must map (n, r) pairs to numbers, got ['xxxxxxxxxxxx...xxxxxxxxxxxxx']"),
    "BipartitePureState-key": (lambda: BipartitePureState({(LONG,): 1.0}, 0, 1), InvalidState,
                               "amplitude key ('xxxxxxxxxxxx...xxxxxxxxxxxxx',) is not a pair (n, r)"),
    "BipartitePureState-total": (lambda: BipartitePureState({(0, HUGE): 1.0}, 0, 1), InvalidState,
                                 "amplitude key (0, <int of 16610 bits>) has total charge <int of 16610 bits>, not 0"),
    "standard_form": (lambda: standard_form(LONG, 2), InvalidState,
                      "sectors must map labels to amplitudes, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    "twirl": (lambda: twirl(np.eye(2) / 2, [LONG, 0]), BadParameter,
              "sector label must be an integer, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    "_sector_coeffs": (lambda: channel_from_dict({"dim": 1, "outcomes": [[{"shift": 0, "coeffs": {LONG: [1, 0]}}]]}),
                       InvalidChannel, "sector key 'xxxxxxxxxxxx...xxxxxxxxxxxxx' is not an integer as str(n) writes it"),
    "_sector_coeffs-twice": (lambda: channel_from_dict({"dim": 1, "outcomes": [[{"shift": 0, "coeffs": {"1" * 4000: [1, 0], int("1" * 4000): [1, 0]}}]]}),
                             InvalidChannel, "sector 111111111111111111...1111111111111111111 is given twice"),
    "_complex_from_pair": (lambda: state_from_dict({"dim": 1, "sectors": [{"n": 0, "amplitudes": [[LONG, 0]]}]}), InvalidState,
                           "entry ['xxxxxxxxxxxx...xxxxxxxxxxxxx', 0] is not a [re, im] pair of numbers"),
    "state_from_dict-dim": (lambda: state_from_dict({"dim": HUGE, "weights": [1.0]}), InvalidState,
                            "dimension <int of 16610 bits> does not match the 1 weights"),
    "MonotoneId": (lambda: MonotoneId(LONG), BadMonotone, "unknown monotone kind 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
}


@pytest.mark.parametrize("case", LONG_VALUE_CASES)
def test_long_values_are_shortened_in_typed_errors(case):
    call, error, message = LONG_VALUE_CASES[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message and len(message) < 200
