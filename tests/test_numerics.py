import re

import numpy as np
import pytest

from frameness import (
    BadDecomposition,
    BadParameter,
    InvalidDensity,
    MonotoneId,
    convex_roof,
    decomposition_from_map,
    is_hermitian,
    qubit_concurrence,
    validate_density,
)
from frameness.numerics import array, integer, number


def test_predicates():
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_validate_density():
    rho = validate_density(np.diag([0.25, 0.75]))
    assert rho.dtype == np.complex128
    with pytest.raises(InvalidDensity):
        validate_density(np.eye(2))
    with pytest.raises(InvalidDensity):
        validate_density(np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(InvalidDensity):
        validate_density(np.diag([1.5, -0.5]))
    with pytest.raises(InvalidDensity):
        validate_density(np.diag([0.5, 0.5]), dim=3)


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
    "is_hermitian": (lambda: is_hermitian([[True]]), InvalidDensity, "^matrix entry must be a number, got True$"),
    "convex_roof": (lambda: convex_roof(MonotoneId("entropy"), STRINGS), InvalidDensity, "^matrix entry must be a number, got '0.5'$"),
    "decomposition_from_map": (
        lambda: decomposition_from_map(np.eye(2) / 2, [["a", "b"], ["c", "d"]]),
        BadDecomposition,
        "^isometry entry must be a number, got 'a'$",
    ),
    "ragged": (lambda: validate_density([[0.5], [0.0, 0.5]]), InvalidDensity, r"^matrix entry must be a number, got \[0\.5\]$"),
    "overflow": (lambda: validate_density([[10**400]]), InvalidDensity, "^matrix entry out of float range$"),
}


@pytest.mark.parametrize("call, error, message", list(MATRIX_READS.values()), ids=list(MATRIX_READS))
def test_matrix_inputs_are_read_as_numbers(call, error, message):
    with pytest.raises(error, match=message):
        call()
