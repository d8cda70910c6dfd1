import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frameness import (
    InvalidDensity,
    NonHermitianInput,
    NotPositive,
    hermitian_eig,
    is_hermitian,
    is_psd,
    product_eig_sqrt,
    psd_sqrt,
    validate_density,
)

finite = st.floats(-1.0, 1.0, allow_nan=False)


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_psd(dim, rng, rank=None):
    r = rank or dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    return g @ g.conj().T


def test_hermitian_eig_diagonal_descending():
    w, v = hermitian_eig(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(w, [3.0, 2.0, 1.0])
    # eigenvector columns line up with the sorted eigenvalues
    assert abs(v[2, 0]) == pytest.approx(1.0)
    assert abs(v[0, 2]) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, (2, 4, 4), elements=finite))
def test_hermitian_eig_reconstructs(parts):
    h = parts[0] + 1j * parts[1]
    h = 0.5 * (h + h.conj().T)
    w, v = hermitian_eig(h)
    assert np.all(np.diff(w) <= 1e-12)
    assert np.max(np.abs((v * w) @ v.conj().T - h)) < 1e-10


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_rejects_oversize():
    with pytest.raises(ValueError):
        hermitian_eig(np.eye(65))


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_psd(5, rng)
        b = psd_sqrt(a)
        assert np.max(np.abs(b @ b - a)) < 1e-10
        assert np.max(np.abs(b - b.conj().T)) < 1e-12


def test_psd_sqrt_clamps_slightly_negative():
    a = np.diag([1.0, -1e-11])
    b = psd_sqrt(a)
    assert b[1, 1] == 0.0


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPositive):
        psd_sqrt(np.diag([1.0, -1e-3]))


def test_product_eig_sqrt_diagonal():
    out = product_eig_sqrt(np.diag([1.0, 4.0]), np.eye(2))
    assert np.allclose(out, [2.0, 1.0])


def test_product_eig_sqrt_matches_direct_route():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = random_psd(4, rng)
        b = random_psd(4, rng)
        fast = product_eig_sqrt(a, b)
        ra = psd_sqrt(a)
        direct, _ = hermitian_eig(psd_sqrt(ra @ b @ ra))
        assert np.max(np.abs(fast - direct)) < 1e-8


def test_product_eig_sqrt_rejects_nonpsd():
    with pytest.raises(NotPositive):
        product_eig_sqrt(np.diag([1.0, -1.0]), np.eye(2))


def test_predicates():
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_psd(np.diag([0.5, 0.5]))
    assert not is_psd(np.diag([1.0, -1.0]))


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
