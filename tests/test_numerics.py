import numpy as np
import pytest

from frameness import InvalidDensity, is_hermitian, validate_density


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
