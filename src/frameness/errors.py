"""Exception types shared across the package.

Every validation failure raises a :class:`FramenessError`, which itself
subclasses ``ValueError`` so callers may catch either level. Each subclass
names the kind of argument that was wrong; the message says what was wrong
with it.
"""

from __future__ import annotations


class FramenessError(ValueError):
    """Base class for all validation errors raised by this package."""


class InvalidDensity(FramenessError):
    """Density matrix or its dictionary: malformed, of the wrong dimension,
    or not Hermitian, positive semidefinite and of unit trace."""


class InvalidState(FramenessError):
    """Pure state, weight or probability vector, ensemble or state dictionary:
    malformed, not normalized, or of mismatched length."""


class InvalidChannel(FramenessError):
    """Kraus operators or shift set: a non-finite or out-of-window
    coefficient, an overcomplete or non-trace-preserving channel, a shift set
    that leaves a sector without an operator, or a multi-Kraus outcome group
    where singletons are needed."""


class BadMonotone(FramenessError):
    """Monotone kind outside the known kinds, or order k outside its range."""


class BadDecomposition(FramenessError):
    """Decomposition map that is not an isometry, or whose size does not fit
    the state's rank."""


class BadParameter(FramenessError):
    """Scalar argument outside its range: a probability, an angle, a roof
    budget, a seed or trial index, a trial count, a dimension or a rank."""
