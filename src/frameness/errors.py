"""Exception types shared across the package.

Every validation failure raises a subclass of :class:`FramenessError`, which
itself subclasses ``ValueError`` so callers may catch either level.
"""

from __future__ import annotations


class FramenessError(ValueError):
    """Base class for all validation errors raised by this package."""


class InvalidDensity(FramenessError):
    """Matrix is not Hermitian, positive semidefinite, and unit trace."""


class NotNormalized(FramenessError):
    """State vector or weight vector does not have unit norm."""


class LengthMismatch(FramenessError):
    """Sequences cannot be brought to a common length."""


class NotProbabilityVector(FramenessError):
    """Entries are negative or do not sum to one."""


class OvercompleteChannel(FramenessError):
    """Kraus coefficients exceed completeness on some sector."""


class NotTracePreserving(FramenessError):
    """Kraus coefficients fall short of completeness on some sector."""


class ShiftOutOfRange(FramenessError):
    """Nonzero Kraus coefficient maps outside the ambient window."""


class EmptyShiftSet(FramenessError):
    """Channel sampling has no Kraus operator for some sector.

    No shift was given, ``kraus_per_shift`` is below 1, or no given shift
    maps some sector inside the ambient window.
    """


class MixedOutcomeGroup(FramenessError):
    """Pure-state channel application hit a multi-Kraus outcome group."""


class UnknownMonotone(FramenessError):
    """Monotone kind outside the known kinds."""


class BadK(FramenessError):
    """Monotone order k outside the admissible range."""


class WrongDimension(FramenessError):
    """Operation defined only for a specific matrix dimension."""


class BadProbability(FramenessError):
    """Probability parameter outside [0, 1]."""


class BadAngle(FramenessError):
    """Angle parameter is NaN or infinite."""


class BadRoofConfig(FramenessError):
    """Roof search budget or seed outside its admissible range."""


class BadSeed(FramenessError):
    """Random seed or trial index is negative."""


class BadTrialCount(FramenessError):
    """Verification asked for fewer than one trial."""


class NotIsometry(FramenessError):
    """Matrix columns are not orthonormal."""


class RankMismatch(FramenessError):
    """Decomposition size incompatible with the state's rank."""


class NonFiniteCoefficient(FramenessError):
    """Kraus coefficient is NaN or infinite."""
