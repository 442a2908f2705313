"""Exception hierarchy shared by all modules.

Every exception carries an ``exit_code`` so the CLI can map error families
to distinct process exit statuses: validation errors exit 2, infeasible
problems exit 3, numerical failures exit 4, resource guards exit 5.
"""

from __future__ import annotations


class MaxentError(Exception):
    """Base class for all package errors."""

    exit_code = 1


# ---------------------------------------------------------------------------
# Validation family (exit 2): malformed or inconsistent inputs.
# ---------------------------------------------------------------------------
class ValidationError(MaxentError):
    exit_code = 2


class AlphabetMismatch(ValidationError):
    """Two objects that must share an alphabet do not."""


class UnsupportedGenerator(ValidationError):
    """Divergence generator tag outside the supported set."""


class UnsupportedLoss(ValidationError):
    """Loss-function tag outside the supported set."""


class ConfigInvalid(ValidationError):
    """Experiment configuration failed schema or semantic validation."""


# ---------------------------------------------------------------------------
# Infeasibility family (exit 3): well-formed inputs, unsatisfiable problem.
# ---------------------------------------------------------------------------
class InfeasibleError(MaxentError):
    exit_code = 3


class AbsoluteContinuityViolation(InfeasibleError):
    """p puts mass where q has none, so KL(p || q) is infinite."""


class InfeasibleConstraint(InfeasibleError):
    """Moment target outside the attainable range of the potential."""


class DegeneratePotential(InfeasibleError):
    """Potential is constant on the support, but a different mean was asked."""


class EmptyEvent(InfeasibleError):
    """No type class satisfies the constraint at this sample size."""


class EmptyFeasibleSet(InfeasibleError):
    """No model-grid point satisfies the expected-loss window."""


# ---------------------------------------------------------------------------
# Numerical family (exit 4): the method itself failed to deliver.
# ---------------------------------------------------------------------------
class NumericalError(MaxentError):
    exit_code = 4


class NonConvergence(NumericalError):
    """Iterative solver hit its cap; carries the final residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# Resource family (exit 5): guards against blow-ups.
# ---------------------------------------------------------------------------
class ResourceError(MaxentError):
    exit_code = 5


class TableTooLarge(ResourceError):
    """An exact law or the model grid would sum more terms than the table cap."""
