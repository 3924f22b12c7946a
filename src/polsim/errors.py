"""Exception types shared across the package.

Numerical routines raise these instead of returning sentinel values, so the
batch runner can map failure classes onto exit codes without string matching.
"""

__all__ = [
    "PolsimError",
    "SingularFrequencyError",
    "SusceptibilityPoleError",
    "QuadratureError",
    "IllConditionedError",
    "FitWindowError",
    "GridError",
    "SchemaError",
    "FitWindowWarning",
    "PositivityWarning",
]


class PolsimError(Exception):
    """Base class for domain and numerical failures in polsim."""


class SingularFrequencyError(PolsimError):
    """Raised where a formula or solver is singular at the requested detuning."""


class SusceptibilityPoleError(PolsimError):
    """Raised when the susceptibility denominator vanishes.

    Carries the offending (dz, omega) pair so sweep drivers can report the
    exact grid point that hit the pole.
    """

    def __init__(self, dz, omega):
        self.dz = dz
        self.omega = omega
        super().__init__(f"susceptibility denominator vanished at dz={dz!r}, omega={omega!r}")


class QuadratureError(PolsimError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        self.achieved = achieved
        super().__init__(message)


class IllConditionedError(PolsimError):
    """Boundary solve hit a vanishing pivot or a non-finite coefficient."""


class FitWindowError(PolsimError):
    """Not enough usable samples inside the requested fit window."""


class GridError(PolsimError):
    """Invalid or mismatched numerical grid."""


class SchemaError(PolsimError):
    """Experiment configuration violates the strict schema."""


class FitWindowWarning(UserWarning):
    """Fit residual indicates the window is too wide for the model."""


class PositivityWarning(UserWarning):
    """Density matrix left the PSD cone beyond discretization slack."""
