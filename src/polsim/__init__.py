"""Coherent polariton switching in an interacting stationary-light medium.

Simulation library for a single stored excitation acting as a mirror for a
propagating probe photon: polariton band structures, two-mode scattering
spectra, stored-excitation decoherence, and operational fidelities, plus a
batch CLI that writes CSV/JSON artifacts.

Each library module's ``__all__`` is the one list of its public names; the
package re-exports all of them.
"""

from . import (
    core_model,
    errors,
    fidelity,
    polariton_spectrum,
    propagation,
    spinwave,
    susceptibility,
)
from .core_model import *  # noqa: F403
from .errors import *  # noqa: F403
from .fidelity import *  # noqa: F403
from .polariton_spectrum import *  # noqa: F403
from .propagation import *  # noqa: F403
from .spinwave import *  # noqa: F403
from .susceptibility import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += core_model.__all__
__all__ += susceptibility.__all__
__all__ += polariton_spectrum.__all__
__all__ += propagation.__all__
__all__ += spinwave.__all__
__all__ += fidelity.__all__
__all__ += errors.__all__
