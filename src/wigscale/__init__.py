"""Phase-space toolkit: uncertainty relations vs. state positivity, and
partial-scaling entanglement detection for multimode Gaussian states.

Conventions: hbar = m = omega = 1; Wigner functions normalized against
dq dp / (2 pi); covariance matrices in (q_1..q_N, p_1..p_N) ordering.
"""

from . import fock_space, gaussian_cv, moments, phase_space
from .fock_space import *
from .gaussian_cv import *
from .moments import *
from .phase_space import *

# each module's __all__ is the one list of its public names
__all__ = [*phase_space.__all__, *moments.__all__, *fock_space.__all__, *gaussian_cv.__all__]

__version__ = "0.1.0"
