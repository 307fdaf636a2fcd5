"""Quantum statistical force on the partition of a divided 1-D box.

Two half wells share a partition whose two faces impose different boundary
conditions (Neumann on one side, Dirichlet on the other), which shifts the
two spectra against each other. With N ideal bosons held at temperature t
in each half, the package computes the exact net force on the partition,
its closed-form approximations in four temperature regimes, and CSV
temperature sweeps via the ``boxforce`` command line tool.
"""

from . import approx, cli, force, occupancy, spectrum
from .approx import *  # noqa: F403
from .cli import *  # noqa: F403
from .force import *  # noqa: F403
from .occupancy import *  # noqa: F403
from .spectrum import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one declaration of its public names
__all__ = [
    "__version__",
    *spectrum.__all__,
    *occupancy.__all__,
    *force.__all__,
    *approx.__all__,
    *cli.__all__,
]
