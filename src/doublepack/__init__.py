"""Double circle packings of planar maps and the discrete-to-continuum
correspondence for harmonic functions of finite Dirichlet energy.

The package exports each library module's ``__all__``; the command line
(``cli``) and the helpers it shares with the library (``linalg``,
``textio``) stay in their modules."""

from . import continuum, errors, maps, packing, potential, render, tilings, transfer
from .continuum import *
from .errors import *
from .maps import *
from .packing import *
from .potential import *
from .render import *
from .tilings import *
from .transfer import *

__all__ = sorted(name for module in (continuum, errors, maps, packing, potential,
                                     render, tilings, transfer)
                 for name in module.__all__)
__version__ = "0.1.0"
