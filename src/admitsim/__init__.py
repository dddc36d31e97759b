"""Simulation and analytic solvers for admission markets with noisy signals.

Each public name is declared once, in its module's ``__all__``; the package
re-exports them all.
"""

from . import analytics, fixed_point, market, matching, stable_partners
from .analytics import *  # noqa: F403
from .fixed_point import *  # noqa: F403
from .market import *  # noqa: F403
from .matching import *  # noqa: F403
from .stable_partners import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *analytics.__all__,
    *fixed_point.__all__,
    *market.__all__,
    *matching.__all__,
    *stable_partners.__all__,
]
