"""Approval-based committee rules and their robustness to ballot perturbations."""

from . import constructions, core, counting, perturb, radius, rules
from .constructions import *
from .core import *
from .counting import *
from .perturb import *
from .radius import *
from .rules import *

__all__ = []
__all__ += constructions.__all__
__all__ += core.__all__
__all__ += counting.__all__
__all__ += perturb.__all__
__all__ += radius.__all__
__all__ += rules.__all__

__version__ = "0.1.0"
