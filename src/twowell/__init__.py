"""Multi-state two-well boson models: exact diagonalization, integrable
structure verification, and Bethe-ansatz solutions."""

from . import bethe, fock, model, yangbaxter
from .bethe import *
from .fock import *
from .model import *
from .yangbaxter import *

__version__ = "0.1.0"

__all__ = bethe.__all__ + fock.__all__ + model.__all__ + yangbaxter.__all__
