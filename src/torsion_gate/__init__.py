"""Exact re-verification of cyclic torsion exclusions for elliptic curves.

The engine decides, in exact integer arithmetic, whether Z/NZ can occur
inside the torsion of an elliptic curve over a degree-d number field, for
the levels its two certification routes cover: a Kamienny-style
independence criterion on Hecke translates of the winding symbol in the
Manin presentation of H_1(X_0(N), cusps; Z), and a finite-field reduction
argument driven by Waterhouse's classification of Frobenius traces.

The package re-exports the ``__all__`` of each engine module; ``cli``,
the command-line front end, stays out.
"""

from . import exactmath, gate, hecke, maninspace, redux
from .exactmath import *  # noqa: F401,F403
from .gate import *  # noqa: F401,F403
from .hecke import *  # noqa: F401,F403
from .maninspace import *  # noqa: F401,F403
from .redux import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = exactmath.__all__ + gate.__all__ + hecke.__all__ + maninspace.__all__ + redux.__all__
