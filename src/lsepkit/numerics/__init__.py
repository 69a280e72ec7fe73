"""Self-contained numerical kernels: linear algebra on small complex
systems, propagation of periodically driven linear systems
dy/dt = (G0 + Omega cos(w t) G1) y one drive period at a time with
fourth-order Magnus steps, a principal-value Kramers-Kronig transform,
a bounded Nelder-Mead simplex search run from many starts in lockstep,
and sample axes."""

import math

import numpy as np

from .linalg import SingularMatrix, NotConverged, DefectiveMatrix, solve_linear, eig
from .periodic import StepStats, Trajectory, integrate
from .kk import GridTooCoarse, kramers_kronig_real
from .simplex import nelder_mead

__all__ = [
    "SingularMatrix",
    "NotConverged",
    "DefectiveMatrix",
    "solve_linear",
    "eig",
    "StepStats",
    "Trajectory",
    "integrate",
    "GridTooCoarse",
    "kramers_kronig_real",
    "nelder_mead",
    "axis",
]


def axis(lo, hi, step, origin=None) -> np.ndarray:
    """The samples origin + i step (origin defaults to lo) that lie in [lo, hi].

    A span within a millionth of a step of a whole number of steps keeps
    its end sample, moved onto the end: no sample lies outside [lo, hi].
    """
    origin = lo if origin is None else origin
    first = math.ceil((lo - origin) / step - 1e-6)
    last = math.floor((hi - origin) / step + 1e-6)
    return np.clip(origin + step * np.arange(first, last + 1), lo, hi)
