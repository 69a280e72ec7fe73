"""Self-contained numerical kernels: linear algebra on small complex
systems, propagation of periodically driven linear systems
dy/dt = (G0 + Omega cos(w t) G1) y one drive period at a time with
fourth-order Magnus steps, a principal-value Kramers-Kronig transform,
a bounded Nelder-Mead simplex search run from many starts in lockstep,
and sample axes with the check of sample times."""

from .axes import axis, checked_times
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
    "checked_times",
]
