"""Self-contained numerical kernels: linear algebra on small complex
systems, adaptive integration of linear systems dy/dt = (G0 + c(t) G1) y
with the 8th-order Dormand-Prince pair, batched as step matrices, a
principal-value Kramers-Kronig transform, and a bounded Nelder-Mead
simplex search run from many starts in lockstep."""

from .linalg import SingularMatrix, NotConverged, DefectiveMatrix, solve_linear, eig
from .ode import StepStats, Trajectory, StepUnderflow, MaxStepsExceeded, integrate
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
    "StepUnderflow",
    "MaxStepsExceeded",
    "integrate",
    "GridTooCoarse",
    "kramers_kronig_real",
    "nelder_mead",
]
