"""Sample axes: the one rule that lays them, and the one check of the
time samples a propagation records."""

import math

import numpy as np

from .. import check, positive


def axis(lo, hi, step, origin=None) -> np.ndarray:
    """The samples origin + i step (origin defaults to lo) that lie in [lo, hi].

    A span within a millionth of a step of a whole number of steps keeps
    its end sample, moved onto the end: no sample lies outside [lo, hi].
    """
    check(lo, np.isfinite, "lo must be finite")
    check(hi, np.isfinite, "hi must be finite")
    check(step, positive, "step must be finite and > 0")
    origin = lo if origin is None else origin
    check(origin, np.isfinite, "origin must be finite")
    first = math.ceil((lo - origin) / step - 1e-6)
    last = math.floor((hi - origin) / step + 1e-6)
    return np.clip(origin + step * np.arange(first, last + 1), lo, hi)


def checked_times(sample_times) -> np.ndarray:
    """``sample_times`` as a float array, rejected unless it is a non-empty,
    finite, strictly increasing 1-d axis that starts at or after t = 0."""
    times = np.asarray(sample_times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times))
            or np.any(np.diff(times) <= 0.0) or times[0] < 0.0):
        raise ValueError("sample_times must be a non-empty 1-d axis, finite, "
                         "strictly increasing and >= 0")
    return times
