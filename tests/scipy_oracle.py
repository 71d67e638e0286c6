"""Frozen scipy.stats objects: the test oracle for DistributionSpec.

The package evaluates and samples every family with its own kernels, which
repeat scipy.stats' formulas and Generator calls.  The frozen object for the
unshifted base variate, shifted by hand, is the reference those kernels must
equal bit for bit.
"""

from functools import lru_cache

import numpy as np
from scipy import stats


@lru_cache(maxsize=256)
def frozen(spec):
    """scipy frozen distribution for the unshifted base variate of ``spec``."""
    p = dict(spec.params)
    if spec.family == "normal":
        return stats.norm(loc=p["mean"], scale=p["sd"])
    if spec.family == "exponential":
        return stats.expon(scale=1.0 / p["rate"])
    if spec.family == "lognormal":
        return stats.lognorm(s=p["logSd"], scale=np.exp(p["logMean"]))
    if spec.family == "chisquare":
        return stats.chi2(df=p["df"])
    if spec.family == "studentt":
        return stats.t(df=p["df"], loc=p["location"], scale=p["scale"])
    raise AssertionError(spec.family)
