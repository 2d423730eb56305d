"""The reference the batched bootstraps of :mod:`funcavg.regression` must
reproduce: a percentile interval over a refit on every row resample."""

import numpy as np

from funcavg.errors import check_alpha, check_count
from funcavg.regression import _kept_values, _refit_interval


def percentile_over_refits(dataset, rng, replicates, alpha, point_fn):
    """Percentile interval of ``point_fn`` refit on every bootstrap row
    resample, the replicates it raises a package error on dropped.

    The point is fitted on the dataset as given: a row copy makes strided
    CSV columns contiguous, and that can move a fit in the last bits.
    """
    alpha = check_alpha(alpha)
    b = check_count(replicates, "replicates", 2)
    point = point_fn(dataset)
    kept = _kept_values(dataset, rng, b, point_fn,
                        lambda idx: np.full(len(idx), np.nan))
    return _refit_interval(point, kept, b, alpha)
