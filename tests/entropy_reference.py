"""The one-table entropy kernel: the bitwise reference of batch_entropies.

Shared by the tests of probability and optimize. A row of
probability.batch_entropies must equal entropies() of its table alone,
bit for bit.
"""

import numpy as np

from coinfo.probability import _clamp_measure, _entropy_plan


def entropies(w, groups):
    """Entropy in nats of the marginal of w on each group of kept axes.

    w is a dense nonnegative array that sums to 1; groups is a nonempty
    tuple of tuples of distinct axis indices. One bincount over the cells
    of w builds every marginal at once and a second sums their m*log(m)
    terms. Semantics match entropy_of_array: 0*log(0) = 0 and each
    entropy is clamped the same way. Returns a list of floats, one per
    group.
    """
    w = np.asarray(w, dtype=np.float64)
    cells, target, n_cells, owner = _entropy_plan(w.shape, groups)
    marg = np.bincount(target, weights=w.ravel()[cells], minlength=n_cells)
    pos = marg > 0.0
    m = marg[pos]
    h = (-np.bincount(owner[pos], weights=m * np.log(m), minlength=len(groups))).tolist()
    if min(h) < 0.0:
        h = [_clamp_measure(v) for v in h]
    return h
