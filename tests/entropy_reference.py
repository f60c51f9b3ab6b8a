"""The one-table entropy kernel: the bitwise reference of batch_entropies.

Shared by the tests of probability and optimize. A row of
probability.batch_entropies must equal entropies() of its table alone,
bit for bit. The reference keeps its own index plan, so it does not
share code with the kernel it checks.
"""

import functools
import math

import numpy as np

from coinfo.errors import AxisError
from coinfo.probability import _clamp_measure


@functools.cache
def _plan(shape, groups):
    # the marginals sit end to end in one vector of n_cells entries: copy k
    # of w's cells adds to the cells of marginal k, and owner[j] is the
    # group of entry j
    if not groups:
        raise AxisError("batch_entropies needs at least one group")
    coords = np.indices(shape).reshape(len(shape), -1)
    target, owner = [], []
    n_cells = 0
    for i, g in enumerate(groups):
        if not g or len(set(g)) != len(g) or not all(0 <= a < len(shape) for a in g):
            raise AxisError(f"group {g} is not a nonempty set of axes of shape {shape}")
        sizes = tuple(shape[a] for a in g)
        target.append(n_cells + np.ravel_multi_index(tuple(coords[a] for a in g), sizes))
        owner.append(np.full(math.prod(sizes), i))
        n_cells += math.prod(sizes)
    cells = np.tile(np.arange(coords.shape[1]), len(groups))
    target, owner = np.concatenate(target), np.concatenate(owner)
    for a in (cells, target, owner):
        a.setflags(write=False)  # one plan serves every call with its key
    return cells, target, n_cells, owner


def entropies(w, groups):
    """Entropy in nats of the marginal of w on each group of kept axes.

    w is a dense nonnegative array that sums to 1; groups is a nonempty
    tuple of tuples of distinct axis indices. One bincount over the cells
    of w builds every marginal at once, each marginal cell adding its
    cells in C order, and a second sums their m*log(m) terms, each group's
    in the order of its kept axes. Semantics match entropy_of_array:
    0*log(0) = 0 and each entropy is clamped the same way. Returns a list
    of floats, one per group.
    """
    w = np.asarray(w, dtype=np.float64)
    cells, target, n_cells, owner = _plan(w.shape, groups)
    marg = np.bincount(target, weights=w.ravel()[cells], minlength=n_cells)
    pos = marg > 0.0
    m = marg[pos]
    h = (-np.bincount(owner[pos], weights=m * np.log(m), minlength=len(groups))).tolist()
    if min(h) < 0.0:
        h = [_clamp_measure(v) for v in h]
    return h
