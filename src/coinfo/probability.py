"""Discrete probability containers and exact information measures.

Everything is measured in nats; presentation layers divide by log(2) if
they want bits. Tensors are dense and addressed by axis label, never by
position, so a transposed input cannot silently change a result.

Conventions: 0*log(0) = 0 and p*log(p/0) = +inf.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AxisError,
    DomainError,
    NormalizationError,
    SizeError,
)

LOG2 = math.log(2.0)

# input tolerance: renormalize below, hard error above
_NORM_TOL = 1e-9
# entries this far below zero are treated as float noise and clipped
_NEG_TOL = 1e-12
# dense tensors only; joints larger than this are out of scope
_MAX_CELLS = 10**7


@dataclass(frozen=True)
class Alphabet:
    """A finite alphabet with a short label such as "x" or "u"."""

    size: int
    label: str

    def __post_init__(self):
        if not _is_int(self.size) or self.size < 1:
            raise DomainError(f"alphabet size must be a positive integer, got {self.size!r}")
        if not self.label:
            raise AxisError("alphabet label must be a nonempty string")


class JointPmf:
    """Dense joint pmf over an ordered tuple of labeled alphabets.

    The mass tensor is validated (nonnegative, total within 1e-9 of 1),
    renormalized to sum to 1, and frozen. Axes are addressed by label,
    through a label -> index dict, so a lookup costs one dict access.
    Each marginal entropy the information measures need is computed once
    per joint and remembered, keyed by the frozenset of its labels (labels
    are unique per joint), so repeated measures on one joint reuse it.
    """

    __slots__ = ("axes", "mass", "_index", "_entropies")

    def __init__(self, axes, mass):
        axes = tuple(axes)
        if not axes:
            raise AxisError("a JointPmf needs at least one axis")
        index = {a.label: i for i, a in enumerate(axes)}
        if len(index) != len(axes):
            raise AxisError(f"duplicate axis labels: {[a.label for a in axes]}")
        mass = np.array(mass, dtype=np.float64)
        shape = tuple([a.size for a in axes])
        if mass.shape != shape:
            raise AxisError(f"mass shape {mass.shape} does not match axes {shape}")
        _check_cells(mass.size, "joint has")
        mass = _normalized(mass)
        mass.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "_index", index)
        # entropy of each marginal, keyed by the frozenset of its labels;
        # filled on first use by the information measures below
        object.__setattr__(self, "_entropies", {})

    def __setattr__(self, name, value):
        raise AttributeError("JointPmf is immutable")

    @property
    def labels(self):
        return tuple(a.label for a in self.axes)

    def axis_index(self, label):
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise AxisError(f"no axis labeled {label!r}; have {self.labels}") from None

    def alphabet(self, label):
        return self.axes[self.axis_index(label)]

    def __repr__(self):
        return f"JointPmf(labels={self.labels}, shape={self.mass.shape})"


def _check_cells(cells, what):
    # the dense-size cap of JointPmf, source files and the dsbs-surface grid
    if cells > _MAX_CELLS:
        raise SizeError(f"{what} {cells} cells, cap is {_MAX_CELLS}")


def _normalized(mass, axis=None):
    """JointPmf's mass rule, applied to every sum of mass over `axis`.

    Mass below -1e-12 raises DomainError and smaller negative noise is
    clipped to 0; a total more than 1e-9 away from 1 raises
    NormalizationError; each part whose total is not exactly 1.0 is
    divided by that total. JointPmf and compose_markov's mixing weights
    sum the whole array (axis None); Channel and regions.Decoder sum each
    row and the code oracle each table of a block, so all share one rule.
    """
    lo = float(np.minimum.reduce(mass, axis=None))
    if lo < -_NEG_TOL:
        raise DomainError(f"negative probability mass {lo}")
    if lo < 0.0:
        mass = np.maximum(mass, 0.0)
    if axis is None:
        # the same rule on a Python float: keepdims does not change the
        # order of the reduction, so the total and the quotient are the
        # same bits as the array form's, at a fraction of its calls
        total = float(np.add.reduce(mass, axis=None))
        if not abs(total - 1.0) <= _NORM_TOL:  # also true for nan and inf
            raise NormalizationError(f"total mass {total} deviates from 1 beyond {_NORM_TOL}")
        return mass if total == 1.0 else mass / total
    totals = mass.sum(axis=axis, keepdims=True)
    bad = ~(np.abs(totals - 1.0) <= _NORM_TOL)  # also true for nan and inf
    if bad.any():
        raise NormalizationError(
            f"total mass {float(totals[bad][0])} deviates from 1 beyond {_NORM_TOL}"
        )
    off = totals != 1.0
    if off.any():
        mass = np.where(off, mass / totals, mass)
    return mass


class Channel:
    """Row-stochastic conditional pmf p(output | input)."""

    __slots__ = ("input", "output", "rows")

    def __init__(self, input, output, rows):
        rows = np.array(rows, dtype=np.float64)
        if rows.shape != (input.size, output.size):
            raise AxisError(
                f"rows shape {rows.shape} does not match ({input.size}, {output.size})"
            )
        rows = _normalized(rows, axis=1)
        rows.setflags(write=False)
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Channel is immutable")

    def __repr__(self):
        return f"Channel({self.input.label}->{self.output.label}, shape={self.rows.shape})"


def _clamp_measure(value):
    # information measures are >= 0; absorb -1e-12-scale float noise only
    if -_NEG_TOL <= value < 0.0:
        return 0.0
    return value


def _entropy_of_mass(mass):
    # the one entropy body; entropy and entropy_of_array both call it and
    # not each other, so a tracer that wraps both public names (as
    # bench/tracing.py does) counts one evaluation once
    m = np.asarray(mass, dtype=np.float64).ravel()
    m = m[m > 0.0]
    return _clamp_measure(-float(np.add.reduce(m * np.log(m))))


def entropy(p):
    """Shannon entropy of a JointPmf in nats, with 0*log(0) = 0."""
    return _entropy_of_mass(p.mass)


def entropy_of_array(mass):
    """Entropy of a raw nonnegative array that already sums to 1."""
    return _entropy_of_mass(mass)


def batch_entropies(w, groups):
    """Entropy in nats of the marginal of each table of a block on each group.

    w[b] is one dense nonnegative table that sums to 1; groups is a
    nonempty tuple of tuples of distinct axis indices of a table. Returns
    a (len(w), len(groups)) array: entry (b, i) is the entropy of the
    marginal of w[b] on the kept axes groups[i], with 0*log(0) = 0 and
    the clamp of entropy_of_array. One bincount over the cells builds
    every marginal of every table and a second sums their m*log(m) terms.
    The tables share one index plan and sit end to end in the two
    bincounts, so each table's cells and each marginal's terms are summed
    in the same order as for that table alone, and row b does not depend
    on the other tables of the block; the plan of a power-of-two number
    of tables is cached and a smaller batch uses its prefix, so a call
    costs a few numpy operations however small its batch.
    Every sampler and objective of optimize and the code oracle of
    typicality score their tables with it; the tests keep an unbatched
    one-table form as its bitwise reference.
    """
    w = np.asarray(w, dtype=np.float64)
    batch = w.shape[0]
    size = 1 << (batch - 1).bit_length()
    cells, target, n_cells, owner = _batch_plan(w.shape[1:], groups, size)
    copies = batch * (len(target) // size)
    marg = np.bincount(
        target[:copies], weights=w.ravel()[cells[:copies]], minlength=batch * n_cells
    )
    pos = marg > 0.0
    m = marg[pos]
    owner = owner[: batch * n_cells][pos]
    h = -np.bincount(owner, weights=m * np.log(m), minlength=batch * len(groups))
    return _clamp_measures(h).reshape(batch, len(groups))


def _clamp_measures(values):
    # _clamp_measure on every entry of a float array, in place
    values[(values < 0.0) & (values >= -_NEG_TOL)] = 0.0
    return values


def _source_conditionals(pxz):
    """(p(z|x), p(x|z)) of a two-axis table of masses, rows x and columns
    z: each row (column) divided by its sum. The row (column) of a
    zero-mass symbol is uniform, so a table built from it is still a
    conditional table."""
    px = np.sum(pxz, axis=1)[:, None]
    pz = np.sum(pxz, axis=0)[None, :]
    z_given_x = np.divide(pxz, px, out=np.full(pxz.shape, 1.0 / pxz.shape[1]), where=px > 0.0)
    x_given_z = np.divide(pxz, pz, out=np.full(pxz.shape, 1.0 / pxz.shape[0]), where=pz > 0.0)
    return z_given_x, x_given_z


def _subset_entropies(mass):
    """Entropy in nats of the marginal of a dense table on every subset of its axes.

    mass is a nonnegative table that sums to 1, such as a JointPmf's.
    Returns a float64 vector of 2^n entries for n axes: entry m is the
    entropy of the marginal on the axes whose bits are set in m (bit i
    for axis i), with 0*log(0) = 0 and the clamp of entropy_of_array;
    entry 0 is 0.0. Pass 1 gives each axis in turn one more slot that
    holds the sum over its letters, so the lattice of prod(s_i + 1) cells
    holds the cells of every marginal; m*log(m) is taken once over its
    positive cells; pass 2 collapses each axis's letter slots into one
    and keeps its summed slot. The lattice's size is checked against the
    dense-size cap before anything is allocated. Each marginal is summed
    axis by axis and not renormalized, so an entry can differ in the last
    bits from entropy(marginalize(...)), whose multi-axis sum runs in
    another order.
    """
    shape = mass.shape
    cells = math.prod([s + 1 for s in shape])
    _check_cells(cells, "subset-entropy lattice has")
    # every step reads the leading axis of one buffer's table and writes
    # it, changed, as the last axis of the other's, so each numpy call runs
    # over whole rows and n steps restore the axis order
    buf, spare = np.empty(cells), np.empty(cells)
    t = mass
    for s in shape:
        t = t.reshape(s, -1)
        out = buf[: t.shape[1] * (s + 1)].reshape(-1, s + 1)
        for letter in range(s):
            out[:, letter] = t[letter]
        _sum_rows(t, s, out[:, s])
        t, buf, spare = out.ravel(), spare, buf
    terms = buf
    terms.fill(0.0)
    np.log(t, out=terms, where=t > 0.0)
    terms *= t
    buf, spare = spare, buf
    for s in shape:
        terms = terms.reshape(s + 1, -1)
        out = buf[: terms.shape[1] * 2].reshape(-1, 2)
        _sum_rows(terms, s, out[:, 0])
        out[:, 1] = terms[s]
        terms, buf, spare = out.ravel(), spare, buf
    # slot 0 of an axis keeps it and slot 1 sums it out: reversing the flat
    # vector flips every axis, and reversing the axes puts axis i at bit i
    n = len(shape)
    h = -terms[::-1].reshape((2,) * n).transpose(tuple(range(n - 1, -1, -1))).ravel()
    h[0] = 0.0
    return _clamp_measures(h)


def _sum_rows(t, s, out):
    # out = t[0] + t[1] + ... + t[s - 1], added in that order
    if s == 1:
        out[:] = t[0]
        return
    np.add(t[0], t[1], out=out)
    for letter in range(2, s):
        out += t[letter]


@functools.cache
def _entropy_plan(shape, groups):
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


@functools.lru_cache(maxsize=32)
def _batch_plan(shape, groups, size):
    # the _entropy_plan of `size` tables end to end: table b's cells, marginal
    # cells and groups are offset by b tables' worth. A batch of fewer tables
    # uses the prefixes, so batch_entropies asks for the next power of two
    cells, target, n_cells, owner = _entropy_plan(shape, groups)
    offset = np.arange(size)[:, None]
    cells = (offset * math.prod(shape) + cells).ravel()
    target = (offset * n_cells + target).ravel()
    owner = (offset * len(groups) + owner).ravel()
    for a in (cells, target, owner):
        a.setflags(write=False)
    return cells, target, n_cells, owner


def binary_entropy(p):
    """h_b(p) = -p log p - (1-p) log(1-p) in nats."""
    p = _check_probability(p, "binary_entropy")
    if p == 0.0 or p == 1.0:
        return 0.0
    # numpy's log and log1p run the same loop on a scalar as on an array
    return float(_hb_open(np.float64(p)))


def binary_entropy_inverse(h):
    """The unique p in [0, 1/2] with binary_entropy(p) = h.

    h must be a finite real in [0, log 2] (up to 1e-12 of float noise).
    The value is binary_entropy_inverses' for a one-entry array: the same
    bracketed Newton solve, so the scalar and the array agree bitwise.
    """
    if not _is_real(h):
        raise DomainError(f"binary_entropy_inverse needs a finite real, got {h!r}")
    if h < -_NEG_TOL or h > LOG2 + _NEG_TOL:
        raise DomainError(f"binary_entropy_inverse argument {h} outside [0, log 2]")
    if h <= 0.0:
        return 0.0
    if h >= LOG2:
        return 0.5
    return float(_hb_inverse(np.array([h], dtype=np.float64))[0])


def binary_entropy_inverses(h):
    """binary_entropy_inverse of every entry of an array of reals.

    Every entry is checked as the scalar checks its argument: a NaN, an
    infinity or an entry outside [0, log 2] beyond 1e-12 raises
    DomainError, as does an array that does not hold real numbers. Returns
    a float array of h's shape, entry for entry bitwise equal to the
    scalar call.
    """
    a = np.asarray(h)
    if a.dtype.kind not in "iuf":
        raise DomainError(f"binary_entropy_inverses needs an array of reals, got dtype {a.dtype}")
    a = a.astype(np.float64)
    bad = ~((a >= -_NEG_TOL) & (a <= LOG2 + _NEG_TOL))  # also true for nan
    if bad.any():
        raise DomainError(
            f"binary_entropy_inverses argument {float(a[bad][0])} outside [0, log 2]"
        )
    return _hb_inverse(a)


def _hb_open(p):
    # the one h_b body: h_b of every entry of a float array inside (0, 1),
    # unchecked, with numpy's log and log1p
    return -(p * np.log(p) + (1.0 - p) * np.log1p(-p))


def _hb_closed_array(p):
    # _hb_open of every entry of a float array in [0, 1], and 0 at both ends
    inside = (p > 0.0) & (p < 1.0)
    return np.where(inside, _hb_open(np.where(inside, p, 0.5)), 0.0)


# Newton passes of _hb_inverse: four bring |h_b(p) - h| within 2 ulps of
# h for roots p from 1e-300 to 1/2 - 3e-9; three leave up to 6e-9 of h
_HB_NEWTON_STEPS = 4
_LN4 = math.log(4.0)
# above every root of an h below LOG2 (those are at most 1/2 - 7.4e-9),
# and far enough below 1/2 that log1p(-p) - log(p) stays positive
_HB_P_MAX = 0.5 - 2.0**-28


def _quarter_root(t):
    # the root in [0, 1/2] of 4p(1 - p) = t, for t in [0, 1], without the
    # cancellation of (1 - sqrt(1 - t)) / 2
    return t / (2.0 + 2.0 * np.sqrt(1.0 - t))


def _hb_inverse(h):
    # the one h_b^-1 body, on a checked float array. The root p of
    # h_b(p) = h is bracketed by [lo, hi]: Topsoe's bounds 4pq <= h_b/ln 2
    # <= (4pq)^(1/ln 4) give one end each, and h_b(p) <= 746 p for every
    # positive double p gives lo >= h / 746, which is the tighter end for
    # tiny p. Newton's method runs from lo. h_b is concave, so each step
    # lands at or below the root and the iterates climb to it; clipping
    # them to the bracket only bounds the rounding noise near 1/2. The
    # solve runs on a 1-d view, because numpy scalar arithmetic rounds `**`
    # through libm and the array loop does not. Entries at an end are
    # solved at h = 1/2 and then replaced, so no step divides by zero or
    # takes log(0)
    flat = h.reshape(-1)
    ends = (flat <= 0.0) | (flat >= LOG2)
    hc = np.where(ends, 0.5, flat)
    y = hc / LOG2
    lo = np.maximum(np.maximum(_quarter_root(y**_LN4), hc / 746.0), math.ulp(0.0))
    hi = np.minimum(_quarter_root(y), _HB_P_MAX)
    p = lo
    for _ in range(_HB_NEWTON_STEPS):
        step = (hc - _hb_open(p)) / (np.log1p(-p) - np.log(p))
        p = np.maximum(np.minimum(p + step, hi), lo)
    return np.where(flat <= 0.0, 0.0, np.where(flat >= LOG2, 0.5, p)).reshape(h.shape)


def binary_convolution(a, b):
    """a * b = a(1-b) + (1-a)b, the crossover of two cascaded BSCs."""
    a = _check_probability(a, "binary_convolution")
    b = _check_probability(b, "binary_convolution")
    return _bconv(a, b)


def _bconv(a, b):
    # binary_convolution on [0, 1], unchecked
    return a * (1.0 - b) + (1.0 - a) * b


def _is_int(v):
    # bool subclasses int, but True is not a count
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_probability(p, who):
    if not _is_real(p):
        raise DomainError(f"{who} needs a finite real in [0,1], got {p!r}")
    p = float(p)
    if p < -_NEG_TOL or p > 1.0 + _NEG_TOL:
        raise DomainError(f"{who} argument {p} outside [0,1]")
    return min(max(p, 0.0), 1.0)


def _as_labels(group):
    if isinstance(group, str):
        return (group,)
    return tuple(group)


def marginalize(p, keep):
    """Sum out every axis not in `keep`; kept axes stay in p's order."""
    keep = _as_labels(keep)
    if not keep:
        raise AxisError("marginalize needs at least one axis to keep")
    if len(set(keep)) != len(keep):
        raise AxisError(f"duplicate labels in keep: {keep}")
    kept = sorted([p.axis_index(lbl) for lbl in keep])
    axes = p.axes
    if len(kept) == len(axes):
        return p
    drop = tuple([i for i in range(len(axes)) if i not in kept])
    return JointPmf([axes[i] for i in kept], np.add.reduce(p.mass, axis=drop))


def _marginal_entropy(p, labels):
    # entropy(marginalize(p, labels)), computed once per joint and label set;
    # marginalize keeps p's axis order, so the order of labels is irrelevant.
    # Every caller has checked the labels with _check_groups_disjoint
    key = frozenset(labels)
    h = p._entropies.get(key)
    if h is None:
        h = p._entropies[key] = entropy(marginalize(p, labels))
    return h


def mutual_information(p, group_a, group_b):
    """I(A;B) = H(A) + H(B) - H(A,B) in nats."""
    ga, gb = _as_labels(group_a), _as_labels(group_b)
    _check_groups_disjoint(p, ga, gb)
    ha = _marginal_entropy(p, ga)
    hb_ = _marginal_entropy(p, gb)
    hab = _marginal_entropy(p, ga + gb)
    return _clamp_measure(ha + hb_ - hab)


def conditional_mutual_information(p, group_a, group_b, group_c):
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C); empty C gives I(A;B)."""
    ga, gb, gc = _as_labels(group_a), _as_labels(group_b), _as_labels(group_c)
    if not gc:
        return mutual_information(p, ga, gb)
    _check_groups_disjoint(p, ga, gb, gc)
    hac = _marginal_entropy(p, ga + gc)
    hbc = _marginal_entropy(p, gb + gc)
    habc = _marginal_entropy(p, ga + gb + gc)
    hc = _marginal_entropy(p, gc)
    return _clamp_measure(hac + hbc - habc - hc)


def _check_groups_disjoint(p, *groups):
    # the valid case is one set check: every group nonempty and every label
    # a distinct axis of p. The loop below runs only to raise, and names the
    # first offending group or label
    try:
        labels = sum(groups, ())
        if len(p._index.keys() & labels) == len(labels) and all(groups):
            return
    except TypeError:  # an unhashable label, or a group that is no tuple
        pass
    seen = set()
    for g in groups:
        if not g:
            raise AxisError("axis group must be nonempty")
        for lbl in g:
            p.axis_index(lbl)
            if lbl in seen:
                raise AxisError(f"axis {lbl!r} appears in more than one group")
            seen.add(lbl)


def kl_divergence(p, q):
    """D(p || q) in nats; +inf when q lacks support where p has mass."""
    if set(p.labels) != set(q.labels):
        raise AxisError(f"axis label sets differ: {p.labels} vs {q.labels}")
    order = [q.axis_index(lbl) for lbl in p.labels]
    qm = np.transpose(q.mass, order)
    if qm.shape != p.mass.shape:
        raise AxisError(f"axis sizes differ: {p.mass.shape} vs {qm.shape}")
    pm = p.mass.ravel()
    qm = qm.ravel()
    pos = pm > 0.0
    if np.any(qm[pos] == 0.0):
        return math.inf
    pm, qm = pm[pos], qm[pos]
    return _clamp_measure(float(np.sum(pm * np.log(pm / qm))))


def dsbs(p):
    """Doubly symmetric binary source: fair x, z = x xor Bernoulli(p)."""
    p = _check_probability(p, "dsbs")
    same = (1.0 - p) / 2.0
    diff = p / 2.0
    return JointPmf(
        (Alphabet(2, "x"), Alphabet(2, "z")),
        [[same, diff], [diff, same]],
    )


def bsc_channel(alpha, input_label="x", output_label="u"):
    """Binary symmetric channel with crossover alpha."""
    alpha = _check_probability(alpha, "bsc_channel")
    return Channel(
        Alphabet(2, input_label),
        Alphabet(2, output_label),
        [[1.0 - alpha, alpha], [alpha, 1.0 - alpha]],
    )


def _check_channel_on(ch, alphabet, who):
    if ch.input.label != alphabet.label or ch.input.size != alphabet.size:
        raise AxisError(
            f"{who}: channel input {ch.input.label!r}({ch.input.size}) "
            f"does not match axis {alphabet.label!r}({alphabet.size})"
        )


def compose_markov(p_xz, ch_u=None, ch_v=None, mixing=None):
    """Build the long-Markov-chain joint u - x - z - v from a source and test channels.

    Either pass ch_u and ch_v, or pass mixing = [(weight, ch_u, ch_v), ...]
    (at most 3 branches) to add a time-sharing axis labeled "q". The output
    axes are (u, x, z, v) or (u, x, z, v, q).
    """
    if len(p_xz.axes) != 2:
        raise AxisError(f"compose_markov needs a two-axis source, got {p_xz.labels}")
    ax_x, ax_z = p_xz.axes
    if mixing is None:
        if ch_u is None or ch_v is None:
            raise AxisError("compose_markov needs ch_u and ch_v (or mixing)")
        _check_channel_on(ch_u, ax_x, "compose_markov")
        _check_channel_on(ch_v, ax_z, "compose_markov")
        _check_output_labels(p_xz, ch_u, ch_v)
        mass = _chain_mass(p_xz.mass, ch_u.rows, ch_v.rows)
        axes = (ch_u.output, ax_x, ax_z, ch_v.output)
        return JointPmf(axes, mass)

    if ch_u is not None or ch_v is not None:
        raise AxisError("pass either (ch_u, ch_v) or mixing, not both")
    branches = list(mixing)
    if not 1 <= len(branches) <= 3:
        raise DomainError(f"time-sharing supports 1..3 branches, got {len(branches)}")
    weights = _normalized(np.array([w for w, _, _ in branches], dtype=np.float64))
    u0, v0 = branches[0][1].output, branches[0][2].output
    slices = []
    for w, cu, cv in branches:
        _check_channel_on(cu, ax_x, "compose_markov")
        _check_channel_on(cv, ax_z, "compose_markov")
        if (cu.output.label, cu.output.size) != (u0.label, u0.size):
            raise AxisError("all mixing branches must share the u alphabet")
        if (cv.output.label, cv.output.size) != (v0.label, v0.size):
            raise AxisError("all mixing branches must share the v alphabet")
        slices.append(_chain_mass(p_xz.mass, cu.rows, cv.rows))
    _check_output_labels(p_xz, branches[0][1], branches[0][2], extra="q")
    mass = np.stack(slices, axis=-1) * weights
    axes = (u0, ax_x, ax_z, v0, Alphabet(len(branches), "q"))
    return JointPmf(axes, mass)


def _check_output_labels(p_xz, ch_u, ch_v, extra=None):
    labels = list(p_xz.labels) + [ch_u.output.label, ch_v.output.label]
    if extra is not None:
        labels.append(extra)
    if len(set(labels)) != len(labels):
        raise AxisError(f"axis labels must be unique, got {labels}")


def _chain_mass(pxz, rows_u, rows_v):
    # out[u,x,z,v] = p(x,z) * p(u|x) * p(v|z); plain broadcasting, no BLAS.
    # The product keeps the transposed rows' memory layout (x is its
    # slowest memory axis, so it is not C-contiguous) and JointPmf keeps
    # it too. That layout is part of the label path's bits: the sums over
    # the joint run in memory order, and a C-contiguous copy moves the
    # total of some joints in the last bit (1 of the 64 of the typicality
    # tests' single-letter enumeration), so it is left as it is.
    t = rows_u.T[:, :, None, None] * pxz[None, :, :, None]
    return t * rows_v[None, None, :, :]
