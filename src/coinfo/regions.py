"""Region-point evaluators for the biclustering bounds.

Two-source inner and outer evaluators, their multi-source
generalizations (with binning subset search), the CEO specialization
under a mutual-information constraint, and log-loss decoders.

Index sets for the multi-source evaluators use 1-based encoder indices.
Those evaluators (the two multi-source outer points, the membership test
and the binning search) build one subset-entropy table of their joint
per call, probability._subset_entropies, and read every H, I and CMI
from it by bitmask, so a measure costs a few list reads and no marginal.
A joint whose table of prod(s_i + 1) cells exceeds the dense-size cap
is refused with SizeError. The two-source outer points read the K = 2
table of the same kind, so they are bitwise the multi-source points'
reads; inner_point and ceo_point measure on the label path of
probability.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AxisError,
    ConstraintError,
    DomainError,
    InternalCheckError,
    SizeError,
    SupportError,
)
from .probability import (
    LOG2,
    JointPmf,
    binary_entropy,
    compose_markov,
    entropy_of_array,
    marginalize,
    mutual_information,
    _bconv,
    _check_groups_disjoint,
    _check_cells,
    _check_probability,
    _clamp_measure,
    _hb_closed_array,
    _is_int,
    _normalized,
    _source_conditionals,
    _subset_entropies,
)

# a Markov chain is accepted when the relevant CMI is at most this
MARKOV_TOL = 1e-9
# slack allowed on the mu <= min(r1, r2) consequence
_POINT_TOL = 1e-9


@dataclass(frozen=True)
class RegionPoint:
    """A (mu, r1, r2) triple in nats."""

    mu: float
    r1: float
    r2: float

    def __post_init__(self):
        _check_point(self.mu, self.r1, self.r2)


def _check_point(mu, r1, r2):
    # the RegionPoint invariants
    for name, v in (("mu", mu), ("r1", r1), ("r2", r2)):
        if not math.isfinite(v):
            raise ConstraintError(f"RegionPoint.{name} must be finite")
    if mu > min(r1, r2) + _POINT_TOL:
        raise ConstraintError(f"mu={mu} exceeds min(r1, r2)={min(r1, r2)}")


def _check_region_points(mu, r1, r2):
    """The RegionPoint invariants of every point of float arrays mu, r1
    and r2 that broadcast to one shape, checked at once. Raises
    RegionPoint's error for the first offending point in C order."""
    ok = np.isfinite(mu) & np.isfinite(r1) & np.isfinite(r2) & (mu <= np.minimum(r1, r2) + _POINT_TOL)
    if not np.all(ok):
        k = np.flatnonzero(~ok)[0]
        _check_point(*(float(a.flat[k]) for a in np.broadcast_arrays(mu, r1, r2)))


@dataclass(frozen=True)
class SubsetPair:
    """An (A, B) pair of nonempty index sets."""

    a: frozenset
    b: frozenset

    def __post_init__(self):
        object.__setattr__(self, "a", frozenset(self.a))
        object.__setattr__(self, "b", frozenset(self.b))
        if not self.a or not self.b:
            raise ConstraintError("SubsetPair sets must be nonempty")

    @property
    def disjoint(self):
        return not (self.a & self.b)

    def __repr__(self):
        return f"SubsetPair({sorted(self.a)}, {sorted(self.b)})"


def omega_pairs(k):
    """All ordered pairs of disjoint nonempty subsets of {1..k}.

    Deterministic order: A by (size, sorted tuple), then B likewise over
    the complement. The count is 3^k - 2^(k+1) + 1. Returns a new list
    per call of pairs built once per k.
    """
    return list(_omega_pairs(k))


@functools.lru_cache(maxsize=8)
def _omega_pairs(k):
    universe = tuple(range(1, k + 1))
    out = []
    for a in _subsets_by_size_asc(universe):
        rest = tuple(i for i in universe if i not in a)
        for b in _subsets_by_size_asc(rest):
            out.append(SubsetPair(frozenset(a), frozenset(b)))
    return tuple(out)


def _subsets_by_size_asc(items):
    items = sorted(items)
    for r in range(1, len(items) + 1):
        yield from itertools.combinations(items, r)


@dataclass(frozen=True)
class MultiRegionPoint:
    """Per-pair mu values plus the rate vector, all in nats."""

    mu: dict
    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(self, "mu", dict(self.mu))
        for pair in self.mu:
            if not isinstance(pair, SubsetPair):
                raise ConstraintError(f"mu key {pair!r} is not a SubsetPair")
        if self.mu and all(p.disjoint for p in self.mu):
            k = len(self.rates)
            cap = 3**k - 2 ** (k + 1) + 1
            if len(self.mu) > cap:
                raise ConstraintError(
                    f"{len(self.mu)} disjoint pairs exceeds the {cap} possible for K={k}"
                )


@dataclass(frozen=True)
class BinningChoice:
    """Binning subsets A_b <= A_a <= A (and likewise for B) for one pair."""

    a_active: frozenset
    a_bin: frozenset
    b_active: frozenset
    b_bin: frozenset

    def __post_init__(self):
        for name in ("a_active", "a_bin", "b_active", "b_bin"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        if not (self.a_bin and self.b_bin):
            raise ConstraintError("binning subsets must be nonempty")
        if not self.a_bin <= self.a_active:
            raise ConstraintError(
                f"a_bin {sorted(self.a_bin)} not within a_active {sorted(self.a_active)}"
            )
        if not self.b_bin <= self.b_active:
            raise ConstraintError(
                f"b_bin {sorted(self.b_bin)} not within b_active {sorted(self.b_active)}"
            )

    def check_within(self, pair):
        if not self.a_active <= pair.a:
            raise ConstraintError(
                f"a_active {sorted(self.a_active)} not within A {sorted(pair.a)}"
            )
        if not self.b_active <= pair.b:
            raise ConstraintError(
                f"b_active {sorted(self.b_active)} not within B {sorted(pair.b)}"
            )


class Decoder:
    """Probabilistic reconstruction: one pmf over y outcomes per u outcome.

    Rows are indexed by the flattened u outcome (C order over the u labels
    as passed to log_loss_fidelity), columns by the flattened y outcome.
    Zero entries are allowed; they only fail later if an outcome with
    positive probability lands on one.
    """

    __slots__ = ("table",)

    def __init__(self, table):
        table = np.array(table, dtype=np.float64)
        if table.ndim != 2:
            raise AxisError(f"decoder table must be 2-D, got shape {table.shape}")
        table = _normalized(table, axis=1)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError("Decoder is immutable")

    def __repr__(self):
        return f"Decoder(shape={self.table.shape})"


# ---------------------------------------------------------------------------
# two-source evaluators


def inner_point(p_xz, ch_u, ch_v):
    """(mu, r1, r2) = (I(u;v), I(u;x), I(v;z)) on the long chain u-x-z-v."""
    j = compose_markov(p_xz, ch_u, ch_v)
    u, x, z, v = j.labels
    return RegionPoint(
        mu=mutual_information(j, u, v),
        r1=mutual_information(j, u, x),
        r2=mutual_information(j, v, z),
    )


def sb_point(p, alpha, beta):
    """Closed-form boundary point for the symmetric binary source.

    (log2 - h_b(alpha*p*beta), log2 - h_b(alpha), log2 - h_b(beta)) with
    * the binary convolution; matches inner_point with BSC test channels.
    """
    p, alpha, beta = (_sb_arg(*arg) for arg in (("p", p), ("alpha", alpha), ("beta", beta)))
    # every argument below lies in [0, 1/2], so the unchecked form gives
    # the same floats as binary_convolution
    return RegionPoint(
        mu=LOG2 - binary_entropy(_bconv(_bconv(alpha, p), beta)),
        r1=LOG2 - binary_entropy(alpha),
        r2=LOG2 - binary_entropy(beta),
    )


# sb_surface evaluates mu in blocks of whole alpha rows of at most this
# many cells (one block up to a grid of 128), so each temporary holds at
# most 128 KiB whatever the grid
_SURFACE_BLOCK_CELLS = 2**14


def sb_surface(p, grid):
    """sb_point(p, alpha, beta) for every (alpha, beta) in grid x grid.

    Returns (rates, mu) as float64 arrays: rates[i] = log2 - h_b(grid[i]),
    the r1 of row i and the r2 of column j, and mu[i, j] the
    co-information of cell (i, j). Every value is bitwise equal to
    sb_point's, sign of zero included: mu is built in blocks of alpha
    rows from the same IEEE operations and the same h_b body. p and the
    grid are validated once, a grid of more than _MAX_CELLS cells is
    refused before anything is built, and every cell is checked as a
    RegionPoint.
    """
    p = _sb_arg("p", p)
    n = len(grid)
    _check_cells(n * n, f"sb_surface grid of {n} x {n} points has")
    b = np.array([_sb_arg("alpha", a) for a in grid], dtype=np.float64)
    rates = LOG2 - _hb_closed_array(b)
    # sb_point's _bconv(_bconv(alpha, p), beta), written out with 1 - beta
    # taken once per column and alpha * p and 1 - (alpha * p) once per row
    ap = _bconv(b, p)[:, None]
    nap = 1.0 - ap
    nb = 1.0 - b
    mu = np.empty((n, n))
    rows = max(1, _SURFACE_BLOCK_CELLS // max(n, 1))
    for i in range(0, n, rows):
        block = slice(i, i + rows)
        mu[block] = LOG2 - _hb_closed_array(ap[block] * nb + nap[block] * b)
        _check_region_points(mu[block], rates[block, None], rates[None, :])
    return rates, mu


def _sb_arg(name, val):
    # an sb_point argument: a probability in [0, 1/2]
    v = _check_probability(val, "sb_point")
    if v > 0.5:
        raise DomainError(f"sb_point {name}={val} outside [0, 1/2]")
    return v


def _short_chains(p, u, x, z, v, markov_tol):
    # the K = 2 encoder lattice of p, encoders (u, x) and (v, z), once the
    # chains u-x-z and x-z-v pass their checks, so the two-source outer
    # points are the multi-source ones' reads
    lattice = _EncoderLattice(p, (u, v), (x, z))
    for e, chain, cmi in ((1, f"{u}-{x}-{z}", f"I({u};{z}|{x})"), (2, f"{x}-{z}-{v}", f"I({v};{x}|{z})")):
        c = lattice.chain(e, 3 - e)
        if c > markov_tol:
            raise ConstraintError(f"Markov chain {chain} violated: {cmi} = {c:.6e}")
    return lattice


def outer_point_ro(p, u="u", x="x", z="z", v="v", markov_tol=MARKOV_TOL):
    """Outer bound with the three-term mu = I(v;z) + I(u;x) - I(uv;xz).

    Requires the two short chains u-x-z and x-z-v within markov_tol.
    The raw mu is reported unclamped (it may dip below zero).
    """
    lattice = _short_chains(p, u, x, z, v, markov_tol)
    r1, r2 = lattice.ux(1, 1), lattice.ux(2, 2)
    return RegionPoint(mu=r1 + r2 - lattice.ux(3, 3), r1=r1, r2=r2)


def outer_point_ro_prime(p, u="u", x="x", z="z", v="v", markov_tol=MARKOV_TOL):
    """Outer bound with mu = min(I(u;z), I(v;x)); never below the ro mu."""
    lattice = _short_chains(p, u, x, z, v, markov_tol)
    return RegionPoint(mu=min(lattice.ux(1, 2), lattice.ux(2, 1)), r1=lattice.ux(1, 1), r2=lattice.ux(2, 2))


# ---------------------------------------------------------------------------
# multi-source evaluators


def attach_channels(p, channels, source_labels=None):
    """Joint over (u_1..u_K, original axes) from per-source test channels.

    Channel k feeds on source_labels[k] (default: the first K axes of p);
    by construction each output is conditionally independent of everything
    else given its own source.
    """
    channels = list(channels)
    if source_labels is None:
        source_labels = p.labels[: len(channels)]
    source_labels = tuple(source_labels)
    if len(source_labels) != len(channels):
        raise AxisError("one source label per channel required")
    out_labels = [ch.output.label for ch in channels]
    all_labels = out_labels + list(p.labels)
    if len(set(all_labels)) != len(all_labels):
        raise AxisError(f"axis labels must be unique, got {all_labels}")
    letters = "abcdefghijklmnopqrstuvwxyz"
    n_ax = len(p.axes)
    if n_ax + len(channels) > len(letters):
        raise SizeError("too many axes to label")
    src = {lbl: letters[i] for i, lbl in enumerate(p.labels)}
    operands = [p.mass]
    subs = [letters[:n_ax]]
    out_letters = []
    for k, (ch, lbl) in enumerate(zip(channels, source_labels)):
        ax = p.alphabet(lbl)
        if ch.input.label != ax.label or ch.input.size != ax.size:
            raise AxisError(
                f"channel {k + 1} input {ch.input.label!r}({ch.input.size}) "
                f"does not match source {ax.label!r}({ax.size})"
            )
        new = letters[n_ax + k]
        operands.append(ch.rows)
        subs.append(src[lbl] + new)
        out_letters.append(new)
    spec = ",".join(subs) + "->" + "".join(out_letters) + letters[:n_ax]
    mass = np.einsum(spec, *operands, optimize=False)
    axes = tuple(ch.output for ch in channels) + p.axes
    return JointPmf(axes, mass)


def _labels_for(labels, idx_set):
    return tuple([labels[i - 1] for i in sorted(idx_set)])


def _encoder_masks(k):
    # {frozenset of 1-based encoder indices: its encoder mask} over every
    # subset of 1..k, with bit i - 1 of a mask for encoder i; the keys run
    # in mask order, so list(masks)[e] is the set of mask e
    sets = [frozenset()]
    for i in range(1, k + 1):
        sets += [s | {i} for s in sets]
    return {s: e for e, s in enumerate(sets)}


def _encoder_mask(masks, indices):
    # the mask of a caller's set of encoder indices, which must be a
    # nonempty subset of 1..K; masks holds the 2^K subsets
    mask = masks.get(indices, 0)
    if not mask:
        k = len(masks).bit_length() - 1
        raise AxisError(f"encoder indices {set(indices)} are not a nonempty subset of 1..{k}")
    return mask


def _mask_bits(mask):
    # the set bits of a mask, ascending
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


class _AxisMasks(dict):
    """The joint-axis mask of the labels of each encoder mask, made on first read.

    Entry e ORs bit j for the axis j of labels[i], for every bit i of e.
    It is -1 when one of those labels is no axis of the joint or two of
    them are one axis, so the label path would refuse that group.
    """

    __slots__ = ("labels", "bits")

    def __init__(self, joint, labels):
        super().__init__()
        self.labels = labels
        self.bits = []
        for lbl in labels:
            try:
                self.bits.append(1 << joint.axis_index(lbl))
            except AxisError:
                self.bits.append(-1)

    def __missing__(self, e):
        mask = 0
        for i, bit in enumerate(self.bits):
            if e >> i & 1:
                if bit < 0 or mask & bit:
                    mask = -1
                    break
                mask |= bit
        self[e] = mask
        return mask

    def labels_of(self, e):
        return tuple([lbl for i, lbl in enumerate(self.labels) if e >> i & 1])


class _EncoderLattice:
    """Every measure a multi-source evaluator reads, from one entropy table.

    The table is _subset_entropies of the joint, read by axis mask; u[e]
    and x[e] are the axis masks of the u and x labels of encoder mask e.
    A measure is the label path's formula on the table's entropies, with
    its clamp. A group with a label that is no axis of the joint, or two
    groups that share an axis, raise the label path's AxisError:
    _check_groups_disjoint runs on the same label groups.
    """

    __slots__ = ("joint", "h", "u", "x")

    def __init__(self, joint, u_labels, x_labels):
        self.joint = joint
        self.h = _subset_entropies(joint.mass).tolist()
        self.u = _AxisMasks(joint, u_labels)
        self.x = _AxisMasks(joint, x_labels)

    def ux(self, a, b):
        """I(u_A; x_B)."""
        return self._info(self.u, a, self.x, b)

    def uu(self, a, b):
        """I(u_A; u_B)."""
        return self._info(self.u, a, self.u, b)

    def chain(self, a, rest):
        """I(u_A; x_rest | x_A), the CMI of the chain u_A - x_A - x_rest."""
        return self._info(self.u, a, self.x, rest, self.x, a)

    def need(self, sub, helpers):
        """I(x_sub; u_sub | u_helpers); no helpers gives I(x_sub; u_sub)."""
        return self._info(self.x, sub, self.u, sub, self.u, helpers)

    def _info(self, ga, ea, gb, eb, gc=None, ec=0):
        # I(A;B|C) on the groups ga[ea], gb[eb] and gc[ec]; ec = 0: I(A;B)
        a, b = ga[ea], gb[eb]
        c = gc[ec] if ec else 0
        if a < 0 or b < 0 or c < 0 or a & b or a & c or b & c:
            groups = [g.labels_of(e) for g, e in ((ga, ea), (gb, eb), (gc, ec)) if e]
            _check_groups_disjoint(self.joint, *groups)
            raise InternalCheckError(f"label groups {groups} passed the check that their axis masks failed")
        h = self.h
        if not c:
            return _clamp_measure(h[a] + h[b] - h[a | b])
        return _clamp_measure(h[a | c] + h[b | c] - h[a | b | c] - h[c])


def _check_multi_markov(lattice, k, markov_tol):
    full = (1 << k) - 1
    for a in _subsets_by_size_asc(range(1, k + 1)):
        ea = sum([1 << (i - 1) for i in a])
        if ea == full:
            continue  # the chain is vacuous for the full set
        c = lattice.chain(ea, full ^ ea)
        if c > markov_tol:
            raise ConstraintError(
                f"Markov chain u_A - x_A - x_rest violated for A={sorted(a)}: CMI = {c:.6e}"
            )


def _multi_outer_lattice(p, u_labels, x_labels, markov_tol):
    # the lattice of p and the encoder count K, once the labels and the
    # chains pass their checks
    u_labels, x_labels = tuple(u_labels), tuple(x_labels)
    k = len(u_labels)
    if len(x_labels) != k:
        raise AxisError("u_labels and x_labels must have equal length")
    lattice = _EncoderLattice(p, u_labels, x_labels)
    _check_multi_markov(lattice, k, markov_tol)
    return lattice, k


def multi_outer_point_ro_prime(p, u_labels, x_labels, markov_tol=MARKOV_TOL):
    """mu[A,B] = I(u_A; x_B) over all disjoint pairs; rates I(u_k; x_k)."""
    lattice, k = _multi_outer_lattice(p, u_labels, x_labels, markov_tol)
    masks = _encoder_masks(k)
    mu = {}
    for pair in omega_pairs(k):
        mu[pair] = lattice.ux(masks[pair.a], masks[pair.b])
    rates = tuple(lattice.ux(1 << i, 1 << i) for i in range(k))
    return MultiRegionPoint(mu=mu, rates=rates)


def multi_outer_point_ro(p, u_labels, x_labels, markov_tol=MARKOV_TOL):
    """Three-term mu[A,B] = I(u_A;x_A) + I(u_B;x_B) - I(u_AB;x_AB)."""
    lattice, k = _multi_outer_lattice(p, u_labels, x_labels, markov_tol)
    masks = _encoder_masks(k)
    mu = {}
    for pair in omega_pairs(k):
        ea, eb = masks[pair.a], masks[pair.b]
        mu[pair] = lattice.ux(ea, ea) + lattice.ux(eb, eb) - lattice.ux(ea | eb, ea | eb)
    rates = tuple(lattice.ux(1 << i, 1 << i) for i in range(k))
    return MultiRegionPoint(mu=mu, rates=rates)


def _rate_sum_constraints(active, binned):
    """(sub, helpers) of each of one side's rate-sum constraints, in order.

    All three are encoder masks. Every nonempty sub of the active set that
    meets the binned set asks sum of R_k over sub >= I(x_sub; u_sub |
    u_helpers), helpers being the rest of the active set. Subs run by
    size, then lexicographically by index.
    """
    bits = _mask_bits(active)
    for r in range(1, len(bits) + 1):
        for sub in itertools.combinations(bits, r):
            sub = sum(sub)
            if sub & binned:
                yield sub, active ^ sub


def _rate_sums(rates):
    # entry e is sum(rates[i - 1] for i in sorted(set of e)), summed in that
    # order, for every encoder mask e
    sums = [0]
    for r in rates:
        sums += [s + r for s in sums]
    return sums


def multi_inner_membership(p_xk, channels, point, choice, tol=MARKOV_TOL):
    """Check the quantize-and-bin constraints under given binning choices.

    `choice` maps each pair in point.mu to a BinningChoice. Returns
    (ok, certificate) where certificate maps each pair to its binding
    (minimum-slack) constraint description and slack in nats.
    """
    joint, u_labels, x_labels = _encoder_joint(p_xk, channels)
    rates = point.rates
    _check_rate_count(rates, u_labels)
    lattice = _EncoderLattice(joint, u_labels, x_labels)
    masks = _encoder_masks(len(u_labels))
    sets = list(masks)
    rate_sums = _rate_sums(rates)
    ok = True
    certificate = {}
    for pair, target in point.mu.items():
        bc = choice.get(pair)
        if bc is None:
            raise ConstraintError(f"no binning choice for pair {pair!r}")
        bc.check_within(pair)
        worst = ("", math.inf)
        for side, active, binned in (("A", bc.a_active, bc.a_bin), ("B", bc.b_active, bc.b_bin)):
            active = _encoder_mask(masks, active)
            for sub, helpers in _rate_sum_constraints(active, _encoder_mask(masks, binned)):
                need = lattice.need(sub, helpers)
                slack = rate_sums[sub] - need
                if slack < worst[1]:
                    worst = (f"sum of R_k over {side}'={sorted(sets[sub])} >= {need:.6g}", slack)
        cap = lattice.uu(_encoder_mask(masks, bc.a_bin), _encoder_mask(masks, bc.b_bin))
        if cap - target < worst[1]:
            worst = (f"mu <= I(u_Ab; u_Bb) = {cap:.6g}", cap - target)
        certificate[pair] = worst
        if worst[1] < -tol:
            ok = False
    return ok, certificate


def _encoder_joint(p_xk, channels):
    # channel k feeds on the k-th axis of the source
    channels = list(channels)
    x_labels = p_xk.labels[: len(channels)]
    joint = attach_channels(p_xk, channels, x_labels)
    return joint, tuple(ch.output.label for ch in channels), x_labels


def _check_rate_count(rates, u_labels):
    if len(rates) != len(u_labels):
        raise ConstraintError(f"{len(rates)} rates for {len(u_labels)} encoders")


def _binning_candidates(universe):
    """(active, binned) encoder masks within the encoder mask universe,
    ordered by |active| desc, |binned| desc, then lexicographically by index."""
    bits = _mask_bits(universe)
    for ra in range(len(bits), 0, -1):
        for active in itertools.combinations(bits, ra):
            mask = sum(active)
            for rb in range(ra, 0, -1):
                for binned in itertools.combinations(active, rb):
                    yield mask, sum(binned)


def multi_inner_search(p_xk, channels, point, tol=MARKOV_TOL):
    """First satisfying BinningChoice per pair in the documented order.

    Candidates run through (a_active, a_bin) by size-descending then
    lexicographic order, with the B side iterated innermost. Returns
    {pair: BinningChoice}, or None if any pair has no satisfying choice.
    Guarded to K <= 6 encoders.

    A candidate is accepted exactly when multi_inner_membership accepts
    it: both read every CMI and cap from one subset-entropy table of the
    encoder joint, and the search builds none of the certificates. A
    side's rate-sum constraints read only the rates, which are the
    point's for every pair, and the side's (active, binned) sets, so each
    side's verdict is computed once per (active, binned). A side stops at
    its first violated constraint, and a failed A side skips every B
    candidate and the cap I(u_Ab; u_Bb).
    """
    channels = list(channels)
    if len(channels) > 6:
        raise SizeError(f"multi_inner_search supports K <= 6, got {len(channels)}")
    joint, u_labels, x_labels = _encoder_joint(p_xk, channels)
    if not point.mu:
        return {}
    rates = point.rates
    _check_rate_count(rates, u_labels)
    lattice = _EncoderLattice(joint, u_labels, x_labels)
    masks = _encoder_masks(len(u_labels))
    sets = list(masks)
    rate_sums = _rate_sums(rates)
    verdicts = {}

    def side_ok(active, binned):
        ok = verdicts.get((active, binned))
        if ok is None:
            ok = verdicts[active, binned] = not any(
                rate_sums[sub] - lattice.need(sub, helpers) < -tol
                for sub, helpers in _rate_sum_constraints(active, binned)
            )
        return ok

    def first_choice(a, b, target):
        for a_act, a_bin in _binning_candidates(a):
            if not side_ok(a_act, a_bin):
                continue
            for b_act, b_bin in _binning_candidates(b):
                # a slack is violated only when below -tol, as in
                # multi_inner_membership, so a nan slack violates nothing
                if side_ok(b_act, b_bin) and not (lattice.uu(a_bin, b_bin) - target < -tol):
                    return BinningChoice(sets[a_act], sets[a_bin], sets[b_act], sets[b_bin])
        return None

    choices = {}
    for pair, target in point.mu.items():
        a, b = _encoder_mask(masks, pair.a), _encoder_mask(masks, pair.b)
        if a & b:
            # an overlapping pair has no cap: raise the AxisError its first cap would
            lattice.uu(a, b)
        found = first_choice(a, b, target)
        if found is None:
            return None
        choices[pair] = found
    return choices


# ---------------------------------------------------------------------------
# CEO / information bottleneck


def ceo_point(p, channels, x_labels, y_labels):
    """CEO evaluation under the mutual-information constraint.

    Encoders observe the x_labels axes through their channels; the
    y_labels axes are the unobserved targets. Returns rates I(u_j; x_j)
    and mu[A,B] = I(u_A; y_B) for every pair of nonempty subsets, with A
    drawn from encoders and B from targets (indices overlap freely since
    the two sides live in different namespaces).
    """
    x_labels, y_labels = tuple(x_labels), tuple(y_labels)
    channels = list(channels)
    if len(channels) != len(x_labels):
        raise AxisError("one channel per encoder label required")
    joint = attach_channels(p, channels, x_labels)
    u_labels = tuple(ch.output.label for ch in channels)
    jj, ll = len(x_labels), len(y_labels)
    mu = {}
    for a in _subsets_by_size_asc(range(1, jj + 1)):
        for b in _subsets_by_size_asc(range(1, ll + 1)):
            mu[SubsetPair(frozenset(a), frozenset(b))] = mutual_information(
                joint, _labels_for(u_labels, a), _labels_for(y_labels, b)
            )
    if len(mu) != (2**jj - 1) * (2**ll - 1):
        raise InternalCheckError(
            f"{len(mu)} CEO pairs for {jj} encoders and {ll} targets, "
            f"expected {(2**jj - 1) * (2**ll - 1)}"
        )
    rates = tuple(mutual_information(joint, u_labels[i], x_labels[i]) for i in range(jj))
    return MultiRegionPoint(mu=mu, rates=rates)


def ib_point(p_xz, ch_u):
    """(rate, relevance) = (I(u;x), I(u;z)) under the chain u - x - z.

    This is the single-encoder single-target CEO evaluation, unpacked.
    """
    if len(p_xz.axes) != 2:
        raise AxisError(f"ib_point needs a two-axis source, got {p_xz.labels}")
    mp_ = ceo_point(p_xz, [ch_u], (p_xz.labels[0],), (p_xz.labels[1],))
    pair = SubsetPair(frozenset({1}), frozenset({1}))
    return mp_.rates[0], mp_.mu[pair]


# ---------------------------------------------------------------------------
# log-loss fidelity


def _grouped_matrix(p, row_labels, col_labels):
    marg = marginalize(p, tuple(row_labels) + tuple(col_labels))
    perm = [marg.axis_index(l) for l in tuple(row_labels) + tuple(col_labels)]
    t = np.transpose(marg.mass, perm)
    nrow = 1
    for l in row_labels:
        nrow *= p.alphabet(l).size
    return t.reshape(nrow, -1)


def log_loss_fidelity(p, decoder, n=1, u_labels=("u",), y_labels=("y",)):
    """Expected log-loss fidelity H(y) - E[-(1/n) log g(y|u)] in nats.

    Never exceeds (1/n) I(y;u); equality holds for the posterior decoder.
    Blocks of n letters are expressed through product alphabets, in which
    case H(y) above is the per-letter entropy of the block.
    """
    if not _is_int(n) or n < 1:
        raise DomainError(f"blocklength must be a positive integer, got {n!r}")
    w = _grouped_matrix(p, u_labels, y_labels)
    if decoder.table.shape != w.shape:
        raise AxisError(
            f"decoder table shape {decoder.table.shape} does not match joint {w.shape}"
        )
    h_y = entropy_of_array(np.sum(w, axis=0))
    rows, cols = np.nonzero(w > 0.0)
    g = decoder.table[rows, cols]
    if np.any(g == 0.0):
        i = int(np.argmax(g == 0.0))
        raise SupportError(
            f"decoder assigns zero mass to y-index {cols[i]} under u-index {rows[i]} "
            "which has positive probability"
        )
    cross = float(np.sum(w[rows, cols] * np.log(g)))
    fidelity = (h_y + cross) / n
    h_u = entropy_of_array(np.sum(w, axis=1))
    mi = h_u + h_y - entropy_of_array(w)
    if not fidelity <= mi / n + 1e-12:
        raise InternalCheckError(
            f"log-loss fidelity {fidelity} exceeds the MI bound {mi / n}"
        )
    return fidelity


def optimal_posterior_decoder(p, u_labels=("u",), y_labels=("y",)):
    """The decoder g(y|u) = p(y|u); achieves fidelity = (1/n) I(y;u).
    A u never observed gets the uniform row: any pmf works, and uniform
    keeps it explicit."""
    return Decoder(_source_conditionals(_grouped_matrix(p, u_labels, y_labels))[0])
