"""Deterministic solvers for the bound regions, and two samplers.

Support-function maximization over Markov-constrained auxiliary channels
(the inner and both outer ones solved, not sampled), upper concave
envelopes, the symmetric-binary boundary curves, the bottleneck curve,
the conjecture margin search, and the cardinality robustness report.
Only the conjecture search (conjecture_test) and the region sampler
(sample_region_points) draw at random; everything else is solved.

Determinism contract: draws come in blocks of _DRAW_BLOCK. Block k of a
seed comes from one substream (seed, k), one flat-Dirichlet array of
_DRAW_BLOCK draws per shape, in order, and draw i is entry
i % _DRAW_BLOCK of block i // _DRAW_BLOCK. A block larger than
_DRAW_FLOATS floats is drawn in pieces with the same bits
(_draw_pieces). So a draw depends only on the seed, its index and the
shapes, and no draw is made twice: a sampler keeps the tables it may
return while it scans. Every reduction is an associative
max or min with lowest-index tie-break, and no BLAS-backed kernels are
used, so a run is bit-reproducible for any thread count. A piece of a
draw block is scored in blocks of at most _DRAW_CELLS joint cells, with
one call of probability.batch_entropies each, which builds all the marginals of
every table with ordered reductions whose inner loop runs across the
tables, and sums them in a fixed order, with elementwise operations
only; its rows are bitwise equal to one table's, so no result depends on
the scoring block size.
The conjecture tail runs once per chunk of draws whose tables hold at
most _DRAW_FLOATS floats, with one h_b^-1 call
(probability.binary_entropy_inverses) for both rate equalities; it is
elementwise, so no result depends on the chunk size either. Outer
tables are feasible by construction: every draw and every table of the
outer support solve goes through one closed-form map onto the two short
chains (_chain_map), a block of tables per call, with the floats each
table would get alone, and every outer table scored is checked to hold
both chains (_checked_outer_stats).

The inner support function draws nothing: it is a two-sided
Blahut-Arimoto solve (_inner_solve). Each round makes one bottleneck
update of p(u|x) against v and then one of p(v|z) against u
(_bottleneck_update), from a fixed family of start pairs (_inner_starts),
all in one batch, for up to a fixed number of rounds; the starts and the
last iterates are scored in one blocked pass, and each pair keeps its
last iterate when it scores above its start, else its start. The outer
support functions draw nothing either (_outer_solve). Their channel
pairs come from one deterministic pool (_outer_pool): the inner solve's
best pair, then on each side a bottleneck family with the relevance
that mu' = min(I(u;z), I(v;x)) reads (z for p(u|x), x for p(v|z)) over a
fixed schedule of multipliers, each run to its fixed point
(_fixed_point), and zoom rounds in the multiplier around each side's
best (_side_best). "ro_prime" depends on the pair alone and takes the
pool's best pair; "ro" solves the coupling of least I(x,z;u,v) of its
best pairs by alternating I-projection (_coupled), a convex problem for
fixed cell marginals. Every solve, the inner one, the bottleneck
families of the outer pool and of the bottleneck curve, and the
coupling, is an alternating minimization whose objective never
decreases, and runs through one driver (_iterate) with one stop rule, as
do the Newton steps of the binary bottleneck curve: a member leaves its
batch at the first update that moves it by at most _STEP (max-abs), or
after its solve's round cap, so its floats do not depend on the batch.
The DSBS outer curve draws nothing and is not refined: it is the
envelope of the long-chain BSC points and, at each rate cap of at most
ln 2, the BSC pair of that rate with its coupling solved by the same
I-projection (_coupled), from the long chain; its auxiliaries are
binary. The bottleneck curve draws nothing and is not refined either:
it is the envelope of the constant and identity channels and of solved
channels. For a binary x those are exact: each abscissa of its grid is
solved for the two posteriors of x whose pair is a bottleneck optimum
of that rate, by Newton steps through the same driver (module
bottleneck). For |X| > 2 they are one bottleneck family, like a side of
the outer pool: a noisy identity run at each multiplier of a fixed
schedule to its fixed point (_fixed_point), all in one batch. Every
solve uses elementwise operations and einsum(optimize=False) only, so no
BLAS kernel runs (the tests scan the source for one). The long-chain BSC
points of both DSBS curves are one array pass (_sb_curve_points),
bitwise the scalar h_b values. Every curve here is an upper concave
envelope, and the knots of each, and of the binary bottleneck curve's
start table (module bottleneck), come from one hull body behind
upper_concave_envelope (_upper_hull, Andrew's monotone chain).
"""
import bisect
import copy
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InternalCheckError, SizeError
from .probability import (
    LOG2,
    Alphabet,
    Channel,
    binary_entropy_inverses,
    batch_entropies,
    dsbs,
    _bconv,
    _check_cells,
    _check_probability,
    _clamp_measures,
    _NEG_TOL,
    _hb_closed_array,
    _is_int,
    _is_real,
    _source_conditionals,
)
from .regions import MARKOV_TOL, _check_region_points

_VARIANTS = ("inner", "ro", "ro_prime")


@dataclass(frozen=True)
class SupportWeight:
    """A direction in the support-function quadrant: l1 >= 0 >= l2, l3."""

    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        for name in ("l1", "l2", "l3"):
            v = getattr(self, name)
            if not _is_real(v):
                raise DomainError(f"SupportWeight.{name} must be a finite real, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.l1 < 0.0 or self.l2 > 0.0 or self.l3 > 0.0:
            raise DomainError(
                f"({self.l1}, {self.l2}, {self.l3}) is outside the quadrant "
                "l1 >= 0, l2 <= 0, l3 <= 0"
            )

    @property
    def degenerate(self):
        # directions where constant channels are provably optimal (value 0)
        return self.l1 + min(self.l2, self.l3) <= 0.0


@dataclass(frozen=True)
class SampleConfig:
    """Budgets and seeds for the samplers.

    cap_u / cap_v default to the source alphabet sizes, the cardinality
    bounds under which the regions are already exhausted. seed and count
    drive the samplers (conjecture_test, sample_region_points). The
    support functions of every variant (support_function,
    cardinality_robustness) are solved, not sampled, and read cap_u and
    cap_v alone. refine_top and refine_steps, the budget of the hill climb
    the outer solve replaced, are read by nothing; they are still
    accepted and validated because the benchmark's cardinality workload
    and the acceptance tests pass them.
    """

    seed: int
    count: int = 100000
    cap_u: int = None
    cap_v: int = None
    refine_top: int = 100
    refine_steps: int = 500

    def __post_init__(self):
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not _is_int(self.count) or self.count < 1:
            raise DomainError(f"count must be a positive integer, got {self.count!r}")
        for name in ("cap_u", "cap_v"):
            v = getattr(self, name)
            if v is not None and (not _is_int(v) or v < 1):
                raise DomainError(f"{name} must be a positive integer or None, got {v!r}")
        if not _is_int(self.refine_top) or self.refine_top < 0:
            raise DomainError(f"refine_top must be a nonnegative integer, got {self.refine_top!r}")
        if not _is_int(self.refine_steps) or self.refine_steps < 0:
            raise DomainError(f"refine_steps must be a nonnegative integer, got {self.refine_steps!r}")


@dataclass(frozen=True)
class EnvelopeCurve:
    """Piecewise-linear concave upper boundary in the (R, mu) plane.

    The knots are also kept as two read-only float arrays, made once
    here, that value_at reads."""

    knots: tuple

    def __post_init__(self):
        knots = tuple((float(r), float(m)) for r, m in self.knots)
        if not knots:
            raise SizeError("an EnvelopeCurve needs at least one knot")
        # each check names its first failing knot, pair or triple
        points = np.array(knots)
        points.setflags(write=False)
        r, m = points.T
        bad = ~np.isfinite(points).all(axis=1)
        if bad.any():
            raise DomainError(f"knot {knots[bad.argmax()]} is not finite")
        bad = r[1:] <= r[:-1]
        if bad.any():
            (r0, _), (r1, _) = knots[bad.argmax() :][:2]
            raise DomainError(f"knot abscissae must increase strictly: {r0} then {r1}")
        bad = _cross((r[:-2], m[:-2]), (r[1:-1], m[1:-1]), (r[2:], m[2:])) > 0.0
        if bad.any():
            a, b, c = knots[bad.argmax() :][:3]
            raise DomainError(f"knots {a}, {b}, {c} break concavity")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_r", r)
        object.__setattr__(self, "_mu", m)

    @property
    def r_min(self):
        return self.knots[0][0]

    @property
    def r_max(self):
        return self.knots[-1][0]

    def value_at(self, r):
        """Linear interpolation; constant extension outside [r_min, r_max].

        r may be an array of abscissae, read in one np.interp call into an
        array, each entry bitwise the value at that abscissa alone."""
        value = np.interp(r, self._r, self._mu)
        return value if np.ndim(r) else float(value)


def _cross(a, b, c):
    # the turn of a, b, c: positive when b lies below the chord from a to c;
    # elementwise when the coordinates are arrays
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def upper_concave_envelope(points):
    """Upper boundary of the convex hull of (R, mu) points.

    Collinear interior points are dropped; every input point ends up on
    or below the returned curve.
    """
    pts = [(float(r), float(m)) for r, m in points]
    if not pts:
        raise SizeError("upper_concave_envelope needs at least one point")
    for r, m in pts:
        if not (math.isfinite(r) and math.isfinite(m)):
            raise DomainError(f"point ({r}, {m}) is not finite")
    return EnvelopeCurve(_upper_hull(pts))


def _upper_hull(points):
    """The knots of upper_concave_envelope of (R, mu) tuples of finite
    floats, the one hull body of the package (Andrew's monotone chain):
    of points of one R the largest mu stays, the first of equal points,
    and a point on or below the chord of its neighbours goes."""
    merged = []
    for pt in sorted(points):
        if merged and merged[-1][0] == pt[0]:
            if pt[1] > merged[-1][1]:
                merged[-1] = pt
        else:
            merged.append(pt)
    hull = []
    for pt in merged:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) >= 0.0:
            hull.pop()
        hull.append(pt)
    return tuple(hull)


# ---------------------------------------------------------------------------
# sampling plumbing


# draws per RNG substream: draw i of a seed is entry i % _DRAW_BLOCK of
# block i // _DRAW_BLOCK, and every shape of a block is drawn for all its
# draws, the last block's too, so a draw depends only on (seed, index,
# shapes), whatever the count.
_DRAW_BLOCK = 256

# floats of drawn tables held at once (1 MiB): a draw block whose tables
# hold more is drawn in pieces of max(1, _DRAW_FLOATS // floats of a draw)
# draws, so a large outer table (65536 floats a draw on a 16x16 source at
# its default caps) never makes a 256-draw array. No draw depends on it: a
# Dirichlet array drawn in successive pieces from one generator is bitwise
# the array drawn whole.
_DRAW_FLOATS = 1 << 17

# joint cells scored per batched stats call, summed over the scoring
# block's draws: a piece of a draw block is scored in scoring blocks of
# max(1, _DRAW_CELLS // cells) draws, the rule of typicality._BLOCK_CELLS,
# so the joints of a call stay bounded on a large alphabet (a whole
# 256-draw block of a 2x2x2x2 joint, one draw of any joint past 4096
# cells). No result depends on it, since a batched row is bitwise equal
# to one table's.
_DRAW_CELLS = 1 << 12


def _substream(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _draw_pieces(seed, k, shapes, stop):
    """(lo, tables) pieces of the first `stop` draws of block k of a seed,
    in order: tables[t][b] is table t, of shape shapes[t], of draw
    k * _DRAW_BLOCK + lo + b, a flat-Dirichlet row per table row.

    The block comes from the one substream (seed, k), one
    rng.dirichlet(np.ones(cols), size=(_DRAW_BLOCK, rows)) per shape, in
    order. When that takes at most _DRAW_FLOATS floats it is drawn so, in
    one piece. Otherwise each shape is drawn in pieces from a copy of the
    generator at that shape's start, found by drawing the shapes before it
    in pieces and dropping them.
    """
    rng = _substream(seed, k)
    size = min(_DRAW_BLOCK, max(1, _DRAW_FLOATS // sum(rows * cols for rows, cols in shapes)))
    if size == _DRAW_BLOCK:
        block = [rng.dirichlet(np.ones(cols), size=(_DRAW_BLOCK, rows)) for rows, cols in shapes]
        yield 0, [t[:stop] for t in block]
        return
    gens = []
    for t, (rows, cols) in enumerate(shapes):
        gens.append(copy.deepcopy(rng))
        if t < len(shapes) - 1:
            for lo in range(0, _DRAW_BLOCK, size):
                rng.dirichlet(np.ones(cols), size=(min(size, _DRAW_BLOCK - lo), rows))
    for lo in range(0, stop, size):
        n = min(size, stop - lo)
        yield lo, [g.dirichlet(np.ones(cols), size=(n, rows)) for g, (rows, cols) in zip(gens, shapes)]


def _drawn(cfg, shapes, cells):
    """(lo, tables) of cfg's draws in index order, one scoring block at a
    time: tables[t][b] is table t of draw lo + b. A scoring block lies in
    one piece of a draw block (_draw_pieces) and holds at most _DRAW_CELLS
    joint cells (a draw's joint has `cells`) and at least one draw."""
    size = max(1, _DRAW_CELLS // cells)
    for start in range(0, cfg.count, _DRAW_BLOCK):
        stop = min(_DRAW_BLOCK, cfg.count - start)
        for p, piece in _draw_pieces(cfg.seed, start // _DRAW_BLOCK, shapes, stop):
            for lo in range(0, len(piece[0]), size):
                yield start + p + lo, [t[lo : lo + size] for t in piece]


def _scored_draws(cfg, pxz, shapes, stats):
    """(lo, tables, scores) of every scoring block of cfg's draws, in index
    order: tables as _drawn gives them and scores = stats(pxz, *tables)
    (_batch_inner_stats, or the mapped outer tables' stats of
    sample_region_points), arrays with one entry per draw."""
    for lo, tables in _drawn(cfg, shapes, pxz.size * math.prod(cols for _, cols in shapes)):
        yield lo, tables, stats(pxz, *tables)


# kept-axis groups of the (x, z, u, v) and (x, z, u) joints, axes in that order
_INNER_GROUPS = ((0,), (1,), (2,), (3,), (2, 3), (0, 2), (1, 3))
_OUTER_GROUPS = (
    (0,), (1,), (2,), (3,), (0, 1), (2, 3), (0, 2), (1, 3), (1, 2), (0, 3),
    (0, 1, 2), (0, 1, 3), (0, 1, 2, 3),
)
_IB_GROUPS = ((0,), (1,), (2,), (0, 2), (1, 2))


def _batch_inner_stats(pxz, rows_u, rows_v):
    """(I(u;v), I(u;x), I(v;z)) on the long chain u - x - z - v, as arrays
    over a batch of channel pairs."""
    # the (x, z, u, v, draw) products written in C order, draws innermost:
    # the layout batch_entropies reduces in, so it takes them without a copy
    w = np.multiply(pxz[:, :, None, None, None], rows_u.transpose(1, 2, 0)[:, None, :, None], order="C")
    w = np.multiply(w, rows_v.transpose(1, 2, 0)[None, :, None], order="C")
    h_x, h_z, h_u, h_v, h_uv, h_xu, h_zv = batch_entropies(w.transpose(4, 0, 1, 2, 3), _INNER_GROUPS).T
    return (
        _clamp_measures(h_u + h_v - h_uv),
        _clamp_measures(h_x + h_u - h_xu),
        _clamp_measures(h_z + h_v - h_zv),
    )


def _batch_ib_stats(pxz, rows):
    """(I(u;x), I(u;z)) of a batch of test channels p(u|x) on the source."""
    w = np.multiply(pxz[:, :, None, None], rows.transpose(1, 2, 0)[:, None], order="C")
    h = batch_entropies(w.transpose(3, 0, 1, 2), _IB_GROUPS)
    h_x, h_z, h_u, h_xu, h_zu = h.T
    return _clamp_measures(h_x + h_u - h_xu), _clamp_measures(h_z + h_u - h_zu)


# the columns of _batch_outer_stats. Column j is H(A) + H(B) - H(C) for its
# (A, B, C) axis groups of the (x, z, u, v) joint below, less H(x) and H(z)
# in the two CMIs; mu_ro = I(v;z) + I(u;x) - I(x,z;u,v) replaces I(x,z;u,v)
_OUTER_KEYS = ("iux", "ivz", "iuz", "ivx", "mu_ro", "cmi_uz_x", "cmi_vx_z")
_OUTER_TERMS = (
    ((0,), (2,), (0, 2)),  # I(u;x)
    ((1,), (3,), (1, 3)),  # I(v;z)
    ((1,), (2,), (1, 2)),  # I(u;z)
    ((0,), (3,), (0, 3)),  # I(v;x)
    ((0, 1), (2, 3), (0, 1, 2, 3)),  # I(x,z;u,v)
    ((0, 2), (0, 1), (0, 1, 2)),  # I(u;z|x) + H(x)
    ((1, 3), (0, 1), (0, 1, 3)),  # I(v;x|z) + H(z)
)
# the _OUTER_GROUPS columns of every A, every B and every C
_OUTER_A, _OUTER_B, _OUTER_C = (
    np.array([_OUTER_GROUPS.index(g) for g in col]) for col in zip(*_OUTER_TERMS)
)


def _batch_outer_stats(pxz, q):
    """All information terms of the (x,z,u,v) joints of a batch of tables
    q[b] = q(u,v|x,z): row b holds the _OUTER_KEYS terms of table b."""
    w = np.multiply(pxz[:, :, None, None, None], q.transpose(1, 2, 3, 4, 0), order="C")
    h = batch_entropies(w.transpose(4, 0, 1, 2, 3), _OUTER_GROUPS)
    st = h[:, _OUTER_A] + h[:, _OUTER_B] - h[:, _OUTER_C]
    st[:, 5:] -= h[:, :2]  # H(x) and H(z), the first two groups
    _clamp_measures(st)
    st[:, 4] = st[:, 1] + st[:, 0] - st[:, 4]
    return st


def _checked_outer_stats(pxz, q):
    """_batch_outer_stats of a batch of tables that must hold both short
    chains. Raises InternalCheckError when a chain CMI of a table exceeds
    MARKOV_TOL."""
    st = _batch_outer_stats(pxz, q)
    worst = float(st[:, 5:].max())
    if not worst <= MARKOV_TOL:  # also true for nan
        raise InternalCheckError(f"outer table off the short chains: CMI {worst:.6e}")
    return st


def _chain_map(pxz, q, cond):
    """Map a batch of tables q[b] = q(u,v|x,z) onto the two short chains in
    one pass.

    The chains u-x-z and x-z-v pin only two conditionals: cell (x, z) must
    have u-marginal p(u|x) and v-marginal p(v|z). These are the
    source-weighted averages of the cells' own marginals (cond is
    _source_conditionals(pxz)). With P their product and D = q(u,v|x,z) -
    q(u|x,z) q(v|x,z), which has zero row and column sums, each cell
    becomes P + lam * D, lam = min(1, min over D < 0 of P / -D): it keeps
    as much of its dependence between u and v as stays nonnegative. So
    every output holds both chains exactly, a feasible table maps to
    itself (the map is a projection onto the feasible set: a second pass
    changes nothing), and a binary cell is the one-scalar Frechet coupling
    of its two rows. Every operation acts on one table at a time, so a table gets
    the same floats in any batch, and q is not modified.
    Returns (q, stats): the mapped batch and its _batch_outer_stats, one
    row per table, checked by _checked_outer_stats.
    """
    z_given_x, x_given_z = cond
    q_u, q_v = q.sum(axis=4), q.sum(axis=3)
    u_given_x = np.einsum("xz,bxzu->bxu", z_given_x, q_u, optimize=False)
    v_given_z = np.einsum("xz,bxzv->bzv", x_given_z, q_v, optimize=False)
    prod = u_given_x[:, :, None, :, None] * v_given_z[:, None, :, None, :]
    dep = q - q_u[..., None] * q_v[..., None, :]
    ratio = np.divide(prod, -dep, out=np.full(q.shape, np.inf), where=dep < 0.0)
    lam = np.minimum(ratio.min(axis=(3, 4), keepdims=True), 1.0)
    out = np.maximum(prod + lam * dep, 0.0)
    return out, _checked_outer_stats(pxz, out)


def _constant_rows(n_rows, n_cols):
    rows = np.zeros((n_rows, n_cols))
    rows[:, 0] = 1.0
    return rows


# ---------------------------------------------------------------------------
# support function


def _lam_dot(lam, mu, r1, r2):
    return lam.l1 * mu + lam.l2 * r1 + lam.l3 * r2


def _region_mu(st, variant):
    # the co-information coordinate of an outer variant, per row of
    # _batch_outer_stats; min(iuz, ivx) keeps iuz on ties, as Python's min
    if variant == "ro":
        return st[:, 4]
    return np.where(st[:, 3] < st[:, 2], st[:, 3], st[:, 2])


def support_function(p_xz, lam, cfg, variant="inner"):
    """Best value of lam . (mu, r1, r2) for a variant, and its candidate.

    Returns (value, candidate): channel pair (chU, chV) for the inner
    variant, else the conditional table q(u,v|x,z) with row axis (x,z)
    and column axis (u,v), both C-ordered. Caps default to the source
    alphabet sizes (cfg.cap_u, cfg.cap_v).

    Every variant is solved, not sampled, and reads the caps of cfg
    alone: nothing is drawn, and the result does not depend on the seed,
    the count or the refinement fields. Every solve stops a member (a
    start pair, a channel, a coupling) at the first update that moves it
    by at most 1e-15 (max-abs), or at its round cap (_iterate). The inner
    variant runs up to _INNER_ROUNDS rounds of a two-sided bottleneck
    solve from fixed start pairs, and each pair keeps its last iterate
    when it scores above its start, else its start (_inner_solve). The
    outer variants (_outer_solve) build one pool of channel pairs
    (_outer_pool): the inner solve's best pair and a bottleneck family on
    each side over a fixed schedule of multipliers, zoomed around each
    side's best. "ro_prime" returns the long-chain table of the pool's
    best pair, since mu' = min(I(u;z), I(v;x)) depends on p(u|x) and
    p(v|z) alone; "ro" solves the coupling of least I(x,z;u,v) (_coupled,
    up to _COUPLING_ROUNDS rounds of alternating I-projection) of the
    _COUPLED_PAIRS pairs of largest ro_prime value, the inner pair always
    among them, so the outer values are at least the inner one, and
    ro_prime's at least ro's, but for rounding. Every returned table is
    mapped onto the two short chains (_chain_map) and scored from the
    mapped table. On a degenerate direction, and when no solved value
    lifts the constant pair above rounding, the constant pair is returned
    with the value 0.0 exactly. On the tests' pinned cases an outer call
    takes 0.01 to 0.2 s on a 2-core machine.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if len(p_xz.axes) != 2:
        raise DomainError(f"support_function needs a two-axis source, got {p_xz.labels}")
    pxz = p_xz.mass
    nx, nz = pxz.shape
    cap_u = cfg.cap_u if cfg.cap_u is not None else nx
    cap_v = cfg.cap_v if cfg.cap_v is not None else nz
    value, tables = _support(pxz, lam, variant, cap_u, cap_v)
    return value, _public_candidate(variant, tables, p_xz, cap_u, cap_v)


def _public_candidate(variant, tables, p_xz, cap_u, cap_v):
    if variant == "inner":
        ax_x, ax_z = p_xz.axes
        return (
            Channel(ax_x, Alphabet(cap_u, "u"), tables[0]),
            Channel(ax_z, Alphabet(cap_v, "v"), tables[1]),
        )
    nx, nz = p_xz.mass.shape
    q = tables[0].reshape(nx, nz, cap_u, cap_v).copy()
    q.setflags(write=False)
    return q


# ---------------------------------------------------------------------------
# the inner support solve


# a member of a solve stops at the first update that moves its solution
# by at most _STEP (_iterate). Its exact fixed point is often never
# reached, the last ulps cycling, and spare outputs decay without end
_STEP = 1e-15
# the most rounds of the inner support solve, and the shares of a
# starting row spread evenly over all outputs around its corner
# (_noisy_corner)
_INNER_ROUNDS = 60
_INNER_SPREADS = (0.01, 0.3)
_TINY = np.finfo(np.float64).tiny  # stands in for a zero under a log


def _bottleneck_update(pxy, y_given_x, enc, beta, relevance=None):
    """One self-consistent bottleneck update of a batch of encoders
    enc[b] = q(u|x) on the source p(x, y) (Tishby, Pereira & Bialek 1999):
    q(u|x) ~ q(u) exp(-beta D(p(v|x) || q(v|u))), a Blahut-Arimoto step.

    The relevance v is y itself when relevance is None; else it is the
    output of the channels relevance[b] = q(v|y), so p(v|x) =
    sum_y p(y|x) q(v|y) on the chain u - x - y - v. beta broadcasts
    against (batch, |X|, |U|). beta = inf is the hard limit, the
    co-clustering step of Dhillon, Mallela & Modha (2003): every x goes to
    the first u of least D(p(v|x) || q(v|u)). For a fixed relevance the
    update never lowers beta I(u;v) - I(u;x). Elementwise numpy and
    einsum(optimize=False) only, so no BLAS kernel runs. Every contraction
    is an einsum: an elementwise product-and-sum would round differently
    once the contracted axis has 3 or more letters. With relevance None the
    2-D p(y|x) is contracted as it is, with no batch copy of it. The tests
    keep an earlier form of this body as its bitwise reference.
    """
    px = pxy.sum(axis=1)
    q_u = np.einsum("x,bxu->bu", px, enc, optimize=False)[:, :, None]
    q_uv = np.einsum("xy,bxu->buy", pxy, enc, optimize=False)
    if relevance is not None:
        q_uv = np.einsum("buy,byv->buv", q_uv, relevance, optimize=False)
    # q(u) sums nonnegative terms that each bound a term of q(u, v), so
    # q(u, v) = 0 wherever q(u) = 0 and dividing it by 1 there keeps the 0
    log_decoder = np.log(np.maximum(q_uv / np.where(q_u > 0.0, q_u, 1.0), _TINY))
    # beta * cross = -beta D(p(v|x) || q(v|u)) - beta H(v|x), whose last
    # term is the same for every u of a row and drops out
    if relevance is None:
        cross = np.einsum("xv,buv->bxu", y_given_x, log_decoder, optimize=False)
    else:
        v_given_x = np.einsum("xy,byv->bxv", y_given_x, relevance, optimize=False)
        cross = np.einsum("bxv,buv->bxu", v_given_x, log_decoder, optimize=False)
    if np.isscalar(beta) and beta == math.inf:
        return (np.argmax(cross, axis=2)[:, :, None] == np.arange(enc.shape[2])).astype(np.float64)
    w = np.log(np.maximum(q_u[:, None, :, 0], _TINY)) + beta * cross
    # the row maximum, exact in any order
    top = w[:, :, 0]
    for k in range(1, w.shape[2]):
        top = np.maximum(top, w[:, :, k])
    w = np.exp(w - top[:, :, None])
    return w / w.sum(axis=2, keepdims=True)


def _iterate(update, solution, carry, rounds):
    """The last solution of each member of a batch after up to `rounds`
    updates (solution, carry) = update(solution, carry), as a list of
    arrays.

    solution and carry are tuples of arrays whose axis 0 is the member;
    carry holds what an update needs besides the solution (a member's
    multiplier, a running coupling and its marginals). A member leaves
    the batch, with its carry, at the first update that moves every array
    of its solution by at most _STEP (max-abs; a nan counts as a move),
    and keeps that update's solution. This is the one stop rule of every
    solve; each is an alternating minimization whose objective never
    decreases. An update acts on each member alone, so a member gets the
    floats it gets alone, in any batch."""
    out = [a.copy() for a in solution]
    live = np.arange(len(out[0]))
    while live.size and rounds:
        new, carry = update(solution, carry)
        moves = [np.abs(a - b).reshape(len(live), -1).max(axis=1) for a, b in zip(new, solution)]
        moved = ~(np.max(moves, axis=0) <= _STEP)
        for o, a in zip(out, new):
            o[live] = a
        live, rounds = live[moved], rounds - 1
        solution, carry = (tuple(a[moved] for a in part) for part in (new, carry))
    return out


def _inner_solve(pxz, lam, rows_u, rows_v, rounds):
    """(values, rows_u, rows_v): for each start pair, the better scored of
    its start and its last iterate after up to `rounds` rounds of the
    two-sided solve of l1 I(u;v) + l2 I(u;x) + l3 I(v;z), the start on
    ties.

    With p(v|z) fixed, u - x - v is a Markov chain and the u terms are a
    bottleneck problem of relevance v and beta_u = l1 / -l2; with p(u|x)
    fixed, the v terms are one of relevance u and beta_v = l1 / -l3 (a
    zero weight gives the hard limit, beta = inf). Each round makes one
    _bottleneck_update of p(u|x) and then one of p(v|z), so the objective
    never decreases but by rounding. A pair stops at the first round that
    moves both its channels by at most _STEP (_iterate). The starts and
    the last iterates are scored in one pass, with _batch_inner_stats in
    blocks of at most _DRAW_CELLS joint cells; a batched row is bitwise a
    lone table's, and every update acts on each pair alone, so no value
    depends on the batch or the blocking."""
    z_given_x, x_given_z = _source_conditionals(pxz)
    beta_u = lam.l1 / -lam.l2 if lam.l2 < 0.0 else math.inf
    beta_v = lam.l1 / -lam.l3 if lam.l3 < 0.0 else math.inf

    def update(pair, carry):
        u = _bottleneck_update(pxz, z_given_x, pair[0], beta_u, pair[1])
        return (u, _bottleneck_update(pxz.T, x_given_z.T, pair[1], beta_v, u)), carry

    us, vs = (np.concatenate(side) for side in zip((rows_u, rows_v), _iterate(update, (rows_u, rows_v), (), rounds)))
    cells = pxz.size * rows_u.shape[2] * rows_v.shape[2]
    values = _lam_dot(lam, *_blocked_stats(_batch_inner_stats, pxz, (us, vs), cells))
    n = len(rows_u)
    best = np.arange(n) + n * (values[n:] > values[:n])
    return values[best], us[best], vs[best]


def _merged_labels(pxy, cap):
    """The group of each x when x is clustered into min(cap, |X|) groups
    by agglomerative bottleneck merges (Slonim & Tishby 1999): from one
    group per x, the two groups whose merge loses the least I(group; y)
    merge, the first pair on ties, and groups keep the order of their
    first member. At cap >= |X| this is the identity."""
    py = pxy.sum(axis=0)
    labels = np.arange(len(pxy))
    mass = pxy.copy()

    def info(m):
        # each group's term of I(group; y), from its row of the joint
        ratio = np.divide(m, m.sum(axis=-1, keepdims=True) * py, out=np.ones(m.shape), where=m > 0.0)
        return np.sum(m * np.log(ratio), axis=-1)

    while len(mass) > cap:
        i, j = np.triu_indices(len(mass), 1)
        k = int(np.argmin(info(mass[i]) + info(mass[j]) - info(mass[i] + mass[j])))
        i, j = int(i[k]), int(j[k])
        mass[i] += mass[j]
        mass = np.delete(mass, j, axis=0)
        labels[labels == j] = i
        labels[labels > j] -= 1
    return labels


def _noisy_corner(labels, cap, spread):
    # row x: 1 - spread on output labels[x], spread evenly over all outputs
    rows = np.full((len(labels), cap), spread / cap)
    rows[np.arange(len(labels)), labels] += 1.0 - spread
    return rows


def _posterior_splits(pxy, cap):
    """For each y, the group of each x when x is split into cap groups
    contiguous in the (stable) order of p(y|x), x going to the group of
    its mass midpoint on the cumulative mass scale; none when cap >= |X|.
    For a binary relevance the best hard clustering is contiguous in that
    order (Kurkoski & Yagi 2014)."""
    n = len(pxy)
    if cap >= n:
        return []
    px = pxy.sum(axis=1)
    y_given_x, _ = _source_conditionals(pxy)
    splits = []
    for y in range(pxy.shape[1]):
        order = np.argsort(y_given_x[:, y], kind="stable")
        mid = np.cumsum(px[order]) - 0.5 * px[order]
        labels = np.empty(n, dtype=np.intp)
        labels[order] = np.minimum((mid * cap).astype(np.intp), cap - 1)
        splits.append(labels)
    return splits


def _side_starts(pxy, cap):
    """The start rows of one side of the solves, stacked: the corner of
    x, merged down to the cap by _merged_labels when the cap is smaller
    than |X|, as a noisy corner at spread 0 and at each spread of
    _INNER_SPREADS, then the _posterior_splits corners, if any."""
    labels = _merged_labels(pxy, cap)
    rows = [_noisy_corner(labels, cap, spread) for spread in (0.0, *_INNER_SPREADS)]
    return np.stack(rows + [_noisy_corner(split, cap, 0.0) for split in _posterior_splits(pxy, cap)])


def _inner_starts(pxz, cap_u, cap_v):
    """The start pairs of the inner support solve, stacked, from the
    _side_starts rows of each side: the corner pair at spread 0, then
    the noisy corners of every pair of spreads of _INNER_SPREADS. A side
    whose cap is below its alphabet adds one pair per letter of the other
    source: its _posterior_splits corner with the other side's corner."""
    starts_u, starts_v = _side_starts(pxz, cap_u), _side_starts(pxz.T, cap_v)
    n = 1 + len(_INNER_SPREADS)
    pairs = [(0, 0), *itertools.product(range(1, n), repeat=2)]
    pairs += [(k, 0) for k in range(n, len(starts_u))] + [(0, k) for k in range(n, len(starts_v))]
    iu, iv = np.array(pairs).T
    return starts_u[iu], starts_v[iv]


def _support(pxz, lam, variant, cap_u, cap_v):
    """(value, tables) of a support function: [rows_u, rows_v] for the
    inner variant (_inner_solve from each _inner_starts pair, all in one
    batch, for up to _INNER_ROUNDS rounds), else [q] of shape (|X|, |Z|,
    cap_u, cap_v) (_outer_solve); the best solved member, the first on
    ties. Nothing is drawn.

    The constant pair's (mu, r1, r2) is (0, 0, 0) by definition, not a
    score. A solved value within the clamp's float noise of it (1e-12 per
    measure, weighted by |l1| + |l2| + |l3|) is rounding and does not
    lift it, so a direction whose optimum is the constant pair returns
    exactly 0. On a degenerate direction, where constant channels are
    provably optimal, the constant pair is returned without a solve.
    """
    nx, nz = pxz.shape
    if variant == "inner":
        constant = [_constant_rows(nx, cap_u), _constant_rows(nz, cap_v)]
    else:
        constant = [_constant_rows(nx * nz, cap_u * cap_v).reshape(nx, nz, cap_u, cap_v)]
    if not lam.degenerate:
        if variant == "inner":
            values, *tables = _inner_solve(pxz, lam, *_inner_starts(pxz, cap_u, cap_v), _INNER_ROUNDS)
        else:
            values, *tables = _outer_solve(pxz, lam, variant, cap_u, cap_v)
        k = int(np.argmax(values))
        if values[k] > _NEG_TOL * (lam.l1 - lam.l2 - lam.l3):
            return float(values[k]), [t[k] for t in tables]
    return 0.0, constant


def _blocked_stats(stats, pxz, tables, cells):
    """The columns of stats(pxz, *tables) (_batch_inner_stats,
    _batch_ib_stats, _chain_map), scored a block of at most _DRAW_CELLS
    joint cells at a time; a table's joint has `cells`."""
    size = max(1, _DRAW_CELLS // cells)
    if len(tables[0]) <= size:
        return stats(pxz, *tables)
    blocks = (stats(pxz, *(t[lo : lo + size] for t in tables)) for lo in range(0, len(tables[0]), size))
    return tuple(np.concatenate(col) for col in zip(*blocks))


# ---------------------------------------------------------------------------
# the outer support solve


# each side's bottleneck family runs the multipliers 2 ** (k / 4), k <
# _POOL_BETAS (1 to 1024), from each start row for up to _POOL_ROUNDS
# updates; each of _POOL_ZOOMS zoom rounds adds _POOL_ZOOM_POINTS
# multipliers over one grid step on each side of a side's best, the step
# halved each round. "ro" solves the couplings of the _COUPLED_PAIRS best
# pairs by alternating I-projection (_coupled), as the DSBS outer curve
# solves its caps', for up to _COUPLING_ROUNDS rounds: a fixed 100 rounds
# leaves the DSBS caps up to 1.9e-4 short at p = 0.001.
_POOL_BETAS = 41
_POOL_ROUNDS = 40
_POOL_ZOOMS = 8
_POOL_ZOOM_POINTS = 9
_COUPLED_PAIRS = 16
_COUPLING_ROUNDS = 2000


def _outer_solve(pxz, lam, variant, cap_u, cap_v):
    """(values, q): the scored tables q(u,v|x,z) of an outer support
    function, mapped onto the short chains; see support_function.

    "ro_prime" maps the long-chain table of the _outer_pool pair of best
    ro_prime value, the first on ties; "ro" solves the couplings of the
    _COUPLED_PAIRS pairs of largest ro_prime value (an upper bound on
    their ro value), the first on ties and the inner pair always among
    them, and scores their long-chain and solved tables."""
    rows_u, rows_v, scores = _outer_pool(pxz, lam, cap_u, cap_v)
    if variant == "ro_prime":
        pairs = np.argmax(scores)[None]
    else:
        pairs = np.argsort(-scores, axis=None, kind="stable")[:_COUPLED_PAIRS]
        if 0 not in pairs:
            pairs[-1] = 0  # the inner pair
    i, j = np.unravel_index(pairs, scores.shape)
    q = rows_u[i][:, :, None, :, None] * rows_v[j][:, None, :, None, :]
    if variant == "ro":
        q = np.concatenate([q, _coupled(pxz, q, _COUPLING_ROUNDS)])
    q, values = _scored_outer(pxz, lam, variant, q)
    return values, q


def _scored_outer(pxz, lam, variant, q):
    """(tables, values): a batch of tables q(u,v|x,z) mapped onto the
    short chains (_mapped), and each mapped table's objective for the
    variant."""
    q, st = _mapped(pxz, q)
    return q, _lam_dot(lam, _region_mu(st, variant), st[:, 0], st[:, 1])


def _mapped(pxz, q):
    """_chain_map of a batch of tables q(u,v|x,z), a block of at most
    _DRAW_CELLS joint cells at a time: (mapped tables, their stats)."""
    cond = _source_conditionals(pxz)
    return _blocked_stats(lambda pxz, t: _chain_map(pxz, t, cond), pxz, (q,), q[0].size)


def _outer_pool(pxz, lam, cap_u, cap_v):
    """(rows_u, rows_v, scores): the channel pool of each side of the
    outer support solve, p(u|x) of cap_u outputs and p(v|z) of cap_v,
    and the ro_prime value l1 min(I(u;z), I(v;x)) + l2 I(u;x) +
    l3 I(v;z) of every pair, scores[i, j] for (rows_u[i], rows_v[j]).

    Member 0 of each side is its channel of the inner solve's best pair
    (_support), so pair 0 is that pair. Then come the side's start
    rows (_side_starts) and the side's bottleneck family: every start row
    run at every multiplier of the schedule (_POOL_BETAS) to its fixed
    point (_fixed_point), with the relevance z for p(u|x) and x for
    p(v|z), the members whose (rate, relevance) points trace each side's
    bottleneck curve. Each zoom round then runs _POOL_ZOOM_POINTS
    multipliers around the multiplier of each side's best member
    (_side_best), warm-started from it; a best member that is not of a
    family (member 0 or a start row) is not zoomed."""
    z_given_x, x_given_z = _source_conditionals(pxz)
    _, (inner_u, inner_v) = _support(pxz, lam, "inner", cap_u, cap_v)
    sides = []
    for pxy, y_given_x, cap, inner in ((pxz, z_given_x, cap_u, inner_u), (pxz.T, x_given_z.T, cap_v, inner_v)):
        starts = _side_starts(pxy, cap)
        betas = np.tile(2.0 ** (np.arange(_POOL_BETAS) / 4.0), len(starts))
        family = _fixed_point(pxy, y_given_x, np.repeat(starts, _POOL_BETAS, axis=0), betas, _POOL_ROUNDS)
        # each member's multiplier, nan for member 0 and the start rows
        betas = [np.full(1 + len(starts), np.nan), betas]
        sides.append((pxy, y_given_x, [inner[None], starts, family], betas))
    for zoom in range(_POOL_ZOOMS + 1):
        rows = [np.concatenate(side[2]) for side in sides]
        stats = [
            _blocked_stats(_batch_ib_stats, pxy, (r,), r[0].size * pxy.shape[1])
            for (pxy, *_), r in zip(sides, rows)
        ]
        if zoom == _POOL_ZOOMS:
            break
        for k, (pxy, y_given_x, parts, betas) in enumerate(sides):
            j = _side_best(lam, k, stats)
            beta = np.concatenate(betas)[j]
            if math.isfinite(beta):
                near = beta * 2.0 ** (np.linspace(-0.25, 0.25, _POOL_ZOOM_POINTS) / 2**zoom)
                start = np.broadcast_to(rows[k][j], (len(near), *rows[k][j].shape))
                parts.append(_fixed_point(pxy, y_given_x, start, near, _POOL_ROUNDS))
                betas.append(near)
    (r_u, iuz), (r_v, ivx) = stats
    # min(iuz, ivx) keeps iuz on ties, as _region_mu
    mu = np.where(ivx[None, :] < iuz[:, None], ivx[None, :], iuz[:, None])
    return rows[0], rows[1], _lam_dot(lam, mu, r_u[:, None], r_v[None, :])


def _fixed_point(pxy, y_given_x, enc, betas, rounds):
    """A batch of encoders enc[b] after up to `rounds` bottleneck updates
    at the multiplier betas[b] with relevance y (_bottleneck_update), each
    member stopping at the first update that moves it by at most _STEP
    (_iterate), so a member gets the same floats in any batch."""

    def update(solution, carry):
        return (_bottleneck_update(pxy, y_given_x, solution[0], carry[0]),), carry

    (enc,) = _iterate(update, (enc,), (betas[:, None, None],), rounds)
    return enc


def _side_best(lam, k, stats):
    """The index of the best member of side k (0 for u, 1 for v) of the
    pool, stats[k] = (rates, relevances) of each side: the member whose
    ro_prime value is largest when it is paired with the other side's
    curve at its own relevance. That curve is the upper concave envelope
    of the other side's points up to its top, read inverse (time sharing
    between members), so a member above its top has no partner. Unlike a
    pair of members, whose relevances rarely match, it ranks each member
    by the balanced pair its neighbourhood could make."""
    (rate, level), (other_rate, other_level) = stats[k], stats[1 - k]
    own, other = (lam.l2, lam.l3) if k == 0 else (lam.l3, lam.l2)
    knots = upper_concave_envelope(zip(other_rate.tolist(), other_level.tolist())).knots
    rates, levels = zip(*knots[: 1 + max(range(len(knots)), key=lambda i: knots[i][1])])
    proxy = lam.l1 * level + own * rate + other * np.interp(level, levels, rates)
    return int(np.argmax(np.where(level <= levels[-1], proxy, -np.inf)))


def _coupled(pxz, q, rounds):
    """The tables of a batch q(u,v|x,z) recoupled toward the least
    I(x,z;u,v) for their cell marginals q(u|x,z) and q(v|x,z), by up to
    `rounds` rounds of alternating I-projection (Csiszar & Tusnady 1984).

    For fixed cell marginals, I(x,z;u,v) = min over r(u,v) of
    sum p(x,z) D(q(.|x,z) || r), convex in both. A round scales each
    cell of the running coupling to the u and then the v marginal
    (Sinkhorn), the I-projection of r onto the cell's marginals
    warm-started from the last, and sets r to the (u,v) marginal of the
    result. The first coupling is the (u,v) marginal of q itself. A cell
    of zero source mass keeps its own table, and rounds = 0 returns q.
    A table stops at the first round that moves it by at most _STEP
    (_iterate), round 0's table being q, and the running coupling, its
    (u,v) marginal and the cell marginals ride along as its carry. Each
    table's last iterate is returned; its callers score it against the
    table it started from and keep the better, the start on ties.
    Elementwise numpy and einsum(optimize=False) only, so every table is
    solved on its own, with the floats it gets alone."""
    live_cells = pxz[:, :, None, None] > 0.0
    r = np.einsum("xz,bxzuv->buv", pxz, q, optimize=False)[:, None, None]
    carry = np.broadcast_to(r, q.shape), r, q.sum(axis=4, keepdims=True), q.sum(axis=3, keepdims=True)

    def update(solution, carry):
        coupling, r_old, u_rows, v_rows = carry
        coupling = coupling * _ratio(u_rows, coupling.sum(axis=4, keepdims=True))
        out = coupling * _ratio(v_rows, coupling.sum(axis=3, keepdims=True))
        r = np.einsum("xz,bxzuv->buv", pxz, out, optimize=False)[:, None, None]
        return (np.where(live_cells, out, solution[0]),), (out * _ratio(r, r_old), r, u_rows, v_rows)

    (solved,) = _iterate(update, (q,), carry, rounds)
    return solved


def _ratio(a, b):
    # a / b, 0 where b is 0
    return np.divide(a, b, out=np.zeros(np.broadcast_shapes(a.shape, b.shape)), where=b > 0.0)


# ---------------------------------------------------------------------------
# symmetric binary boundaries


def _sb_curve_points(p, alphas):
    """The (r, mu) points (ln 2 - h_b(alpha), ln 2 - h_b(alpha * p * alpha))
    of the long-chain BSC(alpha) pairs on the DSBS(p), as two float arrays,
    for a float array of alphas in [0, 1/2]: one array pass, bit for bit the
    scalar binary_entropy and binary_convolution values (the convolutions
    are the same IEEE operations, and h_b is the same body)."""
    r, mu = LOG2 - _hb_closed_array(np.stack([alphas, _bconv(_bconv(alphas, p), alphas)]))
    return r, mu


def dsbs_alpha_grid(r_grid=()):
    """Uniform 201-point alpha grid on [0, 1/2] joined with points
    aligned to given abscissae.

    Comparing two sampled boundary curves is only meaningful when both
    are built over the same parameter set; putting the outer curve's
    long-chain BSC points on the inner curve's grid makes the dominance
    check structural instead of resolution-dependent.
    """
    alphas = [float(a) for a in np.linspace(0.0, 0.5, 201)]
    rs = np.array([float(r) for r in r_grid])
    rs = rs[(0.0 <= rs) & (rs <= LOG2)]
    alphas += binary_entropy_inverses(np.minimum(np.maximum(LOG2 - rs, 0.0), LOG2)).tolist()
    return sorted(set(alphas))


def dsbs_inner_boundary(p, alpha_grid):
    """Envelope of the closed-form symmetric-rate inner boundary points."""
    p = _check_probability(p, "dsbs_inner_boundary")
    if p > 0.5:
        raise DomainError(f"dsbs_inner_boundary p={p} outside [0, 1/2]")
    alphas = np.array([float(a) for a in alpha_grid], dtype=np.float64)
    bad = np.flatnonzero(~((alphas >= -_NEG_TOL) & (alphas <= 0.5)))  # nan too
    if bad.size:
        # the first bad alpha raises the error the scalar checks give it
        a = _check_probability(float(alphas[bad[0]]), "dsbs_inner_boundary")
        raise DomainError(f"alpha={a} outside [0, 1/2]")
    r, mu = _sb_curve_points(p, np.maximum(alphas, 0.0))
    return upper_concave_envelope(zip(r.tolist(), mu.tolist()))


# The name keeps "sampled", though nothing is drawn, because the benchmark's
# tracer reports this function's time as optimize.dsbs_outer_s under it.
def dsbs_outer_boundary_sampled(p, r_grid):
    """Symmetric-rate outer boundary for the DSBS: the upper concave
    envelope of two kinds of (max(r1, r2), mu_ro) points, with no draw.

    - The long-chain BSC points on dsbs_alpha_grid(r_grid); they are
      feasible here too, so the result dominates an inner curve built on
      the same grid.
    - At each cap r of r_grid in [0, ln 2], the BSC(alpha) pair,
      alpha = h_b^-1(ln 2 - r), with the coupling of largest mu_ro
      (least I(x,z;u,v)), solved from the long chain by alternating
      I-projection (_coupled) and mapped onto the short chains
      (_chain_map); its point lies at abscissa r up to the solve's
      convergence. A cap above ln 2 has no such pair and is skipped.

    The auxiliaries of both kinds are binary, and the curve depends on p
    and r_grid alone.
    """
    p = _check_probability(p, "dsbs_outer_boundary_sampled")
    if not 0.0 < p < 0.5:
        raise DomainError(f"dsbs_outer_boundary_sampled needs p in (0, 1/2), got {p}")
    r_grid = [float(r) for r in r_grid]
    for r in r_grid:
        if not math.isfinite(r) or r < 0.0:
            raise DomainError(f"grid abscissa {r} must be finite and nonnegative")
    pxz = dsbs(p).mass

    r, mu = _sb_curve_points(p, np.array(dsbs_alpha_grid(r_grid)))
    points = list(zip(r.tolist(), mu.tolist()))
    alphas = binary_entropy_inverses(LOG2 - np.array([r for r in sorted(set(r_grid)) if r <= LOG2]))
    if alphas.size:
        rows = np.stack([np.stack([1.0 - alphas, alphas], -1), np.stack([alphas, 1.0 - alphas], -1)], 1)
        q = rows[:, :, None, :, None] * rows[:, None, :, None, :]
        _, st = _mapped(pxz, _coupled(pxz, q, _COUPLING_ROUNDS))
        # max(iux, ivz) keeps iux on ties, as Python's max
        rate = np.where(st[:, 1] > st[:, 0], st[:, 1], st[:, 0])
        points += zip(rate.tolist(), st[:, 4].tolist())
    return upper_concave_envelope(points)


# ---------------------------------------------------------------------------
# bottleneck curve


# the bottleneck family of ib_curve for |X| > 2: the k-th multiplier of
# I(u;x) - beta I(u;z) is (_IB_POINTS / k) ** 1.5, so the slopes 1 / beta
# are dense both near 1, where a nearly noiseless source's curve bends
# slowly, and near 0, by H(x); each runs for up to _IB_ITERATIONS updates
_IB_POINTS = 128
_IB_ITERATIONS = 100


def ib_curve(p_xz, r_grid):
    """Upper concave envelope of (I(u;x), I(u;z)) over the constant and
    identity channels and solved test channels. The constant channel's
    point is (0, 0) by definition, not a score; the identity's is scored,
    once. The solved points of either kind below go through
    upper_concave_envelope with those two.

    For a binary x the solved channels are exact: each abscissa r of
    r_grid strictly between the clamp's float noise (1e-12) and 1e-12
    below the identity's rate is solved for the two posteriors whose pair
    is a bottleneck optimum of rate r, and each solved pair's (rate,
    relevance) is a knot (bottleneck._two_posterior_knots). So the curve
    reads each such abscissa at its solved point. An abscissa within
    1e-12 of 0 reads the chord from (0, 0), one within 1e-12 below the
    identity's rate the chord to the identity, and one at or above it
    the identity.

    For |X| > 2, r_grid adds no knot: the solved channels are a bottleneck
    family with |X| + 1 outputs, the cardinality bound, the identity at
    spread _INNER_SPREADS[0] (_noisy_corner; at 0 the spare output is
    never used, and a large share dies slowly) run at each multiplier of
    the schedule (_IB_POINTS) with relevance z, all in one batch, as a
    side family of the outer pool (_fixed_point): each member stops at the
    first update that moves it by at most 1e-15 (max-abs), or after
    _IB_ITERATIONS updates, and keeps its last iterate. A family channel
    counts only when its rate lies strictly between the identity's and
    1e-12, so no rounding lifts (0, 0) or (H(x), I(x;z)).

    Nothing is drawn: the curve depends on the source and r_grid alone."""
    if len(p_xz.axes) != 2:
        raise DomainError(f"ib_curve needs a two-axis source, got {p_xz.labels}")
    rates = np.asarray(r_grid, dtype=np.float64).ravel()
    if not np.all(np.isfinite(rates)):
        raise DomainError("ib_curve needs finite abscissae")
    pxz = p_xz.mass
    nx = pxz.shape[0]
    (r_id,), (mu_id,) = _batch_ib_stats(pxz, _noisy_corner(np.arange(nx), nx + 1, 0.0)[None])
    if nx == 2:
        # imported here, so that only a binary-x curve compiles its solver
        from .bottleneck import _two_posterior_knots

        # the abscissae strictly inside (0, r_id) past rounding, and none
        # when the identity's relevance is not positive
        r, mu = _two_posterior_knots(pxz, rates[(rates > _NEG_TOL) & (rates < r_id - _NEG_TOL) & (mu_id > 0.0)])
    else:
        z_given_x, _ = _source_conditionals(pxz)
        start = _noisy_corner(np.arange(nx), nx + 1, _INNER_SPREADS[0])
        # computed here, not at import, where numpy's power loop costs 0.3 MiB
        betas = (_IB_POINTS / np.arange(1, _IB_POINTS + 1)) ** 1.5
        family = _fixed_point(pxz, z_given_x, np.broadcast_to(start, (_IB_POINTS, *start.shape)), betas, _IB_ITERATIONS)
        r, mu = _blocked_stats(_batch_ib_stats, pxz, (family,), pxz.size * (nx + 1))
        keep = (r > _NEG_TOL) & (r < r_id)
        r, mu = r[keep], mu[keep]
    return upper_concave_envelope(zip(np.append([0.0, r_id], r).tolist(), np.append([0.0, mu_id], mu).tolist()))


# ---------------------------------------------------------------------------
# conjecture margin search


def conjecture_test(p, cfg):
    """Margin search for the binary-source inequality conjecture.

    For each sampled channel pair, alpha and beta are set to the tightest
    admissible parameters (turning the two rate inequalities into
    equalities) and the reported margin is the slack of the third
    inequality; a negative minimum is a counterexample candidate.

    The domain is p in (0, 1/2]. At p = 0, x = z and the inequality is
    false, so p = 0 raises DomainError, as does p outside [0, 1/2]. At
    p <= 0.01 it reports counterexample candidates (the label path
    confirms them): seed 1 and 3000 draws give -1.3e-3 at p = 0.001.
    """
    p = _check_probability(p, "conjecture_test")
    if p == 0.0:
        raise DomainError(
            "conjecture_test needs p in (0, 1/2], got 0: at p = 0, x = z and "
            "the conjectured inequality is false"
        )
    if p > 0.5:
        raise DomainError(f"conjecture_test needs p in (0, 1/2], got {p}")
    pxz = dsbs(p).mass
    shapes = [(2, cfg.cap_u or 2), (2, cfg.cap_v or 2)]
    # draws per tail chunk: the chunk's tables hold at most _DRAW_FLOATS floats
    chunk = max(1, _DRAW_FLOATS // sum(rows * cols for rows, cols in shapes))
    worst = None
    blocks, stats = [], []
    for lo, tables, st in _scored_draws(cfg, pxz, shapes, _batch_inner_stats):
        if blocks and lo + len(st[0]) - blocks[0][0] > chunk:
            worst = _conjecture_tail(p, worst, blocks, stats)
            blocks, stats = [], []
        blocks.append((lo, tables))
        stats.append(st)
    worst = _conjecture_tail(p, worst, blocks, stats)
    worst["samples"] = cfg.count
    worst["p"] = p
    return worst


def _conjecture_tail(p, worst, blocks, stats):
    """conjecture_test's report after one chunk of consecutive scoring
    blocks (lo, tables), stats[k] the _batch_inner_stats of block k: the
    tail runs once over the chunk, with one h_b^-1 call for both rate
    equalities. The first minimum wins: argmin within a chunk, a strict <
    against worst, the report of the chunks before."""
    iuv, iux, ivz = (np.concatenate(col) for col in zip(*stats))
    h = np.minimum(np.maximum(LOG2 - np.stack([iux, ivz]), 0.0), LOG2)
    alpha, beta = binary_entropy_inverses(h)
    margin = LOG2 - _hb_closed_array(_bconv(_bconv(alpha, p), beta)) - iuv
    j = int(np.argmin(margin))
    if worst is not None and not margin[j] < worst["min_margin"]:
        return worst
    start = blocks[0][0]
    k = bisect.bisect_right([lo for lo, _ in blocks], start + j) - 1
    lo, (rows_u, rows_v) = blocks[k]
    b = start + j - lo
    return {
        "min_margin": float(margin[j]),
        "worst_index": start + j,
        "worst_ch_u": rows_u[b].copy(),
        "worst_ch_v": rows_v[b].copy(),
        "alpha": float(alpha[j]),
        "beta": float(beta[j]),
    }


# ---------------------------------------------------------------------------
# cardinality robustness


def cardinality_robustness(p_xz, lams, cfg, variant="inner"):
    """Support-function values at source-size caps versus caps plus one.

    The cardinality reductions predict a difference of zero; the report
    carries the difference per direction. Every variant is solved (see
    support_function): it reads no seed, count or refinement field of
    cfg and draws nothing. The inner difference stays within rounding of
    zero; an outer one is that of two deterministic pools, one per cap,
    and so can differ from zero by the pools' resolution (2.4e-5 on the
    tests' cases).
    """
    nx, nz = p_xz.mass.shape
    report = []
    for lam in lams:
        base, _ = support_function(p_xz, lam, replace(cfg, cap_u=nx, cap_v=nz), variant)
        plus, _ = support_function(
            p_xz, lam, replace(cfg, cap_u=nx + 1, cap_v=nz + 1), variant
        )
        report.append(
            {
                "lam": (lam.l1, lam.l2, lam.l3),
                "value_base": base,
                "value_plus": plus,
                "difference": plus - base,
            }
        )
    return report


def sample_region_points(p_xz, cfg, variant="inner"):
    """Raw sampled (mu, r1, r2) triples for one region variant, as one
    (cfg.count, 3) float64 array with columns mu, r1, r2.

    One row per draw index, in index order; outer draws are mapped onto
    the short chains (_chain_map). Every row is checked as a RegionPoint,
    all at once, and the first offending row raises RegionPoint's
    ConstraintError. A table of more than 10^7 cells (the cap JointPmf
    and source files share) raises SizeError before anything is drawn.
    This is the dump behind the CLI's region-sample command.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"unknown variant {variant!r}, expected one of {_VARIANTS}")
    if len(p_xz.axes) != 2:
        raise DomainError(f"the source must have two axes, got {p_xz.labels}")
    _check_cells(3 * cfg.count, "the region point table has")
    pxz = p_xz.mass
    nx, nz = pxz.shape
    cap_u = cfg.cap_u if cfg.cap_u is not None else nx
    cap_v = cfg.cap_v if cfg.cap_v is not None else nz
    if variant == "inner":
        shapes, stats = [(nx, cap_u), (nz, cap_v)], _batch_inner_stats
    else:
        shapes, cond = [(nx * nz, cap_u * cap_v)], _source_conditionals(pxz)

        def stats(pxz, flat):
            st = _chain_map(pxz, flat.reshape(len(flat), nx, nz, cap_u, cap_v), cond)[1]
            return _region_mu(st, variant), st[:, 0], st[:, 1]

    points = np.empty((cfg.count, 3))
    for lo, _, st in _scored_draws(cfg, pxz, shapes, stats):
        points[lo : lo + len(st[0])].T[:] = st
    _check_region_points(*points.T)
    return points
