"""Sampling-based optimizers for the bound regions.

Support-function maximization over Markov-constrained auxiliary channels,
deterministic hill-climb refinement, upper concave envelopes, the
symmetric-binary boundary curves, the bottleneck curve, the conjecture
margin search, and the cardinality robustness report.

Determinism contract: draws come in blocks of _DRAW_BLOCK. Block k of a
seed comes from one substream (seed, k), one flat-Dirichlet array of
_DRAW_BLOCK draws per shape, in order, and draw i is entry
i % _DRAW_BLOCK of block i // _DRAW_BLOCK. A block larger than
_DRAW_FLOATS floats is drawn in pieces with the same bits
(_draw_pieces); _draws_at gives single draws. So a draw depends only on
the seed, its index and the shapes. Every reduction is an associative
max or min with lowest-index tie-break, and no BLAS-backed kernels are
used, so a run is bit-reproducible for any thread count. A piece of a
draw block is scored in blocks of at most _DRAW_CELLS joint cells, with
one call of probability.batch_entropies each, which builds all the marginals of
every table with np.bincount over a cached index plan and sums them in
a fixed order, with elementwise operations only; its rows are bitwise
equal to one table's, so no result depends on the scoring block size.
The conjecture tail scores a block as arrays too, with one h_b^-1 call
(probability.binary_entropy_inverses) for both rate equalities. Outer
candidates are feasible by construction: every draw, baseline and
refinement proposal goes through one closed-form map onto the two short
chains (_chain_map), a block of tables per call, with the floats each
table would get alone, and every outer table scored is checked to hold
both chains (_checked_outer_stats).

Refinement runs in lockstep (_lockstep): all the candidates one call
refines climb together, and each step scores the "+" and "-" proposals
of all of them with one objective call per scoring block of at most
_DRAW_CELLS joint cells (_in_scoring_blocks): one batch_entropies call
for the inner and bottleneck objectives and one batched chain map for
the outer ones. A candidate gets exactly the decisions of a climb of its
own, so its result does not depend on which candidates share its batch.
The DSBS outer curve draws nothing and is not refined: it is the
envelope of the long-chain BSC points and, at each rate cap of at most
ln 2, the best point of a deterministic grid-and-zoom search over the
Frechet couplings of a BSC pair (_coupling_solve); its auxiliaries are
binary.
"""

import copy
import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InternalCheckError, SizeError
from .probability import (
    LOG2,
    Alphabet,
    Channel,
    binary_convolution,
    binary_entropy,
    binary_entropy_inverses,
    batch_entropies,
    dsbs,
    _bconv,
    _check_probability,
    _clamp_measures,
    _hb_closed_array,
    _is_int,
    _is_real,
)
from .regions import MARKOV_TOL, RegionPoint

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
    bounds under which the regions are already exhausted.
    """

    seed: int
    count: int = 100000
    cap_u: int = None
    cap_v: int = None
    refine_top: int = 100
    refine_steps: int = 500
    step_size: float = 0.05

    def __post_init__(self):
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not _is_int(self.count) or self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count!r}")
        for name in ("cap_u", "cap_v"):
            v = getattr(self, name)
            if v is not None and (not _is_int(v) or v < 1):
                raise DomainError(f"{name} must be a positive integer or None, got {v!r}")
        if not _is_int(self.refine_top) or self.refine_top < 0:
            raise DomainError(f"refine_top must be >= 0, got {self.refine_top!r}")
        _check_budget("refine_steps", self.refine_steps, self.step_size)


def _check_budget(steps_name, steps, step_size):
    # a hill-climb budget: a step count >= 0 and a finite positive step size
    if not _is_int(steps) or steps < 0:
        raise DomainError(f"{steps_name} must be an integer >= 0, got {steps!r}")
    if not _is_real(step_size) or step_size <= 0:
        raise DomainError(f"step_size must be finite and positive, got {step_size!r}")


@dataclass(frozen=True)
class EnvelopeCurve:
    """Piecewise-linear concave upper boundary in the (R, mu) plane."""

    knots: tuple

    def __post_init__(self):
        knots = tuple((float(r), float(m)) for r, m in self.knots)
        if not knots:
            raise SizeError("an EnvelopeCurve needs at least one knot")
        for r, m in knots:
            if not (math.isfinite(r) and math.isfinite(m)):
                raise DomainError(f"knot ({r}, {m}) is not finite")
        for (r0, _), (r1, _) in zip(knots, knots[1:]):
            if not r1 > r0:
                raise DomainError(f"knot abscissae must increase strictly: {r0} then {r1}")
        for a, b, c in zip(knots, knots[1:], knots[2:]):
            if _cross(a, b, c) > 0.0:
                raise DomainError(f"knots {a}, {b}, {c} break concavity")
        object.__setattr__(self, "knots", knots)

    @property
    def r_min(self):
        return self.knots[0][0]

    @property
    def r_max(self):
        return self.knots[-1][0]

    def value_at(self, r):
        """Linear interpolation; constant extension outside [r_min, r_max]."""
        xs = [k[0] for k in self.knots]
        ys = [k[1] for k in self.knots]
        return float(np.interp(r, xs, ys))


def _cross(a, b, c):
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
    pts.sort()
    merged = []
    for r, m in pts:
        if merged and merged[-1][0] == r:
            if m > merged[-1][1]:
                merged[-1] = (r, m)
        else:
            merged.append((r, m))
    hull = []
    for pt in merged:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) >= 0.0:
            hull.pop()
        hull.append(pt)
    return EnvelopeCurve(tuple(hull))


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
# so the joints of a call stay bounded on a large alphabet (128 draws of a
# 2x2x2x2 joint, one draw of any joint past 2048 cells). No result depends
# on it, since a batched row is bitwise equal to one table's.
_DRAW_CELLS = 1 << 11


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


def _draws_at(seed, indices, shapes):
    """{i: tables of draw i} for the given draw indices: one table per
    shape, bitwise the tables a sampler scores. Each draw block is drawn
    once, up to the last draw asked of it."""
    wanted = {}
    for i in indices:
        wanted.setdefault(i // _DRAW_BLOCK, set()).add(i % _DRAW_BLOCK)
    out = {}
    for k, entries in wanted.items():
        for lo, tables in _draw_pieces(seed, k, shapes, max(entries) + 1):
            for b in entries & set(range(lo, lo + len(tables[0]))):
                out[k * _DRAW_BLOCK + b] = [t[b - lo].copy() for t in tables]
    return out


def _draw(seed, index, shapes):
    """Draw `index` of a seed alone; see _draws_at."""
    return _draws_at(seed, [index], shapes)[index]


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


def _stack(candidates):
    # one batch array per table kind from a list of candidates' table lists
    return [np.stack(kind) for kind in zip(*candidates)]


def _stats_rows(pxz, stats, candidates):
    # stats (_batch_inner_stats or _batch_ib_stats) of each candidate, a list
    # of tables, as one tuple of floats per candidate
    return list(zip(*(c.tolist() for c in stats(pxz, *_stack(candidates)))))


def _scored_draws(cfg, pxz, shapes, stats):
    """(lo, tables, scores) of every scoring block of cfg's draws, in index
    order: tables as _drawn gives them and scores = stats(pxz, *tables)
    (_batch_inner_stats or _batch_ib_stats), arrays with one entry per
    draw."""
    for lo, tables in _drawn(cfg, shapes, pxz.size * math.prod(cols for _, cols in shapes)):
        yield lo, tables, stats(pxz, *tables)


def sample_channel(input_size, output_size, rng, input_label="x", output_label="u"):
    """Random channel with rows drawn from the flat Dirichlet."""
    if not _is_int(input_size) or input_size < 1:
        raise DomainError(f"input_size must be >= 1, got {input_size!r}")
    if not _is_int(output_size) or output_size < 1:
        raise DomainError(f"output_size must be >= 1, got {output_size!r}")
    rows = rng.dirichlet(np.ones(output_size), size=input_size)
    return Channel(Alphabet(input_size, input_label), Alphabet(output_size, output_label), rows)


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
    w = pxz[:, :, None, None] * rows_u[:, :, None, :, None] * rows_v[:, None, :, None, :]
    h_x, h_z, h_u, h_v, h_uv, h_xu, h_zv = batch_entropies(w, _INNER_GROUPS).T
    return (
        _clamp_measures(h_u + h_v - h_uv),
        _clamp_measures(h_x + h_u - h_xu),
        _clamp_measures(h_z + h_v - h_zv),
    )


def _batch_ib_stats(pxz, rows):
    """(I(u;x), I(u;z)) of a batch of test channels p(u|x) on the source."""
    h = batch_entropies(pxz[:, :, None] * rows[:, :, None, :], _IB_GROUPS)
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
    h = batch_entropies(pxz[:, :, None, None] * q, _OUTER_GROUPS)
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


def _stats_dicts(stats):
    # one dict of floats per row of _batch_outer_stats
    return [dict(zip(_OUTER_KEYS, row)) for row in stats.tolist()]


def _source_conditionals(pxz):
    """(p(z|x), p(x|z)) of a source; the row of a zero-mass symbol is
    uniform, so its cells are still mapped to conditional tables."""
    px = np.sum(pxz, axis=1)[:, None]
    pz = np.sum(pxz, axis=0)[None, :]
    z_given_x = np.divide(pxz, px, out=np.full(pxz.shape, 1.0 / pxz.shape[1]), where=px > 0.0)
    x_given_z = np.divide(pxz, pz, out=np.full(pxz.shape, 1.0 / pxz.shape[0]), where=pz > 0.0)
    return z_given_x, x_given_z


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
    Returns (q, stats): the mapped batch and, per table, the
    _batch_outer_stats of its row as a dict of floats, checked by
    _checked_outer_stats.
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
    return out, _stats_dicts(_checked_outer_stats(pxz, out))


def _constant_rows(n_rows, n_cols):
    rows = np.zeros((n_rows, n_cols))
    rows[:, 0] = 1.0
    return rows


# ---------------------------------------------------------------------------
# support function


def _lam_dot(lam, mu, r1, r2):
    return lam.l1 * mu + lam.l2 * r1 + lam.l3 * r2


def _region_mu(st, variant):
    # the co-information coordinate of an outer variant
    return st["mu_ro"] if variant == "ro" else min(st["iuz"], st["ivx"])


def _lockstep(tables, value_fn, steps, step_size):
    """Deterministic round-robin hill climb of a batch of candidates in step.

    tables[t][b] is row-stochastic table t of candidate b; every candidate
    has the same table shapes. value_fn(trial, idx) scores the proposals
    trial of the candidates idx of the batch and returns (values,
    canonical tables), a value of -inf marking an infeasible proposal; it
    may overwrite trial. Step s nudges entry s mod (entries per candidate)
    by +delta and by -delta, delta = step_size * 0.9 ** (s // 50), and
    scores both in one value_fn call, so idx may name a candidate twice;
    the "-" result counts only for the candidates whose "+" proposal was
    infeasible or did not improve. A nudge clips its row at 0 and
    renormalizes it, and a row clipped to all zeros is no proposal. So
    each candidate gets exactly the decisions of a climb of its own,
    whatever else shares its batch, and its objective never decreases.
    Returns (values, tables).
    """
    best, tables = value_fn(tables, np.arange(len(tables[0])))
    if np.any(best == -np.inf):
        raise DomainError("refinement started from an infeasible candidate")
    shapes = [t.shape[1:] for t in tables]
    sizes = [math.prod(shape) for shape in shapes]
    total = sum(sizes)
    for s in range(steps):
        delta = step_size * 0.9 ** (s // 50)
        k = s % total
        t = 0
        while k >= sizes[t]:
            k -= sizes[t]
            t += 1
        r, c = divmod(k, shapes[t][1])
        # row r of every candidate nudged by +delta (sign 0) and -delta (sign 1),
        # clipped and renormalized; a row of zero mass is no proposal
        nudged = tables[t][:, r] + np.zeros((2, 1, 1))
        nudged[0, :, c] += delta
        nudged[1, :, c] -= delta
        nudged = np.maximum(nudged, 0.0)
        mass = nudged.sum(axis=2, keepdims=True)
        pending = mass[:, :, 0] > 0.0
        np.divide(nudged, mass, out=nudged, where=pending[:, :, None])
        # both signs in one value_fn call, every "+" proposal before every "-"
        sign, who = pending.nonzero()
        if not who.size:
            continue
        trial = [tab[who] for tab in tables]
        trial[t][:, r] = nudged[sign, who]
        values, trial = value_fn(trial, who)
        up = values > best[who]
        # an accepted "+" move ends its candidate's step, so its "-" result is void
        plus_won = np.zeros(len(best), dtype=bool)
        plus_won[who[up & (sign == 0)]] = True
        up &= (sign == 0) | ~plus_won[who]
        won = who[up]
        best[won] = values[up]
        for tab, new in zip(tables, trial):
            tab[won] = new[up]
    return best, tables


def _seed_tables(variant, pxz, cap_u, cap_v):
    # the identity corner u = x, v = z; feasible for every variant and the
    # best starting point whenever rates are cheap relative to mu
    nx, nz = pxz.shape
    if cap_u < nx or cap_v < nz:
        return []
    if variant == "inner":
        eu = np.zeros((nx, cap_u))
        eu[:, :nx] = np.eye(nx)
        ev = np.zeros((nz, cap_v))
        ev[:, :nz] = np.eye(nz)
        return [[eu, ev]]
    q = np.zeros((nx, nz, cap_u, cap_v))
    for x in range(nx):
        for z in range(nz):
            q[x, z, x, z] = 1.0
    return [[q.reshape(nx * nz, cap_u * cap_v)]]


def _outer_draws(cfg, pxz, cond, cap_u, cap_v):
    """(lo, q, stats) of every scoring block of cfg's draws, in index
    order, mapped onto the short chains in one batch: q[b] is the flat
    table of draw lo + b, one row per (x, z), and stats[b] its stats dict;
    see _chain_map."""
    nx, nz = pxz.shape
    shapes = [(nx * nz, cap_u * cap_v)]
    for lo, (flat,) in _drawn(cfg, shapes, pxz.size * cap_u * cap_v):
        q, stats = _chain_map(pxz, flat.reshape(len(flat), nx, nz, cap_u, cap_v), cond)
        yield lo, q.reshape(flat.shape), stats


def _make_value_fn(variant, pxz, lam, cap_u, cap_v, cond):
    """The batched objective of support_function and local_refine.

    Outer candidates are flat tables q(u,v|x,z), one row per (x, z); their
    proposals are mapped onto the short chains in one batch (_chain_map)
    and scored on the mapped tables.
    """
    cells = pxz.size * cap_u * cap_v
    if variant == "inner":

        def fn(tables, idx):
            return _lam_dot(lam, *_batch_inner_stats(pxz, *tables)), tables

        return _in_scoring_blocks(fn, cells)
    nx, nz = pxz.shape
    score = _outer_score(lam, variant)

    def fn(tables, idx):
        (flat,) = tables
        q, stats = _chain_map(pxz, flat.reshape(len(flat), nx, nz, cap_u, cap_v), cond)
        return np.array([score(st) for st in stats], dtype=np.float64), [q.reshape(flat.shape)]

    return _in_scoring_blocks(fn, cells)


def _in_scoring_blocks(value_fn, cells):
    """value_fn, a _lockstep objective, called on scoring blocks of at most
    _DRAW_CELLS joint cells (a candidate's joint has `cells`), as the
    draws are scored: a step's proposals are scored a block at a time, so
    no call's temporaries grow with the batch. No value depends on the
    blocking, since a batched row is bitwise a lone table's."""
    size = max(1, _DRAW_CELLS // cells)

    def fn(tables, idx):
        if len(idx) <= size:
            return value_fn(tables, idx)
        parts = [
            value_fn([t[lo : lo + size] for t in tables], idx[lo : lo + size])
            for lo in range(0, len(idx), size)
        ]
        values = np.concatenate([v for v, _ in parts])
        return values, [np.concatenate(kind) for kind in zip(*(t for _, t in parts))]

    return fn


def _outer_score(lam, variant):
    # the objective of an outer candidate from its stats
    return lambda st: _lam_dot(lam, _region_mu(st, variant), st["iux"], st["ivz"])


def support_function(p_xz, lam, cfg, variant="inner"):
    """Best sampled-and-refined value of lam . (mu, r1, r2) for a variant.

    Returns (value, candidate): channel pair (chU, chV) for the inner
    variant, else the conditional table q(u,v|x,z) with row axis (x,z)
    and column axis (u,v), both C-ordered. The value is nondecreasing in
    cfg.count for a fixed seed: a sample is refined iff it ranks among
    the running refine_top best at its own arrival, which depends only on
    earlier samples. Two count-independent candidates are always in the
    pool: the constant channel and, when the caps allow it, the refined
    identity corner. Ties break toward them, then toward the lowest
    sample index. The identity corner and every refined sample are
    hill-climbed together in one batch. Every outer candidate (draw,
    baseline and refinement proposal) is mapped onto the two short chains
    by _chain_map, so every draw is scored and the returned table holds
    both chains.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if len(p_xz.axes) != 2:
        raise DomainError(f"support_function needs a two-axis source, got {p_xz.labels}")
    pxz = p_xz.mass
    nx, nz = pxz.shape
    cap_u = cfg.cap_u if cfg.cap_u is not None else nx
    cap_v = cfg.cap_v if cfg.cap_v is not None else nz
    if variant == "inner":
        cond = None
        shapes = [(nx, cap_u), (nz, cap_v)]
        baseline = [_constant_rows(nx, cap_u), _constant_rows(nz, cap_v)]
        (base_st,) = _stats_rows(pxz, _batch_inner_stats, [baseline])
        base_val = _lam_dot(lam, *base_st)
        draws = (
            (lo, tables, _lam_dot(lam, *st))
            for lo, tables, st in _scored_draws(cfg, pxz, shapes, _batch_inner_stats)
        )

        def redraw(i):
            return _draw(cfg.seed, i, shapes)

    else:
        cond = _source_conditionals(pxz)
        score = _outer_score(lam, variant)
        baseline = [_constant_rows(nx * nz, cap_u * cap_v)]
        _, (base_st,) = _chain_map(pxz, baseline[0].reshape(1, nx, nz, cap_u, cap_v), cond)
        base_val = score(base_st)
        if lam.degenerate:
            # constant channels are provably optimal on this face
            return base_val, _public_candidate(variant, baseline, p_xz, cap_u, cap_v)
        draws = (
            (lo, [q], np.array([score(st) for st in stats]))
            for lo, q, stats in _outer_draws(cfg, pxz, cond, cap_u, cap_v)
        )

        def redraw(i):
            (flat,) = _draw(cfg.seed, i, [(nx * nz, cap_u * cap_v)])
            q, _ = _chain_map(pxz, flat.reshape(1, nx, nz, cap_u, cap_v), cond)
            return [q.reshape(flat.shape)]

    values = np.full(cfg.count, -np.inf)
    top = []
    kept = {}  # the tables of each sample that ranked among the running best
    for lo, tables, block_values in draws:
        values[lo : lo + len(block_values)] = block_values
        if cfg.refine_top == 0:
            continue
        for i in range(lo, lo + len(block_values)):
            if len(top) < cfg.refine_top:
                heapq.heappush(top, values[i])
            elif values[i] > top[0]:
                heapq.heapreplace(top, values[i])
            else:
                continue
            kept[i] = [t[i - lo].copy() for t in tables]

    seeds = _seed_tables(variant, pxz, cap_u, cap_v)
    refined = list(kept) if cfg.refine_steps > 0 else []
    best_val, best_tables = base_val, baseline
    if seeds or refined:
        value_fn = _make_value_fn(variant, pxz, lam, cap_u, cap_v, cond)
        batch = _stack(seeds + [kept[i] for i in refined])
        out, batch = _lockstep(batch, value_fn, cfg.refine_steps, cfg.step_size)
        for j in range(len(seeds)):
            if out[j] > best_val:
                best_val, best_tables = float(out[j]), [t[j] for t in batch]
        for j, i in enumerate(refined, len(seeds)):
            values[i], kept[i] = out[j], [t[j] for t in batch]

    best_i = int(np.argmax(values))
    if values[best_i] > best_val:
        best_val = float(values[best_i])
        best_tables = kept[best_i] if best_i in kept else redraw(best_i)
    return best_val, _public_candidate(variant, best_tables, p_xz, cap_u, cap_v)


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


def local_refine(p_xz, candidate, lam, variant="inner", steps=500, step_size=0.05):
    """Hill-climb a candidate; the objective never decreases.

    Accepts and returns the candidate forms produced by support_function.
    steps must be an integer >= 0 and step_size finite and positive.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    _check_budget("steps", steps, step_size)
    pxz = p_xz.mass
    nx, nz = pxz.shape
    if variant == "inner":
        ch_u, ch_v = candidate
        rows_u = np.array(ch_u.rows if isinstance(ch_u, Channel) else ch_u)
        rows_v = np.array(ch_v.rows if isinstance(ch_v, Channel) else ch_v)
        cap_u, cap_v = rows_u.shape[1], rows_v.shape[1]
        value_fn = _make_value_fn(variant, pxz, lam, cap_u, cap_v, None)
        _, (rows_u, rows_v) = _lockstep([rows_u[None], rows_v[None]], value_fn, steps, step_size)
        if isinstance(ch_u, Channel):
            return (
                Channel(ch_u.input, ch_u.output, rows_u[0]),
                Channel(ch_v.input, ch_v.output, rows_v[0]),
            )
        return rows_u[0], rows_v[0]
    q = np.array(candidate)
    cap_u, cap_v = q.shape[2], q.shape[3]
    value_fn = _make_value_fn(variant, pxz, lam, cap_u, cap_v, _source_conditionals(pxz))
    _, (flat,) = _lockstep([q.reshape(1, nx * nz, cap_u * cap_v)], value_fn, steps, step_size)
    return flat[0].reshape(nx, nz, cap_u, cap_v)


# ---------------------------------------------------------------------------
# symmetric binary boundaries


def _sb_curve_point(p, alpha):
    r = LOG2 - binary_entropy(alpha)
    mu = LOG2 - binary_entropy(binary_convolution(binary_convolution(alpha, p), alpha))
    return r, mu


def dsbs_alpha_grid(r_grid=(), points=201):
    """Uniform alpha grid joined with points aligned to given abscissae.

    Comparing two sampled boundary curves is only meaningful when both
    are built over the same parameter set; putting the outer curve's
    long-chain BSC points on the inner curve's grid makes the dominance
    check structural instead of resolution-dependent.
    """
    if not isinstance(points, int) or points < 2:
        raise DomainError(f"points must be an integer >= 2, got {points!r}")
    alphas = [float(a) for a in np.linspace(0.0, 0.5, points)]
    rs = np.array([float(r) for r in r_grid])
    rs = rs[(0.0 <= rs) & (rs <= LOG2)]
    alphas += binary_entropy_inverses(np.minimum(np.maximum(LOG2 - rs, 0.0), LOG2)).tolist()
    return sorted(set(alphas))


def dsbs_inner_boundary(p, alpha_grid):
    """Envelope of the closed-form symmetric-rate inner boundary points."""
    p = _check_probability(p, "dsbs_inner_boundary")
    if p > 0.5:
        raise DomainError(f"dsbs_inner_boundary p={p} outside [0, 1/2]")
    pts = []
    for a in alpha_grid:
        a = _check_probability(float(a), "dsbs_inner_boundary")
        if a > 0.5:
            raise DomainError(f"alpha={a} outside [0, 1/2]")
        pts.append(_sb_curve_point(p, a))
    return upper_concave_envelope(pts)


# the coupling solve of dsbs_outer_boundary_sampled: a first grid of
# _COUPLING_GRID points per axis over [-1, 1]^2 (step 0.05, so it holds
# every coupling whose coordinates are multiples of 0.05), then
# _ZOOM_ROUNDS stencils of _ZOOM_POINTS per axis around the best point so
# far, the first one a grid step wide on each side and each next one
# _ZOOM_SHRINK times narrower, so that it spans two cells of the one before
_COUPLING_GRID = 41
_ZOOM_POINTS = 9
_ZOOM_ROUNDS = 12
_ZOOM_SHRINK = 4


def _coupled_pair_table(alpha, s_same, s_diff):
    """BSC(alpha) pairs with Frechet-coupled conditional noise, a batch.

    alpha, s_same and s_diff broadcast to one shape (n,); table b is
    q(u,v|x,z) of shape (2, 2, 2, 2). Adding t(x,z) * [[1,-1],[-1,1]] to the
    product coupling leaves both single-letter conditionals untouched, so
    the two short chains hold exactly while u and v stay correlated given
    (x, z); s in [-1, 1] scales t to the Frechet bound of the cell, s_same
    on the cells x = z and s_diff on the others, and s = 0 is the
    long-chain BSC pair. These tables hold the ridge near the rate corner
    that Dirichlet sampling has no density on: mu_ro = I(u;v) - I(u;v|x,z)
    gains more from the aligned coupling on disagreeing (x, z) than the
    conditional term costs. Every table is built on its own, elementwise.
    """
    alpha, s_same, s_diff = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (alpha, s_same, s_diff))
    )
    rows = np.stack([np.stack([1.0 - alpha, alpha], -1), np.stack([alpha, 1.0 - alpha], -1)], 1)
    pu0, pv0 = rows[:, :, None, 0], rows[:, None, :, 0]
    s = np.where(np.eye(2, dtype=bool), s_same[:, None, None], s_diff[:, None, None])
    t = np.where(
        s >= 0.0,
        s * (np.minimum(pu0, pv0) - pu0 * pv0),
        s * (pu0 * pv0 - np.maximum(0.0, pu0 + pv0 - 1.0)),
    )
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    q = rows[:, :, None, :, None] * rows[:, None, :, None, :] + t[..., None, None] * sign
    return np.maximum(q, 0.0)


def _coupling_stats(pxz, alpha, s_same, s_diff):
    """_checked_outer_stats of the _coupled_pair_table tables of flat
    arrays, built and scored a block of at most _DRAW_CELLS joint cells at
    a time."""
    size = max(1, _DRAW_CELLS // (pxz.size * 4))
    blocks = (slice(lo, lo + size) for lo in range(0, len(alpha), size))
    return np.concatenate([
        _checked_outer_stats(pxz, _coupled_pair_table(alpha[b], s_same[b], s_diff[b]))
        for b in blocks
    ])


def _coupling_solve(pxz, alphas):
    """The Frechet coupling of a BSC(alpha) pair with the largest mu_ro on
    the source pxz, for every alpha of alphas in one batch.

    A deterministic grid-and-zoom search over (s_same, s_diff) in
    [-1, 1]^2 (see _COUPLING_GRID). Each round scores a square stencil
    around the best point so far, every alpha in one batch, and moves to
    its largest mu_ro, the first one on ties; the stencil holds its own
    centre, so the best mu_ro never decreases. Every coupling of a
    BSC(alpha) pair has I(u;x) = I(v;z) = ln 2 - h_b(alpha), so the search
    moves mu_ro alone. Returns the arrays (s_same, s_diff) of the solved
    couplings, one entry per alpha.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    best = (np.zeros(len(alphas)), np.zeros(len(alphas)))
    step = 2.0 / (_COUPLING_GRID - 1)
    rounds = [(_COUPLING_GRID, 1.0)]
    rounds += [(_ZOOM_POINTS, step / _ZOOM_SHRINK**k) for k in range(_ZOOM_ROUNDS)]
    for points, width in rounds:
        half = (points - 1) // 2
        axis = np.arange(-half, half + 1) / half  # exact multiples of 1 / half
        offsets = [width * g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")]
        s_same, s_diff = (np.clip(b[:, None] + o, -1.0, 1.0) for b, o in zip(best, offsets))
        alpha = np.broadcast_to(alphas[:, None], s_same.shape)
        mu = _coupling_stats(pxz, alpha.ravel(), s_same.ravel(), s_diff.ravel())[:, 4]
        pick = np.argmax(mu.reshape(s_same.shape), axis=1)[:, None]
        best = tuple(np.take_along_axis(s, pick, 1)[:, 0] for s in (s_same, s_diff))
    return best


# The name keeps "sampled", though nothing is drawn, because the benchmark's
# tracer reports this function's time as optimize.dsbs_outer_s under it.
def dsbs_outer_boundary_sampled(p, r_grid):
    """Symmetric-rate outer boundary for the DSBS: the upper concave
    envelope of two kinds of (max(r1, r2), mu_ro) points, with no draw.

    - The long-chain BSC points on dsbs_alpha_grid(r_grid); they are
      feasible here too, so the result dominates an inner curve built on
      the same grid.
    - At each cap r of r_grid in [0, ln 2], the coupled BSC(alpha) pair of
      largest mu_ro (_coupling_solve), alpha = h_b^-1(ln 2 - r), whose
      point lies at abscissa r. A cap above ln 2 has no such pair and is
      skipped.

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

    points = [_sb_curve_point(p, a) for a in dsbs_alpha_grid(r_grid)]
    alphas = binary_entropy_inverses(LOG2 - np.array([r for r in sorted(set(r_grid)) if r <= LOG2]))
    if alphas.size:
        stats = _coupling_stats(pxz, alphas, *_coupling_solve(pxz, alphas))
        points += [(max(st["iux"], st["ivz"]), st["mu_ro"]) for st in _stats_dicts(stats)]
    return upper_concave_envelope(points)


# ---------------------------------------------------------------------------
# bottleneck curve


def ib_curve(p_xz, r_grid, cfg):
    """Envelope of (I(u;x), I(u;z)) over sampled and refined test channels.

    The output alphabet is capped at |X| + 1 unless cfg overrides it. The
    identity and constant channels seed the pool, so the curve hits (0, 0)
    and (H(x), I(x;z)) exactly. The best channel under each grid cap is
    hill-climbed under that cap, every cap in one batch.
    """
    if len(p_xz.axes) != 2:
        raise DomainError(f"ib_curve needs a two-axis source, got {p_xz.labels}")
    pxz = p_xz.mass
    nx = pxz.shape[0]
    cap_u = cfg.cap_u if cfg.cap_u is not None else nx + 1
    r_grid = [float(r) for r in r_grid]
    for r in r_grid:
        if not math.isfinite(r) or r < 0.0:
            raise DomainError(f"grid abscissa {r} must be finite and nonnegative")

    seeds = [_constant_rows(nx, cap_u)]
    if cap_u >= nx:
        ident = np.zeros((nx, cap_u))
        ident[:, :nx] = np.eye(nx)
        seeds.append(ident)
    # candidate j is seed j, then draw j - len(seeds)
    scores = [_batch_ib_stats(pxz, np.stack(seeds))]
    scores += [st for _, _, st in _scored_draws(cfg, pxz, [(nx, cap_u)], _batch_ib_stats)]
    r, mu = (np.concatenate(col) for col in zip(*scores))

    points = list(zip(r.tolist(), mu.tolist()))
    if cfg.refine_steps == 0:
        return upper_concave_envelope(points)

    # cap j picks the largest relevance among the candidates with rate at
    # most caps[j] + 1e-12, the first one on ties, and is skipped when there is none
    picked, row_caps = [], []
    for rcap in sorted(set(r_grid)):
        ok = np.flatnonzero(r <= rcap + 1e-12)
        if ok.size:
            # argmax returns the first maximum, the lowest index on ties
            picked.append(int(ok[np.argmax(mu[ok])]))
            row_caps.append(rcap)
    if picked:
        drawn = _draws_at(cfg.seed, [j - len(seeds) for j in picked if j >= len(seeds)], [(nx, cap_u)])
        picked = [seeds[j] if j < len(seeds) else drawn[j - len(seeds)][0] for j in picked]
        row_caps = np.array(row_caps)

        def fn(tables, idx):
            iux, iuz = _batch_ib_stats(pxz, tables[0])
            return np.where(iux > row_caps[idx] + 1e-12, -np.inf, iuz), tables

        fn = _in_scoring_blocks(fn, pxz.size * cap_u)
        _, (rows,) = _lockstep([np.stack(picked)], fn, cfg.refine_steps, cfg.step_size)
        points += _stats_rows(pxz, _batch_ib_stats, [[t] for t in rows])
    return upper_concave_envelope(points)


# ---------------------------------------------------------------------------
# conjecture margin search


def conjecture_test(p, cfg):
    """Margin search for the binary-source inequality conjecture.

    For each sampled channel pair, alpha and beta are set to the tightest
    admissible parameters (turning the two rate inequalities into
    equalities) and the reported margin is the slack of the third
    inequality; a negative minimum is a counterexample candidate.

    The domain is p in (0, 1/2]. At p = 0, x = z and the inequality is
    false, so p = 0 raises DomainError, as does p outside [0, 1/2].
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
    cap_u = cfg.cap_u if cfg.cap_u is not None else 2
    cap_v = cfg.cap_v if cfg.cap_v is not None else 2
    worst = None
    draws = _scored_draws(cfg, pxz, [(2, cap_u), (2, cap_v)], _batch_inner_stats)
    for lo, (rows_u, rows_v), (iuv, iux, ivz) in draws:
        # both rate equalities solved in one call
        h = np.minimum(np.maximum(LOG2 - np.stack([iux, ivz]), 0.0), LOG2)
        alpha, beta = binary_entropy_inverses(h)
        margin = LOG2 - _hb_closed_array(_bconv(_bconv(alpha, p), beta)) - iuv
        # the first minimum wins: argmin within a block, a strict < across blocks
        j = int(np.argmin(margin))
        if worst is None or margin[j] < worst["min_margin"]:
            worst = {
                "min_margin": float(margin[j]),
                "worst_index": lo + j,
                "worst_ch_u": rows_u[j].copy(),
                "worst_ch_v": rows_v[j].copy(),
                "alpha": float(alpha[j]),
                "beta": float(beta[j]),
            }
    worst["samples"] = cfg.count
    worst["p"] = p
    return worst


# ---------------------------------------------------------------------------
# cardinality robustness


def cardinality_robustness(p_xz, lams, cfg, variant="inner"):
    """Support-function values at source-size caps versus caps plus one.

    The cardinality reductions predict a difference of zero in the limit;
    the report carries the sampled difference per direction.
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
    """Raw sampled (mu, r1, r2) triples for one region variant.

    One candidate per draw index, in index order, so exactly cfg.count of
    them; outer draws are mapped onto the short chains
    (_chain_map). This is the dump behind the CLI's region-sample command.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"unknown variant {variant!r}, expected one of {_VARIANTS}")
    if len(p_xz.axes) != 2:
        raise DomainError(f"the source must have two axes, got {p_xz.labels}")
    pxz = p_xz.mass
    nx, nz = pxz.shape
    cap_u = cfg.cap_u if cfg.cap_u is not None else nx
    cap_v = cfg.cap_v if cfg.cap_v is not None else nz
    if variant == "inner":
        draws = _scored_draws(cfg, pxz, [(nx, cap_u), (nz, cap_v)], _batch_inner_stats)
        return [
            RegionPoint(mu=iuv, r1=iux, r2=ivz)
            for _, _, st in draws
            for iuv, iux, ivz in zip(*(c.tolist() for c in st))
        ]
    draws = _outer_draws(cfg, pxz, _source_conditionals(pxz), cap_u, cap_v)
    return [
        RegionPoint(mu=_region_mu(st, variant), r1=st["iux"], r2=st["ivz"])
        for _, _, stats in draws
        for st in stats
    ]
