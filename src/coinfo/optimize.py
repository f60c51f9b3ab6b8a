"""Sampling-based optimizers for the bound regions.

Support-function maximization over Markov-constrained auxiliary channels,
deterministic hill-climb refinement, upper concave envelopes, the
symmetric-binary boundary curves, the bottleneck curve, the conjecture
margin search, and the cardinality robustness report.

Determinism contract: all randomness flows through per-sample substreams
derived from (seed, sample index), every reduction is an associative max
with lowest-index tie-break, and no BLAS-backed kernels are used, so a
run is bit-reproducible for any thread count. Every information term on
the sampling and refinement paths comes from one call of
probability.entropies, which builds all the marginals a candidate needs
with np.bincount over a cached index plan and sums them in a fixed
order, with elementwise operations only.
"""

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SizeError
from .probability import (
    LOG2,
    Alphabet,
    Channel,
    binary_convolution,
    binary_entropy,
    binary_entropy_inverse,
    dsbs,
    entropies,
    _check_probability,
    _clamp_measure,
)
from .regions import MARKOV_TOL, RegionPoint

_VARIANTS = ("inner", "ro", "ro_prime")
# alternating-projection budget for the two short-chain constraints
_MAX_SWEEPS = 200


@dataclass(frozen=True)
class SupportWeight:
    """A direction in the support-function quadrant: l1 >= 0 >= l2, l3."""

    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        for name in ("l1", "l2", "l3"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise DomainError(f"SupportWeight.{name} must be finite, got {v!r}")
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
    dirichlet_concentration: float = 1.0
    cap_u: int = None
    cap_v: int = None
    refine_top: int = 100
    refine_steps: int = 500
    step_size: float = 0.05

    def __post_init__(self):
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not isinstance(self.count, int) or self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count!r}")
        c = self.dirichlet_concentration
        if not isinstance(c, (int, float)) or not math.isfinite(c) or c <= 0:
            raise DomainError(f"dirichlet_concentration must be positive, got {c!r}")
        for name in ("cap_u", "cap_v"):
            v = getattr(self, name)
            if v is not None and (not isinstance(v, int) or v < 1):
                raise DomainError(f"{name} must be a positive integer or None, got {v!r}")
        if not isinstance(self.refine_top, int) or self.refine_top < 0:
            raise DomainError(f"refine_top must be >= 0, got {self.refine_top!r}")
        if not isinstance(self.refine_steps, int) or self.refine_steps < 0:
            raise DomainError(f"refine_steps must be >= 0, got {self.refine_steps!r}")
        s = self.step_size
        if not isinstance(s, (int, float)) or not math.isfinite(s) or s <= 0:
            raise DomainError(f"step_size must be positive, got {s!r}")


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


def _substream(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def sample_channel(input_size, output_size, rng, input_label="x", output_label="u"):
    """Random channel with rows drawn from the flat Dirichlet."""
    if not isinstance(input_size, int) or input_size < 1:
        raise DomainError(f"input_size must be >= 1, got {input_size!r}")
    if not isinstance(output_size, int) or output_size < 1:
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


def _inner_stats(pxz, rows_u, rows_v):
    """(I(u;v), I(u;x), I(v;z)) on the long chain u - x - z - v."""
    w = pxz[:, :, None, None] * rows_u[:, None, :, None] * rows_v[None, :, None, :]
    h_x, h_z, h_u, h_v, h_uv, h_xu, h_zv = entropies(w, _INNER_GROUPS)
    return (
        _clamp_measure(h_u + h_v - h_uv),
        _clamp_measure(h_x + h_u - h_xu),
        _clamp_measure(h_z + h_v - h_zv),
    )


def _ib_stats(pxz, rows):
    """(I(u;x), I(u;z)) of a test channel p(u|x) on the source."""
    h_x, h_z, h_u, h_xu, h_zu = entropies(pxz[:, :, None] * rows[:, None, :], _IB_GROUPS)
    return _clamp_measure(h_x + h_u - h_xu), _clamp_measure(h_z + h_u - h_zu)


def _outer_stats(pxz, q):
    """All information terms of a (x,z,u,v) joint given q(u,v|x,z)."""
    (h_x, h_z, h_u, h_v, h_xz, h_uv, h_xu, h_zv, h_zu, h_xv, h_xzu, h_xzv,
     h_all) = entropies(pxz[:, :, None, None] * q, _OUTER_GROUPS)
    iux = _clamp_measure(h_x + h_u - h_xu)
    ivz = _clamp_measure(h_z + h_v - h_zv)
    return {
        "iux": iux,
        "ivz": ivz,
        "iuz": _clamp_measure(h_z + h_u - h_zu),
        "ivx": _clamp_measure(h_x + h_v - h_xv),
        "mu_ro": ivz + iux - _clamp_measure(h_xz + h_uv - h_all),
        "cmi_uz_x": _clamp_measure(h_xu + h_xz - h_xzu - h_x),
        "cmi_vx_z": _clamp_measure(h_zv + h_xz - h_xzv - h_z),
    }


def _source_conditionals(pxz):
    """(p(z|x), p(x|z)) of a source; rows of a zero-mass symbol are zero."""
    px = np.sum(pxz, axis=1)[:, None]
    pz = np.sum(pxz, axis=0)[None, :]
    z_given_x = np.divide(pxz, px, out=np.zeros(pxz.shape), where=px > 0.0)
    x_given_z = np.divide(pxz, pz, out=np.zeros(pxz.shape), where=pz > 0.0)
    return z_given_x, x_given_z


def _project_chains(pxz, q, cond, tol=MARKOV_TOL, max_sweeps=_MAX_SWEEPS):
    """Alternately restore the chains u-x-z and x-z-v on q(u,v|x,z).

    Each half-sweep replaces one conditional by its source-weighted
    average, which zeroes the corresponding CMI exactly while keeping the
    other conditional untouched. cond is _source_conditionals(pxz).
    Returns (q, stats): stats is _outer_stats of the returned q, or None
    when the sweep budget ran out before both chains held.
    """
    z_given_x, x_given_z = cond
    for _ in range(max_sweeps):
        st = _outer_stats(pxz, q)
        if st["cmi_uz_x"] <= tol and st["cmi_vx_z"] <= tol:
            return q, st
        # enforce u - x - z: q(u,v|x,z) -> p(u|x) * q(v|x,z,u)
        q_u = np.sum(q, axis=3, keepdims=True)
        u_given_x = np.einsum("xz,xzu->xu", z_given_x, q_u[..., 0], optimize=False)
        v_cond = np.divide(q, q_u, out=np.full(q.shape, 1.0 / q.shape[3]), where=q_u > 0.0)
        q = u_given_x[:, None, :, None] * v_cond
        # enforce x - z - v: q(u,v|x,z) -> p(v|z) * q(u|x,z,v)
        q_v = np.sum(q, axis=2, keepdims=True)
        v_given_z = np.einsum("xz,xzv->zv", x_given_z, q_v[:, :, 0, :], optimize=False)
        u_cond = np.divide(q, q_v, out=np.full(q.shape, 1.0 / q.shape[2]), where=q_v > 0.0)
        q = v_given_z[None, :, None, :] * u_cond
    st = _outer_stats(pxz, q)
    return q, (st if st["cmi_uz_x"] <= tol and st["cmi_vx_z"] <= tol else None)


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


def _coordinate_descent(tables, value_fn, steps, step_size):
    """Deterministic round-robin hill climb over row-stochastic tables.

    value_fn(tables) returns (value, canonical tables) or None when the
    proposal is infeasible; the objective never decreases.
    """
    start = value_fn(tables)
    if start is None:
        raise DomainError("refinement started from an infeasible candidate")
    best, tables = start
    sizes = [t.size for t in tables]
    total = sum(sizes)
    for s in range(steps):
        delta = step_size * 0.9 ** (s // 50)
        k = s % total
        t = 0
        while k >= sizes[t]:
            k -= sizes[t]
            t += 1
        for sign in (1.0, -1.0):
            nudged = _perturb_row(tables[t], k, sign * delta)
            if nudged is None:
                continue
            trial = list(tables)
            trial[t] = nudged
            res = value_fn(trial)
            if res is not None and res[0] > best:
                best, tables = res
                break
    return best, tables


def _perturb_row(rows, flat_index, delta):
    r, c = divmod(flat_index, rows.shape[1])
    row = rows[r] + 0.0
    row[c] += delta
    row = np.maximum(row, 0.0)
    s = float(np.sum(row))
    if s <= 0.0:
        return None
    out = rows.copy()
    out[r] = row / s
    return out


def _draw_inner(rng, pxz, cap_u, cap_v, concentration):
    rows_u = rng.dirichlet(np.full(cap_u, concentration), size=pxz.shape[0])
    rows_v = rng.dirichlet(np.full(cap_v, concentration), size=pxz.shape[1])
    return [rows_u, rows_v]


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


def _draw_outer(rng, pxz, cond, cap_u, cap_v, concentration):
    # a Dirichlet table projected onto the short chains: _project_chains' (q, stats)
    nx, nz = pxz.shape
    flat = rng.dirichlet(np.full(cap_u * cap_v, concentration), size=nx * nz)
    return _project_chains(pxz, flat.reshape(nx, nz, cap_u, cap_v), cond)


def _make_value_fn(variant, pxz, lam, cap_u, cap_v):
    nx, nz = pxz.shape
    if variant == "inner":

        def fn(tables):
            return _lam_dot(lam, *_inner_stats(pxz, tables[0], tables[1])), tables

    else:
        cond = _source_conditionals(pxz)

        def fn(tables):
            q, st = _project_chains(pxz, tables[0].reshape(nx, nz, cap_u, cap_v), cond)
            if st is None:
                return None
            value = _lam_dot(lam, _region_mu(st, variant), st["iux"], st["ivz"])
            return value, [q.reshape(nx * nz, cap_u * cap_v)]

    return fn


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
    sample index.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if len(p_xz.axes) != 2:
        raise DomainError(f"support_function needs a two-axis source, got {p_xz.labels}")
    pxz = p_xz.mass
    nx, nz = pxz.shape
    cap_u = cfg.cap_u if cfg.cap_u is not None else nx
    cap_v = cfg.cap_v if cfg.cap_v is not None else nz
    value_fn = _make_value_fn(variant, pxz, lam, cap_u, cap_v)
    if variant == "inner":
        baseline = [_constant_rows(nx, cap_u), _constant_rows(nz, cap_v)]
    else:
        baseline = [_constant_rows(nx * nz, cap_u * cap_v)]
    base_val = value_fn(baseline)[0]
    if variant != "inner" and lam.degenerate:
        # constant channels are provably optimal on this face
        return base_val, _public_candidate(variant, baseline, p_xz, cap_u, cap_v)

    best_val, best_tables = base_val, baseline
    for seed_tables in _seed_tables(variant, pxz, cap_u, cap_v):
        res = value_fn(seed_tables)
        if res is None:
            continue
        if cfg.refine_steps > 0:
            res = _coordinate_descent(seed_tables, value_fn, cfg.refine_steps, cfg.step_size)
        if res[0] > best_val:
            best_val, best_tables = res

    conc = cfg.dirichlet_concentration
    if variant == "inner":

        def draw(i):
            return _draw_inner(_substream(cfg.seed, i), pxz, cap_u, cap_v, conc)

    else:
        cond = _source_conditionals(pxz)

        def draw(i):
            q, st = _draw_outer(_substream(cfg.seed, i), pxz, cond, cap_u, cap_v, conc)
            return None if st is None else [q.reshape(nx * nz, cap_u * cap_v)]

    values = np.full(cfg.count, -np.inf)
    top = []
    qualified = []
    for i in range(cfg.count):
        tables = draw(i)
        if tables is None:
            continue
        res = value_fn(tables)
        if res is None:
            continue
        values[i] = res[0]
        if cfg.refine_top > 0:
            if len(top) < cfg.refine_top:
                heapq.heappush(top, values[i])
                qualified.append(i)
            elif values[i] > top[0]:
                heapq.heapreplace(top, values[i])
                qualified.append(i)

    refined = {}
    if cfg.refine_steps > 0:
        for i in qualified:
            tables = draw(i)
            refined[i] = _coordinate_descent(tables, value_fn, cfg.refine_steps, cfg.step_size)

    best_i = None
    for i in range(cfg.count):
        v = refined[i][0] if i in refined else values[i]
        if v > best_val:
            best_val, best_i = v, i
    if best_i is None:
        tables = best_tables
    elif best_i in refined:
        tables = refined[best_i][1]
    else:
        tables = draw(best_i)
    return best_val, _public_candidate(variant, tables, p_xz, cap_u, cap_v)


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
    """
    if variant not in _VARIANTS:
        raise DomainError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    pxz = p_xz.mass
    nx, nz = pxz.shape
    if variant == "inner":
        ch_u, ch_v = candidate
        rows_u = np.array(ch_u.rows if isinstance(ch_u, Channel) else ch_u)
        rows_v = np.array(ch_v.rows if isinstance(ch_v, Channel) else ch_v)
        cap_u, cap_v = rows_u.shape[1], rows_v.shape[1]
        value_fn = _make_value_fn(variant, pxz, lam, cap_u, cap_v)
        _, tables = _coordinate_descent([rows_u, rows_v], value_fn, steps, step_size)
        if isinstance(ch_u, Channel):
            return (
                Channel(ch_u.input, ch_u.output, tables[0]),
                Channel(ch_v.input, ch_v.output, tables[1]),
            )
        return tables[0], tables[1]
    q = np.array(candidate)
    cap_u, cap_v = q.shape[2], q.shape[3]
    value_fn = _make_value_fn(variant, pxz, lam, cap_u, cap_v)
    _, tables = _coordinate_descent(
        [q.reshape(nx * nz, cap_u * cap_v)], value_fn, steps, step_size
    )
    return tables[0].reshape(nx, nz, cap_u, cap_v)


# ---------------------------------------------------------------------------
# symmetric binary boundaries


def _sb_curve_point(p, alpha):
    r = LOG2 - binary_entropy(alpha)
    mu = LOG2 - binary_entropy(binary_convolution(binary_convolution(alpha, p), alpha))
    return r, mu


def dsbs_alpha_grid(r_grid=(), points=201):
    """Uniform alpha grid joined with points aligned to given abscissae.

    Comparing two sampled boundary curves is only meaningful when both
    are built over the same parameter set; aligning the outer sampler's
    deterministic seeds with the inner curve's grid makes the dominance
    check structural instead of resolution-dependent.
    """
    if not isinstance(points, int) or points < 2:
        raise DomainError(f"points must be an integer >= 2, got {points!r}")
    alphas = [float(a) for a in np.linspace(0.0, 0.5, points)]
    for r in r_grid:
        r = float(r)
        if 0.0 <= r <= LOG2:
            alphas.append(binary_entropy_inverse(min(max(LOG2 - r, 0.0), LOG2)))
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


def _bsc_pair_table(alpha):
    rows = np.array([[1.0 - alpha, alpha], [alpha, 1.0 - alpha]])
    return np.einsum("xu,zv->xzuv", rows, rows, optimize=False)


# (same-input, crossed-input) coupling fractions for the corner seeds
_COUPLING_SEEDS = (
    (0.0, 0.0),
    (0.0, 0.9),
    (0.0, 1.0),
    (0.05, 0.95),
    (0.1, 0.95),
    (0.1, 1.0),
    (0.15, 0.95),
    (0.2, 1.0),
)


def _coupled_pair_table(alpha, s_same, s_diff):
    """BSC(alpha) pair with Frechet-coupled conditional noise.

    Adding t(x,z) * [[1,-1],[-1,1]] to the product coupling leaves both
    single-letter conditionals untouched, so the two short chains hold
    exactly while u and v stay correlated given (x, z); s in [-1, 1]
    scales t to the Frechet bound of the cell. These tables populate the
    ridge near the rate corner that Dirichlet sampling has no density on:
    mu_ro = I(u;v) - I(u;v|x,z) gains more from the aligned coupling on
    disagreeing (x, z) than the conditional term costs.
    """
    rows = np.array([[1.0 - alpha, alpha], [alpha, 1.0 - alpha]])
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    q = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for z in range(2):
            pu0, pv0 = rows[x, 0], rows[z, 0]
            s = s_same if x == z else s_diff
            if s >= 0.0:
                t = s * (min(pu0, pv0) - pu0 * pv0)
            else:
                t = s * (pu0 * pv0 - max(0.0, pu0 + pv0 - 1.0))
            q[x, z] = np.outer(rows[x], rows[z]) + t * sign
    return np.maximum(q, 0.0)


def _pad_table(q, cap_u, cap_v):
    if q.shape[2] == cap_u and q.shape[3] == cap_v:
        return q
    padded = np.zeros(q.shape[:2] + (cap_u, cap_v))
    padded[:, :, : q.shape[2], : q.shape[3]] = q
    return padded


def dsbs_outer_boundary_sampled(p, r_grid, cfg):
    """Sampled-and-refined symmetric-rate outer boundary for the DSBS.

    Candidates are conditional tables q(u,v|x,z) restored onto the two
    short chains by alternating projection; each contributes at abscissa
    max(r1, r2). The long-chain BSC points on dsbs_alpha_grid(r_grid)
    seed the pool (they are feasible here too), so the result dominates
    an inner curve built on the same grid, and the best candidate under
    each grid cap is hill-climbed before the envelope pass.
    """
    p = _check_probability(p, "dsbs_outer_boundary_sampled")
    if not 0.0 < p < 0.5:
        raise DomainError(f"dsbs_outer_boundary_sampled needs p in (0, 1/2), got {p}")
    r_grid = [float(r) for r in r_grid]
    for r in r_grid:
        if not math.isfinite(r) or r < 0.0:
            raise DomainError(f"grid abscissa {r} must be finite and nonnegative")
    pxz = dsbs(p).mass
    cap_u = cfg.cap_u if cfg.cap_u is not None else 2
    cap_v = cfg.cap_v if cfg.cap_v is not None else 2

    candidates = []
    for a in dsbs_alpha_grid(r_grid):
        r, mu = _sb_curve_point(p, a)
        candidates.append((r, mu, ("bsc", a)))
    conc = cfg.dirichlet_concentration
    cond = _source_conditionals(pxz)
    for i in range(cfg.count):
        _, st = _draw_outer(_substream(cfg.seed, i), pxz, cond, cap_u, cap_v, conc)
        if st is None:
            continue
        candidates.append((max(st["iux"], st["ivz"]), st["mu_ro"], ("sample", i)))

    points = [(r, mu) for r, mu, _ in candidates]
    for rcap in sorted(set(r_grid)):
        pick = None
        for idx, (r, mu, tag) in enumerate(candidates):
            if r <= rcap + 1e-12 and (pick is None or mu > candidates[pick][1]):
                pick = idx
        best_mu, best_q = -math.inf, None
        if pick is not None:
            tag = candidates[pick][2]
            if tag[0] == "bsc":
                best_q = _pad_table(_bsc_pair_table(tag[1]), cap_u, cap_v)
            else:
                best_q, _ = _draw_outer(_substream(cfg.seed, tag[1]), pxz, cond, cap_u, cap_v, conc)
            best_mu = candidates[pick][1]
        if 0.0 <= rcap <= LOG2:
            a_cap = binary_entropy_inverse(min(max(LOG2 - rcap, 0.0), LOG2))
            for s_same, s_diff in _COUPLING_SEEDS:
                q = _pad_table(_coupled_pair_table(a_cap, s_same, s_diff), cap_u, cap_v)
                st = _outer_stats(pxz, q)
                r_at = max(st["iux"], st["ivz"])
                if r_at > rcap + 1e-12:
                    continue
                points.append((r_at, st["mu_ro"]))
                if st["mu_ro"] > best_mu:
                    best_mu, best_q = st["mu_ro"], q
        if cfg.refine_steps > 0 and best_q is not None:
            value_fn = _capped_mu_value_fn(pxz, cap_u, cap_v, rcap)
            _, tables = _coordinate_descent(
                [best_q.reshape(4, cap_u * cap_v)], value_fn, cfg.refine_steps, cfg.step_size
            )
            st = _outer_stats(pxz, tables[0].reshape(2, 2, cap_u, cap_v))
            points.append((max(st["iux"], st["ivz"]), st["mu_ro"]))
    return upper_concave_envelope(points)


def _capped_mu_value_fn(pxz, cap_u, cap_v, rcap):
    nx, nz = pxz.shape
    cond = _source_conditionals(pxz)

    def fn(tables):
        q, st = _project_chains(pxz, tables[0].reshape(nx, nz, cap_u, cap_v), cond)
        if st is None or max(st["iux"], st["ivz"]) > rcap + 1e-12:
            return None
        return st["mu_ro"], [q.reshape(nx * nz, cap_u * cap_v)]

    return fn


# ---------------------------------------------------------------------------
# bottleneck curve


def ib_curve(p_xz, r_grid, cfg):
    """Envelope of (I(u;x), I(u;z)) over sampled and refined test channels.

    The output alphabet is capped at |X| + 1 unless cfg overrides it. The
    identity and constant channels seed the pool, so the curve hits (0, 0)
    and (H(x), I(x;z)) exactly.
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

    pool = [_constant_rows(nx, cap_u)]
    if cap_u >= nx:
        ident = np.zeros((nx, cap_u))
        ident[:, :nx] = np.eye(nx)
        pool.append(ident)
    conc = cfg.dirichlet_concentration
    for i in range(cfg.count):
        pool.append(_substream(cfg.seed, i).dirichlet(np.full(cap_u, conc), size=nx))
    candidates = [(*_ib_stats(pxz, rows), rows) for rows in pool]

    points = [(r, mu) for r, mu, _ in candidates]
    if cfg.refine_steps > 0:
        for rcap in sorted(set(r_grid)):
            pick = None
            for idx, (r, mu, _) in enumerate(candidates):
                if r <= rcap + 1e-12 and (pick is None or mu > candidates[pick][1]):
                    pick = idx
            if pick is None:
                continue
            value_fn = _capped_relevance_value_fn(pxz, rcap)
            _, tables = _coordinate_descent(
                [candidates[pick][2]], value_fn, cfg.refine_steps, cfg.step_size
            )
            points.append(_ib_stats(pxz, tables[0]))
    return upper_concave_envelope(points)


def _capped_relevance_value_fn(pxz, rcap):
    def fn(tables):
        iux, iuz = _ib_stats(pxz, tables[0])
        if iux > rcap + 1e-12:
            return None
        return iuz, tables

    return fn


# ---------------------------------------------------------------------------
# conjecture margin search


def conjecture_test(p, cfg):
    """Margin search for the binary-source inequality conjecture.

    For each sampled channel pair, alpha and beta are set to the tightest
    admissible parameters (turning the two rate inequalities into
    equalities) and the reported margin is the slack of the third
    inequality; a negative minimum is a counterexample candidate.
    """
    p = _check_probability(p, "conjecture_test")
    if p > 0.5:
        raise DomainError(f"conjecture_test needs p in [0, 1/2], got {p}")
    pxz = dsbs(p).mass
    cap_u = cfg.cap_u if cfg.cap_u is not None else 2
    cap_v = cfg.cap_v if cfg.cap_v is not None else 2
    conc = cfg.dirichlet_concentration
    worst = None
    for i in range(cfg.count):
        rng = _substream(cfg.seed, i)
        rows_u = rng.dirichlet(np.full(cap_u, conc), size=2)
        rows_v = rng.dirichlet(np.full(cap_v, conc), size=2)
        iuv, iux, ivz = _inner_stats(pxz, rows_u, rows_v)
        alpha = binary_entropy_inverse(min(max(LOG2 - iux, 0.0), LOG2))
        beta = binary_entropy_inverse(min(max(LOG2 - ivz, 0.0), LOG2))
        bound = LOG2 - binary_entropy(
            binary_convolution(binary_convolution(alpha, p), beta)
        )
        margin = bound - iuv
        if worst is None or margin < worst["min_margin"]:
            worst = {
                "min_margin": margin,
                "worst_index": i,
                "worst_ch_u": rows_u,
                "worst_ch_v": rows_v,
                "alpha": alpha,
                "beta": beta,
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

    One candidate per substream index, in index order; outer draws that
    fail to converge onto the short chains are dropped. This is the dump
    behind the CLI's region-sample command.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"unknown variant {variant!r}, expected one of {_VARIANTS}")
    if len(p_xz.axes) != 2:
        raise DomainError(f"the source must have two axes, got {p_xz.labels}")
    pxz = p_xz.mass
    nx, nz = pxz.shape
    cap_u = cfg.cap_u if cfg.cap_u is not None else nx
    cap_v = cfg.cap_v if cfg.cap_v is not None else nz
    cond = _source_conditionals(pxz)
    points = []
    for i in range(cfg.count):
        rng = _substream(cfg.seed, i)
        if variant == "inner":
            rows_u, rows_v = _draw_inner(
                rng, pxz, cap_u, cap_v, cfg.dirichlet_concentration
            )
            iuv, iux, ivz = _inner_stats(pxz, rows_u, rows_v)
            points.append(RegionPoint(mu=iuv, r1=iux, r2=ivz))
        else:
            _, st = _draw_outer(rng, pxz, cond, cap_u, cap_v, cfg.dirichlet_concentration)
            if st is None:
                continue
            points.append(RegionPoint(mu=_region_mu(st, variant), r1=st["iux"], r2=st["ivz"]))
    return points
