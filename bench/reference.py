"""Reference computations made apart from coinfo.

Nothing here imports coinfo: every value the benchmark checks a coinfo
output against is computed from the closed forms of the literature or by
plain numpy enumeration. All quantities are in nats.
"""

import itertools
import math

import numpy as np

LN2 = math.log(2.0)


def hb(p):
    """Binary entropy -p ln p - (1-p) ln(1-p); scalars or arrays."""
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log(p) - (1.0 - p) * np.log1p(-p)
    h = np.where((p <= 0.0) | (p >= 1.0), 0.0, h)
    return float(h) if h.ndim == 0 else h


def hb_inv(h, iterations=100):
    """The p in [0, 1/2] with hb(p) = h, by bisection; scalars or arrays.

    Arguments are clipped to [0, ln 2] first, so hb_inv(ln 2 - r) is
    defined for every rate r >= 0.
    """
    h = np.clip(np.asarray(h, dtype=np.float64), 0.0, LN2)
    lo = np.zeros_like(h)
    hi = np.full_like(h, 0.5)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = hb(mid) < h
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    p = 0.5 * (lo + hi)
    p = np.where(h <= 0.0, 0.0, np.where(h >= LN2, 0.5, p))
    return float(p) if p.ndim == 0 else p


def star(a, b):
    """Binary convolution a(1-b) + (1-a)b."""
    return a * (1.0 - b) + (1.0 - a) * b


def dsbs_mass(p):
    """Joint pmf of the doubly symmetric binary source with crossover p."""
    return np.array([[1.0 - p, p], [p, 1.0 - p]]) / 2.0


def entropy(mass):
    """Shannon entropy of a nonnegative array summing to one."""
    m = np.asarray(mass, dtype=np.float64).ravel()
    m = m[m > 0.0]
    return float(-np.sum(m * np.log(m)))


def _marginal(mass, keep):
    drop = tuple(i for i in range(mass.ndim) if i not in keep)
    return mass.sum(axis=drop) if drop else mass


def mi(mass, axes_a, axes_b):
    """I(A;B) of a joint table, with A and B given as tuples of axis numbers."""
    mass = np.asarray(mass, dtype=np.float64)
    a, b = tuple(axes_a), tuple(axes_b)
    return (
        entropy(_marginal(mass, a))
        + entropy(_marginal(mass, b))
        - entropy(_marginal(mass, a + b))
    )


def mi_table(w):
    """I(row; column) of a 2-D joint table."""
    return mi(w, (0,), (1,))


def dsbs_ib_curve(r, p):
    """Relevance ln2 - hb(hb_inv(ln2 - r) * p) of the DSBS bottleneck at rate r.

    Mrs. Gerber's lemma makes this the largest I(u;z) over u - x - z with
    I(u;x) <= r, attained by a binary symmetric test channel.
    """
    return LN2 - hb(star(hb_inv(LN2 - np.asarray(r, dtype=np.float64)), p))


def sym_inner_curve(r, p):
    """Closed-form symmetric inner boundary ln2 - hb(a * p * a), a = hb_inv(ln2 - r)."""
    a = hb_inv(LN2 - np.asarray(r, dtype=np.float64))
    return LN2 - hb(star(star(a, p), a))


def upper_envelope(points):
    """Upper concave envelope of (r, mu) points: (knot abscissae, knot values)."""
    hull = []
    for pt in sorted(set(points)):
        while len(hull) >= 2:
            (r0, m0), (r1, m1) = hull[-2], hull[-1]
            if (r1 - r0) * (pt[1] - m0) - (m1 - m0) * (pt[0] - r0) < 0.0:
                break
            hull.pop()
        hull.append(pt)
    return np.array([h[0] for h in hull]), np.array([h[1] for h in hull])


def sym_inner_envelope(r, p, window_grid, points=201):
    """Concave envelope, at abscissae r, of the symmetric inner points.

    The points are (ln2 - hb(a), ln2 - hb(a * p * a)) over a uniform
    crossover grid joined with the crossovers of the window grid's rates,
    the construction dsbs-gap documents for its inner curve. Outside the
    knots the envelope is extended as a constant.
    """
    rates = [float(g) for g in window_grid if 0.0 <= g <= LN2]
    alphas = np.concatenate([np.linspace(0.0, 0.5, points), hb_inv(LN2 - np.array(rates))])
    r_pts, _, mu_pts = sb_values(p, alphas, alphas)
    knots_r, knots_mu = upper_envelope(zip(r_pts.tolist(), mu_pts.tolist()))
    return np.interp(r, knots_r, knots_mu)


def sb_values(p, alpha, beta):
    """(r1, r2, mu) of BSC(alpha), BSC(beta) test channels on DSBS(p)."""
    return LN2 - hb(alpha), LN2 - hb(beta), LN2 - hb(star(star(alpha, p), beta))


def best_bsc_support(p, lam, points=201):
    """Largest l1 mu + l2 r1 + l3 r2 over BSC pairs on a uniform crossover grid."""
    grid = np.linspace(0.0, 0.5, points)
    r1, r2, mu = sb_values(p, grid[:, None], grid[None, :])
    l1, l2, l3 = lam
    return float(np.max(l1 * mu + l2 * r1 + l3 * r2))


def product_table(pxz, n):
    """Joint pmf of n-letter blocks, first letter most significant."""
    table = np.asarray(pxz, dtype=np.float64)
    out = table
    for _ in range(n - 1):
        out = np.einsum("ab,cd->acbd", out, table).reshape(
            out.shape[0] * table.shape[0], out.shape[1] * table.shape[1]
        )
    return out


def _one_hot_codes(length, m):
    # every raw lookup table of `length` blocks into m labels, as one-hot rows
    codes = np.array(list(itertools.product(range(m), repeat=length)), dtype=np.intp)
    onehot = np.zeros((len(codes), length, m))
    onehot[np.arange(len(codes))[:, None], np.arange(length)[None, :], codes] = 1.0
    return onehot


def _batched_mi(w):
    # I(u;v) for a stack of (m1, m2) joint tables, 0 log 0 = 0
    def h(t, axes):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(t > 0.0, -t * np.log(t), 0.0)
        return terms.sum(axis=axes)

    return h(w.sum(axis=-1), -1) + h(w.sum(axis=-2), -1) - h(w, (-2, -1))


def theta(pxz, n, f, g, m1, m2):
    """Per-letter I(f(x^n); g(z^n)) of one code pair, by direct pushforward."""
    table = product_table(pxz, n)
    w = np.zeros((m1, m2))
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            w[fi, gj] += table[i, j]
    return mi_table(w) / n


def raw_best_theta(pxz, n, m1, m2):
    """Max of theta over every raw (not label-canonical) code pair.

    The f tables are processed in chunks so that memory stays at a few
    megabytes for the sizes the benchmark uses (2^8 x 2^8 pairs).
    """
    table = product_table(pxz, n)
    fs = _one_hot_codes(table.shape[0], m1)
    gs = _one_hot_codes(table.shape[1], m2)
    tg = np.einsum("ab,gbv->gav", table, gs)
    best = -math.inf
    for start in range(0, len(fs), 64):
        w = np.einsum("fau,gav->fguv", fs[start : start + 64], tg)
        best = max(best, float(_batched_mi(w).max()))
    return best / n


def canonical_code_pairs(len_f, m1, len_g, m2):
    """Count of label-canonical code pairs: Stirling numbers of the second kind."""

    def stirling2(n, k):
        return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)

    def canonical(length, m):
        return sum(stirling2(length, k) for k in range(1, min(m, length) + 1))

    return canonical(len_f, m1) * canonical(len_g, m2)
