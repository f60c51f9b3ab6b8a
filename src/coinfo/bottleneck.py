"""The exact bottleneck curve of a binary x: two posteriors per abscissa.

For a binary x, sup over p(u|x) of I(u;z) - s I(u;x) is H(z) - s H(x)
plus the upper concave envelope of g_s(q) = s h_b(q) - H(z | x ~ q), read
at p = p(x = 1), and two posteriors q_a < p < q_b touch it (Witsenhausen &
Wyner 1975; Nair 2013). So the point of the bottleneck curve at a rate r
is a root-find in (q_a, q_b, s), with no iteration over a family of
multipliers: optimize.ib_curve takes a solved point for every abscissa
of its grid from _two_posterior_knots. Its knots, like those of the
start table here (_tp_start), come from optimize's one hull body, the
core of upper_concave_envelope. Every step runs through
optimize._iterate, the one stop rule of every solve, and uses
elementwise operations only, so no BLAS kernel runs and a row gets the
same floats in any batch. The module is imported by the first binary-x
ib_curve call, not with optimize.
"""

from dataclasses import dataclass

import numpy as np

from .optimize import _iterate, _upper_hull
from .probability import _NEG_TOL, _hb_logs

# The two-posterior solve (_two_posterior_knots).
# A posterior q of x = 1 is held as its distance u to the end of its side
# of p = p(x = 1): q_a = u_a below p and q_b = 1 - u_b above it, so both
# keep their precision next to 0 and 1, and it is stepped in
# tau = log(u / (1 - u)). A table of distances is p sigma(tau) below p and
# (1 - p) sigma(tau) above it at evenly spaced tau, so it is log-spaced
# toward both the end and p, and it also holds the end itself, tau =
# _TP_END, where u is about 1e-304: a posterior at or below it is at its
# end. _TP_START is the start table's (first tau, last tau, count) and
# _TP_CHECK the certificate's. A step goes at most _TP_FRACTION of the way
# to p, a row takes at most _TP_ROUNDS steps, and rows are solved
# _TP_BLOCK at a time, so the tables' products with a block stay bounded.
_TP_END = -700.0
_TP_START = (-20.0, 16.0, 37)
_TP_CHECK = (-40.0, 16.0, 200)
_TP_FRACTION = 0.5
_TP_ROUNDS = 40
_TP_BLOCK = 1024


# the sign of d/dq against d/du on each side of a two-posterior pair: row 0
# is the side below p, where q = u, and row 1 the side above it, q = 1 - u
_TP_SIDES = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class _BinarySource:
    """A source with a binary x, as the two-posterior solve reads it.
    shares holds p = p(x = 1) and p0 = 1 - p, with p + p0 = 1 in real
    arithmetic: the distance from each side's end to p. limits holds the
    tau of those distances, which a step stays below. near[k] is the
    z-row at the end of side k over the letters z of positive mass, p(z |
    x = 0) then p(z | x = 1), and far[k] the other; h_x = H(x) and h_z =
    H(z)."""

    shares: np.ndarray
    limits: np.ndarray
    near: np.ndarray
    far: np.ndarray
    h_x: float
    h_z: float

    @classmethod
    def of(cls, pxz):
        pxz = pxz[:, pxz.sum(axis=0) > 0.0]
        px = pxz.sum(axis=1)
        # the smaller share is read from the source and the larger is 1
        # less it; the smaller is then 1 less the larger, exactly
        large = 1.0 - px.min() / (px[0] + px[1])
        small = 1.0 - large
        p, p0 = (small, large) if px[1] <= px[0] else (large, small)
        rows = pxz / px[:, None]
        near, far = rows[:, None, :], rows[::-1, None, :]
        h_z = _tp_terms(np.array([[p]]), near[:1], far[:1])[2][0, 0]
        shares = np.array([[p], [p0]])
        limits = np.log(shares) - np.log(shares[::-1])
        return cls(shares, limits, near, far, float(_hb_logs(np.array(p))[0]), float(h_z))

    def table(self, span):
        """The distances u[k] of side k of a table, `span` = (first tau,
        last tau, count), with the end first; see _TP_END."""
        return self.shares * _sigmoid(np.append(_TP_END, np.linspace(*span)))


def _sigmoid(tau):
    return np.exp(-np.logaddexp(0.0, -tau))


def _tp_terms(u, near, far):
    """At distances u[k] from the end of side k: h_b(u), dh_b/du, phi(u) =
    H((1 - u) near[k] + u far[k]) and dphi/du, u (1 - u) |d2phi/du2|, and
    u (1 - u). A letter of zero mass in a mixture adds nothing."""
    h, log_u, log_rest = _hb_logs(u)
    mix = (1.0 - u)[..., None] * near + u[..., None] * far
    live = mix > 0.0
    log_mix = np.log(mix, out=np.zeros(mix.shape), where=live)
    d = far - near
    spread = u * (1.0 - u)
    curve = spread * np.divide(d * d, mix, out=np.zeros(mix.shape), where=live).sum(axis=-1)
    return h, log_rest - log_u, -(mix * log_mix).sum(axis=-1), -(d * log_mix).sum(axis=-1), curve, spread


def _tp_pair(src, tau, s):
    """A batch of pairs, tau[k] the tau of side k, at their slopes s: the
    pair's rate H(x) - sum_k w[k] h_b(q[k]) and relevance H(z) - sum_k
    w[k] H(z | x ~ q[k]), its width q_b - q_a and weights w, and per side,
    with derivatives in q, u, h_b(q), h_b'(q), g_s(q) = s h_b(q) - H(z |
    x ~ q), g_s'(q), g_s''(q) q (1 - q) and q (1 - q)."""
    u = _sigmoid(tau)
    h, dh, phi, dphi, curve, spread = _tp_terms(u, src.near, src.far)
    # each side's distance to p is an exact subtraction, so the weights
    # sum to 1 and the posteriors average to p
    gaps = src.shares - u
    width = gaps[0] + gaps[1]
    w = gaps[::-1] / width
    dh, dphi = dh * _TP_SIDES, dphi * _TP_SIDES
    rate, relevance = src.h_x - (w * h).sum(axis=0), src.h_z - (w * phi).sum(axis=0)
    return rate, relevance, width, w, u, h, dh, s * h - phi, s * dh - dphi, curve - s, spread


def _tp_step(src, tau, s, target):
    """One Newton step of a batch of rows on the pair's equations: the
    pair's (rate, relevance) before it, and the stepped (tau, s).

    The unknowns are tau[0], tau[1] and s. The equations are the rate,
    H(x) - w_a h_b(q_a) - w_b h_b(q_b) = target, and the tangency of the
    chord of g_s at both posteriors, each divided by the width twice,
    which keeps the collapsed pair q_a = q_b = p from solving them:
    (chord - g_s'(q_a)) / width = 0 and (g_s'(q_b) - chord) / width = 0.
    A posterior at its end (tau at _TP_END) whose tangent lies on the
    chord's side there stays at the end: its tangency equation is
    replaced by a zero step. The 3 x 3 system is solved by explicit
    elimination. A step goes at most _TP_FRACTION of the way to p on
    either side, and not past the end; a step that is not finite is not
    taken."""
    rate, relevance, width, w, _, h, dh, g, dg, k, spread = _tp_pair(src, tau, s)
    chord, chord_h = (g[1] - g[0]) / width, (h[1] - h[0]) / width
    e = (chord - dg) * _TP_SIDES
    t = e / width
    # the rows of the tangency equations, times the width, and of the rate
    a3, b3 = chord_h - dh[0], dh[1] - chord_h
    rows = [
        [2.0 * t[0] * spread[0] - k[0], (t[0] - t[1]) * spread[1], a3, -e[0]],
        [(t[1] - t[0]) * spread[0], 2.0 * t[1] * spread[1] - k[1], b3, -e[1]],
    ]
    held = (tau <= _TP_END) & (e >= 0.0)
    for side in np.flatnonzero(held.any(axis=1)):
        unit = (1.0 - side, float(side), 0.0, 0.0)
        rows[side] = [np.where(held[side], c, x) for c, x in zip(unit, rows[side])]
    (a1, a2, a3, ra), (b1, b2, b3, rb) = rows
    c1, c2, rc = w[0] * a3 * spread[0], w[1] * b3 * spread[1], target - rate
    # s out of the tangency rows, then the 2 x 2 system with the rate row
    p1, p2, rp = a3 * b1 - b3 * a1, a3 * b2 - b3 * a2, a3 * rb - b3 * ra
    det = p1 * c2 - p2 * c1
    d = np.stack([(rp * c2 - p2 * rc) / det, (p1 * rc - rp * c1) / det])
    d_s = np.where(np.abs(a3) >= np.abs(b3), (ra - a1 * d[0] - a2 * d[1]) / a3, (rb - b1 * d[0] - b2 * d[1]) / b3)
    reach = np.min(np.where(d > 0.0, _TP_FRACTION * (src.limits - tau) / d, 1.0), axis=0, initial=1.0)
    reach = np.where(np.isfinite(d).all(axis=0) & np.isfinite(d_s) & (reach > 0.0), reach, 0.0)
    return (rate, relevance), (np.maximum(tau + reach * d, _TP_END), s + reach * d_s)


def _tp_start(src):
    """The start pairs: the upper concave envelope of the (rate, relevance)
    points of every pair of the _TP_START table, but the pair of both
    ends, whose rates exceed 1e-12. Returns its vertices in increasing
    rate, the origin first: (rates, relevances, tau), tau[k] of side k."""
    u = src.table(_TP_START)
    h, _, phi, *_ = _tp_terms(u, src.near, src.far)
    gaps = src.shares - u
    below, above = gaps[0][:, None], gaps[1][None, :]
    w_a, w_b = above / (below + above), below / (below + above)
    rate = (src.h_x - (w_a * h[0][:, None] + w_b * h[1][None, :])).ravel()[1:]
    relevance = (src.h_z - (w_a * phi[0][:, None] + w_b * phi[1][None, :])).ravel()[1:]
    tau = np.log(u) - np.log1p(-u)
    tau = np.stack([t.ravel()[1:] for t in np.meshgrid(tau[0], tau[1], indexing="ij")])
    # the pairs above every pair of lower rate, in increasing rate, after
    # the origin; then their envelope
    order = np.lexsort((-relevance, rate))
    order = order[rate[order] > _NEG_TOL]
    best = np.maximum.accumulate(np.append(0.0, relevance[order]))[:-1]
    front = order[relevance[order] > best]
    x, y = np.append(0.0, rate[front]), np.append(0.0, relevance[front])
    # x increases strictly, so each knot's rate finds its pair
    keep = np.searchsorted(x, [r for r, _ in _upper_hull(zip(x.tolist(), y.tolist()))])
    return x[keep], y[keep], np.concatenate([np.full((2, 1), np.nan), tau[:, front[keep[1:] - 1]]], axis=1)


def _two_posterior_knots(pxz, rates):
    """The knots of the bottleneck curve of a binary-x source pxz at the
    abscissae rates (positive, below H(x)): (rates, relevances) arrays.

    Each row r is a root-find in (q_a, q_b, s) (see the module
    docstring): the rate of the pair is r, and g_s' at both posteriors is
    the chord's slope (_tp_step; a posterior may instead sit at its end).
    A row starts from the vertex nearer r of the piece of the
    start table's envelope (_tp_start) that holds r, at that piece's
    slope, and takes its steps through _iterate: it stops at the first
    step that moves its (rate, relevance) by at most 1e-15, or after
    _TP_ROUNDS steps. Rows are solved _TP_BLOCK at a time, and every
    operation acts on each row alone, so a row's floats do not depend on
    its batch.

    A row is certified when its rate is within 1e-12 of r and no posterior
    of the _TP_CHECK table lifts g_s more than 1e-12 above the line of its
    pair (_tp_gap): then no channel beats its relevance at its rate by
    more than that, up to the table's resolution. Its (rate, relevance)
    is then a knot. A row that is not certified, at a linear piece of the
    curve where the step's system is singular, or where the optimum needs
    three posteriors, adds both ends of the start envelope's piece that
    holds r instead, so it reads that piece's chord and is never dropped."""
    if not rates.size:
        return np.empty(0), np.empty(0)
    src = _BinarySource.of(pxz)
    start = _tp_start(src)
    if len(start[0]) < 2:
        # no pair of the table lifts the relevance above 0
        return np.empty(0), np.empty(0)
    u = src.table(_TP_CHECK)
    h, _, phi, *_ = _tp_terms(u, src.near, src.far)
    knots = [_tp_block(src, start, (u, h, phi), rates[lo : lo + _TP_BLOCK]) for lo in range(0, len(rates), _TP_BLOCK)]
    return tuple(np.concatenate(k) for k in zip(*knots))


def _tp_block(src, start, check, rates):
    # one block of _two_posterior_knots: solve, certify, and fall back
    hull_rate, hull_relevance, hull_tau = start
    k = np.clip(np.searchsorted(hull_rate, rates, side="right"), 1, len(hull_rate) - 1)
    first = np.where((rates - hull_rate[k - 1] < hull_rate[k] - rates) & (k > 1), k - 1, k)
    slope = (hull_relevance[k] - hull_relevance[k - 1]) / (hull_rate[k] - hull_rate[k - 1])
    last_tau, last_s = np.empty((2, len(rates))), np.empty(len(rates))

    def update(solution, carry):
        tau, s, target, row = carry
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            point, (tau_next, s_next) = _tp_step(src, tau.T, s, target)
        last_tau[:, row], last_s[row] = tau.T, s
        return point, (tau_next.T, s_next, target, row)

    unset = np.full(len(rates), np.nan)
    carry = (hull_tau[:, first].T, slope, rates, np.arange(len(rates)))
    rate, relevance = _iterate(update, (unset, unset), carry, _TP_ROUNDS)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = _tp_gap(src, check, last_tau, last_s)
    good = (np.abs(rate - rates) <= _NEG_TOL) & (gap <= _NEG_TOL)
    ends = np.concatenate([k[~good] - 1, k[~good]])
    ends = ends[ends > 0]
    return np.append(rate[good], hull_rate[ends]), np.append(relevance[good], hull_relevance[ends])


def _tp_gap(src, check, tau, s):
    """The most that g_s rises above the line of each row's pair over the
    certificate table (u, h_b, H(z | x ~ q)) of both sides: the line at
    the tangent's slope at a posterior off its end, anchored on each side
    at that side's posterior."""
    u, h, phi = check
    _, _, _, _, u_pair, _, _, g, dg, _, _ = _tp_pair(src, tau, s)
    slope = _TP_SIDES * np.where(tau[0] > _TP_END, dg[0], dg[1])
    # g_s(q) less the line is s h_b - phi - slope u, less its value at the anchor
    lifted = (s[:, None] * h[:, None, :] - phi[:, None, :] - slope[..., None] * u[:, None, :]).max(axis=2)
    gap = (lifted - (g - slope * u_pair)).max(axis=0)
    return np.where(np.isfinite(gap), gap, np.inf)
