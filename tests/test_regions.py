"""Tests for the region-point evaluators.

Frozen constants (mpmath, 50 digits):
    ln 2                = 0.69314718055994531
    h_b(0.1)            = 0.32508297339144824
    h_b(0.25)           = 0.56233514461880835
    ln 2 - h_b(0.25)    = 0.13081203594113696
"""

import itertools
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from coinfo.errors import (
    AxisError,
    ConstraintError,
    DomainError,
    NormalizationError,
    SizeError,
    SupportError,
)
from coinfo.probability import (
    LOG2,
    Alphabet,
    Channel,
    JointPmf,
    binary_entropy,
    bsc_channel,
    compose_markov,
    conditional_mutual_information,
    dsbs,
    mutual_information,
)
from coinfo.regions import (
    BinningChoice,
    Decoder,
    MultiRegionPoint,
    RegionPoint,
    SubsetPair,
    attach_channels,
    ceo_point,
    ib_point,
    inner_point,
    log_loss_fidelity,
    multi_inner_membership,
    multi_inner_search,
    multi_outer_point_ro,
    multi_outer_point_ro_prime,
    omega_pairs,
    optimal_posterior_decoder,
    outer_point_ro,
    outer_point_ro_prime,
    sb_point,
    sb_surface,
)
from coinfo import probability, regions

HB_QUARTER = 0.56233514461880835


def random_channel(rng, in_size, out_size, in_label, out_label):
    rows = rng.dirichlet(np.ones(out_size), size=in_size)
    return Channel(Alphabet(in_size, in_label), Alphabet(out_size, out_label), rows)


def random_joint(rng, shape, labels):
    mass = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    axes = tuple(Alphabet(s, l) for s, l in zip(shape, labels))
    return JointPmf(axes, mass)


class TestRegionPoint:
    def test_consequence_enforced(self):
        with pytest.raises(ConstraintError):
            RegionPoint(mu=0.5, r1=0.2, r2=0.9)

    def test_small_overshoot_tolerated(self):
        p = RegionPoint(mu=0.2 + 1e-10, r1=0.2, r2=0.9)
        assert p.mu > p.r1

    def test_nonfinite_rejected(self):
        with pytest.raises(ConstraintError):
            RegionPoint(mu=math.nan, r1=0.2, r2=0.9)


class TestSubsetPairs:
    def test_empty_rejected(self):
        with pytest.raises(ConstraintError):
            SubsetPair(frozenset(), frozenset({1}))

    def test_omega_counts(self):
        # |Omega| = 3^K - 2^(K+1) + 1
        for k in range(2, 6):
            assert len(omega_pairs(k)) == 3**k - 2 ** (k + 1) + 1

    def test_omega_two_sources(self):
        assert omega_pairs(2) == [
            SubsetPair(frozenset({1}), frozenset({2})),
            SubsetPair(frozenset({2}), frozenset({1})),
        ]

    def test_omega_pairs_disjoint(self):
        assert all(pair.disjoint for pair in omega_pairs(4))

    def test_omega_pairs_is_a_fresh_list_per_call(self):
        # the pairs are built once per k, and a caller may change its list
        first = omega_pairs(3)
        first.clear()
        second = omega_pairs(3)
        assert len(second) == 12 and second == omega_pairs(3)

    def test_multi_point_pair_cap(self):
        pairs = omega_pairs(2)
        with pytest.raises(ConstraintError):
            MultiRegionPoint({p: 0.0 for p in pairs}, rates=(1.0,))


class TestInnerPoint:
    def test_identity_channels_recover_source(self):
        ident = [[1.0, 0.0], [0.0, 1.0]]
        ch_u = Channel(Alphabet(2, "x"), Alphabet(2, "u"), ident)
        ch_v = Channel(Alphabet(2, "z"), Alphabet(2, "v"), ident)
        pt = inner_point(dsbs(0.1), ch_u, ch_v)
        assert pt.r1 == pytest.approx(LOG2, abs=1e-12)
        assert pt.r2 == pytest.approx(LOG2, abs=1e-12)
        assert pt.mu == pytest.approx(0.36806420716849707, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        grid = np.linspace(0.0, 0.5, 7)
        for p in (0.1, 0.25):
            src = dsbs(p)
            for a, b in itertools.product(grid, grid):
                pt = inner_point(src, bsc_channel(a, "x", "u"), bsc_channel(b, "z", "v"))
                ref = sb_point(p, a, b)
                assert pt.mu == pytest.approx(ref.mu, abs=1e-12)
                assert pt.r1 == pytest.approx(ref.r1, abs=1e-12)
                assert pt.r2 == pytest.approx(ref.r2, abs=1e-12)

    def test_sb_point_domain(self):
        with pytest.raises(DomainError):
            sb_point(0.1, 0.6, 0.1)
        with pytest.raises(DomainError):
            sb_point(-0.2, 0.1, 0.1)

    def test_sb_point_corner(self):
        pt = sb_point(0.25, 0.0, 0.0)
        assert pt.r1 == pt.r2 == LOG2
        assert pt.mu == pytest.approx(0.13081203594113696, abs=1e-12)

    def test_sb_surface_equals_sb_point_bitwise(self):
        grid = np.linspace(0.0, 0.5, 13).tolist() + [1e-300, 0.5 - 1e-16]
        n = len(grid)
        for p in (0.0, 0.1, 0.25, 0.5):
            rates, mu = sb_surface(p, grid)
            assert rates.dtype == mu.dtype == np.float64
            assert rates.shape == (n,) and mu.shape == (n, n)
            for i, j in itertools.product(range(n), repeat=2):
                pt = sb_point(p, grid[i], grid[j])
                got = (float(rates[i]), float(rates[j]), float(mu[i, j]))
                assert got == (pt.r1, pt.r2, pt.mu)
                for g, w in zip(got, (pt.r1, pt.r2, pt.mu)):
                    assert math.copysign(1.0, g) == math.copysign(1.0, w)
        rates, mu = sb_surface(0.1, [])
        assert rates.shape == (0,) and mu.shape == (0, 0)
        assert rates.dtype == mu.dtype == np.float64

    def test_sb_surface_domain(self):
        for p, grid in ((0.6, [0.1]), (-0.2, [0.1]), (0.1, [0.1, 0.6]), (0.1, [math.nan]), (0.6, [])):
            with pytest.raises(DomainError):
                sb_surface(p, grid)

    def test_sb_surface_checks_every_cell(self, monkeypatch):
        # a non-finite mu in one cell breaks the RegionPoint invariants
        hb = regions._hb_closed_array

        def nan_at_7_16(q):
            # at p = 1/4, cell (1/4, 1/4) alone has the effective crossover 7/16
            return np.where(q == 0.4375, math.nan, hb(q))

        monkeypatch.setattr(regions, "_hb_closed_array", nan_at_7_16)
        with pytest.raises(ConstraintError, match="RegionPoint.mu must be finite"):
            sb_surface(0.25, [0.0, 0.25])

    @pytest.mark.parametrize("cells", [1, 7, 40])
    def test_sb_surface_row_blocks_do_not_change_bits(self, monkeypatch, cells):
        # blocks of one row (cells 1 and 7 are below a row of 13) and of three
        grid = np.linspace(0.0, 0.5, 13)
        want = [a.tobytes() for a in sb_surface(0.1, grid)]
        monkeypatch.setattr(regions, "_SURFACE_BLOCK_CELLS", cells)
        assert [a.tobytes() for a in sb_surface(0.1, grid)] == want

    def test_sb_surface_grid_cap(self, monkeypatch):
        # the JointPmf cell cap: a 10 x 10 grid fits under 100 cells, 11 x 11 does not
        monkeypatch.setattr(probability, "_MAX_CELLS", 100)
        assert sb_surface(0.25, np.linspace(0.0, 0.5, 10))[1].shape == (10, 10)
        with pytest.raises(SizeError, match="121 cells, cap is 100"):
            sb_surface(0.25, np.linspace(0.0, 0.5, 11))


class TestOuterPoints:
    def test_long_chain_mu_is_iuv(self):
        # on u-x-z-v the three-term mu collapses to I(u;v)
        rng = np.random.default_rng(11)
        for _ in range(40):
            src = random_joint(rng, (3, 3), ("x", "z"))
            ch_u = random_channel(rng, 3, 2, "x", "u")
            ch_v = random_channel(rng, 3, 4, "z", "v")
            j = compose_markov(src, ch_u, ch_v)
            pt = outer_point_ro(j)
            assert pt.mu == pytest.approx(mutual_information(j, "u", "v"), abs=1e-10)

    def test_ro_never_above_ro_prime(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            src = random_joint(rng, (2, 3), ("x", "z"))
            ch_u = random_channel(rng, 2, 3, "x", "u")
            ch_v = random_channel(rng, 3, 2, "z", "v")
            j = compose_markov(src, ch_u, ch_v)
            lo = outer_point_ro(j)
            hi = outer_point_ro_prime(j)
            assert lo.mu <= hi.mu + 1e-12
            assert lo.r1 == hi.r1 and lo.r2 == hi.r2

    def test_constant_u_gives_nonpositive_mu(self):
        const = Channel(Alphabet(2, "x"), Alphabet(2, "u"), [[1.0, 0.0], [1.0, 0.0]])
        j = compose_markov(dsbs(0.1), const, bsc_channel(0.2, "z", "v"))
        pt = outer_point_ro(j)
        assert abs(pt.r1) <= 1e-12
        assert pt.mu <= 1e-12

    def test_symmetric_bsc_ro_prime_closed_form(self):
        from coinfo.probability import binary_convolution

        for alpha in (0.0, 0.1, 0.3):
            j = compose_markov(
                dsbs(0.1), bsc_channel(alpha, "x", "u"), bsc_channel(alpha, "z", "v")
            )
            pt = outer_point_ro_prime(j)
            want = LOG2 - binary_entropy(binary_convolution(alpha, 0.1))
            assert pt.mu == pytest.approx(want, abs=1e-12)

    def test_chain_violation_named(self):
        # u copies z, which breaks u-x-z
        pxz = dsbs(0.1).mass
        ch_v = bsc_channel(0.2, "z", "v").rows
        mass = np.zeros((2, 2, 2, 2))
        for x, z, v in itertools.product(range(2), repeat=3):
            mass[z, x, z, v] += pxz[x, z] * ch_v[z, v]
        j = JointPmf(
            (Alphabet(2, "u"), Alphabet(2, "x"), Alphabet(2, "z"), Alphabet(2, "v")),
            mass,
        )
        with pytest.raises(ConstraintError, match=r"u-x-z.*I\(u;z\|x\)"):
            outer_point_ro(j)
        # a loose tolerance lets the same joint through
        pt = outer_point_ro(j, markov_tol=10.0)
        assert math.isfinite(pt.mu)

    def test_second_chain_violation_named(self):
        pxz = dsbs(0.1).mass
        ch_u = bsc_channel(0.2, "x", "u").rows
        mass = np.zeros((2, 2, 2, 2))
        for u, x, z in itertools.product(range(2), repeat=3):
            mass[u, x, z, x] += pxz[x, z] * ch_u[x, u]
        j = JointPmf(
            (Alphabet(2, "u"), Alphabet(2, "x"), Alphabet(2, "z"), Alphabet(2, "v")),
            mass,
        )
        with pytest.raises(ConstraintError, match=r"x-z-v"):
            outer_point_ro_prime(j)


class TestAttachChannels:
    def test_matches_compose_markov(self):
        rng = np.random.default_rng(13)
        src = random_joint(rng, (3, 3), ("x", "z"))
        ch_u = random_channel(rng, 3, 2, "x", "u")
        ch_v = random_channel(rng, 3, 2, "z", "v")
        a = attach_channels(src, [ch_u, ch_v], ("x", "z"))
        b = compose_markov(src, ch_u, ch_v)
        # axis orders differ: (u, v, x, z) vs (u, x, z, v)
        perm = [b.axis_index(l) for l in a.labels]
        assert np.allclose(a.mass, np.transpose(b.mass, perm), atol=1e-15)

    def test_outputs_conditionally_independent(self):
        rng = np.random.default_rng(14)
        src = random_joint(rng, (2, 2, 2), ("x1", "x2", "x3"))
        chs = [random_channel(rng, 2, 2, f"x{k}", f"u{k}") for k in (1, 2, 3)]
        j = attach_channels(src, chs)
        from coinfo.probability import conditional_mutual_information

        for k in (1, 2, 3):
            rest = [f"x{i}" for i in (1, 2, 3) if i != k]
            c = conditional_mutual_information(j, f"u{k}", tuple(rest), f"x{k}")
            assert c <= 1e-12

    def test_label_collision_rejected(self):
        src = dsbs(0.1)
        ch = bsc_channel(0.2, "x", "z")
        with pytest.raises(AxisError):
            attach_channels(src, [ch], ("x",))


class TestMultiSource:
    def two_source_setup(self, rng):
        src = random_joint(rng, (2, 3), ("x1", "x2"))
        ch1 = random_channel(rng, 2, 2, "x1", "u1")
        ch2 = random_channel(rng, 3, 2, "x2", "u2")
        return src, ch1, ch2, attach_channels(src, [ch1, ch2])

    def test_k2_reduces_to_two_source(self):
        rng = np.random.default_rng(15)
        pair12 = SubsetPair(frozenset({1}), frozenset({2}))
        pair21 = SubsetPair(frozenset({2}), frozenset({1}))
        for _ in range(30):
            _, _, _, j = self.two_source_setup(rng)
            multi_p = multi_outer_point_ro_prime(j, ("u1", "u2"), ("x1", "x2"))
            multi_o = multi_outer_point_ro(j, ("u1", "u2"), ("x1", "x2"))
            two_p = outer_point_ro_prime(j, u="u1", x="x1", z="x2", v="u2")
            two_o = outer_point_ro(j, u="u1", x="x1", z="x2", v="u2")
            got = min(multi_p.mu[pair12], multi_p.mu[pair21])
            assert got == pytest.approx(two_p.mu, abs=1e-10)
            assert multi_o.mu[pair12] == pytest.approx(two_o.mu, abs=1e-10)
            assert multi_o.mu[pair21] == pytest.approx(two_o.mu, abs=1e-10)
            assert multi_p.rates[0] == pytest.approx(two_p.r1, abs=1e-12)
            assert multi_p.rates[1] == pytest.approx(two_p.r2, abs=1e-12)

    def test_two_source_points_are_the_k2_reads_bitwise(self):
        # both read one subset-entropy table of the joint: ro_prime's mu is
        # Python's min of the two cross terms, ro's is either pair's mu
        rng = np.random.default_rng(17)
        pair12 = SubsetPair(frozenset({1}), frozenset({2}))
        pair21 = SubsetPair(frozenset({2}), frozenset({1}))
        for _ in range(30):
            _, _, _, j = self.two_source_setup(rng)
            multi_p = multi_outer_point_ro_prime(j, ("u1", "u2"), ("x1", "x2"))
            multi_o = multi_outer_point_ro(j, ("u1", "u2"), ("x1", "x2"))
            two_p = outer_point_ro_prime(j, u="u1", x="x1", z="x2", v="u2")
            two_o = outer_point_ro(j, u="u1", x="x1", z="x2", v="u2")
            want_p = (min(multi_p.mu[pair12], multi_p.mu[pair21]), *multi_p.rates)
            assert [x.hex() for x in (two_p.mu, two_p.r1, two_p.r2)] == [x.hex() for x in want_p]
            for pair in (pair12, pair21):
                want_o = (multi_o.mu[pair], *multi_o.rates)
                assert [x.hex() for x in (two_o.mu, two_o.r1, two_o.r2)] == [x.hex() for x in want_o]

    def test_two_source_lattice_cap(self, monkeypatch):
        # a 2 x 2 x 2 x 2 joint has a subset-entropy table of 3^4 = 81 cells
        monkeypatch.setattr(probability, "_MAX_CELLS", 80)
        j = compose_markov(dsbs(0.1), bsc_channel(0.2, "x", "u"), bsc_channel(0.3, "z", "v"))
        for point in (outer_point_ro, outer_point_ro_prime):
            with pytest.raises(SizeError, match="81 cells, cap is 80"):
                point(j)

    def test_multi_chain_violation_named(self):
        # u1 built from x2 violates u1 - x1 - x2
        rng = np.random.default_rng(16)
        src = random_joint(rng, (2, 2), ("x1", "x2"))
        ch = random_channel(rng, 2, 2, "x2", "u1")
        j = attach_channels(src, [ch], ("x2",))
        with pytest.raises(ConstraintError, match=r"A=\[1\]"):
            multi_outer_point_ro_prime(j, ("u1", "x2"), ("x1", "x2"))

    def test_k5_pair_chain_violation_caught(self):
        # a shared fair bit s: u1 = x1 ^ s and u2 = x2 ^ s ^ x3 each look like
        # noise given their own source, but u1 ^ u2 = x1 ^ x2 ^ x3 reveals x3
        rng = np.random.default_rng(30)
        px = rng.dirichlet(np.ones(32)).reshape((2,) * 5)
        rows = [rng.dirichlet(np.ones(2), size=2) for _ in range(3)]
        mass = np.zeros((2,) * 10)
        for x in itertools.product(range(2), repeat=5):
            for s, u3, u4, u5 in itertools.product(range(2), repeat=4):
                w = 0.5 * px[x] * rows[0][x[2], u3] * rows[1][x[3], u4] * rows[2][x[4], u5]
                mass[(x[0] ^ s, x[1] ^ s ^ x[2], u3, u4, u5) + x] += w
        u_labels = tuple(f"u{k}" for k in range(1, 6))
        x_labels = tuple(f"x{k}" for k in range(1, 6))
        j = JointPmf(tuple(Alphabet(2, l) for l in u_labels + x_labels), mass)
        for k in range(5):
            rest = x_labels[:k] + x_labels[k + 1 :]
            assert conditional_mutual_information(j, u_labels[k], rest, x_labels[k]) <= 1e-12
        with pytest.raises(ConstraintError, match=r"A=\[1, 2\]"):
            multi_outer_point_ro(j, u_labels, x_labels)

    def test_no_binning_singleton_pair(self):
        # with A = {1}, B = {2} membership is exactly rate/mu dominance
        rng = np.random.default_rng(17)
        src, ch1, ch2, j = self.two_source_setup(rng)
        r1 = mutual_information(j, "u1", "x1")
        r2 = mutual_information(j, "u2", "x2")
        cap = mutual_information(j, "u1", "u2")
        pair = SubsetPair(frozenset({1}), frozenset({2}))
        full = BinningChoice({1}, {1}, {2}, {2})
        eps = 1e-3

        def member(mu, rr1, rr2):
            pt = MultiRegionPoint({pair: mu}, (rr1, rr2))
            ok, _ = multi_inner_membership(src, [ch1, ch2], pt, {pair: full})
            return ok

        assert member(cap - eps, r1 + eps, r2 + eps)
        assert not member(cap + eps, r1 + eps, r2 + eps)
        assert not member(cap - eps, r1 - eps, r2 + eps)
        assert not member(cap - eps, r1 + eps, r2 - eps)

    def test_no_binning_rate_sufficiency(self):
        # R_k >= I(x_k;u_k) for all k implies membership with full binning
        rng = np.random.default_rng(18)
        for _ in range(20):
            src = random_joint(rng, (2, 2, 2), ("x1", "x2", "x3"))
            chs = [random_channel(rng, 2, 2, f"x{k}", f"u{k}") for k in (1, 2, 3)]
            j = attach_channels(src, chs)
            rates = tuple(
                mutual_information(j, f"u{k}", f"x{k}") + 1e-9 for k in (1, 2, 3)
            )
            pair = SubsetPair(frozenset({1, 2}), frozenset({3}))
            cap = mutual_information(j, ("u1", "u2"), "u3")
            pt = MultiRegionPoint({pair: cap - 1e-6}, rates)
            choice = {pair: BinningChoice({1, 2}, {1, 2}, {3}, {3})}
            ok, cert = multi_inner_membership(src, chs, pt, choice)
            assert ok, cert

    def test_partial_binning_beats_no_binning(self):
        # x1 = x2; with A_b = {1} only constraints through encoder 1 bind,
        # so a tiny R_2 passes where the no-binning choice fails
        mass = np.zeros((2, 2, 2))
        for x1 in range(2):
            for x3 in range(2):
                flip = 0.2 if x3 != x1 else 0.8
                mass[x1, x1, x3] = 0.5 * flip
        src = JointPmf(
            (Alphabet(2, "x1"), Alphabet(2, "x2"), Alphabet(2, "x3")), mass
        )
        chs = [
            bsc_channel(0.1, "x1", "u1"),
            bsc_channel(0.1, "x2", "u2"),
            Channel(Alphabet(2, "x3"), Alphabet(2, "u3"), [[1.0, 0.0], [0.0, 1.0]]),
        ]
        j = attach_channels(src, chs)
        from coinfo.probability import conditional_mutual_information

        need2 = conditional_mutual_information(j, "x2", "u2", "u1")
        pair = SubsetPair(frozenset({1, 2}), frozenset({3}))
        mu = mutual_information(j, "u1", "u3") - 1e-3
        pt = MultiRegionPoint({pair: mu}, (2.0, need2 - 1e-2, LOG2))
        no_bin = {pair: BinningChoice({1, 2}, {1, 2}, {3}, {3})}
        ok, cert = multi_inner_membership(src, chs, pt, no_bin)
        assert not ok
        assert cert[pair][1] < 0
        partial = {pair: BinningChoice({1, 2}, {1}, {3}, {3})}
        ok, _ = multi_inner_membership(src, chs, pt, partial)
        assert ok
        found = multi_inner_search(src, chs, pt)
        assert found is not None
        assert found[pair] == BinningChoice({1, 2}, {1}, {3}, {3})

    def test_independent_sources_cross_mu_nonpositive(self):
        rng = np.random.default_rng(29)
        pair = SubsetPair(frozenset({1}), frozenset({2}))
        for _ in range(20):
            m1 = rng.dirichlet(np.ones(2))
            m2 = rng.dirichlet(np.ones(3))
            src = JointPmf(
                (Alphabet(2, "x1"), Alphabet(3, "x2")), np.outer(m1, m2)
            )
            ch1 = random_channel(rng, 2, 2, "x1", "u1")
            ch2 = random_channel(rng, 3, 2, "x2", "u2")
            j = attach_channels(src, [ch1, ch2])
            pt = multi_outer_point_ro(j, ("u1", "u2"), ("x1", "x2"))
            assert pt.mu[pair] <= 1e-10

    def test_search_none_when_unsatisfiable(self):
        rng = np.random.default_rng(19)
        src, ch1, ch2, j = self.two_source_setup(rng)
        pair = SubsetPair(frozenset({1}), frozenset({2}))
        # mu above both rates is impossible under any binning
        pt = MultiRegionPoint({pair: 5.0}, (10.0, 10.0))
        assert multi_inner_search(src, [ch1, ch2], pt) is None

    def test_missing_choice_rejected(self):
        rng = np.random.default_rng(20)
        src, ch1, ch2, _ = self.two_source_setup(rng)
        pair = SubsetPair(frozenset({1}), frozenset({2}))
        pt = MultiRegionPoint({pair: 0.0}, (1.0, 1.0))
        with pytest.raises(ConstraintError):
            multi_inner_membership(src, [ch1, ch2], pt, {})


def documented_candidates(universe):
    """(active, binned) in multi_inner_search's documented order: |active|
    descending, then |binned| descending, each lexicographic."""
    items = sorted(universe)
    for ra in range(len(items), 0, -1):
        for active in itertools.combinations(items, ra):
            for rb in range(ra, 0, -1):
                for binned in itertools.combinations(active, rb):
                    yield set(active), set(binned)


def reference_search(src, chs, point):
    """multi_inner_search by its definition: for each pair, the first
    candidate in the documented order, B innermost, that the public
    multi_inner_membership accepts; None when a pair has none."""
    choices = {}
    for pair, mu in point.mu.items():
        single = MultiRegionPoint({pair: mu}, point.rates)
        found = None
        for a_act, a_bin in documented_candidates(pair.a):
            for b_act, b_bin in documented_candidates(pair.b):
                bc = BinningChoice(a_act, a_bin, b_act, b_bin)
                if multi_inner_membership(src, chs, single, {pair: bc})[0]:
                    found = bc
                    break
            if found is not None:
                break
        if found is None:
            return None
        choices[pair] = found
    return choices


def seeded_multi_source(rng, k):
    labels = tuple(f"x{i}" for i in range(1, k + 1))
    src = random_joint(rng, (2,) * k, labels)
    chs = [random_channel(rng, 2, 2, l, f"u{l[1:]}") for l in labels]
    return src, chs


def is_first_candidate(pair, bc):
    return bc.a_active == bc.a_bin == pair.a and bc.b_active == bc.b_bin == pair.b


class TestInnerSearchSemantics:
    def test_search_equals_membership_scan(self):
        # seeded K = 2..4 points: rates above or below each I(u_k; x_k), mu a
        # fraction of the full cap, one or two pairs a point
        outcomes = {"none": 0, "first": 0, "later": 0}
        for k, trials in ((2, 60), (3, 60), (4, 30)):
            for trial in range(trials):
                rng = np.random.default_rng([7, k, trial])
                src, chs = seeded_multi_source(rng, k)
                j = attach_channels(src, chs)
                u = [ch.output.label for ch in chs]
                rates = tuple(
                    mutual_information(j, u[i], src.labels[i])
                    * (rng.uniform(1.0, 1.5) if rng.uniform() < 0.6 else rng.uniform(0.0, 0.9))
                    for i in range(k)
                )
                pairs = omega_pairs(k)
                picked = rng.choice(len(pairs), size=1 + trial % 2, replace=False)
                mu = {}
                for i in sorted(picked):
                    pair = pairs[i]
                    cap = mutual_information(
                        j, [u[a - 1] for a in sorted(pair.a)], [u[b - 1] for b in sorted(pair.b)]
                    )
                    mu[pair] = cap * rng.uniform(0.0, 0.5)
                point = MultiRegionPoint(mu, rates)
                got = multi_inner_search(src, chs, point)
                assert got == reference_search(src, chs, point)
                if got is None:
                    outcomes["none"] += 1
                for pair, bc in (got or {}).items():
                    outcomes["first" if is_first_candidate(pair, bc) else "later"] += 1
        # the sweep covers infeasible points, first winners and later winners
        assert min(outcomes.values()) >= 5, outcomes

    def test_overlapping_pair_raises_like_membership(self):
        rng = np.random.default_rng(41)
        src, chs = seeded_multi_source(rng, 3)
        pair = SubsetPair({1, 2}, {2, 3})
        point = MultiRegionPoint({pair: 0.0}, (0.0, 0.0, 0.0))
        with pytest.raises(AxisError, match="'u2' appears in more than one group"):
            multi_inner_membership(src, chs, point, {pair: BinningChoice({1, 2}, {1, 2}, {2, 3}, {2, 3})})
        with pytest.raises(AxisError, match="'u2' appears in more than one group"):
            multi_inner_search(src, chs, point)


class TestMultiSourcePins:
    """The exact floats and choices of the multi-source evaluators on one
    seeded K = 4 source, so a faster evaluator cannot move a bit.

    RATES, RO and RO_PRIME are read from the subset-entropy table of the
    encoder joint, whose marginals are summed axis by axis; ceo_point
    stays on the label path, whose marginals are summed over all dropped
    axes at once, so its rates are pinned apart and differ from RATES[:2]
    in the last bit."""

    RATES = ["0x1.7971048100000p-19", "0x1.7d82e8eb2de00p-7", "0x1.dde982051aec0p-4", "0x1.f6a2998161000p-10"]
    RO = {"1,2|3,4": "0x1.d28bfdace0000p-16", "1,3|2,4": "0x1.561574b458000p-13",
          "1,4|2,3": "0x1.1e4ede9430000p-13", "2,3|1,4": "0x1.1e4ede9430000p-13",
          "2,4|1,3": "0x1.561574b458000p-13", "3,4|1,2": "0x1.d28bfdace0000p-16"}
    RO_PRIME = {"1,2|3,4": "0x1.c08431892e000p-10", "1,3|2,4": "0x1.83aa463db88c0p-5",
                "1,4|2,3": "0x1.cd77716ba0000p-11", "2,3|1,4": "0x1.5ab7369d9c440p-5",
                "2,4|1,3": "0x1.85f6656f21c00p-9", "3,4|1,2": "0x1.c59e0f1400080p-6"}
    CEO_RATES = ["0x1.7971048080000p-19", "0x1.7d82e8eb2de80p-7", "0x1.dde982051aec0p-4"]
    CEO = {"1|1": "0x1.5f4a926a00000p-21", "2|1": "0x1.adb1977610000p-15",
           "3|1": "0x1.3c57f6ebb3420p-5", "1,2|1": "0x1.b336c7ece8000p-15",
           "1,3|1": "0x1.3c59352096880p-5", "2,3|1": "0x1.3e45059e85aa0p-5",
           "1,2,3|1": "0x1.3e4645c832880p-5"}
    # the pairs whose first satisfying choice is not full activation and full
    # binning, as "a_active/a_bin b_active/b_bin"
    LATER = {"1|2,3": "1/1 2,3/3", "1|2,4": "1/1 4/4", "1|2,3,4": "1/1 2,3,4/3",
             "3|1,2": "3/3 1/1", "3|2,4": "3/3 4/4", "3|1,2,4": "3/3 1,4/1,4",
             "4|1,2": "4/4 1/1", "4|2,3": "4/4 2,3/3", "4|1,2,3": "4/4 1,2,3/3",
             "1,2|3": "1/1 3/3", "1,2|4": "1/1 4/4", "1,2|3,4": "1/1 3,4/3,4",
             "1,3|2,4": "1,3/1,3 4/4", "1,4|2,3": "1,4/1,4 2,3/3", "2,3|1": "2,3/3 1/1",
             "2,3|4": "2,3/3 4/4", "2,3|1,4": "2,3/3 1,4/1,4", "2,4|1": "4/4 1/1",
             "2,4|3": "4/4 3/3", "2,4|1,3": "4/4 1,3/1,3", "3,4|1,2": "3,4/3,4 1/1",
             "1,2,3|4": "1,2,3/3 4/4", "1,2,4|3": "1,4/1,4 3/3", "2,3,4|1": "2,3,4/3 1/1"}

    @staticmethod
    def setup():
        rng = np.random.default_rng(2024)
        labels = ("x1", "x2", "x3", "x4")
        src = JointPmf(tuple(Alphabet(2, l) for l in labels), rng.dirichlet(np.ones(16)).reshape((2,) * 4))
        chs = [Channel(Alphabet(2, l), Alphabet(2, "u" + l[1]), rng.dirichlet(np.ones(2), size=2)) for l in labels]
        return src, chs, labels, tuple(ch.output.label for ch in chs)

    @staticmethod
    def key(pair):
        return ",".join(map(str, sorted(pair.a))) + "|" + ",".join(map(str, sorted(pair.b)))

    def test_outer_points_and_ceo(self):
        src, chs, x, u = self.setup()
        j = attach_channels(src, chs)
        ro = multi_outer_point_ro(j, u, x)
        ro_prime = multi_outer_point_ro_prime(j, u, x)
        assert [r.hex() for r in ro.rates] == [r.hex() for r in ro_prime.rates] == self.RATES
        for got, want in ((ro.mu, self.RO), (ro_prime.mu, self.RO_PRIME)):
            assert {key: got[pair].hex() for pair in got if (key := self.key(pair)) in want} == want
        ceo = ceo_point(src, chs[:3], x[:3], x[3:])
        assert [r.hex() for r in ceo.rates] == self.CEO_RATES
        assert {self.key(pair): v.hex() for pair, v in ceo.mu.items()} == self.CEO

    def test_search_choices(self):
        # encoder 2's rate is a fifth of I(u_2; x_2): the pairs it takes part
        # in ask mu = 0 and are met by leaving it out of the binning
        src, chs, x, u = self.setup()
        j = attach_channels(src, chs)
        scale = (1.2, 0.2, 1.2, 1.2)
        rates = tuple(mutual_information(j, u[i], x[i]) * scale[i] for i in range(4))
        mu = {
            pair: 0.0 if 2 in pair.a | pair.b else 0.2 * mutual_information(
                j, [u[a - 1] for a in sorted(pair.a)], [u[b - 1] for b in sorted(pair.b)]
            )
            for pair in omega_pairs(4)
            if pair.a != {2} and pair.b != {2}
        }
        found = multi_inner_search(src, chs, MultiRegionPoint(mu, rates))
        assert set(found) == set(mu)

        def sets(*s):
            return " ".join("/".join(",".join(map(str, sorted(t))) for t in pair) for pair in s)

        later = {
            self.key(pair): sets((bc.a_active, bc.a_bin), (bc.b_active, bc.b_bin))
            for pair, bc in found.items()
            if not is_first_candidate(pair, bc)
        }
        assert later == self.LATER


def label_path_min_slack(j, u, x, rates, mu, bc):
    """The binding slack of one pair of multi_inner_membership, from the
    label path's measures on the same joint."""
    slacks = []
    for active, binned in ((bc.a_active, bc.a_bin), (bc.b_active, bc.b_bin)):
        act = sorted(active)
        for r in range(1, len(act) + 1):
            for sub in itertools.combinations(act, r):
                if set(sub) & binned:
                    helpers = [i for i in act if i not in sub]
                    need = conditional_mutual_information(
                        j, [x[i - 1] for i in sub], [u[i - 1] for i in sub], [u[i - 1] for i in helpers]
                    )
                    slacks.append(sum(rates[i - 1] for i in sub) - need)
    cap = mutual_information(j, [u[i - 1] for i in sorted(bc.a_bin)], [u[i - 1] for i in sorted(bc.b_bin)])
    return min(slacks + [cap - mu])


def label_path_search(j, u, x, point, tol=1e-9):
    """multi_inner_search by its definition, on the label path's measures."""
    choices = {}
    for pair, mu in point.mu.items():
        found = next((
            bc
            for a_act, a_bin in documented_candidates(pair.a)
            for b_act, b_bin in documented_candidates(pair.b)
            if not label_path_min_slack(j, u, x, point.rates, mu, bc := BinningChoice(a_act, a_bin, b_act, b_bin)) < -tol
        ), None)
        if found is None:
            return None
        choices[pair] = found
    return choices


# K = 3 sources with a zero-mass cell, a size-1 axis, a 3-letter axis, and
# an extra target axis y that no encoder observes
LATTICE_SHAPES = {"zero-cell": (2, 2, 2), "size-1": (2, 1, 2), "3-letter": (3, 2, 2), "target": (2, 2, 2, 3)}


def lattice_case(name):
    """(source, channels) of a seeded multi-source case: binary-k<K> for
    K = 2..5, or one of LATTICE_SHAPES."""
    if name.startswith("binary-k"):
        k = int(name[-1])
        return seeded_multi_source(np.random.default_rng([13, k]), k)
    shape = LATTICE_SHAPES[name]
    rng = np.random.default_rng([14, len(name)])
    mass = rng.dirichlet(np.ones(math.prod(shape))).reshape(shape)
    if name == "zero-cell":
        mass[1, 0, 1] = 0.0
        mass /= mass.sum()
    labels = ("x1", "x2", "x3", "y")[: len(shape)]
    src = JointPmf(tuple(Alphabet(s, l) for s, l in zip(shape, labels)), mass)
    return src, [random_channel(rng, shape[i], 2, f"x{i + 1}", f"u{i + 1}") for i in range(3)]


class TestEncoderLattice:
    """The multi-source evaluators read every measure from one
    subset-entropy table of the encoder joint: the same numbers as the
    label path up to the order of the marginal sums, the same errors, and
    no label-path call."""

    TOL = 4e-15

    @pytest.mark.parametrize("name", ["binary-k2", "binary-k3", "binary-k4", "binary-k5", *LATTICE_SHAPES])
    def test_measures_match_label_path(self, name):
        src, chs = lattice_case(name)
        j = attach_channels(src, chs)
        k = len(chs)
        u = tuple(ch.output.label for ch in chs)
        x = src.labels[:k]
        ro = multi_outer_point_ro(j, u, x)
        ro_prime = multi_outer_point_ro_prime(j, u, x)

        def mi(a, b):
            return mutual_information(j, [u[i - 1] for i in sorted(a)], [x[i - 1] for i in sorted(b)])

        rates = [mi({i}, {i}) for i in range(1, k + 1)]
        assert np.max(np.abs(np.subtract(ro.rates, rates))) <= self.TOL
        assert np.max(np.abs(np.subtract(ro_prime.rates, rates))) <= self.TOL
        for pair in omega_pairs(k):
            three_term = mi(pair.a, pair.a) + mi(pair.b, pair.b) - mi(pair.a | pair.b, pair.a | pair.b)
            assert abs(ro.mu[pair] - three_term) <= self.TOL, pair
            assert abs(ro_prime.mu[pair] - mi(pair.a, pair.b)) <= self.TOL, pair

        # rates around I(u_k; x_k) and mu a fraction of the cap, so some
        # pairs are accepted and some are not
        rng = np.random.default_rng(len(name))
        point_rates = tuple(r * rng.uniform(0.5, 1.5) for r in rates)
        pairs = omega_pairs(k)
        mu, choice = {}, {}
        for i in rng.choice(len(pairs), size=min(len(pairs), 12), replace=False):
            pair = pairs[i]
            mu[pair] = rng.uniform(0.0, 0.6) * mutual_information(
                j, [u[a - 1] for a in sorted(pair.a)], [u[b - 1] for b in sorted(pair.b)]
            )
            a_cands = list(documented_candidates(pair.a))
            b_cands = list(documented_candidates(pair.b))
            a_act, a_bin = a_cands[rng.integers(len(a_cands))]
            b_act, b_bin = b_cands[rng.integers(len(b_cands))]
            choice[pair] = BinningChoice(a_act, a_bin, b_act, b_bin)
        point = MultiRegionPoint(mu, point_rates)
        _, certificate = multi_inner_membership(src, chs, point, choice)
        for pair, bc in choice.items():
            want = label_path_min_slack(j, u, x, point_rates, mu[pair], bc)
            assert abs(certificate[pair][1] - want) <= self.TOL, pair
            single = MultiRegionPoint({pair: mu[pair]}, point_rates)
            assert multi_inner_search(src, chs, single) == label_path_search(j, u, x, single), pair

    def test_no_label_path_call(self, monkeypatch):
        src, chs = seeded_multi_source(np.random.default_rng(42), 4)
        j = attach_channels(src, chs)
        u = tuple(ch.output.label for ch in chs)
        pairs = omega_pairs(4)
        point = MultiRegionPoint({pairs[0]: 0.0, pairs[-1]: 0.0}, (LOG2,) * 4)
        choice = {p: BinningChoice(p.a, p.a, p.b, p.b) for p in point.mu}
        calls = []

        def spy(owner, name, label):
            fn = getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls.append(label)
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapped)

        spy(probability, "marginalize", "marginalize")
        spy(probability, "entropy", "entropy")
        spy(JointPmf, "__init__", "JointPmf")
        spy(regions, "mutual_information", "mutual_information")
        spy(regions, "attach_channels", "attach_channels")
        multi_outer_point_ro(j, u, src.labels)
        multi_outer_point_ro_prime(j, u, src.labels)
        assert calls == []
        assert multi_inner_membership(src, chs, point, choice)[0]
        assert multi_inner_search(src, chs, point) == choice
        # the encoder joint of each call, and nothing after it
        assert calls == ["attach_channels", "JointPmf"] * 2

    def test_lattice_size_capped(self, monkeypatch):
        # K = 2 binary: a 16-cell encoder joint whose lattice has 3^4 = 81 cells
        src, chs = seeded_multi_source(np.random.default_rng(43), 2)
        j = attach_channels(src, chs)
        pair = SubsetPair({1}, {2})
        point = MultiRegionPoint({pair: 0.0}, (LOG2, LOG2))
        choice = {pair: BinningChoice({1}, {1}, {2}, {2})}
        calls = (
            lambda: multi_outer_point_ro(j, ("u1", "u2"), ("x1", "x2")),
            lambda: multi_outer_point_ro_prime(j, ("u1", "u2"), ("x1", "x2")),
            lambda: multi_inner_membership(src, chs, point, choice),
            lambda: multi_inner_search(src, chs, point),
        )
        monkeypatch.setattr(probability, "_MAX_CELLS", 80)
        for call in calls:
            with pytest.raises(SizeError, match="subset-entropy lattice has 81 cells, cap is 80"):
                call()
        monkeypatch.setattr(probability, "_MAX_CELLS", 81)
        for call in calls:
            call()

    def test_errors_match_label_path(self):
        rng = np.random.default_rng(44)
        src, chs = seeded_multi_source(rng, 2)
        j = attach_channels(src, chs)
        have = "have ('u1', 'u2', 'x1', 'x2')"
        for outer in (multi_outer_point_ro, multi_outer_point_ro_prime):
            # the chain of A = [1] holds, so A = [2] is the first measure that
            # reads the bad label
            with pytest.raises(AxisError, match=re.escape(f"no axis labeled 'w'; {have}")):
                outer(j, ("u1", "w"), ("x1", "x2"))
            with pytest.raises(AxisError, match=re.escape(f"no axis labeled 'w'; {have}")):
                outer(j, ("u1", "u2"), ("x1", "w"))
            with pytest.raises(AxisError, match="axis 'x1' appears in more than one group"):
                outer(j, ("u1", "x1"), ("x1", "x2"))
        pair = SubsetPair({1}, {3})
        point = MultiRegionPoint({pair: 0.0}, (LOG2, LOG2))
        with pytest.raises(AxisError, match=re.escape("encoder indices {3} are not a nonempty subset of 1..2")):
            multi_inner_membership(src, chs, point, {pair: BinningChoice({1}, {1}, {3}, {3})})
        with pytest.raises(AxisError, match=re.escape("encoder indices {3} are not a nonempty subset of 1..2")):
            multi_inner_search(src, chs, point)
        stray = [chs[0], random_channel(rng, 2, 2, "w", "u2")]
        pair = SubsetPair({1}, {2})
        point = MultiRegionPoint({pair: 0.0}, (LOG2, LOG2))
        with pytest.raises(AxisError, match="channel 2 input 'w'"):
            multi_inner_membership(src, stray, point, {pair: BinningChoice({1}, {1}, {2}, {2})})
        with pytest.raises(AxisError, match="channel 2 input 'w'"):
            multi_inner_search(src, stray, point)


class TestLabelPathContract:
    """What a marginal-entropy miss on the label path computes and calls.

    A miss sums the full joint over the dropped axes, divides by the total
    when it is not exactly 1.0 and takes -sum m log m over m > 0, through
    one marginalize, one JointPmf and one entropy; a repeated measure on
    the same joint calls none of them.
    """

    @staticmethod
    def encoder_joint(k=5):
        rng = np.random.default_rng([2026, k])
        labels = tuple(f"x{i + 1}" for i in range(k))
        src = JointPmf(tuple(Alphabet(2, l) for l in labels), rng.dirichlet(np.ones(2**k)).reshape((2,) * k))
        chs = [random_channel(rng, 2, 2, l, "u" + l[1:]) for l in labels]
        return attach_channels(src, chs)

    @staticmethod
    def recomputed_entropy(mass, keep):
        # the formula in numpy, apart from coinfo
        m = np.sum(mass, axis=tuple(i for i in range(mass.ndim) if i not in keep))
        total = np.sum(m)
        if total != 1.0:
            m = m / total
        m = m[m > 0.0]
        return -float(np.sum(m * np.log(m)))

    def test_every_marginal_entropy_equals_the_formula_bitwise(self):
        j = self.encoder_joint()
        n = len(j.labels)
        assert n == 10
        for r in range(1, n):
            for keep in itertools.combinations(range(n), r):
                got = probability._marginal_entropy(j, [j.labels[i] for i in keep])
                assert got.hex() == self.recomputed_entropy(j.mass, keep).hex(), keep

    def test_one_marginalize_joint_and_entropy_per_miss(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        src, ch_u, ch_v = dsbs(0.2), bsc_channel(0.1), bsc_channel(0.3, "z", "v")
        monkeypatch.setattr(probability, "marginalize", spy("marginalize", probability.marginalize))
        monkeypatch.setattr(probability, "entropy", spy("entropy", probability.entropy))
        monkeypatch.setattr(JointPmf, "__init__", spy("JointPmf", JointPmf.__init__))
        pt = inner_point(src, ch_u, ch_v)
        # the chain joint, then {u}, {v}, {u,v}, {x}, {u,x}, {z}, {v,z}
        assert calls.count("JointPmf") == 1 + 7
        assert calls.count("marginalize") == calls.count("entropy") == 7
        j = compose_markov(src, ch_u, ch_v)
        first = [mutual_information(j, "u", "v"), mutual_information(j, "u", "x"), mutual_information(j, "v", "z")]
        calls.clear()
        again = [mutual_information(j, "v", "u"), mutual_information(j, "x", "u"), mutual_information(j, "z", "v")]
        assert calls == []
        assert first == again == [pt.mu, pt.r1, pt.r2]


def binary_xor_source():
    # x1 fair, x3 ~ Bernoulli(0.25) independent, x2 = x1 xor x3
    mass = np.zeros((2, 2, 2))
    for x1 in range(2):
        for x3 in range(2):
            mass[x1, x1 ^ x3, x3] = 0.5 * (0.25 if x3 else 0.75)
    return JointPmf((Alphabet(2, "x1"), Alphabet(2, "x2"), Alphabet(2, "x3")), mass)


class TestXorPointNotCertified:
    def test_search_never_certifies_xor_point(self):
        # the modulo-two-sum point is achievable by linear codes but lies
        # outside what the quantize-and-bin search can certify
        src = binary_xor_source()
        pair = SubsetPair(frozenset({1, 2}), frozenset({3}))
        target = MultiRegionPoint(
            {pair: HB_QUARTER}, (HB_QUARTER, HB_QUARTER, LOG2)
        )
        rng = np.random.default_rng(21)
        for _ in range(200):
            chs = [random_channel(rng, 2, 2, f"x{k}", f"u{k}") for k in (1, 2, 3)]
            assert multi_inner_search(src, chs, target) is None

    def test_identity_channels_also_fail(self):
        src = binary_xor_source()
        pair = SubsetPair(frozenset({1, 2}), frozenset({3}))
        target = MultiRegionPoint(
            {pair: HB_QUARTER}, (HB_QUARTER, HB_QUARTER, LOG2)
        )
        ident = [[1.0, 0.0], [0.0, 1.0]]
        chs = [
            Channel(Alphabet(2, f"x{k}"), Alphabet(2, f"u{k}"), ident)
            for k in (1, 2, 3)
        ]
        assert multi_inner_search(src, chs, target) is None


class TestCeoAndBottleneck:
    def test_pair_count(self):
        rng = np.random.default_rng(22)
        src = random_joint(rng, (2, 2, 2, 2), ("x1", "x2", "y1", "y2"))
        chs = [random_channel(rng, 2, 3, f"x{k}", f"u{k}") for k in (1, 2)]
        pt = ceo_point(src, chs, ("x1", "x2"), ("y1", "y2"))
        assert len(pt.mu) == (2**2 - 1) * (2**2 - 1)
        assert len(pt.rates) == 2

    def test_overlapping_indices_allowed(self):
        # encoder 1 and target 1 share the index; namespaces differ
        rng = np.random.default_rng(23)
        src = random_joint(rng, (2, 3), ("x", "y"))
        ch = random_channel(rng, 2, 2, "x", "u")
        pt = ceo_point(src, [ch], ("x",), ("y",))
        pair = SubsetPair(frozenset({1}), frozenset({1}))
        assert not pair.disjoint
        assert pair in pt.mu

    def test_mu_monotone_in_encoder_set(self):
        rng = np.random.default_rng(24)
        src = random_joint(rng, (2, 2, 2), ("x1", "x2", "y"))
        chs = [random_channel(rng, 2, 2, f"x{k}", f"u{k}") for k in (1, 2)]
        pt = ceo_point(src, chs, ("x1", "x2"), ("y",))
        single = SubsetPair(frozenset({1}), frozenset({1}))
        both = SubsetPair(frozenset({1, 2}), frozenset({1}))
        assert pt.mu[both] >= pt.mu[single] - 1e-12

    def test_ib_point_matches_ceo_exactly(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            src = random_joint(rng, (3, 3), ("x", "z"))
            ch = random_channel(rng, 3, 2, "x", "u")
            rate, rel = ib_point(src, ch)
            pt = ceo_point(src, [ch], ("x",), ("z",))
            pair = SubsetPair(frozenset({1}), frozenset({1}))
            assert rate == pt.rates[0]
            assert rel == pt.mu[pair]

    def test_ib_point_values(self):
        src = dsbs(0.1)
        rate, rel = ib_point(src, bsc_channel(0.0, "x", "u"))
        assert rate == pytest.approx(LOG2, abs=1e-12)
        assert rel == pytest.approx(0.36806420716849707, abs=1e-12)


class TestLogLoss:
    def test_posterior_achieves_mi(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            p = random_joint(rng, (3, 4), ("u", "y"))
            g = optimal_posterior_decoder(p)
            fid = log_loss_fidelity(p, g)
            assert fid == pytest.approx(mutual_information(p, "u", "y"), abs=1e-12)

    def test_perturbed_decoder_strictly_worse(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            p = random_joint(rng, (3, 4), ("u", "y"))
            g = optimal_posterior_decoder(p)
            mixed = 0.9 * g.table + 0.1 / g.table.shape[1]
            tv = 0.5 * float(np.abs(mixed - g.table).sum(axis=1).max())
            assert tv > 1e-3
            drop = log_loss_fidelity(p, g) - log_loss_fidelity(p, Decoder(mixed))
            assert drop > 1e-9

    def test_marginal_decoder_scores_zero(self):
        rng = np.random.default_rng(30)
        p = random_joint(rng, (3, 4), ("u", "y"))
        marginal = np.sum(p.mass, axis=0)
        g = Decoder(np.tile(marginal, (3, 1)))
        assert log_loss_fidelity(p, g) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_decoder_value(self):
        from coinfo.probability import entropy, marginalize

        rng = np.random.default_rng(31)
        p = random_joint(rng, (3, 4), ("u", "y"))
        g = Decoder(np.full((3, 4), 0.25))
        want = entropy(marginalize(p, "y")) - math.log(4)
        assert log_loss_fidelity(p, g) == pytest.approx(want, abs=1e-12)
        assert want <= 0

    def test_zero_mass_support_error(self):
        p = JointPmf(
            (Alphabet(2, "u"), Alphabet(2, "y")),
            [[0.25, 0.25], [0.25, 0.25]],
        )
        g = Decoder([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(SupportError):
            log_loss_fidelity(p, g)

    def test_decoder_validation(self):
        with pytest.raises(NormalizationError):
            Decoder([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(DomainError):
            Decoder([[1.1, -0.1], [0.5, 0.5]])
        with pytest.raises(AxisError):
            Decoder([0.5, 0.5])

    def test_two_letter_block_normalization(self):
        # iid two-letter block through product labels: per-letter fidelity
        rng = np.random.default_rng(28)
        p = random_joint(rng, (2, 3), ("u", "y"))
        single = mutual_information(p, "u", "y")
        block = np.einsum("ij,kl->ikjl", p.mass, p.mass, optimize=False)
        bp = JointPmf(
            (
                Alphabet(2, "u1"),
                Alphabet(2, "u2"),
                Alphabet(3, "y1"),
                Alphabet(3, "y2"),
            ),
            block,
        )
        g = optimal_posterior_decoder(bp, ("u1", "u2"), ("y1", "y2"))
        fid = log_loss_fidelity(bp, g, n=2, u_labels=("u1", "u2"), y_labels=("y1", "y2"))
        assert fid == pytest.approx(single, abs=1e-10)

    def test_blocklength_validated(self):
        p = dsbs(0.1)
        g = optimal_posterior_decoder(p, ("x",), ("z",))
        with pytest.raises(DomainError):
            log_loss_fidelity(p, g, n=0, u_labels=("x",), y_labels=("z",))


class TestInternalChecks:
    def test_checks_survive_python_O(self):
        # break one input of each invariant in a python -O child: the
        # checks must still raise, where an assert would have been stripped
        code = """
import sys
import numpy as np
from coinfo import optimize, regions, typicality
from coinfo.errors import InternalCheckError
from coinfo.probability import Alphabet, Channel, JointPmf, dsbs

assert False, "asserts run"
print("optimize", sys.flags.optimize)

typicality.mutual_information = lambda *args: 0.0
try:
    typicality.best_theta(dsbs(0.25), 1, 2, 2)
except InternalCheckError:
    print("raised best_theta")

src = JointPmf(tuple(Alphabet(2, l) for l in ("x1", "x2", "y")), np.full((2, 2, 2), 0.125))
chs = [Channel(Alphabet(2, f"x{k}"), Alphabet(2, f"u{k}"), np.eye(2)) for k in (1, 2)]
subsets = regions._subsets_by_size_asc
regions._subsets_by_size_asc = lambda items: iter([next(subsets(items))])
try:
    regions.ceo_point(src, chs, ("x1", "x2"), ("y",))
except InternalCheckError:
    print("raised ceo_point")
regions._subsets_by_size_asc = subsets

joint = regions.attach_channels(dsbs(0.1), [Channel(Alphabet(2, "x"), Alphabet(2, "u"), np.eye(2))])
decoder = regions.optimal_posterior_decoder(joint, ("u",), ("z",))
entropy_of_array = regions.entropy_of_array
regions.entropy_of_array = lambda m: entropy_of_array(m) + (1.0 if np.ndim(m) == 2 else 0.0)
try:
    regions.log_loss_fidelity(joint, decoder, 1, ("u",), ("z",))
except InternalCheckError:
    print("raised log_loss_fidelity")

# a cell of mass 2 is no conditional table, and the map leaves its u-marginal
# off p(u|x): the chain u - x - z breaks
pxz = dsbs(0.1).mass
q = np.full((1, 2, 2, 2, 2), 0.25)
q[0, 0, 0, 0] = 0.75
try:
    optimize._chain_map(pxz, q, optimize._source_conditionals(pxz))
except InternalCheckError:
    print("raised _chain_map")
"""
        res = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert res.returncode == 0, res.stderr
        lines = res.stdout.split("\n")
        assert "optimize 1" in lines
        for name in ("best_theta", "ceo_point", "log_loss_fidelity", "_chain_map"):
            assert f"raised {name}" in lines
