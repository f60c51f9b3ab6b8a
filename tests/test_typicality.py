"""Tests for the type machinery and the brute-force code oracle.

Frozen oracle values:
    ln 2 - h_b(0.25)          = 0.13081203594113696
    h(Bern(0.3)) in nats      = 0.61086430205489341
    |T_0.5(Bern(0.25), n=8)|  = C(8,1)+C(8,2)+C(8,3) = 92
    balanced binary n=8       = C(8,4) = 70
"""

import collections
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinfo import typicality
from coinfo.errors import DomainError, SizeError, SupportError
from coinfo.probability import (
    LOG2,
    Alphabet,
    Channel,
    JointPmf,
    binary_entropy,
    dsbs,
    entropy_of_array,
    mutual_information,
)
from coinfo.optimize import dsbs_outer_boundary_sampled
from coinfo.regions import inner_point
from coinfo.typicality import (
    CodeSpec,
    TypeClass,
    best_theta,
    enumerate_types,
    sequence_probability_identity_check,
    theta,
    type_of,
    typical_set,
    typical_set_size,
)

I_DSBS_025 = LOG2 - binary_entropy(0.25)
H_B30 = 0.61086430205489341


def random_source(rng, nx, nz):
    mass = rng.dirichlet(np.ones(nx * nz)).reshape(nx, nz)
    return JointPmf((Alphabet(nx, "x"), Alphabet(nz, "z")), mass)


def reference_theta(src, code):
    """theta through np.add.at and one JointPmf per pair, as a loop would."""
    table = src.mass
    for _ in range(code.n - 1):
        table = np.kron(table, src.mass)
    w = np.zeros((code.m1, code.m2))
    f, g = np.array(code.f), np.array(code.g)
    np.add.at(w, (f[:, None], g[None, :]), table)
    joint = JointPmf((Alphabet(code.m1, "u"), Alphabet(code.m2, "v")), w)
    return mutual_information(joint, "u", "v") / code.n


class TestTypeClass:
    def test_pmf(self):
        t = TypeClass((2, 1, 1), 4)
        assert np.allclose(t.pmf, [0.5, 0.25, 0.25])

    def test_sequence_count(self):
        assert TypeClass((2, 1, 1), 4).sequence_count() == 12
        assert TypeClass((8, 0), 8).sequence_count() == 1
        assert TypeClass((4, 4), 8).sequence_count() == 70

    def test_validation(self):
        with pytest.raises(DomainError):
            TypeClass((2, -1), 1)
        with pytest.raises(DomainError):
            TypeClass((2, 1), 4)
        with pytest.raises(DomainError):
            TypeClass((0, 0), 0)
        with pytest.raises(SizeError):
            TypeClass((), 1)


class TestTypeOf:
    def test_example(self):
        t = type_of((0, 1, 0, 1), 2)
        assert t.counts == (2, 2)
        assert t.n == 4

    def test_unused_symbols_counted_as_zero(self):
        assert type_of((1, 1, 1), 3).counts == (0, 3, 0)

    def test_empty_sequence(self):
        with pytest.raises(SizeError):
            type_of((), 2)

    def test_symbol_out_of_range(self):
        with pytest.raises(DomainError):
            type_of((0, 2), 2)
        with pytest.raises(DomainError):
            type_of((0, -1), 2)


class TestEnumerateTypes:
    def test_binary_pairs(self):
        got = [t.counts for t in enumerate_types(2, 2)]
        assert got == [(2, 0), (1, 1), (0, 2)]

    def test_unary(self):
        got = enumerate_types(1, 5)
        assert len(got) == 1 and got[0].counts == (5,)

    def test_ternary_count(self):
        types = enumerate_types(3, 8)
        assert len(types) == 45
        assert 45 < (8 + 1) ** 3

    def test_count_matches_sequences(self):
        # every block belongs to exactly one type
        for a in range(1, 5):
            for n in range(1, 11):
                types = enumerate_types(a, n)
                assert len(types) == math.comb(n + a - 1, a - 1)
                assert len(types) < (n + 1) ** a or a == 1
                assert sum(t.sequence_count() for t in types) == a**n

    def test_equals_the_checked_construction(self):
        # enumerate_types skips TypeClass's checks; its types equal, hashes
        # included, the ones the public constructor builds from the same
        # counts, listed first count descending
        for a in range(1, 5):
            for n in range(1, 11):
                counts = sorted((c for c in itertools.product(range(n + 1), repeat=a) if sum(c) == n), reverse=True)
                want = [TypeClass(c, n) for c in counts]
                got = enumerate_types(a, n)
                assert got == want
                assert [hash(t) for t in got] == [hash(t) for t in want]
                assert all(type(t) is TypeClass and type(t.n) is int for t in got)
                assert all(type(c) is int for t in got for c in t.counts)

    def test_budget_guard(self):
        with pytest.raises(SizeError):
            enumerate_types(10, 100)

    def test_validation(self):
        with pytest.raises(DomainError):
            enumerate_types(0, 4)
        with pytest.raises(DomainError):
            enumerate_types(2, 0)


class TestTypicalSet:
    def test_huge_delta_keeps_everything(self):
        # delta >= max (1-p)/p makes every type qualify
        assert typical_set_size([0.75, 0.25], 5, 3.0) == 32
        assert len(list(typical_set([0.75, 0.25], 5, 3.0))) == 32
        # an infinite delta is valid: every sequence is typical
        assert typical_set_size([0.75, 0.25], 5, math.inf) == 32
        assert len(list(typical_set([0.75, 0.25], 5, math.inf))) == 32

    def test_delta_zero_uniform(self):
        seqs = list(typical_set([0.5, 0.5], 8, 0.0))
        assert len(seqs) == 70
        assert all(sum(s) == 4 for s in seqs)
        assert typical_set_size([0.5, 0.5], 8, 0.0) == 70

    def test_bernoulli_quarter_window(self):
        seqs = list(typical_set([0.75, 0.25], 8, 0.5))
        assert sorted({sum(s) for s in seqs}) == [1, 2, 3]
        assert len(seqs) == 8 + 28 + 56
        assert typical_set_size([0.75, 0.25], 8, 0.5) == 92

    def test_zero_probability_symbol_never_occurs(self):
        seqs = list(typical_set([0.5, 0.5, 0.0], 6, 1.0))
        assert seqs
        assert all(2 not in s for s in seqs)

    def test_lexicographic_order(self):
        seqs = list(typical_set([0.5, 0.5], 4, 1.0))
        assert seqs == sorted(seqs)

    def test_size_sandwich(self):
        # upper bound holds at every blocklength; the lower bound with
        # slack 0.9 first holds at n = 12 for Bern(0.3), delta = 0.2
        p = [0.7, 0.3]
        h = entropy_of_array(p)
        assert abs(h - H_B30) < 1e-14
        holds_lower = {}
        for n in (8, 12, 16):
            size = typical_set_size(p, n, 0.2)
            assert size <= math.exp(n * (1.2 * h))
            holds_lower[n] = size >= 0.9 * math.exp(n * (0.8 * h))
        assert holds_lower == {8: False, 12: True, 16: True}

    def test_sizes_agree_with_enumeration(self):
        for n, delta in ((6, 0.3), (9, 0.6)):
            size = typical_set_size([0.7, 0.3], n, delta)
            assert size == len(list(typical_set([0.7, 0.3], n, delta)))

    def test_budget_guard(self):
        with pytest.raises(SizeError):
            next(typical_set([0.5, 0.5], 25, 0.1))
        # the type-counting route stays exact far beyond the block guard
        assert typical_set_size([0.5, 0.5], 25, 3.0) == 2**25

    def test_validation(self):
        with pytest.raises(DomainError):
            next(typical_set([0.6, 0.6], 4, 0.1))
        with pytest.raises(DomainError):
            next(typical_set([0.5, 0.5], 0, 0.1))
        with pytest.raises(DomainError):
            next(typical_set([0.5, 0.5], 4, -0.1))

    @pytest.mark.parametrize("pmf", [
        [True, False], ["0.5", "0.5"], np.array([0.5, 0.5], dtype=object),
    ], ids=["bool", "str", "object"])
    def test_non_numbers_are_rejected(self, pmf):
        # neither is converted: [True, False] is not the pmf (1, 0)
        with pytest.raises(DomainError, match="real numbers"):
            typical_set_size(pmf, 3, 0.1)
        with pytest.raises(DomainError, match="real numbers"):
            next(typical_set(pmf, 3, 0.1))
        with pytest.raises(DomainError, match="real numbers"):
            sequence_probability_identity_check(pmf, (0, 1))


    @pytest.mark.parametrize("pmf", [
        [0.5, math.nan], [math.inf, 0.5], [-math.inf, 1.0], [0.5, -0.1, 0.6], [1.0, -1e-11], [0.6, 0.6],
    ], ids=["nan", "inf", "minus-inf", "negative", "negative-beyond-noise", "sum"])
    def test_malformed_pmfs_are_domain_errors(self, pmf):
        with pytest.raises(DomainError):
            typical_set_size(pmf, 3, 0.1)
        with pytest.raises(DomainError):
            next(typical_set(pmf, 3, 0.1))
        with pytest.raises(DomainError):
            sequence_probability_identity_check(pmf, (0, 1))

    @pytest.mark.parametrize("pmf", [[0.7, 0.3], [0.7, 0.3 + 5e-10], [1.0, -1e-13], [0.2, 0.5, 0.3]])
    def test_pmfs_take_the_shared_mass_rule(self, pmf):
        # the rule of JointPmf: noise down to -1e-12 is clipped and a total
        # within 1e-9 of 1 is divided out
        want = JointPmf((Alphabet(len(pmf), "x"),), pmf).mass
        assert np.array_equal(typicality._check_pmf_vector(pmf), want)


class TestArgumentErrors:
    """An integer or real argument of the wrong type is refused with a
    message that says what is wanted; what is accepted is unchanged."""

    @pytest.mark.parametrize("n", [np.int64(4), True, 4.0, 0], ids=["int64", "bool", "float", "zero"])
    def test_blocklength_must_be_a_positive_integer(self, n):
        msg = re.escape(f"blocklength must be a positive integer, got {n!r}")
        with pytest.raises(DomainError, match=msg):
            enumerate_types(2, n)
        with pytest.raises(DomainError, match=msg):
            next(typical_set([0.5, 0.5], n, 0.1))
        with pytest.raises(DomainError, match=msg):
            typical_set_size([0.5, 0.5], n, 0.1)
        with pytest.raises(DomainError, match=msg):
            best_theta(dsbs(0.25), n, 2, 2)

    @pytest.mark.parametrize("a", [np.int64(2), True, 2.0], ids=["int64", "bool", "float"])
    def test_alphabet_size_must_be_a_positive_integer(self, a):
        msg = re.escape(f"alphabet_size must be a positive integer, got {a!r}")
        with pytest.raises(DomainError, match=msg):
            enumerate_types(a, 4)
        with pytest.raises(DomainError, match=msg):
            type_of((0, 1), a)

    @pytest.mark.parametrize("delta", [np.float32(0.5), True, -0.1, math.nan], ids=["float32", "bool", "negative", "nan"])
    def test_delta_must_be_a_nonnegative_real_number(self, delta):
        msg = re.escape(f"delta must be a nonnegative real number, got {delta!r}")
        with pytest.raises(DomainError, match=msg):
            next(typical_set([0.5, 0.5], 4, delta))
        with pytest.raises(DomainError, match=msg):
            typical_set_size([0.5, 0.5], 4, delta)

    def test_accepted_arguments_are_unchanged(self):
        for delta in (0, 0.5, np.float64(0.5), math.inf):
            assert typical_set_size([0.5, 0.5], 4, delta) == len(list(typical_set([0.5, 0.5], 4, delta)))
        assert typical_set_size([0.5, 0.5], 4, math.inf) == 16
        assert len(enumerate_types(2, 4)) == 5


class TestSequenceProbabilityIdentity:
    def test_fair_coin(self):
        res = sequence_probability_identity_check([0.5, 0.5], (0, 1) * 5)
        assert res <= 1e-12
        # the identity pins P exactly to 2^-n for the fair coin
        assert abs(-10 * LOG2 - 10 * math.log(0.5)) == 0.0

    def test_bernoulli_quarter(self):
        res = sequence_probability_identity_check([0.75, 0.25], (1, 1, 0, 0))
        assert res <= 1e-12

    def test_matching_type_drops_divergence(self):
        # when the type equals the pmf, P = exp(-n H(pmf))
        res = sequence_probability_identity_check([0.75, 0.25], (1, 0, 0, 0))
        assert res <= 1e-12

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_residual_tiny_everywhere(self, seq):
        res = sequence_probability_identity_check([0.2, 0.5, 0.3], seq)
        assert res <= 1e-10

    def test_support_violation(self):
        with pytest.raises(SupportError):
            sequence_probability_identity_check([1.0, 0.0], (0, 1))

    def test_validation(self):
        with pytest.raises(SizeError):
            sequence_probability_identity_check([0.5, 0.5], ())
        with pytest.raises(DomainError):
            sequence_probability_identity_check([0.5, 0.5], (0, 3))


class TestCodeSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            CodeSpec(0, (0,), (0,), 1, 1)
        with pytest.raises(DomainError):
            CodeSpec(1, (0, 1), (0,), 1, 1)
        with pytest.raises(DomainError):
            CodeSpec(1, (0,), (0,), 1, 0)
        with pytest.raises(SizeError):
            CodeSpec(1, (), (0,), 1, 1)


class TestTheta:
    def test_constant_code_is_zero(self):
        code = CodeSpec(1, (0, 0), (0, 0), 1, 1)
        assert theta(dsbs(0.25), code) == 0.0

    def test_identity_matches_mutual_information(self):
        # the pushforward of the identity tables is the source itself
        src = dsbs(0.25)
        code = CodeSpec(1, (0, 1), (0, 1), 2, 2)
        assert theta(src, code) == mutual_information(src, "x", "z")
        assert abs(theta(src, code) - I_DSBS_025) < 1e-12

    def test_first_coordinate_projection(self):
        src = dsbs(0.25)
        f = tuple(i >> 1 for i in range(4))
        code = CodeSpec(2, f, f, 2, 2)
        one_shot = theta(src, CodeSpec(1, (0, 1), (0, 1), 2, 2))
        assert theta(src, code) == one_shot / 2.0

    def test_relabel_invariance_binary(self):
        src = dsbs(0.1)
        base = theta(src, CodeSpec(1, (0, 1), (0, 1), 2, 2))
        assert theta(src, CodeSpec(1, (1, 0), (0, 1), 2, 2)) == base
        assert theta(src, CodeSpec(1, (1, 0), (1, 0), 2, 2)) == base

    def test_relabel_invariance_ternary(self):
        src = dsbs(0.25)
        f, g = (0, 1, 2, 0), (0, 0, 1, 2)
        base = theta(src, CodeSpec(2, f, g, 3, 3))
        perm = {0: 2, 1: 0, 2: 1}
        fp = tuple(perm[v] for v in f)
        gp = tuple(perm[v] for v in g)
        assert abs(theta(src, CodeSpec(2, fp, gp, 3, 3)) - base) <= 2e-16

    def test_table_length_must_match(self):
        with pytest.raises(DomainError):
            theta(dsbs(0.25), CodeSpec(2, (0, 1), (0, 1), 2, 2))

    def test_budget_guard(self):
        big = tuple(0 for _ in range(2**12))
        with pytest.raises(SizeError):
            theta(dsbs(0.25), CodeSpec(12, big, big, 1, 1))

    def test_needs_two_axes(self):
        joint = JointPmf((Alphabet(2, "x"),), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            theta(joint, CodeSpec(1, (0, 1), (0, 1), 2, 2))

    def test_matches_per_pair_reference(self):
        # the batched pushforward and kernel against one JointPmf per pair
        rng = np.random.default_rng(41)
        for nx, nz, n in ((2, 2, 1), (2, 3, 1), (3, 3, 1), (2, 2, 2), (3, 2, 2)):
            src = random_source(rng, nx, nz)
            for m1, m2 in ((1, 2), (2, 2), (2, 3), (3, 3)):
                for _ in range(10):
                    f = tuple(int(v) for v in rng.integers(0, m1, nx**n))
                    g = tuple(int(v) for v in rng.integers(0, m2, nz**n))
                    code = CodeSpec(n, f, g, m1, m2)
                    assert abs(theta(src, code) - reference_theta(src, code)) <= 1e-15


def canonical_strings(length, m):
    """Restricted growth strings over at most m labels, in lexicographic order."""
    for s in itertools.product(range(m), repeat=length):
        if all(v <= max(s[:i], default=-1) + 1 for i, v in enumerate(s)):
            yield s


_FULL_SCANS = {}


def full_scan(src, n, m1, m2):
    """(value, code) of the scan of every canonical pair through the public
    theta: the maximum, and the first maximizer, f outer."""
    key = (src.mass.tobytes(), src.mass.shape, n, m1, m2)
    if key not in _FULL_SCANS:
        nx, nz = src.mass.shape
        best, first = -math.inf, None
        for f in canonical_strings(nx**n, m1):
            for g in canonical_strings(nz**n, m2):
                code = CodeSpec(n, f, g, m1, m2)
                val = theta(src, code)
                if val > best:
                    best, first = val, code
        _FULL_SCANS[key] = (best, first)
    return _FULL_SCANS[key]


_RGS_STRINGS, _BOUNDS = typicality._rgs_strings, typicality._bounds


def spy_oracle(monkeypatch):
    """Count best_theta's enumerations of canonical strings, by (length,
    m), and the bounds it computes, by string: a bound is computed for
    each string that _bounds draws from its input. A second call replaces
    the first call's spies."""
    runs, bounded = collections.Counter(), collections.Counter()
    rgs_strings, bounds = _RGS_STRINGS, _BOUNDS

    def rgs_spy(length, m):
        runs[length, m] += 1
        return rgs_strings(length, m)

    def bounds_spy(table, n, strings, m, block, pos=0):
        def drawn():
            for s in strings:
                bounded[s] += 1
                yield s

        return bounds(table, n, drawn(), m, block, pos)

    monkeypatch.setattr(typicality, "_rgs_strings", rgs_spy)
    monkeypatch.setattr(typicality, "_bounds", bounds_spy)
    return runs, bounded


class TestBestTheta:
    def test_single_bin_is_zero(self):
        val, code = best_theta(dsbs(0.25), 1, 1, 1)
        assert val == 0.0
        assert code.f == (0, 0) and code.g == (0, 0)

    def test_dsbs_single_letter(self):
        val, code = best_theta(dsbs(0.25), 1, 2, 2)
        assert abs(val - I_DSBS_025) < 1e-12
        assert code.f == (0, 1) and code.g == (0, 1)
        assert theta(dsbs(0.25), code) == val

    def test_dsbs_two_letter_halves(self):
        # at blocklength 2 the best binary pair is a single-letter code
        one, _ = best_theta(dsbs(0.25), 1, 2, 2)
        two, code = best_theta(dsbs(0.25), 2, 2, 2)
        assert two == one / 2.0
        assert code.f == (0, 0, 1, 1) and code.g == (0, 0, 1, 1)

    def test_rate_and_source_caps(self):
        src = dsbs(0.25)
        i_xz = mutual_information(src, "x", "z")
        for n, m1, m2 in ((1, 2, 2), (1, 2, 3), (1, 3, 2), (2, 2, 2)):
            val, _ = best_theta(src, n, m1, m2)
            cap = min(math.log(m1) / n, math.log(m2) / n, i_xz)
            assert val <= cap + 1e-12

    def test_nondecreasing_in_bin_counts(self):
        rng = np.random.default_rng(9)
        mass = rng.dirichlet(np.ones(9)).reshape(3, 3)
        src = JointPmf((Alphabet(3, "x"), Alphabet(3, "z")), mass)
        vals = [best_theta(src, 1, m, m)[0] for m in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]
        assert best_theta(src, 1, 2, 2)[0] <= best_theta(src, 1, 2, 3)[0]

    def test_single_letter_matches_channel_enumeration(self):
        # deterministic channels through the inner evaluator, all maps
        rng = np.random.default_rng(314)
        mass = rng.dirichlet(np.ones(9)).reshape(3, 3)
        src = JointPmf((Alphabet(3, "x"), Alphabet(3, "z")), mass)
        best = -1.0
        for f in itertools.product(range(2), repeat=3):
            for g in itertools.product(range(2), repeat=3):
                rows_u = np.zeros((3, 2))
                rows_u[np.arange(3), f] = 1.0
                rows_v = np.zeros((3, 2))
                rows_v[np.arange(3), g] = 1.0
                ch_u = Channel(Alphabet(3, "x"), Alphabet(2, "u"), rows_u)
                ch_v = Channel(Alphabet(3, "z"), Alphabet(2, "v"), rows_v)
                best = max(best, inner_point(src, ch_u, ch_v).mu)
        val, _ = best_theta(src, 1, 2, 2)
        assert val == best

    def test_matches_exhaustive_reference(self):
        rng = np.random.default_rng(42)
        for nx, nz, n, m in ((3, 3, 1, 2), (2, 3, 1, 3), (2, 2, 2, 2)):
            src = random_source(rng, nx, nz)
            val, code = best_theta(src, n, m, m)
            ref = max(
                reference_theta(src, CodeSpec(n, f, g, m, m))
                for f in itertools.product(range(m), repeat=nx**n)
                for g in itertools.product(range(m), repeat=nz**n)
            )
            assert abs(val - ref) <= 1e-15
            assert abs(reference_theta(src, code) - val) <= 1e-15

    @pytest.mark.parametrize(
        "case",
        ["dsbs0.25-n3-m2", "dsbs0-n2-m3", "dsbs0.5-n2-m3", "random3x3-n1-m3", "random2x3-n2-m2"],
    )
    def test_equals_the_full_scan(self, case):
        # every canonical pair through the public theta: best_theta's value
        # is the maximum, its code the first maximizer, f outer
        src, n, m1, m2 = {
            "dsbs0.25-n3-m2": lambda: (dsbs(0.25), 3, 2, 2),
            "dsbs0-n2-m3": lambda: (dsbs(0.0), 2, 3, 3),
            "dsbs0.5-n2-m3": lambda: (dsbs(0.5), 2, 3, 3),
            "random3x3-n1-m3": lambda: (random_source(np.random.default_rng(46), 3, 3), 1, 3, 3),
            "random2x3-n2-m2": lambda: (random_source(np.random.default_rng(47), 2, 3), 2, 2, 2),
        }[case]()
        best, first = full_scan(src, n, m1, m2)
        val, code = best_theta(src, n, m1, m2)
        assert val == best
        assert code == first

    def test_n3_m3_pinned(self):
        # the value and code of the exhaustive scan that the pruning replaced
        val, code = best_theta(dsbs(0.25), 3, 3, 3)
        assert val == 0.059955516473021074
        assert code.f == code.g == (0, 0, 0, 0, 1, 1, 2, 2)

    def test_one_block_sides_are_bounded_once(self, monkeypatch):
        # at n = 3, m = 2 each side's 128 strings fit one block: each side
        # enumerates them once and computes each bound once
        runs, bounded = spy_oracle(monkeypatch)
        val, code = best_theta(dsbs(0.25), 3, 2, 2)
        strings = list(canonical_strings(8, 2))
        assert len(strings) == 128
        assert runs == {(8, 2): 2}
        assert bounded == {s: 2 for s in strings}
        assert theta(dsbs(0.25), code) == val

    def test_block_size_does_not_change_result(self, monkeypatch):
        # blocks of 1, 7 and all g strings; theta of the returned code is
        # the same float, the result is the full scan's, and ties still go
        # to the first pair. A side of one block is enumerated and bounded
        # once; a longer side enumerates twice and bounds every string
        # after its first block twice. Every case has nx == nz and m1 ==
        # m2, so both sides count the same strings
        rng = np.random.default_rng(43)
        cases = [(dsbs(0.25), 3, 2, 2), (dsbs(0.1), 2, 3, 3), (random_source(rng, 3, 3), 1, 3, 3)]
        for src, n, m1, m2 in cases:
            cells = src.mass.size**n
            length = src.mass.shape[0] ** n
            strings = list(canonical_strings(length, m1))
            results = []
            for rows in (1, 7, 10**6):
                monkeypatch.setattr(typicality, "_BLOCK_CELLS", rows * cells)
                runs, bounded = spy_oracle(monkeypatch)
                val, code = best_theta(src, n, m1, m2)
                assert theta(src, code) == val
                results.append((val, code))
                one_block = len(strings) <= rows
                assert runs == {(length, m1): 2 if one_block else 4}
                assert bounded == {s: 2 if i < rows else 4 for i, s in enumerate(strings)}
            assert results[0] == results[1] == results[2] == full_scan(src, n, m1, m2)

    def test_budget_guard_reports_raw_count(self):
        with pytest.raises(SizeError) as exc:
            best_theta(dsbs(0.25), 4, 2, 2)
        assert str(2**16 * 2**16) in str(exc.value)

    def test_validation(self):
        with pytest.raises(DomainError):
            best_theta(dsbs(0.25), 0, 2, 2)
        with pytest.raises(DomainError):
            best_theta(dsbs(0.25), 1, 2, -2)


class TestConverseAgainstExactCodes:
    """The paper's converse checked against exact codes: a code pair of
    length n with m bins per side has rates ln m / n, so its best per-letter
    co-information lies on or below the DSBS outer curve at that rate. The
    outer curve is built on an alpha grid that holds r, as dsbs-gap builds
    both of its curves; a curve on a grid without r reads low at r, a
    grid artefact and no failure of the bound."""

    @pytest.mark.parametrize("n, m", [(1, 2), (2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("p", [0.1, 0.25])
    def test_best_theta_below_outer_curve(self, p, n, m):
        r = math.log(m) / n
        value, _ = best_theta(dsbs(p), n, m, m)
        outer = dsbs_outer_boundary_sampled(p, [r])
        assert value <= outer.value_at(r) + 1e-12
