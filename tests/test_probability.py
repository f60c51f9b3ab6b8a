"""Unit and property tests for the probability module.

Frozen constants were computed independently with mpmath at 50 digits:
    ln 2                      = 0.69314718055994531
    H(Bernoulli(0.25))        = 0.56233514461880835
    h_b(0.1)                  = 0.32508297339144824
    I(x;z) for dsbs(0.1)      = 0.36806420716849707
    I(x;z) for dsbs(0.25)     = 0.13081203594113696
    D(B(0.5)||B(0.25))        = 0.14384103622589046
"""

import gc
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinfo.errors import (
    AxisError,
    DomainError,
    NormalizationError,
)
from coinfo.probability import (
    LOG2,
    Alphabet,
    Channel,
    JointPmf,
    batch_entropies,
    binary_convolution,
    binary_entropy,
    binary_entropy_inverse,
    binary_entropy_inverses,
    bsc_channel,
    compose_markov,
    conditional_mutual_information,
    dsbs,
    entropy,
    marginalize,
    mutual_information,
    _check_groups_disjoint,
    _normalized,
    _subset_entropies,
)
from entropy_reference import entropies

LN2 = 0.69314718055994531


def random_joint(rng, shape, labels):
    mass = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    axes = tuple(Alphabet(s, l) for s, l in zip(shape, labels))
    return JointPmf(axes, mass)


class TestAlphabetAndPmf:
    def test_alphabet_rejects_bad_size(self):
        with pytest.raises(DomainError):
            Alphabet(0, "x")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(AxisError):
            JointPmf((Alphabet(2, "x"), Alphabet(2, "x")), np.full((2, 2), 0.25))

    def test_normalization_tolerance(self):
        # within 1e-9: renormalized; beyond: hard error
        m = np.full((2, 2), 0.25) * (1 + 5e-10)
        p = JointPmf((Alphabet(2, "x"), Alphabet(2, "z")), m)
        assert abs(float(p.mass.sum()) - 1.0) < 1e-12
        with pytest.raises(NormalizationError):
            JointPmf((Alphabet(2, "x"), Alphabet(2, "z")), np.full((2, 2), 0.3))

    def test_negative_mass_rejected(self):
        m = np.array([[0.5, -0.1], [0.3, 0.3]])
        with pytest.raises(DomainError):
            JointPmf((Alphabet(2, "x"), Alphabet(2, "z")), m)

    def test_mass_is_immutable(self):
        p = dsbs(0.1)
        with pytest.raises(ValueError):
            p.mass[0, 0] = 1.0

    def test_axis_lookup_by_label(self):
        p = dsbs(0.1)
        assert p.axis_index("z") == 1
        with pytest.raises(AxisError):
            p.axis_index("u")

    def test_channel_row_normalization(self):
        with pytest.raises(NormalizationError):
            Channel(Alphabet(2, "x"), Alphabet(2, "u"), [[0.5, 0.4], [0.5, 0.5]])


class TestNormalizedRule:
    """_normalized, the mass rule of JointPmf (axis None) and of Channel,
    Decoder and the code oracle (axis 1): one set of errors and messages,
    and the whole-array form gives the bits of the per-part array form."""

    @pytest.mark.parametrize(
        "axis, mass, error, message",
        [
            (None, [[0.5, math.nan], [0.25, 0.25]], NormalizationError, "total mass nan deviates from 1 beyond 1e-09"),
            (1, [[0.5, math.nan], [0.25, 0.75]], NormalizationError, "total mass nan deviates from 1 beyond 1e-09"),
            (None, [[0.5, math.inf], [0.25, 0.25]], NormalizationError, "total mass inf deviates from 1 beyond 1e-09"),
            (1, [[0.5, 0.5], [math.inf, 0.75]], NormalizationError, "total mass inf deviates from 1 beyond 1e-09"),
            (None, [[0.5, -math.inf], [0.25, 0.25]], DomainError, "negative probability mass -inf"),
            (None, [[0.5, -0.1], [0.3, 0.3]], DomainError, "negative probability mass -0.1"),
            (1, [[0.5, 0.5], [1.1, -0.1]], DomainError, "negative probability mass -0.1"),
            (None, [[0.5, 0.1], [0.3, 0.3]], NormalizationError, "total mass 1.2 deviates from 1 beyond 1e-09"),
            (1, [[0.5, 0.5], [0.5, 0.7]], NormalizationError, "total mass 1.2 deviates from 1 beyond 1e-09"),
        ],
    )
    def test_errors_and_messages(self, axis, mass, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            _normalized(np.array(mass), axis)

    def test_whole_array_total_is_bitwise_the_array_form(self):
        # axis None totals a Python float; the keepdims array form, which
        # Channel's rows still use, is its reference
        rng = np.random.default_rng(31)
        for shape in ((4,), (2, 3), (2, 2, 3), (3, 1, 2, 2), (16, 16)):
            for scale in (1.0, 1 + 4e-10, 1 - 7e-10):
                mass = rng.dirichlet(np.ones(math.prod(shape))).reshape(shape) * scale
                mass.flat[1] += mass.flat[0]
                mass.flat[0] = -5e-13  # float noise, clipped
                clipped = np.maximum(mass, 0.0)
                totals = clipped.sum(axis=None, keepdims=True)
                want = np.where(totals != 1.0, clipped / totals, clipped)
                assert _normalized(mass).tobytes() == want.tobytes()


class TestEntropy:
    def test_uniform_two_symbols(self):
        p = JointPmf((Alphabet(2, "x"),), [0.5, 0.5])
        assert entropy(p) == pytest.approx(0.693147180559945, abs=1e-12)

    def test_point_mass(self):
        p = JointPmf((Alphabet(3, "x"),), [0.0, 1.0, 0.0])
        assert entropy(p) == 0.0

    def test_bernoulli_quarter(self):
        p = JointPmf((Alphabet(2, "x"),), [0.75, 0.25])
        assert entropy(p) == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_upper_bound_log_prod_sizes(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_joint(rng, (3, 4), ("x", "z"))
            assert -1e-12 <= entropy(p) <= math.log(12) + 1e-12


class TestEntropies:
    def test_matches_label_path_on_every_group(self):
        rng = np.random.default_rng(21)
        labels = ("a", "b", "c", "d")
        for shape in ((2, 3), (2, 2, 3), (3, 1, 2, 2)):
            axes = tuple(range(len(shape)))
            groups = tuple(g for k in range(1, len(shape) + 1) for g in itertools.combinations(axes, k))
            for trial in range(20):
                mass = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
                if trial % 2:
                    mass[tuple(rng.integers(0, n) for n in shape)] = 0.0
                    mass /= mass.sum()
                p = JointPmf(tuple(Alphabet(n, l) for n, l in zip(shape, labels)), mass)
                got = entropies(p.mass, groups)
                want = [entropy(marginalize(p, [labels[a] for a in g])) for g in groups]
                assert np.allclose(got, want, rtol=0.0, atol=1e-14)

    def test_point_mass_and_empty_cells(self):
        w = np.zeros((2, 3))
        w[1, 2] = 1.0
        assert entropies(w, ((0,), (1,), (0, 1))) == [0.0, 0.0, 0.0]
        w = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert entropies(w, ((1, 0),)) == [pytest.approx(LN2, abs=1e-15)]

    def test_bad_groups_rejected(self):
        w = np.full((2, 2), 0.25)
        for groups in ((), ((),), ((0, 0),), ((2,),), ((-1,),)):
            with pytest.raises(AxisError):
                entropies(w, groups)
            with pytest.raises(AxisError):
                batch_entropies(w[None], groups)

    def test_batch_rows_equal_unbatched_bitwise(self):
        # numpy sums a reduction pairwise when its inner loop runs over the
        # summed axis, from a few cells on; marginals of 8 or more cells, long
        # axes and unsorted groups catch a kernel whose loop order slips
        rng = np.random.default_rng(22)
        shapes = ((2, 2), (2, 3), (3, 1, 2, 2), (9, 9), (16, 3), (2,) * 5, (8, 1, 9), (27, 2))
        for shape in shapes:
            cells = int(np.prod(shape))
            axes = tuple(range(len(shape)))
            groups = tuple(g for k in range(1, len(shape) + 1) for g in itertools.combinations(axes, k))
            groups += tuple(g[::-1] for g in groups if len(g) > 1)
            for size in (0, 1, 2, 3, 255, 256, 257):
                w = rng.dirichlet(np.ones(cells), size=size)
                w[::3, 0] = 0.0  # zero cells in some tables
                w[1::5] = np.eye(1, cells, cells - 1)  # and point masses in others
                w = w / w.sum(axis=1, keepdims=True)
                # a point mass a rounding step past 1, whose entropies clamp
                # to 0, and tables of mass 2, whose negative entropies stay
                w[2::7] = np.eye(1, cells, 0) * np.nextafter(1.0, 2.0)
                w[3::11] *= 2.0
                w = w.reshape((size,) + shape)
                got = batch_entropies(w, groups)
                assert got.shape == (size, len(groups))
                for b in range(size):
                    assert got[b].tolist() == entropies(w[b], groups), (shape, size, b)

    def test_no_memory_kept_between_calls(self):
        # blocks of 1, 300 and 4096 tables: nothing whose size grows with the
        # block outlives a call. The axes cached for the (shape, groups) of
        # the first call take about 5 KiB; a 4096-table index plan of these
        # 15 groups would take megabytes
        rng = np.random.default_rng(24)
        groups = tuple(g for k in range(1, 5) for g in itertools.combinations(range(4), k))
        blocks = [rng.dirichlet(np.ones(16), size=n).reshape((n, 2, 2, 2, 2)) for n in (1, 300, 4096)]
        gc.collect()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            for w in blocks:
                batch_entropies(w, groups)
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept - start <= 8 * 1024


class TestSubsetEntropies:
    """The subset-lattice kernel of the multi-source evaluators: entry m is
    the entropy of the marginal on the axes of the bits of m."""

    def test_every_subset_matches_label_path(self):
        rng = np.random.default_rng(23)
        for shape in ((3,), (2, 3), (3, 1, 2, 2), (2,) * 8):
            n = len(shape)
            labels = "abcdefgh"[:n]
            for trial in range(4):
                mass = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
                if trial % 2:
                    mass[tuple(rng.integers(0, k) for k in shape)] = 0.0
                    mass /= mass.sum()
                p = JointPmf(tuple(Alphabet(k, l) for k, l in zip(shape, labels)), mass)
                h = _subset_entropies(p.mass)
                assert h.shape == (2**n,) and h[0] == 0.0
                for m in range(1, 2**n):
                    keep = [labels[i] for i in range(n) if m >> i & 1]
                    assert abs(h[m] - entropy(marginalize(p, keep))) <= 4e-15, (shape, keep)

    def test_point_mass(self):
        w = np.zeros((2, 1, 3))
        w[1, 0, 2] = 1.0
        assert _subset_entropies(w).tolist() == [0.0] * 8


class TestBinaryEntropy:
    def test_half_is_log2(self):
        assert binary_entropy(0.5) == pytest.approx(0.693147180559945, abs=1e-12)

    def test_boundaries(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value_at_tenth(self):
        assert binary_entropy(0.1) == pytest.approx(0.3250829733914482, abs=1e-12)

    def test_symmetry(self):
        for p in np.linspace(0.01, 0.49, 25):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy(1.2)
        with pytest.raises(DomainError):
            binary_entropy(-0.1)


class TestBinaryEntropyInverse:
    def test_endpoints(self):
        assert binary_entropy_inverse(LOG2) == 0.5
        assert binary_entropy_inverse(0.0) == 0.0

    def test_round_trip(self):
        assert binary_entropy_inverse(binary_entropy(0.11)) == pytest.approx(0.11, abs=1e-10)

    @given(st.floats(min_value=1e-6, max_value=0.49))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, p):
        # away from 1/2 where h_b is quadratically flat and floats cannot
        # resolve the inverse to 1e-10 anyway
        assert binary_entropy_inverse(binary_entropy(p)) == pytest.approx(p, abs=1e-10)

    def test_pinned_outputs(self):
        # bit patterns of the bracketed Newton solve (4 passes) over the
        # numpy h_b body
        pinned = (
            (1e-09, 4.009666847172004e-11),
            (0.05, 0.008712966286763995),
            (0.1, 0.020505509585228204),
            (0.3, 0.0889062694591154),
            (0.5, 0.19970990255397722),
            (0.6, 0.2876124023818834),
            (0.6931, 0.4951430555933327),
            (0.6931461805599453, 0.49929289333663873),
        )
        for h, p in pinned:
            assert binary_entropy_inverse(h) == p

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy_inverse(LOG2 + 1e-3)
        with pytest.raises(DomainError):
            binary_entropy_inverse(-1e-3)

    def test_array_equals_scalar_bitwise(self):
        # the inputs of test_pinned_outputs, the ends, float noise past them,
        # and 10^4 seeded uniforms on [0, ln 2]
        h = np.concatenate([
            [1e-09, 0.05, 0.1, 0.3, 0.5, 0.6, 0.6931, 0.6931461805599453],
            [0.0, LOG2, -1e-13, LOG2 + 1e-13, 5e-324],
            np.random.default_rng(20261).uniform(0.0, LOG2, 10**4),
        ])
        got = binary_entropy_inverses(h)
        assert got.shape == h.shape and got.dtype == np.float64
        want = np.array([binary_entropy_inverse(float(v)) for v in h])
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def separate_logs_inverse(h):
        # binary_entropy_inverses' solve with h_b and its derivative each
        # taking their own log(p) and log1p(-p), as it was written before
        # the Newton passes shared them: a copy kept apart from
        # probability._hb_inverse, constants included
        ln4, p_max = math.log(4.0), 0.5 - 2.0**-28

        def quarter_root(t):
            return t / (2.0 + 2.0 * np.sqrt(1.0 - t))

        def hb(p):
            return -(p * np.log(p) + (1.0 - p) * np.log1p(-p))

        flat = h.reshape(-1)
        ends = (flat <= 0.0) | (flat >= LOG2)
        hc = np.where(ends, 0.5, flat)
        y = hc / LOG2
        lo = np.maximum(np.maximum(quarter_root(y**ln4), hc / 746.0), math.ulp(0.0))
        hi = np.minimum(quarter_root(y), p_max)
        p = lo
        for _ in range(4):
            step = (hc - hb(p)) / (np.log1p(-p) - np.log(p))
            p = np.maximum(np.minimum(p + step, hi), lo)
        return np.where(flat <= 0.0, 0.0, np.where(flat >= LOG2, 0.5, p)).reshape(h.shape)

    def test_shared_logs_equal_separate_logs_bitwise(self):
        # 10^5 entries: 0 and ln 2, float noise past them, subnormals,
        # the ulps just below ln 2, log-uniform small values and seeded
        # uniforms on [0, ln 2]
        rng = np.random.default_rng(20290)
        below_ln2 = [LOG2]
        for _ in range(200):
            below_ln2.append(math.nextafter(below_ln2[-1], 0.0))
        h = np.concatenate([
            [0.0, LOG2, -1e-13, LOG2 + 1e-13, 5e-324, 1e-320, 2.2250738585072009e-308],
            below_ln2,
            LOG2 - 10.0 ** -rng.uniform(1.0, 16.0, 4000),
            np.ldexp(rng.uniform(0.0, 1.0, 4000), -1022),
            10.0 ** rng.uniform(-300.0, -1.0, 20000),
        ])
        h = np.concatenate([h, rng.uniform(0.0, LOG2, 10**5 - h.size)])
        assert h.size == 10**5 and np.isin([0.0, LOG2, 5e-324], h).all()
        got = binary_entropy_inverses(h)
        assert got.tobytes() == self.separate_logs_inverse(h).tobytes()

    def test_residual_within_float_noise(self):
        # the 10^4 seeded uniforms of test_array_equals_scalar_bitwise: the
        # largest |h_b(p) - h| read 2.2e-16 when pinned, where a bisection
        # to a bracket of 2^-47 reaches 3.5e-14
        h = np.random.default_rng(20261).uniform(0.0, LOG2, 10**4)
        p = binary_entropy_inverses(h)
        assert max(abs(binary_entropy(float(a)) - b) for a, b in zip(p, h)) <= 1e-15

    def test_extreme_inputs(self):
        # no warning (the suite turns them into errors) and a positive root
        # for every positive h, down to the smallest subnormal
        h = np.array([5e-324, 1e-320, 1e-300, 1e-100, math.nextafter(LOG2, 0.0)])
        p = binary_entropy_inverses(h)
        assert np.all(p > 0.0) and np.all(p < 0.5)
        assert abs(binary_entropy(float(p[2])) - 1e-300) <= 1e-315
        assert p[-1] == binary_entropy_inverse(math.nextafter(LOG2, 0.0))

    def test_array_keeps_its_shape(self):
        h = np.array([[0.1, 0.2], [0.3, LOG2]])
        got = binary_entropy_inverses(h)
        assert got.shape == (2, 2)
        assert got[1, 1] == 0.5 and got[0, 0] == binary_entropy_inverse(0.1)
        assert binary_entropy_inverses([0, 0.0]).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("bad", [LOG2 + 1e-3, -1e-3, math.nan, math.inf, -math.inf])
    def test_array_domain_error(self, bad):
        # one bad entry among good ones is enough
        with pytest.raises(DomainError):
            binary_entropy_inverses(np.array([0.1, bad, 0.3]))

    @pytest.mark.parametrize("bad", [np.array([True, False]), np.array(["0.1"]), [0.1, None]])
    def test_array_of_non_reals_rejected(self, bad):
        with pytest.raises(DomainError):
            binary_entropy_inverses(bad)


class TestBinaryConvolution:
    def test_half_absorbs(self):
        for a in (0.0, 0.2, 0.7, 1.0):
            assert binary_convolution(a, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_zero_is_identity(self):
        assert binary_convolution(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_quarter_quarter(self):
        assert binary_convolution(0.25, 0.25) == 0.375

    def test_assoc_comm_on_grid(self):
        g = np.linspace(0.0, 1.0, 20)
        for a in g:
            for b in g:
                assert binary_convolution(a, b) == binary_convolution(b, a)
                for c in g[::5]:
                    lhs = binary_convolution(binary_convolution(a, b), c)
                    rhs = binary_convolution(a, binary_convolution(b, c))
                    assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_convolution(1.5, 0.2)


class TestMutualInformation:
    def test_dsbs_tenth_reference_value(self):
        assert mutual_information(dsbs(0.1), "x", "z") == pytest.approx(
            0.368064207168497, abs=1e-12
        )

    def test_product_pmf_zero(self):
        p = JointPmf((Alphabet(2, "x"), Alphabet(2, "z")), np.full((2, 2), 0.25))
        assert mutual_information(p, "x", "z") == 0.0

    def test_dsbs_quarter_closed_form(self):
        got = mutual_information(dsbs(0.25), "x", "z")
        assert got == pytest.approx(0.13081203594113696, abs=1e-12)
        assert got == pytest.approx(LOG2 - binary_entropy(0.25), abs=1e-14)

    def test_axis_errors(self):
        p = dsbs(0.1)
        with pytest.raises(AxisError):
            mutual_information(p, "x", "x")
        with pytest.raises(AxisError):
            mutual_information(p, "x", "w")

    def test_remembered_entropies_equal_fresh_ones_bitwise(self):
        # measures on one joint share its marginal entropies, whatever the
        # label order; each must equal the fresh entropy(marginalize(...)) sum
        rng = np.random.default_rng(23)

        def h(p, keep):
            return entropy(marginalize(p, keep))

        for _ in range(20):
            p = random_joint(rng, (2, 3, 2, 2), ("a", "b", "c", "d"))
            for ga, gb, gc in ((("a",), ("b",), ("d",)), (("b", "a"), ("c",), ("d",)),
                               (("c",), ("d", "a"), ("b",)), (("a", "b"), ("c", "d"), ())):
                want = h(p, ga + gc) + h(p, gb + gc) - h(p, ga + gb + gc)
                if gc:
                    want -= h(p, gc)
                for _ in range(2):
                    assert conditional_mutual_information(p, ga, gb, gc) == want
            assert mutual_information(p, "b", "a") == h(p, "b") + h(p, "a") - h(p, ("a", "b"))

    def test_joint_stays_immutable(self):
        p = dsbs(0.1)
        mutual_information(p, "x", "z")
        for name in ("mass", "axes", "_entropies"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)


class TestConditionalMutualInformation:
    def test_markov_chain_vanishes(self):
        j = compose_markov(dsbs(0.2), bsc_channel(0.1), bsc_channel(0.3, "z", "v"))
        assert conditional_mutual_information(j, "u", "z", "x") <= 1e-12

    def test_empty_conditioning_equals_mi(self):
        p = dsbs(0.15)
        a = conditional_mutual_information(p, "x", "z", ())
        assert a == mutual_information(p, "x", "z")

    def test_chain_rule_random_joints(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            p = random_joint(rng, (2, 2, 2), ("a", "b", "c"))
            lhs = mutual_information(p, "a", ("b", "c"))
            rhs = mutual_information(p, "a", "c") + conditional_mutual_information(
                p, "a", "b", "c"
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_chain_rule_larger_alphabets(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            p = random_joint(rng, (3, 4, 2), ("a", "b", "c"))
            lhs = mutual_information(p, "a", ("b", "c"))
            rhs = mutual_information(p, "a", "c") + conditional_mutual_information(
                p, "a", "b", "c"
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)


GROUP_JOINT = JointPmf((Alphabet(2, "x"), Alphabet(2, "z"), Alphabet(2, "u")), np.full((2, 2, 2), 0.125))


class TestGroupCheck:
    """The axis-group check of the information measures: the valid case is
    one set check, and a bad case raises what the per-label loop names, the
    first offending group or label in order."""

    @pytest.mark.parametrize("groups, message", [
        ((("x",), ()), "axis group must be nonempty"),
        (((), ("w",)), "axis group must be nonempty"),
        ((("x",), ("w",)), "no axis labeled 'w'; have ('x', 'z', 'u')"),
        ((("x",), (["z"],)), "no axis labeled ['z']; have ('x', 'z', 'u')"),
        ((("x",), ("z", "x")), "axis 'x' appears in more than one group"),
        ((("x", "x"), ("z",)), "axis 'x' appears in more than one group"),
        ((("x",), ("x",), ()), "axis 'x' appears in more than one group"),
        ((("z",), ("u",), ("w", "z")), "no axis labeled 'w'; have ('x', 'z', 'u')"),
        ((("z",), ("u",), ("x", "u")), "axis 'u' appears in more than one group"),
    ])
    def test_messages(self, groups, message):
        measure = mutual_information if len(groups) == 2 else conditional_mutual_information
        for call in (lambda: _check_groups_disjoint(GROUP_JOINT, *groups), lambda: measure(GROUP_JOINT, *groups)):
            with pytest.raises(AxisError) as err:
                call()
            assert type(err.value) is AxisError and str(err.value) == message

    @pytest.mark.parametrize("groups", [
        (("x",), ("z",)), (("x", "u"), ("z",)), (("u",), ("z",), ("x",)), (["x"], ("z", "u")),
    ])
    def test_valid_groups_pass(self, groups):
        # a list group skips the set check and passes the loop
        assert _check_groups_disjoint(GROUP_JOINT, *groups) is None


class TestMarginalize:
    def test_dsbs_marginal_is_fair(self):
        m = marginalize(dsbs(0.37), "x")
        np.testing.assert_allclose(m.mass, [0.5, 0.5], atol=1e-15)

    def test_keep_all_is_identity(self):
        p = dsbs(0.2)
        assert marginalize(p, ("x", "z")) is p

    def test_independent_coins(self):
        p = JointPmf((Alphabet(2, "x"), Alphabet(2, "z")), np.full((2, 2), 0.25))
        np.testing.assert_allclose(marginalize(p, "z").mass, [0.5, 0.5], atol=1e-15)

    def test_empty_keep_rejected(self):
        with pytest.raises(AxisError):
            marginalize(dsbs(0.2), ())


class TestComposeMarkov:
    def test_identity_channels_copy_source(self):
        eye = np.eye(2)
        ch_u = Channel(Alphabet(2, "x"), Alphabet(2, "u"), eye)
        ch_v = Channel(Alphabet(2, "z"), Alphabet(2, "v"), eye)
        j = compose_markov(dsbs(0.2), ch_u, ch_v)
        assert j.labels == ("u", "x", "z", "v")
        # u=x and v=z almost surely
        uv = marginalize(j, ("u", "v"))
        np.testing.assert_allclose(uv.mass, dsbs(0.2).mass, atol=1e-15)

    def test_bsc_composition_closed_form(self):
        p, a, b = 0.2, 0.1, 0.3
        j = compose_markov(dsbs(p), bsc_channel(a), bsc_channel(b, "z", "v"))
        want = LOG2 - binary_entropy(
            binary_convolution(binary_convolution(a, p), b)
        )
        assert mutual_information(j, "u", "v") == pytest.approx(want, abs=1e-12)

    def test_chain_holds_by_construction(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            pxz = random_joint(rng, (2, 3), ("x", "z"))
            cu = Channel(Alphabet(2, "x"), Alphabet(2, "u"), rng.dirichlet(np.ones(2), 2))
            cv = Channel(Alphabet(3, "z"), Alphabet(2, "v"), rng.dirichlet(np.ones(2), 3))
            j = compose_markov(pxz, cu, cv)
            assert conditional_mutual_information(j, "u", ("z", "v"), "x") <= 1e-12
            assert conditional_mutual_information(j, "v", ("u", "x"), "z") <= 1e-12

    def test_data_processing(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            pxz = random_joint(rng, (2, 2), ("x", "z"))
            cu = Channel(Alphabet(2, "x"), Alphabet(2, "u"), rng.dirichlet(np.ones(2), 2))
            cv = Channel(Alphabet(2, "z"), Alphabet(2, "v"), rng.dirichlet(np.ones(2), 2))
            j = compose_markov(pxz, cu, cv)
            iuv = mutual_information(j, "u", "v")
            iuz = mutual_information(j, "u", "z")
            ixv = mutual_information(j, "x", "v")
            ixz = mutual_information(j, "x", "z")
            assert iuv <= min(iuz, ixv) + 1e-10
            assert min(iuz, ixv) <= ixz + 1e-10

    def test_alphabet_mismatch(self):
        with pytest.raises(AxisError):
            compose_markov(dsbs(0.2), bsc_channel(0.1, "w", "u"), bsc_channel(0.2, "z", "v"))


class TestDsbsAndBsc:
    def test_dsbs_cells(self):
        p = dsbs(0.1)
        np.testing.assert_allclose(p.mass, [[0.45, 0.05], [0.05, 0.45]], atol=1e-15)

    def test_dsbs_extremes(self):
        assert mutual_information(dsbs(0.0), "x", "z") == pytest.approx(LN2, abs=1e-12)
        assert mutual_information(dsbs(0.5), "x", "z") == pytest.approx(0.0, abs=1e-12)

    def test_bsc_rows(self):
        ch = bsc_channel(0.0)
        np.testing.assert_array_equal(ch.rows, np.eye(2))
        ch = bsc_channel(0.5)
        np.testing.assert_allclose(ch.rows, np.full((2, 2), 0.5), atol=1e-15)

    def test_bsc_cascade_is_convolution(self):
        a, b = 0.12, 0.31
        cascade = bsc_channel(a).rows @ bsc_channel(b).rows
        want = bsc_channel(binary_convolution(a, b)).rows
        np.testing.assert_allclose(cascade, want, atol=1e-15)


class TestMrsGerber:
    def test_sampled_channels(self):
        # H(x|v) >= h_b(h_b_inv(H(z|v)) * p) on dsbs(p) for channels v|z
        rng = np.random.default_rng(99)
        for p in (0.05, 0.1, 0.25):
            src = dsbs(p)
            for _ in range(120):
                k = int(rng.integers(1, 4))
                cv = Channel(
                    Alphabet(2, "z"), Alphabet(k, "v"), rng.dirichlet(np.ones(k), 2)
                )
                eye = Channel(Alphabet(2, "x"), Alphabet(2, "u"), np.eye(2))
                j = compose_markov(src, eye, cv)
                h_x_v = entropy(marginalize(j, ("x", "v"))) - entropy(marginalize(j, "v"))
                h_z_v = entropy(marginalize(j, ("z", "v"))) - entropy(marginalize(j, "v"))
                bound = binary_entropy(
                    binary_convolution(binary_entropy_inverse(min(h_z_v, LOG2)), p)
                )
                assert h_x_v >= bound - 1e-10


def _bool_cases():
    # one call per count or real that a bool must not pass as; imported here
    # because the checks span every layer
    from coinfo.regions import log_loss_fidelity, optimal_posterior_decoder
    from coinfo.typicality import (
        CodeSpec,
        TypeClass,
        best_theta,
        enumerate_types,
        type_of,
        typical_set,
        typical_set_size,
    )

    src = dsbs(0.1)
    decoder = optimal_posterior_decoder(src, ("x",), ("z",))
    return {
        "Alphabet.size": lambda: Alphabet(True, "x"),
        "dsbs": lambda: dsbs(True),
        "bsc_channel": lambda: bsc_channel(True),
        "binary_entropy": lambda: binary_entropy(False),
        "binary_entropy_inverse": lambda: binary_entropy_inverse(False),
        "TypeClass.n": lambda: TypeClass((1,), True),
        "CodeSpec.n": lambda: CodeSpec(True, (0, 1), (0, 1), 2, 2),
        "CodeSpec.m1": lambda: CodeSpec(1, (0, 0), (0, 1), True, 2),
        "CodeSpec.m2": lambda: CodeSpec(1, (0, 1), (0, 0), 2, True),
        "type_of": lambda: type_of((0,), True),
        "enumerate_types.size": lambda: enumerate_types(True, 2),
        "enumerate_types.n": lambda: enumerate_types(2, True),
        "typical_set.n": lambda: list(typical_set([0.5, 0.5], True, 0.1)),
        "typical_set.delta": lambda: list(typical_set([0.5, 0.5], 2, True)),
        "typical_set_size.n": lambda: typical_set_size([0.5, 0.5], True, 0.1),
        "typical_set_size.delta": lambda: typical_set_size([0.5, 0.5], 2, True),
        "best_theta.n": lambda: best_theta(src, True, 2, 2),
        "best_theta.m1": lambda: best_theta(src, 1, True, 2),
        "best_theta.m2": lambda: best_theta(src, 1, 2, True),
        "log_loss_fidelity.n": lambda: log_loss_fidelity(
            src, decoder, n=True, u_labels=("x",), y_labels=("z",)
        ),
    }


@pytest.mark.parametrize("case", sorted(_bool_cases()))
def test_bools_are_not_numbers(case):
    with pytest.raises(DomainError):
        _bool_cases()[case]()
