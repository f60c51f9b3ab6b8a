"""Unit and property tests for the probability module.

Frozen constants were computed independently with mpmath at 50 digits:
    ln 2                      = 0.69314718055994531
    H(Bernoulli(0.25))        = 0.56233514461880835
    h_b(0.1)                  = 0.32508297339144824
    I(x;z) for dsbs(0.1)      = 0.36806420716849707
    I(x;z) for dsbs(0.25)     = 0.13081203594113696
    D(B(0.5)||B(0.25))        = 0.14384103622589046
"""

import itertools
import math
import re

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
    kl_divergence,
    marginalize,
    mutual_information,
    _normalized,
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
        rng = np.random.default_rng(22)
        for shape in ((2, 2), (2, 3), (3, 1, 2, 2)):
            cells = int(np.prod(shape))
            axes = tuple(range(len(shape)))
            groups = tuple(g for k in range(1, len(shape) + 1) for g in itertools.combinations(axes, k))
            # 5 and 3 tables reuse the cached plans of 8 and 4
            for size in (1, 7, 257, 5, 4, 3):
                w = rng.dirichlet(np.ones(cells), size=size)
                w[::3, 0] = 0.0  # zero cells in some tables
                w[1::5] = np.eye(1, cells, cells - 1)  # and point masses in others
                w = (w / w.sum(axis=1, keepdims=True)).reshape((size,) + shape)
                got = batch_entropies(w, groups)
                assert got.shape == (size, len(groups))
                for b in range(size):
                    assert got[b].tolist() == entropies(w[b], groups)


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
        # bit patterns of the bisection over the validated binary_entropy
        pinned = (
            (1e-09, 4.0099479292621254e-11),
            (0.05, 0.00871296628676177),
            (0.1, 0.020505509585230897),
            (0.3, 0.08890626945911251),
            (0.5, 0.19970990255398036),
            (0.6, 0.28761240238188535),
            (0.6931, 0.49514305559333494),
            (0.6931461805599453, 0.4992928933366123),
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


class TestKlDivergence:
    def test_equal_is_zero(self):
        p = dsbs(0.3)
        assert kl_divergence(p, p) == 0.0

    def test_bernoulli_value(self):
        p = JointPmf((Alphabet(2, "x"),), [0.5, 0.5])
        q = JointPmf((Alphabet(2, "x"),), [0.75, 0.25])
        assert kl_divergence(p, q) == pytest.approx(0.1438410362258904, abs=1e-12)

    def test_support_violation_is_inf(self):
        p = JointPmf((Alphabet(2, "x"),), [0.5, 0.5])
        q = JointPmf((Alphabet(2, "x"),), [1.0, 0.0])
        assert kl_divergence(p, q) == math.inf

    def test_axis_mismatch(self):
        p = JointPmf((Alphabet(2, "x"),), [0.5, 0.5])
        q = JointPmf((Alphabet(2, "z"),), [0.5, 0.5])
        with pytest.raises(AxisError):
            kl_divergence(p, q)

    def test_axis_order_is_aligned_by_label(self):
        rng = np.random.default_rng(5)
        m = rng.dirichlet(np.ones(6)).reshape(2, 3)
        p = JointPmf((Alphabet(2, "x"), Alphabet(3, "z")), m)
        q = JointPmf((Alphabet(3, "z"), Alphabet(2, "x")), m.T)
        assert kl_divergence(p, q) == pytest.approx(0.0, abs=1e-15)


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

    def test_mixing_adds_q_axis(self):
        branches = [
            (0.5, bsc_channel(0.1), bsc_channel(0.2, "z", "v")),
            (0.5, bsc_channel(0.3), bsc_channel(0.05, "z", "v")),
        ]
        j = compose_markov(dsbs(0.2), mixing=branches)
        assert j.labels == ("u", "x", "z", "v", "q")
        np.testing.assert_allclose(marginalize(j, "q").mass, [0.5, 0.5], atol=1e-15)
        # chains hold given q
        assert conditional_mutual_information(j, "u", ("z", "v"), ("x", "q")) <= 1e-10

    def test_mixing_cap_three(self):
        br = [(0.25, bsc_channel(0.1), bsc_channel(0.2, "z", "v"))] * 4
        with pytest.raises(DomainError):
            compose_markov(dsbs(0.2), mixing=br)

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
    from coinfo.optimize import sample_channel
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
    rng = np.random.default_rng(0)
    decoder = optimal_posterior_decoder(src, ("x",), ("z",))
    return {
        "Alphabet.size": lambda: Alphabet(True, "x"),
        "dsbs": lambda: dsbs(True),
        "bsc_channel": lambda: bsc_channel(True),
        "binary_entropy": lambda: binary_entropy(False),
        "binary_entropy_inverse": lambda: binary_entropy_inverse(False),
        "sample_channel.input": lambda: sample_channel(True, 2, rng),
        "sample_channel.output": lambda: sample_channel(2, True, rng),
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
