"""Tests for the samplers, refinement, envelopes, and boundary curves."""

import math

import numpy as np
import pytest

from coinfo.errors import DomainError, SizeError
from coinfo.optimize import (
    EnvelopeCurve,
    SampleConfig,
    SupportWeight,
    cardinality_robustness,
    conjecture_test,
    dsbs_alpha_grid,
    dsbs_inner_boundary,
    dsbs_outer_boundary_sampled,
    ib_curve,
    local_refine,
    sample_channel,
    support_function,
    upper_concave_envelope,
    _ib_stats,
    _inner_stats,
    _outer_stats,
    _project_chains,
    _source_conditionals,
)
from coinfo.probability import (
    LOG2,
    JointPmf,
    Alphabet,
    binary_convolution,
    binary_entropy,
    binary_entropy_inverse,
    conditional_mutual_information,
    dsbs,
    mutual_information,
)
from coinfo.regions import MARKOV_TOL, inner_point, outer_point_ro, outer_point_ro_prime

I_XZ_01 = LOG2 - binary_entropy(0.1)  # 0.36806420716849707


def small_cfg(seed, count, top=8, steps=60):
    return SampleConfig(seed=seed, count=count, refine_top=top, refine_steps=steps)


class TestSampleChannel:
    def test_dirichlet_entry_mean(self):
        rng = np.random.default_rng(2024)
        acc = np.zeros((2, 2))
        n = 10**4
        for _ in range(n):
            acc += sample_channel(2, 2, rng).rows
        assert np.all(np.abs(acc / n - 0.5) <= 0.02)

    def test_deterministic_given_stream(self):
        a = sample_channel(3, 4, np.random.default_rng(7))
        b = sample_channel(3, 4, np.random.default_rng(7))
        assert np.array_equal(a.rows, b.rows)

    def test_single_output_is_constant(self):
        ch = sample_channel(3, 1, np.random.default_rng(0))
        assert np.array_equal(ch.rows, np.ones((3, 1)))

    def test_size_validation(self):
        with pytest.raises(DomainError):
            sample_channel(0, 2, np.random.default_rng(0))
        with pytest.raises(DomainError):
            sample_channel(2, 0, np.random.default_rng(0))


class TestSupportWeightAndConfig:
    def test_quadrant_validation(self):
        with pytest.raises(DomainError):
            SupportWeight(-0.1, 0.0, 0.0)
        with pytest.raises(DomainError):
            SupportWeight(1.0, 0.1, 0.0)
        with pytest.raises(DomainError):
            SupportWeight(1.0, 0.0, math.inf)

    def test_degenerate_flag(self):
        assert SupportWeight(1.0, -1.0, -0.2).degenerate
        assert not SupportWeight(1.0, -0.4, -0.2).degenerate

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SampleConfig(seed=-1, count=10)
        with pytest.raises(DomainError):
            SampleConfig(seed=2**64, count=10)
        with pytest.raises(DomainError):
            SampleConfig(seed=0, count=0)
        with pytest.raises(DomainError):
            SampleConfig(seed=0, count=1, dirichlet_concentration=0.0)
        with pytest.raises(DomainError):
            SampleConfig(seed=0, count=1, cap_u=0)
        with pytest.raises(DomainError):
            SampleConfig(seed=0, count=1, refine_top=-1)
        with pytest.raises(DomainError):
            SampleConfig(seed=0, count=1, step_size=0.0)


def kernel_cases(seed):
    """Seeded (source, rows_u, rows_v, q) cases at caps 2 and 3.

    Some rows have zero cells, one case per cap has constant channels,
    and one source has a zero-mass cell.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for cap in (2, 3):
        for k in range(8):
            if k == 5:
                pxz = np.array([[0.5, 0.0], [0.2, 0.3]])
            else:
                pxz = dsbs(float(rng.uniform(0.02, 0.48))).mass
            ru = rng.dirichlet(np.ones(cap), size=2)
            rv = rng.dirichlet(np.ones(cap), size=2)
            q = rng.dirichlet(np.ones(cap * cap), size=4).reshape(2, 2, cap, cap)
            if k % 2:
                ru[0, 0] = 0.0
                rv[1, cap - 1] = 0.0
                q[0, 1, 0, :] = 0.0
                ru, rv = ru / ru.sum(axis=1, keepdims=True), rv / rv.sum(axis=1, keepdims=True)
                q = q / q.sum(axis=(2, 3), keepdims=True)
            if k == 0:
                ru, rv = np.zeros((2, cap)), np.zeros((2, cap))
                ru[:, 0] = rv[:, 0] = 1.0
                q = np.zeros((2, 2, cap, cap))
                q[:, :, 0, 0] = 1.0
            cases.append((pxz, ru, rv, q))
    return cases


def labeled(w, labels):
    return JointPmf(tuple(Alphabet(n, lbl) for n, lbl in zip(w.shape, labels)), w)


class TestInformationKernel:
    def test_inner_stats_match_label_path(self):
        for pxz, ru, rv, _ in kernel_cases(31):
            w = pxz[:, :, None, None] * ru[:, None, :, None] * rv[None, :, None, :]
            j = labeled(w, "xzuv")
            want = (
                mutual_information(j, "u", "v"),
                mutual_information(j, "u", "x"),
                mutual_information(j, "v", "z"),
            )
            assert np.allclose(_inner_stats(pxz, ru, rv), want, rtol=0.0, atol=1e-14)

    def test_ib_stats_match_label_path(self):
        for pxz, ru, _, _ in kernel_cases(32):
            j = labeled(pxz[:, :, None] * ru[:, None, :], "xzu")
            want = (mutual_information(j, "u", "x"), mutual_information(j, "u", "z"))
            assert np.allclose(_ib_stats(pxz, ru), want, rtol=0.0, atol=1e-14)

    def test_outer_stats_match_label_path(self):
        for pxz, _, _, q in kernel_cases(33):
            j = labeled(pxz[:, :, None, None] * q, "xzuv")
            iux = mutual_information(j, "u", "x")
            ivz = mutual_information(j, "v", "z")
            want = {
                "iux": iux,
                "ivz": ivz,
                "iuz": mutual_information(j, "u", "z"),
                "ivx": mutual_information(j, "v", "x"),
                "mu_ro": ivz + iux - mutual_information(j, ("x", "z"), ("u", "v")),
                "cmi_uz_x": conditional_mutual_information(j, "u", "z", "x"),
                "cmi_vx_z": conditional_mutual_information(j, "v", "x", "z"),
            }
            got = _outer_stats(pxz, q)
            assert got.keys() == want.keys()
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-14, key

    def test_projection_returns_stats_of_its_table(self):
        moved = 0
        for pxz, _, _, q in kernel_cases(34):
            out, st = _project_chains(pxz, q, _source_conditionals(pxz))
            assert st is not None
            assert st == _outer_stats(pxz, out)
            assert st["cmi_uz_x"] <= MARKOV_TOL and st["cmi_vx_z"] <= MARKOV_TOL
            moved += not np.array_equal(out, q)
        assert moved > 0
        pxz, _, _, q = kernel_cases(34)[1]
        assert _project_chains(pxz, q, _source_conditionals(pxz), max_sweeps=0)[1] is None


class TestSupportFunction:
    def test_degenerate_outer_directions_are_zero(self):
        src = dsbs(0.1)
        cfg = small_cfg(5, 10, steps=0)
        for lam in (SupportWeight(1.0, -1.0, -1.0), SupportWeight(0.5, -0.7, -0.5)):
            for variant in ("ro", "ro_prime"):
                value, q = support_function(src, lam, cfg, variant)
                assert value == 0.0
                assert q.shape == (2, 2, 2, 2)

    def test_pure_rate_penalty_is_zero_everywhere(self):
        src = dsbs(0.1)
        lam = SupportWeight(0.0, -1.0, -1.0)
        for variant in ("inner", "ro", "ro_prime"):
            value, _ = support_function(src, lam, small_cfg(5, 30, steps=20), variant)
            assert value == 0.0

    def test_inner_mu_direction_reaches_source_mi(self):
        value, (ch_u, ch_v) = support_function(
            dsbs(0.1),
            SupportWeight(1.0, 0.0, 0.0),
            small_cfg(11, 800, steps=200),
            "inner",
        )
        assert abs(value - I_XZ_01) <= 1e-3

    def test_count_monotone_without_refinement(self):
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.6, 0.0)
        vals = [
            support_function(src, lam, SampleConfig(seed=12, count=n, refine_top=0, refine_steps=0), "inner")[0]
            for n in (20, 100, 400, 1500)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]

    def test_count_monotone_with_refinement(self):
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.25, -0.25)
        vals = [
            support_function(src, lam, small_cfg(42, n, top=6, steps=40), "ro_prime")[0]
            for n in (30, 80, 200)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_outer_candidate_feasible_and_consistent(self):
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.25, -0.25)
        value, q = support_function(src, lam, small_cfg(42, 200, top=6, steps=40), "ro")
        w = src.mass[:, :, None, None] * q
        joint = JointPmf(
            (Alphabet(2, "x"), Alphabet(2, "z"), Alphabet(2, "u"), Alphabet(2, "v")), w
        )
        assert conditional_mutual_information(joint, "u", "z", "x") <= 1e-9
        assert conditional_mutual_information(joint, "v", "x", "z") <= 1e-9
        pt = outer_point_ro(joint)
        assert abs(value - (lam.l1 * pt.mu + lam.l2 * pt.r1 + lam.l3 * pt.r2)) <= 1e-12

    def test_ro_prime_candidate_consistent(self):
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.25, -0.25)
        value, q = support_function(src, lam, small_cfg(42, 120, top=6, steps=40), "ro_prime")
        w = src.mass[:, :, None, None] * q
        joint = JointPmf(
            (Alphabet(2, "x"), Alphabet(2, "z"), Alphabet(2, "u"), Alphabet(2, "v")), w
        )
        pt = outer_point_ro_prime(joint)
        assert abs(value - (lam.l1 * pt.mu + lam.l2 * pt.r1 + lam.l3 * pt.r2)) <= 1e-12

    def test_inner_candidate_consistent(self):
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.25, -0.25)
        value, (ch_u, ch_v) = support_function(src, lam, small_cfg(42, 150, top=6, steps=40), "inner")
        pt = inner_point(src, ch_u, ch_v)
        assert abs(value - (lam.l1 * pt.mu + lam.l2 * pt.r1 + lam.l3 * pt.r2)) <= 1e-12

    def test_outer_region_no_larger_than_prime(self):
        # the min-form region contains the chain-difference region, so its
        # support values dominate
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.25, -0.25)
        cfg = small_cfg(42, 150, top=6, steps=60)
        v_ro, _ = support_function(src, lam, cfg, "ro")
        v_prime, _ = support_function(src, lam, cfg, "ro_prime")
        assert v_prime >= v_ro - 1e-12

    def test_deterministic_rerun(self):
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.25, -0.25)
        cfg = small_cfg(42, 120, top=6, steps=40)
        v1, q1 = support_function(src, lam, cfg, "ro")
        v2, q2 = support_function(src, lam, cfg, "ro")
        assert v1 == v2
        assert np.array_equal(np.asarray(q1), np.asarray(q2))
        v3, c3 = support_function(src, lam, cfg, "inner")
        v4, c4 = support_function(src, lam, cfg, "inner")
        assert v3 == v4
        assert np.array_equal(c3[0].rows, c4[0].rows)
        assert np.array_equal(c3[1].rows, c4[1].rows)

    def test_variant_validation(self):
        with pytest.raises(DomainError):
            support_function(dsbs(0.1), SupportWeight(1, 0, 0), small_cfg(0, 5), "outer")


class TestLocalRefine:
    def test_zero_steps_identity(self):
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.25, -0.25)
        _, cand = support_function(src, lam, small_cfg(1, 40, top=4, steps=30), "inner")
        out = local_refine(src, cand, lam, "inner", steps=0)
        assert np.array_equal(out[0].rows, cand[0].rows)
        assert np.array_equal(out[1].rows, cand[1].rows)
        _, q = support_function(src, lam, small_cfg(1, 40, top=4, steps=30), "ro")
        assert np.array_equal(local_refine(src, q, lam, "ro", steps=0), np.asarray(q))

    def test_never_decreases_from_random_start(self):
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.5, -0.5)
        rng = np.random.default_rng(77)
        ch_u = sample_channel(2, 2, rng)
        ch_v = sample_channel(2, 2, rng, input_label="z", output_label="v")
        pt = inner_point(src, ch_u, ch_v)
        before = lam.l1 * pt.mu + lam.l2 * pt.r1 + lam.l3 * pt.r2
        ru, rv = local_refine(src, (ch_u, ch_v), lam, "inner", steps=150)
        pt2 = inner_point(src, ru, rv)
        after = lam.l1 * pt2.mu + lam.l2 * pt2.r1 + lam.l3 * pt2.r2
        assert after >= before - 1e-12

    def test_stationary_at_analytic_optimum(self):
        src = dsbs(0.1)
        lam = SupportWeight(1.0, 0.0, 0.0)
        eye = np.eye(2)
        ru, rv = local_refine(src, (eye, eye.copy()), lam, "inner", steps=120)
        iuv, _, _ = _inner_stats(src.mass, ru, rv)
        assert abs(iuv - I_XZ_01) <= 1e-12
        assert np.array_equal(ru, eye)


class TestEnvelope:
    def test_already_concave_points_kept(self):
        curve = upper_concave_envelope([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
        assert curve.knots == ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))

    def test_dominated_midpoint_dropped(self):
        curve = upper_concave_envelope([(0.0, 0.0), (1.0, 0.2), (2.0, 1.0)])
        assert curve.knots == ((0.0, 0.0), (2.0, 1.0))
        assert curve.value_at(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_collinear_points_reduce_to_endpoints(self):
        curve = upper_concave_envelope([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        assert curve.knots == ((0.0, 0.0), (2.0, 2.0))

    def test_duplicate_abscissa_keeps_max(self):
        curve = upper_concave_envelope([(0.0, 0.1), (0.0, 0.7), (1.0, 0.7)])
        assert curve.knots[0] == (0.0, 0.7)

    def test_dominates_every_input_point(self):
        rng = np.random.default_rng(5)
        pts = [(float(r), float(m)) for r, m in rng.random((200, 2))]
        curve = upper_concave_envelope(pts)
        for r, m in pts:
            assert curve.value_at(r) >= m - 1e-12

    def test_single_point_and_extension(self):
        curve = upper_concave_envelope([(1.0, 2.0)])
        assert curve.knots == ((1.0, 2.0),)
        assert curve.value_at(0.0) == 2.0
        assert curve.value_at(5.0) == 2.0

    def test_empty_input_rejected(self):
        with pytest.raises(SizeError):
            upper_concave_envelope([])

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            upper_concave_envelope([(0.0, math.nan)])

    def test_knot_validation(self):
        with pytest.raises(DomainError):
            EnvelopeCurve(((1.0, 0.0), (1.0, 1.0)))
        with pytest.raises(DomainError):
            EnvelopeCurve(((0.0, 0.0), (1.0, 0.2), (2.0, 1.0)))


class TestDsbsInnerBoundary:
    def test_alpha_zero_endpoint(self):
        curve = dsbs_inner_boundary(0.1, [0.0, 0.1, 0.25, 0.4, 0.5])
        assert curve.r_max == pytest.approx(0.693147180559945, abs=1e-12)
        assert curve.value_at(LOG2) == pytest.approx(0.368064207168497, abs=1e-12)

    def test_alpha_half_origin(self):
        curve = dsbs_inner_boundary(0.1, [0.0, 0.25, 0.5])
        assert curve.knots[0] == (0.0, 0.0)

    def test_alpha_quarter_closed_form(self):
        # the alpha=0.25 point itself; the parametric curve is convex near
        # the origin, so the envelope may sit strictly above it
        curve = dsbs_inner_boundary(0.1, np.linspace(0.0, 0.5, 11))
        r = LOG2 - binary_entropy(0.25)
        eff = binary_convolution(binary_convolution(0.25, 0.1), 0.25)
        assert eff == pytest.approx(0.4, abs=1e-15)
        assert curve.value_at(r) >= (LOG2 - binary_entropy(0.4)) - 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dsbs_inner_boundary(0.6, [0.1])
        with pytest.raises(DomainError):
            dsbs_inner_boundary(0.1, [0.6])


class TestDsbsOuterBoundary:
    def test_small_run_dominates_inner_and_pins_endpoint(self):
        grid = list(np.linspace(0.673, 0.694, 5))
        cfg = SampleConfig(seed=3, count=150, refine_top=10, refine_steps=80)
        outer = dsbs_outer_boundary_sampled(0.1, grid, cfg)
        inner = dsbs_inner_boundary(0.1, dsbs_alpha_grid(grid))
        gaps = [outer.value_at(r) - inner.value_at(r) for r in np.linspace(0.673, 0.694, 43)]
        assert min(gaps) >= -1e-9
        assert max(gaps) >= 1e-4
        assert abs(outer.value_at(LOG2) - I_XZ_01) <= 2e-3

    def test_deterministic(self):
        grid = [0.68, 0.69]
        cfg = SampleConfig(seed=3, count=60, refine_top=5, refine_steps=30)
        a = dsbs_outer_boundary_sampled(0.1, grid, cfg)
        b = dsbs_outer_boundary_sampled(0.1, grid, cfg)
        assert a.knots == b.knots

    def test_domain_errors(self):
        cfg = small_cfg(0, 5)
        with pytest.raises(DomainError):
            dsbs_outer_boundary_sampled(0.0, [0.1], cfg)
        with pytest.raises(DomainError):
            dsbs_outer_boundary_sampled(0.5, [0.1], cfg)
        with pytest.raises(DomainError):
            dsbs_outer_boundary_sampled(0.1, [-0.2], cfg)


class TestIbCurve:
    def test_endpoints_and_monotone(self):
        src = dsbs(0.1)
        cfg = SampleConfig(seed=9, count=400, refine_top=10, refine_steps=100)
        curve = ib_curve(src, [0.0, 0.2, 0.5, LOG2], cfg)
        assert curve.value_at(0.0) <= 1e-9
        assert abs(curve.value_at(LOG2) - I_XZ_01) <= 2e-3
        assert curve.value_at(0.9) == curve.value_at(curve.r_max)
        vals = [curve.value_at(r) for r in np.linspace(0.0, LOG2, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_relevance_never_exceeds_source_mi(self):
        src = dsbs(0.25)
        curve = ib_curve(src, [0.3], SampleConfig(seed=4, count=200, refine_top=6, refine_steps=50))
        assert curve.value_at(curve.r_max) <= (LOG2 - binary_entropy(0.25)) + 1e-9


class TestConjecture:
    def test_bsc_pairs_have_zero_margin(self):
        # equality case: both rate inequalities recover the true flip rates
        for p in (0.1, 0.25):
            pxz = dsbs(p).mass
            for a in (0.05, 0.15, 0.25, 0.35, 0.45):
                for b in (0.1, 0.3, 0.45):
                    rows_u = np.array([[1 - a, a], [a, 1 - a]])
                    rows_v = np.array([[1 - b, b], [b, 1 - b]])
                    iuv, iux, ivz = _inner_stats(pxz, rows_u, rows_v)
                    alpha = binary_entropy_inverse(min(max(LOG2 - iux, 0.0), LOG2))
                    beta = binary_entropy_inverse(min(max(LOG2 - ivz, 0.0), LOG2))
                    eff = binary_convolution(binary_convolution(alpha, p), beta)
                    margin = (LOG2 - binary_entropy(eff)) - iuv
                    assert abs(margin) <= 1e-10

    def test_identity_channels_margin_zero(self):
        pxz = dsbs(0.1).mass
        eye = np.eye(2)
        iuv, iux, ivz = _inner_stats(pxz, eye, eye)
        alpha = binary_entropy_inverse(min(max(LOG2 - iux, 0.0), LOG2))
        assert alpha <= 1e-7
        margin = (LOG2 - binary_entropy(binary_convolution(binary_convolution(alpha, 0.1), alpha))) - iuv
        assert abs(margin) <= 1e-10

    def test_sampled_report(self):
        res = conjecture_test(0.1, SampleConfig(seed=5, count=400))
        assert res["min_margin"] >= -1e-9
        assert 0 <= res["worst_index"] < 400
        assert res["samples"] == 400
        assert res["p"] == 0.1
        assert np.allclose(res["worst_ch_u"].sum(axis=1), 1.0)
        assert np.allclose(res["worst_ch_v"].sum(axis=1), 1.0)
        assert 0.0 <= res["alpha"] <= 0.5
        again = conjecture_test(0.1, SampleConfig(seed=5, count=400))
        assert again["min_margin"] == res["min_margin"]
        assert again["worst_index"] == res["worst_index"]

    def test_domain_error(self):
        with pytest.raises(DomainError):
            conjecture_test(0.7, small_cfg(0, 5))


class TestCardinalityRobustness:
    def test_degenerate_directions_agree_exactly(self):
        src = dsbs(0.1)
        lams = [SupportWeight(0.0, -1.0, 0.0), SupportWeight(1.0, -1.0, -1.0)]
        rep = cardinality_robustness(src, lams, small_cfg(8, 40, top=4, steps=20))
        for row in rep:
            assert abs(row["value_base"]) <= 1e-12
            assert abs(row["value_plus"]) <= 1e-12

    def test_interior_direction_stable_under_cap_bump(self):
        src = dsbs(0.1)
        rep = cardinality_robustness(
            src,
            [SupportWeight(0.7, -0.2, 0.0)],
            SampleConfig(seed=33, count=800, refine_top=10, refine_steps=150),
        )
        row = rep[0]
        assert row["lam"] == (0.7, -0.2, 0.0)
        assert row["difference"] == row["value_plus"] - row["value_base"]
        assert abs(row["difference"]) <= 5e-3
