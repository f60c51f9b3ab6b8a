"""Tests for the samplers, refinement, envelopes, and boundary curves."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from coinfo import optimize
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
    sample_region_points,
    support_function,
    upper_concave_envelope,
    _IB_GROUPS,
    _INNER_GROUPS,
    _OUTER_GROUPS,
    _batch_ib_stats,
    _batch_inner_stats,
    _batch_outer_stats,
    _chain_map,
    _coupled_pair_table,
    _coupling_solve,
    _coupling_stats,
    _lockstep,
    _make_value_fn,
    _source_conditionals,
    _stats_dicts,
)
from coinfo.probability import (
    LOG2,
    JointPmf,
    Alphabet,
    Channel,
    binary_convolution,
    binary_entropy,
    binary_entropy_inverse,
    conditional_mutual_information,
    dsbs,
    mutual_information,
    _clamp_measure,
)
from coinfo.regions import inner_point, outer_point_ro, outer_point_ro_prime
from entropy_reference import entropies

I_XZ_01 = LOG2 - binary_entropy(0.1)  # 0.36806420716849707


def small_cfg(seed, count, top=8, steps=60):
    return SampleConfig(seed=seed, count=count, refine_top=top, refine_steps=steps)


# The per-candidate stats that block scoring replaced, kept here as the
# bitwise reference of _batch_inner_stats and _batch_ib_stats.


def inner_stats(pxz, rows_u, rows_v):
    """(I(u;v), I(u;x), I(v;z)) on the long chain u - x - z - v."""
    w = pxz[:, :, None, None] * rows_u[:, None, :, None] * rows_v[None, :, None, :]
    h_x, h_z, h_u, h_v, h_uv, h_xu, h_zv = entropies(w, _INNER_GROUPS)
    return (
        _clamp_measure(h_u + h_v - h_uv),
        _clamp_measure(h_x + h_u - h_xu),
        _clamp_measure(h_z + h_v - h_zv),
    )


def ib_stats(pxz, rows):
    """(I(u;x), I(u;z)) of a test channel p(u|x) on the source."""
    h_x, h_z, h_u, h_xu, h_zu = entropies(pxz[:, :, None] * rows[:, None, :], _IB_GROUPS)
    return _clamp_measure(h_x + h_u - h_xu), _clamp_measure(h_z + h_u - h_zu)


def outer_stats(pxz, q):
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
            SampleConfig(seed=0, count=1, cap_u=0)
        with pytest.raises(DomainError):
            SampleConfig(seed=0, count=1, refine_top=-1)
        with pytest.raises(DomainError):
            SampleConfig(seed=0, count=1, step_size=0.0)

    def test_bools_are_not_numbers(self):
        for kwargs in (
            {"seed": True},
            {"seed": 1, "count": True},
            {"seed": 1, "refine_steps": False},
            {"seed": 1, "refine_top": True},
            {"seed": 1, "cap_u": True},
            {"seed": 1, "step_size": True},
        ):
            with pytest.raises(DomainError):
                SampleConfig(**kwargs)
        for weights in ((True, 0, 0), (1.0, False, 0.0), (1.0, 0.0, False)):
            with pytest.raises(DomainError):
                SupportWeight(*weights)


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
            assert np.allclose(inner_stats(pxz, ru, rv), want, rtol=0.0, atol=1e-14)

    def test_ib_stats_match_label_path(self):
        for pxz, ru, _, _ in kernel_cases(32):
            j = labeled(pxz[:, :, None] * ru[:, None, :], "xzu")
            want = (mutual_information(j, "u", "x"), mutual_information(j, "u", "z"))
            assert np.allclose(ib_stats(pxz, ru), want, rtol=0.0, atol=1e-14)

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
            (got,) = _stats_dicts(_batch_outer_stats(pxz, q[None]))
            assert got.keys() == want.keys()
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-14, key

    def test_batched_stats_equal_unbatched_bitwise(self):
        for cap in (2, 3):
            cases = [c for c in kernel_cases(35) if c[1].shape[1] == cap]
            for pxz, _, _, _ in cases[:2]:
                ru = np.stack([c[1] for c in cases])
                rv = np.stack([c[2] for c in cases])
                inner = np.array(_batch_inner_stats(pxz, ru, rv)).T
                ib = np.array(_batch_ib_stats(pxz, ru)).T
                q = np.stack([c[3] for c in cases])
                outer = _stats_dicts(_batch_outer_stats(pxz, q))
                for b in range(len(cases)):
                    assert inner[b].tolist() == list(inner_stats(pxz, ru[b], rv[b]))
                    assert ib[b].tolist() == list(ib_stats(pxz, ru[b]))
                    assert bits(outer[b]) == bits(outer_stats(pxz, q[b]))


def map_batches(seed):
    """(source, batch of 64 tables) pairs at caps 2 and 3: every kernel_cases
    source (one has a zero cell) with its cap's tables and random ones, a
    source with a zero-mass symbol, and the 3x2 SOURCE3."""
    rng = np.random.default_rng(seed)
    out = []
    for cap in (2, 3):
        cases = [c for c in kernel_cases(seed) if c[3].shape[2] == cap]
        sources = [c[0] for c in cases] + [np.array([[0.6, 0.4], [0.0, 0.0]]), SOURCE3.mass]
        for pxz in sources:
            nx, nz = pxz.shape
            q = rng.dirichlet(np.ones(cap * cap), size=(64, nx * nz)).reshape(64, nx, nz, cap, cap)
            if nx == 2:
                q[: len(cases)] = [c[3] for c in cases]
            q[-1, 0, 1, 0, :] = 0.0  # a zero row of u given (x, z)
            q[-1] /= q[-1].sum(axis=(2, 3), keepdims=True)
            out.append((pxz, q))
    return out


class TestBatchedProjection:
    """The chain map is a projection onto the short chains (TestChainMap
    checks that a second pass changes nothing). Every table of a batch gets
    the floats and stats of a map of its own, whatever else shares its
    batch, and the batch is not modified. The seeds draw three sets of
    random tables for map_batches."""

    @pytest.mark.parametrize("seed", [0, 3, 200])
    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_batch_equals_per_table_projection_bitwise(self, size, seed):
        for pxz, q in map_batches(seed):
            cond = _source_conditionals(pxz)
            alone = [_chain_map(pxz, t[None], cond) for t in q]
            for lo in range(0, len(q), size):
                got_q, got_st = _chain_map(pxz, q[lo : lo + size], cond)
                for b, (want_q, (want_st,)) in enumerate(alone[lo : lo + size]):
                    assert bits((got_q[b], got_st[b])) == bits((want_q[0], want_st))

    def test_input_is_not_modified(self):
        for pxz, q in map_batches(37):
            before = q.copy()
            _chain_map(pxz, q, _source_conditionals(pxz))
            assert np.array_equal(q, before)


class TestChainMap:
    """_chain_map puts every table on both short chains in one pass: the
    cells keep the source-weighted marginals of the input and a feasible
    table, its own output included, stays put; TestBatchedProjection checks
    its batch independence."""

    def test_cells_take_the_source_weighted_marginals(self):
        for pxz, q in map_batches(34):
            z_given_x, x_given_z = _source_conditionals(pxz)
            out, _ = _chain_map(pxz, q, (z_given_x, x_given_z))
            u_given_x = np.einsum("xz,bxzu->bxu", z_given_x, q.sum(axis=4))
            v_given_z = np.einsum("xz,bxzv->bzv", x_given_z, q.sum(axis=3))
            assert np.abs(out.sum(axis=4) - u_given_x[:, :, None, :]).max() <= 1e-15
            assert np.abs(out.sum(axis=3) - v_given_z[:, None, :, :]).max() <= 1e-15
            # conditional tables, on the cells of a zero-mass symbol too
            assert out.min() >= 0.0
            assert np.abs(out.sum(axis=(3, 4)) - 1.0).max() <= 1e-15

    def test_chains_hold_and_stats_are_of_the_output(self):
        moved = 0
        for pxz, q in map_batches(35):
            out, stats = _chain_map(pxz, q, _source_conditionals(pxz))
            for b, st in enumerate(stats):
                assert st["cmi_uz_x"] <= 1e-14 and st["cmi_vx_z"] <= 1e-14
                assert bits(st) == bits(outer_stats(pxz, out[b]))
            moved += not np.array_equal(out, q)
            again, _ = _chain_map(pxz, out, _source_conditionals(pxz))
            assert np.abs(again - out).max() <= 1e-15
        assert moved > 0

    @pytest.mark.parametrize("cap", [2, 3])
    def test_feasible_tables_map_to_themselves(self, cap):
        # long-chain BSC pairs (coupling 0, 0), the former corner seeds and a
        # negative coupling, padded with never-used symbols at cap 3
        alpha = [0.0, 0.02, 0.2, 0.5] + [a for a in (0.0, 0.003, 0.1, 0.4) for _ in range(9)]
        same, diff = np.array([(0.0, 0.0)] * 4 + [*FORMER_SEEDS, (-0.5, -1.0)] * 4).T
        for p in (0.05, 0.1, 0.3):
            pxz = dsbs(p).mass
            q = np.zeros((len(alpha), 2, 2, cap, cap))
            q[:, :, :, :2, :2] = _coupled_pair_table(alpha, same, diff)
            out, _ = _chain_map(pxz, q, _source_conditionals(pxz))
            assert np.abs(out - q).max() <= 1e-15

    def test_every_outer_candidate_holds_the_chains(self, monkeypatch):
        # draws, baselines, solved couplings and refinement proposals: every
        # outer table these calls score is on both chains to 1e-14
        worst = []
        batch_outer_stats = optimize._batch_outer_stats

        def stats(pxz, q):
            st = batch_outer_stats(pxz, q)
            worst.append(float(st[:, 5:].max()))
            return st

        monkeypatch.setattr(optimize, "_batch_outer_stats", stats)
        cfg = SampleConfig(seed=6, count=150, refine_top=4, refine_steps=60)
        lam = SupportWeight(0.9, -0.2, -0.3)
        dsbs_outer_boundary_sampled(0.1, [0.675, 0.69])
        for src, cap in ((dsbs(0.1), None), (SOURCE3, 3)):
            c = replace(cfg, cap_u=cap, cap_v=cap)
            for variant in ("ro", "ro_prime"):
                support_function(src, lam, c, variant)
                sample_region_points(src, c, variant)
        assert len(worst) > 100 and max(worst) <= 1e-14


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
        # near the slope (1 - 2p)^2 = 0.64 of this direction, a draw above the
        # constant channels' 0 is a tail event: 3 of the 15000 draws of seeds
        # 0-9 at count 1500 have one
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.6, 0.0)
        vals = [
            support_function(src, lam, SampleConfig(seed=12, count=n, refine_top=0, refine_steps=0), "inner")[0]
            for n in (20, 100, 400, 1500, 6000)
        ]
        # the contract: nondecreasing in the count, at every count
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # the tail event, at a count where seed 12 has drawn one
        assert vals[-1] > vals[0], "no draw of 6000 beat the constant channels"

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
        iuv, _, _ = inner_stats(src.mass, ru, rv)
        assert abs(iuv - I_XZ_01) <= 1e-12
        assert np.array_equal(ru, eye)


    def test_budget_validation(self):
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.25, -0.25)
        cand = (np.eye(2), np.eye(2))
        for steps, step_size in ((-5, 0.05), (2.5, 0.05), (True, 0.05), (10, -0.1),
                                 (10, math.nan), (10, 0.0), (10, math.inf), (10, True)):
            with pytest.raises(DomainError):
                local_refine(src, cand, lam, "inner", steps=steps, step_size=step_size)


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


# the (s_same, s_diff) couplings an earlier version tried at every cap in
# place of a solve
FORMER_SEEDS = (
    (0.0, 0.0), (0.0, 0.9), (0.0, 1.0), (0.05, 0.95),
    (0.1, 0.95), (0.1, 1.0), (0.15, 0.95), (0.2, 1.0),
)
# the default dsbs-gap window, and its rate caps that are solved: 41 of its
# 43 points, the last two being above ln 2
DEFAULT_WINDOW = np.linspace(0.673, 0.694, 43)
DEFAULT_CAPS = [r for r in DEFAULT_WINDOW if r <= LOG2]


class TestCouplingSolve:
    @staticmethod
    def solve(p, caps):
        pxz = dsbs(p).mass
        alphas = np.array([binary_entropy_inverse(LOG2 - r) for r in caps])
        return pxz, alphas, _coupling_solve(pxz, alphas)

    def test_solved_tables_hold_both_chains_at_their_cap(self):
        for p, caps in ((0.1, DEFAULT_CAPS), (0.25, np.linspace(0.3, 0.6, 7)), (0.1, [0.0, LOG2])):
            pxz, alphas, best = self.solve(p, caps)
            mu = _coupling_stats(pxz, alphas, *best)[:, 4]
            for rcap, q, want in zip(caps, _coupled_pair_table(alphas, *best), mu):
                joint = JointPmf(tuple(Alphabet(2, k) for k in "xzuv"), pxz[:, :, None, None] * q)
                # the label path checks both short chains within MARKOV_TOL
                pt = outer_point_ro(joint)
                assert conditional_mutual_information(joint, "u", "z", "x") <= 1e-14
                assert conditional_mutual_information(joint, "v", "x", "z") <= 1e-14
                assert abs(pt.r1 - rcap) <= 1e-12 and abs(pt.r2 - rcap) <= 1e-12
                assert abs(pt.mu - want) <= 1e-12

    def test_solved_mu_is_at_least_every_former_seed(self):
        pxz, alphas, best = self.solve(0.1, DEFAULT_CAPS)
        solved = _coupling_stats(pxz, alphas, *best)[:, 4]
        ones = np.ones(len(alphas))
        seeds = np.array([
            _coupling_stats(pxz, alphas, s_same * ones, s_diff * ones)[:, 4]
            for s_same, s_diff in FORMER_SEEDS
        ])
        assert np.all(solved >= seeds)
        # the seeds miss an interior ridge of the coupling box
        assert np.max(solved - seeds.max(axis=0)) >= 1e-6

    def test_outer_curve_holds_the_solved_points(self):
        grid = [0.675, 0.68, 0.69]
        pxz, alphas, best = self.solve(0.1, grid)
        curve = dsbs_outer_boundary_sampled(0.1, grid)
        for rcap, mu in zip(grid, _coupling_stats(pxz, alphas, *best)[:, 4]):
            assert curve.value_at(rcap) >= mu - 1e-12


class TestDsbsOuterBoundary:
    def test_small_run_dominates_inner_and_pins_endpoint(self):
        grid = list(np.linspace(0.673, 0.694, 5))
        outer = dsbs_outer_boundary_sampled(0.1, grid)
        inner = dsbs_inner_boundary(0.1, dsbs_alpha_grid(grid))
        gaps = [outer.value_at(r) - inner.value_at(r) for r in np.linspace(0.673, 0.694, 43)]
        assert min(gaps) >= -1e-9
        assert max(gaps) >= 1e-4
        assert abs(outer.value_at(LOG2) - I_XZ_01) <= 2e-3

    def test_deterministic(self):
        grid = [0.68, 0.69]
        a = dsbs_outer_boundary_sampled(0.1, grid)
        b = dsbs_outer_boundary_sampled(0.1, grid)
        assert a.knots == b.knots

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dsbs_outer_boundary_sampled(0.0, [0.1])
        with pytest.raises(DomainError):
            dsbs_outer_boundary_sampled(0.5, [0.1])
        with pytest.raises(DomainError):
            dsbs_outer_boundary_sampled(0.1, [-0.2])

    @pytest.mark.parametrize("p, grid", [
        (0.1, DEFAULT_WINDOW),
        (0.25, np.linspace(0.3, 0.6, 9)),
    ])
    def test_mapped_draws_never_beat_the_curve(self, p, grid):
        # why the curve needs no draws: no mapped Dirichlet draw, at binary or
        # ternary auxiliaries, lies above it
        curve = dsbs_outer_boundary_sampled(p, grid)
        for cap in (2, 3):
            cfg = SampleConfig(seed=5, count=2000, cap_u=cap, cap_v=cap)
            for pt in sample_region_points(dsbs(p), cfg, "ro"):
                assert pt.mu <= curve.value_at(max(pt.r1, pt.r2)) + 1e-12

    def test_draws_nothing(self, monkeypatch):
        def substream(*args):
            raise AssertionError("dsbs_outer_boundary_sampled made a draw")

        monkeypatch.setattr(optimize, "_substream", substream)
        assert dsbs_outer_boundary_sampled(0.1, DEFAULT_WINDOW).knots


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
                    iuv, iux, ivz = inner_stats(pxz, rows_u, rows_v)
                    alpha = binary_entropy_inverse(min(max(LOG2 - iux, 0.0), LOG2))
                    beta = binary_entropy_inverse(min(max(LOG2 - ivz, 0.0), LOG2))
                    eff = binary_convolution(binary_convolution(alpha, p), beta)
                    margin = (LOG2 - binary_entropy(eff)) - iuv
                    assert abs(margin) <= 1e-10

    def test_identity_channels_margin_zero(self):
        pxz = dsbs(0.1).mass
        eye = np.eye(2)
        iuv, iux, ivz = inner_stats(pxz, eye, eye)
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

    def test_p_zero_is_outside_the_domain(self):
        # p = 0 (x = z), where the inequality is false, is outside the
        # domain; just inside it the sampled margin is still negative (about
        # -9e-4 at p = 1e-9 for this seed), and the check does not hide that
        for p in (0.0, 0, -1e-13):
            with pytest.raises(DomainError, match=r"\(0, 1/2\].*x = z"):
                conjecture_test(p, small_cfg(1, 300))
        assert conjecture_test(1e-9, small_cfg(1, 300))["min_margin"] < 0.0

    @staticmethod
    def scalar_conjecture(p, cfg):
        """conjecture_test's tail before it was batched: alpha, beta, the
        bound and the margin of each draw in Python scalars, over the same
        draws."""
        pxz = dsbs(p).mass
        worst = None
        draws = optimize._scored_draws(cfg, pxz, [(2, 2), (2, 2)], _batch_inner_stats)
        for lo, (rows_u, rows_v), st in draws:
            for j, (iuv, iux, ivz) in enumerate(zip(*(c.tolist() for c in st))):
                alpha = binary_entropy_inverse(min(max(LOG2 - iux, 0.0), LOG2))
                beta = binary_entropy_inverse(min(max(LOG2 - ivz, 0.0), LOG2))
                bound = LOG2 - binary_entropy(binary_convolution(binary_convolution(alpha, p), beta))
                margin = bound - iuv
                if worst is None or margin < worst["min_margin"]:
                    worst = {
                        "min_margin": margin,
                        "worst_index": lo + j,
                        "worst_ch_u": rows_u[j].copy(),
                        "worst_ch_v": rows_v[j].copy(),
                        "alpha": alpha,
                        "beta": beta,
                    }
        return worst

    @pytest.mark.parametrize("p, seed, count", [
        (0.1, 3, 600), (0.25, 7, 3000), (1e-9, 1, 300), (0.5, 2, 700),
    ])
    def test_batched_tail_matches_scalar_loop(self, p, seed, count):
        # p = 0.5 makes every margin about 0, so first-minimum ties across
        # draws and blocks decide the worst index; p = 1e-9, next to the
        # excluded p = 0, has negative margins
        cfg = SampleConfig(seed=seed, count=count)
        got, want = conjecture_test(p, cfg), self.scalar_conjecture(p, cfg)
        assert got["worst_index"] == want["worst_index"]
        assert abs(got["min_margin"] - want["min_margin"]) <= 4.5e-16
        for key in ("worst_ch_u", "worst_ch_v"):
            assert got[key].tobytes() == want[key].tobytes()
        # alpha and beta come from the one h_b^-1 body either way
        assert (got["alpha"], got["beta"]) == (want["alpha"], want["beta"])


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


# ---------------------------------------------------------------------------
# The scalar hill climb that the lockstep engine replaced, kept here as its
# reference: one candidate and one proposal per objective call.


def perturb_row(rows, flat_index, delta):
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


def coordinate_descent(tables, value_fn, steps, step_size):
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
            nudged = perturb_row(tables[t], k, sign * delta)
            if nudged is None:
                continue
            trial = list(tables)
            trial[t] = nudged
            res = value_fn(trial)
            if res is not None and res[0] > best:
                best, tables = res
                break
    return best, tables


def scalar_lockstep(tables, value_fn, steps, step_size):
    """_lockstep's reference: every candidate climbed alone by the scalar loop."""
    values, climbed = [], []
    for b in range(len(tables[0])):

        def one(trial, b=b):
            v, canon = value_fn([t[None].copy() for t in trial], np.array([b]))
            return None if v[0] == -np.inf else (v[0], [t[0] for t in canon])

        v, tabs = coordinate_descent([t[b] for t in tables], one, steps, step_size)
        values.append(v)
        climbed.append(tabs)
    return np.array(values), [np.stack(kind) for kind in zip(*climbed)]


def bits(obj):
    """The exact bits of a result: floats, arrays, channels, curves, reports."""
    if isinstance(obj, Channel):
        return bits(obj.rows)
    if isinstance(obj, EnvelopeCurve):
        return bits(obj.knots)
    if isinstance(obj, np.ndarray):
        return obj.shape, obj.dtype.str, obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return [bits(o) for o in obj]
    if isinstance(obj, dict):
        return {k: bits(v) for k, v in obj.items()}
    if obj is None:
        return None
    return type(obj).__name__, float(obj).hex()


def lockstep_and_reference(monkeypatch, fn, *args):
    got = fn(*args)
    with monkeypatch.context() as m:
        m.setattr(optimize, "_lockstep", scalar_lockstep)
        want = fn(*args)
    return bits(got), bits(want)


SOURCE3 = JointPmf((Alphabet(3, "x"), Alphabet(2, "z")), [[0.2, 0.1], [0.05, 0.25], [0.3, 0.1]])


class TestLockstep:
    @pytest.mark.parametrize("variant", ["inner", "ro", "ro_prime"])
    def test_support_function_matches_scalar_reference(self, monkeypatch, variant):
        lam = SupportWeight(0.9, -0.2, -0.3)
        for src, cap in ((dsbs(0.1), None), (SOURCE3, 3)):
            cfg = SampleConfig(seed=4, count=60, refine_top=6, refine_steps=80, cap_u=cap, cap_v=cap)
            got, want = lockstep_and_reference(monkeypatch, support_function, src, lam, cfg, variant)
            assert got == want

    def test_ib_curve_matches_scalar_reference(self, monkeypatch):
        cfg = SampleConfig(seed=3, count=150, refine_top=5, refine_steps=150)
        for src in (dsbs(0.25), SOURCE3):
            grid = np.linspace(0.0, math.log(src.mass.shape[0]), 9)
            got, want = lockstep_and_reference(monkeypatch, ib_curve, src, grid, cfg)
            assert got == want

    def test_local_refine_matches_scalar_reference(self, monkeypatch):
        lam = SupportWeight(1.0, -0.3, -0.2)
        # one-hot rows at step size 1: their "-" nudges empty the row
        assert perturb_row(np.eye(3), 0, -1.0) is None
        eye = (np.eye(3), np.eye(2, 3))
        got, want = lockstep_and_reference(monkeypatch, local_refine, SOURCE3, eye, lam, "inner", 90, 1.0)
        assert got == want
        _, q = support_function(dsbs(0.1), lam, small_cfg(2, 30, top=3, steps=10), "ro")
        got, want = lockstep_and_reference(monkeypatch, local_refine, dsbs(0.1), q, lam, "ro", 90, 0.2)
        assert got == want

    def test_candidate_result_does_not_depend_on_its_batch(self):
        pxz = SOURCE3.mass
        lam = SupportWeight(1.0, -0.3, -0.2)
        rng = np.random.default_rng(8)
        ru = rng.dirichlet(np.ones(3), size=(12, 3))
        rv = rng.dirichlet(np.ones(3), size=(12, 2))
        ru[0], rv[0] = np.eye(3), np.eye(2, 3)
        fn = _make_value_fn("inner", pxz, lam, 3, 3, None)
        self.check_batches([ru, rv], fn, 120, 1.0)

    def test_accepted_plus_move_ends_the_step(self):
        # a convex objective: the "+" and "-" nudges of a row both improve it,
        # and only the "+" move may be taken
        def spread(trial, idx):
            return np.sum((trial[0] - 0.5) ** 2, axis=(1, 2)), trial

        rows = np.random.default_rng(10).dirichlet(np.ones(2), size=(9, 3))
        rows[0] = 0.5
        self.check_batches([rows], spread, 30, 0.01)

    @staticmethod
    def check_batches(tables, fn, steps, step_size):
        # alone, in a batch of 7 and in the full batch, each candidate gets
        # the scalar loop's result bit for bit
        n = len(tables[0])
        want = scalar_lockstep([t.copy() for t in tables], fn, steps, step_size)
        full = _lockstep([t.copy() for t in tables], fn, steps, step_size)
        for b in range(n):
            seven = [b] + [i for i in range(n - 1, -1, -1) if i != b][:6]
            alone = _lockstep([t[[b]].copy() for t in tables], fn, steps, step_size)
            some = _lockstep([t[seven].copy() for t in tables], fn, steps, step_size)
            expected = bits((want[0][b], [t[b] for t in want[1]]))
            for values, batch, j in ((full[0], full[1], b), (alone[0], alone[1], 0), (some[0], some[1], 0)):
                assert bits((values[j], [t[j] for t in batch])) == expected


class TestDrawBlocks:
    """Inner and bottleneck draws are scored a block at a time; no result
    depends on the block size."""

    @staticmethod
    def results(count):
        lam = SupportWeight(0.9, -0.2, -0.3)
        cfg = SampleConfig(seed=6, count=count, refine_top=4, refine_steps=40)
        out = [conjecture_test(0.1, cfg), ib_curve(SOURCE3, [0.2, 0.5, 0.9], cfg)]
        for src in (dsbs(0.1), SOURCE3):
            out.append([(pt.mu, pt.r1, pt.r2) for pt in sample_region_points(src, cfg, "inner")])
            # refine_top 0 keeps no draw, so the best one is drawn again
            for c in (cfg, replace(cfg, refine_top=0)):
                out.append(support_function(src, lam, c, "inner"))
        return bits(out)

    @staticmethod
    def outer_results(count):
        lam = SupportWeight(0.9, -0.2, -0.3)
        cfg = SampleConfig(seed=6, count=count, refine_top=4, refine_steps=40)
        out = [dsbs_outer_boundary_sampled(0.1, [0.675, 0.69])]
        for src in (dsbs(0.1), SOURCE3):
            for variant in ("ro", "ro_prime"):
                points = sample_region_points(src, cfg, variant)
                assert len(points) == count  # every draw is mapped onto the chains, none dropped
                out.append([(pt.mu, pt.r1, pt.r2) for pt in points])
            for c in (cfg, replace(cfg, refine_top=0)):
                out.append(support_function(src, lam, c, "ro"))
        return bits(out)

    # the default block of a 2x2x2x2 joint (conjecture_test, DSBS inner and
    # outer) and of SOURCE3's 3x2x3x2 inner and outer joints
    @pytest.mark.parametrize("count", [6, 7, 8, 56, 57, 128, 129, optimize._DRAW_BLOCK + 1])
    def test_block_size_does_not_change_results(self, monkeypatch, count):
        want = self.results(count)
        # budgets of 1 and 7 draws of a 2x2x2x2 joint: blocks of 1 draw
        # everywhere, then 7, 6 (SOURCE3's bottleneck) and 3 (its inner) draws
        for block in (1, 7):
            monkeypatch.setattr(optimize, "_DRAW_CELLS", 16 * block)
            assert self.results(count) == want

    @pytest.mark.parametrize("count", [6, 8, 57, 129, optimize._DRAW_BLOCK + 1])
    def test_block_size_does_not_change_outer_results(self, monkeypatch, count):
        want = self.outer_results(count)
        # blocks of 1 draw everywhere, then 7 (DSBS) and 3 (SOURCE3) draws
        for block in (1, 7):
            monkeypatch.setattr(optimize, "_DRAW_CELLS", 16 * block)
            assert self.outer_results(count) == want

    @staticmethod
    def refined_results():
        lam = SupportWeight(0.9, -0.2, -0.3)
        cfg = SampleConfig(seed=6, count=300, refine_top=6, refine_steps=40)
        out = [ib_curve(SOURCE3, [0.2, 0.5, 0.9], cfg)]
        for src in (dsbs(0.1), SOURCE3):
            for variant in ("inner", "ro", "ro_prime"):
                value, candidate = support_function(src, lam, cfg, variant)
                out += [value, candidate, local_refine(src, candidate, lam, variant, 40, 0.05)]
        return bits(out)

    def test_refinement_block_size_does_not_change_results(self, monkeypatch):
        # each lockstep step scores its proposals in scoring blocks of the
        # draws' cell budget: blocks of 1 table, then 7 (DSBS) and 3 (SOURCE3)
        want = self.refined_results()
        inside, scored, batches = [False], [], []

        def spy(fn, cells):
            def wrapped(pxz, *tables):
                if inside[0]:
                    scored.append((len(tables[0]), cells(pxz, *tables)))
                return fn(pxz, *tables)

            return wrapped

        real_lockstep = optimize._lockstep

        def lockstep(tables, *args):
            batches.append(len(tables[0]))
            inside[0] = True
            try:
                return real_lockstep(tables, *args)
            finally:
                inside[0] = False

        monkeypatch.setattr(optimize, "_lockstep", lockstep)
        monkeypatch.setattr(optimize, "_batch_inner_stats", spy(
            optimize._batch_inner_stats, lambda pxz, u, v: pxz.size * u.shape[2] * v.shape[2]))
        monkeypatch.setattr(optimize, "_batch_ib_stats", spy(
            optimize._batch_ib_stats, lambda pxz, u: pxz.size * u.shape[2]))
        monkeypatch.setattr(optimize, "_chain_map", spy(
            optimize._chain_map, lambda pxz, q, cond: q[0].size))
        for tables in (1, 7):
            monkeypatch.setattr(optimize, "_DRAW_CELLS", 16 * tables)
            scored.clear()
            assert self.refined_results() == want
            assert scored and all(n <= max(1, 16 * tables // cells) for n, cells in scored)
        # a step's 2 x (candidates) proposals spanned several blocks
        assert max(batches) * 2 > 7

    @pytest.mark.parametrize("n, blocks", [(2, [20]), (4, [8, 8, 4]), (16, [1] * 20)])
    def test_blocks_are_sized_by_joint_cells(self, monkeypatch, n, blocks):
        # default caps: an n x n source has n^4 inner joint cells, and a large
        # alphabet is scored one draw at a time
        seen = []

        batch_inner_stats = optimize._batch_inner_stats

        def stats(pxz, rows_u, rows_v):
            seen.append(len(rows_u))
            return batch_inner_stats(pxz, rows_u, rows_v)

        monkeypatch.setattr(optimize, "_batch_inner_stats", stats)
        src = JointPmf((Alphabet(n, "x"), Alphabet(n, "z")), np.full((n, n), 1.0 / n**2))
        assert len(sample_region_points(src, SampleConfig(seed=1, count=20), "inner")) == 20
        assert seen == blocks


class TestDrawLayout:
    """Draw i of a seed depends on the seed, i and the shapes alone: not on
    the count, the draw blocks or the scoring blocks."""

    B = optimize._DRAW_BLOCK

    @pytest.mark.parametrize("i", [0, B - 1, B, 2 * B + 3])
    @pytest.mark.parametrize("variant", ["inner", "ro"])
    def test_draw_does_not_depend_on_the_count(self, i, variant):
        counts = [n for n in (i + 1, self.B, self.B + 1, 3 * self.B + 5) if n > i]
        points = [
            sample_region_points(dsbs(0.1), SampleConfig(seed=4, count=n), variant)[i]
            for n in counts
        ]
        assert len({(pt.mu.hex(), pt.r1.hex(), pt.r2.hex()) for pt in points}) == 1

    # the default budget draws SOURCE3's 13-float pairs a block at a time,
    # 40 floats three draws at a time, with the first shape skipped
    @pytest.mark.parametrize("floats", [optimize._DRAW_FLOATS, 40])
    def test_single_draw_is_the_scored_draw(self, monkeypatch, floats):
        # _draw, the re-draw of support_function, gives the tables the
        # samplers score, across the edge of a draw block
        monkeypatch.setattr(optimize, "_DRAW_FLOATS", floats)
        scored = []
        batch_inner_stats = optimize._batch_inner_stats

        def stats(pxz, rows_u, rows_v):
            scored.append((rows_u.copy(), rows_v.copy()))
            return batch_inner_stats(pxz, rows_u, rows_v)

        monkeypatch.setattr(optimize, "_batch_inner_stats", stats)
        count = 2 * self.B + 4
        sample_region_points(SOURCE3, SampleConfig(seed=8, count=count), "inner")
        rows_u, rows_v = (np.concatenate(kind) for kind in zip(*scored))
        assert len(rows_u) == count
        for i in (0, self.B - 1, self.B, 2 * self.B + 3):
            u, v = optimize._draw(8, i, [(3, 3), (2, 2)])
            assert u.tobytes() == rows_u[i].tobytes() and v.tobytes() == rows_v[i].tobytes()

    def test_one_substream_per_draw_block(self, monkeypatch):
        opened = []
        substream = optimize._substream

        def spy(seed, index):
            opened.append(index)
            return substream(seed, index)

        monkeypatch.setattr(optimize, "_substream", spy)
        assert len(sample_region_points(dsbs(0.1), SampleConfig(seed=1, count=3000), "inner")) == 3000
        assert opened == list(range(math.ceil(3000 / self.B)))

    @pytest.mark.parametrize("count", [7, B + 5])
    @pytest.mark.parametrize("floats", [1, 40, 300])
    def test_draw_pieces_do_not_change_results(self, monkeypatch, count, floats):
        # the samplers' draws hold 8 to 36 floats: a budget of 1 float draws
        # one draw at a time, 40 and 300 cut every block into uneven pieces
        want = TestDrawBlocks.results(count), TestDrawBlocks.outer_results(count)
        monkeypatch.setattr(optimize, "_DRAW_FLOATS", floats)
        assert (TestDrawBlocks.results(count), TestDrawBlocks.outer_results(count)) == want

    @pytest.mark.parametrize("shapes", [[(256, 256)], [(64, 64), (1, 1), (3, 2)]])
    def test_pieces_hold_at_most_the_float_budget(self, shapes):
        per_draw = sum(rows * cols for rows, cols in shapes)
        seen = 0
        for lo, tables in optimize._draw_pieces(2, 0, shapes, self.B):
            assert lo == seen
            assert [t.shape[1:] for t in tables] == shapes
            assert len(tables[0]) * per_draw <= max(optimize._DRAW_FLOATS, per_draw)
            seen += len(tables[0])
        assert seen == self.B

    def test_outer_draws_stay_small_on_a_large_source(self):
        # an outer draw of a 16x16 source at its default caps is 65536
        # floats (512 KiB), so a whole 256-draw block would be 128 MiB
        n = 16
        src = JointPmf((Alphabet(n, "x"), Alphabet(n, "z")), np.full((n, n), 1.0 / n**2))
        cfg = SampleConfig(seed=1, count=4)
        sample_region_points(src, cfg, "ro")  # builds the cached index plans
        tracemalloc.start()
        try:
            assert len(sample_region_points(src, cfg, "ro")) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_ib_curve_draws_each_picked_block_once(self, monkeypatch):
        opened = []
        substream = optimize._substream

        def spy(seed, index):
            opened.append(index)
            return substream(seed, index)

        monkeypatch.setattr(optimize, "_substream", spy)
        count = 3 * self.B + 1
        grid = np.linspace(0.0, 1.1, 25).tolist()
        ib_curve(SOURCE3, grid, SampleConfig(seed=3, count=count, refine_top=0, refine_steps=5))
        walk = math.ceil(count / self.B)
        assert opened[:walk] == list(range(walk))
        # the caps pick draws of several blocks, each drawn again once
        redrawn = opened[walk:]
        assert len(redrawn) > 1 and len(redrawn) == len(set(redrawn))
