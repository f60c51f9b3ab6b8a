"""Tests for the samplers, refinement, envelopes, and boundary curves."""

import hashlib
import inspect
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from coinfo import optimize
from coinfo.errors import ConstraintError, DomainError, SizeError
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
    _OUTER_KEYS,
    _batch_ib_stats,
    _batch_inner_stats,
    _batch_outer_stats,
    _chain_map,
    _source_conditionals,
)
from coinfo.probability import (
    LOG2,
    JointPmf,
    Alphabet,
    Channel,
    binary_convolution,
    binary_entropy,
    binary_entropy_inverse,
    compose_markov,
    conditional_mutual_information,
    dsbs,
    mutual_information,
    _clamp_measure,
)
from coinfo.regions import inner_point, outer_point_ro, outer_point_ro_prime
from entropy_reference import entropies

I_XZ_01 = LOG2 - binary_entropy(0.1)  # 0.36806420716849707

SOURCE3 = JointPmf((Alphabet(3, "x"), Alphabet(2, "z")), [[0.2, 0.1], [0.05, 0.25], [0.3, 0.1]])
DIRICHLET4 = JointPmf(
    (Alphabet(4, "x"), Alphabet(4, "z")), np.random.default_rng(5).dirichlet(np.ones(16)).reshape(4, 4)
)
SOURCE43 = JointPmf(
    (Alphabet(4, "x"), Alphabet(3, "z")), np.random.default_rng(43).dirichlet(np.ones(12)).reshape(4, 3)
)


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


def stats_dicts(stats):
    # one dict of floats per row of _batch_outer_stats, keyed by _OUTER_KEYS
    return [dict(zip(_OUTER_KEYS, row)) for row in stats.tolist()]


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

    def test_bools_are_not_numbers(self):
        for kwargs in (
            {"seed": True},
            {"seed": 1, "count": True},
            {"seed": 1, "refine_steps": False},
            {"seed": 1, "refine_top": True},
            {"seed": 1, "cap_u": True},
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
            (got,) = stats_dicts(_batch_outer_stats(pxz, q[None]))
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
                outer = stats_dicts(_batch_outer_stats(pxz, q))
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
    the floats and the stats row of a map of its own, whatever else shares
    its batch, and the batch is not modified. The seeds draw three sets of
    random tables for map_batches."""

    @pytest.mark.parametrize("seed", [0, 3, 200])
    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_batch_equals_per_table_projection_bitwise(self, size, seed):
        for pxz, q in map_batches(seed):
            cond = _source_conditionals(pxz)
            alone = [_chain_map(pxz, t[None], cond) for t in q]
            for lo in range(0, len(q), size):
                got_q, got_st = _chain_map(pxz, q[lo : lo + size], cond)
                for b, (want_q, want_st) in enumerate(alone[lo : lo + size]):
                    assert bits((got_q[b], got_st[b])) == bits((want_q[0], want_st[0]))

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
            for b, st in enumerate(stats_dicts(stats)):
                assert st["cmi_uz_x"] <= 1e-14 and st["cmi_vx_z"] <= 1e-14
                assert bits(st) == bits(outer_stats(pxz, out[b]))
            moved += not np.array_equal(out, q)
            again, _ = _chain_map(pxz, out, _source_conditionals(pxz))
            assert np.abs(again - out).max() <= 1e-15
        assert moved > 0

    @pytest.mark.parametrize("cap", [2, 3])
    def test_feasible_tables_map_to_themselves(self, cap):
        # long-chain BSC pairs, their solved couplings and a hand-written
        # negative coupling, padded with never-used symbols at cap 3
        alpha = [0.0, 0.003, 0.02, 0.1, 0.2, 0.4, 0.5]
        long_chain = bsc_long_chain(alpha)
        # BSC(0.1) on both sides, each cell's product moved by t(x,z) times
        # [[1, -1], [-1, 1]], which keeps both cell marginals: t < 0
        # anticouples u and v, near the Frechet bound (-0.01 and -0.09)
        t = np.array([[-0.005, -0.08], [-0.08, -0.005]])
        negative = long_chain[3] + t[:, :, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        for p in (0.05, 0.1, 0.3):
            pxz = dsbs(p).mass
            q = np.zeros((2 * len(alpha) + 1, 2, 2, cap, cap))
            q[:, :, :, :2, :2] = [*long_chain, *optimize._coupled(pxz, long_chain, 2000), negative]
            out, _ = _chain_map(pxz, q, _source_conditionals(pxz))
            assert np.abs(out - q).max() <= 1e-15

    def test_every_outer_candidate_holds_the_chains(self, monkeypatch):
        # draws, the DSBS curve's couplings and the outer support's pairs and
        # solved couplings: every outer table these calls score is on both
        # chains to 1e-14, and every call scores some
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
        scored = [len(worst)]
        for src, cap in ((dsbs(0.1), None), (SOURCE3, 3)):
            c = replace(cfg, cap_u=cap, cap_v=cap)
            for variant in ("ro", "ro_prime"):
                support_function(src, lam, c, variant)
                scored.append(len(worst))
                sample_region_points(src, c, variant)
                scored.append(len(worst))
        assert all(b > a for a, b in zip([0, *scored], scored))
        assert max(worst) <= 1e-14


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
        # the min-form outer region is solved and reads no draw: its value
        # is nondecreasing in the count as an equality, and lies above the
        # constant channel's 0
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.6, 0.0)
        vals = [
            support_function(src, lam, SampleConfig(seed=12, count=n, refine_top=0, refine_steps=0), "ro_prime")[0]
            for n in (20, 100, 400, 1500, 6000)
        ]
        assert len(set(vals)) == 1 and vals[0] > 0.0

    def test_count_monotone_with_refinement(self):
        src = dsbs(0.1)
        lam = SupportWeight(1.0, -0.25, -0.25)
        vals = [
            support_function(src, lam, small_cfg(42, n, top=6, steps=40), "ro_prime")[0]
            for n in (30, 80, 200)
        ]
        assert len(set(vals)) == 1

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

    # float.hex digests of (value, candidate tables). Neither variant
    # scans draws: the cases pin the bytes of the solves, which refine_top
    # must not change. The inner value may not fall below the value 0.3.0
    # sampled and climbed to with the same config, nor the "ro" value below
    # 0.5.0's, the best draw kept from its scan and climbed
    @pytest.mark.parametrize("source, variant, top, digest", [
        pytest.param("dsbs", "inner", 0,
                     "21ff6f37bbcdde80717d8e3ee1fa968827213cbf85d8a56b077a292743d1c83b",
                     id="dsbs-inner-0"),
        pytest.param("dsbs", "inner", 4,
                     "21ff6f37bbcdde80717d8e3ee1fa968827213cbf85d8a56b077a292743d1c83b",
                     id="dsbs-inner-4"),
        pytest.param("dsbs", "ro", 0,
                     "55886378d18b0548d1aadf24b870f0807a1cbba1914f5971bbe9e1b496c1f30b",
                     id="dsbs-ro-0"),
        pytest.param("dsbs", "ro", 4,
                     "55886378d18b0548d1aadf24b870f0807a1cbba1914f5971bbe9e1b496c1f30b",
                     id="dsbs-ro-4"),
        pytest.param("SOURCE3", "inner", 0,
                     "673f48ae15f098e3eb7d73cc485e983025c6630b64d28a7c3518edb76513ce54",
                     id="SOURCE3-inner-0"),
        pytest.param("SOURCE3", "inner", 4,
                     "673f48ae15f098e3eb7d73cc485e983025c6630b64d28a7c3518edb76513ce54",
                     id="SOURCE3-inner-4"),
        pytest.param("SOURCE3", "ro", 0,
                     "95b8cdcde04d7efe1dad058ec99ad0f0e893d6cf905776e80b174671925ad089",
                     id="SOURCE3-ro-0"),
        pytest.param("SOURCE3", "ro", 4,
                     "95b8cdcde04d7efe1dad058ec99ad0f0e893d6cf905776e80b174671925ad089",
                     id="SOURCE3-ro-4"),
    ])
    def test_best_draw_kept_from_the_scan(self, source, variant, top, digest):
        src = dsbs(0.1) if source == "dsbs" else SOURCE3
        cfg = SampleConfig(seed=6, count=300, refine_top=top, refine_steps=40)
        value, candidate = support_function(src, SupportWeight(1.0, -0.2, 0.0), cfg, variant)
        tables = [ch.rows for ch in candidate] if variant == "inner" else [candidate]
        words = [value.hex()] + [float(v).hex() for t in tables for v in np.ravel(t)]
        assert hashlib.sha256(" ".join(words).encode()).hexdigest() == digest
        sampled = {("dsbs", "inner"): (0.22943477105650792, 0.22943477105650792),
                   ("SOURCE3", "inner"): (0.000799663673339699, 0.019256029725375476),
                   ("dsbs", "ro"): (0.22943477105650792, 0.22943477105650792),
                   ("SOURCE3", "ro"): (1.7763568394002506e-16, 1.7763568394002506e-16)}
        assert value >= sampled[source, variant][top > 0] - 1e-12

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
        for variant, candidate in (("inner", cand), ("ro", np.full((2, 2, 2, 2), 0.25))):
            for steps in (-5, 2.5, True, math.nan, "10", None):
                with pytest.raises(DomainError):
                    local_refine(src, candidate, lam, variant, steps=steps)
        # step_size is no longer a parameter
        with pytest.raises(TypeError):
            local_refine(src, cand, lam, "inner", steps=10, step_size=0.05)


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

    @pytest.mark.parametrize("grid, message", [
        ([0.1, math.nan], "dsbs_inner_boundary needs a finite real in [0,1], got nan"),
        ([math.inf], "dsbs_inner_boundary needs a finite real in [0,1], got inf"),
        ([0.1, 1.5], "dsbs_inner_boundary argument 1.5 outside [0,1]"),
        ([-1e-9], "dsbs_inner_boundary argument -1e-09 outside [0,1]"),
        ([0.2, 0.6, 1.5, math.nan], "alpha=0.6 outside [0, 1/2]"),
        ([1.0 + 1e-13], "alpha=1.0 outside [0, 1/2]"),
    ])
    def test_first_bad_alpha_names_itself(self, grid, message):
        # the messages of the scalar checks, for the first bad alpha in order
        with pytest.raises(DomainError) as err:
            dsbs_inner_boundary(0.1, grid)
        assert str(err.value) == message

    def test_float_noise_below_zero_is_alpha_zero(self):
        assert bits(dsbs_inner_boundary(0.1, [-1e-13, 0.5])) == bits(dsbs_inner_boundary(0.1, [0.0, 0.5]))

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.5])
    def test_array_points_equal_the_scalar_points_bitwise(self, p):
        alphas = [0.0, 5e-324, 1e-300, 0.5 - 1e-16, 0.5, *dsbs_alpha_grid(), *dsbs_alpha_grid(DEFAULT_WINDOW)]
        r, mu = optimize._sb_curve_points(p, np.array(alphas))
        assert bits([r, mu]) == bits(scalar_sb_points(p, np.array(alphas)))

    @pytest.mark.parametrize("p", [0.02, 0.25, 0.45])
    def test_boundaries_equal_those_of_the_scalar_points(self, monkeypatch, p):
        for grid in ([], DEFAULT_WINDOW[::6], np.linspace(0.0, 0.8, 9)):
            got = [dsbs_inner_boundary(p, dsbs_alpha_grid(grid)), dsbs_outer_boundary_sampled(p, grid)]
            with monkeypatch.context() as m:
                m.setattr(optimize, "_sb_curve_points", scalar_sb_points)
                want = [dsbs_inner_boundary(p, dsbs_alpha_grid(grid)), dsbs_outer_boundary_sampled(p, grid)]
            assert bits(got) == bits(want)


def sb_curve_point(p, alpha):
    """The scalar BSC curve point that _sb_curve_points replaced, kept as
    its bitwise reference."""
    r = LOG2 - binary_entropy(alpha)
    mu = LOG2 - binary_entropy(binary_convolution(binary_convolution(alpha, p), alpha))
    return r, mu


def scalar_sb_points(p, alphas):
    # _sb_curve_points from sb_curve_point, one alpha at a time
    points = [sb_curve_point(p, a) for a in alphas.tolist()]
    return tuple(np.array([pt[k] for pt in points], dtype=np.float64) for k in (0, 1))


# the default dsbs-gap window, whose rate caps are solved at 41 of its 43
# points, the last two being above ln 2; and 25 caps over all of [0, ln 2]
DEFAULT_WINDOW = np.linspace(0.673, 0.694, 43)
FULL_CAPS = np.linspace(0.0, LOG2, 25)

# mu_ro at each cap of DEFAULT_WINDOW ("window") and FULL_CAPS ("full") of the
# best Frechet-coupled BSC pair of a 41 x 41 grid and 12 zoom stencils over
# its two coupling scalars (version 0.6.0), which the I-projection solve
# replaced; on the window at p = 0.1 every value is at or above that of each
# fixed coupling an earlier version tried in place of a solve
GRID_SOLVED_MU = {
    (0.001, "window"): (
        0.6652672611875861, 0.6657638369650658, 0.6662604036875807, 0.666756960856216,
        0.6672535079371451, 0.6677500443581934, 0.6682465695049578, 0.6687430827164091,
        0.6692395832798959, 0.6697360704254376, 0.670232543319194, 0.6707290010559446,
        0.6712254426504058, 0.6717218670271419, 0.6722182730087994, 0.6727146593022957,
        0.673211024482526, 0.6737073669730034, 0.6742036850227219, 0.6746999766782763,
        0.6751962397500191, 0.6756924717706008, 0.6761886699437077, 0.6766848310799962,
        0.6771809515161042, 0.6776770270109269, 0.67817305261085, 0.6786690224717795,
        0.6791649296197413, 0.6796607656219771, 0.6801565201239155, 0.680652180178435,
        0.6811477292407571, 0.6816431455994043, 0.682138399800175, 0.6826334501381703,
        0.6831282340802833, 0.683622649949589, 0.6841165105069892, 0.6846093855216029,
        0.6850995063751331,
    ),
    (0.001, "full"): (
        4.440892098500626e-16, 0.027899669748782996, 0.056148396282778235, 0.08450647950836254,
        0.1129280439244873, 0.14139335633718586, 0.1698916254775591, 0.19841613869066888,
        0.2269623647758916, 0.255527066558942, 0.2841078329145861, 0.31270280976594034,
        0.34131053493638275, 0.36992983121165257, 0.3985597337769302, 0.4271994385863501,
        0.4558482633567291, 0.4845056151928333, 0.5131709590651222, 0.5418437787075516,
        0.5705235119905956, 0.5992094103176706, 0.6279001359194669, 0.65659205184517,
        0.6852399254477132,
    ),
    (0.01, "window"): (
        0.6185538695134836, 0.6190237682643664, 0.6194935584561774, 0.6199632349155731,
        0.6204327921154765, 0.6209022241407349, 0.6213715246493988, 0.6218406868289015,
        0.6223097033463123, 0.6227785662916382, 0.623247267112965, 0.6237157965419471,
        0.6241841445078379, 0.6246523000378268, 0.6251202511409363, 0.6255879846720175,
        0.6260554861715437, 0.6265227396756914, 0.6269897274897229, 0.6274564299155858,
        0.6279228249219319, 0.6283888877409132, 0.6288545903709029, 0.6293199009568267,
        0.6297847830091585, 0.6302491944070812, 0.6307130861080882, 0.6311764004509173,
        0.6316390688832185, 0.6321010088559325, 0.6325621194772083, 0.6330222752601519,
        0.6334813168297777, 0.6339390365570816, 0.6343951552548037, 0.6348492820102671,
        0.6353008392683874, 0.6357489072325749, 0.6361918456670633, 0.6366261021700559,
        0.6370394615336499,
    ),
    (0.01, "full"): (
        4.440892098500626e-16, 0.024004072471201177, 0.04894380563112488, 0.07436845574315676,
        0.10011302012733814, 0.12609317233858208, 0.15225835504624152, 0.1785751913501028,
        0.20502016481260976, 0.23157590556478036, 0.25822911227458034, 0.2849693004250098,
        0.31178800208556123, 0.3386782266984665, 0.36563407780067303, 0.3926504621784317,
        0.41972284737136767, 0.44684702851520863, 0.47401885546335376, 0.5012338331192642,
        0.5284863955142495, 0.555768290008977, 0.5830640310954331, 0.6103322741076171,
        0.637145646205098,
    ),
    (0.1, "window"): (
        0.3582845714130838, 0.3585543572447907, 0.35882346925458175, 0.3590918851398277,
        0.3593595814463795, 0.35962653348053175, 0.35989271521177724, 0.3601580991650921,
        0.36042265630129067, 0.36068635588372344, 0.3609491653292889, 0.36121105004133125,
        0.3614719732215621, 0.3617318956575113, 0.3619907754813627, 0.362248567895056,
        0.36250522485545145, 0.36276069471184713, 0.3630149217863141, 0.36326784588481154,
        0.3635194017238903, 0.3637695182534717, 0.36401811785045624, 0.3642651153500074,
        0.3645104168704354, 0.36475391837209736, 0.3649955038684829, 0.3652350431748097,
        0.36547238903005175, 0.3657073733516878, 0.3659398022600313, 0.366169449306051,
        0.3663960459856226, 0.3666192679848064, 0.36683871436633453, 0.3670538743319569,
        0.36726407027226604, 0.3674683502996072, 0.3676652544958521, 0.3678521706155278,
        0.3680222767028487,
    ),
    (0.1, "full"): (
        4.440892098500626e-16, 0.011839330168788909, 0.02421599546899511, 0.037080594393266164,
        0.050390210270470526, 0.06410760942255145, 0.078200395166649, 0.09264022151076334,
        0.10740209827180625, 0.12246378670094327, 0.13780527073358528, 0.15340828292146558,
        0.16925586032466855, 0.1853319007260148, 0.20162068041213344, 0.2181062770193809,
        0.23477180609899428, 0.25159830962411656, 0.2685629844259734, 0.2856360920340717,
        0.3027750024103659, 0.31991118369259297, 0.33691623652738767, 0.3534819416321324,
        0.36806420716849697,
    ),
    (0.25, "window"): (
        0.12763896679188647, 0.12772911247521646, 0.1278189082743426, 0.12790834608127732,
        0.12799741743565707, 0.12808611349893573, 0.12817442502586163, 0.1282623423328828,
        0.128349855263038, 0.1284369531468148, 0.12852362475837698, 0.12860985826642524,
        0.12869564117884003, 0.12878096028005603, 0.128865801559916, 0.1289501501324648,
        0.12903399014281236, 0.12911730465972648, 0.12920007555107227, 0.1292822833384364,
        0.1293639070263275, 0.12944492389999418, 0.12952530928416928, 0.12960503625260045,
        0.12968407527488313, 0.12976239378232157, 0.12983995562770345, 0.12991672040372704,
        0.12999264256956766, 0.13006767031138566, 0.13014174402467438, 0.130214794243529,
        0.13028673873306706, 0.1303574782632564, 0.13042689019905396, 0.13049481824145936,
        0.13056105481200642, 0.13062530774403536, 0.13068712769266977, 0.13074570768146287,
        0.13079893004599485,
    ),
    (0.25, "full"): (
        4.440892098500626e-16, 0.0039498900344927534, 0.008061874256077406, 0.012337060583365478,
        0.016776041739962277, 0.021378879180333765, 0.02614508320638853, 0.03107358595511478,
        0.036162703147618824, 0.04141007936961705, 0.04681260999258008, 0.0523663303134041,
        0.058066258550517835, 0.06390617307128732, 0.06987829402199819, 0.07597282239936853,
        0.08217725975065937, 0.08847537724681809, 0.09484559779748158, 0.10125833697813702,
        0.10767135198863054, 0.11402085841674015, 0.12020209922748837, 0.12601490651496716,
        0.1308120359411371,
    ),
    (0.45, "window"): (
        0.004891617229046519, 0.004894955911320276, 0.004898280423446089, 0.0049015904743676675,
        0.004904885760476541, 0.004908165964682576, 0.004911430755385915, 0.004914679785336995,
        0.004917912690363124, 0.0049211290879611624, 0.004924328575711678, 0.004927510729499263,
        0.004930675101513904, 0.004933821217978807, 0.004936948576578892, 0.004940056643513158,
        0.004943144850124037, 0.0049462125889960795, 0.004949259209444001, 0.0049522840122318,
        0.004955286243375934, 0.004958265086798086, 0.004961219655566396, 0.004964148981333016,
        0.004967052001498828, 0.0049699275434234025, 0.004972774304774719, 0.004975590828722787,
        0.0049783754721521856, 0.0049811263641634795, 0.004983841350804985, 0.0049865179196231235,
        0.0049891530937093975, 0.004991743277641181, 0.004994284023761786, 0.004996769658026645,
        0.004999192637363148, 0.0050015423342402165, 0.005003802387197442, 0.005005943382675682,
        0.005007888051233866,
    ),
    (0.45, "full"): (
        4.440892098500626e-16, 0.0001475970759248213, 0.0003009871977934786, 0.000460371107393609,
        0.0006259429158608221, 0.0007978863193527364, 0.000976369922409015, 0.0011615414734309493,
        0.0013535207692714213, 0.001552390923607927, 0.0017581876107124472, 0.001970885782363929,
        0.0021903831952534425, 0.0024164798524490827, 0.0026488521082133065, 0.0028870196236328027,
        0.003130302422361453, 0.003377763631195796, 0.0036281303203511417, 0.0038796782821404197,
        0.004130051396736167, 0.004375945757061572, 0.0046124560529261505, 0.004831264823077275,
        0.005008366846356749,
    ),
}


def bsc_long_chain(alphas):
    """q(u,v|x,z) = p(u|x) p(v|z) of BSC(alpha) pairs, one table per alpha."""
    a = np.array(alphas, dtype=np.float64)
    rows = np.stack([np.stack([1.0 - a, a], -1), np.stack([a, 1.0 - a], -1)], 1)
    return rows[:, :, None, :, None] * rows[:, None, :, None, :]


class TestDsbsOuterFloors:
    @pytest.mark.parametrize("p, caps", [
        (p, caps) for p in (0.001, 0.01, 0.1, 0.25, 0.45) for caps in ("window", "full")
    ])
    def test_never_below_the_grid_solve(self, p, caps):
        grid = DEFAULT_WINDOW if caps == "window" else FULL_CAPS
        curve = dsbs_outer_boundary_sampled(p, grid)
        solved = GRID_SOLVED_MU[p, caps]
        rcaps = [r for r in grid if r <= LOG2]
        assert len(rcaps) == len(solved)
        for r, mu in zip(rcaps, solved):
            assert curve.value_at(r) >= mu - 1e-12


class TestCouplingStop:
    def test_each_table_stops_alone(self):
        # the 25 caps at p = 0.001 stop from 1 to about 1500 rounds in: each
        # table of the batch is bitwise the table solved alone
        pxz = dsbs(0.001).mass
        q = bsc_long_chain([binary_entropy_inverse(LOG2 - r) for r in FULL_CAPS.tolist()])
        batch = optimize._coupled(pxz, q, optimize._COUPLING_ROUNDS)
        for b in range(len(q)):
            assert bits(optimize._coupled(pxz, q[b : b + 1], optimize._COUPLING_ROUNDS)) == bits(batch[b : b + 1])
        # some tables stop before round 1000 and some after it
        early = [np.array_equal(a, b) for a, b in zip(optimize._coupled(pxz, q, 1000), batch)]
        assert any(early) and not all(early)
        # mapped onto the short chains, each table holds them and keeps its cap
        _, st = optimize._mapped(pxz, batch)
        assert np.abs(st[:, :2] - FULL_CAPS[:, None]).max() <= 1e-12
        assert st[:, 5:].max() <= 1e-14


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
            for mu, r1, r2 in sample_region_points(dsbs(p), cfg, "ro").tolist():
                assert mu <= curve.value_at(max(r1, r2)) + 1e-12

    def test_draws_nothing(self, monkeypatch):
        def substream(*args):
            raise AssertionError("dsbs_outer_boundary_sampled made a draw")

        monkeypatch.setattr(optimize, "_substream", substream)
        assert dsbs_outer_boundary_sampled(0.1, DEFAULT_WINDOW).knots


# ib_curve(SOURCE3) and ib_curve(DIRICHLET4) at np.linspace(0, ln |X|, 41), as
# the sampled and refined ib_curve(src, grid, SampleConfig(seed=1,
# count=20000)) gave them before the bottleneck solve replaced it
SAMPLED_IB_SOURCE3 = (
    2.220446049250313e-16, 0.007718376093995197, 0.015436752187990234, 0.02307603263664606,
    0.03039900128924939, 0.03761029273519526, 0.04475444530033898, 0.051898597865482704,
    0.059042123977930044, 0.06540221634692761, 0.07176230871592519, 0.07812174499738853,
    0.08398954924760592, 0.08985735349782333, 0.09572515774804073, 0.10159296199825812,
    0.10746045998720488, 0.11189001482055913, 0.11631956965391337, 0.12074912448726763,
    0.12517867932062188, 0.12960618710536656, 0.13100996441313525, 0.13226699539573344,
    0.1335240263783316, 0.13476197625592864, 0.1349583091423443, 0.1351546384227159,
    0.13534922218807535, 0.13551878692128871, 0.1356883516545021, 0.13585791638771547,
    0.13602748112092883, 0.13619704585414222, 0.136366586637179, 0.13651693450674382,
    0.13666727013097815, 0.13680317288815805, 0.1369085885692137, 0.13701400425026938,
    0.13708214271773045,
)
SAMPLED_IB_DIRICHLET4 = (
    0.0, 0.009045629840233039, 0.018091259680466078, 0.027136889520699113,
    0.036182519360932155, 0.0452281492011652, 0.05427214508268728, 0.06245035902633943,
    0.07062857296999157, 0.07880678691364372, 0.08698043531465584, 0.09352461085254533,
    0.10005299091876789, 0.10658137098499046, 0.11310975105121304, 0.1196381311174356,
    0.12616580846209902, 0.12923237964386047, 0.1322989508256219, 0.1353061669771414,
    0.13690912151791557, 0.1385120760586897, 0.14011503059946387, 0.141717985140238,
    0.14331326625388724, 0.14471554446003648, 0.14577323131151768, 0.1468309181629989,
    0.1478886050144801, 0.1489462918659613, 0.1500039787174425, 0.1510616655689237,
    0.15211935242040492, 0.1531770392718861, 0.1542347261233673, 0.15529241297484853,
    0.15635009982632972, 0.1569661493154091, 0.1569661493154091, 0.1569661493154091,
    0.1569661493154091,
)


class TestIbCurve:
    def test_endpoints_and_monotone(self):
        curve = ib_curve(dsbs(0.1))
        assert curve.knots[0] == (0.0, 0.0)
        assert curve.r_max == LOG2 and abs(curve.value_at(LOG2) - I_XZ_01) <= 1e-15
        assert curve.value_at(0.9) == curve.value_at(curve.r_max)
        vals = [curve.value_at(r) for r in np.linspace(0.0, LOG2, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_relevance_never_exceeds_source_mi(self):
        curve = ib_curve(dsbs(0.25))
        assert curve.value_at(curve.r_max) <= (LOG2 - binary_entropy(0.25)) + 1e-9

    def test_draws_and_climbs_nothing(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("ib_curve drew or climbed")

        monkeypatch.setattr(optimize, "_substream", forbidden)
        assert list(inspect.signature(ib_curve).parameters) == ["p_xz"]
        assert len(ib_curve(dsbs(0.25)).knots) > 2

    def test_constant_channel_is_the_origin(self):
        # SOURCE3 renormalizes to 0.9999999999999998, so its scored constant
        # channel reads (2.2e-16, 2.2e-16); the curve starts at (0, 0) and
        # no solved channel within rounding of it is a knot
        knots = ib_curve(SOURCE3).knots
        assert knots[0] == (0.0, 0.0)
        assert all(r > 1e-12 for r, _ in knots[1:])

    @pytest.mark.parametrize("p", [0.02, 0.1, 0.25, 0.45])
    def test_dsbs_closed_form(self, p):
        # the DSBS curve is ln 2 - h_b(p * h_b^-1(ln 2 - r)) (Mrs. Gerber's lemma)
        curve = ib_curve(dsbs(p))
        rs = np.linspace(0.0, LOG2, 401)
        got = np.array([curve.value_at(r) for r in rs])
        alphas = [binary_entropy_inverse(min(max(LOG2 - r, 0.0), LOG2)) for r in rs]
        want = np.array([LOG2 - binary_entropy(binary_convolution(p, a)) for a in alphas])
        assert np.max(got - want) <= 1e-12
        assert np.max(want - got) <= 3e-4

    @pytest.mark.parametrize("src, sampled", [
        (SOURCE3, SAMPLED_IB_SOURCE3), (DIRICHLET4, SAMPLED_IB_DIRICHLET4),
    ], ids=["SOURCE3", "DIRICHLET4"])
    def test_no_lower_than_the_sampled_curve(self, src, sampled):
        curve = ib_curve(src)
        rs = np.linspace(0.0, math.log(src.mass.shape[0]), 41)
        got = np.array([curve.value_at(r) for r in rs])
        assert np.min(got - np.array(sampled)) >= -3e-4


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

    @pytest.mark.parametrize("p, negative", [(1e-3, True), (0.01, True), (0.05, False)])
    def test_counterexample_candidates_at_small_p(self, p, negative):
        # 3000 draws find negative margins (about -1.3e-3 and -2.1e-4) at
        # p <= 0.01, and the label path gives the same margins
        rep = conjecture_test(p, SampleConfig(seed=1, count=3000))
        assert (rep["min_margin"] < 0.0) == negative
        if negative:
            ch_u = Channel(Alphabet(2, "x"), Alphabet(2, "u"), rep["worst_ch_u"])
            ch_v = Channel(Alphabet(2, "z"), Alphabet(2, "v"), rep["worst_ch_v"])
            joint = compose_markov(dsbs(p), ch_u, ch_v)
            alpha, beta = (
                binary_entropy_inverse(min(max(LOG2 - mutual_information(joint, a, b), 0.0), LOG2))
                for a, b in (("u", "x"), ("v", "z"))
            )
            bound = LOG2 - binary_entropy(binary_convolution(binary_convolution(alpha, p), beta))
            margin = bound - mutual_information(joint, "u", "v")
            assert abs(margin - rep["min_margin"]) <= 1e-15

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

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_tail_chunk_does_not_change_results(self, monkeypatch, p):
        # the tail runs once per chunk of draws whose tables hold at most
        # _DRAW_FLOATS floats, 8 a draw at caps 2, 2: chunks of 1 and 7
        # draws give the report of the default chunk bit for bit, and at
        # p = 1/2, where every margin is about 0, first-minimum ties decide
        cfg = SampleConfig(seed=2, count=301)
        want = conjecture_test(p, cfg)
        assert want["worst_index"] == self.scalar_conjecture(p, cfg)["worst_index"]
        inverses = optimize.binary_entropy_inverses
        chunks = []

        def spy(h):
            chunks.append(h.shape[1])
            return inverses(h)

        monkeypatch.setattr(optimize, "binary_entropy_inverses", spy)
        for draws in (1, 7):
            monkeypatch.setattr(optimize, "_DRAW_FLOATS", 8 * draws)
            chunks.clear()
            got = conjecture_test(p, cfg)
            assert max(chunks) == draws and sum(chunks) == cfg.count
            for key in ("min_margin", "worst_index", "alpha", "beta", "worst_ch_u", "worst_ch_v"):
                assert bits(got[key]) == bits(want[key]), key

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

    @pytest.mark.parametrize("variant", ["ro", "ro_prime"])
    def test_outer_difference_within_the_measured_bound(self, variant):
        # the outer solves at caps |X|, |Z| and at caps plus one differ by
        # at most 2.4e-5 here (SOURCE3, ro_prime, the first direction), the
        # other cases by at most 1.1e-15
        lams = [SupportWeight(1.0, -0.06, -0.02), SupportWeight(1.0, -0.1, -0.08)]
        for src in (dsbs(0.1), SOURCE3):
            for row in cardinality_robustness(src, lams, SampleConfig(seed=0), variant):
                assert row["difference"] == row["value_plus"] - row["value_base"]
                assert abs(row["difference"]) <= 3e-5
                assert row["value_base"] > 0.0


# The inner support values of the sampled-and-refined solver that the
# two-sided bottleneck solve replaced, as cardinality_robustness gave them:
# (direction, value at caps |X|, |Z|, value at caps plus one).
SAMPLED_INNER = {
    # dsbs(0.1) at criterion 9's directions and budget (seed 20259, 20000
    # draws, the best 40 refined for 400 steps)
    "criterion-9": (dsbs(0.1), (
        ((0.9437401623221084, -0.2697205880015057, -0.05494799873662581), 0.1229044291126936, 0.12290353557265109),
        ((0.5727119069216235, -0.22125058224499253, -0.2827645884101454), 0.0, 0.0),
        ((0.994496063506646, -0.15205177164169745, -0.3831356265221775), 0.0, 0.0),
        ((0.6771257653912939, -0.3566142286238006, -0.06857281605211853), 0.0, 0.0),
        ((0.9318434809478502, -0.03107773828863758, -0.3046857692889991), 0.11172840004093951, 0.11172840718888846),
    )),
    # dsbs(0.1) at the benchmark's cardinality directions and budgets of
    # seeds 11-20 (4 draws, all refined for 400 steps)
    "bench-11-20": (dsbs(0.1), (
        ((0.9340309021183891, -0.26421718134066674, -0.06385189739695209), 0.1163831865032017, 0.1163831865032026),
        ((0.8761695419586887, -0.16055755592230703, -0.22677209876876603), 0.05401018970983543, 0.054010189709836204),
        ((0.8595807101297919, -0.08642810719165327, -0.12856817754048433), 0.1673568239783111, 0.16735682397831164),
        ((0.8501056586950503, -0.22489897034750345, -0.06531011629693174), 0.11173585509657946, 0.11173585509658004),
        ((0.8428901959958632, -0.08805440163961369, -0.24755858953726328), 0.07760851312577435, 0.07760851312577477),
        ((0.9534212040615465, -0.24754989930268312, -0.2644596361954876), 0.0, 0.0),
        ((0.9525466857605371, -0.16280089544532084, -0.06514141872514297), 0.19260076828786526, 0.1926007682878657),
        ((0.9619130650520021, -0.28096247561223403, -0.13496486506152128), 0.06574690614757468, 0.06574690614757515),
        ((0.8989894249953189, -0.061307263280931903, -0.15250259392872828), 0.1826841302629646, 0.18268413026296515),
        ((0.829278740049545, -0.23187146980296747, -0.0737625759055842), 0.09337844491201387, 0.09337844491201427),
    )),
    # seed 1, 20000 draws, the best 40 refined for 400 steps
    "SOURCE3": (SOURCE3, (
        ((1.0, -0.05, -0.05), 0.06923158325559355, 0.06923238340078308),
        ((1.0, -0.1, 0.0), 0.07321688674783733, 0.07320237352470813),
        ((1.0, 0.0, -0.1), 0.0686210389650492, 0.06862104596386792),
        ((0.9, -0.02, -0.08), 0.05366997353965958, 0.05366997329130746),
        ((1.0, -0.15, -0.02), 0.030608240596474053, 0.030676268620358875),
        ((1.0, -0.2, -0.1), 1.5543122344752188e-16, 1.5543122344752188e-16),
    )),
    "SOURCE43": (SOURCE43, (
        ((1.0, -0.05, -0.05), 0.07894492026550495, 0.07894672730234223),
        ((1.0, -0.1, 0.0), 0.07988714829709198, 0.07981055130717478),
        ((1.0, 0.0, -0.1), 0.08138341618328823, 0.08140093958249026),
        ((0.9, -0.02, -0.08), 0.060680909081907985, 0.060657890245739074),
        ((1.0, -0.15, -0.02), 0.011332915613072203, 0.011300812854442819),
        ((1.0, -0.2, -0.1), 0.0, 0.0),
    )),
}

# directions of the solver checks: soft on both sides, and the hard limit
# (beta = inf) on the u side
SOLVER_LAMS = (SupportWeight(1.0, -0.05, -0.1), SupportWeight(1.0, 0.0, -0.1))


def extended_objective(pxz, lam, rows_u, rows_v):
    """lam . (I(u;v), I(u;x), I(v;z)) of a batch of channel pairs, summed in
    extended precision: at a fixed point of the solve, the float64 scores
    of successive rounds differ by a few ulps of the joint entropies, which
    would hide the solver's own steps."""
    ld = np.longdouble
    w = (pxz.astype(ld)[None, :, :, None, None] * rows_u.astype(ld)[:, :, None, :, None]
         * rows_v.astype(ld)[:, None, :, None, :])

    def h(keep):
        # entropy of the marginal on the kept axes of (x, z, u, v)
        m = w.sum(axis=tuple(1 + a for a in range(4) if a not in keep)).reshape(len(w), -1)
        return -np.sum(m * np.log(np.where(m > 0.0, m, 1.0)), axis=1)

    iuv = h((2,)) + h((3,)) - h((2, 3))
    iux = h((0,)) + h((2,)) - h((0, 2))
    ivz = h((1,)) + h((3,)) - h((1, 3))
    return lam.l1 * iuv + lam.l2 * iux + lam.l3 * ivz


class TestInnerSupport:
    @pytest.mark.parametrize("case", SAMPLED_INNER)
    def test_never_below_the_sampled_values(self, case):
        src, rows = SAMPLED_INNER[case]
        lams = [SupportWeight(*lam) for lam, _, _ in rows]
        report = cardinality_robustness(src, lams, SampleConfig(seed=0))
        for (_, base, plus), entry in zip(rows, report):
            assert entry["value_base"] >= base - 1e-12
            assert entry["value_plus"] >= plus - 1e-12
            assert abs(entry["difference"]) <= 1e-12

    def test_draws_and_climbs_nothing(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the inner support drew or climbed")

        monkeypatch.setattr(optimize, "_substream", forbidden)
        lam = SupportWeight(1.0, -0.05, -0.1)
        results = set()
        for seed in (0, 1, 2):
            for count in (1, 10**4):
                # the budgets go unread too
                cfg = SampleConfig(seed=seed, count=count, refine_top=seed, refine_steps=7 * seed)
                out = [support_function(src, lam, cfg, "inner") for src in (dsbs(0.1), SOURCE3)]
                out.append(cardinality_robustness(DIRICHLET4, [lam], cfg))
                results.add(repr(bits(out)))
        assert len(results) == 1

    @pytest.mark.parametrize("src", [dsbs(0.1), SOURCE3, DIRICHLET4], ids=["dsbs", "SOURCE3", "DIRICHLET4"])
    @pytest.mark.parametrize("caps", [0, 1, -1], ids=["caps", "caps+1", "caps-1"])
    def test_start_pair_alone_equals_the_batch(self, src, caps):
        nx, nz = src.mass.shape
        rows_u, rows_v = optimize._inner_starts(src.mass, nx + caps, nz + caps)
        for lam in SOLVER_LAMS:
            full = optimize._inner_solve(src.mass, lam, rows_u, rows_v, 60)
            # the best iterate is kept, so no pair ends below its start
            assert np.all(full[0] >= optimize._lam_dot(lam, *_batch_inner_stats(src.mass, rows_u, rows_v)))
            for b in range(len(rows_u)):
                alone = optimize._inner_solve(src.mass, lam, rows_u[[b]], rows_v[[b]], 60)
                assert bits([t[0] for t in alone]) == bits([t[b] for t in full])

    @pytest.mark.parametrize("src", [dsbs(0.1), SOURCE3, DIRICHLET4], ids=["dsbs", "SOURCE3", "DIRICHLET4"])
    def test_objective_never_decreases(self, src):
        pxz = src.mass
        nx, nz = pxz.shape
        for lam in SOLVER_LAMS:
            for caps in (0, 1):
                pair = optimize._inner_starts(pxz, nx + caps, nz + caps)
                values = [extended_objective(pxz, lam, *pair)]
                for pair in itertools.islice(inner_rounds(pxz, lam, *pair), 100):
                    values.append(extended_objective(pxz, lam, *pair))
                assert np.min(np.diff(values, axis=0)) >= -1e-15

    def test_hard_limit_assigns_each_letter_to_one_output(self):
        # l2 = 0: I(u;x) costs nothing, each update of p(u|x) is a hard
        # assignment, and with u = x allowed the solve keeps the identity
        lam = SupportWeight(1.0, 0.0, -0.1)
        for caps in (None, 2):
            cfg = SampleConfig(seed=0, cap_u=caps, cap_v=caps)
            value, (ch_u, _) = support_function(DIRICHLET4, lam, cfg, "inner")
            assert value > 0.0
            assert np.all((ch_u.rows == 0.0) | (ch_u.rows == 1.0))
        assert np.array_equal(support_function(DIRICHLET4, lam, SampleConfig(seed=0), "inner")[1][0].rows,
                              np.eye(4))
        # x = 0 and x = 1 differ in p(z|x) by 1e-9, so a large finite beta
        # (1e6) would split each between two outputs; the hard limit does not
        twins = JointPmf((Alphabet(3, "x"), Alphabet(2, "z")), [[0.2, 0.1], [0.2 + 1e-9, 0.1], [0.1, 0.3 - 1e-9]])
        for cap in (2, 3):
            _, (ch_u, _) = support_function(twins, lam, SampleConfig(seed=0, cap_u=cap), "inner")
            assert np.all((ch_u.rows == 0.0) | (ch_u.rows == 1.0))

    def test_small_caps_start_from_merged_corners(self):
        # below the alphabet sizes, the corner is merged by bottleneck merges;
        # the sampled-and-refined solver (seed 1, 5000 draws, the best 20
        # refined for 300 steps) gave these values at caps (2, 2) and (3, 2)
        for lam, caps, sampled in (
            ((1.0, 0.0, 0.0), (2, 2), 0.1258633706156148),
            ((1.0, 0.0, 0.0), (3, 2), 0.12701646737665073),
            ((1.0, -0.02, -0.01), (2, 2), 0.10926245979941525),
        ):
            cfg = SampleConfig(seed=0, cap_u=caps[0], cap_v=caps[1])
            value, (ch_u, ch_v) = support_function(DIRICHLET4, SupportWeight(*lam), cfg, "inner")
            assert value >= sampled - 1e-12
            assert ch_u.rows.shape == (4, caps[0]) and ch_v.rows.shape == (4, caps[1])
        assert optimize._merged_labels(DIRICHLET4.mass, 4).tolist() == [0, 1, 2, 3]
        assert sorted(set(optimize._merged_labels(DIRICHLET4.mass, 2).tolist())) == [0, 1]

    def test_constant_pair_scores_exactly_zero(self):
        # SOURCE3 renormalizes to 0.9999999999999998, so a scored constant pair
        # reads -4.4e-16; here its (mu, r1, r2) is (0, 0, 0) by definition, and
        # a solved value within rounding of it does not lift it
        constant = (np.eye(1, 3, 0).repeat(3, axis=0), np.eye(1, 2, 0).repeat(2, axis=0))
        for lam in (SupportWeight(0.0, -1.0, -1.0), SupportWeight(1.0, -0.2, -0.1), SupportWeight(1.0, -0.5, -0.5)):
            value, (ch_u, ch_v) = support_function(SOURCE3, lam, SampleConfig(seed=0), "inner")
            assert value.hex() == "0x0.0p+0"
            assert np.array_equal(ch_u.rows, constant[0]) and np.array_equal(ch_v.rows, constant[1])
        (entry,) = cardinality_robustness(SOURCE3, [SupportWeight(0.0, -1.0, -1.0)], SampleConfig(seed=0))
        assert entry["value_base"] == entry["value_plus"] == entry["difference"] == 0.0

    def test_local_refine_runs_the_solve_from_the_candidate(self):
        lam = SupportWeight(1.0, -0.05, -0.1)
        rng = np.random.default_rng(77)
        start = (rng.dirichlet(np.ones(3), size=3), rng.dirichlet(np.ones(2), size=2))
        ru, rv = local_refine(SOURCE3, start, lam, "inner", steps=40)
        _, want_u, want_v = optimize._inner_solve(SOURCE3.mass, lam, start[0][None], start[1][None], 40)
        assert bits([ru, rv]) == bits([want_u[0], want_v[0]])

    @pytest.mark.parametrize("src", [dsbs(0.1), SOURCE3, DIRICHLET4], ids=["dsbs", "SOURCE3", "DIRICHLET4"])
    @pytest.mark.parametrize("caps", [0, 1, -1], ids=["caps", "caps+1", "caps-1"])
    def test_solve_equals_every_round_scored_alone(self, src, caps):
        # the fixed-point stop and the one scoring pass change no value or row
        pxz = src.mass
        nx, nz = pxz.shape
        starts = optimize._inner_starts(pxz, nx + caps, nz + caps)
        rng = np.random.default_rng(nx * 10 + nz + caps)
        for lam in (*SOLVER_LAMS, SupportWeight(0.9, -0.2, -0.05), SupportWeight(1.0, -0.3, 0.0)):
            for rounds in (0, 1, 7, 60):
                got = optimize._inner_solve(pxz, lam, *starts, rounds)
                assert bits(got) == bits(inner_solve_reference(pxz, lam, *starts, rounds))
            start = (rng.dirichlet(np.ones(nx + caps), size=nx), rng.dirichlet(np.ones(nz + caps), size=nz))
            got = local_refine(src, start, lam, "inner", steps=60)
            _, want_u, want_v = inner_solve_reference(pxz, lam, start[0][None], start[1][None], 60)
            assert bits(got) == bits([want_u[0], want_v[0]])

    def test_rounds_stop_at_the_fixed_point(self, monkeypatch):
        # bench seed 11's direction on dsbs(0.1): at caps 2 the rounds reach
        # their bitwise fixed point early; at caps 3 the spare outputs decay
        # without end and every round runs, two updates a round
        lam = SupportWeight(*SAMPLED_INNER["bench-11-20"][1][0][0])
        calls = []
        update = optimize._bottleneck_update

        def counted(*args):
            calls.append(1)
            return update(*args)

        monkeypatch.setattr(optimize, "_bottleneck_update", counted)
        support_function(dsbs(0.1), lam, SampleConfig(seed=0, cap_u=2, cap_v=2), "inner")
        assert len(calls) < 2 * optimize._INNER_ROUNDS
        calls.clear()
        support_function(dsbs(0.1), lam, SampleConfig(seed=0, cap_u=3, cap_v=3), "inner")
        assert len(calls) == 2 * optimize._INNER_ROUNDS


def inner_rounds(pxz, lam, rows_u, rows_v):
    """The rounds of the two-sided inner solve, without end: one
    _bottleneck_update of p(u|x) against v, then one of p(v|z) against u,
    at beta = l1 / -l2 and l1 / -l3 (inf for a zero weight)."""
    z_given_x, x_given_z = _source_conditionals(pxz)
    beta_u = lam.l1 / -lam.l2 if lam.l2 < 0.0 else math.inf
    beta_v = lam.l1 / -lam.l3 if lam.l3 < 0.0 else math.inf
    while True:
        rows_u = optimize._bottleneck_update(pxz, z_given_x, rows_u, beta_u, rows_v)
        rows_v = optimize._bottleneck_update(pxz.T, x_given_z.T, rows_v, beta_v, rows_u)
        yield rows_u, rows_v


def inner_solve_reference(pxz, lam, rows_u, rows_v, rounds):
    """_inner_solve before the fixed-point stop, kept as its reference:
    every round runs and is scored by a _batch_inner_stats call of its own."""
    pairs = [(rows_u, rows_v), *itertools.islice(inner_rounds(pxz, lam, rows_u, rows_v), rounds)]
    values = np.stack([optimize._lam_dot(lam, *_batch_inner_stats(pxz, *pair)) for pair in pairs])
    best = np.argmax(values, axis=0)  # the first round on ties
    starts = np.arange(len(rows_u))
    us, vs = (np.stack(side) for side in zip(*pairs))
    return values[best, starts], us[best, starts], vs[best, starts]


def bottleneck_update_reference(pxy, y_given_x, enc, beta, relevance=None):
    """An earlier body of _bottleneck_update, kept as its bitwise reference:
    the relevance copied to a batch, a zero-filled masked divide and the row
    maximum as one reduction."""
    px = pxy.sum(axis=1)
    q_u = np.einsum("x,bxu->bu", px, enc, optimize=False)[:, :, None]
    q_uv = np.einsum("xy,bxu->buy", pxy, enc, optimize=False)
    if relevance is None:
        v_given_x = np.broadcast_to(y_given_x, (len(enc), *y_given_x.shape))
    else:
        q_uv = np.einsum("buy,byv->buv", q_uv, relevance, optimize=False)
        v_given_x = np.einsum("xy,byv->bxv", y_given_x, relevance, optimize=False)
    v_given_u = np.divide(q_uv, q_u, out=np.zeros(q_uv.shape), where=q_u > 0.0)
    log_decoder = np.log(np.maximum(v_given_u, optimize._TINY))
    cross = np.einsum("bxv,buv->bxu", v_given_x, log_decoder, optimize=False)
    if np.isscalar(beta) and beta == math.inf:
        return (np.argmax(cross, axis=2)[:, :, None] == np.arange(enc.shape[2])).astype(np.float64)
    w = np.log(np.maximum(q_u[:, None, :, 0], optimize._TINY)) + beta * cross
    w = np.exp(w - w.max(axis=2, keepdims=True))
    return w / w.sum(axis=2, keepdims=True)


class TestBottleneckUpdate:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_reference_bitwise(self, seed):
        # |X| 2-6, |Y| 2-5, 1-7 outputs, batches of 1-130; beta a scalar, a
        # (batch, 1, 1) array and inf; relevance y itself and channels of
        # 1-7 outputs; every other case has an all-zero output column, and
        # every third source an all-zero row, so q(u) = 0 cells occur
        rng = np.random.default_rng(seed)
        zero_cells = 0
        for case in range(60):
            nx, ny, nu = (int(rng.integers(lo, hi)) for lo, hi in ((2, 7), (2, 6), (1, 8)))
            batch = int(rng.integers(1, 131))
            pxy = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
            if case % 3 == 0:
                pxy[rng.integers(nx)] = 0.0
                pxy /= pxy.sum()
            y_given_x, _ = _source_conditionals(pxy)
            enc = rng.dirichlet(np.ones(nu), size=(batch, nx))
            if nu > 1 and case % 2 == 0:
                enc[:, :, rng.integers(nu)] = 0.0
                enc /= enc.sum(axis=2, keepdims=True)
            zero_cells += int(np.sum(np.einsum("x,bxu->bu", pxy.sum(axis=1), enc) == 0.0))
            relevance = rng.dirichlet(np.ones(int(rng.integers(1, 8))), size=(batch, ny))
            betas = (float(rng.uniform(0.1, 50.0)), rng.uniform(0.1, 50.0, size=(batch, 1, 1)), math.inf)
            for rel in (None, relevance):
                for beta in betas:
                    got = optimize._bottleneck_update(pxy, y_given_x, enc, beta, rel)
                    assert bits(got) == bits(bottleneck_update_reference(pxy, y_given_x, enc, beta, rel))
        assert zero_cells > 0


# The outer support values of the sampler and hill climb that the solve
# replaced, at SampleConfig(seed=1)'s defaults (100000 draws, the best 100
# climbed for 500 steps): (direction, ro value, ro_prime value)
SAMPLED_OUTER = {
    "dsbs0.1": (dsbs(0.1), (
        ((1.0, -0.02, -0.03), 0.3334068481405006, 0.3334068481404997),
        ((1.0, -0.06, -0.02), 0.3126124327237136, 0.3126124327237014),
        ((1.0, -0.04, 0.0), 0.34033831994610014, 0.34033831994609953),
        ((1.0, -0.1, -0.08), 0.2432977170137081, 0.2432977146677068),
        ((1.0, -0.1, -0.15), 0.1947786358250016, 0.19494344705820155),
    )),
    "dsbs0.25": (dsbs(0.25), (
        ((1.0, -0.02, -0.03), 0.09615467724820692, 0.09615467691313984),
        ((1.0, -0.06, -0.02), 0.07536660937474432, 0.07536026149634148),
        ((1.0, -0.04, 0.0), 0.10308619217495728, 0.10308619217495568),
        ((1.0, -0.1, -0.08), 0.006468051912152814, 0.016432219769624584),
        ((1.0, -0.1, -0.15), 0.0, 0.0),
    )),
    "SOURCE3": (SOURCE3, (
        ((1.0, -0.02, -0.03), 0.1013201671918145, 0.10214677836158433),
        ((1.0, -0.06, -0.02), 0.08376762416403125, 0.08416162316231816),
        ((1.0, -0.04, 0.0), 0.10974716350969445, 0.10973271744708225),
        ((1.0, -0.1, -0.08), 0.017893934396709492, 0.024511399274439176),
        ((1.0, -0.1, -0.15), 1.6653345369377348e-16, 0.0009595183950571809),
    )),
    "SOURCE43": (SOURCE43, (
        ((1.0, -0.02, -0.03), 0.13265500987426856, 0.13279959165321384),
        ((1.0, -0.06, -0.02), 0.09903660887099743, 0.09965963882378963),
        ((1.0, -0.04, 0.0), 0.14225526529024243, 0.14244940640859918),
        ((1.0, -0.1, -0.08), 4.0412118096355695e-16, 0.009990442561298371),
        ((1.0, -0.1, -0.15), 3.885780586188048e-16, 1.6653345369377348e-16),
    )),
    "DIRICHLET4": (DIRICHLET4, (
        ((1.0, -0.02, -0.03), 0.09488696335139413, 0.10089960068549118),
        ((1.0, -0.06, -0.02), 0.06180086069888933, 0.0756317760521264),
        ((1.0, -0.04, 0.0), 0.11019861234179215, 0.11296780772277062),
        ((1.0, -0.1, -0.08), 0.0, 0.01394606148406128),
        ((1.0, -0.1, -0.15), 0.0, 0.002694779140073834),
    )),
}


def outer_joint(src, q):
    """The (x, z, u, v) JointPmf of an outer candidate q(u,v|x,z)."""
    w = src.mass[:, :, None, None] * np.asarray(q)
    return JointPmf(tuple(Alphabet(n, k) for n, k in zip(w.shape, "xzuv")), w)


class TestOuterSupport:
    @pytest.mark.parametrize("case", SAMPLED_OUTER)
    def test_never_below_the_sampled_values(self, case):
        # the returned table holds both chains on the label path, which
        # scores it at the value; ro_prime >= ro >= inner but for rounding
        src, rows = SAMPLED_OUTER[case]
        cfg = SampleConfig(seed=1)
        for weights, *sampled in rows:
            lam = SupportWeight(*weights)
            values = {"inner": support_function(src, lam, cfg, "inner")[0]}
            for variant, floor, point in zip(("ro", "ro_prime"), sampled, (outer_point_ro, outer_point_ro_prime)):
                value, q = support_function(src, lam, cfg, variant)
                assert value >= floor - 1e-9
                joint = outer_joint(src, q)
                assert conditional_mutual_information(joint, "u", "z", "x") <= 1e-9
                assert conditional_mutual_information(joint, "v", "x", "z") <= 1e-9
                pt = point(joint)
                assert abs(value - (lam.l1 * pt.mu + lam.l2 * pt.r1 + lam.l3 * pt.r2)) <= 1e-12
                values[variant] = value
            assert values["ro_prime"] >= values["ro"] - 1e-12
            assert values["ro"] >= values["inner"] - 1e-12

    def test_draws_nothing_and_reads_no_budget(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the outer support drew")

        monkeypatch.setattr(optimize, "_substream", forbidden)
        lam = SupportWeight(1.0, -0.1, -0.08)
        results = set()
        for cfg in (SampleConfig(seed=1),
                    SampleConfig(seed=7, count=3, refine_top=0, refine_steps=0)):
            out = []
            for variant in ("ro", "ro_prime"):
                value, q = support_function(dsbs(0.25), lam, cfg, variant)
                out += [value, q, local_refine(dsbs(0.25), q, lam, variant, 20)]
                out.append(cardinality_robustness(SOURCE3, [lam], cfg, variant))
            results.add(repr(bits(out)))
        assert len(results) == 1

    def test_coupling_solve_lifts_a_long_chain_pair(self):
        # a BSC pair of the DSBS ridge: re-solving its coupling raises mu_ro
        # above the long chain's I(u;v), and once solved it keeps both cell
        # marginals, so both rates
        src, lam = dsbs(0.1), SupportWeight(1.0, -0.1, -0.1)
        alpha = binary_entropy_inverse(LOG2 - 0.68)
        rows = np.array([[1.0 - alpha, alpha], [alpha, 1.0 - alpha]])
        q = rows[:, None, :, None] * rows[None, :, None, :]
        before = outer_point_ro(outer_joint(src, q))
        for steps in (1, 10, 300):
            pt = outer_point_ro(outer_joint(src, local_refine(src, q, lam, "ro", steps=steps)))
            assert lam.l1 * pt.mu + lam.l2 * pt.r1 + lam.l3 * pt.r2 >= (
                lam.l1 * before.mu + lam.l2 * before.r1 + lam.l3 * before.r2)
        assert abs(pt.r1 - before.r1) <= 1e-12 and abs(pt.r2 - before.r2) <= 1e-12
        assert pt.mu > before.mu + 1e-4

    @pytest.mark.parametrize("variant", ["ro", "ro_prime"])
    def test_local_refine_never_decreases_from_a_random_start(self, variant):
        lam = SupportWeight(1.0, -0.05, -0.1)
        for seed in range(3):
            q = np.random.default_rng(seed).dirichlet(np.ones(9), size=(3, 2)).reshape(3, 2, 3, 3)
            out = local_refine(SOURCE3, q, lam, variant, steps=50)
            values = optimize._scored_outer(SOURCE3.mass, lam, variant, np.stack([q, out]))[1]
            assert values[1] >= values[0]
            assert np.array_equal(local_refine(SOURCE3, q, lam, variant, steps=0), q)


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


class TestDrawBlocks:
    """Inner draws, the solved bottleneck channels and the iterates of the
    inner support solve are scored a block at a time; no result depends
    on the block size."""

    @staticmethod
    def results(count):
        lam = SupportWeight(0.9, -0.2, -0.3)
        cfg = SampleConfig(seed=6, count=count, refine_top=4, refine_steps=40)
        out = [conjecture_test(0.1, cfg), ib_curve(SOURCE3)]
        for src in (dsbs(0.1), SOURCE3):
            out.append(sample_region_points(src, cfg, "inner").tolist())
            out.append(support_function(src, SupportWeight(1.0, -0.05, -0.05), cfg, "inner"))
        return bits(out)

    @staticmethod
    def outer_results(count):
        cfg = SampleConfig(seed=6, count=count)
        out = [dsbs_outer_boundary_sampled(0.1, [0.675, 0.69])]
        for src in (dsbs(0.1), SOURCE3):
            for variant in ("ro", "ro_prime"):
                points = sample_region_points(src, cfg, variant)
                # every draw is mapped onto the chains, none dropped
                assert points.shape == (count, 3)
                out.append(points.tolist())
        return bits(out)

    # the default block of a 2x2x2x2 joint (conjecture_test, DSBS inner and
    # outer) and of SOURCE3's 3x2x3x2 inner and outer joints
    @pytest.mark.parametrize("count", [6, 7, 8, 56, 57, 128, 129, optimize._DRAW_BLOCK + 1])
    def test_block_size_does_not_change_results(self, monkeypatch, count):
        want = self.results(count)
        # budgets of 1 and 7 draws of a 2x2x2x2 joint: blocks of 1 draw
        # everywhere, then 7, 4 (SOURCE3's bottleneck channels) and 3 (its
        # inner draws)
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

    def test_refinement_block_size_does_not_change_results(self, monkeypatch):
        # the outer solve and local_refine score their pools and tables in
        # blocks of the draws' cell budget: blocks of 1 table, then 7 (DSBS) and 3 (SOURCE3)
        def solved():
            lam = SupportWeight(0.9, -0.05, -0.08)
            out = []
            for src in (dsbs(0.1), SOURCE3):
                for variant in ("ro", "ro_prime"):
                    value, q = support_function(src, lam, SampleConfig(seed=0), variant)
                    out += [value, q, local_refine(src, q, lam, variant, 40)]
            return bits(out)

        want = solved()
        for block in (1, 7):
            monkeypatch.setattr(optimize, "_DRAW_CELLS", 16 * block)
            assert solved() == want

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


class TestRegionSamplePoints:
    """sample_region_points returns one (count, 3) float64 array, columns
    (mu, r1, r2), and checks the RegionPoint invariants of all its rows at
    once, raising the error of the first offending row."""

    @pytest.mark.parametrize("variant", ["inner", "ro", "ro_prime"])
    def test_one_array_of_rows(self, variant):
        for src in (dsbs(0.1), SOURCE3):
            points = sample_region_points(src, SampleConfig(seed=4, count=300), variant)
            assert points.shape == (300, 3) and points.dtype == np.float64
            assert np.all(points[:, 0] <= np.minimum(points[:, 1], points[:, 2]) + 1e-9)

    @pytest.mark.parametrize("variant", ["inner", "ro"])
    def test_first_offending_row_raises(self, monkeypatch, variant):
        # row 5 gets mu = 2 > ln 2 and row 9 a nan rate: row 5's error is raised
        cfg = SampleConfig(seed=4, count=20)
        want = sample_region_points(dsbs(0.1), cfg, variant)
        if variant == "inner":
            real = optimize._batch_inner_stats

            def stats(pxz, rows_u, rows_v):
                iuv, iux, ivz = (c.copy() for c in real(pxz, rows_u, rows_v))
                iuv[5], iux[9] = 2.0, math.nan
                return iuv, iux, ivz

            monkeypatch.setattr(optimize, "_batch_inner_stats", stats)
        else:
            real = optimize._checked_outer_stats

            def stats(pxz, q):
                st = real(pxz, q)
                st[5, 4], st[9, 0] = 2.0, math.nan
                return st

            monkeypatch.setattr(optimize, "_checked_outer_stats", stats)
        with pytest.raises(ConstraintError) as exc:
            sample_region_points(dsbs(0.1), cfg, variant)
        assert str(exc.value) == f"mu=2.0 exceeds min(r1, r2)={min(want[5, 1:].tolist())}"


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
        assert len({tuple(v.hex() for v in pt.tolist()) for pt in points}) == 1

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
