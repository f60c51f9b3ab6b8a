"""Tests of the benchmark's own code: reference helpers, output checks, tracing.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

import itertools
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# frozen constants (mpmath, 50 digits), as in tests/test_acceptance.py
LN2 = 0.69314718055994531
GAP_01 = 0.36806420716849707  # ln 2 - h_b(0.1)
GAP_025 = 0.13081203594113696  # ln 2 - h_b(0.25)


def test_binary_entropy_matches_frozen_constants():
    assert abs(ref.LN2 - LN2) <= 1e-16
    assert abs(LN2 - ref.hb(0.1) - GAP_01) <= 1e-15
    assert abs(LN2 - ref.hb(0.25) - GAP_025) <= 1e-15
    assert ref.hb(0.0) == 0.0 and ref.hb(1.0) == 0.0


def test_binary_entropy_inverse_round_trips():
    for p in (1e-6, 0.01, 0.1, 0.25, 0.4, 0.4999):
        assert abs(ref.hb_inv(ref.hb(p)) - p) <= 1e-12
    assert ref.hb_inv(0.0) == 0.0 and ref.hb_inv(LN2) == 0.5
    grid = np.array([0.05, 0.3, 0.6])
    assert np.array_equal(ref.hb_inv(grid), [ref.hb_inv(float(h)) for h in grid])


def test_mutual_information_of_a_table():
    assert abs(ref.mi_table(ref.dsbs_mass(0.1)) - GAP_01) <= 1e-15
    assert abs(ref.mi_table(ref.dsbs_mass(0.25)) - GAP_025) <= 1e-15
    assert abs(ref.mi_table(np.outer([0.3, 0.7], [0.6, 0.4]))) <= 1e-16


def test_closed_form_curves_hit_their_endpoints():
    for p, top in ((0.1, GAP_01), (0.25, GAP_025)):
        assert abs(ref.dsbs_ib_curve(0.0, p)) <= 1e-16
        assert abs(ref.dsbs_ib_curve(LN2, p) - top) <= 1e-15
        assert abs(ref.sym_inner_curve(LN2, p) - top) <= 1e-15
    # the symmetric inner point at crossover a has rate ln2 - hb(a)
    a = 0.11
    r = LN2 - ref.hb(a)
    assert abs(ref.sym_inner_curve(r, 0.1) - (LN2 - ref.hb(ref.star(ref.star(a, 0.1), a)))) <= 1e-12


def test_upper_envelope_dominates_points_and_is_concave():
    rng = np.random.default_rng(3)
    pts = list(zip(rng.uniform(0, 1, 50).tolist(), rng.uniform(0, 1, 50).tolist()))
    knots_r, knots_mu = ref.upper_envelope(pts)
    for r, m in pts:
        assert np.interp(r, knots_r, knots_mu) >= m - 1e-15
    slopes = np.diff(knots_mu) / np.diff(knots_r)
    assert np.all(np.diff(slopes) <= 1e-12)


def test_exhaustive_theta_over_raw_code_pairs():
    pxz = ref.dsbs_mass(0.25)
    assert abs(ref.raw_best_theta(pxz, 1, 2, 2) - GAP_025) <= 1e-15
    assert abs(ref.theta(pxz, 1, [0, 1], [0, 1], 2, 2) - GAP_025) <= 1e-15
    # two letters, the first letter's bit on both sides: half the one-letter value
    assert abs(ref.theta(pxz, 2, [0, 0, 1, 1], [0, 0, 1, 1], 2, 2) - GAP_025 / 2) <= 1e-15
    assert ref.raw_best_theta(pxz, 2, 2, 2) >= GAP_025 / 2 - 1e-15


def test_canonical_code_pair_count_matches_enumeration():
    def canonical(length, m):
        seen = set()
        for code in itertools.product(range(m), repeat=length):
            relabel = {}
            seen.add(tuple(relabel.setdefault(c, len(relabel)) for c in code))
        return len(seen)

    for length, m in ((2, 2), (4, 2), (4, 3), (8, 2)):
        assert ref.canonical_code_pairs(length, m, 2, 2) == canonical(length, m) * canonical(2, 2)


def _set_field(path, key, index, transform):
    """Rewrite one field of the first body line starting with key."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if not line.startswith("#") and parts and parts[0] == key:
            parts[index] = transform(parts[index])
            lines[i] = " ".join(parts)
            break
    else:
        raise AssertionError(f"no line {key!r} in {path}")
    path.write_text("\n".join(lines) + "\n")


def _set_row(path, row, column, transform):
    """Rewrite one cell of a numeric table (row counted over body lines)."""
    lines = path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    parts = lines[body[row]].split()
    parts[column] = repr(transform(float(parts[column])))
    lines[body[row]] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")


def _bump(delta):
    return lambda text: repr(float(text) + delta)


# one small task of every kind, with an output corruption its check must reject
CASES = [
    (wl.conjecture_task(0.1, 3, 40), lambda d: _set_field(d / "conj.dat", "min_margin", 1, _bump(1e-6))),
    (wl.conjecture_task(0.25, 3, 40), lambda d: _set_field(d / "conj.dat", "alpha", 1, _bump(1e-6))),
    (wl.region_sample_task(0.1, "inner", 3, 40), lambda d: _set_row(d / "points.dat", 5, 0, lambda v: v + 0.05)),
    (wl.region_sample_task(0.1, "ro", 3, 20), lambda d: _set_row(d / "points.dat", 2, 1, lambda v: 0.7)),
    (wl.dsbs_gap_task(0.1, 3, 20, 2), lambda d: _set_row(d / "outer.dat", 0, 1, lambda v: v - 1e-3)),
    (wl.cardinality_task(0.1, 3, 2, 40), lambda d: _set_field(d / "report.txt", "difference", 1, _bump(1e-2))),
    (wl.ib_curve_task(0.25, 3, 40, 5), lambda d: _set_row(d / "ib.dat", 2, 1, lambda v: v + 0.05)),
    (wl.bruteforce_task(0.25, 1, 2), lambda d: _set_field(d / "code.dat", "best_theta", 1, _bump(1e-12))),
    (wl.bruteforce_task(0.25, 2, 3), lambda d: _set_field(d / "code.dat", "g", 1, lambda v: str(1 - int(v)))),
    (wl.typicality_task(), lambda d: _set_field(d / "types.dat", "check", 2, lambda v: "fail")),
    (wl.surface_task(0.25, 9), lambda d: _set_row(d / "surface.dat", 40, 2, lambda v: v + 1e-9)),
    (wl.multi_outer_task(3, 3), lambda d: _set_field(d / "multi.txt", "ro_prime", 2, _bump(1e-8))),
    (wl.multi_inner_task(3, 3), lambda d: _set_field(d / "search.txt", "infeasible_found", 1, lambda v: "1")),
    (wl.multi_inner_task(3, 4), lambda d: _set_field(d / "search.txt", "choice", 3, lambda v: "0")),
    (wl.ceo_task(3, 3), lambda d: _set_field(d / "ceo.txt", "ib", 2, _bump(1e-8))),
    (wl.log_loss_task(3, 4), lambda d: _set_field(d / "logloss.txt", "fidelity", 1, _bump(1e-10))),
]


@pytest.mark.parametrize("task, corrupt", CASES, ids=[f"{t.name}-{i}" for i, (t, _) in enumerate(CASES)])
def test_check_accepts_output_and_rejects_corruption(tmp_path, task, corrupt):
    task.run(tmp_path)
    problems, _ = task.check(tmp_path)
    assert problems == []
    corrupt(tmp_path)
    problems, _ = task.check(tmp_path)
    assert problems


def test_every_task_kind_is_covered():
    def kind(task):
        return re.sub(r"-[pnk][0-9.].*$", "", task.name)

    assert {kind(t) for w in wl.WORKLOADS for t in wl.build(w, 1)} == {kind(t) for t, _ in CASES}


def test_tracer_spans_self_time_and_restore():
    probability = wl.probability
    original = probability.entropy_of_array
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        assert probability.entropy_of_array is not original
        joint = probability.dsbs(0.1)
        value = probability.mutual_information(joint, "x", "z")
    finally:
        restore()
    assert probability.entropy_of_array is original
    assert abs(value - GAP_01) <= 1e-15
    calls, inclusive, self_time = tracer.totals()
    assert calls["probability.mutual_information"] == 1
    assert calls["probability.entropy"] == 3
    assert calls["probability.JointPmf"] == 3  # the source and two one-axis marginals
    assert calls["probability.marginalize"] == 3
    (mi_span,) = [s for s in tracer.spans if s[0] == "probability.mutual_information"]
    assert math.isclose(inclusive["probability.mutual_information"], mi_span[2] - mi_span[1])
    total = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert math.isclose(self_time["probability"], total, rel_tol=1e-9)
