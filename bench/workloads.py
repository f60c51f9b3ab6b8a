"""The benchmark's workloads: their tasks, inputs and output checks.

A task is one operation. Its `run` writes every output into a directory
of its own, and its `check` reads those files back and compares them
with computations from `reference`, made apart from coinfo, or with
properties the method must have. A check returns a list of problems
(empty when the output is correct) and a dict of accuracy measures.

coinfo functions are looked up on their modules at call time
(`optimize.ib_curve`, never a name imported from it), so that the traced
run's wrappers on those module attributes see every call.
"""

import contextlib
import io
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from coinfo import cli, optimize, probability, regions

LN2 = ref.LN2

# workload make-up; README.md lists the same figures
DRAWS_CONJECTURE = 1500
DRAWS_INNER = 3000
DRAWS_RO = 500
GAP_SAMPLES = 200
GAP_WINDOW_POINTS = 2
CARD_COUNT = 4
CARD_STEPS = 400
IB_SAMPLES = 400
IB_GRID = 11
SURFACE_GRID = 151
BRUTEFORCE_CASES = ((1, 2), (2, 2), (3, 2), (2, 3))
MULTI_SIZES = (3, 4, 5)

# tolerances of checks whose reference is not exact
CONJECTURE_TOL = 1e-10
SUPPORT_TOL = 5e-3
IB_TOL = 1e-2


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable
    check: Callable


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main([str(a) for a in argv])
    if status != 0:
        raise RuntimeError(f"coinfo {argv[0]} exited with {status}: {err.getvalue().strip()}")


def _write(path, lines):
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _body(path):
    """Non-manifest lines of an output file, split into fields."""
    with open(path) as fh:
        return [line.split() for line in fh if line.strip() and not line.startswith("#")]


def _table(path):
    return np.array([[float(v) for v in row] for row in _body(path)], dtype=np.float64)


def _fields(path):
    return {row[0]: row[1:] for row in _body(path)}


def _over(values, limit, tol):
    """Largest excess of values over limit, or None when within tol."""
    excess = float(np.max(np.asarray(values) - np.asarray(limit)))
    return excess if excess > tol else None


# ---------------------------------------------------------------------------
# draws


def conjecture_task(p, seed, samples):
    def run(out):
        _cli("conjecture", "--p", p, "--seed", seed, "--samples", samples, "--out", out / "conj.dat")

    def check(out):
        rows = _body(out / "conj.dat")
        f = {r[0]: r[1:] for r in rows if not r[0].startswith("worst_ch_")}
        chan = {(r[0], r[1]): [float(v) for v in r[2:]] for r in rows if r[0].startswith("worst_ch_")}
        rows_u = np.array([chan["worst_ch_u", i] for i in "01"])
        rows_v = np.array([chan["worst_ch_v", i] for i in "01"])
        problems = []
        if int(f["samples"][0]) != samples:
            problems.append(f"samples {f['samples'][0]} != {samples}")
        margin = float(f["min_margin"][0])
        if margin < -1e-9:
            problems.append(f"min_margin {margin} < -1e-9")
        pxz = ref.dsbs_mass(p)
        i_ux = ref.mi_table(pxz.sum(axis=1)[:, None] * rows_u)
        i_vz = ref.mi_table(pxz.sum(axis=0)[:, None] * rows_v)
        i_uv = ref.mi_table(rows_u.T @ pxz @ rows_v)
        alpha, beta = float(f["alpha"][0]), float(f["beta"][0])
        expected = (
            ("hb(alpha)", ref.hb(alpha), LN2 - i_ux),
            ("hb(beta)", ref.hb(beta), LN2 - i_vz),
            ("margin", margin, LN2 - ref.hb(ref.star(ref.star(alpha, p), beta)) - i_uv),
        )
        for name, got, want in expected:
            if abs(got - want) > CONJECTURE_TOL:
                problems.append(f"{name} {got!r} != recomputed {want!r}")
        return problems, {}

    return Task(f"conjecture-p{p}", run, check)


def region_sample_task(p, variant, seed, samples):
    def run(out):
        _cli("region-sample", "--source", f"dsbs:{p}", "--variant", variant, "--seed", seed,
             "--samples", samples, "--out", out / "points.dat")

    def check(out):
        pts = _table(out / "points.dat").reshape(-1, 3)
        mu, r1, r2 = pts[:, 0], pts[:, 1], pts[:, 2]
        problems = []
        if (variant == "inner" and len(pts) != samples) or not 0 < len(pts) <= samples:
            problems.append(f"{len(pts)} rows for {samples} draws")
        cap = np.minimum(r1, r2)
        if variant == "inner":
            if mu.min() < 0.0:
                problems.append(f"negative mu {mu.min()!r}")
            for name, r in (("r1", r1), ("r2", r2)):
                bad = _over(mu, ref.dsbs_ib_curve(r, p), 1e-9)
                if bad is not None:
                    problems.append(f"mu exceeds the Mrs. Gerber bound at {name} by {bad!r}")
        else:
            for name, r in (("r1", r1), ("r2", r2)):
                if r.min() < -1e-12 or r.max() > LN2 + 1e-12:
                    problems.append(f"{name} outside [0, ln 2]: [{r.min()!r}, {r.max()!r}]")
        bad = _over(mu, cap, 1e-9)
        if bad is not None:
            problems.append(f"mu exceeds min(r1, r2) by {bad!r}")
        return problems, {}

    return Task(f"region-sample-{variant}", run, check)


# ---------------------------------------------------------------------------
# refine


def dsbs_gap_task(p, seed, samples, window_points):
    lo, hi = 0.673, 0.694  # the command's default window

    def run(out):
        _cli("dsbs-gap", "--p", p, "--seed", seed, "--samples", samples,
             "--window-points", window_points, "--out-dir", out)

    def check(out):
        inner, outer = _table(out / "inner.dat"), _table(out / "outer.dat")
        problems = []
        if inner.shape != outer.shape or not np.array_equal(inner[:, 0], outer[:, 0]):
            return ["inner and outer abscissae differ"], {}
        r = inner[:, 0]
        gaps = outer[:, 1] - inner[:, 1]
        if gaps.min() < -1e-9:
            problems.append(f"outer below inner by {-gaps.min()!r}")
        if gaps.max() < 1e-4:
            problems.append(f"max gap {gaps.max()!r} < 1e-4")
        # the inner curve is the concave envelope of the closed-form points, so it
        # lies on or above the pointwise curve, and above it wherever that is not concave
        below = float(np.max(ref.sym_inner_curve(r, p) - inner[:, 1]))
        if below > 1e-9:
            problems.append(f"inner below the closed form by {below!r}")
        grid = np.linspace(lo, hi, window_points)
        off = float(np.max(np.abs(inner[:, 1] - ref.sym_inner_envelope(r, p, grid))))
        if off > 1e-9:
            problems.append(f"inner differs from the envelope of the closed form by {off!r}")
        if not np.all(np.min(np.abs(grid[:, None] - r[None, :]), axis=1) <= 1e-12):
            problems.append("a grid abscissa is missing from the output")
        return problems, {"gap_nats": float(gaps.max())}

    return Task("dsbs-gap", run, check)


def cardinality_task(p, seed, count, steps):
    rng = np.random.default_rng([seed, 9])
    lam = (float(rng.uniform(0.8, 1.0)), -float(rng.uniform(0.05, 0.3)), -float(rng.uniform(0.05, 0.3)))
    weight = optimize.SupportWeight(*lam)
    cfg = optimize.SampleConfig(seed=seed, count=count, refine_top=count, refine_steps=steps)
    source = probability.dsbs(p)

    def run(out):
        (entry,) = optimize.cardinality_robustness(source, [weight], cfg)
        _write(out / "report.txt", [
            f"lam {' '.join(repr(v) for v in entry['lam'])}",
            f"value_base {entry['value_base']!r}",
            f"value_plus {entry['value_plus']!r}",
            f"difference {entry['difference']!r}",
        ])

    def check(out):
        f = _fields(out / "report.txt")
        base, plus, diff = (float(f[k][0]) for k in ("value_base", "value_plus", "difference"))
        problems = []
        if tuple(float(v) for v in f["lam"]) != lam:
            problems.append(f"direction {f['lam']} is not the input {lam}")
        if abs(diff) > 5e-3 or abs(diff - (plus - base)) > 1e-15:
            problems.append(f"difference {diff!r} (plus - base = {plus - base!r})")
        floor = ref.best_bsc_support(p, lam) - SUPPORT_TOL
        for name, value in (("value_base", base), ("value_plus", plus)):
            if value < floor:
                problems.append(f"{name} {value!r} below the best BSC pair less {SUPPORT_TOL}")
        return problems, {}

    return Task("cardinality-robustness", run, check)


def ib_curve_task(p, seed, samples, grid):
    def run(out):
        _cli("ib-curve", "--source", f"dsbs:{p}", "--seed", seed, "--samples", samples,
             "--grid", grid, "--out", out / "ib.dat")

    def check(out):
        rows = _body(out / "ib.dat")
        curve = _table(out / "ib.dat")
        problems = []
        i_xz = LN2 - ref.hb(p)
        if rows[0] != ["0", "0"]:
            problems.append(f"first point {rows[0]} is not (0, 0)")
        if rows[-1] != [f"{LN2:.15g}", f"{i_xz:.15g}"]:
            problems.append(f"last point {rows[-1]} is not (ln 2, I(x;z))")
        closed = ref.dsbs_ib_curve(curve[:, 0], p)
        bad = _over(curve[:, 1], closed, 1e-9)
        if bad is not None:
            problems.append(f"relevance exceeds the DSBS bottleneck curve by {bad!r}")
        deficit = float(np.max(closed - curve[:, 1]))
        if deficit > IB_TOL:
            problems.append(f"relevance below the DSBS bottleneck curve by {deficit!r}")
        return problems, {"ib_deficit_nats": deficit}

    return Task("ib-curve", run, check)


# ---------------------------------------------------------------------------
# exact


def bruteforce_task(p, n, m):
    def run(out):
        _cli("bruteforce", "--source", f"dsbs:{p}", "--n", n, "--m1", m, "--m2", m,
             "--out", out / "code.dat")

    def check(out):
        f = _fields(out / "code.dat")
        value = float(f["best_theta"][0])
        code_f = [int(v) for v in f["f"]]
        code_g = [int(v) for v in f["g"]]
        pxz = ref.dsbs_mass(p)
        problems = []
        if value > min(math.log(m) / n, LN2 - ref.hb(p)) + 1e-12:
            problems.append(f"best_theta {value!r} above min(log m / n, I(x;z))")
        if n == 1 and abs(value - (LN2 - ref.hb(p))) > 1e-15:
            problems.append(f"best_theta {value!r} != ln 2 - hb({p})")
        if len(code_f) != 2**n or len(code_g) != 2**n or max(code_f + code_g) >= m:
            return problems + ["returned code tables have the wrong shape"], {}
        recomputed = ref.theta(pxz, n, code_f, code_g, m, m)
        if abs(recomputed - value) > 1e-12:
            problems.append(f"theta of the returned code is {recomputed!r}, reported {value!r}")
        raw = ref.raw_best_theta(pxz, n, m, m)
        if abs(raw - value) > 1e-12:
            problems.append(f"raw exhaustive maximum {raw!r} != {value!r}")
        return problems, {}

    return Task(f"bruteforce-n{n}-m{m}", run, check)


def typicality_task():
    def run(out):
        _cli("typicality-check", "--out", out / "types.dat")

    def check(out):
        rows = [r for r in _body(out / "types.dat") if r[0] == "check"]
        problems = [f"check {r[1]} reads {r[2]}" for r in rows if r[2] != "pass"]
        if not rows:
            problems.append("no checks reported")
        return problems, {}

    return Task("typicality-check", run, check)


def surface_task(p, grid):
    def run(out):
        _cli("dsbs-surface", "--p", p, "--grid", grid, "--out", out / "surface.dat")

    def check(out):
        rows = _table(out / "surface.dat")
        if rows.shape != (grid * grid, 3):
            return [f"surface has shape {rows.shape}, expected {(grid * grid, 3)}"], {}
        a = np.linspace(0.0, 0.5, grid)
        r1, r2, mu = ref.sb_values(p, a[:, None], a[None, :])
        want = np.stack([np.broadcast_to(r1, mu.shape), np.broadcast_to(r2, mu.shape), mu], axis=-1)
        problems = []
        off = float(np.max(np.abs(rows - want.reshape(-1, 3))))
        if off > 1e-12:
            problems.append(f"surface differs from the closed form by {off!r}")
        cube = rows.reshape(grid, grid, 3)
        # along beta: points (r2, mu) for fixed alpha; along alpha: (r1, mu) for fixed beta
        for axis, col in ((1, 1), (0, 0)):
            pts = np.moveaxis(cube, axis, 1)
            order = np.argsort(pts[:, :, col], axis=1)
            r = np.take_along_axis(pts[:, :, col], order, axis=1)
            m = np.take_along_axis(pts[:, :, 2], order, axis=1)
            cross = (r[:, 1:-1] - r[:, :-2]) * (m[:, 2:] - m[:, :-2]) - (m[:, 1:-1] - m[:, :-2]) * (r[:, 2:] - r[:, :-2])
            if cross.max() > 1e-12:
                problems.append(f"surface not concave along axis {axis}: cross {cross.max()!r}")
        return problems, {}

    return Task("dsbs-surface", run, check)


def _pairs(k):
    # ordered pairs of disjoint nonempty subsets of {1..k}
    items = range(1, k + 1)
    subsets = [s for r in range(1, k + 1) for s in itertools.combinations(items, r)]
    return [(a, b) for a in subsets for b in subsets if not set(a) & set(b)]


def _pair_key(a, b):
    return ",".join(map(str, a)) + "|" + ",".join(map(str, b))


def _multi_inputs(seed, k):
    rng = np.random.default_rng([seed, k])
    mass = rng.dirichlet(np.ones(2**k)).reshape((2,) * k)
    rows = [rng.dirichlet(np.ones(2), size=2) for _ in range(k)]
    return mass, rows


def _joint(mass, rows):
    # (u_1..u_J, x_1..x_K) from the source and channels on its first J axes
    k, j = mass.ndim, len(rows)
    letters = "abcdefghij"
    spec = letters[:k] + "," + ",".join(letters[i] + letters[k + i] for i in range(j))
    return np.einsum(spec + "->" + letters[k : k + j] + letters[:k], mass, *rows)


def _coinfo_source(mass, rows):
    """The source over x_1..x_K and the channels x_k -> u_k, as coinfo objects."""
    labels = tuple(f"x{i + 1}" for i in range(mass.ndim))
    src = probability.JointPmf(tuple(probability.Alphabet(2, l) for l in labels), mass)
    chans = [
        probability.Channel(probability.Alphabet(2, l), probability.Alphabet(2, f"u{i + 1}"), r)
        for i, (l, r) in enumerate(zip(labels, rows))
    ]
    return src, chans, labels


def _mu_lines(prefix, mu):
    return [f"{prefix} {_pair_key(sorted(p.a), sorted(p.b))} {v!r}" for p, v in mu.items()]


def _read_mu(path, prefix):
    return {r[1]: float(r[2]) for r in _body(path) if r[0] == prefix}


def _compare(got, want, tol, what):
    if set(got) != set(want):
        return [f"{what}: pairs {sorted(set(got) ^ set(want))} missing or extra"]
    worst = max(abs(got[key] - want[key]) for key in want)
    return [f"{what}: off by {worst!r}"] if worst > tol else []


def multi_outer_task(seed, k):
    mass, rows = _multi_inputs(seed, k)
    src, chans, x_labels = _coinfo_source(mass, rows)
    u_labels = tuple(f"u{i + 1}" for i in range(k))

    def run(out):
        joint = regions.attach_channels(src, chans)
        ro = regions.multi_outer_point_ro(joint, u_labels, x_labels)
        ro_prime = regions.multi_outer_point_ro_prime(joint, u_labels, x_labels)
        _write(out / "multi.txt", _mu_lines("ro", ro.mu) + _mu_lines("ro_prime", ro_prime.mu) + [
            "rates " + " ".join(repr(r) for r in ro.rates),
            "rates_prime " + " ".join(repr(r) for r in ro_prime.rates),
        ])

    def check(out):
        w = _joint(mass, rows)
        u = lambda s: tuple(i - 1 for i in s)
        x = lambda s: tuple(k + i - 1 for i in s)
        want_ro, want_prime = {}, {}
        for a, b in _pairs(k):
            ab = tuple(sorted(a + b))
            want_ro[_pair_key(a, b)] = ref.mi(w, u(a), x(a)) + ref.mi(w, u(b), x(b)) - ref.mi(w, u(ab), x(ab))
            want_prime[_pair_key(a, b)] = ref.mi(w, u(a), x(b))
        path = out / "multi.txt"
        f = _fields(path)
        rates = [ref.mi(w, (i,), (k + i,)) for i in range(k)]
        problems = _compare(_read_mu(path, "ro"), want_ro, 1e-10, "ro mu")
        problems += _compare(_read_mu(path, "ro_prime"), want_prime, 1e-10, "ro_prime mu")
        for key in ("rates", "rates_prime"):
            got = [float(v) for v in f[key]]
            if len(got) != k or max(abs(g - r) for g, r in zip(got, rates)) > 1e-10:
                problems.append(f"{key} {got} != recomputed {rates}")
        if len(want_ro) != 3**k - 2 ** (k + 1) + 1:
            problems.append("pair enumeration is off")
        return problems, {}

    return Task(f"multi-outer-k{k}", run, check)


def multi_inner_task(seed, k):
    mass, rows = _multi_inputs(seed, k)
    src, chans, x_labels = _coinfo_source(mass, rows)
    w = _joint(mass, rows)
    pairs = _pairs(k)
    mu = {
        regions.SubsetPair(frozenset(a), frozenset(b)): ref.mi(w, tuple(i - 1 for i in a), tuple(i - 1 for i in b))
        for a, b in pairs
    }
    rates = (LN2,) * k
    feasible = regions.MultiRegionPoint(mu, rates)
    # the last pair asks for 1e-3 more than I(u_A; u_B): no binning choice can give it
    last = list(mu)[-1]
    infeasible = regions.MultiRegionPoint({**mu, last: mu[last] + 1e-3}, rates)

    def run(out):
        found = regions.multi_inner_search(src, chans, feasible)
        refused = regions.multi_inner_search(src, chans, infeasible)
        lines = []
        if found is not None:
            for pair, bc in found.items():
                sets = (bc.a_active, bc.a_bin, bc.b_active, bc.b_bin)
                lines.append(f"choice {_pair_key(sorted(pair.a), sorted(pair.b))} "
                             + " ".join(",".join(map(str, sorted(s))) for s in sets))
        lines.append(f"feasible_found {int(found is not None)}")
        lines.append(f"infeasible_found {int(refused is not None)}")
        _write(out / "search.txt", lines)

    def check(out):
        rows_ = _body(out / "search.txt")
        f = {r[0]: r[1:] for r in rows_ if r[0] != "choice"}
        problems = []
        if f["feasible_found"] != ["1"]:
            problems.append("no binning choice found at rates ln 2 with mu = I(u_A; u_B)")
        if f["infeasible_found"] != ["0"]:
            problems.append("a binning choice was found for mu = I(u_A; u_B) + 1e-3")
        # with every rate at ln 2 the first candidate in the documented order,
        # full activation and full binning on both sides, already qualifies
        want = {_pair_key(a, b): [",".join(map(str, a))] * 2 + [",".join(map(str, b))] * 2 for a, b in pairs}
        got = {r[1]: r[2:] for r in rows_ if r[0] == "choice"}
        if f["feasible_found"] == ["1"] and got != want:
            problems.append("binning choices differ from full activation and full binning")
        return problems, {}

    return Task(f"multi-inner-k{k}", run, check)


def ceo_task(seed, k):
    mass, rows = _multi_inputs(seed, k)
    src, chans, x_labels = _coinfo_source(mass, rows)
    pair_mass = mass.sum(axis=tuple(range(1, k - 1)))
    pair_src = probability.JointPmf((probability.Alphabet(2, "x1"), probability.Alphabet(2, f"x{k}")), pair_mass)

    def run(out):
        point = regions.ceo_point(src, chans[: k - 1], x_labels[: k - 1], x_labels[k - 1 :])
        rate, relevance = regions.ib_point(pair_src, chans[0])
        _write(out / "ceo.txt", _mu_lines("mu", point.mu) + [
            "rates " + " ".join(repr(r) for r in point.rates),
            f"ib {rate!r} {relevance!r}",
        ])

    def check(out):
        enc = k - 1
        w = _joint(mass, rows[:enc])  # no channel on the target x_K
        want = {}
        for r in range(1, enc + 1):
            for a in itertools.combinations(range(1, enc + 1), r):
                want[_pair_key(a, (1,))] = ref.mi(w, tuple(i - 1 for i in a), (enc + k - 1,))
        path = out / "ceo.txt"
        f = _fields(path)
        problems = _compare(_read_mu(path, "mu"), want, 1e-10, "ceo mu")
        rates = [ref.mi(w, (i,), (enc + i,)) for i in range(enc)]
        got = [float(v) for v in f["rates"]]
        if len(got) != enc or max(abs(g - r) for g, r in zip(got, rates)) > 1e-10:
            problems.append(f"ceo rates {got} != recomputed {rates}")
        w_ib = pair_mass[:, None, :] * rows[0][:, :, None]  # (x1, u1, xK)
        ib_want = (ref.mi(w_ib, (1,), (0,)), ref.mi(w_ib, (1,), (2,)))
        ib_got = tuple(float(v) for v in f["ib"])
        if max(abs(g - r) for g, r in zip(ib_got, ib_want)) > 1e-10:
            problems.append(f"ib_point {ib_got} != recomputed {ib_want}")
        return problems, {}

    return Task(f"ceo-k{k}", run, check)


def log_loss_task(seed, k):
    mass, rows = _multi_inputs(seed, k)
    src, chans, x_labels = _coinfo_source(mass, rows)
    u_labels = tuple(f"u{i + 1}" for i in range(k - 1))

    def run(out):
        joint = regions.attach_channels(src, chans)
        decoder = regions.optimal_posterior_decoder(joint, u_labels, (x_labels[-1],))
        fidelity = regions.log_loss_fidelity(joint, decoder, 1, u_labels, (x_labels[-1],))
        _write(out / "logloss.txt", [f"fidelity {fidelity!r}"])

    def check(out):
        got = float(_fields(out / "logloss.txt")["fidelity"][0])
        want = ref.mi(_joint(mass, rows), tuple(range(k - 1)), (2 * k - 1,))
        return ([f"fidelity {got!r} != I(u;y) = {want!r}"] if abs(got - want) > 1e-12 else []), {}

    return Task(f"log-loss-k{k}", run, check)


# ---------------------------------------------------------------------------


def build(workload, seed):
    """The tasks of one workload round, with inputs made from the seed."""
    if workload == "draws":
        return [
            conjecture_task(0.1, seed, DRAWS_CONJECTURE),
            conjecture_task(0.25, seed, DRAWS_CONJECTURE),
            region_sample_task(0.1, "inner", seed, DRAWS_INNER),
            region_sample_task(0.1, "ro", seed, DRAWS_RO),
        ]
    if workload == "refine":
        return [
            dsbs_gap_task(0.1, seed, GAP_SAMPLES, GAP_WINDOW_POINTS),
            cardinality_task(0.1, seed, CARD_COUNT, CARD_STEPS),
            ib_curve_task(0.25, seed, IB_SAMPLES, IB_GRID),
        ]
    if workload == "exact":
        tasks = [bruteforce_task(0.25, n, m) for n, m in BRUTEFORCE_CASES]
        tasks += [typicality_task(), surface_task(0.25, SURFACE_GRID)]
        for k in MULTI_SIZES:
            tasks += [multi_outer_task(seed, k), multi_inner_task(seed, k), ceo_task(seed, k), log_loss_task(seed, k)]
        return tasks
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("draws", "refine", "exact")
