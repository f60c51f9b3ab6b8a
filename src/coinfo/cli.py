"""Command-line experiment drivers emitting plot-ready tables.

Every output file starts with '#'-prefixed manifest lines naming the
command, the tool version and the full parameter set, so a run can be
reproduced bit-exactly from its own header. Wall-clock duration goes to
stdout only; putting it in the header would break the byte-identical
rerun guarantee the manifest exists to provide.

Sources are given as `dsbs:<p>` or as a path to a labeled joint-pmf
text file: a header row of axis labels, then one row per cell holding
the indices followed by the probability. Values are written in nats
unless --units bits is given; the conversion happens at serialization
only.

Exit codes: 0 success, 1 failed internal check, 2 validation error,
3 budget error, 4 I/O error.
"""

import argparse
import bisect
import functools
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import DomainError, InternalCheckError, SizeError, ValidationError
from .optimize import (
    SampleConfig,
    conjecture_test,
    dsbs_alpha_grid,
    dsbs_inner_boundary,
    dsbs_outer_boundary_sampled,
    ib_curve,
    sample_region_points,
    _DRAW_BLOCK,
)
from .probability import (
    LOG2,
    Alphabet,
    JointPmf,
    dsbs,
    entropy_of_array,
    mutual_information,
    _check_cells,
)
from .regions import sb_surface
from .typicality import (
    best_theta,
    enumerate_types,
    sequence_probability_identity_check,
    theta,
    typical_set,
    typical_set_size,
)


# every real is written as this %-format writes it; its longest text for a
# double, such as "-1.23456789012345e-308", has _FLOAT_WIDTH characters
_FLOAT_FORMAT = "%.15g"
_FLOAT_WIDTH = 22


def _fmt(value):
    if isinstance(value, float):
        return _FLOAT_FORMAT % value
    return str(value)


@dataclass(frozen=True)
class RunManifest:
    """Header block identifying a run: command, version, parameters."""

    command: str
    params: tuple

    def header_lines(self):
        lines = [f"# coinfo {__version__}", f"# command {self.command}"]
        for key, value in self.params:
            if isinstance(value, (tuple, list)):
                body = " ".join(_fmt(v) for v in value)
            else:
                body = _fmt(value)
            lines.append(f"# {key} {body}")
        return lines


def _write_lines(path, manifest, lines):
    _write_blocks(path, manifest, ["\n".join(lines) + "\n"] if lines else [])


def _write_blocks(path, manifest, blocks):
    # the manifest, then each block of whole newline-terminated lines as
    # it is made, so a long table need not be held as text all at once
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(manifest.header_lines()) + "\n")
        for block in blocks:
            fh.write(block)


# the table writers read their values in blocks of whole rows of at most
# this many cells (and at least one row)
_WRITE_CELLS = 2**16


def _table_blocks(rows, scale):
    """The text of a rectangular table of reals, one line per row, as
    blocks of whole lines of at most _WRITE_CELLS values: each value v is
    written as _fmt(v / scale) writes it, and each block takes one
    %-format call. An empty table has no block."""
    table = np.asarray(rows, dtype=np.float64)
    if not len(table):
        return
    line = " ".join([_FLOAT_FORMAT] * table.shape[1]) + "\n"
    size = max(1, _WRITE_CELLS // table.shape[1])
    for lo in range(0, len(table), size):
        block = table[lo : lo + size] / scale
        yield line * len(block) % tuple(block.ravel().tolist())


def _unit_scale(units):
    return LOG2 if units == "bits" else 1.0


def _parse_source(spec):
    if spec.startswith("dsbs:"):
        text = spec[len("dsbs:") :]
        try:
            p = float(text)
        except ValueError:
            raise DomainError(f"dsbs crossover {text!r} is not a number") from None
        return dsbs(p)
    with open(spec, encoding="utf-8") as fh:
        try:
            raw = [line.split("#", 1)[0].strip() for line in fh]
        except UnicodeDecodeError as exc:
            raise DomainError(f"source file {spec!r} is not UTF-8 text: {exc.reason}") from None
    rows = [line.split() for line in raw if line]
    if len(rows) < 2:
        raise DomainError(f"source file {spec!r} needs a label row and data rows")
    labels = rows[0]
    k = len(labels)
    if len(set(labels)) != k:
        raise DomainError(f"duplicate axis labels in {spec!r}")
    cells = {}
    for row in rows[1:]:
        if len(row) != k + 1:
            raise DomainError(
                f"source row {' '.join(row)!r} needs {k} indices and one value"
            )
        try:
            idx, value = tuple(int(i) for i in row[:k]), float(row[k])
        except ValueError:
            raise DomainError(
                f"source row {' '.join(row)!r} is not integer indices and a number"
            ) from None
        if min(idx) < 0:
            raise DomainError(f"source row {' '.join(row)!r} has a negative index")
        if idx in cells:
            raise DomainError(f"source cell {idx} is listed twice in {spec!r}")
        cells[idx] = value
    sizes = [max(idx[a] for idx in cells) + 1 for a in range(k)]
    _check_cells(math.prod(sizes), f"source file {spec!r} implies")
    mass = np.zeros(sizes)
    for idx, value in cells.items():
        mass[idx] = value
    axes = tuple(Alphabet(sizes[a], labels[a]) for a in range(k))
    return JointPmf(axes, mass)


def _parse_pair(text, name, cast):
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"{name} must be two comma-separated values, got {text!r}")
    try:
        return cast(parts[0]), cast(parts[1])
    except ValueError:
        raise DomainError(f"{name} must be two {cast.__name__} values, got {text!r}") from None


def _check_points(name, value):
    # a grid size: at least one point
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")


def _sample_config(args, default_caps=None):
    """The SampleConfig of a sampling command and its manifest parameters.

    The sampling commands (conjecture and region-sample) never refine, so
    neither takes a refinement budget and the manifest lists only what
    they read. draw_block names the RNG layout of the draws: draw i is
    entry i % draw_block of the block drawn from substream
    (seed, i // draw_block).
    """
    caps = default_caps
    if args.caps:
        caps = _parse_pair(args.caps, "--caps", int)
    cfg = SampleConfig(
        seed=args.seed,
        count=args.samples,
        cap_u=None if caps is None else caps[0],
        cap_v=None if caps is None else caps[1],
    )
    params = (
        ("seed", cfg.seed),
        ("samples", cfg.count),
        ("caps", (cfg.cap_u if cfg.cap_u is not None else "auto",
                  cfg.cap_v if cfg.cap_v is not None else "auto")),
        ("draw_block", _DRAW_BLOCK),
    )
    return cfg, params


def cmd_dsbs_surface(args):
    _check_points("--grid", args.grid)
    _check_cells(args.grid * args.grid, f"the dsbs-surface grid of {args.grid} x {args.grid} points has")
    rates, mu = sb_surface(args.p, np.linspace(0.0, 0.5, args.grid))
    manifest = RunManifest(
        "dsbs-surface",
        (("p", args.p), ("grid_points", args.grid), ("grid_lo", 0.0),
         ("grid_hi", 0.5), ("units", args.units)),
    )
    _write_blocks(args.out, manifest, _surface_blocks(rates, mu, _unit_scale(args.units)))
    print(f"wrote {args.out} rows {mu.size}")
    return 0


# _surface_blocks formats at most this many distinct values per %-format call
_FORMAT_CHUNK = 2**8


def _surface_blocks(rates, mu, scale):
    """The rows of the surface, one block of text per row of mu.

    Row (a, b) is "r1(a) r2(b) mu(a, b)", each value v written as
    _fmt(v / scale) writes it. Each distinct rate is formatted once, and so
    is each distinct mu value of a block: mu is read in blocks of whole
    rows of at most _WRITE_CELLS cells (the default grid and the
    benchmark's are one block each), whose scaled values are keyed by
    their int64 bit patterns, sorted, and formatted once per distinct key
    into a fixed-width bytes table. The surface is symmetric in
    (alpha, beta), so about a third of its cells are distinct. The text of
    a double depends on its bits alone, so the bytes are those of
    formatting every cell; -0.0 and 0.0 stay apart. Each row then takes
    one searchsorted into the distinct keys and one %-format call.

    Beyond rates and mu, the writer holds one block's working arrays and
    the text of one row. The arrays take at most about 32 bytes a cell:
    the keys, sorted in place, then the distinct keys and their texts
    (8 + 22 a distinct value). Its peak is about 2.1 MiB at 2**16 cells a
    block, whatever the grid, and about 0.3 MiB for the whole 151 x 151
    surface.
    """
    text = [_fmt(r).encode() for r in (rates / scale).tolist()]
    cols = [b""] + [b" " + t + b" %s\n" for t in text]
    rows = max(1, _WRITE_CELLS // max(mu.shape[1], 1))
    for i in range(0, len(mu), rows):
        yield from _surface_rows(text[i : i + rows], cols, mu[i : i + rows], scale)


def _surface_rows(text, cols, block, scale):
    # one block of _surface_blocks: the line of row k is text[k].join(cols)
    # with the texts of the row's scaled values, each distinct double
    # formatted once. Its arrays are freed when it returns, before the next
    # block builds its own
    distinct = (block / scale).view(np.int64).ravel()
    distinct.sort()
    distinct = distinct[np.append(True, distinct[1:] != distinct[:-1])]
    floats = distinct.view(np.float64)
    table = np.empty(floats.size, dtype=f"S{_FLOAT_WIDTH}")
    for j in range(0, floats.size, _FORMAT_CHUNK):
        chunk = tuple(floats[j : j + _FORMAT_CHUNK].tolist())
        texts = "\n".join([_FLOAT_FORMAT] * len(chunk)) % chunk
        table[j : j + len(chunk)] = texts.encode().split(b"\n")
    for t, row in zip(text, block):
        keys = (row / scale).view(np.int64)
        yield (t.join(cols) % tuple(table[np.searchsorted(distinct, keys)].tolist())).decode()


# abscissae closer than this are one evaluation point
_ABSCISSA_TOL = 1e-12


def _merge_abscissae(grid, knots):
    """Sorted union of grid and knots, one point per 1e-12 cluster.

    Every grid value is kept; a knot within 1e-12 of a point already kept
    is dropped, so an envelope knot that lands a few ulps off a grid point
    does not write a second, nearly equal row.
    """
    kept = sorted(grid)
    for r in sorted(knots):
        i = bisect.bisect_left(kept, r)
        if all(abs(kept[j] - r) > _ABSCISSA_TOL for j in (i - 1, i) if 0 <= j < len(kept)):
            kept.insert(i, r)
    return kept


def cmd_dsbs_gap(args):
    lo, hi = _parse_pair(args.window, "--window", float)
    if not lo < hi:
        raise DomainError(f"window must be increasing, got {args.window!r}")
    _check_points("--window-points", args.window_points)
    _check_cells(2 * args.window_points, f"the dsbs-gap table of {args.window_points} window points has")
    r_grid = np.linspace(lo, hi, args.window_points)
    inner = dsbs_inner_boundary(args.p, dsbs_alpha_grid(r_grid))
    outer = dsbs_outer_boundary_sampled(args.p, r_grid)
    knots_in = [r for r, _ in inner.knots if lo <= r <= hi]
    knots_out = [r for r, _ in outer.knots if lo <= r <= hi]
    evaluation = _merge_abscissae([float(r) for r in r_grid], knots_in + knots_out)
    scale = _unit_scale(args.units)
    params = (("p", args.p), ("window", (lo, hi)), ("window_points", args.window_points),
              ("units", args.units))
    os.makedirs(args.out_dir, exist_ok=True)
    inner_mu, outer_mu = inner.value_at(evaluation), outer.value_at(evaluation)
    # the first largest gap, as a scan with a strict > from -inf finds it
    best = int(np.argmax(outer_mu - inner_mu))
    for name, mu in (("inner", inner_mu), ("outer", outer_mu)):
        manifest = RunManifest("dsbs-gap", params + (("curve", name),))
        _write_blocks(
            os.path.join(args.out_dir, f"{name}.dat"),
            manifest,
            _table_blocks(np.stack([evaluation, mu], axis=1), scale),
        )
    print(f"max_gap {_fmt(float(outer_mu[best] - inner_mu[best]) / scale)} at_r {_fmt(evaluation[best] / scale)}")
    print(f"wrote {args.out_dir}/inner.dat {args.out_dir}/outer.dat")
    return 0


def cmd_ib_curve(args):
    src = _parse_source(args.source)
    nx = src.mass.shape[0]
    _check_points("--grid", args.grid)
    _check_cells(2 * args.grid, f"the ib-curve table of {args.grid} rows has")
    r_grid = np.linspace(0.0, math.log(nx), args.grid)
    # the curve is let go before its rows are written
    rows = np.stack([r_grid, ib_curve(src, r_grid).value_at(r_grid)], axis=1)
    # ib_curve solves each row for a binary x, else it runs a family
    params = (
        ("source", args.source), ("grid_points", args.grid),
        ("grid_lo", 0.0), ("grid_hi", math.log(nx)), ("units", args.units),
        ("solver", "two-posterior" if nx == 2 else "bottleneck-family"),
    )
    _write_blocks(
        args.out, RunManifest("ib-curve", params),
        _table_blocks(rows, _unit_scale(args.units)),
    )
    print(f"wrote {args.out} rows {len(rows)}")
    return 0


def cmd_conjecture(args):
    cfg, cfg_params = _sample_config(args, default_caps=(2, 2))
    rep = conjecture_test(args.p, cfg)
    scale = _unit_scale(args.units)
    lines = [
        f"samples {rep['samples']}",
        f"min_margin {_fmt(rep['min_margin'] / scale)}",
        f"worst_index {rep['worst_index']}",
        f"alpha {_fmt(rep['alpha'])}",
        f"beta {_fmt(rep['beta'])}",
    ]
    for name in ("worst_ch_u", "worst_ch_v"):
        for i, row in enumerate(rep[name]):
            body = " ".join(_fmt(float(v)) for v in row)
            lines.append(f"{name} {i} {body}")
    params = (("p", args.p),) + cfg_params + (("units", args.units),)
    _write_lines(args.out, RunManifest("conjecture", params), lines)
    print(f"min_margin {_fmt(rep['min_margin'] / scale)}")
    print(f"wrote {args.out}")
    return 0


def cmd_bruteforce(args):
    src = _parse_source(args.source)
    value, code = best_theta(src, args.n, args.m1, args.m2)
    i_xz = mutual_information(src, src.labels[0], src.labels[1])
    cap_u = math.log(args.m1) / args.n
    cap_v = math.log(args.m2) / args.n
    ok = value <= min(cap_u, cap_v, i_xz) + 1e-12
    scale = _unit_scale(args.units)
    lines = [
        f"best_theta {_fmt(value / scale)}",
        f"stein_exponent {_fmt(value / scale)}",
        f"rate_cap_u {_fmt(cap_u / scale)}",
        f"rate_cap_v {_fmt(cap_v / scale)}",
        f"source_mi {_fmt(i_xz / scale)}",
        f"sandwich_ok {int(ok)}",
        "f " + " ".join(str(v) for v in code.f),
        "g " + " ".join(str(v) for v in code.g),
    ]
    params = (
        ("source", args.source), ("n", args.n), ("m1", args.m1),
        ("m2", args.m2), ("units", args.units),
    )
    _write_lines(args.out, RunManifest("bruteforce", params), lines)
    print(f"best_theta {_fmt(value / scale)}")
    print(f"wrote {args.out}")
    return 0 if ok else 1


def cmd_region_sample(args):
    src = _parse_source(args.source)
    cfg, cfg_params = _sample_config(args)
    rows = sample_region_points(src, cfg, args.variant)
    params = (
        ("source", args.source), ("variant", args.variant),
    ) + cfg_params + (("units", args.units),)
    _write_blocks(
        args.out, RunManifest("region-sample", params),
        _table_blocks(rows, _unit_scale(args.units)),
    )
    print(f"wrote {args.out} rows {len(rows)}")
    return 0


def _typicality_checks(p):
    # (name, residual, tolerance) per check; residual 0 means exact
    out = []
    worst = 0.0
    for a in range(1, 5):
        for n in range(1, 9):
            types = enumerate_types(a, n)
            count_gap = abs(len(types) - math.comb(n + a - 1, a - 1))
            mass_gap = abs(sum(t.sequence_count() for t in types) - a**n)
            worst = max(worst, count_gap, mass_gap)
    out.append(("type_counting", float(worst), 0.0))

    worst = -math.inf
    h = entropy_of_array([0.7, 0.3])
    for n in (8, 12, 16):
        size = typical_set_size([0.7, 0.3], n, 0.2)
        worst = max(worst, size / math.exp(n * 1.2 * h) - 1.0)
    out.append(("typical_size_upper", worst, 0.0))

    worst = 0.0
    for seq in typical_set([1.0 - p, p], 8, 0.5):
        worst = max(worst, sequence_probability_identity_check([1.0 - p, p], seq))
    out.append(("probability_identity", worst, 1e-10))

    src = dsbs(p)
    value, code = best_theta(src, 1, 2, 2)
    out.append(
        ("single_letter_oracle", abs(value - mutual_information(src, "x", "z")), 0.0)
    )

    base = theta(src, code)
    swapped = type(code)(1, tuple(1 - v for v in code.f), code.g, 2, 2)
    out.append(("relabel_invariance", abs(theta(src, swapped) - base), 0.0))
    return out


def cmd_typicality_check(args):
    checks = _typicality_checks(args.p)
    lines, failed = [], []
    for name, residual, tol in checks:
        ok = residual <= tol
        lines.append(f"check {name} {'pass' if ok else 'fail'} {_fmt(residual)}")
        if not ok:
            failed.append((name, residual))
    manifest = RunManifest("typicality-check", (("p", args.p),))
    _write_lines(args.out, manifest, lines)
    for name, residual in failed:
        print(f"FAIL {name} residual {_fmt(residual)}")
    print(f"wrote {args.out}")
    return 1 if failed else 0


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser as it was
    parser = argparse.ArgumentParser(
        prog="coinfo",
        description="Deterministic experiment drivers for the biclustering bounds.",
    )
    parser.add_argument("--version", action="version", version=f"coinfo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        cmd.add_argument("--units", choices=("nats", "bits"), default="nats")
        return cmd

    def add_sampling(cmd, samples_default):
        cmd.add_argument("--seed", type=int, required=True)
        cmd.add_argument("--samples", type=int, default=samples_default)
        cmd.add_argument("--caps", help="auxiliary sizes as U,V")

    def add_ignored_sampling(cmd):
        # accepted so that existing invocations keep running; the command draws nothing
        cmd.add_argument("--seed", type=int, help="ignored: nothing is drawn")
        cmd.add_argument("--samples", type=int, help="ignored: nothing is drawn")

    cmd = add("dsbs-surface", cmd_dsbs_surface, "closed-form inner surface mesh")
    cmd.add_argument("--p", type=float, required=True)
    cmd.add_argument("--grid", type=int, default=33)
    cmd.add_argument("--out", required=True)

    cmd = add("dsbs-gap", cmd_dsbs_gap, "inner vs outer boundary on a window")
    cmd.add_argument("--p", type=float, required=True)
    cmd.add_argument("--window", default="0.673,0.694")
    cmd.add_argument("--window-points", type=int, default=43)
    add_ignored_sampling(cmd)
    cmd.add_argument("--out-dir", required=True)

    cmd = add("ib-curve", cmd_ib_curve, "rate-relevance curve for one encoder")
    cmd.add_argument("--source", required=True)
    cmd.add_argument("--grid", type=int, default=41)
    add_ignored_sampling(cmd)
    cmd.add_argument("--out", required=True)

    cmd = add("conjecture", cmd_conjecture, "margin search for the binary inequality")
    cmd.add_argument("--p", type=float, required=True)
    add_sampling(cmd, 100000)
    cmd.add_argument("--out", required=True)

    cmd = add("bruteforce", cmd_bruteforce, "exhaustive small-blocklength code oracle")
    cmd.add_argument("--source", required=True)
    cmd.add_argument("--n", type=int, default=1)
    cmd.add_argument("--m1", type=int, default=2)
    cmd.add_argument("--m2", type=int, default=2)
    cmd.add_argument("--out", required=True)

    cmd = add("region-sample", cmd_region_sample, "dump sampled region points")
    cmd.add_argument("--source", required=True)
    cmd.add_argument(
        "--variant", choices=("inner", "ro", "ro_prime"), default="inner"
    )
    add_sampling(cmd, 1000)
    cmd.add_argument("--out", required=True)

    cmd = add("typicality-check", cmd_typicality_check, "run the type-method checks")
    cmd.add_argument("--p", type=float, default=0.25)
    cmd.add_argument("--out", required=True)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        status = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InternalCheckError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1
    print(f"wall_clock_s {time.perf_counter() - start:.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
