"""Tests for the command-line drivers.

In-process main() calls cover behavior; subprocess runs cover the
entry points and byte-identical reruns under different thread counts.
"""

import argparse
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinfo import probability, typicality
from coinfo.cli import RunManifest, _fmt, _parse_source, _table_lines, _unit_scale, main
from coinfo.errors import DomainError, SizeError
from coinfo.probability import LOG2, Alphabet, JointPmf, binary_entropy
from coinfo.regions import sb_point

I_DSBS_025 = LOG2 - binary_entropy(0.25)
I_DSBS_01 = LOG2 - binary_entropy(0.1)

GAP_ARGS = [
    "--p", "0.1", "--window", "0.673,0.694", "--window-points", "5",
    "--seed", "3", "--samples", "40",
]


def read_table(path):
    header, rows = [], []
    with open(path) as fh:
        text = fh.read()
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line:
            rows.append([float(v) for v in line.split()])
    return header, rows


def body_sha256(path):
    # the data rows of an output, without its "#" manifest
    with open(path) as fh:
        body = "".join(line for line in fh if not line.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


def read_report(path):
    fields = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            key, _, rest = line.partition(" ")
            fields.setdefault(key, []).append(rest.split())
    return fields


class TestDsbsSurface:
    def test_mesh_and_corners(self, tmp_path):
        out = tmp_path / "surf.dat"
        assert main(["dsbs-surface", "--p", "0.25", "--grid", "5",
                     "--out", str(out)]) == 0
        header, rows = read_table(out)
        assert header[0].startswith("# coinfo ")
        assert "# command dsbs-surface" in header
        assert len(rows) == 25 and all(len(r) == 3 for r in rows)
        np.testing.assert_allclose(
            rows[0], [LOG2, LOG2, I_DSBS_025], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(rows[-1], [0.0, 0.0, 0.0], rtol=0, atol=1e-12)

    def test_alpha_half_rows_kill_rate_and_mu(self, tmp_path):
        out = tmp_path / "surf.dat"
        main(["dsbs-surface", "--p", "0.25", "--grid", "3", "--out", str(out)])
        _, rows = read_table(out)
        # rows are row-major in (alpha, beta); the last block has alpha = 1/2
        for row in rows[6:]:
            assert abs(row[0]) <= 1e-12 and abs(row[2]) <= 1e-12

    def test_bits_units(self, tmp_path):
        out = tmp_path / "surf.dat"
        main(["dsbs-surface", "--p", "0.25", "--grid", "3", "--units", "bits",
              "--out", str(out)])
        _, rows = read_table(out)
        np.testing.assert_allclose(
            rows[0], [1.0, 1.0, I_DSBS_025 / LOG2], rtol=0, atol=1e-12
        )

    def test_validation_exit_code(self, tmp_path, capsys):
        assert main(["dsbs-surface", "--p", "0.7",
                     "--out", str(tmp_path / "x.dat")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_grid_cap_exits_3_before_writing(self, tmp_path, capsys, monkeypatch):
        # the JointPmf cell cap, lowered so that no test builds 10^7 cells
        monkeypatch.setattr(probability, "_MAX_CELLS", 100)
        fits, over = tmp_path / "fits.dat", tmp_path / "over.dat"
        assert main(["dsbs-surface", "--p", "0.25", "--grid", "10", "--out", str(fits)]) == 0
        assert len(read_table(fits)[1]) == 100
        capsys.readouterr()
        assert main(["dsbs-surface", "--p", "0.25", "--grid", "11", "--out", str(over)]) == 3
        assert "121 cells, cap is 100" in capsys.readouterr().err
        assert not over.exists()


def per_row_surface_file(p, grid, units):
    """The surface file as the writer before the streamed one made it: every
    row its own f-string, from sb_point values, joined after the manifest."""
    alphas = np.linspace(0.0, 0.5, grid).tolist()
    scale = LOG2 if units == "bits" else 1.0
    pts = [[sb_point(p, a, b) for b in alphas] for a in alphas]
    text = [f"{pts[i][0].r1 / scale:.15g}" for i in range(grid)]
    lines = [
        f"{text[i]} {text[j]} {pts[i][j].mu / scale:.15g}"
        for i in range(grid)
        for j in range(grid)
    ]
    manifest = RunManifest(
        "dsbs-surface",
        (("p", p), ("grid_points", grid), ("grid_lo", 0.0), ("grid_hi", 0.5), ("units", units)),
    )
    return "\n".join(manifest.header_lines() + lines) + "\n"


class TestDsbsSurfaceWriter:
    """The row-wise writer writes the bytes of the per-row f-string writer."""

    @pytest.mark.parametrize("grid", [1, 2, 33, 151])
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5])
    def test_bytes_equal_per_row_writer(self, tmp_path, capsys, p, grid):
        for units in ("nats", "bits"):
            out = tmp_path / f"surface-{units}.dat"
            assert main(["dsbs-surface", "--p", str(p), "--grid", str(grid), "--units", units,
                         "--out", str(out)]) == 0
            assert out.read_bytes() == per_row_surface_file(p, grid, units).encode()
            assert capsys.readouterr().out.startswith(f"wrote {out} rows {grid * grid}\n")

    def test_peak_memory_holds_cells_and_one_row(self, tmp_path, capsys):
        # 301^2 cells take 0.7 MiB as float64; as Python floats and row
        # strings, the per-row writer peaked at 22 MiB
        out = tmp_path / "surface.dat"
        argv = ["dsbs-surface", "--p", "0.25", "--grid", "301", "--out", str(out)]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 4 * 2**20


class TestDsbsGap:
    def test_window_tables(self, tmp_path, capsys):
        out = tmp_path / "gap"
        assert main(["dsbs-gap", *GAP_ARGS, "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "max_gap " in stdout
        h_in, inner = read_table(out / "inner.dat")
        h_out, outer = read_table(out / "outer.dat")
        assert "# curve inner" in h_in and "# curve outer" in h_out
        assert [r[0] for r in inner] == [r[0] for r in outer]
        assert all(0.673 <= r[0] <= 0.694 for r in inner)
        for (_, mu_i), (_, mu_o) in zip(inner, outer):
            assert mu_o >= mu_i - 1e-9
        assert abs(inner[-1][1] - I_DSBS_01) <= 1e-9

    def test_abscissae_distinct_and_grid_kept(self, tmp_path, capsys):
        # envelope knots a few ulps off a grid point are not written twice
        out = tmp_path / "gap"
        assert main(["dsbs-gap", *GAP_ARGS, "--out-dir", str(out)]) == 0
        capsys.readouterr()
        r = [row[0] for row in read_table(out / "inner.dat")[1]]
        assert all(b - a > 1e-9 for a, b in zip(r, r[1:]))
        for g in np.linspace(0.673, 0.694, 5):
            assert float(f"{g:.15g}") in r

    def test_rerun_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        main(["dsbs-gap", *GAP_ARGS, "--out-dir", str(first)])
        main(["dsbs-gap", *GAP_ARGS, "--out-dir", str(second)])
        for name in ("inner.dat", "outer.dat"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_seed_and_samples_change_no_byte(self, tmp_path, capsys):
        # the curves draw nothing, so neither option reaches the output files
        window = GAP_ARGS[:6]
        runs = {
            "a": ["--seed", "1", "--samples", "10"],
            "b": ["--seed", "2", "--samples", "3000"],
            "c": [],
        }
        for name, extra in runs.items():
            assert main(["dsbs-gap", *window, *extra, "--out-dir", str(tmp_path / name)]) == 0
        capsys.readouterr()
        for name in ("inner.dat", "outer.dat"):
            first = (tmp_path / "a" / name).read_bytes()
            assert (tmp_path / "b" / name).read_bytes() == first
            assert (tmp_path / "c" / name).read_bytes() == first

    def test_bad_window(self, tmp_path, capsys):
        assert main(["dsbs-gap", "--window", "0.7,0.6", "--p", "0.1", "--seed",
                     "1", "--out-dir", str(tmp_path / "g")]) == 2
        capsys.readouterr()


class TestMalformedNumbers:
    """Malformed or empty numeric options exit 2 with a message and write nothing."""

    @pytest.mark.parametrize("argv", [
        ["dsbs-gap", "--p", "0.1", "--seed", "1", "--window", "0.6,abc"],
        ["conjecture", "--p", "0.1", "--seed", "1", "--caps", "2,x"],
        ["dsbs-gap", "--p", "0.1", "--seed", "1", "--window-points", "0"],
        ["dsbs-surface", "--p", "0.25", "--grid", "0"],
        ["dsbs-surface", "--p", "0.25", "--grid", "-3"],
        ["ib-curve", "--source", "dsbs:0.25", "--seed", "1", "--grid", "0"],
    ], ids=["window", "caps", "window-points", "surface-grid", "surface-grid-negative", "ib-grid"])
    def test_exit_code_2(self, tmp_path, capsys, argv):
        out = "--out-dir" if argv[0] == "dsbs-gap" else "--out"
        assert main([*argv, out, str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and argv[-2] in err
        assert not (tmp_path / "o").exists()


class TestIbCurve:
    def test_endpoints_and_monotone(self, tmp_path):
        out = tmp_path / "ib.dat"
        assert main(["ib-curve", "--source", "dsbs:0.25", "--grid", "9",
                     "--out", str(out)]) == 0
        _, rows = read_table(out)
        assert len(rows) == 9
        assert rows[0] == [0.0, 0.0]
        assert abs(rows[-1][0] - LOG2) <= 1e-12
        assert abs(rows[-1][1] - I_DSBS_025) <= 1e-15
        values = [r[1] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


    def test_source_file_starts_at_the_origin(self, tmp_path):
        # this source renormalizes to a total of 0.9999999999999998, so a
        # scored constant channel reads (2.2e-16, 2.2e-16); its row is 0 0
        src = tmp_path / "source3.txt"
        src.write_text("x z\n0 0 0.2\n0 1 0.1\n1 0 0.05\n1 1 0.25\n2 0 0.3\n2 1 0.1\n")
        out = tmp_path / "ib.dat"
        assert main(["ib-curve", "--source", str(src), "--grid", "9", "--out", str(out)]) == 0
        _, rows = read_table(out)
        assert rows[0] == [0.0, 0.0]
        assert all(r > 1e-12 for r, _ in rows[1:])


class TestPinnedRefineOutputs:
    """The bytes of refined, sampled and closed-form outputs, pinned to
    versions that refined each candidate by itself, scored each draw by
    itself and evaluated each surface point by itself; batching any of
    them must not move them. The sampled digests (conjecture and
    region-sample) are of the block layout, one RNG substream per 256
    draws. The outer region-sample digests are of the closed-form chain
    map, which puts every draw on the short chains, so the row count is
    exactly --samples. The ib-curve digest is of the deterministic
    bottleneck solve, which ignores --seed and --samples. The dsbs-gap,
    conjecture and dsbs-surface digests are of version 0.5.0's h_b (numpy's
    log and log1p) and h_b^-1 (four Newton passes)."""

    def test_ib_curve(self, tmp_path, capsys):
        out = tmp_path / "ib.dat"
        assert main(["ib-curve", "--source", "dsbs:0.25", "--seed", "3",
                     "--samples", "400", "--grid", "11", "--out", str(out)]) == 0
        capsys.readouterr()
        assert body_sha256(out) == (
            "0f69e52ff608d9324c4f9c15dc14c629c7e3a6e41baded1d3346ec7477496bfb"
        )
        body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert body[0] == "0 0" and body[-1] == "0.693147180559945 0.130812035941137"

    def test_dsbs_gap(self, tmp_path, capsys):
        out = tmp_path / "gap"
        assert main(["dsbs-gap", "--p", "0.1", "--seed", "3", "--samples", "200",
                     "--window-points", "2", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert body_sha256(out / "inner.dat") == (
            "576872ba4b75ebac47101a0527c73b9c97803400d7b2cfdc5203d9021963f24d"
        )
        assert body_sha256(out / "outer.dat") == (
            "0c8fa4f7bece1126e43eba4be9ac61fd62395a4e9c84016477d133f6535232aa"
        )

    def test_default_dsbs_gap(self, tmp_path, capsys):
        # the default budget: every outer candidate sits exactly on the
        # short chains, so no knot comes from the 1e-9 chain tolerance and
        # both tables have 44 rows (the grid and the knots of both curves);
        # the outer curve holds the solved coupling of every cap
        out = tmp_path / "gap"
        assert main(["dsbs-gap", "--p", "0.1", "--seed", "20240", "--out-dir", str(out)]) == 0
        assert "max_gap 0.000198845490560928 at_r 0.676\n" in capsys.readouterr().out
        for name, digest in (
            ("inner", "883d95eba9d15a7846948f7af2ea07cbee07c0a641d3434905fd5c1666e6ac7c"),
            ("outer", "92fdcddb2c4923052e820fe4096aea5fa0cf3fb577e3d3091a846e1419f3002d"),
        ):
            assert len(read_table(out / f"{name}.dat")[1]) == 44
            assert body_sha256(out / f"{name}.dat") == digest

    def test_conjecture(self, tmp_path, capsys):
        out = tmp_path / "conj.dat"
        assert main(["conjecture", "--p", "0.1", "--seed", "3", "--samples", "600",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert body_sha256(out) == (
            "f6690fdf7ce2d24a2d470724a8b051fdc57fe020d7aa0767fbec522dbcf6cabe"
        )

    def test_conjecture_at_p_zero_exits_2(self, tmp_path, capsys):
        out = tmp_path / "conj.dat"
        assert main(["conjecture", "--p", "0", "--seed", "1", "--samples", "300",
                     "--out", str(out)]) == 2
        assert "x = z and the conjectured inequality is false" in capsys.readouterr().err
        assert not out.exists()

    # the digests are left out of the test ids, so a re-pin keeps the ids
    @pytest.mark.parametrize("variant, samples, digest", [
        pytest.param("inner", "600", "c038c9ec58d44ffe7ceba364e18568ee7313669baca847812dfab95d97800df6",
                     id="inner-600"),
        pytest.param("ro", "100", "21b982070698d1f61c26b0ee8c7dad0f3d4d6818b7e7a170cdb691e46f15bc35",
                     id="ro-100"),
    ])
    def test_region_sample(self, tmp_path, capsys, variant, samples, digest):
        out = tmp_path / "rs.dat"
        assert main(["region-sample", "--source", "dsbs:0.1", "--seed", "3", "--variant",
                     variant, "--samples", samples, "--out", str(out)]) == 0
        capsys.readouterr()
        assert body_sha256(out) == digest
        assert len(read_table(out)[1]) == int(samples)

    # outer draws come in draw blocks of 256 and are mapped onto the chains
    # in scoring blocks of 128 draws of a 2x2x2x2 joint (ro_prime: two
    # blocks in the first draw block, and 44 draws of the second) and of 56
    # at caps 3,3
    @pytest.mark.parametrize("variant, samples, caps, digest", [
        pytest.param("ro_prime", "300", (),
                     "094b38581ad0f1e8eaaed3c9905a18d8b7ab38779ee5e418bf085e93c466a46a",
                     id="ro_prime-300-caps0"),
        pytest.param("ro", "150", ("--caps", "3,3"),
                     "966243e087a0d1ab7b06c5d90b0aaec1c6b89eb6aba359122cc1b7ef76d27b45",
                     id="ro-150-caps1"),
    ])
    def test_outer_region_sample_blocks(self, tmp_path, capsys, variant, samples, caps, digest):
        out = tmp_path / "rs.dat"
        assert main(["region-sample", "--source", "dsbs:0.1", "--seed", "3", "--variant",
                     variant, "--samples", samples, *caps, "--out", str(out)]) == 0
        capsys.readouterr()
        assert body_sha256(out) == digest
        assert len(read_table(out)[1]) == int(samples)

    @pytest.mark.parametrize("units, digest", [
        pytest.param("nats", "d310faec0b6f742817ff2f335b8756749e29f54faddc2e73efe322ec6eaa808f",
                     id="nats"),
        pytest.param("bits", "e6679be60aec70ae2680ff18b83ec48a8e2f8c5736eef631b368de5dfe4a0969",
                     id="bits"),
    ])
    def test_dsbs_surface(self, tmp_path, capsys, units, digest):
        out = tmp_path / "surface.dat"
        assert main(["dsbs-surface", "--p", "0.25", "--grid", "31", "--units", units,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert body_sha256(out) == digest


class TestTableWriter:
    """_table_lines writes a whole table with one %-format call, and every
    value as _fmt(v / scale) writes it."""

    VALUES = [0.0, -0.0, 5e-324, 1e-5, 0.1 + 0.2, 1e16, math.log(2)]

    @staticmethod
    def per_value(rows, scale):
        return [" ".join(_fmt(v / scale) for v in row) for row in rows]

    @pytest.mark.parametrize("units", ["nats", "bits"])
    def test_matches_per_value_format(self, units):
        scale = _unit_scale(units)
        column = [(v,) for v in self.VALUES]
        # three columns, each value in every column and with either sign
        n = len(self.VALUES)
        wide = [(self.VALUES[i], -self.VALUES[(i + 1) % n], self.VALUES[(i + 2) % n]) for i in range(n)]
        for rows in (column, wide):
            want = self.per_value(rows, scale)
            assert _table_lines(rows, scale) == want
            assert _table_lines(np.array(rows), scale) == want
        assert self.per_value(column, 1.0)[:2] == ["0", "-0"]

    @pytest.mark.parametrize("units", ["nats", "bits"])
    def test_empty_and_one_row_tables(self, units):
        scale = _unit_scale(units)
        assert _table_lines([], scale) == []
        assert _table_lines(np.empty((0, 3)), scale) == []
        row = [(math.log(2), 0.1 + 0.2, -0.0)]
        assert _table_lines(row, scale) == self.per_value(row, scale)
        assert len(_table_lines(row, scale)) == 1


class TestParserReuse:
    def test_main_reuses_one_parser(self, tmp_path, capsys, monkeypatch):
        # one process: region-sample, conjecture, a malformed argv, then the
        # same region-sample again, which writes the same bytes; after the
        # first call no parser is built
        rs = ["region-sample", "--source", "dsbs:0.1", "--variant", "ro", "--seed", "3",
              "--samples", "40"]
        first, second = tmp_path / "first.dat", tmp_path / "second.dat"
        assert main([*rs, "--out", str(first)]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert main(["conjecture", "--p", "0.1", "--seed", "1", "--samples", "20",
                     "--out", str(tmp_path / "conj.dat")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["region-sample", "--source", "dsbs:0.1", "--samples", "x",
                  "--out", str(tmp_path / "bad.dat")])
        assert exc.value.code == 2
        assert main([*rs, "--out", str(second)]) == 0
        capsys.readouterr()
        assert built == []
        assert first.read_bytes() == second.read_bytes()


class TestSamplingOptions:
    @pytest.mark.parametrize("argv, flag", [
        (["conjecture", "--p", "0.1"], ["--refine-top", "3"]),
        (["region-sample", "--source", "dsbs:0.1"], ["--refine-top", "3"]),
        (["ib-curve", "--source", "dsbs:0.1"], ["--refine-top", "3"]),
        (["dsbs-gap", "--p", "0.1"], ["--refine-top", "3"]),
        (["conjecture", "--p", "0.1"], ["--refine-steps", "10"]),
        (["conjecture", "--p", "0.1"], ["--step-size", "0.1"]),
        (["region-sample", "--source", "dsbs:0.1"], ["--refine-steps", "10"]),
        (["region-sample", "--source", "dsbs:0.1"], ["--step-size", "0.1"]),
        (["dsbs-gap", "--p", "0.1"], ["--refine-steps", "10"]),
        (["dsbs-gap", "--p", "0.1"], ["--step-size", "0.1"]),
        (["dsbs-gap", "--p", "0.1"], ["--caps", "2,2"]),
        (["ib-curve", "--source", "dsbs:0.1"], ["--caps", "2,2"]),
        (["ib-curve", "--source", "dsbs:0.1"], ["--refine-steps", "10"]),
        (["ib-curve", "--source", "dsbs:0.1"], ["--step-size", "0.1"]),
    ])
    def test_options_no_command_reads_are_rejected(self, tmp_path, capsys, argv, flag):
        out = "--out-dir" if argv[0] == "dsbs-gap" else "--out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1", out, str(tmp_path / "o"), *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag[0] in err

    def test_manifest_lists_what_the_command_reads(self, tmp_path, capsys):
        conj, gap = tmp_path / "conj.dat", tmp_path / "gap"
        rs, ib = tmp_path / "rs.dat", tmp_path / "ib.dat"
        assert main(["conjecture", "--p", "0.1", "--seed", "1", "--samples", "5",
                     "--out", str(conj)]) == 0
        assert main(["dsbs-gap", *GAP_ARGS, "--out-dir", str(gap)]) == 0
        assert main(["region-sample", "--source", "dsbs:0.1", "--seed", "1", "--samples", "5",
                     "--out", str(rs)]) == 0
        assert main(["ib-curve", "--source", "dsbs:0.1", "--seed", "1", "--samples", "5",
                     "--grid", "3", "--out", str(ib)]) == 0
        capsys.readouterr()
        keys, values = {}, {}
        for path in (conj, gap / "outer.dat", rs, ib):
            # after the "# coinfo <version>" and "# command <name>" lines
            header = [line for line in path.read_text().splitlines() if line.startswith("#")]
            keys[path] = [line.split()[1] for line in header[2:]]
            values[path] = {line.split()[1]: line.split()[2:] for line in header[2:]}
        sampled = ["seed", "samples", "caps", "draw_block"]
        assert keys[conj] == ["p", *sampled, "units"]
        assert keys[gap / "outer.dat"] == ["p", "window", "window_points", "units", "curve"]
        assert keys[rs] == ["source", "variant", *sampled, "units"]
        assert keys[ib] == ["source", "grid_points", "grid_lo", "grid_hi", "units"]
        # the draws' RNG layout: one substream per block of 256 draws
        for path in (conj, rs):
            assert values[path]["draw_block"] == ["256"]


class TestConjecture:
    def test_report(self, tmp_path, capsys):
        out = tmp_path / "conj.dat"
        assert main(["conjecture", "--p", "0.1", "--seed", "5", "--samples",
                     "200", "--out", str(out)]) == 0
        assert "min_margin " in capsys.readouterr().out
        rep = read_report(out)
        assert float(rep["min_margin"][0][0]) >= -1e-9
        assert rep["samples"][0][0] == "200"
        for key in ("worst_ch_u", "worst_ch_v"):
            assert len(rep[key]) == 2
            for row in rep[key]:
                assert abs(sum(float(v) for v in row[1:]) - 1.0) <= 1e-12

    def test_bits_scale_margin_only(self, tmp_path):
        nats, bits = tmp_path / "n.dat", tmp_path / "b.dat"
        base = ["conjecture", "--p", "0.25", "--seed", "2", "--samples", "50"]
        main([*base, "--out", str(nats)])
        main([*base, "--units", "bits", "--out", str(bits)])
        rep_n, rep_b = read_report(nats), read_report(bits)
        m_n = float(rep_n["min_margin"][0][0])
        m_b = float(rep_b["min_margin"][0][0])
        assert abs(m_b - m_n / LOG2) <= 1e-18 + abs(m_n) * 1e-12
        # probabilities are not unit-scaled
        assert rep_n["alpha"] == rep_b["alpha"]
        assert rep_n["worst_ch_u"] == rep_b["worst_ch_u"]


class TestBruteforce:
    def test_single_letter_dsbs(self, tmp_path):
        out = tmp_path / "bf.dat"
        assert main(["bruteforce", "--source", "dsbs:0.25", "--n", "1",
                     "--m1", "2", "--m2", "2", "--out", str(out)]) == 0
        rep = read_report(out)
        assert abs(float(rep["best_theta"][0][0]) - I_DSBS_025) <= 1e-12
        assert rep["sandwich_ok"][0][0] == "1"
        assert rep["f"][0] == ["0", "1"] and rep["g"][0] == ["0", "1"]

    @pytest.mark.parametrize("units", ["nats", "bits"])
    def test_stein_exponent_line_is_best_theta(self, tmp_path, units):
        out = tmp_path / "bf.dat"
        assert main(["bruteforce", "--source", "dsbs:0.1", "--n", "2", "--m1", "3",
                     "--m2", "2", "--units", units, "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["stein_exponent"] == rep["best_theta"]
        body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert body[1].startswith("stein_exponent ")

    def test_two_letter_halves(self, tmp_path):
        out = tmp_path / "bf2.dat"
        main(["bruteforce", "--source", "dsbs:0.25", "--n", "2", "--out", str(out)])
        rep = read_report(out)
        assert abs(float(rep["best_theta"][0][0]) - I_DSBS_025 / 2) <= 1e-12

    def test_budget_exit_code(self, tmp_path, capsys):
        assert main(["bruteforce", "--source", "dsbs:0.25", "--n", "4",
                     "--out", str(tmp_path / "x.dat")]) == 3
        assert "raw count" in capsys.readouterr().err

    def test_internal_check_exit_code(self, tmp_path, capsys, monkeypatch):
        # a source MI of 0 puts every positive theta above the cap
        monkeypatch.setattr(typicality, "mutual_information", lambda *args: 0.0)
        assert main(["bruteforce", "--source", "dsbs:0.25",
                     "--out", str(tmp_path / "x.dat")]) == 1
        assert "internal check failed" in capsys.readouterr().err


class TestRegionSample:
    def test_inner_dump(self, tmp_path):
        out = tmp_path / "rs.dat"
        assert main(["region-sample", "--source", "dsbs:0.1", "--seed", "4",
                     "--samples", "40", "--out", str(out)]) == 0
        _, rows = read_table(out)
        assert len(rows) == 40 and all(len(r) == 3 for r in rows)
        for mu, r1, r2 in rows:
            assert mu <= min(r1, r2) + 1e-9
            assert mu >= -1e-12

    def test_outer_mu_can_go_negative(self, tmp_path):
        out = tmp_path / "rs.dat"
        main(["region-sample", "--source", "dsbs:0.1", "--variant", "ro",
              "--seed", "4", "--samples", "40", "--out", str(out)])
        _, rows = read_table(out)
        assert len(rows) == 40 and any(r[0] < 0 for r in rows)
        for mu, r1, r2 in rows:
            assert mu <= min(r1, r2) + 1e-9

    def test_file_source_matches_dsbs_string(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text(
            "x z\n0 0 0.45\n0 1 0.05\n1 0 0.05\n1 1 0.45\n"
        )
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        base = ["region-sample", "--seed", "11", "--samples", "25"]
        main([*base, "--source", str(src), "--out", str(a)])
        main([*base, "--source", "dsbs:0.1", "--out", str(b)])
        assert read_table(a)[1] == read_table(b)[1]

    def test_bad_sources(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        for text in (
            "x z\n0 0 0.5\n1 1 0.4\n",
            "x z\n0 0 0.5\n-1 0 0.5\n",
            "x z\n0 0 0.5\n0 0 0.5\n",
        ):
            bad.write_text(text)
            assert main(["region-sample", "--source", str(bad), "--seed", "1",
                         "--out", str(tmp_path / "o.dat")]) == 2
        assert main(["region-sample", "--source", "dsbs:abc", "--seed", "1",
                     "--out", str(tmp_path / "o.dat")]) == 2
        assert main(["region-sample", "--source", str(tmp_path / "nope.txt"),
                     "--seed", "1", "--out", str(tmp_path / "o.dat")]) == 4
        capsys.readouterr()

    def test_unknown_variant_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["region-sample", "--source", "dsbs:0.1", "--variant", "bogus",
                  "--seed", "1", "--out", str(tmp_path / "o.dat")])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_seed_is_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["region-sample", "--source", "dsbs:0.1",
                  "--out", str(tmp_path / "o.dat")])
        assert exc.value.code == 2
        capsys.readouterr()


class TestTypicalityCheck:
    def test_all_checks_pass(self, tmp_path):
        out = tmp_path / "ty.dat"
        assert main(["typicality-check", "--out", str(out)]) == 0
        rep = read_report(out)
        for rows in rep["check"]:
            assert rows[1] == "pass"


class TestParseSource:
    def test_dsbs_string(self):
        src = _parse_source("dsbs:0.25")
        assert src.labels == ("x", "z")
        np.testing.assert_allclose(src.mass, [[0.375, 0.125], [0.125, 0.375]])

    def test_file_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "src.txt"
        path.write_text(
            "# a three by two source\nx z\n\n0 0 0.3\n0 1 0.1\n"
            "1 0 0.2  # inline note\n1 1 0.1\n2 0 0.1\n2 1 0.2\n"
        )
        src = _parse_source(str(path))
        assert src.mass.shape == (3, 2)
        assert abs(float(src.mass.sum()) - 1.0) <= 1e-12

    def test_duplicate_labels(self, tmp_path):
        path = tmp_path / "src.txt"
        path.write_text("x x\n0 0 1.0\n")
        with pytest.raises(DomainError):
            _parse_source(str(path))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "src.txt"
        path.write_text("x z\n0 0\n")
        with pytest.raises(DomainError):
            _parse_source(str(path))

    def test_negative_index(self, tmp_path):
        # numpy would wrap -1 onto the last cell and load a 1x1 source
        path = tmp_path / "src.txt"
        path.write_text("x z\n0 0 0.5\n-1 0 0.5\n")
        with pytest.raises(DomainError):
            _parse_source(str(path))

    def test_implied_size_checked_before_allocating(self, tmp_path, capsys):
        # two rows imply 10^12 cells: a SizeError (exit 3), not a MemoryError
        path = tmp_path / "src.txt"
        path.write_text("x z\n0 0 0.5\n999999 999999 0.5\n")
        with pytest.raises(SizeError):
            _parse_source(str(path))
        assert main(["region-sample", "--source", str(path), "--seed", "1",
                     "--out", str(tmp_path / "o.dat")]) == 3
        assert "cap is" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        # bytes that are not UTF-8 make a malformed source (exit 2), not a traceback
        path = tmp_path / "bad.src"
        path.write_bytes(b"x z\n0 0 \xff\xfe\n")
        with pytest.raises(DomainError, match="not UTF-8"):
            _parse_source(str(path))
        assert main(["ib-curve", "--source", str(path), "--out", str(tmp_path / "o.dat")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "src.txt"
        path.write_text("x z\n0 0 0.5\n1 1 0.25\n0 0 0.25\n")
        with pytest.raises(DomainError):
            _parse_source(str(path))

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(
            lambda shape: st.tuples(
                st.just(tuple(shape)),
                st.lists(
                    st.floats(0.0, 1.0), min_size=math.prod(shape), max_size=math.prod(shape)
                ).filter(lambda w: sum(w) > 0.0),
                st.permutations(range(math.prod(shape))),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_file_round_trip(self, tmp_path_factory, case):
        shape, weights, order = case
        mass = np.array(weights).reshape(shape) / sum(weights)
        labels = ("x", "z", "y")[: len(shape)]
        cells = list(np.ndindex(*shape))
        lines = [" ".join(labels)]
        lines += [" ".join(map(str, cells[k])) + f" {float(mass[cells[k]])!r}" for k in order]
        path = tmp_path_factory.mktemp("src") / "src.txt"
        path.write_text("\n".join(lines) + "\n")
        src = _parse_source(str(path))
        want = JointPmf(tuple(Alphabet(n, lbl) for n, lbl in zip(shape, labels)), mass)
        assert src.axes == want.axes
        assert np.array_equal(src.mass, want.mass)


class TestSubprocess:
    def _run(self, argv, threads, cwd):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        return subprocess.run(
            [sys.executable, "-m", "coinfo", *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        )

    def test_gap_rerun_across_thread_counts(self, tmp_path):
        res1 = self._run(["dsbs-gap", *GAP_ARGS, "--out-dir", "one"], "1", tmp_path)
        res4 = self._run(["dsbs-gap", *GAP_ARGS, "--out-dir", "four"], "4", tmp_path)
        assert res1.returncode == 0 and res4.returncode == 0
        for name in ("inner.dat", "outer.dat"):
            one = (tmp_path / "one" / name).read_bytes()
            four = (tmp_path / "four" / name).read_bytes()
            assert one == four

    def test_ib_curve_rerun_across_thread_counts_and_ignored_options(self, tmp_path):
        # the bottleneck solve draws nothing: neither the thread count nor
        # --seed and --samples reach the output
        runs = [
            ("1", ["--seed", "1", "--samples", "5"]),
            ("3", ["--seed", "1", "--samples", "5"]),
            ("1", ["--seed", "2", "--samples", "400"]),
            ("3", ["--seed", "2", "--samples", "400"]),
        ]
        bodies = set()
        for i, (threads, extra) in enumerate(runs):
            argv = ["ib-curve", "--source", "dsbs:0.25", "--grid", "11", *extra, "--out", f"ib{i}.dat"]
            res = self._run(argv, threads, tmp_path)
            assert res.returncode == 0, res.stderr
            text = (tmp_path / f"ib{i}.dat").read_bytes().decode()
            bodies.add("".join(line for line in text.splitlines(True) if not line.startswith("#")))
        assert len(bodies) == 1

    def test_console_script_version(self, tmp_path):
        res = subprocess.run(
            ["coinfo", "--version"], capture_output=True, text=True, timeout=60
        )
        assert res.returncode == 0
        assert res.stdout.strip().startswith("coinfo ")
