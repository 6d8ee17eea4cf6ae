import argparse
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

import salpeter1d as s
from salpeter1d import cli, thresholds
from salpeter1d.cli import main


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFigureCommands:
    def test_figure1_output(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = main([
            "figure1", "--box-width", "1.0", "--grid-points", "512",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["x", "rho_born", "rho_scalar"]
        xs = np.array([float(r[0]) for r in rows])
        assert xs[0] >= -0.5 and xs[-1] <= 1.5
        born = np.array([float(r[1]) for r in rows])
        assert np.all(born >= 0.0)

    def test_figure1_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "figure1", "--box-width", "1.0", "--grid-points", "512",
                "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_figure1_values_round_trip(self, tmp_path):
        out = tmp_path / "fig1.csv"
        main(["figure1", "--box-width", "1.0", "--grid-points", "512",
              "--out", str(out)])
        header, rows = _read_csv(out)
        g = s.make_grid(-1.5, 2.5, 512)
        psi = s.box_state(1.0, 2, g)
        rho = s.density(psi, s.SCALAR).values
        window = (g.x >= -0.5) & (g.x <= 1.5)
        expected = rho[window]
        got = np.array([float(r[2]) for r in rows])
        np.testing.assert_array_equal(got, expected)

    def test_figure1_svg(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main([
            "figure1", "--box-width", "1.0", "--grid-points", "512",
            "--out", str(out), "--svg",
        ]) == 0
        svg = (tmp_path / "fig1.svg").read_text()
        assert svg.count("<polyline") == 2
        assert "rho_scalar" in svg

    def test_figure2_unit_area(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main([
            "figure2", "--grid-points", "512", "--normalization", "unit-area",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["x", "rho_born", "rho_scalar", "rho_half"]
        xs = np.array([float(r[0]) for r in rows])
        dx = xs[1] - xs[0]
        for col in (1, 2, 3):
            vals = np.array([float(r[col]) for r in rows])
            assert abs(np.sum(vals) * dx - 1.0) < 1e-6

    def test_figure2_peak(self, tmp_path):
        out = tmp_path / "fig2.csv"
        main(["figure2", "--grid-points", "512", "--normalization", "peak",
              "--out", str(out)])
        _, rows = _read_csv(out)
        for col in (1, 2, 3):
            vals = np.array([float(r[col]) for r in rows])
            assert np.max(vals) == 1.0

    def test_figure2_raw_curves_distinct_and_nonnegative(self, tmp_path):
        out = tmp_path / "fig2.csv"
        main(["figure2", "--grid-points", "1024", "--out", str(out)])
        _, rows = _read_csv(out)
        cols = [np.array([float(r[c]) for r in rows]) for c in (1, 2, 3)]
        peak = max(c.max() for c in cols)
        for i in range(3):
            assert np.min(cols[i]) >= -1e-10
            for j in range(i + 1, 3):
                assert np.max(np.abs(cols[i] - cols[j])) > 1e-3 * peak


class TestCovarianceCommand:
    def test_scalar_rows_pass(self, tmp_path):
        out = tmp_path / "cov.csv"
        code = main([
            "covariance", "--kernel", "scalar", "--velocity", "0.6",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = _read_csv(out)
        assert header[:4] == ["kernel", "p_i", "p_j", "v"]
        residuals = np.array([float(r[4]) for r in rows])
        fourvec = np.array([float(r[5]) for r in rows])
        assert residuals.max() < 1e-10
        assert fourvec.max() < 1e-10

    def test_zero_velocity_rows_vanish(self, tmp_path):
        out = tmp_path / "cov.csv"
        assert main([
            "covariance", "--kernel", "spinhalf", "--velocity", "0.0",
            "--out", str(out),
        ]) == 0
        _, rows = _read_csv(out)
        assert max(float(r[4]) for r in rows) < 1e-12
        assert max(float(r[5]) for r in rows) < 1e-12

    def test_born_witness_row_present_and_failing(self, tmp_path):
        out = tmp_path / "cov.csv"
        code = main([
            "covariance", "--kernel", "born", "--velocity", "0.5",
            "--out", str(out),
        ])
        assert code == 0  # born reproducing the failure is the pass condition
        _, rows = _read_csv(out)
        witness = [
            r for r in rows
            if float(r[1]) == 0.5 and float(r[2]) == -0.5 and float(r[3]) == 0.5
        ]
        assert witness
        assert float(witness[-1][4]) > 1e-3

    def test_literal_kernel_skips_singular_pairs(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        code = main([
            "covariance", "--kernel", "literal:1", "--velocity", "0.4",
            "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.err

    def test_default_sweep_rows_and_witness_last(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        assert main(["covariance", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == [
            "kernel", "p_i", "p_j", "v", "eq_constraint_residual", "fourvector_residual",
        ]
        assert len(rows) == 5701
        kernels = [r[0] for r in rows[:-1]]
        assert kernels == ["born"] * 1900 + ["scalar"] * 1900 + ["spinhalf"] * 1900
        assert rows[-1][:4] == ["born", "0.5", "-0.5", "0.5"]
        # tuples run p_i, then p_j, then v, with coincident momenta dropped
        assert rows[0][1:4] == ["-2", "-1.7894736842105263", "-0.90000000000000002"]
        assert rows[4][3] == "0.90000000000000002"
        assert rows[5][2] == "-1.5789473684210527"
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == f"covariance: wrote {out} (5701 rows)"

    def test_witness_row_equals_batched_row(self):
        # the witness goes through constraint_report and covariance_residual,
        # the sweep through the batched cores; both give the same cells
        witness = [np.array([c]) for c in thresholds.BORN_WITNESS]
        assert cli._witness_row(*thresholds.BORN_WITNESS) == cli._covariance_rows(
            s.BORN, *witness
        )[0]

    def test_high_velocity_sweep_passes(self, tmp_path, capsys):
        # the light-cone pair factor keeps every scalar and spin-half row
        # under the gate at v = 0.999
        out = tmp_path / "cov.csv"
        assert main(["covariance", "--velocity", "0.999", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = _read_csv(out)
        gated = [r for r in rows if r[0] in ("scalar", "spinhalf")]
        assert len(gated) == 760
        assert max(max(float(r[4]), float(r[5])) for r in gated) <= 1e-10

    def test_literal_sweep_skips_exactly_the_singular_tuples(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        # literal:5 too: its F ~ u^-10 squares past float64 at any nearly
        # opposite pair the sweep writes
        for kernel in ("literal:1", "literal:5"):
            assert main(["covariance", "--kernel", kernel, "--out", str(out)]) == 0
            captured = capsys.readouterr()
            # the sweep's ten mirror pairs p_j = -p_i, in both orders, at five
            # velocities: the exact rule p1 + p2 == 0 finds each of them
            assert captured.err == "covariance: skipped 100 singular kernel pairs\n"
            _, rows = _read_csv(out)
            assert len(rows) == 1800
            # no opposite or nearly opposite pair (u ~ 0 before the boost) is written
            assert not [r for r in rows if abs(float(r[1]) + float(r[2])) < 1e-12]
            assert np.isfinite(np.array([r[1:] for r in rows], dtype=float)).all()


class TestReportCommands:
    def test_continuity(self, tmp_path):
        out = tmp_path / "cont.csv"
        assert main(["continuity", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["kernel", "dt", "residual_dt", "residual_half_dt", "ratio"]
        assert {r[0] for r in rows} == {"born", "scalar", "spinhalf"}
        for r in rows:
            assert 3.5 <= float(r[4]) <= 4.5

    def test_dirac_check(self, tmp_path):
        out = tmp_path / "dirac.csv"
        assert main(["dirac-check", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        states = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        assert states["superposition"][0] < 1e-12
        assert states["superposition"][1] < 1e-12
        assert states["box"][0] < 1e-8
        assert states["box"][1] < 1e-8

    def test_series_check(self, tmp_path):
        out = tmp_path / "series.csv"
        assert main(["series-check", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        table = {r[0]: float(r[1]) for r in rows}
        assert table["series_gap"] < 1e-8
        assert table["divergence_detector_fired"] == 1


class TestConfigAndIOErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["figure1", "--grid-points", "100"],
            ["figure1", "--pad-factor", "2.0"],
            ["figure1", "--box-width", "-1.0"],
            ["figure1", "--state-n", "0"],
            ["covariance", "--velocity", "1.5"],
            ["covariance", "--kernel", "weyl"],
            ["figure1", "--pad-factor", "inf"],
            ["figure1", "--box-width", "nan"],
            # finite flags whose density overflows: the raw column holds inf
            ["figure1", "--box-width", "1e-300", "--grid-points", "256"],
            # above thresholds.GRID_POINTS_MAX: rejected before any array is made
            ["figure1", "--grid-points", str(2**23)],
            # box mode k = 9.4e3 against p_nyquist 3.2e3: above
            # thresholds.BOX_MODE_NYQUIST_FRACTION of Nyquist
            ["figure1", "--state-n", "3000"],
            ["dirac-check", "--state-n", "3000"],
            ["figure1", "--state-n", "513"],
            # the continuity state's momentum 10 dp ~ 1.96 against the same
            # fraction of p_nyquist = pi N / 32
            *(["continuity", "--grid-points", n] for n in ("4", "8", "16", "32")),
        ],
    )
    def test_invalid_config_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(argv + ["--out", str(out)])
        assert code == 2
        assert "invalid config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["figure1", "figure2"])
    def test_overflowing_box_gives_only_the_config_error(
        self, command, tmp_path, capsys
    ):
        out = tmp_path / "x.csv"
        code = main([
            command, "--box-width", "1e-300", "--grid-points", "256", "--out", str(out),
        ])
        assert code == 2
        assert "error (invalid config): cannot normalize" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("fill", "how"),
        [
            (fill, how)
            for fill in (0.0, np.nan, np.inf)
            for how in ("unit-area", "peak", "raw")
            if fill != 0.0 or how != "raw"  # a zero column stays legal on raw
        ],
    )
    def test_normalize_rejects_zero_or_nonfinite_scale(self, how, fill):
        values = np.zeros(8)
        values[3] = fill
        with pytest.raises(ValueError, match="cannot normalize"):
            cli._normalize_column(values, how, 0.5)

    def test_normalize_keeps_finite_columns(self):
        values = np.array([0.0, 1.0, 3.0])
        np.testing.assert_array_equal(cli._normalize_column(values, "peak", 0.5), values / 3.0)
        np.testing.assert_array_equal(
            cli._normalize_column(values, "unit-area", 0.5), values / 2.0
        )
        np.testing.assert_array_equal(cli._normalize_column(values, "raw", 0.5), values)
        np.testing.assert_array_equal(
            cli._normalize_column(np.zeros(3), "raw", 0.5), np.zeros(3)
        )

    def test_zero_column_exits_2_without_output(self, tmp_path, capsys, monkeypatch):
        def vanishing(psi, kind):
            return s.GridField(psi.grid, np.zeros(psi.grid.n_points))

        monkeypatch.setattr(cli, "density", vanishing)
        out = tmp_path / "fig.csv"
        code = main([
            "figure1", "--grid-points", "512", "--normalization", "peak",
            "--out", str(out),
        ])
        assert code == 2
        assert "cannot normalize a column whose peak is 0.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("argv", "target", "poison", "column"),
        [
            (["covariance", "--kernel", "scalar"], "fourvector_residuals",
             lambda r: np.concatenate([[np.nan], r[1:]]), "fourvector_residual"),
            (["continuity", "--grid-points", "64", "--kernel", "scalar"],
             "continuity_residual", lambda r: np.nan, "residual_dt"),
            (["dirac-check", "--grid-points", "256"], "equivalence_residuals",
             lambda r: (np.nan, r[1]), "current_residual"),
            (["series-check"], "apply_hamiltonian",
             lambda r: s.WaveFunction(r.grid, np.full_like(r.values, np.nan)), "value"),
        ],
        ids=["covariance", "continuity", "dirac-check", "series-check"],
    )
    def test_nonfinite_cell_exits_2_without_output(
        self, argv, target, poison, column, tmp_path, capsys, monkeypatch
    ):
        original = getattr(cli, target)
        monkeypatch.setattr(cli, target, lambda *a, **k: poison(original(*a, **k)))
        out = tmp_path / "report.csv"
        code = main(argv + ["--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error (invalid config): column {column!r} holds a non-finite value" in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_normalization_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["figure1", "--normalization", "banana",
                  "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_io_error_exits_3_without_partial_file(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir"
        out = missing_dir / "fig.csv"
        code = main([
            "figure1", "--box-width", "1.0", "--grid-points", "512",
            "--out", str(out),
        ])
        assert code == 3
        assert "I/O" in capsys.readouterr().err
        assert not missing_dir.exists()

    def test_output_files_follow_umask(self, tmp_path):
        out = tmp_path / "fig1.csv"
        previous = os.umask(0o022)
        try:
            assert main(["figure1", "--grid-points", "512",
                         "--out", str(out), "--svg"]) == 0
        finally:
            os.umask(previous)
        for path in (out, tmp_path / "fig1.svg"):
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o644


# the flags each command reads, besides --out
FLAGS_READ = {
    "figure1": {"--box-width", "--state-n", "--grid-points", "--pad-factor",
                "--svg", "--normalization"},
    "figure2": {"--box-width", "--grid-points", "--pad-factor", "--svg",
                "--normalization"},
    "covariance": {"--velocity", "--kernel"},
    "continuity": {"--grid-points", "--kernel"},
    "dirac-check": {"--box-width", "--state-n", "--grid-points", "--pad-factor"},
    "series-check": {"--grid-points"},
}
FLAG_VALUES = {
    "--box-width": ["2.0"],
    "--state-n": ["3"],
    "--grid-points": ["256"],
    "--pad-factor": ["8"],
    "--velocity": ["0.5"],
    "--kernel": ["scalar"],
    "--svg": [],
    "--normalization": ["peak"],
}


def _subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestFlagContract:
    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @pytest.mark.parametrize("command", sorted(FLAGS_READ))
    def test_command_takes_only_the_flags_it_reads(self, command, flag, tmp_path):
        argv = [command, flag, *FLAG_VALUES[flag]]
        out = tmp_path / "x.csv"
        if flag in FLAGS_READ[command]:
            args = cli._build_parser().parse_args(argv)
            assert args.command == command
            return
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()

    def test_readme_flag_table_matches_parser(self):
        # README: | `<command>` | `--flag` default, `--flag`, ... |
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("| command | flags it reads")[1].split("\n\n")[0]
        rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", block, re.MULTILINE)
        table = {
            command: dict(re.findall(r"`(--[a-z-]+)`(?: ([^,]+))?", cells))
            for command, cells in rows
        }
        parsers = _subparsers()
        assert set(table) == set(parsers)
        for command, flags in table.items():
            actions = {
                a.option_strings[-1]: a for a in parsers[command]._actions
                if a.option_strings[-1] not in ("--help", "--out")
            }
            assert set(flags) == set(actions), command
            for flag, default in flags.items():
                shown = actions[flag].default
                assert default == ("" if shown in (None, False) else str(shown)), (
                    command, flag,
                )
