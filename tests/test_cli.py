import csv
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import null_block
from multiseq import OutcomeModel, cli, dtl, gs, simulate
from multiseq.cli import (
    _fmt,
    _sim_config,
    _spec_for_kind,
    config_echo_lines,
    load_key_values,
    main,
    parse_config,
)
from multiseq.errors import ConfigError

GS_CONFIG = """
# two outcomes, one must show promise
kind = gs
K = 2
m = 1
J = 3
alpha = 0.025
beta = 0.2
delta0 = 0.2
delta1 = 0.4
rho = 0.3
seed = 7
nsims = 4000
"""

DTL_CONFIG = """
kind = dtl
K = 2
m = 1
k_max = 1
delta0 = 0.2
delta1 = 0.4
rho = 0.3
seed = 7
nsims = 4000
nmin = 2
nmax = 120
"""

SWEEP_CONFIG = """kind_a = gs
kind_b = composite
K = 2
m = 1
J = 2
delta0 = 0.2
delta1 = 0.4
seed = 5
nsims = 3000
rho_values = 0.0, 0.5
"""


# one configuration per command shape, with the stage count of every null
# block the command should draw
COMMANDS = {
    "design-gs": (["design", "gs"], GS_CONFIG, [3]),
    "design-dtl": (["design", "dtl"], DTL_CONFIG, [2]),
    # 1 < m < K: a search that opens with a gallop, every probe of it a count pass
    "design-gs-k3-m2": (["design", "gs"], GS_CONFIG.replace("K = 2\nm = 1", "K = 3\nm = 2"),
                        [3]),
    # K_max < K with six outcome pairs to rank
    "design-dtl-k4-m2": (["design", "dtl"],
                         DTL_CONFIG.replace("K = 2\nm = 1\nk_max = 1", "K = 4\nm = 2\nk_max = 2"),
                         [2]),
    "grid-gs-composite": (["oc", "grid"],
                          GS_CONFIG.replace("kind = gs", "kind_a = gs\nkind_b = composite")
                          + "mu_values = 0.0, 0.4\n", [3]),
    "grid-dtl-single-stage": (["oc", "grid"],
                              DTL_CONFIG.replace("kind = dtl",
                                                 "kind_a = dtl\nkind_b = single-stage")
                              + "mu_values = 0.0, 0.4\n", [1, 2]),
    "sweep-three-rho": (["oc", "sweep"],
                        SWEEP_CONFIG.replace("rho_values = 0.0, 0.5",
                                             "rho_values = 0.0, 0.3, 0.6"), [2, 2, 2]),
    "sensitivity-2x2": (["oc", "sensitivity"],
                        DTL_CONFIG + "cp_l_values = 0.2, 0.4\ncp_u_values = 0.8, 0.9\n", [2]),
    # K >= 9: numpy sums a contiguous row of K statistics with 8 accumulators,
    # which a column-by-column sum must reproduce
    "design-composite-k10": (["design", "composite"],
                             GS_CONFIG.replace("kind = gs\n", "").replace("K = 2", "K = 10"),
                             [3]),
    # 1 < m < K on ten outcomes: the fifth largest of each stage's statistics
    "design-gs-k10-m5-j5": (["design", "gs"],
                            GS_CONFIG.replace("K = 2\nm = 1\nJ = 3", "K = 10\nm = 5\nJ = 5"),
                            [5]),
}


# block passes each shape makes, at any thread count: a gs or composite
# threshold search makes 5 (calibration, threshold pass, probes at n - 1 and
# n, null OC), a gallop search 2 more than its probes, a drop-the-loser
# search two per probe and one more, and an effect grid one per design
PASSES = {
    "design-gs": 5,
    "design-dtl": 11,
    "design-gs-k3-m2": 9,
    "design-dtl-k4-m2": 11,
    "grid-gs-composite": 12,
    "grid-dtl-single-stage": 18,
    "sweep-three-rho": 30,
    "sensitivity-2x2": 42,
    "design-composite-k10": 5,
    "design-gs-k10-m5-j5": 7,
}


FMT_CASES = [
    (0.1, "0.1"), (1 / 3, "0.333333"), (2.0, "2"), (1e-7, "1e-07"), (123456789.0, "1.23457e+08"),
    (-0.0, "-0"), (np.float64(0.1234567891), "0.123457"), (np.float32(0.1), "0.1"),
    (np.float32(2.5), "2.5"), (float("nan"), "nan"), (np.float64("nan"), "nan"),
    (float("inf"), "inf"), (-float("inf"), "-inf"), (3, "3"), (-7, "-7"), (np.int64(42), "42"),
    (True, "true"), (False, "false"), (np.bool_(True), "true"), (np.bool_(False), "false"),
    ("abc", "abc"),
]


@pytest.mark.parametrize("value, text", FMT_CASES)
def test_fmt_writes_each_value_type_as_before(value, text):
    assert _fmt(value) == text


def test_csv_rows_of_floats_are_written_as_fmt_writes_them(tmp_path):
    # whole rows of Python floats take one format; other rows go cell by
    # cell through _fmt and csv quoting
    floats = tuple(value for value, _ in FMT_CASES if type(value) is float)
    rows = [floats, floats[:2], (0.5, 2, True, "a,b", np.float64(0.25)), floats[::-1]]
    cli._write_csv(tmp_path / "fast.csv", ("x", "y"), rows)
    with open(tmp_path / "cells.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("x", "y"))
        writer.writerows([_fmt(cell) for cell in row] for row in rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def patch_simulation(monkeypatch, replacement):
    """Replace simulate_null_block in every module that looks it up."""
    for module in (cli, dtl, gs, simulate):
        if hasattr(module, "simulate_null_block"):
            monkeypatch.setattr(module, "simulate_null_block", replacement)


def no_block(*args, **kwargs):
    raise AssertionError("a block was simulated")


class TestKeyValueParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write(tmp_path, "# header\n\nK = 3  # inline\nrho = 0.2\n")
        assert load_key_values(path) == {"K": "3", "rho": "0.2"}

    def test_malformed_line_reports_location(self, tmp_path):
        path = write(tmp_path, "K 3\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_key_values(path)


class TestParseConfig:
    def test_shared_rho_expands_to_matrix(self):
        cfg = parse_config("design", {"kind": "gs", "K": "3", "m": "1", "J": "2",
                                      "delta0": "0.2", "delta1": "0.4",
                                      "rho": "0.3"})
        assert cfg.rho == ((1.0, 0.3, 0.3), (0.3, 1.0, 0.3), (0.3, 0.3, 1.0))
        assert cfg.sigma == (1.0, 1.0, 1.0)

    def test_full_rho_matrix_accepted(self):
        cfg = parse_config("design", {"kind": "gs", "K": "2", "m": "1", "J": "1",
                                      "delta0": "0.2", "delta1": "0.4",
                                      "rho": "1,0.5; 0.5,1"})
        assert cfg.rho == ((1.0, 0.5), (0.5, 1.0))

    def test_wt_shape_defaults_to_zero(self):
        cfg = parse_config("design", {"kind": "gs", "K": "1", "m": "1", "J": "2",
                                      "delta0": "0.2", "delta1": "0.4"})
        assert cfg.delta == 0.0

    def test_threshold_order_rejected(self):
        entries = {"kind": "dtl", "K": "2", "m": "1", "k_max": "1",
                   "delta0": "0.2", "delta1": "0.4", "cp_l": "0.5", "cp_u": "0.4"}
        with pytest.raises(ConfigError, match="cp_l"):
            parse_config("design", entries)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config("design", {"kind": "gs", "K": "1", "m": "1",
                                    "delta0": "0.2", "delta1": "0.4",
                                    "frobnicate": "1"})

    def test_missing_outcomes_rejected(self):
        with pytest.raises(ConfigError, match="K"):
            parse_config("design", {"kind": "gs", "delta0": "0.2", "delta1": "0.4"})

    def test_single_stage_requires_one_stage(self):
        entries = {"kind": "single-stage", "K": "2", "m": "1", "J": "3",
                   "delta0": "0.2", "delta1": "0.4"}
        with pytest.raises(ConfigError, match="single-stage"):
            parse_config("design", entries)

    def test_dtl_requires_retention_cap(self):
        entries = {"kind": "dtl", "K": "2", "m": "1",
                   "delta0": "0.2", "delta1": "0.4"}
        with pytest.raises(ConfigError, match="k_max"):
            parse_config("design", entries)

    def test_non_psd_matrix_rejected(self):
        entries = {"kind": "gs", "K": "3", "m": "1", "J": "1",
                   "delta0": "0.2", "delta1": "0.4",
                   "rho": "1,0.9,-0.9; 0.9,1,0.9; -0.9,0.9,1"}
        with pytest.raises(ConfigError, match="rho"):
            parse_config("design", entries)

    def test_strict_alpha_flag_parsed(self):
        base = {"kind": "gs", "K": "1", "m": "1", "delta0": "0.2", "delta1": "0.4"}
        assert parse_config("design", base).strict_alpha is False
        assert parse_config("design", base | {"strict_alpha": "true"}).strict_alpha
        with pytest.raises(ConfigError, match="strict_alpha"):
            parse_config("design", base | {"strict_alpha": "maybe"})

    def test_effect_grid_size_is_bounded(self):
        # len(mu_values)^K points: K = 10 on the default 7 values would hold
        # 282,475,249; K = 5 holds 16,807, and 10 values at K = 5 exactly 100,000
        pair = {"kind_a": "gs", "kind_b": "composite", "m": "1", "J": "2",
                "delta0": "0.2", "delta1": "0.4"}
        with pytest.raises(ConfigError, match="mu_values: .* 100,000 points"):
            parse_config("oc grid", pair | {"K": "10"})
        assert len(parse_config("oc grid", pair | {"K": "5"}).mu_values) == 7
        ten = ", ".join(str(i / 10) for i in range(10))
        assert parse_config("oc grid", pair | {"K": "5", "mu_values": ten}).K == 5
        with pytest.raises(ConfigError, match="mu_values"):
            parse_config("oc grid", pair | {"K": "6", "mu_values": ten})
        # other commands do not evaluate the grid
        assert parse_config("oc sweep", pair | {"K": "10"}).K == 10

    def test_threads_default_from_environment(self, monkeypatch):
        monkeypatch.setenv("MULTISEQ_THREADS", "5")
        cfg = parse_config("design", {"kind": "gs", "K": "1", "m": "1",
                                      "delta0": "0.2", "delta1": "0.4"})
        assert cfg.threads == 5

    def test_round_trip_through_echo(self, tmp_path):
        for text, command in ((GS_CONFIG, "design"), (DTL_CONFIG, "design")):
            cfg = parse_config(command, load_key_values(write(tmp_path, text)))
            echoed = write(tmp_path, "\n".join(config_echo_lines(cfg)), "echo.cfg")
            reparsed = parse_config(command, load_key_values(echoed))
            assert reparsed == cfg


def run_cli(args):
    return main(args)


class TestMain:
    def test_design_gs_writes_deterministic_outputs(self, tmp_path):
        cfg_path = write(tmp_path, GS_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["design", "gs", "--config", str(cfg_path),
                        "--out", str(out_a)]) == 0
        assert run_cli(["design", "gs", "--config", str(cfg_path),
                        "--out", str(out_b)]) == 0
        for name in ("summary.txt", "config_echo.txt", "boundaries.csv"):
            assert (out_a / name).read_bytes().replace(str(out_a).encode(), b"") \
                == (out_b / name).read_bytes().replace(str(out_b).encode(), b"")
        summary = (out_a / "summary.txt").read_text()
        for key in ("C =", "n =", "N =", "f =", "e =", "alpha_star =",
                    "power_star =", "ess_lfc =", "enm_lfc =", "seed = 7"):
            assert key in summary

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # main builds its parser once per process; a later call must not see
        # an earlier call's --set entries, exit codes or help text
        assert cli._build_parser() is cli._build_parser()
        cfg_path = write(tmp_path, GS_CONFIG)
        outs = [tmp_path / name for name in ("set", "plain")]
        assert run_cli(["design", "gs", "--config", str(cfg_path), "--set", "seed=8",
                        "--set", "nsims=3000", "--out", str(outs[0])]) == 0
        assert run_cli(["design", "gs", "--config", str(cfg_path), "--out", str(outs[1])]) == 0
        echoes = [(out / "config_echo.txt").read_text() for out in outs]
        assert "seed = 8" in echoes[0] and "nsims = 3000" in echoes[0]
        assert "seed = 7" in echoes[1] and "nsims = 4000" in echoes[1]
        capsys.readouterr()
        helps, codes = [], []
        for _ in range(2):
            codes.append(run_cli(["design", "gs", "--config", str(cfg_path),
                                  "--set", "no-equals-sign", "--out", str(tmp_path / "bad")]))
            with pytest.raises(SystemExit) as exit_info:
                run_cli(["design", "--help"])
            helps.append((exit_info.value.code, capsys.readouterr()))
        assert codes == [2, 2]
        assert helps[0] == helps[1] and helps[0][0] == 0
        assert "--set KEY=VALUE" in helps[0][1].out
        assert helps[0][1].err.count("--set expects KEY=VALUE") == 1

    def test_design_dtl_emits_cp_lookup(self, tmp_path):
        cfg_path = write(tmp_path, DTL_CONFIG)
        out = tmp_path / "dtl"
        assert run_cli(["design", "dtl", "--config", str(cfg_path),
                        "--out", str(out)]) == 0
        lookup = (out / "cp_lookup.csv").read_text().splitlines()
        assert lookup[0] == "outcome,z,cp"
        assert len(lookup) == 1 + 2 * 81  # default grid -4..4 step 0.1
        summary = (out / "summary.txt").read_text()
        for key in ("r =", "pet_null =", "pet_lfc =", "enm_lfc ="):
            assert key in summary

    def test_flag_overrides_win(self, tmp_path, capsys):
        cfg_path = write(tmp_path, GS_CONFIG)
        out = tmp_path / "o"
        assert run_cli(["design", "gs", "--config", str(cfg_path), "--out",
                        str(out), "--seed", "11", "--nsims", "2000",
                        "--set", "J=2"]) == 0
        echo = (out / "config_echo.txt").read_text()
        assert "seed = 11" in echo and "nsims = 2000" in echo and "J = 2" in echo

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg_path = write(tmp_path, GS_CONFIG + "alpha = 2\n")
        assert run_cli(["design", "gs", "--config", str(cfg_path)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_infeasible_design_exit_code(self, tmp_path, capsys):
        cfg_path = write(tmp_path, DTL_CONFIG + "nmax = 4\n")
        assert run_cli(["design", "dtl", "--config", str(cfg_path),
                        "--out", str(tmp_path / "x")]) == 3

    def test_numeric_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # all four independent outcomes must clear the boundary: even a
        # boundary near zero cannot spend an alpha of 0.1 (alpha(0+) is
        # 1/16 in expectation)
        passes = []
        each_chunk = simulate.StatisticBlock.each_chunk

        def counted(block, fn, chunk_bytes):
            passes.append(block.nsims)
            return each_chunk(block, fn, chunk_bytes)

        monkeypatch.setattr(simulate.StatisticBlock, "each_chunk", counted)
        text = """kind = gs
K = 4
m = 4
J = 1
alpha = 0.1
delta0 = 0.2
delta1 = 0.4
nsims = 2000
seed = 3
"""
        cfg_path = write(tmp_path, text)
        assert run_cli(["design", "gs", "--config", str(cfg_path),
                        "--out", str(tmp_path / "y")]) == 4
        err = capsys.readouterr().err
        assert ("target alpha 0.1 is out of reach for a boundary C > 0: "
                "alpha at C -> 0+ is 0.063") in err
        assert passes == [2000]  # the one calibration pass stops the search

    def test_unreachable_dtl_alpha_fails_fast(self, tmp_path, capsys, monkeypatch):
        # two promising outcomes but one retained, and no interim go
        # (cp_u = 1): no trial can go, so no boundary r > 0 spends alpha
        probes = []
        real_calibrate = dtl.calibrate_r

        def counted(*args, **kwargs):
            probes.append(args)
            return real_calibrate(*args, **kwargs)

        monkeypatch.setattr(dtl, "calibrate_r", counted)
        text = DTL_CONFIG.replace("m = 1", "m = 2") + "cp_u = 1\n"
        cfg_path = write(tmp_path, text)
        assert run_cli(["design", "dtl", "--config", str(cfg_path),
                        "--out", str(tmp_path / "w")]) == 4
        err = capsys.readouterr().err
        assert "target alpha 0.025" in err and "alpha at r -> 0+ is 0" in err
        assert len(probes) == 1  # the first calibration stops the search

    def test_oc_grid_schema(self, tmp_path):
        text = """kind_a = gs
kind_b = composite
K = 2
m = 1
J = 2
delta0 = 0.2
delta1 = 0.4
rho = 0.3
seed = 5
nsims = 3000
mu_values = 0.0, 0.4
"""
        cfg_path = write(tmp_path, text)
        out = tmp_path / "grid"
        assert run_cli(["oc", "grid", "--config", str(cfg_path),
                        "--out", str(out)]) == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert lines[0] == ("mu_1,mu_2,p_reject_A,p_reject_B,ess_A,ess_B,"
                            "enm_A,enm_B,ess_ratio,enm_ratio")
        assert len(lines) == 1 + 4

    def test_oc_grid_with_dtl_design(self, tmp_path):
        text = DTL_CONFIG.replace("kind = dtl\n", "") + \
            "kind_a = dtl\nkind_b = single-stage\nmu_values = 0.0, 0.4\n"
        cfg_path = write(tmp_path, text)
        out = tmp_path / "dtlgrid"
        assert run_cli(["oc", "grid", "--config", str(cfg_path),
                        "--out", str(out)]) == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        summary = (out / "summary.txt").read_text()
        assert "A_r =" in summary and "B_C =" in summary

    def test_oc_sweep_marks_points(self, tmp_path):
        cfg_path = write(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "sweep"
        assert run_cli(["oc", "sweep", "--config", str(cfg_path),
                        "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("rho,valid,")
        assert len(lines) == 3
        assert all(line.split(",")[1] == "true" for line in lines[1:])

    def test_oc_sweep_writes_a_failed_point_in_rho_order(self, tmp_path):
        # at rho = 0.9 the composite design needs n = 43 (power 0.718 at
        # nmax = 35); at rho = 0 both designs pass (n = 27 and 23)
        text = SWEEP_CONFIG.replace("rho_values = 0.0, 0.5", "rho_values = 0.0, 0.9, 0.0") \
            + "nmax = 35\n"
        out = tmp_path / "sweep"
        assert run_cli(["oc", "sweep", "--config", str(write(tmp_path, text)),
                        "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["0", "true"], ["0.9", "false"], ["0", "true"]]
        assert rows[1][2:] == ["nan"] * 10
        assert rows[0] == rows[2] and "nan" not in rows[0]
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[-4:-1] == ["kind_b = composite", "points = 3", "failed = 1"]
        assert summary[-1].startswith("error_0 = rho 0.9: no per-stage size up to 35 "
                                      "reaches power 0.8")

    def test_oc_sweep_uses_every_outcome_sigma(self, tmp_path):
        cfg_path = write(tmp_path, SWEEP_CONFIG)
        rows = {}
        for sigma in ("1", "1,3"):
            out = tmp_path / f"sweep-{sigma}"
            assert run_cli(["oc", "sweep", "--config", str(cfg_path), "--set",
                            f"sigma={sigma}", "--out", str(out)]) == 0
            rows[sigma] = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows["1"] != rows["1,3"]
        cfg = parse_config("oc sweep", load_key_values(cfg_path) | {"sigma": "1,3"})
        for line, rho in zip(rows["1,3"], (0.0, 0.5)):
            fields = line.split(",")
            model = OutcomeModel(sigma=(1.0, 3.0), rho=rho)
            for kind, n_col, ess_col in (("gs", 2, 6), ("composite", 3, 7)):
                spec = _spec_for_kind(cfg, kind)
                real = spec.search(model, null_block(spec.n_stages, model, _sim_config(cfg)))
                assert int(fields[n_col]) == real.n
                assert float(fields[ess_col]) == pytest.approx(real.oc_lfc.ess, rel=1e-5)

    def test_oc_sensitivity_combinations(self, tmp_path):
        text = DTL_CONFIG + "cp_l_values = 0.2, 0.4\ncp_u_values = 0.9\n"
        cfg_path = write(tmp_path, text)
        out = tmp_path / "sens"
        assert run_cli(["oc", "sensitivity", "--config", str(cfg_path),
                        "--out", str(out)]) == 0
        lines = (out / "sensitivity.csv").read_text().splitlines()
        assert lines[0].startswith("cp_l,cp_u,r,n,N,")
        assert len(lines) == 3

    def test_oc_sensitivity_skips_pairs_out_of_order(self, tmp_path):
        text = DTL_CONFIG + "cp_l_values = 0.2, 0.95\ncp_u_values = 0.9\n"
        out = tmp_path / "sens"
        assert run_cli(["oc", "sensitivity", "--config", str(write(tmp_path, text)),
                        "--out", str(out)]) == 0
        rows = (out / "sensitivity.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["0.2", "0.9"]]
        assert "combinations = 1" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("lowers, uppers, key", [
        ("1.5, -0.2", "0.9, 7", "cp_l_values"),
        ("0.2, -0.2", "0.9", "cp_l_values"),
        ("0.2", "0.9, 7", "cp_u_values"),
        ("0.6, 0.9", "0.5, 0.6", "cp_l_values/cp_u_values"),
        ("0.96", "", "cp_l_values/cp_u_values"),  # cp_u = 0.95 fills the upper grid
    ])
    def test_oc_sensitivity_rejects_invalid_threshold_grids(self, tmp_path, capsys,
                                                            monkeypatch, lowers, uppers,
                                                            key):
        patch_simulation(monkeypatch, no_block)
        text = DTL_CONFIG + f"cp_l_values = {lowers}\ncp_u_values = {uppers}\n"
        assert run_cli(["oc", "sensitivity", "--config", str(write(tmp_path, text)),
                        "--out", str(tmp_path / "sens")]) == 2
        assert f"configuration error: {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["grid", "sweep"])
    def test_dtl_kind_takes_its_default_nmin(self, tmp_path, capsys, command):
        # the dtl search starts from n = 2, so nmax = 2 leaves it nothing
        text = DTL_CONFIG.replace("kind = dtl", "kind_a = dtl\nkind_b = gs") \
            .replace("nmin = 2\nnmax = 120\n", "nmax = 2\n")
        assert run_cli(["oc", command, "--config", str(write(tmp_path, text)),
                        "--out", str(tmp_path / command)]) == 2
        assert "configuration error: nmax: require nmin < nmax, got 2 and 2" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_each_null_block_is_drawn_once(self, tmp_path, monkeypatch, name):
        command, text, stage_counts = COMMANDS[name]
        drawn = []
        simulate_null_block = simulate.simulate_null_block

        def counted(schedule, model, cfg, threads=1):
            drawn.append(schedule.n_stages)
            return simulate_null_block(schedule, model, cfg, threads=threads)

        patch_simulation(monkeypatch, counted)
        assert run_cli(command + ["--config", str(write(tmp_path, text)),
                                  "--out", str(tmp_path / "out")]) == 0
        assert drawn == stage_counts

    def test_oc_sweep_draws_each_block_once_and_drops_it_before_the_next_rho(
            self, tmp_path, monkeypatch):
        drawn = []  # (model, stage count, weak reference to the block)
        simulate_null_block = simulate.simulate_null_block

        def tracked(schedule, model, cfg, threads=1):
            assert all(ref() is None for other, _, ref in drawn if other is not model)
            block = simulate_null_block(schedule, model, cfg, threads=threads)
            drawn.append((model, schedule.n_stages, weakref.ref(block)))
            return block

        patch_simulation(monkeypatch, tracked)
        text = DTL_CONFIG.replace("kind = dtl", "kind_a = dtl\nkind_b = single-stage") \
            .replace("seed = 7\nnsims = 4000\nnmin = 2\nnmax = 120\n",
                     "seed = 65\nnsims = 2000\nnmax = 200\nrho_values = 0.0, 0.3, 0.6\n")
        out = tmp_path / "sweep"
        assert run_cli(["oc", "sweep", "--config", str(write(tmp_path, text)),
                        "--out", str(out)]) == 0
        assert [(model.rho[0, 1], j) for model, j, _ in drawn] == \
            [(0.0, 1), (0.0, 2), (0.3, 1), (0.3, 2), (0.6, 1), (0.6, 2)]
        monkeypatch.undo()
        # each row equals both searches on the blocks that null_blocks draws
        cfg = parse_config("oc sweep", load_key_values(tmp_path / "run.cfg"))
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        for line, rho in zip(rows, (0.0, 0.3, 0.6), strict=True):
            model = OutcomeModel.equicorrelated(2, rho)
            blocks = simulate.null_blocks([1, 2], model, _sim_config(cfg))
            a, b = (_spec_for_kind(cfg, kind).search(model, blocks[j], nmax=200)
                    for kind, j in (("dtl", 2), ("single-stage", 1)))
            cells = (rho, True, float(a.n), float(b.n), a.constant, b.constant) \
                + cli._compared(a.oc_lfc, b.oc_lfc)
            assert line == ",".join(_fmt(cell) for cell in cells)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_block_passes_are_pinned(self, tmp_path, monkeypatch, name, threads):
        command, text, _ = COMMANDS[name]
        passes = []
        each_chunk = simulate.StatisticBlock.each_chunk

        def counted(block, fn, chunk_bytes):
            passes.append(block.n_stages)
            return each_chunk(block, fn, chunk_bytes)

        monkeypatch.setattr(simulate.StatisticBlock, "each_chunk", counted)
        assert run_cli(command + ["--config", str(write(tmp_path, text)), "--threads",
                                  str(threads), "--out", str(tmp_path / "out")]) == 0
        assert len(passes) == PASSES[name]

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_outputs_do_not_depend_on_threads(self, tmp_path, monkeypatch, name):
        command, text, _ = COMMANDS[name]
        # 1,000-row simulation chunks and 8 kB pass chunks: every block is
        # drawn, and every pass made, over several chunks
        for module in (gs, dtl):
            monkeypatch.setattr(module, "CHUNK_BYTES", 8 << 10)
        cfg_path = write(tmp_path, text + "chunk_size = 1000\n")
        outputs = {}
        for threads in (1, 2):
            out = tmp_path / f"threads-{threads}"
            assert run_cli(command + ["--config", str(cfg_path), "--threads", str(threads),
                                      "--out", str(out)]) == 0
            outputs[threads] = {path.name: path.read_bytes() for path in out.iterdir()
                                if path.name != "config_echo.txt"}
        assert len(outputs[1]) >= 2
        assert outputs[1] == outputs[2]

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_every_pass_runs_on_the_threads_workers(self, tmp_path, monkeypatch, name):
        command, text, stage_counts = COMMANDS[name]
        # as above: every block is drawn, and every pass made, over several chunks
        for module in (gs, dtl):
            monkeypatch.setattr(module, "CHUNK_BYTES", 8 << 10)
        passes, pools = [], []
        each_chunk = simulate.StatisticBlock.each_chunk

        def counted(block, fn, chunk_bytes):
            passes.append(block.threads)
            return each_chunk(block, fn, chunk_bytes)

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(simulate.StatisticBlock, "each_chunk", counted)
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        cfg_path = write(tmp_path, text + "chunk_size = 1000\n")
        assert run_cli(command + ["--config", str(cfg_path), "--threads", "2",
                                  "--out", str(tmp_path / "out")]) == 0
        assert passes and set(passes) == {2}
        # one 2-worker pool per block drawn and per pass
        assert pools == [2] * (len(stage_counts) + len(passes))

    @pytest.mark.parametrize("kind", ["gs", "composite", "single-stage", "dtl"])
    def test_design_searches_once_through_the_module_function(self, tmp_path, monkeypatch,
                                                               kind):
        # patched as perfbench's tracer patches them: the module attribute, looked up by name
        calls = []
        for module, name in ((gs, "search_gs_design"), (dtl, "search_dtl_design")):
            def counted(*args, _search=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _search(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        config = {"dtl": DTL_CONFIG, "single-stage": GS_CONFIG.replace("J = 3", "J = 1")}
        text = config.get(kind, GS_CONFIG).replace("kind = gs\n", "")
        assert run_cli(["design", kind, "--config", str(write(tmp_path, text)),
                        "--out", str(tmp_path / "out")]) == 0
        assert calls == ["search_dtl_design" if kind == "dtl" else "search_gs_design"]

    def test_kind_conflict_rejected(self, tmp_path, capsys):
        cfg_path = write(tmp_path, GS_CONFIG)
        assert run_cli(["design", "composite", "--config", str(cfg_path)]) == 2

    def test_gs_search_stops_at_nmax(self, tmp_path, capsys, monkeypatch):
        # a small effect needs n > 1000; the search must stop at nmax = 50,
        # after the probes 1, 2, 4, ..., 32 and 50
        probes = []

        def counted(*args, **kwargs):
            probes.append(args)
            return simulate.mean_shift_vector(*args, **kwargs)

        monkeypatch.setattr(gs, "mean_shift_vector", counted)
        cfg_path = write(tmp_path, GS_CONFIG.replace("nsims = 4000", "nsims = 2000")
                         + "nmax = 50\ndelta0 = 0.02\ndelta1 = 0.05\n")
        assert run_cli(["design", "gs", "--config", str(cfg_path),
                        "--out", str(tmp_path / "z")]) == 3
        assert "up to 50" in capsys.readouterr().err
        assert len(probes) <= 7

    @pytest.mark.parametrize("kind, key, value", [
        ("gs", "delta1", "nan"),
        ("gs", "delta", "nan"),
        ("dtl", "cp_grid", "0:nan:0.1"),
        ("gs", "chunk_size", "0"),
        ("gs", "lfc_mode", "bogus"),
        ("gs", "sigma", "nan"),
        ("gs", "nmin", "500"),
        ("dtl", "nmin", "500"),
        ("sweep", "rho_values", "0.0, -0.9"),
        ("grid", "mu_values", ""),
        ("sweep", "rho_values", ""),
        ("sweep", "delta1", "0.4,"),  # K = 3: not 0.4 for every outcome
        ("gs", "delta0", "0.1,,0.1"),  # K = 2: not two values
        ("dtl", "cp_grid", "-4:4:0.0007"),  # 11,430 points
        ("grid-k10", "mu_values", "-0.2, -0.1, 0, 0.1, 0.2, 0.3, 0.4"),  # 7^10 points
    ])
    def test_invalid_input_fails_before_simulation(self, tmp_path, capsys, monkeypatch,
                                                   kind, key, value):
        patch_simulation(monkeypatch, no_block)
        # without nmin/nmax, so nmax takes its default of 400
        pair = GS_CONFIG.replace("kind = gs", "kind_a = gs\nkind_b = composite")
        text = {"gs": GS_CONFIG,
                "dtl": DTL_CONFIG.replace("nmin = 2\nnmax = 120\n", ""),
                "grid": pair,
                "grid-k10": pair.replace("K = 2", "K = 10"),
                "sweep": pair.replace("K = 2", "K = 3")}[kind]
        cfg_path = write(tmp_path, text)
        oc_command = kind.removesuffix("-k10")
        command = ["oc", oc_command] if oc_command in ("grid", "sweep") else ["design", kind]
        assert run_cli(command + ["--config", str(cfg_path), "--set",
                                  f"{key}={value}", "--out", str(tmp_path / "v")]) == 2
        assert f"configuration error: {key}:" in capsys.readouterr().err
