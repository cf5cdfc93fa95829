import argparse
import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from xml.etree import ElementTree as ET

import pytest

import valtrack
from valtrack import cli
from valtrack.config import KEYS, build_config, config_values, parse_config, parse_keyvalues
from valtrack.errors import ConfigError
from valtrack.experiments import ExperimentConfig, ternary_sweep
from valtrack.metrics import CrashPredicate, tau
from valtrack.params import MarketParams
from valtrack.svg import render_series_svg, render_ternary_svg
from valtrack.traders import PopulationSpec


# a valid non-default value for every config key, in KEYS order
EVERY_KEY = {
    "market.lambda": "0.05", "market.eta": "0.2", "market.mu": "0.01",
    "market.rho": "2", "market.impact": "powerlaw", "market.zeta": "0.8",
    "market.liquidity": "2", "market.settlement": "current",
    "market.horizon": "120",
    "commit.kv_buy": "0.2", "commit.kv_sell": "0.15", "commit.km_buy": "0.05",
    "commit.km_sell": "0.3", "commit.kr_buy": "0.25", "commit.kr_sell": "0.35",
    "population.val_frac": "0.5", "population.n_vals": "4",
    "population.mo_frac": "0.3", "population.rand_frac": "0.2",
    "population.valuation": "gamma", "population.u": "1.3",
    "population.gamma_shape": "4", "population.gamma_rate": "5",
    "population.cash": "2", "population.p0": "0.9",
    "population.rand_mode": "refined", "population.critical_frac": "0.4",
    "crash.kind": "relative_drop", "crash.value": "0.3",
    "run.m0": "0.01", "run.seed": "77", "run.replicates": "5",
}
EVERY_KEY_TEXT = "".join(f"{key} = {raw}\n" for key, raw in EVERY_KEY.items())


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        cfg = build_config(parse_keyvalues(""))
        assert cfg.market.lam == 0.04
        assert cfg.market.eta == 0.1
        assert cfg.market.mu == 0.002
        assert cfg.market.rho == 4.0
        assert cfg.commitments.kv_buy == 0.1
        assert cfg.market.horizon == 250

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\nmarket.lambda = 0.05\n"
                        "population.mo_frac = 0.3  # inline\n\n")
        cfg = parse_config(path=str(path))
        assert cfg.market.lam == 0.05
        assert cfg.population.mo_frac == 0.3
        assert sum(cfg.population.val_fracs) == pytest.approx(0.7)

    def test_flag_overrides_beat_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("market.lambda = 0.04\n")
        cfg = parse_config(path=str(path), overrides={"market.lambda": "0.05"})
        assert cfg.market.lam == 0.05

    def test_unknown_key_is_line_precise(self):
        with pytest.raises(ConfigError, match=r"<config>:2.*market\.lambada"):
            build_config(parse_keyvalues("market.lambda = 0.04\nmarket.lambada = 1\n"))

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ConfigError, match="mu"):
            build_config(parse_keyvalues("market.mu = 1.5\n"))

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match=":1"):
            build_config(parse_keyvalues("market.lambda 0.04\n"))

    @pytest.mark.parametrize("text", [
        pytest.param(
            "market.lambda = 0.05\nmarket.settlement = current\n"
            f"population.n_vals = {n_vals}\npopulation.mo_frac = 0.2\n"
            "population.rand_frac = 0.3\npopulation.valuation = gamma\n"
            "crash.kind = drop_below\ncrash.value = 0.01\nrun.seed = 77\n",
            id=str(n_vals))
        for n_vals in (1, 10)
    ] + [pytest.param(EVERY_KEY_TEXT, id="every key")])
    def test_round_trip(self, text):
        cfg = build_config(parse_keyvalues(text))
        assert build_config(config_values(cfg)) == cfg

    def test_every_key_is_set_to_a_non_default(self):
        assert list(EVERY_KEY) == list(KEYS)
        values = config_values(build_config(parse_keyvalues(EVERY_KEY_TEXT)))
        defaults = config_values(ExperimentConfig())
        assert [key for key in KEYS if values[key] == defaults[key]] == []

    def test_rho_sets_the_initial_holdings_too(self):
        cfg = parse_config(overrides={"market.rho": "2"})
        assert cfg.market.rho == 2.0
        assert cfg.population.rho == 2.0


class TestCliCommands:
    def test_analyze_prints_analytic_threshold(self, tmp_path, capsys):
        assert cli.main(["analyze", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0.21648" in out

    def test_analyze_csv_schema(self, tmp_path):
        assert cli.main(["analyze", "--kv-buy", "0.1",
                         "--km-sell", "0.12", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "analysis.csv").read_text().strip().splitlines()
        assert lines[0] == "kv_buy,km_sell,alpha_minus,exists,theta"
        assert lines[1].startswith("0.1,0.12,")

    def test_run_writes_csv_sidecar_and_svg(self, tmp_path, capsys):
        code = cli.main(["run", "--mo", "0.3", "--horizon", "20",
                         "--out", str(tmp_path), "--svg", "series.svg"])
        assert code == 0
        csv_path = tmp_path / "run.csv"
        meta_path = tmp_path / "run.csv.meta.json"
        assert csv_path.exists() and meta_path.exists()
        meta = json.loads(meta_path.read_text())
        assert meta["config"]["population.mo_frac"] == 0.3
        assert meta["rng"]["algorithm"] == "PCG64"
        assert "code_version" in meta
        svg_doc = (tmp_path / "series.svg").read_text()
        ET.fromstring(svg_doc)  # well-formed XML

    def test_a_power_law_move_that_overflows_runs_at_the_cap(self, tmp_path, capsys):
        # |imbalance / liquidity| ** 2 overflows a double at every step,
        # which used to exit with an OverflowError traceback
        assert cli.main(["run", "--impact", "powerlaw", "--zeta", "2", "--liquidity", "1e-160",
                         "--mo", "0.5", "--m0", "0.001", "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader((tmp_path / "run.csv").open()))
        assert len(rows) == 251 and all(row["cap_hit"] == "1" for row in rows[1:])

    def test_run_output_is_reproducible_bytes(self, tmp_path):
        args = ["run", "--mo", "0.25", "--rand", "0.25", "--horizon", "30",
                "--seed", "5"]
        cli.main(args + ["--out", str(tmp_path / "a")])
        cli.main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "run.csv").read_bytes() \
            == (tmp_path / "b" / "run.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["run", "--mu", "1.5", "--out", str(tmp_path)]) == 2

    def test_unknown_set_key_exit_code(self, tmp_path):
        assert cli.main(["run", "--set", "market.nope=1",
                         "--out", str(tmp_path)]) == 2

    def test_other_package_errors_exit_code_3(self, tmp_path, capsys):
        # at the pure-Mo point a lone Mo bid moves the price from 10 by
        # e^709, which overflows to inf: InvalidInputError
        assert cli.main(["sweep", "--eta", "709", "--p0", "10", "--m0", "0.001",
                         "--resolution", "2", "--sweep-replicates", "2",
                         "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: price must stay <= ")

    @pytest.mark.parametrize("sizes", [["--resolution", "0"],
                                       ["--sweep-replicates", "0"],
                                       ["--sweep-replicates", "-3"]],
                             ids=["resolution 0", "replicates 0", "replicates -3"])
    def test_sweep_size_flags_below_one_exit_code(self, sizes, tmp_path, capsys):
        assert cli.main(["sweep", *sizes, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "ternary.csv").exists()

    # a config error exits 2 and any other package error 3, each with one
    # stderr line, no traceback and no output file
    @pytest.mark.parametrize("argv, code", [
        (["estimate", "--reps", "0"], 2),
        (["estimate", "--reps", "1"], 2),
        (["estimate", "--n", "1"], 2),
        (["estimate", "--p", "0"], 2),
        (["estimate", "--set", "population.gamma_shape=-1"], 2),
        (["estimate", "--set", "population.gamma_rate=0"], 2),
        (["estimate", "--seed", "-5"], 2),
        (["analyze", "--kv-buy", "0"], 3),
        (["analyze", "--km-buy", "0"], 3),
        (["analyze", "--kv-sell", "0"], 3),
        (["analyze", "--km-sell", "0"], 3),
        (["multival", "--multival-n-vals", "1"], 2),
        (["sweep", "--workers", "0"], 2),
        (["sweep", "--workers", "-3"], 2),
        (["grid", "--workers", "0"], 2),
        (["run", "--workers", "0"], 2),
        (["impact", "--workers", "0"], 2),
        (["multival", "--workers", "0"], 2),
        (["estimate", "--workers", "0"], 2),
        (["analyze", "--workers", "-1"], 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_out_of_range_inputs_exit_code(self, argv, code, tmp_path, capsys):
        assert cli.main([*argv, "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 2 else "error: ")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_impact_output_does_not_depend_on_workers(self, tmp_path, capsys):
        for workers in ("1", "2"):
            assert cli.main(["impact", "--horizon", "100", "--workers", workers,
                             "--out", str(tmp_path / workers)]) == 0
        assert (tmp_path / "1" / "impact.json").read_bytes() \
            == (tmp_path / "2" / "impact.json").read_bytes()

    def test_rho_reaches_the_simulated_holdings(self, tmp_path, capsys):
        def first_wealth(name, *flags):
            assert cli.main(["run", "--horizon", "1", *flags,
                             "--out", str(tmp_path / name)]) == 0
            rows = list(csv.DictReader((tmp_path / name / "run.csv").open()))
            return float(rows[0]["wealth_0"])

        # one valuation trader at p0 = u = 1 with cash 1 holds rho units
        assert first_wealth("default") == 5.0
        assert first_wealth("rho2", "--rho", "2") == 3.0

    def test_estimate_reports_predicted_std(self, tmp_path, capsys):
        code = cli.main(["estimate", "--n", "100", "--reps", "2000",
                         "--p", "1.3", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.05101" in out
        report = json.loads((tmp_path / "estimator.json").read_text())
        assert report["n"] == 100

    def test_estimate_reads_the_gamma_config_keys(self, tmp_path, capsys):
        assert cli.main(["estimate", "--n", "10", "--reps", "20", "--set",
                         "population.gamma_shape=4", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "estimator.json").read_text())
        assert report["tau_true"] == tau(1.3, 4.0 / 8.0)
        meta = json.loads((tmp_path / "estimator.json.meta.json").read_text())
        assert meta["config"]["population.gamma_shape"] == 4.0
        assert meta["estimator"] == {"p": 1.3, "n": 10, "reps": 20}

    def test_sweep_writes_points_and_sidecar(self, tmp_path, capsys):
        code = cli.main(["sweep", "--resolution", "2", "--sweep-replicates",
                         "2", "--m0", "0", "--out", str(tmp_path),
                         "--svg", "tern.svg"])
        assert code == 0
        lines = (tmp_path / "ternary.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # header + 6 simplex points
        ET.fromstring((tmp_path / "tern.svg").read_text())
        svg_meta = json.loads((tmp_path / "tern.svg.meta.json").read_text())
        assert (svg_meta["resolution"], svg_meta["replicates"]) == (2, 2)
        meta = json.loads((tmp_path / "ternary.csv.meta.json").read_text())
        telemetry = meta["telemetry"]
        assert set(telemetry) == {"runs", "steps", "aborted_runs", "batches",
                                  "batch_runs", "wall_s", "steps_per_s"}
        # 25 nats of capped moves in 250 steps cannot reach the price floor;
        # the three points without a random trader run once for both
        # replicates
        assert (telemetry["runs"], telemetry["steps"], telemetry["aborted_runs"]) \
            == (12, 9 * 250, 0)
        assert (telemetry["batches"], telemetry["batch_runs"]) == (1, 12)
        assert telemetry["wall_s"] > 0 and telemetry["steps_per_s"] > 0

    def test_grid_command(self, tmp_path):
        code = cli.main(["grid", "--cells", "2", "--k-plus-min", "0.1",
                         "--k-plus-max", "0.2", "--k-minus-min", "0.1",
                         "--k-minus-max", "0.2", "--settlement", "current",
                         "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
        assert len(lines) == 5

    def test_env_var_default_outdir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        assert cli.main(["run", "--mo", "0.1", "--horizon", "5"]) == 0
        assert (tmp_path / "run.csv").exists()


# the option strings every subcommand accepts, as argparse lists them
COMMON_OPTIONS = [
    "--cash", "--config", "--crash-kind", "--crash-value", "--critical-frac",
    "--eta", "--help", "--horizon", "--impact", "--km-buy", "--km-sell",
    "--kr-buy", "--kr-sell", "--kv-buy", "--kv-sell", "--lambda", "--liquidity",
    "--m0", "--mo", "--mu", "--n-vals", "--out", "--p0", "--rand",
    "--rand-mode", "--replicates", "--rho", "--seed", "--set", "--settlement",
    "--u", "--val", "--valuation", "--workers", "--zeta", "-h"]
SUBCOMMAND_OPTIONS = {
    "run": ["--svg"],
    "sweep": ["--resolution", "--svg", "--sweep-replicates"],
    "grid": ["--cells", "--k-minus-max", "--k-minus-min", "--k-plus-max",
             "--k-plus-min"],
    "impact": [],
    "multival": ["--multival-horizon", "--multival-n-vals"],
    "estimate": ["--n", "--p", "--reps"],
    "analyze": [],
}


def test_every_exported_name_resolves():
    assert [name for name in valtrack.__all__ if not hasattr(valtrack, name)] == []


def test_option_strings_of_every_subcommand():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(SUBCOMMAND_OPTIONS)
    for name, subparser in sub.choices.items():
        options = sorted(o for a in subparser._actions for o in a.option_strings)
        assert options == sorted(COMMON_OPTIONS + SUBCOMMAND_OPTIONS[name]), name


# every command that writes a CSV, with the files it writes
CSV_COMMANDS = {
    "run": (["run", "--mo", "0.3", "--rand", "0.3", "--rand-mode", "refined",
             "--horizon", "40"], ["run.csv"]),
    "sweep": (["sweep", "--resolution", "2", "--sweep-replicates", "2", "--m0", "0"],
              ["ternary.csv"]),
    "grid": (["grid", "--cells", "2", "--settlement", "current"], ["grid.csv"]),
    "multival": (["multival", "--multival-n-vals", "3", "--multival-horizon", "50"],
                 ["multival_histogram.csv", "multival_run.csv"]),
    "analyze": (["analyze"], ["analysis.csv"]),
}


class TestCsvWriter:
    @pytest.mark.parametrize("name", sorted(CSV_COMMANDS))
    def test_files_parse_back_to_the_rows_their_producer_yielded(self, name, tmp_path,
                                                                 monkeypatch, capsys):
        argv, files = CSV_COMMANDS[name]
        produced = {}
        write_csv = cli._write_csv

        def recording_write_csv(path, rows):
            rows = [list(row) for row in rows]
            produced[os.path.basename(path)] = rows
            write_csv(path, rows)

        monkeypatch.setattr(cli, "_write_csv", recording_write_csv)
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert sorted(produced) == files
        for file, rows in produced.items():
            with open(tmp_path / file, newline="", encoding="utf-8") as fh:
                assert list(csv.reader(fh)) == rows
            expected = io.StringIO(newline="")
            csv.writer(expected).writerows(rows)
            assert (tmp_path / file).read_bytes() == expected.getvalue().encode("utf-8")


# command lines that differ only in a size of the command itself, with the
# data files that size changes
SIZE_PAIRS = {
    "grid k bound": (["grid", "--cells", "2"], ["--k-plus-min", "0.1"], ["grid.csv"]),
    "multival horizon": (["multival", "--multival-n-vals", "4", "--multival-horizon", "200"],
                         ["--multival-horizon", "300"],
                         ["multival_run.csv", "multival_histogram.csv"]),
}


@pytest.mark.parametrize("name", sorted(SIZE_PAIRS))
def test_sidecars_tell_apart_command_lines_that_write_different_files(name, tmp_path,
                                                                      capsys):
    argv, change, files = SIZE_PAIRS[name]
    assert cli.main([*argv, "--out", str(tmp_path / "a")]) == 0
    assert cli.main([*argv, *change, "--out", str(tmp_path / "b")]) == 0
    for file in files:
        a, b = tmp_path / "a" / file, tmp_path / "b" / file
        assert a.read_bytes() != b.read_bytes(), file
        meta = file + ".meta.json"
        assert (tmp_path / "a" / meta).read_bytes() != (tmp_path / "b" / meta).read_bytes(), meta


@pytest.mark.parametrize("argv", [
    ["run", "--mo", "0.3", "--horizon", "20", "--svg", "series.svg"],
    ["sweep", "--resolution", "2", "--sweep-replicates", "2", "--svg", "tern.svg"],
], ids=["run", "sweep"])
def test_every_output_file_has_a_sidecar(argv, tmp_path, capsys):
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    names = {f.name for f in tmp_path.iterdir()}
    outputs = {n for n in names if not n.endswith(".meta.json")}
    assert len(outputs) == 2
    assert names == outputs | {n + ".meta.json" for n in outputs}
    for name in outputs:
        assert json.loads((tmp_path / (name + ".meta.json")).read_text())["output"] == name


def test_a_second_call_in_one_process_writes_what_a_fresh_process_writes(tmp_path, capsys):
    """main() reuses one parser per process; overrides of one call must not
    leak into the next."""
    calls = {"with overrides": ["run", "--set", "market.horizon=30", "--mo", "0.25",
                                "--rand", "0.25", "--seed", "5"],
             "without": ["run"]}
    for name, argv in calls.items():
        assert cli.main([*argv, "--out", str(tmp_path / "in_process" / name)]) == 0
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(valtrack.__file__)))
    for name, argv in calls.items():
        subprocess.run([sys.executable, "-m", "valtrack.cli", *argv,
                        "--out", str(tmp_path / "fresh" / name)],
                       env=env, check=True, capture_output=True, timeout=120)
    for name in calls:
        in_process, fresh = tmp_path / "in_process" / name, tmp_path / "fresh" / name
        files = sorted(f.name for f in in_process.iterdir())
        assert files == sorted(f.name for f in fresh.iterdir()) == ["run.csv", "run.csv.meta.json"]
        for file in files:
            assert (in_process / file).read_bytes() == (fresh / file).read_bytes()


def fresh_interpreter(code: str) -> str:
    """The last line that code prints when run in a fresh interpreter that
    imports valtrack from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(valtrack.__file__)))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


def test_set_up_and_deterministic_runs_leave_numpy_unloaded():
    """numpy is about half of the package's start-up time. Only
    valtrack.batch imports it at the top; the engine, seeding and metrics
    import it inside the functions that draw numbers or build arrays, so
    parsing a command line and a config, a Val/Mo run and crash probe and
    the analytic threshold never load it."""
    assert fresh_interpreter("""
        import sys
        import valtrack, valtrack.cli
        from valtrack import analysis, cli
        from valtrack.config import parse_config
        cli.build_parser().parse_args(["grid", "--cells", "3"])
        cfg = parse_config(overrides={"population.mo_frac": 0.25})
        state = valtrack.init_population(cfg.population, m0=cfg.m0)
        valtrack.crash_step(state, cfg.market, cfg.commitments, 0, cfg.crash)
        valtrack.run(state, cfg.market, cfg.commitments, 0, cfg.crash)
        constants = analysis.AnalysisConstants.from_params(cfg.market, cfg.commitments)
        analysis.mo_crash_threshold_analytic(constants, cfg.market.rho)
        print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
    """) == "[]"


def test_deterministic_commands_write_their_sidecars_without_numpy(tmp_path):
    """rng_info reads numpy's version from the installed distribution while
    numpy is unloaded, so the commands that draw no random number, grid,
    impact, analyze and a Val/Mo run, never load it."""
    assert fresh_interpreter(f"""
        import sys
        from valtrack import cli
        for argv in (["grid", "--cells", "1"], ["impact"], ["analyze"], ["run"]):
            assert cli.main([*argv, "--out", {str(tmp_path)!r}]) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
    """) == "[]"
    sidecars = sorted(path.name for path in tmp_path.glob("*.meta.json"))
    assert sidecars == ["analysis.csv.meta.json", "grid.csv.meta.json",
                        "impact.json.meta.json", "run.csv.meta.json"]


def test_rng_info_does_not_change_when_numpy_loads():
    """The installed distribution's version, which rng_info records before
    numpy loads, is numpy.__version__, which it records after."""
    before, after = json.loads(fresh_interpreter("""
        import json
        from valtrack.seeding import rng_info
        before = rng_info()
        import numpy
        print(json.dumps([before, rng_info()]))
    """))
    import numpy
    assert before == after
    assert after["library_version"] == numpy.__version__


class TestSvg:
    def test_single_point_series_renders_a_marker(self):
        doc = render_series_svg([1.0], valuation=1.0)
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert len(root.findall(".//{http://www.w3.org/2000/svg}circle")) == 1

    def test_full_run_renders_polyline_with_all_vertices(self):
        prices = [1.0 + 0.001 * i for i in range(251)]
        doc = render_series_svg(prices, valuation=1.0)
        root = ET.fromstring(doc)
        polyline = root.find(".//{http://www.w3.org/2000/svg}polyline")
        assert polyline is not None
        assert len(polyline.get("points").split()) == 251

    def test_ternary_resolution_one_has_three_cells(self):
        cfg = ExperimentConfig(market=MarketParams(horizon=5),
                               population=PopulationSpec(),
                               crash=CrashPredicate.relative_drop(0.3),
                               m0=0.0, seed=0)
        grid = ternary_sweep(cfg, resolution=1, replicates=1)
        doc = render_ternary_svg(grid)
        root = ET.fromstring(doc)
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 3
