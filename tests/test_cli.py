import argparse
import ast
import csv
import importlib
import io
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

import valtrack
from valtrack import cli, engine, experiments, seeding
from valtrack.config import KEYS, config_values, parse_config
from valtrack.errors import ConfigError
from valtrack.experiments import ExperimentConfig, ternary_sweep
from valtrack.metrics import CrashPredicate, tau
from valtrack.params import CommitmentParams, MarketParams
from valtrack.svg import render_series_svg, render_ternary_svg
from valtrack.traders import MarketState, PopulationSpec, Trader


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


def config_file(tmp_path, text: str) -> str:
    """The path of a config file holding text."""
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_empty_text_gives_defaults(self, tmp_path):
        cfg = parse_config(path=config_file(tmp_path, ""))
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

    def test_unknown_key_is_line_precise(self, tmp_path):
        with pytest.raises(ConfigError, match=r"exp\.cfg:2.*market\.lambada"):
            parse_config(path=config_file(tmp_path, "market.lambda = 0.04\nmarket.lambada = 1\n"))

    def test_out_of_range_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mu"):
            parse_config(path=config_file(tmp_path, "market.mu = 1.5\n"))

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=":1"):
            parse_config(path=config_file(tmp_path, "market.lambda 0.04\n"))

    @pytest.mark.parametrize("text", [
        pytest.param(
            "market.lambda = 0.05\nmarket.settlement = current\n"
            f"population.n_vals = {n_vals}\npopulation.mo_frac = 0.2\n"
            "population.rand_frac = 0.3\npopulation.valuation = gamma\n"
            "crash.kind = drop_below\ncrash.value = 0.01\nrun.seed = 77\n",
            id=str(n_vals))
        for n_vals in (1, 10)
    ] + [pytest.param(EVERY_KEY_TEXT, id="every key")])
    def test_round_trip(self, text, tmp_path):
        cfg = parse_config(path=config_file(tmp_path, text))
        assert parse_config(overrides=config_values(cfg)) == cfg

    def test_every_key_is_set_to_a_non_default(self, tmp_path):
        assert list(EVERY_KEY) == list(KEYS)
        values = config_values(parse_config(path=config_file(tmp_path, EVERY_KEY_TEXT)))
        defaults = config_values(ExperimentConfig())
        assert [key for key in KEYS if values[key] == defaults[key]] == []

    def test_rho_sets_the_initial_holdings_too(self):
        cfg = parse_config(overrides={"market.rho": "2"})
        assert cfg.market.rho == 2.0
        assert cfg.population.rho == 2.0

    @pytest.mark.parametrize("key, value", [
        ("population.mo_frac", 0.25), ("market.lambda", 1), ("run.seed", 7)])
    def test_an_override_of_any_type_is_converted_from_its_string(self, key, value):
        typed, text = (parse_config(overrides={key: v}) for v in (value, str(value)))
        assert typed == text
        # the values the sidecar records, types included
        assert repr(config_values(typed)) == repr(config_values(text))

    @pytest.mark.parametrize("key, value", [
        ("market.horizon", 250.0), ("run.seed", True), ("run.seed", 3.0)])
    def test_an_override_its_key_cannot_parse_is_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"override: cannot parse '{value}' as int"):
            parse_config(overrides={key: value})

    def test_a_config_holds_one_rho(self):
        cfg = parse_config()
        with pytest.raises(ConfigError, match=r"market\.rho 1\.0 != population\.rho 4\.0"):
            replace(cfg, market=replace(cfg.market, rho=1.0))
        with pytest.raises(ConfigError, match=r"market\.rho 4\.0 != population\.rho 2\.0"):
            ExperimentConfig(population=PopulationSpec(rho=2.0))


def from_command_line(*argv) -> ExperimentConfig:
    """The config main() resolves from a run command line."""
    return parse_config(overrides=cli._overrides(cli._parser().parse_args(["run", *argv])))


# every door into a configuration, as door(tmp_path, key, value)
DOORS = {
    "file line": lambda tmp_path, key, value: parse_config(
        path=config_file(tmp_path, f"{key} = {value}\n")),
    "flag": lambda tmp_path, key, value: from_command_line(
        "--" + KEYS[key][2].replace("_", "-"), str(value)),
    "--set": lambda tmp_path, key, value: from_command_line("--set", f"{key}={value}"),
    "typed override": lambda tmp_path, key, value: parse_config(overrides={key: value}),
    "ExperimentConfig": lambda tmp_path, key, value: ExperimentConfig(**{KEYS[key][1]: value}),
    "replace": lambda tmp_path, key, value: replace(parse_config(), **{KEYS[key][1]: value}),
    "MarketParams": lambda tmp_path, key, value: MarketParams(**{KEYS[key][1]: value}),
}
# the doors that build one part in Python, by the part of KEYS they take
PART_DOORS = {"ExperimentConfig": None, "replace": None, "MarketParams": "market"}
# a value no key of its type holds: a bool or a whole float for an int key,
# a non-finite float for a float key
BAD_VALUES = [(key, value) for key in ("run.seed", "run.replicates", "market.horizon")
              for value in (True, 3.0)] + [("run.m0", float("nan")), ("run.m0", float("inf"))]


@pytest.mark.parametrize("door, key, value", [
    (door, key, value) for door in DOORS for key, value in BAD_VALUES
    if PART_DOORS.get(door, KEYS[key][0]) == KEYS[key][0]])
def test_every_door_rejects_a_value_its_key_cannot_hold(door, key, value, tmp_path):
    """A config built in Python follows the rule a flag's string does."""
    with pytest.raises(ConfigError):
        DOORS[door](tmp_path, key, value)


def test_a_float_field_built_from_an_int_holds_what_parse_config_makes_of_it():
    # ExperimentConfig(m0=0, commitments=CommitmentParams(kv_buy=1)) held
    # 0 and 1, which a sidecar writes as 0 and 1, where parse_config of the
    # same values holds 0.0 and 1.0
    built = ExperimentConfig(m0=0, commitments=CommitmentParams(kv_buy=1),
                             market=MarketParams(eta=1), population=PopulationSpec(mo_frac=0))
    parsed = parse_config(overrides={"run.m0": 0, "commit.kv_buy": 1, "market.eta": 1,
                                     "population.mo_frac": 0})
    assert json.dumps(config_values(built)) == json.dumps(config_values(parsed))
    assert type(PopulationSpec(val_fracs=(1,)).val_fracs[0]) is float


@pytest.mark.parametrize("build", [
    lambda: MarketParams(eta=True), lambda: MarketParams(lam="0.04"),
    lambda: CommitmentParams(kv_buy=True), lambda: PopulationSpec(val_fracs=(True,)),
    lambda: PopulationSpec(val_fracs=(1.0,), mo_frac=False), lambda: PopulationSpec(u=None),
], ids=["eta True", "lambda str", "kv_buy True", "val_fracs True", "mo_frac False", "u None"])
def test_a_float_field_rejects_a_bool_and_a_non_number(build):
    with pytest.raises(ConfigError):
        build()


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

    def test_run_svg_draws_the_mean_of_gamma_valuations(self, tmp_path, capsys):
        # gamma(8, 2) valuations have mean 4; population.u, which they never
        # read, stays at its default 1
        assert cli.main(["run", "--valuation", "gamma", "--set", "population.gamma_shape=8",
                         "--set", "population.gamma_rate=2", "--out", str(tmp_path),
                         "--svg", "series.svg"]) == 0
        with open(tmp_path / "run.csv", newline="", encoding="utf-8") as fh:
            prices = [float(row["price"]) for row in csv.DictReader(fh)]
        assert (tmp_path / "series.svg").read_text(encoding="utf-8") \
            == render_series_svg(prices, valuation=4.0)

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

    @pytest.mark.parametrize("out", ["file", "file/out"], ids=["a file", "under a file"])
    def test_an_unusable_output_directory_fails_before_the_command_runs(
            self, out, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "ternary_sweep",
                            lambda *args, **kwargs: pytest.fail("the sweep ran"))
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = str(tmp_path / out)
        assert cli.main(["sweep", "--resolution", "1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot use output directory {out!r}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--svg", "run.csv"], ["run", "--svg", "run.csv.meta.json"],
        ["sweep", "--resolution", "1", "--svg", "ternary.csv"], ["run", "--svg", "sub/x.svg"],
    ], ids=lambda argv: " ".join(argv))
    def test_an_svg_name_that_is_not_a_bare_new_file_name_exits_2(self, argv, tmp_path, capsys):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: --svg must be a bare file name")
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
        assert set(telemetry) == {"loop", "runs", "steps", "aborted_runs", "batches",
                                  "batch_runs", "wall_s", "steps_per_s"}
        assert telemetry["loop"] == ("python" if engine._crash_loop() is None else "compiled")
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

    def test_grid_and_impact_sidecars_name_the_crash_loop_that_ran(self, tmp_path, monkeypatch):
        # the same data files from the compiled loop and from _stepper,
        # where the loader gives None as it does with no compiler; probes
        # of two Val traders or with a random trader step in _stepper
        # whatever the loader gives
        if engine._crash_loop() is None:
            pytest.skip("the compiled crash loop cannot be built here")
        commands = {"grid.csv": [["grid", "--cells", "2"],
                                 ["grid", "--cells", "3", "--n-vals", "2"]],
                    "impact.json": [["impact"], ["impact", "--rand", "0.1"]]}
        data = {}
        for loop in ("compiled", "python"):
            if loop == "python":
                monkeypatch.setattr(engine, "_crash_loop", lambda: None)
            for name, argvs in commands.items():
                for i, (argv, ran) in enumerate(zip(argvs, (loop, "python"))):
                    out = tmp_path / loop / str(i)
                    assert cli.main([*argv, "--horizon", "60", "--out", str(out)]) == 0
                    sidecar = json.loads((out / f"{name}.meta.json").read_text())
                    assert sidecar["telemetry"]["loop"] == ran, argv
                    assert set(sidecar["telemetry"]) == {"loop", "wall_s"}
                    assert sidecar["telemetry"]["wall_s"] > 0
                    data.setdefault((name, i), set()).add((out / name).read_bytes())
        assert [len(files) for files in data.values()] == [1, 1, 1, 1]

    def test_run_and_multival_sidecars_name_the_loop_that_ran(self, tmp_path, monkeypatch,
                                                                capsys):
        # the data files themselves are the golden digests' on both loops;
        # a crash stops neither command, so each counts its whole horizon
        commands = {"run.csv": ["run", "--mo", "0.3", "--horizon", "40"],
                    "multival_run.csv": ["multival", "--multival-n-vals", "2",
                                         "--multival-horizon", "30"]}
        loops = ["python"] if engine._crash_loop() is None else ["compiled", "python"]
        for loop in loops:
            if loop == "python":
                monkeypatch.setattr(engine, "_crash_loop", lambda: None)
            for (name, argv), steps in zip(commands.items(), (40, 30)):
                assert cli.main([*argv, "--out", str(tmp_path / loop)]) == 0
                sidecar = json.loads((tmp_path / loop / f"{name}.meta.json").read_text())
                telemetry = sidecar["telemetry"]
                assert set(telemetry) == {"loop", "steps", "wall_s"}
                assert (telemetry["loop"], telemetry["steps"]) == (loop, steps)
                assert telemetry["wall_s"] > 0
        histogram = json.loads((tmp_path / loop / "multival_histogram.csv.meta.json").read_text())
        assert "telemetry" not in histogram

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


EXPORTS = [
    "CommitmentParams", "MarketParams", "MarketState", "PopulationSpec",
    "Trader", "init_population", "RunResult", "StepRecord", "run", "step",
    "crash_step", "AnalysisConstants", "FixedPointReport", "ReducedState",
    "alpha_fixed_points", "beta_fixed_points", "mo_crash_threshold_analytic",
    "reduce", "reduced_step", "CrashPredicate", "EstimatorReport",
    "estimator_mc", "max_relative_drop", "tau", "tau_hat", "__version__",
]


class TestLazyExports:
    """The package resolves each public name on first use; what it resolves
    to is the object its home module defines."""

    def test_all_is_unchanged(self):
        assert valtrack.__all__ == EXPORTS

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from valtrack import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(EXPORTS)

    def test_dir_lists_every_name(self):
        assert set(EXPORTS) <= set(dir(valtrack))

    @pytest.mark.parametrize("name", EXPORTS[:-1])
    def test_each_name_is_its_home_modules_object(self, name):
        value = getattr(valtrack, name)
        assert getattr(importlib.import_module(value.__module__), name) is value

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            valtrack.no_such_name


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
        write = cli._write

        def recording_write(args, cfg, name, content, extra=None):
            if not isinstance(content, str):  # CSV rows, not a document's text
                content = [list(row) for row in content]
                produced[name] = content
            return write(args, cfg, name, content, extra)

        monkeypatch.setattr(cli, "_write", recording_write)
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
    leak into the next. The sidecars are compared without their telemetry,
    which times the run."""
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
        assert (in_process / "run.csv").read_bytes() == (fresh / "run.csv").read_bytes()
        sidecars = [json.loads((d / "run.csv.meta.json").read_text()) for d in (in_process, fresh)]
        for sidecar in sidecars:
            assert sidecar.pop("telemetry")["loop"] in ("compiled", "python")
        assert sidecars[0] == sidecars[1]


def test_the_shared_set_option_starts_empty_on_every_parse():
    """Every subcommand shares one --set action and its default list; a
    parse must not see the values of an earlier one. (The test above checks
    the same of whole main() calls.)"""
    parser = cli._parser()
    assert parser.parse_args(["run", "--set", "market.eta=0.2"]).sets == ["market.eta=0.2"]
    assert parser.parse_args(["run"]).sets == []
    assert parser.parse_args(["grid"]).sets == []


def fresh_interpreter(code: str) -> str:
    """The last line that code prints when run in a fresh interpreter that
    imports valtrack from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(valtrack.__file__)))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


def test_set_up_and_deterministic_runs_leave_numpy_unloaded():
    """numpy is about half of the package's start-up time. No module of
    the package imports it at the top; the engine, seeding and metrics
    import it inside the functions that draw numbers or build arrays, so
    importing the harnesses, parsing a command line and a config, a Val/Mo
    run and crash probe and the analytic threshold never load it. The run
    steps in the compiled summary loop where it can be built, which builds
    a generator only for a market with a random trader."""
    compiled = engine._crash_loop() is not None
    assert fresh_interpreter("""
        import sys
        import valtrack, valtrack.cli
        from valtrack import analysis, cli, engine, experiments
        from valtrack.config import parse_config
        cli.build_parser().parse_args(["grid", "--cells", "3"])
        cfg = parse_config(overrides={"population.mo_frac": 0.25})
        state = valtrack.init_population(cfg.population, m0=cfg.m0)
        valtrack.crash_step(state, cfg.market, cfg.commitments, 0, cfg.crash)
        valtrack.run(state, cfg.market, cfg.commitments, 0, cfg.crash)
        constants = analysis.AnalysisConstants.from_params(cfg.market, cfg.commitments)
        analysis.mo_crash_threshold_analytic(constants, cfg.market.rho)
        print(engine._crash_loop() is not None, "valtrack.summaries" in sys.modules,
              sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
    """) == f"{compiled} {compiled} []"


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


def test_set_up_loads_only_the_modules_it_runs():
    """Importing the package and the CLI, building the parser and parsing a
    config load no simulator, harness or analytic module."""
    assert fresh_interpreter("""
        import sys
        import valtrack, valtrack.cli
        from valtrack import cli
        from valtrack.config import parse_config
        args = cli.build_parser().parse_args(["grid", "--cells", "3"])
        parse_config(path=args.config, overrides=cli._overrides(args))
        print(sorted(name for name in sys.modules if name.split(".")[0] == "valtrack"))
    """) == str(["valtrack", "valtrack.cli", "valtrack.config", "valtrack.errors",
                 "valtrack.metrics", "valtrack.params", "valtrack.traders"])


def test_a_grid_loads_the_cached_crash_loop_without_a_compiler_or_hash_module(tmp_path):
    """Once the compiled crash loop is in the user cache, a grid loads it
    without subprocess, sysconfig, ctypes or hashlib (whose OpenSSL alone
    adds 3.6 MiB of resident memory), and so does a deterministic run,
    which steps in it. (numpy, which a random run loads, imports ctypes
    and hashlib itself.)"""
    if engine._crash_loop() is None:  # this also fills the cache
        pytest.skip("the compiled crash loop cannot be built here")
    assert fresh_interpreter(f"""
        import sys
        from valtrack import cli, engine
        for argv in (["grid", "--cells", "1"], ["run", "--mo", "0.25"]):
            assert cli.main([*argv, "--out", {str(tmp_path)!r}]) == 0
        print(engine._crash_loop() is not None,
              sorted({{"ctypes", "hashlib", "subprocess", "sysconfig"}} & set(sys.modules)))
    """) == "True []"


def test_grid_and_impact_load_no_full_run_module_and_no_numpy(tmp_path):
    """grid and impact probe through crash_step and run no full run, so
    they load neither summaries, the Python side of the compiled full run
    and sweep summaries, nor numpy: every module a command loads is
    compiled from source in the bench, at a cost in its peak RSS."""
    assert fresh_interpreter(f"""
        import sys
        from valtrack import cli
        for argv in (["grid", "--cells", "1"], ["impact"]):
            assert cli.main([*argv, "--out", {str(tmp_path)!r}]) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] in ("valtrack", "numpy")
                     and name != "valtrack._crashloop"))
    """) == str(["valtrack", "valtrack.analysis", "valtrack.cli", "valtrack.config",
                 "valtrack.engine", "valtrack.errors", "valtrack.experiments",
                 "valtrack.metrics", "valtrack.params", "valtrack.seeding", "valtrack.traders"])


def test_the_svg_module_loads_no_harness_and_no_numpy():
    assert fresh_interpreter("""
        import sys
        import valtrack.svg
        print(sorted(name for name in sys.modules
                     if name.split(".")[0] in ("valtrack", "numpy")))
    """) == str(["valtrack", "valtrack.errors", "valtrack.svg"])


def test_analyze_loads_no_simulator_and_no_numpy(tmp_path):
    """analyze runs the analytic module only; the CSV schema it writes is
    in cli, so it loads neither the harnesses nor the engine."""
    assert fresh_interpreter(f"""
        import sys
        from valtrack import cli
        assert cli.main(["analyze", "--out", {str(tmp_path)!r}]) == 0
        print(sorted(name for name in sys.modules
                     if name.split(".")[0] in ("valtrack", "numpy")))
    """) == str(["valtrack", "valtrack.analysis", "valtrack.cli", "valtrack.config",
                 "valtrack.errors", "valtrack.metrics", "valtrack.params",
                 "valtrack.seeding", "valtrack.traders"])


@pytest.mark.parametrize("valuation, loads_numpy", [("fixed", False), ("gamma", True)],
                         ids=["fixed", "gamma"])
def test_a_sweep_pool_starts_after_its_parent_loads_the_compiled_loop(valuation, loads_numpy):
    """A sweep on more than one process loads the compiled loops in the
    parent before the pool forks its workers, which then do not load them
    again, and numpy only for gamma valuations, which it draws: the
    compiled loops seed the random traders' streams themselves."""
    assert fresh_interpreter(f"""
        import concurrent.futures, os, sys
        from valtrack import engine, experiments
        from valtrack.config import parse_config

        class SerialPool:
            def __init__(self, max_workers):
                print(max_workers, engine._crash_loop.cache_info().currsize,
                      "numpy" in sys.modules)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        concurrent.futures.ProcessPoolExecutor = SerialPool
        os.cpu_count = lambda: 2
        config = parse_config(overrides={{"population.valuation": {valuation!r}}})
        experiments.ternary_sweep(config, 1, 2, workers=2)
    """) == f"2 1 {loads_numpy}"


@pytest.mark.parametrize("argv", [
    ["sweep", "--resolution", "2", "--sweep-replicates", "3", "--horizon", "20",
     "--workers", "1"],
    ["sweep", "--resolution", "2", "--sweep-replicates", "3", "--horizon", "20",
     "--workers", "2"],
    ["run", "--rand", "0.2"],
], ids=["sweep one worker", "sweep two workers", "run rand"])
def test_random_traders_with_fixed_valuations_leave_numpy_unloaded(argv, tmp_path):
    """The compiled loops seed and step the random traders' PCG64 streams
    themselves, so a fixed-valuation sweep, in its one process or in each
    process of a pool, and a run with a random trader never load numpy
    where the loops can be built; their sidecars still name numpy's PCG64
    (rng_info)."""
    if engine._crash_loop() is None:
        pytest.skip("the compiled loops cannot be built here")
    assert fresh_interpreter(f"""
        import sys
        from valtrack import cli, experiments

        batch_task = experiments._ternary_batch_task

        def checked_batch_task(args):
            result = batch_task(args)
            assert "numpy" not in sys.modules, "a sweep batch loaded numpy"
            return result

        experiments._ternary_batch_task = checked_batch_task
        assert cli.main([*{argv!r}, "--out", {str(tmp_path)!r}]) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
    """) == "[]"
    [sidecar] = tmp_path.glob("*.csv.meta.json")
    assert json.loads(sidecar.read_text())["rng"]["algorithm"] == "PCG64"


@pytest.mark.parametrize("argv, loads_analysis", [
    (["multival", "--multival-n-vals", "2", "--multival-horizon", "5"], False),
    (["sweep", "--resolution", "1", "--sweep-replicates", "1", "--horizon", "5"], False),
    (["grid", "--cells", "1"], True),
], ids=["multival", "sweep", "grid"])
def test_which_commands_load_the_analytic_module(argv, loads_analysis, tmp_path):
    assert fresh_interpreter(f"""
        import sys
        from valtrack import cli
        assert cli.main([*{argv!r}, "--out", {str(tmp_path)!r}]) == 0
        print("valtrack.analysis" in sys.modules)
    """) == str(loads_analysis)


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


# numpy's names for building a random stream
STREAM_BUILDERS = {"Generator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
                   "SeedSequence", "RandomState", "default_rng"}


def test_only_seeding_builds_a_random_stream():
    """seeding.generator builds every random stream in Python, and the
    compiled loop seeds the streams it steps as that generator seeds them:
    a one-step run of a lone basic random trader that commits all of its
    cash and asset 1 at price 1 records the stream's first two uniforms as
    q_p and q_s. So the algorithm that rng_info records in each sidecar is
    the one every stream uses."""
    builders = {}
    for path in sorted(Path(valtrack.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        names = ({n.id for n in nodes if isinstance(n, ast.Name)}
                 | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
                 | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})
        if names & STREAM_BUILDERS:
            builders[path.name] = sorted(names & STREAM_BUILDERS)
    assert builders == {"seeding.py": ["Generator", "PCG64"]}
    bit_generator = seeding.generator(0).bit_generator
    assert seeding.rng_info()["algorithm"] == type(bit_generator).__name__
    if engine._crash_loop() is not None:
        state = MarketState(1.0, 0.0, [Trader(1.0, 1.0, "rand")], 1.0, 1.0)
        params, commitments = MarketParams(horizon=1), CommitmentParams(kr_buy=1.0, kr_sell=1.0)
        for seed in [0, 2**64 - 1, seeding.mix_seed(7, 1)]:
            [record] = engine.run(state, params, commitments, seed,
                                  CrashPredicate.drop_below(1e-9)).records
            assert [record.q_p, record.q_s] == seeding.generator(seed).random(2).tolist()


def test_every_import_is_used():
    """An import the code no longer uses is a dead dependency, and one of a
    module costs its load time."""
    unused = []
    for path in sorted(Path(valtrack.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []



def test_every_private_module_name_is_used():
    """A module-level name with one leading underscore is the package's own;
    one that no module of the package loads is a leftover."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(valtrack.__file__).parent.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    loaded = ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
              | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
              | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})
    unused = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else \
                    [node.target] if isinstance(node, ast.AnnAssign) else []
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            unused += [f"{file}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in loaded]
    assert unused == []

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
