"""Golden outputs: sha256 of seeded command outputs at small sizes.

The sweep digests were recorded with the scalar per-replicate sweep that
the batched kernel replaced; the digests of the other commands were
recorded before the scalar step was reduced to one capped impact path,
and the current-settlement grid and stochastic impact digests before the
bisection probes became summary-only (engine.crash_step). Any change to a
seeded output, however small, changes the digest.

The sidecar digests cover everything a sidecar records but the sweep's
timing telemetry and the RNG identification (it names the numpy version):
the resolved configuration, command, output name, seed, code version and
the command's own sizes. They were recorded before the configuration keys,
defaults and flags were derived from one table, except the grid and
multival ones: those were re-recorded when the grid sidecar gained its four
k bounds and the multival sidecars the run's horizon and n_vals, sizes
without which two different data files had identical sidecars.
"""

import hashlib
import json

import pytest

from valtrack import cli

SWEEP = ["sweep", "--resolution", "3", "--sweep-replicates", "3"]

GOLDEN_SWEEPS = {
    "desk fixture": (
        ["--rand-mode", "refined", "--crash-kind", "relative_drop",
         "--crash-value", "0.3", "--m0", "0", "--seed", "7"],
        "6eb4cdc11fee617cda6cdbef50609321b31ab44246babdace977206cc9010ff3"),
    "basic rand, gamma valuations": (
        ["--valuation", "gamma", "--n-vals", "2", "--rand-mode", "basic",
         "--seed", "3"],
        "d3333917303cf6e843e5aba7c90142379de3e19e5ac9a8e8804c8be71031b35e"),
    "power-law impact, current settlement": (
        ["--impact", "powerlaw", "--zeta", "0.8", "--settlement", "current",
         "--rand-mode", "refined", "--seed", "5"],
        "6dfbf26a549890a33db9e55239de7e76936371f9cae31a9f3c613c4609bb2b8c"),
    "deciblack drop with a 120-step horizon": (
        ["--crash-kind", "deciblack_drop", "--crash-value", "2",
         "--horizon", "120", "--seed", "11"],
        "fd6c13bace75562543ceed2d3b5a93a4a3f24af982e88d17295e641522508d17"),
}

# a Val/Mo/Rand market whose records cover q_p, q_s, executed and cap_hit
RUN = ["run", "--mo", "0.3", "--rand", "0.3", "--rand-mode", "refined",
       "--horizon", "120", "--seed", "4"]

GOLDEN_COMMANDS = {
    "run, ratio impact, updated settlement": (
        [*RUN, "--impact", "ratio", "--settlement", "updated"],
        {"run.csv": "504cf5e5556ef42137b559f9565ac4599e8fb85cc670a7bff7a42410cd493d14"}),
    "run, ratio impact, current settlement": (
        [*RUN, "--impact", "ratio", "--settlement", "current"],
        {"run.csv": "1216a4369a4499fa4722473738370adf5cc4e632589243423e2bfb6de2b8c0e6"}),
    "run, power-law impact, updated settlement": (
        [*RUN, "--impact", "powerlaw", "--zeta", "0.8", "--settlement", "updated"],
        {"run.csv": "10a9d8ca32dd40a78a260a2b517f80b636aa47574d490ba098fd50ef55e16e03"}),
    "run, power-law impact, current settlement": (
        [*RUN, "--impact", "powerlaw", "--zeta", "0.8", "--settlement", "current"],
        {"run.csv": "12be7f66c6f4933737265c7c89ea09ecfa081f6a22b04eb9fad91ca74551e611"}),
    "grid": (
        ["grid", "--cells", "2", "--seed", "3"],
        {"grid.csv": "50c43c98366287150d98cd68f4cf9a73e7f182175082e8688400c64da37c7cd4"}),
    "grid, current settlement": (
        ["grid", "--cells", "2", "--settlement", "current", "--seed", "3"],
        {"grid.csv": "80e85dfa58eb9c77ebc5adc0990d8f80ce9c00b3713368739adc6769ea379436"}),
    "impact": (
        ["impact", "--seed", "3"],
        {"impact.json": "3deb48b94d5478818bb7623d226fc17edff098ab9600d7d915a7fc0b1351008a"}),
    # majority votes over replicates whose random trader draws every step
    "impact, stochastic bisection": (
        ["impact", "--rand", "0.1", "--replicates", "3", "--horizon", "120", "--seed", "3"],
        {"impact.json": "92d4cb75b03848c8886e14ace0a4019886e28abe152f5673f26f217dab617560"}),
    "multival": (
        ["multival", "--multival-n-vals", "4", "--multival-horizon", "200", "--seed", "5"],
        {"multival_run.csv":
             "e90439776564dc4f866799388100201cae1ba51ab54a38c07f773d4ecfe38f55",
         "multival_histogram.csv":
             "5bafd939cdcca9758f7bb0bf44746528ca88d82c2f3a0a35d5b3d96a5eec56d1"}),
    "estimate": (
        ["estimate", "--n", "50", "--reps", "400", "--seed", "6"],
        {"estimator.json": "c8af77639b522213e98a4df78b496e50fdec4bf2540ebd98903f8d3541105ad4"}),
    "analyze": (
        ["analyze"],
        {"analysis.csv": "5a9c1abbf841f1cf40478a8b72d7ab0fa454f75ccd4f5d67f6acf07e8e44bda0"}),
}

# sidecar digests of one command line per command that runs the simulator
GOLDEN_SIDECARS = {
    "desk fixture": (
        [*SWEEP, *GOLDEN_SWEEPS["desk fixture"][0]],
        {"ternary.csv.meta.json":
             "1f9ae7267facb56fe94a8a6edaa677470e3261cea6f2c7aea4def0c91f0b79cf"}),
    "run, ratio impact, updated settlement": (
        GOLDEN_COMMANDS["run, ratio impact, updated settlement"][0],
        {"run.csv.meta.json":
             "74be5853f814dff5882b9360e6f7f1803c17929f6899947a511a6e8653b4ca40"}),
    "grid": (
        GOLDEN_COMMANDS["grid"][0],
        {"grid.csv.meta.json":
             "0aa608713aaeb81736b668651c1601907af188aedde489b4ce72d31d32e0788b"}),
    "grid, current settlement": (
        GOLDEN_COMMANDS["grid, current settlement"][0],
        {"grid.csv.meta.json":
             "87f72b65f038231e86b546485fe929b9613c1b309315981e3acd4ecc5d204c29"}),
    "multival": (
        GOLDEN_COMMANDS["multival"][0],
        {"multival_run.csv.meta.json":
             "9362e86b7c548cec74c5b7f89e421a72e7c87c8ba25c2271f15cb9fe4071a79c",
         "multival_histogram.csv.meta.json":
             "8a8bb966fab482e1392d16587c60663d8b04931e212dfc7a0c1d70cb8eb7a379"}),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sidecar_sha256(path):
    sidecar = json.loads(path.read_text())
    del sidecar["rng"]
    sidecar.pop("telemetry", None)
    return hashlib.sha256(json.dumps(sidecar, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_csv_matches_golden_digest(name, tmp_path, capsys):
    argv, digest = GOLDEN_SWEEPS[name]
    assert cli.main([*SWEEP, *argv, "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "ternary.csv") == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_command_outputs_match_golden_digests(name, tmp_path, capsys):
    argv, digests = GOLDEN_COMMANDS[name]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert {f: sha256(tmp_path / f) for f in digests} == digests


@pytest.mark.parametrize("name", sorted(GOLDEN_SIDECARS))
def test_sidecars_match_golden_digests(name, tmp_path, capsys):
    argv, digests = GOLDEN_SIDECARS[name]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert {f: sidecar_sha256(tmp_path / f) for f in digests} == digests
