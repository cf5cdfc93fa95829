"""Golden outputs: sha256 of seeded command outputs at small sizes.

The digests were recorded with the scalar per-replicate sweep that the
batched kernel replaced. Any change to a seeded output, however small,
changes the digest.
"""

import hashlib

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


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_csv_matches_golden_digest(name, tmp_path, capsys):
    argv, digest = GOLDEN_SWEEPS[name]
    assert cli.main([*SWEEP, *argv, "--out", str(tmp_path)]) == 0
    data = (tmp_path / "ternary.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
