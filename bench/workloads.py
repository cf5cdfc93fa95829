"""Workload definitions: the valtrack command lines one benchmark iteration
runs, the data files it must produce, and their digest.

An iteration calls `valtrack.cli.main` once per command line, in process and
with `--workers 1`, then hashes the data files. Sidecars (`*.meta.json`) are
not hashed, because they are meant to gain telemetry keys that vary between
runs.
"""

import contextlib
import hashlib
import os
import sys
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIG_DIR = os.path.join(HERE, "configs")


def import_valtrack():
    """Import valtrack from ROOT/src and nowhere else; exit with status 1
    when it is not there."""
    sys.path.insert(0, SRC)
    try:
        import valtrack
        import valtrack.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import valtrack from {SRC}: {exc}")
    found = os.path.dirname(os.path.abspath(valtrack.__file__))
    if found != os.path.join(SRC, "valtrack"):
        sys.exit(f"bench: valtrack imported from {found}, not from {SRC}")
    return valtrack


@dataclass(frozen=True)
class Call:
    """One `valtrack` command line; `subdir` is its output directory
    relative to the iteration's output directory."""

    subdir: str
    argv: tuple
    data_files: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    sizes: dict = field(default_factory=dict)

    @property
    def config_path(self) -> str:
        return os.path.join(CONFIG_DIR, self.config)

    def calls(self, seed: int, workers: int = 1) -> list:
        """The command lines of one iteration at workload seed `seed`."""
        common = ["--config", self.config_path, "--workers", str(workers)]
        if self.name == "sweep":
            return [Call(".", ("sweep", *common, "--seed", str(seed),
                               "--resolution", str(self.sizes["resolution"]),
                               "--sweep-replicates", str(self.sizes["replicates"])),
                         ("ternary.csv",))]
        if self.name == "grid":
            return [Call(settlement, ("grid", *common, "--seed", str(seed),
                                      "--settlement", settlement,
                                      "--cells", str(self.sizes["cells"])),
                         ("grid.csv",))
                    for settlement in ("current", "updated")] + [
                Call("impact", ("impact", *common, "--seed", str(seed)),
                     ("impact.json",))]
        if self.name == "multival":
            runs = self.sizes["runs"]
            return [Call(f"run{i}", ("multival", *common,
                                     "--seed", str(seed * runs + i),
                                     "--multival-n-vals", str(self.sizes["n_vals"]),
                                     "--multival-horizon", str(self.sizes["horizon"])),
                         ("multival_run.csv", "multival_histogram.csv"))
                    for i in range(runs)]
        raise ValueError(f"unknown workload {self.name!r}")

    def signature(self) -> str:
        """Command lines at seed 0 with the config path made relative; the
        digest table is valid only for the signature it was recorded with."""
        lines = []
        for call in self.calls(0):
            argv = [os.path.basename(a) if a == self.config_path else a
                    for a in call.argv]
            lines.append(" ".join([call.subdir, *argv]))
        return " | ".join(lines)


WORKLOADS = {
    "sweep": Workload("sweep", "sweep.conf", {"resolution": 5, "replicates": 8}),
    "grid": Workload("grid", "grid.conf", {"cells": 3}),
    "multival": Workload("multival", "multival.conf",
                         {"runs": 8, "n_vals": 10, "horizon": 1000}),
}


def output_digest(calls, outdir: str) -> str:
    """sha256 over the data files of `calls`, each prefixed by its path."""
    h = hashlib.sha256()
    for call in calls:
        for name in call.data_files:
            rel = os.path.normpath(os.path.join(call.subdir, name))
            with open(os.path.join(outdir, rel), "rb") as fh:
                data = fh.read()
            h.update(f"{rel}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def run_iteration(main, calls, outdir: str, devnull) -> str:
    """Run the command lines through `main` and return the output digest.

    Raises RuntimeError on a non-zero exit code. `devnull` receives the
    commands' one-line reports.
    """
    with contextlib.redirect_stdout(devnull):
        for call in calls:
            argv = [*call.argv, "--out", os.path.join(outdir, call.subdir)]
            code = main(argv)
            if code != 0:
                raise RuntimeError(f"valtrack {call.argv[0]} exited with {code}")
    return output_digest(calls, outdir)
