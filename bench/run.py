"""valtrack benchmark: end-to-end and per-layer runs of one workload.

    python3 bench/run.py --workload {sweep,grid,multival} --seed N \
        --seconds S --trace {0,1}

Runs the workload in process through `valtrack.cli.main` as a closed loop:
one client, and the next iteration starts when the previous one has
finished and its output has been checked. The `valtrack` package is
imported from `src/` next to this directory and nowhere else.

--trace 0 measures the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb); --trace 1 alternates untraced and traced iterations and
reports the per-layer metrics. Human-readable lines come first; the last
line of standard output is the result as one JSON object.

See bench/README.md for the workloads, the checks and the metric mapping.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from calibration import REFERENCE_S, calibrate
from workloads import HERE, ROOT, SRC, WORKLOADS, import_valtrack, run_iteration

DIGESTS = os.path.join(HERE, "digests.json")
PROBE = os.path.join(HERE, "probe.py")

MIN_ITERATIONS = 5
CHILD_TIMEOUT_S = 120


class Outcome:
    """Attempted and failed operations, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
            print(f"FAIL {message}", file=sys.stderr)


def run_context(seed: int) -> dict:
    import numpy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a plain checkout has none
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest() -> str:
    """sha256 of src/valtrack/*.py, a commit stand-in where git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "valtrack")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def load_expected(workload, seed: int):
    """(reference seed, recorded digest) for the workload.

    The table covers seeds 0..N-1; for another seed the golden comparison
    uses seed mod N, and the run's own iterations are compared with each
    other.
    """
    with open(DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    entry = table["workloads"][workload.name]
    if entry["signature"] != workload.signature():
        raise RuntimeError(f"digest table was recorded for another {workload.name} "
                           f"size: {entry['signature']!r}")
    digests = entry["digests"]
    ref = seed if str(seed) in digests else seed % len(digests)
    return ref, digests[str(ref)]


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child(mode: str, workload, seed: int, *extra) -> str:
    """Run a probe in a fresh interpreter; return its stdout."""
    args = [mode, workload.name, json.dumps(workload.sizes), str(seed), *extra]
    proc = subprocess.run([sys.executable, PROBE, *args], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {mode} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def setup_probe(workload, seed: int) -> float:
    """Wall time of a fresh interpreter that imports valtrack, parses the
    workload's command lines and config, and exits."""
    start = time.perf_counter()
    child("setup", workload, seed)
    return time.perf_counter() - start


def measure_peak_rss(workload, seed: int, outdir: str, outcome: Outcome,
                     expected: str) -> float:
    """Peak RSS of one iteration in a fresh process, in MiB."""
    out = json.loads(child("rss", workload, seed, fresh_dir(outdir)).splitlines()[-1])
    outcome.record(out["digest"] == expected,
                   f"{workload.name}: fresh-process output digest {out['digest']} "
                   f"!= {expected}")
    return out["maxrss_kb"] / 1024.0


def attempt(outcome: Outcome, label: str, fn, *args):
    """fn(*args), or None after recording its exception as a failure."""
    try:
        return fn(*args)
    except Exception as exc:  # any failure of the program counts as an error
        outcome.record(False, f"{label}: {type(exc).__name__}: {exc}")
        return None


def correctness_checks(valtrack, workload, seed: int, outdir: str, outcome: Outcome,
                       workers_check: bool) -> str:
    """Checks outside the timed loop. Returns the digest every iteration at
    `seed` must reproduce."""
    import invariants

    def digest(at_seed, workers=1):
        return run_iteration(valtrack.cli.main, workload.calls(at_seed, workers),
                             fresh_dir(outdir), io.StringIO())

    ref_seed, golden = load_expected(workload, seed)
    expected = golden
    if ref_seed != seed:
        got = attempt(outcome, f"seed {ref_seed}", digest, ref_seed)
        if got is not None:
            outcome.record(got == golden, f"{workload.name} seed {ref_seed}: digest "
                                          f"{got} != recorded {golden}")
        expected = attempt(outcome, f"seed {seed}", digest, seed)
    problems = attempt(outcome, "invariants", invariants.check, valtrack, workload, seed)
    for problem in problems or ():
        outcome.record(not problem, problem)
    if workers_check and workload.name == "sweep":
        got = attempt(outcome, "sweep --workers 2", digest, seed, 2)
        if got is not None:
            outcome.record(got == expected, f"sweep --workers 2 digest {got} != "
                                            f"--workers 1 digest {expected}")
    return expected


def timed_iteration(main, calls, outdir: str, expected: str, outcome: Outcome,
                    label: str):
    """One checked iteration; returns (wall seconds, cpu seconds)."""
    fresh_dir(outdir)
    sink = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        digest = run_iteration(main, calls, outdir, sink)
        ok, message = digest == expected, f"{label}: digest {digest} != {expected}"
    except Exception as exc:  # any failure of the program counts as an error
        ok, message = False, f"{label}: {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    outcome.record(ok, message)
    return wall, cpu


def end_to_end(valtrack, workload, seed, seconds, outdir, outcome):
    calls = workload.calls(seed)
    expected = correctness_checks(valtrack, workload, seed, outdir, outcome, True)
    peak_rss_mb = measure_peak_rss(workload, seed, outdir, outcome, expected)
    main = valtrack.cli.main
    timed_iteration(main, calls, outdir, expected, outcome, "warm-up")
    # Each iteration and each set-up probe sits between two calibration
    # loops: calib[2i], iteration i, calib[2i+1], probe i, calib[2i+2].
    # Probes spread through the run sample the machine's slow and fast
    # spells as the iterations do.
    walls, cpus, setups, calib = [], [], [], [calibrate()]
    start = time.perf_counter()
    while len(walls) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        wall, cpu = timed_iteration(main, calls, outdir, expected, outcome,
                                    f"iteration {len(walls)}")
        walls.append(wall)
        cpus.append(cpu)
        calib.append(calibrate())
        setups.append(setup_probe(workload, seed))
        calib.append(calibrate())

    def reference_seconds(values, first, k):
        # each value over the mean of the calibration loops on either side
        return statistics.median(
            REFERENCE_S * v / ((calib[2 * i + first][k] + calib[2 * i + first + 1][k]) / 2)
            for i, v in enumerate(values))

    print(f"iterations {len(walls)}; raw medians: wall {statistics.median(walls):.4f} s, "
          f"cpu {statistics.median(cpus):.4f} s, setup {statistics.median(setups):.4f} s; "
          f"calibration loop {statistics.median(c[0] for c in calib):.4f} s "
          f"(reference {REFERENCE_S} s)")
    wall_s, cpu_s = reference_seconds(walls, 0, 0), reference_seconds(cpus, 0, 1)
    setup_s = reference_seconds(setups, 1, 0)
    return {
        "wall_s": (wall_s, "s"),
        "cpu_s": (cpu_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def traced(valtrack, workload, seed, seconds, outdir, outcome):
    import layers
    from tracer import Tracer
    calls = workload.calls(seed)
    expected = correctness_checks(valtrack, workload, seed, outdir, outcome, False)
    main = valtrack.cli.main
    timed_iteration(main, calls, outdir, expected, outcome, "warm-up")
    run_info = {"horizon": 0, "aborted": 0}

    def on_run(args, kwargs, result):
        params = kwargs["params"] if "params" in kwargs else args[1]
        run_info["horizon"] += params.horizon
        run_info["aborted"] += int(result.aborted)

    untraced_walls, samples = [], []
    tracer = Tracer(valtrack, hooks={"engine.run": on_run})
    start = time.perf_counter()
    while len(samples) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        wall, _ = timed_iteration(main, calls, outdir, expected, outcome,
                                  f"untraced iteration {len(samples)}")
        untraced_walls.append(wall)
        with tracer:
            before = (tracer.snapshot(), tracer.covered, dict(run_info))
            wall, _ = timed_iteration(valtrack.cli.main, calls, outdir, expected,
                                      outcome, f"traced iteration {len(samples)}")
            after = (tracer.snapshot(), tracer.covered, dict(run_info))
        samples.append(layers.Sample.between(before, after, wall,
                                             layers.bytes_under(outdir)))
    metrics, table = layers.per_layer(samples, statistics.median(untraced_walls))
    print(table)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    valtrack = import_valtrack()
    workload = WORKLOADS[args.workload]
    context = run_context(args.seed)
    outdir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    outcome = Outcome()
    try:
        measure = traced if args.trace else end_to_end
        metrics = measure(valtrack, workload, args.seed, args.seconds, outdir, outcome)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    context["loadavg_after"] = list(os.getloadavg())
    context["workload"] = args.workload
    context["trace"] = args.trace
    print("context " + json.dumps(context, sort_keys=True))
    failed = len(outcome.failures)
    print(f"{args.workload} error_rate {failed / outcome.attempted:.6g} ratio "
          f"({failed} of {outcome.attempted} operations failed)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
