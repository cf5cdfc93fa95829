"""Fresh-interpreter probes for bench/run.py.

    python3 bench/probe.py setup WORKLOAD SIZES SEED
        import valtrack and parse the workload's command lines and config,
        then exit; the caller times the whole process.
    python3 bench/probe.py rss WORKLOAD SIZES SEED OUTDIR
        run one iteration and print {"maxrss_kb": ..., "digest": ...}.

SIZES is the workload's size mapping as JSON.
"""

import dataclasses
import io
import json
import resource
import sys

from workloads import WORKLOADS, import_valtrack, run_iteration


def peak_rss_kb() -> int:
    """Peak RSS of this process image. VmHWM restarts at exec; ru_maxrss
    would also count the parent's pages this process held before its exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    mode, name, sizes, seed = argv[0], argv[1], json.loads(argv[2]), int(argv[3])
    valtrack = import_valtrack()
    workload = dataclasses.replace(WORKLOADS[name], sizes=sizes)
    calls = workload.calls(seed)
    if mode == "setup":
        from valtrack.config import parse_config
        parser = valtrack.cli.build_parser()
        for call in calls:
            args = parser.parse_args(list(call.argv))
            parse_config(path=args.config, overrides={"run.seed": args.seed})
        return 0
    if mode == "rss":
        digest = run_iteration(valtrack.cli.main, calls, argv[4], io.StringIO())
        print(json.dumps({"maxrss_kb": peak_rss_kb(), "digest": digest}))
        return 0
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
