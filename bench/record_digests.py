"""Record the golden output digests in bench/digests.json.

    python3 bench/record_digests.py

Runs one iteration of every workload for workload seeds 0..SEEDS-1 and stores
the sha256 of its data files, together with the workload's command-line
signature. Run it only at a commit whose outputs are known to be right:
bench/run.py counts any later difference as a failed iteration.
"""

import io
import json
import os
import shutil

import run
from workloads import ROOT, WORKLOADS, import_valtrack, run_iteration

SEEDS = 100


def main() -> int:
    valtrack = import_valtrack()
    outdir = os.path.join(ROOT, ".bench_out", f"record-{os.getpid()}")
    table = {"source_sha256": run.source_digest(), "workloads": {}}
    try:
        for name, workload in WORKLOADS.items():
            digests = {}
            for seed in range(SEEDS):
                digests[str(seed)] = run_iteration(valtrack.cli.main, workload.calls(seed),
                                                   run.fresh_dir(outdir), io.StringIO())
            table["workloads"][name] = {"signature": workload.signature(),
                                        "digests": digests}
            print(f"{name}: {SEEDS} seeds, {len(set(digests.values()))} distinct")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
