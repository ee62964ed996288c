"""One benchmark pass in a fresh interpreter (started by run.py).

    python3 bench/worker.py --workload NAME --seed N --mode {setup,run,trace}

Prints ``ready`` as soon as set-up is done; run.py times the interval from
start-up to that line.  In mode ``setup`` it then exits.  Otherwise it runs
the workload's jobs once, with every result checked, and prints one JSON
line of measurements.  Mode ``trace`` also wraps the layer boundaries
(spans.install) before set-up, and writes its spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    import spans
    import workloads

    import sympgrass

    if Path(sympgrass.__file__).resolve().parent != ROOT / "src" / "sympgrass":
        print(f"sympgrass imported from {sympgrass.__file__}, not this checkout", file=sys.stderr)
        return 2
    setup, unit, per_job = workloads.WORKLOADS[args.workload]
    tr = spans.Tracer() if args.mode == "trace" else spans.NullTracer()
    if tr.enabled:
        spans.install(tr)
    jobs = setup(args.seed, tr)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tr.phase = "jobs"
    result = workloads.run_jobs(jobs)
    result.update(workloads.process_facts(), unit=unit)
    if not per_job:
        del result["job_s"]
    if tr.enabled:
        result["layers"] = tr.metrics(result["wall_s"])
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(tr.dump()))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
