"""sympgrass benchmark: one workload per run, every result checked.

    python3 bench/run.py --workload {build,sweep,lines,verify} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout that holds src/sympgrass.  The load is a
closed loop with one client: the library's public functions are called in
one process, one job at a time, each after the previous one returned.
Every pass over a workload's fixed job list runs in a fresh interpreter
(bench/worker.py), so the library's caches start empty, as for a CLI user.

1. Bytecode for src/ and bench/ is compiled before anything is timed.
2. setup_s is the median over SETUP_SAMPLES fresh interpreters, after one
   warm-up that is not counted, of the time from start-up to ready: imports,
   GF(q) tables and the workload's inputs.  Half the samples are taken
   before the passes and half after, so that one run's median spans the
   whole run rather than a burst of two seconds.
3. --trace 0 runs untraced passes back to back while another one fits in
   --seconds, at least one; the end-to-end metrics are medians over passes.
   --trace 1 runs an untraced, a traced and another untraced pass.  The
   per-layer metrics come from the traced pass, and trace.overhead_s is its
   job wall time minus the mean of the two untraced ones, which cancels a
   machine that speeds up or slows down steadily during the run.

Children get one OpenBLAS thread and sweeps use one thread; both are
recorded with the other machine facts.  Metric names and units are read
from BENCHMARK.json.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report.  Exit status: 1 if any job failed its check or a pass broke,
2 if the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "sweep", "lines", "verify")
SETUP_SAMPLES = 10
DEADLINE_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class PassError(RuntimeError):
    pass


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from start to ready, its JSON result)."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise PassError(f"{mode} pass of {workload} exited with {proc.returncode}")
    if mode == "setup":
        return ready_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise PassError(f"{mode} pass of {workload} printed no result")
    return ready_s, json.loads(lines[-1])


def percentile_metrics(job_s: list[float]) -> dict[str, tuple[float, str]]:
    cuts = statistics.quantiles(job_s, n=20)
    return {
        "trial_p50_s": (cuts[9], "s"),
        "trial_p95_s": (cuts[18], "s"),
        "trial_samples": (len(job_s), "count"),
    }


def end_to_end(setup_s: list[float], passes: list[dict]) -> dict[str, tuple[float, str]]:
    def med(key):
        return statistics.median(p[key] for p in passes)

    unit = passes[0]["unit"]
    rate = statistics.median(p["work"] / p["wall_s"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    out = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "work_per_s": (rate, "1/s"),
        f"{unit}_per_s": (rate, "1/s"),
        "failed_frac": (sum(p["failed"] for p in passes) / attempted, "fraction"),
    }
    if "job_s" in passes[0]:
        out.update(percentile_metrics([t for p in passes for t in p["job_s"]]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "sympgrass" / "__init__.py").is_file():
        print(f"no src/sympgrass under {ROOT}: not a sympgrass checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for sub in ("src", "bench"):
        if not compileall.compile_dir(ROOT / sub, quiet=1):
            print(f"bytecode compilation of {sub}/ failed", file=sys.stderr)
            return 2

    def sample_setup(count: int) -> list[float]:
        return [spawn(args.workload, args.seed, "setup", deadline)[0] for _ in range(count)]

    try:
        spawn(args.workload, args.seed, "setup", deadline)  # warm-up, not counted
        setup_s = sample_setup(SETUP_SAMPLES // 2)
        passes: list[dict] = []
        start = time.monotonic()
        while True:
            passes.append(spawn(args.workload, args.seed, "run", deadline)[1])
            elapsed = time.monotonic() - start
            if args.trace or elapsed + elapsed / len(passes) > args.seconds:
                break
        traced = None
        if args.trace:
            traced = spawn(args.workload, args.seed, "trace", deadline)[1]
            passes.append(spawn(args.workload, args.seed, "run", deadline)[1])
        setup_s += sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except PassError as exc:
        print(f"benchmark broke: {exc}", file=sys.stderr)
        return 1

    metrics = end_to_end(setup_s, passes)
    every = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    if traced:
        layers = traced["layers"]
        untraced_wall = statistics.mean(p["wall_s"] for p in passes)
        layers["trace.overhead_s"] = traced["wall_s"] - untraced_wall
        wanted = spec["per_layer"]
        final = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                 for m in wanted}
    else:
        wanted = spec["end_to_end"]
        final = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted}

    facts = {key: passes[0][key] for key in ("python", "numpy", "blas", "blas_threads",
                                             "sweep_threads")}
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    facts.update(nproc=os.cpu_count(), cpus_usable=len(affinity) if affinity else None,
                 env=PINNED_ENV, git_revision=git_revision())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "passes": len(passes),
        "setup_samples_s": setup_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layers": traced["layers"] if traced else None,
        "layer_notes": {"codes.table_bytes": "computed from the sweep's table-size rule, "
                                             "not measured"},
        "failures": [f for p in every for f in p["failures"]],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
