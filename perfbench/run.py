"""multiseq benchmark: CLI workloads measured end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design-paper --seed 1 --seconds 20 --trace 0

It runs the workload in one fresh worker process (perfbench/worker.py)
with BLAS/OpenMP pinned to one thread and MULTISEQ_THREADS unset. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
reports per-layer metrics from a traced run. The last line of stdout is
one JSON object: correct, attempted, failed and metrics. A full record
(environment, job list, output hashes, spans) goes to
``.perfbench-out/<workload>-seed<seed>-trace<trace>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MULTISEQ_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def unit_of(name: str) -> str:
    for suffixes, unit in (((".ms_per_pass", ".ms_per_point"), "ms"), ((".s", "_s"), "s"),
                           ((".kbytes",), "kB"), ((".mbytes", "_mb"), "MB"),
                           (("_frac", "_util"), "frac")):
        if name.endswith(suffixes):
            return unit
    return "count"


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics: counts from the first traced repetition (whose
    inputs depend only on the seed), times as medians over traced ones."""
    per_rep = result["layer_metrics"]
    metrics = {name: statistics.median(r[name] for r in per_rep)
               if unit_of(name) in ("s", "ms") else first
               for name, first in per_rep[0].items()}
    traced = [r for r in result["reps"] if r["traced"]]
    plain = [r for r in result["reps"] if not r["traced"]]
    metrics["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in traced)
    metrics["proc.cpu_util"] = statistics.median(r["cpu_s"] / r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                      / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return metrics


def end_to_end_metrics(result: dict) -> dict:
    by_job = {}
    for rec in result["records"]:
        by_job.setdefault(rec["id"], []).append(rec["seconds"])
    failed = sum(1 for rec in result["records"] if rec["problems"])
    return {
        # the job list's wall time: sum over jobs of each job's median
        "wall_s": sum(statistics.median(times) for times in by_job.values()),
        "setup_s": statistics.median(result["setup_launches_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "job_ok_frac": 1.0 - failed / len(result["records"]),
    }


def trace_mismatches(result: dict) -> list:
    """Jobs whose traced outputs differ from the untraced run on the same inputs."""
    hashes = {(r["id"], r["rep"], r["traced"]): r["hashes"] for r in result["records"]}
    return [f"{job_id} rep {rep}" for (job_id, rep, traced), h in hashes.items()
            if traced and h != hashes.get((job_id, rep, False))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multiseq" / "cli.py").is_file():
        print(f"no multiseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = pinned_env()
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    log = out / "worker.log"
    with open(log, "w") as fh:
        # its own process group, so a timeout also stops a set-up launch
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"worker exceeded {WORKER_TIMEOUT_S} s; see {log}", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        sys.stderr.write(log.read_text()[-4000:])
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads((out / "worker.json").read_text())
    (out / "worker.json").unlink()

    records = result["records"]
    failed = [r for r in records if r["problems"]]
    mismatches = trace_mismatches(result) if args.trace else []
    metrics = layer_metrics(result) if args.trace else end_to_end_metrics(result)

    record = dict(result, metrics=metrics, trace_mismatches=mismatches)
    (out / "record.json").write_text(json.dumps(record, indent=1))
    for rec in failed:
        print(f"FAILED {rec['id']} rep {rec['rep']}: {rec['problems']}", file=sys.stderr)
    for item in mismatches:
        print(f"traced output differs: {item}", file=sys.stderr)
    for name in result.get("missing_layer_functions", ()):
        print(f"not traced, the program has no {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not mismatches,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
