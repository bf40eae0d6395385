"""One workload run in a fresh interpreter.

Runs the workload's job list through ``multiseq.cli.main(argv)`` in a
closed loop: one job after another, one repetition of the list after
another, until the time is used. Each job's outputs go through the gate
outside the timed region. Without tracing, each repetition is preceded by
one set-up launch: a fresh interpreter that imports multiseq.cli, so the
set-up samples are spread over the run like the job timings. With
``--trace 1`` untraced and traced repetitions alternate instead, and
repetition i of each kind runs on the same inputs, so their output
hashes must match.

Writes a JSON record to ``<out>/worker.json``; run.py reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
LAUNCH_TIMEOUT_S = 60

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _import_cli():
    from multiseq import cli
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"multiseq was imported from {cli.__file__}, not from {src}")
    return cli


def environment() -> dict:
    """Machine and library facts recorded with every run."""
    import numpy
    import scipy

    facts = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
             "numpy": numpy.__version__, "scipy": scipy.__version__}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.partition(":")[2].strip()
                break
    with contextlib.suppress(OSError):
        facts["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    facts["env"] = {k: v for k, v in os.environ.items()
                    if k.endswith("_THREADS") or k.startswith("MULTISEQ")}
    return facts


def launch_seconds() -> float:
    """Wall seconds of a fresh interpreter that imports multiseq.cli."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import multiseq.cli"], cwd=ROOT)
    # a blocking wait: Popen.wait(timeout) polls in 50 ms steps, which
    # would quantise the measurement; the timer bounds a hung launch
    killer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if code != 0:
        raise SystemExit(f"importing multiseq.cli in a fresh interpreter failed: {code}")
    return time.perf_counter() - t0


def run_rep(cli, workload, seed, rep, jobs, out, trace=None):
    """Run the job list once; returns per-job records and the summed job
    wall and CPU seconds (the gate's own time is left out)."""
    records, wall, cpu = [], 0.0, 0.0
    for job in jobs:
        job_out = out / "jobs" / job.id
        shutil.rmtree(job_out, ignore_errors=True)
        sim_seed = workloads.job_seed(workload, seed, rep, job.id)
        argv = workloads.write_job(job, sim_seed, out / "configs", job_out)
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if trace is None:
                    code = cli.main(argv)
                else:
                    with trace.job(job.id):
                        code = cli.main(argv)
        except Exception:  # a crash is a failed job; keep measuring the rest
            code, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        wall += seconds
        cpu += time.process_time() - c0
        problems, hashes = gate.check_job(job, code, job_out)
        if error:
            problems.append(error)
        records.append({"id": job.id, "rep": rep, "sim_seed": sim_seed,
                        "traced": trace is not None,
                        "seconds": seconds, "exit_code": code,
                        "problems": problems, "hashes": hashes})
    return records, wall, cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    cli = _import_cli()
    jobs = workloads.job_list(args.workload)
    records, reps, launches = [], [], []
    tracers = []
    if not args.trace:
        launch_seconds()  # not counted: it may compile bytecode
    start = time.perf_counter()
    rep = 0
    while True:
        if not args.trace:
            launches.append(launch_seconds())
        recs, wall, cpu = run_rep(cli, args.workload, args.seed, rep, jobs, args.out)
        records += recs
        reps.append({"rep": rep, "traced": False, "wall_s": wall, "cpu_s": cpu})
        if args.trace:
            tracers.append(tracer.Tracer())
            with tracers[-1].installed():
                recs, wall, cpu = run_rep(cli, args.workload, args.seed, rep, jobs,
                                          args.out, trace=tracers[-1])
            records += recs
            reps.append({"rep": rep, "traced": True, "wall_s": wall, "cpu_s": cpu})
        rep += 1
        elapsed = time.perf_counter() - start
        # stop before an iteration that would overrun the measuring time
        if elapsed + elapsed / rep > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "jobs": [{"id": j.id, "command": list(j.command), "config": j.config,
                  "check": j.check} for j in jobs],
        "records": records,
        "reps": reps,
        "setup_launches_s": launches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracers:
        ids = workloads.all_job_ids()
        result["layer_metrics"] = [tracer.layer_metrics(t.spans, ids) for t in tracers]
        result["spans"] = [t.spans for t in tracers]
        result["missing_layer_functions"] = tracers[0].missing
    (args.out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
