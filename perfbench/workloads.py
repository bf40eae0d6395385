"""Workload definitions: each workload is a list of CLI jobs.

A job is one ``multiseq design ...`` or ``multiseq oc ...`` invocation
with a generated configuration file. The only input that varies with the
workload seed is each job's simulation seed, so the amount of work stays
the same from seed to seed while the program never sees a fixed input.
Repetition ``rep`` of a job list draws its own simulation seeds, so a
cache kept inside one process cannot serve a later repetition.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

ALPHA = 0.025
BETA = 0.2
RHO = 0.3

# Every search sets nmax explicitly and well above the n it finds, so the
# jobs stay feasible once the CLI honours nmax for gs/composite searches.
NMAX = 400
SMALL_EFFECT_NMAX = 2000

OUTPUT_FILES = {
    "design": ("config_echo.txt", "summary.txt", "boundaries.csv"),
    "design-dtl": ("config_echo.txt", "summary.txt", "cp_lookup.csv"),
    "grid": ("config_echo.txt", "summary.txt", "grid.csv"),
    "sweep": ("config_echo.txt", "summary.txt", "sweep.csv"),
}


@dataclass(frozen=True)
class Job:
    id: str
    command: tuple      # CLI words before the flags, e.g. ("design", "gs")
    config: dict        # key-value entries written to the job's config file
    check: str          # "design", "grid" or "sweep": which gate applies

    @property
    def outputs(self) -> tuple:
        if self.check == "design":
            return OUTPUT_FILES["design-dtl" if self.command[1] == "dtl" else "design"]
        return OUTPUT_FILES[self.check]


def _design(job_id, kind, **cfg):
    return Job(job_id, ("design", kind), cfg, "design")


def _paper(nsims):
    common = dict(alpha=ALPHA, beta=BETA, rho=RHO, delta0=0.2, delta1=0.4,
                  nsims=nsims, nmax=NMAX, threads=1)
    return [
        _design("paper.gs-k2", "gs", K=2, m=1, J=3, **common),
        _design("paper.composite-k2", "composite", K=2, m=1, J=3, **common),
        _design("paper.gs-k3-m1", "gs", K=3, m=1, J=3, **common),
        _design("paper.gs-k3-m2", "gs", K=3, m=2, J=3, **common),
        _design("paper.composite-k3", "composite", K=3, m=1, J=3, **common),
        _design("paper.single-stage-k3", "single-stage", K=3, m=1, **common),
        _design("paper.dtl-k2", "dtl", K=2, m=1, k_max=1, **common),
        _design("paper.dtl-k3", "dtl", K=3, m=1, k_max=1, **common),
        _design("paper.dtl-k6", "dtl", K=6, m=3, k_max=3, **common),
        _design("paper.gs-k10", "gs", K=10, m=5, J=3, **common),
    ]


def _small_effect(nsims):
    common = dict(alpha=ALPHA, beta=BETA, rho=RHO, delta0=0.05, delta1=0.1,
                  nsims=nsims, nmax=SMALL_EFFECT_NMAX, threads=1)
    return [
        _design("small.gs-k2", "gs", K=2, m=1, J=3, **common),
        _design("small.composite-k2", "composite", K=2, m=1, J=3, **common),
    ]


def _oc_compare(nsims):
    common = dict(alpha=ALPHA, beta=BETA, rho=RHO, delta0=0.2, delta1=0.4,
                  nsims=nsims, nmax=NMAX, threads=1)
    return [
        Job("oc.grid-dtl-k3", ("oc", "grid"),
            dict(K=3, m=1, k_max=1, kind_a="dtl", kind_b="single-stage",
                 mu_values="-0.2,-0.1,0,0.1,0.2,0.3,0.4", **common), "grid"),
        Job("oc.grid-gs-k2", ("oc", "grid"),
            dict(K=2, m=1, J=3, kind_a="gs", kind_b="composite",
                 mu_values="-0.2,-0.1,0,0.1,0.2,0.3,0.4", **common), "grid"),
        Job("oc.sweep-gs-k2", ("oc", "sweep"),
            dict(K=2, m=1, J=3, kind_a="gs", kind_b="composite",
                 rho_values="0,0.3,0.6", **common), "sweep"),
    ]


def _large_block(nsims):
    # large effects keep n, and so the power probes, small: the time goes
    # into simulating and calibrating on the big block
    threads = min(2, os.cpu_count() or 1)
    return [
        _design("large.gs-k10-j5", "gs", K=10, m=5, J=5, alpha=ALPHA, beta=BETA,
                rho=RHO, delta0=0.4, delta1=0.8, nsims=nsims, nmax=NMAX,
                threads=threads),
    ]


# name -> (nsims, job-list builder, why)
WORKLOADS = {
    "design-paper": (15_000, _paper,
                     "the paper's design searches; calibration block passes dominate"),
    "search-small-effect": (20_000, _small_effect,
                            "small effects, n near 300: the sample-size search dominates"),
    "oc-compare": (10_000, _oc_compare,
                   "effect grids and a correlation sweep: per-effect evaluation dominates"),
    "large-block": (500_000, _large_block,
                    "a 200 MB block on 2 threads: simulation and memory growth with nsims"),
}


def job_list(workload: str) -> list:
    nsims, build, _ = WORKLOADS[workload]
    return build(nsims)


def all_job_ids() -> list:
    """Ids of every job of every workload, in workload order."""
    return [job.id for name in WORKLOADS for job in job_list(name)]


def job_seed(workload: str, seed: int, rep: int, job_id: str) -> int:
    """Simulation seed of one job in one repetition of the job list."""
    return random.Random(f"{workload}/{seed}/{rep}/{job_id}").randrange(1, 2**31)


def write_job(job: Job, sim_seed: int, jobs_dir: Path, out_dir: Path) -> list:
    """Write the job's config file and return the CLI argv for it."""
    jobs_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = jobs_dir / f"{job.id}.cfg"
    lines = [f"{key} = {value}" for key, value in job.config.items()]
    lines.append(f"seed = {sim_seed}")
    cfg_path.write_text("\n".join(lines) + "\n")
    return [*job.command, "--config", str(cfg_path), "--out", str(out_dir)]
