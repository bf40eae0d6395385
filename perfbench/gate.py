"""Correctness gate for one job's outputs.

The gate does not depend on the simulation seed. A job fails when

- it exits non-zero or a documented output file is missing;
- a design's alpha_star is more than 4 binomial SEs from the target alpha,
  or its power_star is below 1 - beta;
- a grid has a row count other than |mu values|^K, or its all-zero row
  rejects more than 4 SEs away from the design's alpha_star;
- a sweep reports failed points or an invalid row.

The sha256 of summary.txt and of every CSV is recorded, not gated.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

SE_LIMIT = 4.0


def _summary(path: Path) -> dict:
    entries = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key] = value
    return entries


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _se(alpha: float, nsims: int) -> float:
    return math.sqrt(alpha * (1.0 - alpha) / nsims)


def _check_design(cfg: dict, summary: dict, out: Path) -> list:
    alpha, beta, nsims = float(cfg["alpha"]), float(cfg["beta"]), int(cfg["nsims"])
    problems = []
    alpha_star = float(summary["alpha_star"])
    if abs(alpha_star - alpha) > SE_LIMIT * _se(alpha, nsims):
        problems.append(f"alpha_star {alpha_star} is more than {SE_LIMIT} SE from {alpha}")
    power_star = float(summary["power_star"])
    if power_star < 1.0 - beta:
        problems.append(f"power_star {power_star} < {1.0 - beta}")
    return problems


def _check_grid(cfg: dict, summary: dict, out: Path) -> list:
    alpha, nsims, k = float(cfg["alpha"]), int(cfg["nsims"]), int(cfg["K"])
    n_mu = len(str(cfg["mu_values"]).split(","))
    rows = _rows(out / "grid.csv")
    problems = []
    if len(rows) != n_mu ** k:
        problems.append(f"grid has {len(rows)} rows, expected {n_mu ** k}")
    zero = [r for r in rows if all(float(r[f"mu_{i + 1}"]) == 0.0 for i in range(k))]
    if len(zero) != 1:
        return problems + [f"grid has {len(zero)} all-zero rows, expected 1"]
    limit = SE_LIMIT * _se(alpha, nsims)
    for tag in ("A", "B"):
        p0 = float(zero[0][f"p_reject_{tag}"])
        alpha_star = float(summary[f"{tag}_alpha_star"])
        if abs(p0 - alpha_star) > limit:
            problems.append(f"p_reject_{tag} at mu = 0 is {p0}, alpha_star {alpha_star}")
    return problems


def _check_sweep(cfg: dict, summary: dict, out: Path) -> list:
    problems = []
    if summary.get("failed") != "0":
        problems.append(f"sweep reports failed = {summary.get('failed')}")
    rows = _rows(out / "sweep.csv")
    n_rho = len(str(cfg["rho_values"]).split(","))
    if len(rows) != n_rho:
        problems.append(f"sweep has {len(rows)} rows, expected {n_rho}")
    invalid = [r["rho"] for r in rows if r["valid"] != "true"]
    if invalid:
        problems.append(f"invalid sweep rows at rho = {', '.join(invalid)}")
    return problems


_CHECKS = {"design": _check_design, "grid": _check_grid, "sweep": _check_sweep}


def check_job(job, exit_code, out: Path) -> tuple:
    """(problems, hashes) for one finished job; no problems means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    missing = [name for name in job.outputs if not (out / name).is_file()]
    if missing:
        return [f"missing output {', '.join(missing)}"], {}
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in job.outputs if name != "config_echo.txt"}
    try:
        problems = _CHECKS[job.check](job.config, _summary(out / "summary.txt"), out)
    except (KeyError, ValueError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems, hashes
