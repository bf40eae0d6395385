"""Command-line front end.

Subcommands::

    multiseq design gs|composite|single-stage|dtl  --config FILE [flags]
    multiseq oc grid|sweep|sensitivity             --config FILE [flags]

Configuration is a flat key-value text file (``key = value``, ``#``
comments); ``--set key=value`` overrides individual entries and the
named flags ``--seed --nsims --threads --out`` override their keys.
Outputs are deterministic: identical configurations produce
byte-identical files.

Exit codes: 0 success, 2 validation error, 3 infeasible design,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import dtl, gs
from .errors import (
    CalibrationError,
    ConfigError,
    InfeasibleDesignError,
    InvalidCorrelationError,
    TrialDesignError,
)
from .model import OutcomeModel, lfc_effects
from .optimize import DEFAULT_NMAX
from .simulate import SimConfig, null_blocks

__all__ = ["RunConfig", "parse_config", "load_key_values", "emit_results", "main"]

DESIGN_KINDS = ("gs", "composite", "single-stage", "dtl")
THREADS_ENV = "MULTISEQ_THREADS"

_MAX_CP_GRID_POINTS = 10_001  # interim statistics of a cp_lookup.csv, K rows each
_MAX_EFFECT_GRID_POINTS = 100_000  # effect vectors of an oc grid, len(mu_values)^K


@dataclass(frozen=True)
class RunConfig:
    """Fully validated parameters of one run; equality is value-based so
    a config echo parses back to an identical instance."""

    command: str
    kind: str | None = None
    kind_a: str | None = None
    kind_b: str | None = None
    K: int = 0
    m: int = 1
    J: int = 1
    delta: float = 0.0
    alpha: float = 0.025
    beta: float = 0.2
    delta0: tuple = ()
    delta1: tuple = ()
    sigma: tuple = ()
    rho: tuple = ()
    k_max: int | None = None
    cp_l: float = 0.3
    cp_u: float = 0.95
    seed: int = 1
    nsims: int = 100_000
    chunk_size: int = 65_536
    threads: int = 1
    nmin: int | None = None
    nmax: int | None = None
    lfc_mode: str = "first-m"
    strict_alpha: bool = False
    mu_values: tuple = (-0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4)
    rho_values: tuple = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    cp_l_values: tuple = ()
    cp_u_values: tuple = ()
    cp_grid: tuple = (-4.0, 4.0, 0.1)
    out: str = "multiseq-out"


_KEYS = {f.name for f in fields(RunConfig)} - {"command"}


def _fail(field_name: str, message: str):
    raise ConfigError(f"{field_name}: {message}")


def _parse_float(raw: str, name: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        _fail(name, f"expected a finite number, got {raw!r}")
    return value


def _parse_int(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError:
        _fail(name, f"expected an integer, got {raw!r}")


def _parse_floats(raw: str, name: str) -> tuple:
    # a blank value has no entries; an empty entry ("0.4,") fails as a non-number
    return tuple(_parse_float(p.strip(), name) for p in raw.split(",")) if raw.strip() else ()


def _parse_bool(raw: str, name: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    _fail(name, f"expected true or false, got {raw!r}")


def _parse_cp_grid(raw: str, name: str) -> tuple:
    parts = raw.split(":")
    if len(parts) != 3:
        _fail(name, "expected 'low:high:step'")
    lo, hi, step = (_parse_float(p, name) for p in parts)
    if step <= 0 or hi <= lo:
        _fail(name, "need low < high and step > 0")
    if (hi - lo) / step > _MAX_CP_GRID_POINTS - 1:
        _fail(name, f"the grid may hold at most {_MAX_CP_GRID_POINTS:,} points")
    return lo, hi, step


# parser of each RunConfig field, by annotation; delta0, delta1, sigma and
# rho take K values each and are parsed by parse_config once K is known
_PARSERS = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool,
            "str": lambda raw, name: raw, "tuple": _parse_floats}
_FIELD_PARSERS = {f.name: _PARSERS[f.type.removesuffix(" | None")]
                  for f in fields(RunConfig)} | {"cp_grid": _parse_cp_grid}
_PER_OUTCOME_KEYS = ("delta0", "delta1", "sigma", "rho")


def load_key_values(path) -> dict:
    """Read a flat ``key = value`` file, '#' starts a comment."""
    entries = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def parse_config(command: str, entries: dict) -> RunConfig:
    """Build a validated RunConfig from raw key-value strings; a key left
    out takes its RunConfig default (``threads`` first tries MULTISEQ_THREADS)."""
    for key in entries:
        if key not in _KEYS:
            _fail(key, "unknown configuration key")
    if THREADS_ENV in os.environ:
        entries = {"threads": os.environ[THREADS_ENV]} | entries
    parsed = {name: parse(entries[name], name) for name, parse in _FIELD_PARSERS.items()
              if name in entries and name not in _PER_OUTCOME_KEYS}
    k = parsed.get("K", 0)
    if k < 1:
        _fail("K", "the number of outcomes is required and must be >= 1")

    def vector(name: str, default: float | None = None) -> tuple:
        raw = entries.get(name)
        if raw is None:
            if default is None:
                _fail(name, "required")
            values = (float(default),) * k
        else:
            values = _parse_floats(raw, name)
            if len(values) == 1:
                values = values * k
            if len(values) != k:
                _fail(name, f"expected 1 or {k} values, got {len(values)}")
        return values

    raw_rho = entries.get("rho", "0")
    if ";" in raw_rho:
        rows = tuple(_parse_floats(row, "rho") for row in raw_rho.split(";"))
        if len(rows) != k or any(len(row) != k for row in rows):
            _fail("rho", f"matrix must be {k}x{k}")
        rho = rows
    else:
        shared = _parse_float(raw_rho, "rho")
        rho = tuple(tuple(1.0 if i == j else shared for j in range(k))
                    for i in range(k))

    cfg = RunConfig(command=command, delta0=vector("delta0"), delta1=vector("delta1"),
                    sigma=vector("sigma", default=1.0), rho=rho, **parsed)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Checks of the CLI's own; every other check is made by building the
    model, the simulation config and the specs the run will search."""
    for name in _KIND_KEYS[cfg.command]:
        if getattr(cfg, name) not in DESIGN_KINDS:
            _fail(name, f"must be one of {', '.join(DESIGN_KINDS)}")
    if not 0 <= cfg.cp_l < cfg.cp_u <= 1:
        _fail("cp_l/cp_u", "thresholds must satisfy 0 <= cp_l < cp_u <= 1")
    for name in ("mu_values", "rho_values"):
        if not getattr(cfg, name):  # an empty grid would echo back as the default
            _fail(name, "needs at least one value")
    for name in ("cp_l_values", "cp_u_values"):
        outside = [v for v in getattr(cfg, name) if not 0 <= v <= 1]
        if outside:
            _fail(name, f"every threshold must lie in [0, 1], got {outside[0]!r}")
    if cfg.command == "oc sensitivity" and not _cp_pairs(cfg):
        _fail("cp_l_values/cp_u_values", "no threshold pair has cp_l < cp_u")
    if cfg.threads < 1:
        _fail("threads", "must be >= 1")
    kinds = _searched_kinds(cfg)
    if "dtl" in kinds and cfg.k_max is None:
        _fail("k_max", "required for drop-the-loser designs")
    if cfg.kind == "single-stage" and cfg.J != 1:
        _fail("J", "single-stage designs require J = 1")
    if cfg.kind == "dtl" and cfg.J not in (1, 2):
        _fail("J", "drop-the-loser designs fix J = 2")
    if cfg.nmin is not None and cfg.nmin < 1:
        _fail("nmin", "must be >= 1")
    model = _built("rho", _model, cfg)
    if cfg.command == "oc grid" and len(cfg.mu_values) ** cfg.K > _MAX_EFFECT_GRID_POINTS:
        _fail("mu_values", f"len(mu_values)^K may be at most {_MAX_EFFECT_GRID_POINTS:,} points")
    for rho in cfg.rho_values if cfg.command == "oc sweep" else ():
        try:
            OutcomeModel.equicorrelated(cfg.K, rho, cfg.sigma)
        except ValueError as exc:
            _fail("rho_values", f"rho = {rho!r}: {exc}")
    _built("nsims", _sim_config, cfg)
    # the gs spec carries every design parameter but k_max and the CP
    # thresholds, whichever kinds the run searches
    spec = _built("J", _gs_spec, cfg, cfg.J, composite=False)
    if "dtl" in kinds:
        _built("k_max", _dtl_spec, cfg)
    _built("lfc_mode", lfc_effects, spec, mode=cfg.lfc_mode, sigma=model.sigma)
    for kind in kinds:
        nmin = cfg.nmin if cfg.nmin is not None else _spec_for_kind(cfg, kind).default_nmin
        if nmin >= _nmax(cfg):
            _fail("nmin" if cfg.nmin is not None else "nmax",
                  f"require nmin < nmax, got {nmin} and {_nmax(cfg)}")


# constructor parameter -> configuration key, to name the field of a ValueError
_FIELD_OF = {"n_outcomes": "K", "n_promising": "m", "n_stages": "J",
             "max_retained": "k_max", "thresholds": "cp_l/cp_u", "wt_delta": "delta"}


def _built(default_field: str, build, *args, **kwargs):
    """Call a constructor; its ValueError becomes a ConfigError that names
    the field (the message's first word, or ``default_field``)."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        word = str(exc).split(" ", 1)[0]
        _fail(_FIELD_OF.get(word, word if word in _KEYS else default_field), str(exc))


# ---------------------------------------------------------------------------
# building engine inputs


def _model(cfg: RunConfig) -> OutcomeModel:
    return OutcomeModel(sigma=cfg.sigma, rho=np.asarray(cfg.rho))


def _sim_config(cfg: RunConfig) -> SimConfig:
    return SimConfig(seed=cfg.seed, nsims=cfg.nsims, chunk_size=cfg.chunk_size)


def _gs_spec(cfg: RunConfig, n_stages: int, composite: bool) -> gs.GSDesignSpec:
    return gs.GSDesignSpec(n_outcomes=cfg.K, n_promising=cfg.m, n_stages=n_stages,
                           alpha=cfg.alpha, beta=cfg.beta, delta0=cfg.delta0,
                           delta1=cfg.delta1, wt_delta=cfg.delta, composite=composite)


def _dtl_spec(cfg: RunConfig, cp_l: float | None = None,
              cp_u: float | None = None) -> dtl.DtLDesignSpec:
    return dtl.DtLDesignSpec(
        n_outcomes=cfg.K, n_promising=cfg.m, max_retained=cfg.k_max,
        cp_lower=cfg.cp_l if cp_l is None else cp_l,
        cp_upper=cfg.cp_u if cp_u is None else cp_u,
        alpha=cfg.alpha, beta=cfg.beta, delta0=cfg.delta0, delta1=cfg.delta1)


def _spec_for_kind(cfg: RunConfig, kind: str):
    if kind == "dtl":
        return _dtl_spec(cfg)
    if kind == "single-stage":
        return _gs_spec(cfg, 1, composite=False)
    return _gs_spec(cfg, cfg.J, composite=(kind == "composite"))


# configuration keys naming the design kinds each command searches; oc
# sensitivity searches drop-the-loser designs only
_KIND_KEYS = {"design": ("kind",), "oc grid": ("kind_a", "kind_b"),
              "oc sweep": ("kind_a", "kind_b"), "oc sensitivity": ()}


def _searched_kinds(cfg: RunConfig) -> tuple:
    return tuple(getattr(cfg, name) for name in _KIND_KEYS[cfg.command]) or ("dtl",)


def _cp_pairs(cfg: RunConfig) -> list:
    """(cp_l, cp_u) pairs of the oc sensitivity grid with cp_l < cp_u."""
    return [(lo, hi) for lo in cfg.cp_l_values or (cfg.cp_l,)
            for hi in cfg.cp_u_values or (cfg.cp_u,) if lo < hi]


def _nmax(cfg: RunConfig) -> int:
    return cfg.nmax if cfg.nmax is not None else DEFAULT_NMAX


def _null_blocks(cfg: RunConfig, model: OutcomeModel, specs) -> dict:
    """The model's null block for each stage count the specs need, drawn once."""
    return null_blocks([spec.n_stages for spec in specs], model, _sim_config(cfg),
                       threads=cfg.threads)


def _search(cfg: RunConfig, spec, model: OutcomeModel, blocks: dict):
    return spec.search(model, blocks[spec.n_stages], nmin=cfg.nmin, nmax=_nmax(cfg),
                       lfc_mode=cfg.lfc_mode, strict=cfg.strict_alpha)


# ---------------------------------------------------------------------------
# emission

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def _fmt_seq(values) -> str:
    return ", ".join(_fmt(v) for v in values)


def config_echo_lines(cfg: RunConfig) -> list:
    """Canonical re-parseable form of the configuration (exact floats)."""
    def rep(value):
        if isinstance(value, tuple) and value and isinstance(value[0], tuple):
            return "; ".join(",".join(repr(x) for x in row) for row in value)
        if isinstance(value, tuple):
            return ",".join(repr(x) for x in value)
        return str(value)

    lines = []
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        value = getattr(cfg, f.name)
        if value is None or (isinstance(value, tuple) and not value):
            continue
        if f.name == "cp_grid":
            lines.append(f"cp_grid = {':'.join(repr(x) for x in value)}")
            continue
        lines.append(f"{f.name} = {rep(value)}")
    return lines


def _summary_for_realisation(real, label: str = "") -> list:
    rows = [("kind", real.kind), (real.symbol, _fmt(real.constant)),
            ("n", real.n), ("N", real.n_total)]
    rows += [(name, _fmt_seq(values)) for name, values in real.boundary_rows]
    rows += [("alpha_star", _fmt(real.alpha_star)), ("power_star", _fmt(real.power_star))]
    ocs = {"null": asdict(real.oc_null), "lfc": asdict(real.oc_lfc)}
    # every OC field but p_reject, which alpha_star and power_star report
    rows += [(f"{name}_{at}", _fmt(oc[name])) for name in ocs["null"] if name != "p_reject"
             for at, oc in ocs.items()]
    p = f"{label}_" if label else ""
    return [f"{p}{key} = {value}" for key, value in rows]


def _write_text(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """A header and rows of cells in ``_fmt`` form. A row of Python floats,
    as every grid.csv row is, is formatted whole: "%.6g" writes what
    ``_fmt`` does, and no such cell needs quoting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if set(map(type, row)) == {float}:
                fh.write(",".join(["%.6g"] * len(row)) % tuple(row) + writer.dialect.lineterminator)
            else:
                writer.writerow([_fmt(cell) for cell in row])


def emit_results(cfg: RunConfig, out_dir: Path, summary_lines, csv_files) -> list:
    """Write config echo, summary and any CSV tables; returns the paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    echo = out_dir / "config_echo.txt"
    _write_text(echo, config_echo_lines(cfg))
    written.append(echo)
    summary = out_dir / "summary.txt"
    _write_text(summary, [f"seed = {cfg.seed}", f"nsims = {cfg.nsims}"] + summary_lines)
    written.append(summary)
    for name, (header, rows) in csv_files.items():
        path = out_dir / name
        _write_csv(path, header, rows)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# commands

def _cmd_design(cfg: RunConfig) -> list:
    spec, model = _spec_for_kind(cfg, cfg.kind), _model(cfg)
    real = _search(cfg, spec, model, _null_blocks(cfg, model, [spec]))
    name, header, rows = real.table(model, cfg.cp_grid)
    return emit_results(cfg, Path(cfg.out), _summary_for_realisation(real),
                        {name: (header, rows)})


# the cells grid.csv and sweep.csv share, from the OC records of designs A and B
_COMPARED = ("ess_A", "ess_B", "enm_A", "enm_B", "ess_ratio", "enm_ratio")


def _compared(oc_a, oc_b) -> tuple:
    return oc_a.ess, oc_b.ess, oc_a.enm, oc_b.enm, oc_a.ess / oc_b.ess, oc_a.enm / oc_b.enm


def _cmd_oc_grid(cfg: RunConfig) -> list:
    specs = [_spec_for_kind(cfg, kind) for kind in (cfg.kind_a, cfg.kind_b)]
    model = _model(cfg)
    blocks = _null_blocks(cfg, model, specs)  # shared by both searches and the grid
    real_a, real_b = (_search(cfg, spec, model, blocks) for spec in specs)
    axes = (cfg.mu_values,) * cfg.K
    # each realisation evaluates the whole grid in one block pass
    ocs = [real.evaluate_grid(blocks[real.n_stages], model, axes) for real in (real_a, real_b)]
    header = tuple(f"mu_{k + 1}" for k in range(cfg.K)) + ("p_reject_A", "p_reject_B") \
        + _COMPARED
    rows = [point + (oc_a.p_reject, oc_b.p_reject) + _compared(oc_a, oc_b)
            for point, oc_a, oc_b in zip(itertools.product(*axes), *ocs)]
    summary = (_summary_for_realisation(real_a, "A") +
               _summary_for_realisation(real_b, "B"))
    return emit_results(cfg, Path(cfg.out), summary, {"grid.csv": (header, rows)})


def _searched_at_rho(cfg: RunConfig, specs, rho: float) -> list:
    """Both searches at one shared correlation, on blocks drawn for it
    alone; they are freed on return, before the next correlation's draw."""
    model = OutcomeModel.equicorrelated(cfg.K, rho, cfg.sigma)
    blocks = _null_blocks(cfg, model, specs)
    return [_search(cfg, spec, model, blocks) for spec in specs]


def _cmd_oc_sweep(cfg: RunConfig) -> list:
    specs = [_spec_for_kind(cfg, kind) for kind in (cfg.kind_a, cfg.kind_b)]
    header = ("rho", "valid", "n_A", "n_B", "constant_A", "constant_B") + _COMPARED
    rows, errors = [], []
    for rho in cfg.rho_values:
        try:
            a, b = _searched_at_rho(cfg, specs, rho)
        except TrialDesignError as exc:
            # a failed search marks its point invalid, every cell after valid nan
            errors.append((rho, str(exc)))
            rows.append((rho, False) + (math.nan,) * (len(header) - 2))
            continue
        # n as a float, the column type of a sweep with failed points (1e+06, not 1000000)
        rows.append((rho, True, float(a.n), float(b.n), a.constant, b.constant)
                    + _compared(a.oc_lfc, b.oc_lfc))
    summary = [f"kind_a = {cfg.kind_a}", f"kind_b = {cfg.kind_b}",
               f"points = {len(rows)}", f"failed = {len(errors)}"]
    summary += [f"error_{i} = rho {rho}: {msg}" for i, (rho, msg) in enumerate(errors)]
    return emit_results(cfg, Path(cfg.out), summary, {"sweep.csv": (header, rows)})


def _cmd_oc_sensitivity(cfg: RunConfig) -> list:
    header = ("cp_l", "cp_u", "r", "n", "N", "alpha_star", "power_star",
              "pet_null", "pet_lfc", "ess_null", "ess_lfc", "enm_null", "enm_lfc")
    model = _model(cfg)
    blocks = _null_blocks(cfg, model, [_dtl_spec(cfg)])  # one block for every pair
    rows = []
    for lo, hi in _cp_pairs(cfg):
        real = _search(cfg, _dtl_spec(cfg, cp_l=lo, cp_u=hi), model, blocks)
        rows.append((lo, hi, real.r, real.n, real.n_total, real.alpha_star,
                     real.power_star, real.oc_null.pet, real.oc_lfc.pet,
                     real.oc_null.ess, real.oc_lfc.ess, real.oc_null.enm, real.oc_lfc.enm))
    summary = [f"combinations = {len(rows)}"]
    return emit_results(cfg, Path(cfg.out), summary, {"sensitivity.csv": (header, rows)})


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache  # built on the first call, then shared by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multiseq",
                                     description="design search for multi-outcome "
                                                 "sequential single-arm trials")
    sub = parser.add_subparsers(dest="group", required=True)

    def add_common(p):
        p.add_argument("--config", help="key-value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a configuration entry (repeatable)")
        p.add_argument("--seed", type=int, help="RNG seed")
        p.add_argument("--nsims", type=int, help="simulated trials per estimate")
        p.add_argument("--threads", type=int, help="worker threads")
        p.add_argument("--out", help="output directory")

    design = sub.add_parser("design", help="search for a design realisation")
    design.add_argument("design_kind", choices=DESIGN_KINDS)
    add_common(design)

    oc = sub.add_parser("oc", help="operating-characteristic comparisons")
    oc.add_argument("oc_kind", choices=("grid", "sweep", "sensitivity"))
    add_common(oc)
    return parser


def _gather_entries(args) -> dict:
    entries = load_key_values(args.config) if args.config else {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        entries[key.strip()] = value.strip()
    for name in ("seed", "nsims", "threads", "out"):
        value = getattr(args, name)
        if value is not None:
            entries[name] = str(value)
    return entries


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.group == "design":
            command = "design"
            entries = _gather_entries(args)
            entries.setdefault("kind", args.design_kind)
            if entries["kind"] != args.design_kind:
                raise ConfigError("kind: conflicts with the design subcommand")
            cfg = parse_config(command, entries)
            written = _cmd_design(cfg)
        else:
            command = f"oc {args.oc_kind}"
            cfg = parse_config(command, _gather_entries(args))
            written = {"grid": _cmd_oc_grid, "sweep": _cmd_oc_sweep,
                       "sensitivity": _cmd_oc_sensitivity}[args.oc_kind](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleDesignError as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return 3
    except (CalibrationError, InvalidCorrelationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
