"""Layer spans recorded from outside the program.

``Tracer.installed()`` wraps the public functions each multiseq module
calls into, replacing the name in every module that imported it, and
restores the originals on exit. Each call becomes a span: name, start,
end, parent span, job id and a few attributes. The objective that
``calibrate_c``/``calibrate_r`` hand to ``solve_decreasing`` is wrapped
too, so every calibration block pass is a span of its own.

``layer_metrics`` derives the per-layer metrics from one repetition's
spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import sys
import time
from pathlib import Path

# (module, function) -> span name; model and errors are negligible and untimed
LAYER_FUNCTIONS = {
    ("simulate", "simulate_null_block"): "simulate.block",
    ("simulate", "mean_shift_vector"): "simulate.shift",
    ("gs", "calibrate_c"): "calibrate",
    ("dtl", "calibrate_r"): "calibrate",
    ("gs", "search_gs_design"): "gs.search",
    ("gs", "search_composite_design"): "gs.search",
    ("dtl", "search_dtl_design"): "dtl.search",
    ("dtl", "estimate_dtl_oc"): "dtl.eval",
    ("analysis", "evaluate_at_effects"): "analysis.eval",
    ("analysis", "effect_grid"): "analysis.grid",
    ("analysis", "correlation_sweep"): "analysis.sweep",
    ("cli", "parse_config"): "cli.parse",
    ("cli", "emit_results"): "cli.emit",
    ("cli", "main"): "cli.main",
}

NAME, START, END, PARENT, JOB, ATTRS = range(6)


def _block_attrs(arguments, result):
    schedule, model, cfg = arguments["schedule"], arguments["model"], arguments["cfg"]
    cols = schedule.n_stages * model.n_outcomes
    model_key = hashlib.sha256(model.sigma.tobytes() + model.rho.tobytes()).hexdigest()[:16]
    return {"mbytes": cfg.nsims * cols * 8 / 1e6,
            "key": f"{cfg.seed}/{cfg.nsims}/{cfg.chunk_size}/{schedule.n_stages}/{model_key}"}


def _emit_attrs(arguments, result):
    return {"kbytes": sum(Path(p).stat().st_size for p in result) / 1e3}


def _sweep_attrs(arguments, result):
    return {"points": len(result.rho_values), "failed": len(result.errors)}


_ATTRS = {"simulate.block": _block_attrs, "cli.emit": _emit_attrs,
          "analysis.sweep": _sweep_attrs}


class Tracer:
    """Spans kept in memory; ``spans`` is a list of
    [name, start, end, parent index or None, job id, attrs]. ``missing``
    lists the layer functions the program did not have to wrap."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._job = None

    def _open(self, name, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job, attrs or {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id: str):
        self._job = job_id
        index = self._open("job")
        try:
            yield
        finally:
            self._close(index)
            self._job = None

    def _wrap(self, name, fn, via):
        attrs_of = _ATTRS.get(name)
        signature = inspect.signature(fn) if attrs_of else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, {"via": via})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if attrs_of is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                self.spans[index][ATTRS].update(attrs_of(arguments, result))
            return result
        return wrapper

    def _wrap_solver(self, solve):
        @functools.wraps(solve)
        def wrapper(fn, *args, **kwargs):
            return solve(self._wrap("calibrate.pass", fn, None), *args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every multiseq module's reference to a layer function."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "multiseq" or name.startswith("multiseq.")}
        targets = {}
        for (mod_name, fn_name), span in LAYER_FUNCTIONS.items():
            fn = getattr(modules.get(f"multiseq.{mod_name}"), fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
            else:
                targets[fn] = span
        solver = getattr(modules.get("multiseq.optimize"), "solve_decreasing", None)
        if solver is None:
            self.missing.append("optimize.solve_decreasing")
        saved = []
        try:
            for mod_name, mod in modules.items():
                via = mod_name.rpartition(".")[2]
                for attr, value in list(vars(mod).items()):
                    if not callable(value):
                        continue
                    if value is solver:
                        wrapper = self._wrap_solver(value)
                    elif value in targets:
                        wrapper = self._wrap(targets[value], value, via)
                    else:
                        continue
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)


def _dur(span) -> float:
    return span[END] - span[START]


def layer_metrics(spans: list, job_ids: list) -> dict:
    """Per-layer counts and seconds of one repetition of the job list."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def total(name):
        return sum(_dur(s) for s in named(name))

    def self_time(index):
        return _dur(spans[index]) - sum(_dur(spans[c]) for c in children[index])

    def parent_name(span):
        return spans[span[PARENT]][NAME] if span[PARENT] is not None else None

    def gs_probes(pool):
        return sum(1 for s in pool if s[NAME] == "simulate.shift" and s[ATTRS]["via"] == "gs")

    def dtl_probes(pool):
        return sum(1 for s in pool if s[NAME] == "calibrate" and parent_name(s) == "dtl.search")

    def passes(pool):
        # a block pass: a calibration objective call, a gs power probe, a
        # dtl power probe (one per calibrate_r inside a search), an
        # effect-grid point, or a dtl OC estimate made by a search
        cal = sum(1 for s in pool if s[NAME] == "calibrate.pass")
        evals = sum(1 for s in pool if s[NAME] == "analysis.eval")
        evals += sum(1 for s in pool if s[NAME] == "dtl.eval" and parent_name(s) != "analysis.eval")
        return cal, cal + gs_probes(pool) + dtl_probes(pool) + evals

    cal_passes = len(named("calibrate.pass"))
    cal_s = total("calibrate")
    gs_idx = [i for i, s in enumerate(spans) if s[NAME] == "gs.search"]
    eval_calls = len(named("analysis.eval"))
    eval_s = total("analysis.eval")
    blocks = named("simulate.block")
    m = {
        "calibrate.calls": len(named("calibrate")),
        "calibrate.passes": cal_passes,
        "calibrate.s": cal_s,
        "calibrate.ms_per_pass": 1e3 * cal_s / cal_passes if cal_passes else 0.0,
        "gs.search.calls": len(gs_idx),
        "gs.search.s": total("gs.search"),
        "gs.search.self_s": sum(self_time(i) for i in gs_idx),
        "gs.search.probes": gs_probes(spans),
        "dtl.search.calls": len(named("dtl.search")),
        "dtl.search.s": total("dtl.search"),
        "dtl.search.probes": dtl_probes(spans),
        "dtl.eval.s": total("dtl.eval"),
        "analysis.eval.calls": eval_calls,
        "analysis.eval.s": eval_s,
        "analysis.eval.ms_per_point": 1e3 * eval_s / eval_calls if eval_calls else 0.0,
        "analysis.sweep.points": sum(s[ATTRS]["points"] for s in named("analysis.sweep")),
        "analysis.sweep.failed": sum(s[ATTRS]["failed"] for s in named("analysis.sweep")),
        "simulate.calls": len(blocks),
        "simulate.s": total("simulate.block"),
        "simulate.mbytes": max((s[ATTRS]["mbytes"] for s in blocks), default=0.0),
        "simulate.distinct_frac":
            len({s[ATTRS]["key"] for s in blocks}) / len(blocks) if blocks else 0.0,
        "cli.parse.s": total("cli.parse"),
        "cli.emit.s": total("cli.emit"),
        "cli.emit.kbytes": sum(s[ATTRS]["kbytes"] for s in named("cli.emit")),
    }
    for job_id in job_ids:
        pool = [s for s in spans if s[JOB] == job_id]
        root = [s for s in pool if s[NAME] == "job"]
        m[f"job.{job_id}.s"] = _dur(root[0]) if root else 0.0
        m[f"job.{job_id}.cal_passes"], m[f"job.{job_id}.passes"] = passes(pool)
    return m
