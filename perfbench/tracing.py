"""Cycle clock and span tracer, installed around calls into ``frenetplan``.

Both work by replacing names the planner looks up at call time (module
globals of ``replanning_sim``, ``endpoint_regulation`` and ``cli``, plus
``ReferencePath.frame`` and ``Scenario.from_dict``) with wrappers, inside a
``patched`` block that puts the originals back on exit. ``assert_pristine``
refuses to start a phase while any wrapper is still installed, so a traced
phase cannot leak into an untraced one.

* ``CycleClock`` (untraced phases) takes one timestamp on entry to the
  per-cycle sampling call and one when ``run`` returns; nothing else.
* ``Tracer`` (traced phases) records a span per wrapped call: name, start,
  end, parent span and the id of the run it belongs to. The cycle span opens
  on entry to the sampling call and closes on the next one or when ``run``
  returns. A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from frenetplan import cli, endpoint_regulation, replanning_sim
from frenetplan.frenet_geometry import ReferencePath
from frenetplan.replanning_sim import Scenario

CYCLE = "replanning_sim.cycle"
RUN = "replanning_sim.run"

# (owner, attribute) -> span name. The owner is the namespace the planner
# resolves the name in; the span is named after the module that defines it.
TRACED = {
    (replanning_sim, "regulated_cluster"): "endpoint_regulation.regulated_cluster",
    (replanning_sim, "generate_cluster"): "quintic_sampling.generate_cluster",
    (endpoint_regulation, "generate_cluster"): "quintic_sampling.generate_cluster",
    (replanning_sim, "select_reference_candidate"): "endpoint_regulation.select_reference_candidate",
    (replanning_sim, "optimize_cluster"): "momentum_optimizer.optimize_cluster",
    (replanning_sim, "total_cost"): "momentum_optimizer.total_cost",
    (replanning_sim, "check_candidate"): "evaluation.check_candidate",
    (replanning_sim, "feasibility_breakdown"): "evaluation.feasibility_breakdown",
    (replanning_sim, "nn_distance_stats"): "evaluation.nn_distance_stats",
    (replanning_sim, "select_candidate"): "replanning_sim.select_candidate",
    (replanning_sim, "build_reference_path"): "frenet_geometry.build_reference_path",
    (replanning_sim, "run"): RUN,
    (cli, "run"): RUN,
    (cli, "validate_scenario_dict"): "cli.validate_scenario_dict",
    (cli, "write_run_outputs"): "cli.write_run_outputs",
    (Scenario, "from_dict"): "replanning_sim.Scenario.from_dict",
    (ReferencePath, "frame"): "frenet_geometry.frame",
}
# The per-cycle sampling call: its entry is the cycle boundary.
SAMPLING = {(replanning_sim, "regulated_cluster"), (replanning_sim, "generate_cluster")}
RUNS = {(replanning_sim, "run"), (cli, "run")}

ORIGINALS = {key: key[0].__dict__[key[1]] for key in TRACED}


def assert_pristine() -> None:
    """Raise if any wrapped name is not the planner's own object."""
    leaked = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), orig in ORIGINALS.items()
        if owner.__dict__[attr] is not orig
    ]
    if leaked:
        raise RuntimeError(f"wrappers still installed: {', '.join(leaked)}")


@contextlib.contextmanager
def patched(replacements: dict):
    """Install ``{(owner, attr): new}`` and restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr in replacements]
    try:
        for (owner, attr), new in replacements.items():
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def _rewrap(original, make):
    """Apply ``make`` to the function behind ``original``, keeping its kind."""
    if isinstance(original, classmethod):
        return classmethod(make(original.__func__))
    return make(original)


class CycleClock:
    """Cycle-boundary timestamps: the only hook of an untraced phase."""

    def __init__(self):
        self.stamps: list = []

    def replacements(self) -> dict:
        def on_entry(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.stamps.append(time.perf_counter())
                return fn(*args, **kwargs)
            return wrapper

        def on_return(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.stamps.append(time.perf_counter())
                return result
            return wrapper

        out = {key: on_entry(ORIGINALS[key]) for key in SAMPLING}
        out.update({key: on_return(ORIGINALS[key]) for key in RUNS})
        return out

    def begin_job(self, job) -> None:
        self.stamps = []

    def end_job(self) -> list:
        """Cycle latencies (ms) of the run that just ended."""
        s = self.stamps
        return [(b - a) * 1e3 for a, b in zip(s[:-1], s[1:])]


@dataclass
class Span:
    name: str
    run: int
    id: int
    parent: Optional[int]
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _inserted(candidate) -> bool:
    return "inserted" in candidate.grid_key


def _annotate(name: str, span: Span, args, result) -> None:
    """Counts taken from a call's arguments and result, inside its span."""
    a = span.attrs
    if name == "quintic_sampling.generate_cluster":
        a["n"] = len(result.candidates)
    elif name == "endpoint_regulation.regulated_cluster":
        a["n"] = len(result.candidates)
        a["inserted"] = sum(_inserted(c) for c in result.candidates)
    elif name == "evaluation.check_candidate":
        a["inserted"] = _inserted(args[0])
        a["feasible"] = bool(result.feasible)
    elif name == "momentum_optimizer.optimize_cluster":
        max_iters = args[3].max_iters
        iters, drops = [], []
        for cand in result:
            hist = cand.cost_history
            iters.append(len(hist) - 1)
            drops.append((hist[0] - hist[-1]) / abs(hist[0]) if hist[0] else 0.0)
        a["iters"] = iters
        a["hit"] = sum(i >= max_iters for i in iters)
        a["drops"] = drops


class Tracer:
    """In-memory spans around every wrapped call of a traced phase."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.run = -1
        self.scenario = ""

    def _begin(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(name, self.run, len(self.spans), parent, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        top = self.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _close_cycle(self) -> None:
        if self.stack and self.stack[-1].name == CYCLE:
            self._end(self.stack[-1])

    def _wrap(self, name: str, fn, sampling: bool, closes_run: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sampling:
                self._close_cycle()
                cycle = self._begin(CYCLE)
                cycle.attrs["scenario"] = self.scenario
                self._cycles.append(cycle)
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
                _annotate(name, span, args, result)
            finally:
                if closes_run:
                    self._close_cycle()
                self._end(span)
            return result
        return wrapper

    def replacements(self) -> dict:
        return {
            key: _rewrap(
                ORIGINALS[key],
                functools.partial(
                    self._wrap, name, sampling=key in SAMPLING, closes_run=key in RUNS
                ),
            )
            for key, name in TRACED.items()
        }

    def begin_job(self, job) -> None:
        self.run += 1
        self.scenario = job.scenario
        self._cycles = []
        self._job = self._begin("job")
        self._job.attrs["scenario"] = job.scenario

    def end_job(self) -> list:
        """Cycle latencies (ms) of the run that just ended."""
        self._end(self._job)
        if self.stack:
            raise RuntimeError(f"spans left open: {[s.name for s in self.stack]}")
        return [c.ms for c in self._cycles]

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": s.run, "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


def _safe_div(a: float, b: float) -> float:
    return a / b if b else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(spans: list, factors: list, scenario_keys) -> dict:
    """Per-layer metrics from the spans of a traced phase (values only).

    ``factors[r]`` scales the times of run ``r`` to the reference speed.
    """
    n_runs = len(factors)
    ms_of = {s.id: s.ms * factors[s.run] for s in spans}
    by_id = {s.id: s for s in spans}
    child_ms = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] += ms_of[s.id]

    cycle_of = {}
    for s in spans:
        p = s
        while p is not None and p.name != CYCLE:
            p = by_id.get(p.parent)
        cycle_of[s.id] = p

    def in_cycles(name, scenario=None):
        return [
            s for s in spans
            if s.name == name and cycle_of[s.id] is not None
            and (scenario is None or cycle_of[s.id].attrs["scenario"] == scenario)
        ]

    def returned(name):
        """Spans of calls that returned, so their counts were taken."""
        return [s for s in in_cycles(name) if s.attrs]

    def total(name, scenario=None):
        return sum(ms_of[s.id] for s in in_cycles(name, scenario))

    def self_total(name):
        return sum(ms_of[s.id] - child_ms[s.id] for s in in_cycles(name))

    def per_run(*names):
        return _safe_div(sum(ms_of[s.id] for s in spans if s.name in names), n_runs)

    cycles = [s for s in spans if s.name == CYCLE]
    n = len(cycles)
    m = {}

    def ms(name):
        return _safe_div(total(name), n)

    m["trace.cycle_ms_mean"] = _safe_div(sum(ms_of[c.id] for c in cycles), n)
    m["replanning_sim.self_ms_per_cycle"] = _safe_div(self_total(CYCLE), n)
    m["replanning_sim.select_candidate.ms_per_cycle"] = ms("replanning_sim.select_candidate")

    reg = returned("endpoint_regulation.regulated_cluster")
    gen = returned("quintic_sampling.generate_cluster")
    inserted = sum(s.attrs["inserted"] for s in reg)
    generated_in_reg = sum(
        s.attrs["n"] for s in gen if by_id[s.parent].name == "endpoint_regulation.regulated_cluster"
    )
    m["endpoint_regulation.regulated_cluster.self_ms_per_cycle"] = _safe_div(
        self_total("endpoint_regulation.regulated_cluster"), n
    )
    m["endpoint_regulation.select_reference_candidate.ms_per_cycle"] = ms(
        "endpoint_regulation.select_reference_candidate"
    )
    m["endpoint_regulation.inserted_per_cycle"] = _safe_div(inserted, n)
    m["endpoint_regulation.dropped_per_cycle"] = _safe_div(
        generated_in_reg + inserted - sum(s.attrs["n"] for s in reg), n
    )
    m["quintic_sampling.generate_cluster.ms_per_cycle"] = ms("quintic_sampling.generate_cluster")
    m["quintic_sampling.candidates_per_cycle"] = _safe_div(sum(s.attrs["n"] for s in gen), n)

    opt = returned("momentum_optimizer.optimize_cluster")
    iters = [i for s in opt for i in s.attrs["iters"]]
    drops = [d for s in opt for d in s.attrs["drops"]]
    m["momentum_optimizer.optimize_cluster.ms_per_cycle"] = ms("momentum_optimizer.optimize_cluster")
    m["momentum_optimizer.optimize_cluster.calls_per_cycle"] = _safe_div(
        len(in_cycles("momentum_optimizer.optimize_cluster")), n
    )
    m["momentum_optimizer.iters_per_candidate"] = _safe_div(sum(iters), len(iters))
    m["momentum_optimizer.max_iters_hit_ratio"] = _safe_div(
        sum(s.attrs["hit"] for s in opt), len(iters)
    )
    m["momentum_optimizer.cost_drop_rel_median"] = statistics.median(drops) if drops else 0.0
    m["momentum_optimizer.total_cost.ms_per_cycle"] = ms("momentum_optimizer.total_cost")
    m["momentum_optimizer.total_cost.calls_per_cycle"] = _safe_div(
        len(in_cycles("momentum_optimizer.total_cost")), n
    )

    checks = in_cycles("evaluation.check_candidate")
    m["evaluation.check_candidate.ms_per_cycle"] = ms("evaluation.check_candidate")
    m["evaluation.check_candidate.calls_per_cycle"] = _safe_div(len(checks), n)
    m["evaluation.summary.ms_per_cycle"] = _safe_div(
        total("evaluation.feasibility_breakdown") + total("evaluation.nn_distance_stats"), n
    )
    for origin, want in (("grid", False), ("inserted", True)):
        group = [s for s in returned("evaluation.check_candidate")
                 if s.attrs["inserted"] == want]
        m[f"evaluation.feasible_ratio.{origin}"] = _safe_div(
            sum(s.attrs["feasible"] for s in group), len(group)
        )

    m["frenet_geometry.build_reference_path.ms_per_run"] = per_run(
        "frenet_geometry.build_reference_path"
    )
    m["frenet_geometry.frame.calls_per_cycle"] = _safe_div(
        len(in_cycles("frenet_geometry.frame")), n
    )
    m["frenet_geometry.frame.ms_per_cycle"] = ms("frenet_geometry.frame")

    m["cli.load_ms_per_run"] = per_run(
        "cli.validate_scenario_dict", "replanning_sim.Scenario.from_dict"
    )
    m["cli.write_run_outputs.ms_per_run"] = per_run("cli.write_run_outputs")

    for key in scenario_keys:
        own = [ms_of[c.id] for c in cycles if c.attrs["scenario"] == key]
        k = len(own)
        m[f"scenario.{key}.cycle_ms_p50"] = percentile(own, 50)
        m[f"scenario.{key}.cycle_ms_p90"] = percentile(own, 90)
        m[f"scenario.{key}.optimize_cluster.ms_per_cycle"] = _safe_div(
            total("momentum_optimizer.optimize_cluster", key), k
        )
        m[f"scenario.{key}.check_candidate.ms_per_cycle"] = _safe_div(
            total("evaluation.check_candidate", key), k
        )
        m[f"scenario.{key}.frame.calls_per_cycle"] = _safe_div(
            len(in_cycles("frenet_geometry.frame", key)), k
        )
    return m
