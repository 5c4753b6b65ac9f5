"""Layer spans for the traced run, installed from outside the program.

Each public function of a layer is replaced, on the name its caller looks
up, by a wrapper that records a span: its name, its duration and the time of
the spans it caused.  A layer's self time is its spans' duration minus
their children's.  Spans are aggregated in memory per name and read out
when the traced pass ends; nothing is written while it runs.
``uninstall`` puts every original back.

``geometry.distance`` runs millions of times per pass, so it is counted
without a span; its time stays in the self time of its caller.
"""

from __future__ import annotations

import time
from collections import Counter

from delibsim import engine, geometry, oracle, scenario_io, space, transitions

KINDS = transitions.TRANSITION_KINDS


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_time = 0.0
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, after=None, errors=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of the
        call's arguments; ``after(args, result)`` and ``errors`` (exception
        class -> counter) record counts."""
        stack, clock = self._stack, time.perf_counter
        calls, self_time = self.calls, self.self_time
        errors = errors or {}

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                for cls, counter in errors.items():
                    if isinstance(exc, cls):
                        self.counts[counter] += 1
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_time += elapsed
                calls[label] += 1
                self_time[label] += elapsed - child
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrap):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        counts = self.counts
        cls = space.DeliberationSpace

        def count(counter, value):
            counts[counter] += value

        self._patch(scenario_io, "load_scenario", lambda f: self._span("scenario_io.load", f))
        self._patch(scenario_io, "write_trace", lambda f: self._span(
            "scenario_io.write_trace", f,
            after=lambda args, text: count("scenario_io.trace_bytes", len(text.encode())),
        ))
        self._patch(cls, "__init__", lambda f: self._span("space.build", f))
        for method in ("approves", "supporters", "max_support", "common_report"):
            self._patch(cls, method, lambda f, m=method: self._span(f"space.{m}", f))
        self._patch(cls, "feasible_witness", lambda f: self._span(
            "space.feasible_witness", f,
            after=lambda args, witness: count("space.feasible_witness_found", witness is not None),
        ))
        for module in (geometry, space):
            self._patch(module, "distance", lambda f: self._counted("geometry.distance", f))
        self._patch(space, "best_common_proposal", lambda f: self._span(
            "geometry.best_common_proposal", f, errors={geometry.SolverError: "geometry.solver_errors"},
        ))
        self._patch(geometry, "minimize", lambda f: self._span(
            "geometry.slsqp", f,
            after=lambda args, result: count("geometry.slsqp_failures", not result.success),
        ))

        def kind_of(args, kwargs):
            return "transitions." + (args[2] if len(args) > 2 else kwargs["kind"])

        def emitted(args, moves):
            count(kind_of(args, {}) + ".emitted", len(moves))

        def engine_emitted(args, moves):
            emitted(args, moves)
            count("engine.enumerated", len(moves))

        for caller, after in ((engine, engine_emitted), (oracle, emitted)):
            self._patch(caller, "enumerate_transitions", lambda f, after=after: self._span(
                kind_of, f, after=after,
                errors={transitions.SubsetCapError: "transitions.subset_cap_errors"},
            ))
            self._patch(caller, "apply_transition", lambda f: self._span(
                "transitions.apply", f,
                errors={transitions.StaleTransitionError: "transitions.apply_stale"},
            ))
            self._patch(caller, "is_successful", lambda f: self._span("coalition.is_successful", f))
            for measure in ("potential", "signature", "lex_less"):
                self._patch(caller, measure, lambda f: self._span("coalition.measures", f))
        self._patch(oracle, "canonical_key", lambda f: self._span("coalition.canonical_key", f))
        self._patch(engine, "run", lambda f: self._span(
            "engine.run", f, after=lambda args, trace: count("engine.steps", len(trace.steps)),
        ))

        def explored(args, report):
            count("oracle.states", report.states_visited)
            count("oracle.edges", report.edges)
            count("oracle.truncated", report.truncated)

        self._patch(oracle, "explore", lambda f: self._span("oracle.explore", f, after=explored))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- read-out --------------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics; ``_s`` values are self seconds, summed over the pass."""
        calls, self_s, counts = self.calls, self.self_time, self.counts
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        put("scenario_io.load_s", self_s["scenario_io.load"], "s")
        put("scenario_io.write_trace_s", self_s["scenario_io.write_trace"], "s")
        put("scenario_io.trace_bytes", counts["scenario_io.trace_bytes"], "bytes")
        put("space.build_s", self_s["space.build"], "s")
        for m in ("approves", "supporters", "max_support"):
            put(f"space.{m}_calls", calls[f"space.{m}"], "count")
            put(f"space.{m}_s", self_s[f"space.{m}"], "s")
        put("space.feasible_witness_calls", calls["space.feasible_witness"], "count")
        put("space.feasible_witness_solves", calls["space.common_report"], "count")
        put("space.feasible_witness_found", counts["space.feasible_witness_found"], "count")
        put("geometry.distance_calls", counts["geometry.distance"], "count")
        put("geometry.best_common_proposal_calls", calls["geometry.best_common_proposal"], "count")
        put("geometry.best_common_proposal_s", self_s["geometry.best_common_proposal"], "s")
        put("geometry.slsqp_calls", calls["geometry.slsqp"], "count")
        put("geometry.slsqp_failures", counts["geometry.slsqp_failures"], "count")
        put("geometry.slsqp_s", self_s["geometry.slsqp"], "s")
        put("geometry.solver_errors", counts["geometry.solver_errors"], "count")
        for kind in KINDS:
            put(f"transitions.{kind}.calls", calls[f"transitions.{kind}"], "count")
            put(f"transitions.{kind}.s", self_s[f"transitions.{kind}"], "s")
            put(f"transitions.{kind}.emitted", counts[f"transitions.{kind}.emitted"], "count")
        put("transitions.apply_calls", calls["transitions.apply"], "count")
        put("transitions.apply_s", self_s["transitions.apply"], "s")
        put("transitions.apply_stale", counts["transitions.apply_stale"], "count")
        put("transitions.subset_cap_errors", counts["transitions.subset_cap_errors"], "count")
        for m in ("is_successful", "canonical_key"):
            put(f"coalition.{m}_calls", calls[f"coalition.{m}"], "count")
            put(f"coalition.{m}_s", self_s[f"coalition.{m}"], "s")
        put("coalition.measures_s", self_s["coalition.measures"], "s")
        put("engine.run_calls", calls["engine.run"], "count")
        put("engine.run_s", self_s["engine.run"], "s")
        put("engine.steps", counts["engine.steps"], "count")
        put("engine.enumerated_per_step", _ratio(counts["engine.enumerated"], counts["engine.steps"]), "ratio")
        put("oracle.explore_s", self_s["oracle.explore"], "s")
        put("oracle.states", counts["oracle.states"], "count")
        put("oracle.edges", counts["oracle.edges"], "count")
        put("oracle.new_state_ratio", _ratio(counts["oracle.states"], counts["oracle.edges"]), "ratio")
        put("oracle.truncated", counts["oracle.truncated"], "count")
        put("trace.coverage", _ratio(self.root_time, traced_wall), "ratio")
        put("trace.overhead_ratio", _ratio(traced_wall, untraced_wall), "ratio")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
