"""Spans around the calls into formukit's public functions.

The tracer patches module and class attributes from outside (no file under
src/ changes) and keeps spans in memory: name, label, start, end, parent
span and operation id. ``layer_metrics`` turns them into the per-layer
figures. Spans nest through a stack, so one caller at a time is assumed.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

SIM_CLASSES = tuple(f"b{b}-{c}" for b in (1, 50, 200)
                    for c in ("sink", "coupled", "saturating"))
CLI_COMMANDS = ("store_ingest", "store_list", "store_retrieve", "simulate",
                "predict", "bench", "eval", "eval_nested")

#: Every per-layer metric with its unit; a traced run reports all of them.
#: A layer that the workload never calls reads 0.
PER_LAYER = (
    [(f"dissolution.simulate_ms.{c}", "ms") for c in SIM_CLASSES]
    + [("dissolution.closed_form_err_pp", "pp"),
       ("inverse.design_s.lognormal", "s"), ("inverse.design_s.free_bins", "s"),
       ("inverse.sim_calls.lognormal", "count"), ("inverse.sim_calls.free_bins", "count"),
       ("inverse.sim_ms", "ms"), ("inverse.self_s", "s"),
       ("store.ingest_s", "s"), ("store.load_s", "s"),
       ("store.retrieve_ms", "ms"), ("store.adapt_weights_ms", "ms"),
       ("prompts.build_ms.zs", "ms"), ("prompts.build_ms.rag", "ms"),
       ("prompts.parse_ms", "ms"), ("prompts.prompt_kb", "KB"),
       ("llm.complete_ms", "ms"), ("llm.self_ms", "ms"), ("llm.wait_s", "s"),
       ("evaluate.run_benchmark_s", "s"), ("evaluate.self_s", "s"),
       ("cli.import_s", "s")]
    + [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    + [("machine.calib_ms", "ms"), ("traced.ops_per_s", "1/s")]
)


def sim_class(drug, psd, conditions):
    """The dissolution.simulate_ms class of one call, or None."""
    if conditions.sink_override:
        if conditions.paddle_rpm == 0.0:
            return None                       # the closed-form subset
        kind = "sink"
    elif drug.c_sat_mg_ml * conditions.medium_volume_ml >= conditions.dose_mg:
        kind = "coupled"
    else:
        kind = "saturating"
    return f"b{psd.n_bins}-{kind}"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name, label=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        record = {"id": sid, "name": name, "label": label, "parent": parent, "op": self.op_id}
        self._stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def wrap(self, owner, attr, name, label=None, size=None):
        """Replace owner.attr by a traced version.

        ``label(*args, **kwargs)`` classifies a call; ``size(result)`` adds
        a size field to its span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, label(*args, **kwargs) if label else None) as record:
                result = original(*args, **kwargs)
                if size is not None:
                    record["size"] = size(result)
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        """Trace the public entry points of every formukit layer."""
        from formukit import dissolution, evaluate, inverse, llm, prompts, store

        self.wrap(dissolution, "simulate", "dissolution.simulate",
                  label=lambda drug, morph, psd, conditions, *a, **k:
                  sim_class(drug, psd, conditions))
        # inverse reaches the solver through this name, so every objective
        # evaluation, finite-difference probes included, is counted here.
        self.wrap(inverse, "simulate_dissolution", "inverse.simulate_dissolution")
        self.wrap(inverse, "design_psd", "inverse.design_psd",
                  label=lambda spec, **k: "lognormal" if spec.is_lognormal else "free_bins")
        self.wrap(store.RecordStore, "retrieve", "store.retrieve")
        self.wrap(store.RecordStore, "adapt_weights", "store.adapt_weights")
        self.wrap(prompts, "build_prompt", "prompts.build",
                  label=lambda strategy, *a, **k: strategy.name.lower(),
                  size=lambda bundle: len(bundle.rendered.encode("utf-8")))
        self.wrap(prompts, "parse_profile_response", "prompts.parse")
        self.wrap(llm.LLMClient, "complete", "llm.complete")
        self.wrap(evaluate, "run_benchmark", "evaluate.run_benchmark")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(record) + "\n")


def _dur(record):
    return record["end"] - record["start"]


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, extra):
    """Per-layer figures from the spans; ``extra`` supplies values measured
    outside spans (closed-form error, import time, calibration, ops/s)."""
    by_id = {r["id"]: r for r in spans}
    timed = [r for r in spans if r["op"] is not None]

    def named(name, label=None, pool=timed):
        return [r for r in pool if r["name"] == name and (label is None or r["label"] == label)]

    def children(parent, names):
        return [r for r in spans if r["parent"] == parent["id"] and r["name"] in names]

    def ancestor(record, name):
        parent = record["parent"]
        while parent is not None:
            if by_id[parent]["name"] == name:
                return parent
            parent = by_id[parent]["parent"]
        return None

    out = {}
    for c in SIM_CLASSES:
        out[f"dissolution.simulate_ms.{c}"] = 1e3 * _median(
            [_dur(r) for r in named("dissolution.simulate", c)])
    out["dissolution.closed_form_err_pp"] = extra.get("closed_form_err_pp", 0.0)

    sim_calls = named("inverse.simulate_dissolution")
    per_design: dict[int, list] = {}
    for r in sim_calls:
        per_design.setdefault(ancestor(r, "inverse.design_psd"), []).append(_dur(r))
    designs = named("inverse.design_psd")
    for kind in ("lognormal", "free_bins"):
        chosen = [d for d in designs if d["label"] == kind]
        out[f"inverse.design_s.{kind}"] = _mean([_dur(d) for d in chosen])
        out[f"inverse.sim_calls.{kind}"] = _mean([len(per_design.get(d["id"], [])) for d in chosen])
    out["inverse.sim_ms"] = 1e3 * _mean([_dur(r) for r in sim_calls])
    out["inverse.self_s"] = _mean([_dur(d) - sum(per_design.get(d["id"], [])) for d in designs])

    setup = [r for r in spans if r["op"] is None]
    out["store.ingest_s"] = float(sum(_dur(r) for r in named("store.ingest_all", pool=setup)))
    out["store.load_s"] = float(sum(_dur(r) for r in named("store.load", pool=setup)))
    out["store.retrieve_ms"] = 1e3 * _median([_dur(r) for r in named("store.retrieve")])
    out["store.adapt_weights_ms"] = 1e3 * _median([_dur(r) for r in named("store.adapt_weights")])

    builds = named("prompts.build")
    out["prompts.build_ms.zs"] = 1e3 * _median([_dur(r) for r in builds if r["label"] == "zs"])
    out["prompts.build_ms.rag"] = 1e3 * _median([_dur(r) for r in builds if r["label"] == "rag"])
    out["prompts.parse_ms"] = 1e3 * _median([_dur(r) for r in named("prompts.parse")])
    out["prompts.prompt_kb"] = _mean([r["size"] / 1024.0 for r in builds])

    completes = named("llm.complete")
    out["llm.complete_ms"] = 1e3 * _median([_dur(r) for r in completes])
    out["llm.self_ms"] = 1e3 * _median(
        [_dur(r) - sum(_dur(c) for c in children(r, {"llm.transport"})) for r in completes])
    runs = named("evaluate.run_benchmark")
    out["llm.wait_s"] = (sum(_dur(r) for r in named("llm.transport")) / len(runs)) if runs else 0.0
    out["evaluate.run_benchmark_s"] = _mean([_dur(r) for r in runs])
    stages = {"store.retrieve", "prompts.build", "llm.complete", "prompts.parse"}
    out["evaluate.self_s"] = _mean(
        [_dur(r) - sum(_dur(c) for c in children(r, stages)) for r in runs])

    out["cli.import_s"] = extra.get("import_s", 0.0)
    for c in CLI_COMMANDS:
        out[f"cli.{c}_s"] = _median([_dur(r) for r in named(f"cli.{c}")])
    out["machine.calib_ms"] = extra["calib_ms"]
    out["traced.ops_per_s"] = extra["ops_per_s"]
    return out
