"""Span recorder and benchmark-side instrumentation of gdakit's layers.

Spans are recorded from the benchmark's side only: `instrument` swaps each
layer's public functions for timing wrappers at the names the callers look
up (module globals such as `gdakit.harness.commands.run`, problem class
methods, `RngStream` methods), and `restore` puts the originals back.
Nothing under src/ is edited.

A span is (id, name, start, end, parent id, thread id, call id). Each thread
keeps its own open-span stack; a span opened on a thread with an empty stack
(a harness thread-pool worker) takes the current command span as parent.
Spans stay in memory until `write_spans`.

Self time: a span's interval minus the union of its children's intervals
(children on any thread). When self intervals of several threads overlap in
wall time, each instant is split evenly between them, so the self times of
one command's spans add up to exactly that command span's duration, and
`optimizers.run.sum_s` above the command's wall time shows how much the
seed thread pool's runs overlapped.
"""
from __future__ import annotations

import csv
import functools
import gzip
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.root = 0
        self.call = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: list[Counter] = []

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            # stack, thread id, this thread's counters (merged in `counts`,
            # so counting needs no lock)
            state = ([], threading.get_ident(), Counter())
            self._local.state = state
            self._thread_counts.append(state[2])
            return state

    def count(self, name: str, n=1) -> None:
        self._state()[2][name] += n

    def counts(self) -> Counter:
        total: Counter = Counter()
        for c in self._thread_counts:
            total.update(c)
        return total

    def wrap(self, name: str, fn, note=None):
        """fn timed as a span `name`; note(args, kwargs, result) may count."""
        perf = time.perf_counter
        ids = self._ids
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, tid, _ = self._state()
            parent = stack[-1] if stack else self.root
            sid = next(ids)
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, tid, self.call))
            if note is not None:
                note(args, kwargs, out)
            return out

        return wrapper

    def command(self, name: str, fn, call_id: str, *args, **kwargs):
        """Run one harness command as the root span of its call."""
        stack, tid, _ = self._state()
        sid = next(self._ids)
        self.root, self.call = sid, call_id
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, 0, tid, call_id))
            self.root = 0


def _problem_classes():
    from gdakit.problems import Problem

    seen, todo = [], [Problem]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


_PROBLEM_METHODS = (
    "value",
    "exact_grad",
    "draw_sample",
    "grad_with_sample",
    "closed_phi",
    "check_point",
    "random_point",
    "dist_to_opt",
)
_RNG_DRAWS = ("gauss", "standard_normal", "uniform", "bernoulli", "integers")
_CONFIG_FNS = (
    "build_problem",
    "build_optimizer",
    "build_init",
    "build_diag",
    "config_hash",
    "parse_iters",
    "parse_seeds",
)
_IO_FNS = ("write_json", "write_params", "write_table_csv", "write_trace_csv")


def _mlp_flops(arch, rows: int) -> int:
    sizes = arch.layer_sizes
    return 2 * rows * sum(sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1))


def instrument(tracer: Tracer) -> list[tuple]:
    """Install the wrappers; returns what `restore` needs to undo them."""
    import gdakit.core as core
    import gdakit.diagnostics as diagnostics
    import gdakit.harness.commands as commands
    import gdakit.mlp as mlp
    import gdakit.optimizers as optimizers
    from gdakit.problems import GradSample, JointPoint

    saved: list[tuple] = []

    def patch(obj, attr, new):
        saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def span(obj, attr, name, note=None):
        patch(obj, attr, tracer.wrap(name, getattr(obj, attr), note))

    # harness.config / harness.io / optimizers.run / check_oracle, bound in
    # commands.py, which imports them by name
    for fn in _CONFIG_FNS:
        span(commands, fn, f"harness.config.{fn}")
    plan_span = functools.partial(tracer.wrap, "schedules.plan")
    build_plan = tracer.wrap("harness.config.build_plan", commands.build_plan)

    def traced_build_plan(*args, **kwargs):
        plan = build_plan(*args, **kwargs)
        return replace(
            plan, alpha=plan_span(plan.alpha), eta=plan_span(plan.eta), p=plan_span(plan.p)
        )

    patch(commands, "build_plan", traced_build_plan)

    def io_note(args, kwargs, out):
        tracer.count("harness.io.files")
        tracer.count("harness.io.bytes", os.path.getsize(args[0]))

    for fn in _IO_FNS:
        span(commands, fn, f"harness.io.{fn}", io_note)
    span(commands, "run", "optimizers.run")
    span(commands, "check_oracle", "problems.check_oracle")

    # optimizers: _step and _metrics look these up as module globals
    for fn in ("sgda_step", "sgdmax_step", "esgda_step", "rsgda_step"):
        span(optimizers, fn, "optimizers.step")
    span(optimizers, "require_feasible", "schedules.require_feasible")

    # diagnostics, in both namespaces that call them (descent_check calls
    # lyapunov/h_metric through its own module)
    for mod in (optimizers, diagnostics):
        span(mod, "h_metric", "diagnostics.h_metric")
        span(mod, "lyapunov", "diagnostics.lyapunov")

    def phi_note(args, kwargs, est):
        tracer.count("diagnostics.phi_inner.iters", est.iters)
        tracer.count("diagnostics.phi_inner.certified", int(est.converged))

    span(diagnostics, "phi_inner", "diagnostics.phi_inner", phi_note)
    span(diagnostics, "contraction_sweep", "diagnostics.contraction_sweep")
    span(diagnostics, "descent_check", "diagnostics.descent_check")

    # mlp: the problems call it as mlp.forward_batch / mlp.backward_batch
    for fn in ("forward_batch", "backward_batch"):
        factor = 1 if fn == "forward_batch" else 3

        def mlp_note(args, kwargs, out, fn=fn, factor=factor):
            rows = len(args[2] if len(args) > 2 else kwargs["inputs"])
            tracer.count(f"mlp.{fn}.rows", rows)
            tracer.count("mlp.flops_computed", factor * _mlp_flops(args[0], rows))

        span(mlp, fn, f"mlp.{fn}", mlp_note)

    # problems: every method a concrete class defines
    for cls in _problem_classes():
        for meth in _PROBLEM_METHODS:
            if callable(cls.__dict__.get(meth)):
                span(cls, meth, f"problems.{meth}")
    for cls in (JointPoint, GradSample):
        post_init = cls.__post_init__
        key = f"problems.{cls.__name__}.constructions"

        def counted(self, _post_init=post_init, _key=key):
            tracer.count(_key)
            _post_init(self)

        patch(cls, "__post_init__", counted)

    def draw_note(args, kwargs, out):
        tracer.count("core.RngStream.draws")

    for meth in _RNG_DRAWS:
        span(core.RngStream, meth, "core.RngStream", draw_note)
    return saved


def restore(saved: list[tuple]) -> None:
    for obj, attr, original in reversed(saved):
        setattr(obj, attr, original)


def _self_segments(spans: list[tuple]):
    """(start, end, name) pieces of each span not covered by a child."""
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))
    for sid, name, t0, t1, *_ in spans:
        cur = t0
        for c0, c1 in sorted(children.get(sid, ())):
            if c0 > cur:
                yield (cur, min(c0, t1), name)
            cur = max(cur, c1)
            if cur >= t1:
                break
        if cur < t1:
            yield (cur, t1, name)


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time per span name, overlapping threads sharing wall time evenly."""
    events = []
    for a, b, name in _self_segments(spans):
        if b > a:
            events.append((a, 1, name))
            events.append((b, -1, name))
    events.sort(key=lambda e: (e[0], e[1]))
    out: dict[str, float] = defaultdict(float)
    active: Counter = Counter()
    k = 0
    last = None
    for t, delta, name in events:
        if k and t > last:
            share = (t - last) / k
            for n, c in active.items():
                out[n] += share * c
        active[name] += delta
        if not active[name]:
            del active[name]
        k += delta
        last = t
    return dict(out)


def summarize(tracer: Tracer, calls: int) -> dict[str, dict]:
    """Per-layer metrics, per command call, from everything recorded."""
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s[1]].append(s[3] - s[2])
    selfs = self_times(tracer.spans)
    counts = tracer.counts()

    def n(name):
        return len(by_name.get(name, ())) / calls

    def self_s(prefix):
        return sum(v for k, v in selfs.items() if k == prefix or k.startswith(prefix + ".")) / calls

    def v(value, unit):
        return {"value": float(value), "unit": unit}

    m: dict[str, dict] = {}
    step_us = np.asarray(by_name.get("optimizers.step", [0.0])) * 1e6
    m["optimizers.step.calls"] = v(n("optimizers.step"), "count")
    m["optimizers.step.self_s"] = v(self_s("optimizers.step"), "s")
    m["optimizers.step.us_p50"] = v(np.percentile(step_us, 50), "us")
    m["optimizers.step.us_p99"] = v(np.percentile(step_us, 99), "us")
    m["optimizers.run.calls"] = v(n("optimizers.run"), "count")
    m["optimizers.run.self_s"] = v(self_s("optimizers.run"), "s")
    m["optimizers.run.sum_s"] = v(sum(by_name.get("optimizers.run", ())) / calls, "s")
    for cls in ("JointPoint", "GradSample"):
        key = f"problems.{cls}.constructions"
        m[key] = v(counts[key] / calls, "count")
    for fn in (
        "check_point",
        "grad_with_sample",
        "exact_grad",
        "draw_sample",
        "value",
        "closed_phi",
        "random_point",
        "dist_to_opt",
    ):
        m[f"problems.{fn}.calls"] = v(n(f"problems.{fn}"), "count")
        m[f"problems.{fn}.self_s"] = v(self_s(f"problems.{fn}"), "s")
    m["problems.check_oracle.self_s"] = v(self_s("problems.check_oracle"), "s")
    m["core.RngStream.draws"] = v(counts["core.RngStream.draws"] / calls, "count")
    m["core.RngStream.self_s"] = v(self_s("core.RngStream"), "s")
    m["schedules.plan.calls"] = v(n("schedules.plan"), "count")
    m["schedules.plan.self_s"] = v(self_s("schedules.plan"), "s")
    m["schedules.require_feasible.calls"] = v(n("schedules.require_feasible"), "count")
    m["schedules.require_feasible.self_s"] = v(self_s("schedules.require_feasible"), "s")
    for fn in ("forward_batch", "backward_batch"):
        m[f"mlp.{fn}.calls"] = v(n(f"mlp.{fn}"), "count")
        m[f"mlp.{fn}.self_s"] = v(self_s(f"mlp.{fn}"), "s")
        m[f"mlp.{fn}.rows"] = v(counts[f"mlp.{fn}.rows"] / calls, "count")
    m["mlp.flops_computed"] = v(counts["mlp.flops_computed"] / calls, "flop")
    for fn in ("h_metric", "lyapunov", "descent_check"):
        m[f"diagnostics.{fn}.calls"] = v(n(f"diagnostics.{fn}"), "count")
        m[f"diagnostics.{fn}.self_s"] = v(self_s(f"diagnostics.{fn}"), "s")
    phi_calls = len(by_name.get("diagnostics.phi_inner", ()))
    m["diagnostics.phi_inner.calls"] = v(phi_calls / calls, "count")
    m["diagnostics.phi_inner.self_s"] = v(self_s("diagnostics.phi_inner"), "s")
    m["diagnostics.phi_inner.iters"] = v(counts["diagnostics.phi_inner.iters"] / calls, "count")
    # no inner ascent run means none went uncertified
    m["diagnostics.phi_inner.certified_ratio"] = v(
        counts["diagnostics.phi_inner.certified"] / phi_calls if phi_calls else 1.0, "ratio"
    )
    m["diagnostics.contraction_sweep.self_s"] = v(self_s("diagnostics.contraction_sweep"), "s")
    m["harness.io.self_s"] = v(self_s("harness.io"), "s")
    m["harness.io.bytes"] = v(counts["harness.io.bytes"] / calls, "B")
    m["harness.io.files"] = v(counts["harness.io.files"] / calls, "count")
    m["harness.config.self_s"] = v(self_s("harness.config"), "s")
    m["harness.commands.self_s"] = v(self_s("harness.commands"), "s")
    m["trace.command_s"] = v(sum(by_name.get("harness.commands", ())) / calls, "s")
    m["trace.self_sum_s"] = v(sum(selfs.values()) / calls, "s")
    return m


def write_spans(tracer: Tracer, path) -> None:
    """All recorded spans, one CSV row each, times relative to the first."""
    t_base = min((s[2] for s in tracer.spans), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["id", "name", "start_s", "end_s", "parent", "thread", "call"])
        for sid, name, t0, t1, parent, tid, call in sorted(tracer.spans):
            wr.writerow([sid, name, repr(t0 - t_base), repr(t1 - t_base), parent, tid, call])
