"""Layer boundaries: which public callables of ``repro`` belong to which layer.

One declarative table (:data:`LAYERS`) maps each layer to the public
names that form its boundary and to the workloads that must exercise it.
:func:`install` wraps every target so a call records a span (layer,
start, end, parent) into one in-memory :class:`SpanRecorder`; nothing in
``src/`` is edited. Module-level functions are re-bound in every loaded
module that did ``from ... import name``, so callers that captured the
name at import time are traced too. Hooks go in before any engine,
simulator or server object is built.

A target that no longer exists (renamed or deleted by a later refactor)
is reported in :attr:`Installed.missing`; a layer none of whose targets
exist reports ``None`` for its metrics. That is a warning, never a failed
run. A layer that *does* exist but stays silent on a workload the table
says exercises it is a benchmark error: the table's claim about where
the work happens is wrong and must be corrected.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass, field

SIM = ("sim_steady", "sim_steady_traced", "sim_churn", "sim_slo")
SIM_PACK = ("sim_steady", "sim_steady_traced", "sim_churn")
FUNC = ("func_distinct", "func_identical")
SERVE = ("serve_stream",)
ENGINE = SIM + FUNC + SERVE
SIM_BACKED = SIM + SERVE

# (layer, module, targets, workloads that must exercise the layer).
# A target is ``function`` or ``Class.method``; ``Class.*`` takes every
# public method the class itself defines (properties are left alone).
LAYERS = (
    ("workloads", "repro.workloads",
     ("generate_trace", "scale_trace", "open_loop_trace"), SIM + FUNC),
    ("cluster.events", "repro.cluster.events",
     ("EventLoop.run", "EventLoop.schedule",
      "CalendarQueue.push", "CalendarQueue.pop"), SIM_BACKED),
    ("cluster.simulator", "repro.cluster.simulator",
     ("ClusterSimulator.run", "ClusterSimulator.cancel"), SIM),
    ("cluster.scheduler", "repro.cluster.scheduler",
     ("PunicaScheduler.submit", "PunicaScheduler.drain_queue",
      "PunicaScheduler.consolidate", "PunicaScheduler.cancel"),
     SIM_PACK + SERVE),
    ("cluster.control.router", "repro.cluster.control.router",
     ("SloRouter.submit", "SloRouter.drain_queue", "SloRouter.route_decode"),
     ("sim_slo",)),
    ("cluster.control.costmodel", "repro.cluster.control.costmodel",
     ("FleetCostModel.estimate", "FleetCostModel.predict_ttft",
      "FleetCostModel.predict_itl", "FleetCostModel.best_floor"),
     ("sim_slo",)),
    ("cluster.vector", "repro.cluster.vector",
     ("VectorDecodeLane.try_merge",), ("sim_steady",)),
    ("cluster.metrics", "repro.cluster.metrics",
     ("ClusterMetrics.record_*",), SIM_BACKED),
    ("runtime.engine", "repro.runtime.engine",
     ("GpuEngine.step", "GpuEngine.add_request", "GpuEngine.cancel",
      "GpuEngine.steady_run_candidate", "GpuEngine.commit_steady_run"),
     ENGINE),
    ("runtime.backend", "repro.runtime.backend",
     ("SimulatedBackend.execute", "SimulatedBackend.execute_spec",
      "SimulatedBackend.execute_steady",
      "SimulatedBackend.steady_run_latencies",
      "NumpyBackend.execute", "NumpyBackend.execute_spec"), ENGINE),
    ("core.batch", "repro.core.batch",
     ("plan_batch", "plan_decode_batch", "PlanCache.plan", "PlanCache.get"),
     ENGINE),
    ("models.perf", "repro.models.perf",
     ("step_latency_terms", "step_latency_from_terms", "step_latency_steady",
      "step_latency_steady_run", "model_step_latency"), SIM_BACKED),
    ("hw.kernels", "repro.hw.kernels", ("KernelCostModel.*",), SIM_BACKED),
    ("kvcache.page", "repro.kvcache.page", ("PageAllocator.*",), ENGINE),
    ("kvcache.pool", "repro.kvcache.pool",
     ("KvPool.*", "PagedKvData.write_token", "PagedKvData.gather"), ENGINE),
    ("adapters.store", "repro.adapters.store",
     ("GpuAdapterStore.request_load", "GpuAdapterStore.acquire",
      "GpuAdapterStore.release", "GpuAdapterStore.reclaim"), ENGINE),
    ("models.llama", "repro.models.llama", ("LlamaModel.forward",), FUNC),
    ("core.sgmv", "repro.core.sgmv", ("sgmv_shrink", "sgmv_expand"), FUNC),
    ("core.lora", "repro.core.lora",
     ("LoraRegistry.stack", "LoraRegistry.stack_padded"), FUNC),
    ("obs.tracer", "repro.obs.tracer", ("Tracer.emit",),
     ("sim_steady_traced",) + SERVE),
    ("serve.protocol", "repro.serve.protocol",
     ("encode_frame", "decode_frame"), SERVE),
    ("serve.gateway", "repro.serve.gateway",
     ("ServeGateway.open", "ServeGateway.poll", "ServeGateway.client_close",
      "ServeGateway.account_tokens"), SERVE),
    ("serve.limits", "repro.serve.limits",
     ("AdmissionController.admit", "AdmissionController.release"), SERVE),
    ("serve.bridge", "repro.serve.bridge",
     ("SimulatorBridge.open", "SimulatorBridge.cancel"), SERVE),
)

LAYER_NAMES = tuple(row[0] for row in LAYERS)


class SpanRecorder:
    """Spans in compact parallel arrays plus running per-layer totals.

    A span's self time is its duration minus the time its direct child
    spans cover; summing self times per layer therefore never counts an
    interval twice, also when one layer's function calls another function
    of the same layer.
    """

    def __init__(self, layer_names: "tuple[str, ...]" = LAYER_NAMES):
        self.layer_names = layer_names
        self.layer = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.self_s = [0.0] * len(layer_names)
        self.calls = [0] * len(layer_names)
        self._stack: "list[list]" = []
        self.enabled = False

    @contextlib.contextmanager
    def recording(self):
        """Hooks record only inside this block (set-up and the timed rep,
        not the correctness checks around them)."""
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def summary(self) -> "dict[str, dict[str, float]]":
        return {
            name: {"self_s": self.self_s[i], "calls": self.calls[i]}
            for i, name in enumerate(self.layer_names)
        }

    def write_jsonl(self, path: str, workload: str, rep: str) -> None:
        """One span per line: name, start, end, parent index, run id."""
        names = self.layer_names
        with open(path, "w") as fh:
            for i in range(len(self.layer)):
                fh.write(
                    '{"id":%d,"name":"%s","start":%.9f,"end":%.9f,'
                    '"parent":%d,"workload":"%s","rep":"%s"}\n'
                    % (i, names[self.layer[i]], self.start[i], self.end[i],
                       self.parent[i], workload, rep)
                )


def _wrap(fn, layer_idx: int, rec: SpanRecorder, hook: "Hook", observer):
    """The span-recording wrapper around one boundary callable."""
    clock = time.perf_counter
    stack = rec._stack
    layers, starts, ends, parents = rec.layer, rec.start, rec.end, rec.parent
    self_s, calls = rec.self_s, rec.calls

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        hook.fired += 1
        idx = len(layers)
        layers.append(layer_idx)
        starts.append(0.0)
        ends.append(0.0)
        parents.append(stack[-1][0] if stack else -1)
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
            starts[idx] = t0
            ends[idx] = t1
            dur = t1 - t0
            self_s[layer_idx] += dur - frame[1]
            calls[layer_idx] += 1
            if stack:
                stack[-1][1] += dur
        if observer is not None:
            observer(args, kwargs, result)
        return result

    traced.__ledger_wrapped__ = fn
    return traced


@dataclass
class Hook:
    layer: str
    target: str
    fired: int = 0


@dataclass
class Installed:
    recorder: SpanRecorder
    hooks: "list[Hook]" = field(default_factory=list)
    missing: "list[str]" = field(default_factory=list)
    """``layer:target`` names the table lists but the program lacks."""

    def present_layers(self) -> "set[str]":
        return {h.layer for h in self.hooks}

    def silent_layers(self, workload: str) -> "list[str]":
        """Layers the table says ``workload`` exercises whose every hook
        stayed silent."""
        fired = {h.layer for h in self.hooks if h.fired}
        return [
            layer for layer, _mod, _targets, expect in LAYERS
            if workload in expect
            and layer in self.present_layers() and layer not in fired
        ]

    def silent_hooks(self) -> "list[str]":
        return [f"{h.layer}:{h.target}" for h in self.hooks if not h.fired]


def _public_methods(cls, pattern: str) -> "list[str]":
    prefix = pattern[:-1]
    names = []
    for name, raw in vars(cls).items():
        if name.startswith("_") or not name.startswith(prefix):
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            raw = raw.__func__
        if inspect.isfunction(raw):
            names.append(name)
    return sorted(names)


def _rebind_everywhere(original, replacement) -> None:
    """Point every loaded module's reference to ``original`` at the hook."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def install(recorder: "SpanRecorder | None" = None,
            observers: "dict[str, object] | None" = None) -> Installed:
    """Wrap every target of :data:`LAYERS`; call once, before any object
    of the program is built. ``observers`` maps ``layer:target`` to a
    ``(args, kwargs, result) -> None`` callback run after the span closes
    (outside the timed interval), for counts the program keeps nowhere."""
    rec = recorder or SpanRecorder()
    observers = observers or {}
    out = Installed(recorder=rec)
    for layer_idx, (layer, module_name, targets, _expect) in enumerate(LAYERS):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            out.missing.extend(f"{layer}:{t}" for t in targets)
            continue
        for target in targets:
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                out.missing.append(f"{layer}:{target}")
                continue
            attrs = _public_methods(owner, attr) if attr.endswith("*") else [attr]
            if not attrs:
                out.missing.append(f"{layer}:{target}")
            for name in attrs:
                raw = vars(owner).get(name)
                if raw is None or getattr(raw, "__ledger_wrapped__", None):
                    if raw is None:
                        out.missing.append(f"{layer}:{owner_name}.{name}")
                    continue
                label = f"{owner_name}.{name}" if owner_name else name
                hook = Hook(layer, label)
                observer = observers.get(f"{layer}:{label}")
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(
                        _wrap(raw.__func__, layer_idx, rec, hook, observer))
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(
                        _wrap(raw.__func__, layer_idx, rec, hook, observer))
                elif callable(raw):
                    wrapped = _wrap(raw, layer_idx, rec, hook, observer)
                else:
                    out.missing.append(f"{layer}:{label}")
                    continue
                if owner_name:
                    setattr(owner, name, wrapped)
                else:
                    _rebind_everywhere(raw, wrapped)
                out.hooks.append(hook)
    return out
