"""Per-layer host-time tracing from outside the program.

For the traced run the benchmark wraps the public functions of each layer
module (the table below) in a span recorder, runs the workload, and puts
the originals back.  The program's own tracer stays off: turning it on
sends ``Transport`` down its per-message slow path, which would measure a
different program.  The bulk variants of each layer (``reserve_many``,
``transfer_many``, ``serve_fast_fanout``, ...) are wrapped beside the
per-message ones.

Each span records its layer, host start and end, its parent span and a
request id: the id of the outermost enclosing ``ps.client`` op, or of the
root span when no client op encloses it.  A layer's *self time* is its
spans' host time minus the time covered by their child spans, so the self
times of all layers plus the self time of the benchmark's own root spans
add up to the traced host time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

#: (layer, module, class or None, function names or a selector).
#: ``None`` as the class wraps module-level functions.  A callable
#: selector picks the classes and method names to wrap from the module.
LAYER_TABLE = (
    ("cluster.resource", "repro.cluster.resource", "TimelineResource",
     ("reserve", "reserve_many", "reserve_chain")),
    ("cluster.network", "repro.cluster.network", "NetworkModel",
     ("transfer", "transfer_many", "transfer_gather")),
    ("cluster.metrics", "repro.cluster.metrics", "MetricsRegistry",
     lambda name: name.startswith("record_") or name in ("observe",
                                                         "increment")),
    ("ps.messages", "repro.ps.messages", "*Request",
     ("wire_bytes", "response_bytes")),
    ("ps.transport", "repro.ps.transport", "Transport", ("send", "send_all")),
    ("ps.server", "repro.ps.server", "PSServer", ("dispatch",)),
    ("ps.server", "repro.ps.server", None, ("serve_fast_fanout",)),
    ("ps.client", "repro.ps.client", "PSClient",
     ("pull_row", "pull_or_create", "push_add", "push_assign", "pull_range",
      "push_range", "pull_block", "push_block_add", "aggregate_row",
      "execute", "fill_row")),
    ("ps.replication", "repro.ps.replication", "ChainReplicator",
     ("fan_out_messages", "route_read", "promote_into")),
    ("ps.costmodel", "repro.ps.costmodel", "CostModel", ("prepare",)),
    ("ps.costmodel", "repro.ps.codecs", "*Codec", ("encode", "decode")),
    ("ps.master", "repro.ps.master", "PSMaster",
     ("create_matrix", "create_table", "register_lazy_rows", "recover")),
    ("sparklite.scheduler", "repro.sparklite.scheduler", "Scheduler",
     ("run_stage", "tree_combine")),
    ("core.dcv", "repro.core.dcv", "DCV",
     lambda name: not name.startswith("_")),
    ("ml", "repro.ml.lr", None, ("train_logistic_regression",)),
    ("ml", "repro.ml.losses", None,
     ("logistic_grad_batch", "logistic_loss_batch", "grad_flops")),
    ("ml", "repro.linalg.sparse", None, ("batch_index_union",)),
    ("serving", "repro.serving.traffic", "TrafficGenerator", ("generate",)),
    ("serving", "repro.serving.slo", "SLOTracker", ("observe",)),
)

#: Layer names in report order (the table above, deduplicated).
LAYERS = tuple(dict.fromkeys(row[0] for row in LAYER_TABLE))

#: Root spans the benchmark opens around its own timed sections.
ROOTS = ("bench.setup", "bench.workload")

#: Spans kept in memory for the span file; later spans are only counted.
KEEP_SPANS = 200_000


class SpanRecorder:
    """Stack-based span recorder with per-layer call and self-time totals."""

    def __init__(self):
        self.names = list(ROOTS) + list(LAYERS)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.client_index = self._index["ps.client"]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.stack = []
        self.next_id = 1
        self.dropped = 0
        # Kept spans, one column per field.
        self.span_layer = array("i")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def index(self, name):
        return self._index[name]

    def enter(self, layer):
        stack = self.stack
        sid = self.next_id
        self.next_id = sid + 1
        if stack:
            parent = stack[-1]
            if parent[5] or layer != self.client_index:
                request, in_op = parent[4], parent[5]
            else:
                request, in_op = sid, True
            parent_id = parent[1]
        else:
            request, in_op, parent_id = sid, layer == self.client_index, 0
        # [layer, id, start, child_s, request, in_op, parent]
        stack.append([layer, sid, time.perf_counter(), 0.0, request, in_op,
                      parent_id])

    def exit(self):
        end = time.perf_counter()
        frame = self.stack.pop()
        layer, sid, start, child, request, _in_op, parent_id = frame
        duration = end - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][3] += duration
        if len(self.span_id) < KEEP_SPANS:
            self.span_layer.append(layer)
            self.span_id.append(sid)
            self.span_parent.append(parent_id)
            self.span_request.append(request)
            self.span_start.append(start)
            self.span_end.append(end)
        else:
            self.dropped += 1

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` inside a root span named *name*."""
        self.enter(self._index[name])
        try:
            return fn(*args)
        finally:
            self.exit()

    def write(self, path):
        """Write the kept spans as CSV: name,id,parent,request,start,end."""
        base = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as fh:
            fh.write("name,id,parent,request,start_s,end_s\n")
            for i in range(len(self.span_id)):
                fh.write("%s,%d,%d,%d,%.9f,%.9f\n" % (
                    self.names[self.span_layer[i]], self.span_id[i],
                    self.span_parent[i], self.span_request[i],
                    self.span_start[i] - base, self.span_end[i] - base))


def _wrap(recorder, layer, fn):
    enter = recorder.enter
    exit_ = recorder.exit

    def traced(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return traced


def _targets(module, cls_name, names):
    """Yield ``(owner, attribute name)`` pairs one table row wraps.

    Names the program no longer has are skipped, so a refactor that
    removes one (say, a bulk twin) leaves the layer reporting fewer calls
    instead of breaking the benchmark.
    """
    if cls_name is None:
        for name in names:
            if inspect.isfunction(vars(module).get(name)):
                yield module, name
        return
    if cls_name.startswith("*"):
        suffix = cls_name[1:]
        classes = [obj for obj in vars(module).values()
                   if inspect.isclass(obj) and obj.__module__ == module.__name__
                   and obj.__name__.endswith(suffix)]
    else:
        classes = [cls for cls in (vars(module).get(cls_name),)
                   if inspect.isclass(cls)]
    for cls in classes:
        for name, attr in vars(cls).items():
            if not (inspect.isfunction(attr) or isinstance(attr, staticmethod)):
                continue
            if names(name) if callable(names) else name in names:
                yield cls, name


class Patch:
    """Installs the layer wrappers; ``restore()`` puts the originals back."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def install(self):
        for layer, module_name, cls_name, names in LAYER_TABLE:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            index = self.recorder.index(layer)
            for owner, name in _targets(module, cls_name, names):
                original = vars(owner)[name]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(
                        _wrap(self.recorder, index, original.__func__))
                    self._set(owner, name, original, wrapped)
                elif owner is module:
                    self._patch_function(original,
                                         _wrap(self.recorder, index, original))
                else:
                    self._set(owner, name, original,
                              _wrap(self.recorder, index, original))
        return self

    def _set(self, owner, name, original, wrapped):
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapped)

    def _patch_function(self, original, wrapped):
        # Module-level functions are also bound by ``from x import f`` in
        # other modules, or kept in module-level dispatch tables; rebind
        # every such reference the program and the benchmark hold.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name.startswith("repro")
                                   or mod_name.startswith("perfbench")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, original, wrapped)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._saved.append((value, key, original))
                            value[key] = wrapped

    def restore(self):
        for owner, name, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._saved = []
