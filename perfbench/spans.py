"""Span tracing around the calls a pipeline makes into simga's layer modules.

`Instrumentation.install` replaces every public function of the layer modules
(graph, data, simrank, model, nn), plus the few private epoch steps of
`simga.model` and the cached `Graph.adjacency_csr`, with a wrapper that
records a span. The replacement is made in every loaded simga module that
holds the function, because `from .x import f` binds f in the importer too.
`uninstall` puts the originals back, so untraced pipelines run unmodified
code. Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("graph", "data", "simrank", "model", "nn")

# Private steps of `simga.model.fit` that mark the phases of an epoch.
MODEL_STEPS = {"_embed_with_cache": "model.embed", "_backward": "model.backward"}


class Tracer:
    """Spans as [name, start, end, parent, pipeline] rows, plus counters per span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.pipeline = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pipeline])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, idx: int, **values: float) -> None:
        self.counts.setdefault(idx, {}).update(values)

    def write(self, path: Path, header: dict) -> None:
        """One JSON line of run facts, then one line per span."""
        keys = ("name", "start", "end", "parent", "pipeline")
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for idx, row in enumerate(self.spans):
                rec = dict(zip(keys, row), id=idx)
                if idx in self.counts:
                    rec["counts"] = self.counts[idx]
                fh.write(json.dumps(rec) + "\n")


# Counters read from a call's arguments and result after its span has closed.
# They use only public attributes, so a representation change drops a counter
# (see _counted) instead of failing the run.


def _localpush(args, kwargs, raw):
    threshold = (1.0 - raw.c) * raw.eps
    return {
        "pops": raw.pops,
        "estimate_nnz": _nnz(raw.estimate),
        "residual_nnz": _nnz(raw.residual),
        "max_residual_ratio": raw.max_residual() / threshold,
    }


def _fixedpoint(args, kwargs, s):
    # per iteration: read and write n x n for each of the two products and the
    # c-scaling; once at the end: the symmetrising minimum reads two, writes one
    return {"iterations": s.iterations, "bytes_computed": (6 * s.iterations + 3) * s.values.nbytes}


def _topk_prune(args, kwargs, result):
    return {"candidates": int(np.count_nonzero(args[0].values))}


def _topk_from_push(args, kwargs, result):
    raw = args[0]
    diag = sum(1 for u in range(raw.n) if u * raw.n + u in raw.estimate)
    return {"candidates": _nnz(raw.estimate) - diag + raw.n}


def _load_edge_list(args, kwargs, g):
    return {"n": g.n, "m": g.m}


def _adam_step(args, kwargs, state):
    # reads param, grad, m, v and writes m, v, param: seven streams of each array
    return {"bytes_computed": 7 * sum(p.nbytes for p in args[0])}


COUNTERS = {
    "simrank.simrank_localpush": _localpush,
    "simrank.simrank_fixedpoint": _fixedpoint,
    "simrank.topk_prune": _topk_prune,
    "simrank.topk_from_push": _topk_from_push,
    "graph.load_edge_list": _load_edge_list,
    "nn.adam_step": _adam_step,
}


def _nnz(obj) -> int:
    return int(obj.nnz) if hasattr(obj, "nnz") else len(obj)


class Instrumentation:
    """Installs span-recording wrappers into the loaded simga modules and removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: list[tuple[object, str, object]] = []
        self._warned: set[str] = set()

    def _targets(self):
        """Yield (module, attribute, span name) for every function to wrap."""
        for layer in LAYERS:
            mod = sys.modules[f"simga.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield mod, attr, f"{layer}.{attr}"
        model = sys.modules["simga.model"]
        for attr, name in MODEL_STEPS.items():
            if hasattr(model, attr):
                yield model, attr, name
        if hasattr(model, "_logits_with_cache"):
            yield model, "_logits_with_cache", None

    def install(self) -> None:
        if self._patches:
            return
        import simga.cli  # noqa: F401  (load every module that binds layer functions)

        loaded = [m for key, m in sys.modules.items() if key == "simga" or key.startswith("simga.")]
        for mod, attr, name in self._targets():
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name)
            for holder in loaded:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        graph_cls = sys.modules["simga.graph"].Graph
        original = graph_cls.adjacency_csr
        self._patches.append((graph_cls, "adjacency_csr", original))
        graph_cls.adjacency_csr = self._wrap(original, "graph.adjacency_csr")

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _wrap(self, fn, name: str | None):
        tracer = self.tracer
        if name is None:
            # the same forward serves the training step and the eval pass
            sig = inspect.signature(fn)

            def pick(args, kwargs):
                training = sig.bind(*args, **kwargs).arguments.get("training", False)
                return "model.forward" if training else "model.eval_pass"

        else:

            def pick(args, kwargs):
                return name

        counter = COUNTERS.get(name or "")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(pick(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                self._counted(idx, name, counter, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, idx, name, counter, args, kwargs, result) -> None:
        # A counter reads program objects whose representation later changes
        # may alter; a counter that no longer applies is dropped with a warning
        # rather than failing the pipeline it observes.
        try:
            self.tracer.count(idx, **counter(args, kwargs, result))
        except (AttributeError, TypeError, ValueError, KeyError, ZeroDivisionError) as exc:
            if name not in self._warned:
                self._warned.add(name)
                print(f"perfbench: counter for {name} dropped: {exc!r}", file=sys.stderr)


# Metrics timed per call (median over calls) because they run once or twice
# per epoch; every other *_s metric is the total per pipeline (median over
# pipelines). All *_s metrics are inclusive span times; <layer>.self_s is the
# layer's self time, i.e. minus the time of any span nested inside.
PER_CALL = {
    "model.embed": "model.embed_s",
    "model.eval_pass": "model.evaluate_s",
    "nn.adam_step": "nn.adam_step_s",
    "simrank.sparse_aggregate": "simrank.sparse_aggregate_s",
}
PER_PIPELINE = {
    "graph.load_edge_list": "graph.load_edge_list_s",
    "graph.adjacency_csr": "graph.adjacency_csr_s",
    "data.load_features": "data.load_features_s",
    "data.load_labels": "data.load_labels_s",
    "data.load_split": "data.load_splits_s",
    # the two routes to S; a workload takes one of them
    "simrank.simrank_localpush": "simrank.similarity_s",
    "simrank.simrank_fixedpoint": "simrank.similarity_s",
    "simrank.topk_prune": "simrank.topk_s",
    "simrank.topk_from_push": "simrank.topk_s",
    "simrank.dump_sparse_sim": "simrank.dump_s",
    "simrank.load_sparse_sim": "simrank.load_s",
    "model.save_checkpoint": "model.save_checkpoint_s",
}
# (span, counter) -> metric; the largest value in a pipeline (the calls that
# count repeat the same work, such as one Adam step per epoch), median over
# pipelines
COUNTED = {
    ("graph.load_edge_list", "n"): "graph.n",
    ("graph.load_edge_list", "m"): "graph.m",
    ("simrank.simrank_localpush", "pops"): "simrank.localpush_pops",
    ("simrank.simrank_localpush", "estimate_nnz"): "simrank.estimate_nnz",
    ("simrank.simrank_localpush", "residual_nnz"): "simrank.residual_nnz",
    ("simrank.simrank_localpush", "max_residual_ratio"): "simrank.max_residual_ratio",
    ("simrank.simrank_fixedpoint", "iterations"): "simrank.fixedpoint_iterations",
    ("simrank.simrank_fixedpoint", "bytes_computed"): "simrank.fixedpoint_bytes_computed",
    ("simrank.topk_prune", "candidates"): "simrank.topk_candidates",
    ("simrank.topk_from_push", "candidates"): "simrank.topk_candidates",
    ("nn.adam_step", "bytes_computed"): "nn.adam_bytes_computed",
}


def layer_metrics(tracer: Tracer, pipelines: list[int]) -> dict[str, float]:
    """Per-layer metrics from the spans of the given traced pipelines."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def layer_of(idx: int) -> str | None:
        head = spans[idx][0].split(".", 1)[0]
        return head if head in LAYERS else None

    per_call: dict[str, list[float]] = {}
    called: dict[int, set[str]] = {p: set() for p in pipelines}
    per_pipe: dict[int, dict[str, float]] = {p: {} for p in pipelines}
    counted: dict[int, dict[str, float]] = {p: {} for p in pipelines}
    adam_starts: dict[int, list[float]] = {p: [] for p in pipelines}
    forward_starts: dict[int, list[float]] = {p: [] for p in pipelines}
    for idx, (name, start, end, parent, pipe) in enumerate(spans):
        if pipe not in per_pipe:
            continue
        dur = end - start
        called[pipe].add(name)
        acc = per_pipe[pipe]
        layer = layer_of(idx)
        if layer is not None:
            acc[f"{layer}.self_s"] = acc.get(f"{layer}.self_s", 0.0) + dur - child_time[idx]
            if parent < 0 or layer_of(parent) is None:
                acc["covered"] = acc.get("covered", 0.0) + dur
        if name == "pipeline":
            acc["wall"] = dur
        if name in PER_CALL:
            per_call.setdefault(PER_CALL[name], []).append(dur)
        if name in PER_PIPELINE:
            key = PER_PIPELINE[name]
            acc[key] = acc.get(key, 0.0) + dur
        if name == "nn.adam_step":
            adam_starts[pipe].append(start)
        if name == "model.forward":
            forward_starts[pipe].append(start)
        for cname, val in tracer.counts.get(idx, {}).items():
            if (name, cname) in COUNTED:
                key = COUNTED[(name, cname)]
                counted[pipe][key] = max(counted[pipe].get(key, 0.0), val)
    # A count none of whose spans ran (the push's counts on the dense route and
    # the other way round) is 0; one whose span ran but whose counter was
    # dropped stays missing.
    sources: dict[str, set[str]] = {}
    for (name, _), key in COUNTED.items():
        sources.setdefault(key, set()).add(name)
    for pipe in pipelines:
        for key, names in sources.items():
            if not names & called[pipe]:
                counted[pipe].setdefault(key, 0.0)

    out: dict[str, float] = {k: statistics.median(v) for k, v in per_call.items()}
    for table in (per_pipe, counted):
        keys = {k for acc in table.values() for k in acc}
        for key in keys:
            vals = [acc[key] for acc in table.values() if key in acc]
            out[key] = statistics.median(vals)
    out["trace.uncovered_share"] = statistics.median(
        1.0 - acc.get("covered", 0.0) / acc["wall"] for acc in per_pipe.values()
    )
    out.pop("covered", None)
    out.pop("wall", None)
    epochs, epoch_s, step_s = [], [], []
    for pipe in pipelines:
        starts = adam_starts[pipe]
        epochs.append(len(starts))
        epoch_s.extend(np.diff(starts).tolist())
        # forward + loss + backward: from the training forward to the optimizer step
        step_s.extend(a - f for f, a in zip(forward_starts[pipe], starts))
    if any(epochs):
        out["model.epochs"] = statistics.median(epochs)
    if epoch_s:
        out["model.epoch_s"] = statistics.median(epoch_s)
    if step_s:
        out["model.loss_and_grads_s"] = statistics.median(step_s)
    return out


def traced_errors(tracer: Tracer, pipeline: int, inputs) -> str | None:
    """Checks only a traced pipeline can make: the push bound and the parsed graph size."""
    for idx, row in enumerate(tracer.spans):
        if row[4] != pipeline:
            continue
        counts = tracer.counts.get(idx, {})
        if counts.get("max_residual_ratio", 0.0) > 1.0:
            return f"push residual {counts['max_residual_ratio']:.4f} x (1-c)eps exceeds its bound"
        if "n" in counts and (counts["n"], counts["m"]) != (inputs.n, inputs.m):
            return f"parsed graph n={counts['n']} m={counts['m']}, generated n={inputs.n} m={inputs.m}"
    return None
