"""Tracing of hgcl from outside the package.

Wrappers are installed on the attributes where hgcl looks each name up at
call time (module globals such as ``hgcl.pipeline.build_sample_plan``, class
attributes such as ``Tape.backward``, the ``hgcl.encoder.ACTIVATIONS``
table), so no program file changes. Every patch is undone by
:meth:`Patcher.restore`, which also verifies that the original objects are
back in place.

Module-level functions become *spans* (name, start, end, parent, run id),
kept in memory and written out when the run ends. Autodiff primitives are
*timers*, not spans: their forward time is measured around the call and
their backward time by wrapping the ``_backward_fn`` of each node they put on
the tape. A module's self time therefore includes the primitives it issues
directly, and excludes the spans of other modules it calls.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Spans whose tape nodes (and their backward time) are attributed to a layer.
OWNERS = ("encoder.encode", "hpc.hpc_loss", "pipeline.decode", "pipeline.cross_entropy")

# Primitives of hgcl.autodiff that record onto the tape. Composites built from
# these (row_dot) are left alone so that no node is counted twice.
PRIMITIVES = (
    "add", "sub", "mul", "div", "neg", "scalar_mul", "matmul", "aggregate",
    "tanh", "sigmoid", "relu", "exp", "log", "sqrt", "square", "cosh", "sinh",
    "acosh_clamped", "artanh_clamped", "clip", "row_norm", "reduce_sum",
    "reduce_mean", "concat_cols", "slice_cols", "gather_rows",
)


class Patcher:
    """Replace attributes, remember the originals, put them back."""

    def __init__(self):
        self._undo: list[tuple[object, object, object, bool]] = []

    def attr(self, owner, name: str, make) -> None:
        """Set ``owner.name = make(original)``; classes are patched in their own dict."""
        original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original, False))

    def item(self, mapping: dict, key, make) -> None:
        original = mapping[key]
        mapping[key] = make(original)
        self._undo.append((mapping, key, original, True))

    def restore(self) -> list[str]:
        """Undo every patch, newest first; return the targets left unrestored."""
        for owner, name, original, is_item in reversed(self._undo):
            if is_item:
                owner[name] = original
            else:
                setattr(owner, name, original)
        first = {}  # a target patched twice must end at its first original
        for owner, name, original, is_item in self._undo:
            first.setdefault((id(owner), name), (owner, name, original, is_item))
        bad = []
        for owner, name, original, is_item in first.values():
            if is_item:
                current = owner[name]
            elif isinstance(owner, type):
                current = vars(owner).get(name)
            else:
                current = getattr(owner, name)
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{name}")
        self._undo.clear()
        return bad


class EpochClock:
    """Timestamps the end of every validation pass inside ``pipeline.train``.

    This is the only hook of an untraced run: two clock reads per epoch. It
    also keeps each ``TrainResult``, so that checks can reach models that
    the CLI does not return.
    """

    def __init__(self):
        self.calls: list[tuple[object, list[float]]] = []
        self._ends: list[float] | None = None

    def install(self, patcher: Patcher, pipeline) -> None:
        def wrap_train(train):
            @functools.wraps(train)
            def timed_train(*args, **kwargs):
                outer, self._ends = self._ends, []
                try:
                    result = train(*args, **kwargs)
                    self.calls.append((result, self._ends))
                    return result
                finally:
                    self._ends = outer
            return timed_train

        def wrap_evaluate(evaluate):
            @functools.wraps(evaluate)
            def timed_evaluate(*args, **kwargs):
                out = evaluate(*args, **kwargs)
                if self._ends is not None:
                    self._ends.append(perf_counter())
                return out
            return timed_evaluate

        patcher.attr(pipeline, "train", wrap_train)
        patcher.attr(pipeline, "evaluate", wrap_evaluate)


def epoch_intervals_ms(ends: list[float], epochs_run: int) -> list[float]:
    """Epoch times from validation-pass end stamps; epoch 0 is not timed.

    ``train`` evaluates once per epoch and twice after the loop, so the first
    ``epochs_run`` stamps close the epochs.
    """
    closes = ends[:epochs_run]
    return [1000.0 * (b - a) for a, b in zip(closes, closes[1:])]


class Tracer:
    """Spans for hgcl's layers plus per-primitive autodiff timers and counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self._stack: list[int] = []
        self._owner: list[str | None] = [None]
        self.run_id = 0
        self.paused = False
        self.counts: dict[str, float] = defaultdict(float)
        # op name -> [calls, forward seconds, backward seconds]
        self.ops: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.owner_nodes: dict[str | None, int] = defaultdict(int)
        self.owner_bwd_s: dict[str | None, float] = defaultdict(float)

    @contextmanager
    def pause(self):
        """Run hgcl code (output checks) without recording it."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, before=None, after=None):
        """Wrapper factory for a layer function; ``before``/``after`` hooks
        update counts outside the timed interval."""
        tracer = self
        is_owner = name in OWNERS

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if tracer.paused:
                    return fn(*args, **kwargs)
                if before is not None:
                    before(tracer, args, kwargs)
                stack = tracer._stack
                record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id]
                stack.append(len(tracer.spans))
                tracer.spans.append(record)
                if is_owner:
                    tracer._owner.append(name)
                record[1] = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    stack.pop()
                    if is_owner:
                        tracer._owner.pop()
                if after is not None:
                    after(tracer, args, kwargs, out)
                return out
            return traced
        return make

    def primitive(self, opname: str):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                if tracer.paused:
                    return fn(*args, **kwargs)
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                dt = perf_counter() - t0
                stat = tracer.ops[opname]
                stat[0] += 1
                stat[1] += dt
                backward = out._backward_fn
                if backward is not None:
                    owner = tracer._owner[-1]
                    tracer.owner_nodes[owner] += 1
                    out._backward_fn = tracer._timed_backward(backward, stat, owner)
                return out
            return timed
        return make

    def _timed_backward(self, backward, stat, owner):
        def timed_backward(g):
            t0 = perf_counter()
            backward(g)
            dt = perf_counter() - t0
            stat[2] += dt
            self.owner_bwd_s[owner] += dt
        return timed_backward

    def counter(self, key: str):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not tracer.paused:
                    tracer.counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    # -- installation ----------------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        """Patch every hgcl lookup site this benchmark measures."""
        from hgcl import autodiff, cli, data, diffgeo, encoder, kernels, manifolds, optim
        from hgcl import pipeline

        span = self.span
        for name in ("load_graph", "normalize_adjacency", "gromov_delta"):
            patcher.attr(data, name, span(f"data.{name}"))
        patcher.attr(pipeline, "normalize_adjacency", span("data.normalize_adjacency"))
        patcher.attr(kernels, "bfs_all_pairs", span("kernels.bfs_all_pairs", before=_count_bfs))
        patcher.attr(kernels, "four_point_delta_quads",
                     span("kernels.four_point_delta_quads", before=_count_quads))
        patcher.attr(kernels, "four_point_delta_exact", span("kernels.four_point_delta_exact"))
        patcher.attr(manifolds.Manifold, "pairwise_dist",
                     span("manifolds.pairwise_dist", before=_count_pairs))
        patcher.attr(manifolds.Manifold, "check_points", span("manifolds.check_points"))
        for name in ("exp0", "log0", "dist_rows", "transfer0"):
            patcher.attr(diffgeo, name, span(f"diffgeo.{name}"))
        patcher.attr(encoder, "lift_features", span("encoder.lift_features"))
        patcher.attr(encoder.Encoder, "encode", span("encoder.encode"))
        patcher.attr(pipeline, "build_sample_plan",
                     span("hpc.build_sample_plan", after=_count_negatives))
        patcher.attr(pipeline, "hpc_loss", span("hpc.hpc_loss"))
        patcher.attr(autodiff.Tape, "backward", span("autodiff.backward", before=_count_tape))
        patcher.attr(autodiff.Tensor, "__init__", self.counter("autodiff.tensors_created"))
        for name in PRIMITIVES:
            patcher.attr(autodiff, name, self.primitive(name))
        for key, fn in list(encoder.ACTIVATIONS.items()):
            name = getattr(fn, "__name__", "")
            if name in PRIMITIVES:
                patcher.item(encoder.ACTIVATIONS, key, self.primitive(name))
        patcher.attr(optim.Adam, "step", span("optim.step"))
        patcher.attr(optim, "clip_gradients", span("optim.clip_gradients", after=_count_clip))
        for name in ("train", "evaluate", "decode", "cross_entropy"):
            patcher.attr(pipeline, name, span(f"pipeline.{name}"))
        patcher.attr(pipeline, "export_heatmap", span("pipeline.export_heatmap"))
        patcher.attr(cli, "main", span("cli.main"))

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def _count_bfs(tracer, args, kwargs):
    indptr, indices, n = args[:3]
    tracer.counts["kernels.bfs_edges_scanned"] += int(n) * len(indices)


def _count_quads(tracer, args, kwargs):
    tracer.counts["kernels.quads_evaluated"] += len(args[1])


def _count_pairs(tracer, args, kwargs):
    x = args[1]
    y = args[2] if len(args) > 2 and args[2] is not None else x
    tracer.counts["manifolds.pair_dims"] += len(x) * len(y) * x.shape[-1]


def _count_negatives(tracer, args, kwargs, plan):
    tracer.counts["hpc.plans"] += 1
    tracer.counts["hpc.negatives_drawn"] += plan.neg_intra.size + plan.neg_inter.size


def _count_tape(tracer, args, kwargs):
    tape = args[0]
    tracer.counts["autodiff.backward_calls"] += 1
    tracer.counts["autodiff.tape_nodes"] += len(tape.nodes)
    tracer.counts["autodiff.tape_bytes"] += sum(node.value.nbytes for node in tape.nodes)


def _count_clip(tracer, args, kwargs, out):
    max_norm = args[1] if len(args) > 1 else kwargs.get("max_norm")
    tracer.counts["optim.clip_calls"] += 1
    if max_norm is not None and out[1] > max_norm:
        tracer.counts["optim.clipped"] += 1


def span_times(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: total self seconds, total inclusive seconds, call count.

    Self time is a span's duration minus the durations of its direct
    children; the tracer runs on one thread, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, run) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        incl_s[name] += end - start
        calls[name] += 1
    return dict(self_s), dict(incl_s), dict(calls)


def outside_children(spans, outer: str, inner: str) -> float:
    """Seconds of ``outer`` spans not covered by their direct ``inner`` children."""
    total = 0.0
    for name, start, end, parent, run in spans:
        if name == outer:
            total += end - start
        elif name == inner and parent >= 0 and spans[parent][0] == outer:
            total -= end - start
    return total
