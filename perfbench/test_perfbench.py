"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import hub_graph, metric_stream  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (9, []), (99, []), (100, [90]), (199, [90]), (200, [90, 95]), (999, [90, 95]),
    (1000, [90, 95, 99]),
])
def test_tail_percentiles_keep_ten_samples_beyond(n, expected):
    assert run.tail_percentiles(n) == expected
    samples = list(range(n))
    for p in expected:
        assert sum(v > run.percentile(samples, p) for v in samples) >= 10


def test_percentile_interpolates_like_numpy():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for p in (0, 10, 50, 90, 100):
        assert run.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["leaf", 2.0, 3.0, 1, 1],
        ["b", 5.0, 9.0, 0, 1],
        ["a", 11.0, 12.0, -1, 2],
    ]
    self_s, incl_s, calls = tracing.span_times(spans)
    assert self_s == {"root": 3.0, "a": 3.0, "leaf": 1.0, "b": 4.0}
    assert incl_s == {"root": 10.0, "a": 4.0, "leaf": 1.0, "b": 4.0}
    assert calls == {"root": 1, "a": 2, "leaf": 1, "b": 1}
    assert tracing.outside_children(spans, "root", "a") == 7.0


def test_tracer_spans_nest_and_self_times_add_up():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(1000))

    wrapped_inner = tracer.span("inner")(inner)
    outer = tracer.span("outer")(lambda: [wrapped_inner() for _ in range(3)])
    outer()
    with tracer.pause():
        outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert all(s[3] == 0 for s in tracer.spans[1:])
    self_s, incl_s, calls = tracing.span_times(tracer.spans)
    assert self_s["outer"] == pytest.approx(incl_s["outer"] - incl_s["inner"])
    assert calls == {"outer": 1, "inner": 3}


def test_epoch_intervals_skip_epoch_zero_and_final_evaluations():
    ends = [0.0, 0.5, 1.0, 2.0, 2.1, 2.2]
    assert tracing.epoch_intervals_ms(ends, 4) == pytest.approx([500.0, 500.0, 1000.0])


def test_hub_generator_is_deterministic_per_seed():
    a = hub_graph(3, n=300, width=400)
    b = hub_graph(3, n=300, width=400)
    c = hub_graph(4, n=300, width=400)
    for x, y in ((a.edges, b.edges), (a.features, b.features), (a.labels, b.labels)):
        assert np.array_equal(x, y)
    assert not np.array_equal(a.edges, c.edges)
    assert a.n_edges == 6 + 3 * (300 - 4)
    assert set(np.unique(a.features)) == {0.0, 1.0}


def _hgcl_attributes():
    from hgcl import autodiff, cli, data, diffgeo, encoder, hpc, kernels, manifolds, optim
    from hgcl import pipeline

    snapshot = {}
    for mod in (autodiff, cli, data, diffgeo, encoder, hpc, kernels, manifolds, optim, pipeline):
        snapshot.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for cls in (autodiff.Tape, autodiff.Tensor, encoder.Encoder, optim.Adam, manifolds.Manifold):
        snapshot.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    snapshot.update({("ACTIVATIONS", k): v for k, v in encoder.ACTIVATIONS.items()})
    return snapshot


def test_tracing_restores_everything_and_keeps_results():
    from hgcl import data, pipeline

    graph = data.synthetic_tree(2, 4, d_feat=4, seed=0)
    tr, va, te = data.split(graph, seed=0)
    graph = data.Graph(graph.n_nodes, graph.edges, graph.features, graph.labels, tr, va, te)
    config = pipeline.TrainConfig(epochs=3, patience=3, seed=0)

    before = _hgcl_attributes()
    plain = metric_stream(pipeline.train(graph, config))
    clock, tracer, patcher = tracing.EpochClock(), tracing.Tracer(), tracing.Patcher()
    clock.install(patcher, pipeline)
    tracer.install(patcher)
    traced = metric_stream(pipeline.train(graph, config))
    assert patcher.restore() == []
    after = _hgcl_attributes()

    assert traced == plain
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert len(clock.calls) == 1 and len(clock.calls[0][1]) == 3 + 2
    assert tracer.counts["autodiff.backward_calls"] == 3
    assert tracer.ops["matmul"][0] > 0 and tracer.ops["matmul"][2] > 0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
