"""The benchmark's workloads: generated inputs, timed set-up, operations, checks.

Every input comes from the workload seed. hgcl only ever sees the generated
graphs and the flags a user would pass.

* ``tree364-ablation``: synthetic_tree(3, 5, d_feat=16, noise=1.0), the
  acceptance-5 ablation setup at reduced scale. Each ablation (full, no_hpc,
  no_pos, no_dist) is trained for three seeds through ``hgcl.cli.main(["train",
  ...])`` with 150 epochs and patience 50. The arrays are tiny, so per-op
  Python overhead dominates (the per-negative ``hpc_loss`` loop, Tensor
  construction). The grid also covers early stopping, CLI artifact writes
  and a variant (no_hpc) that skips the contrastive layer.
* ``tree29k-epochs``: synthetic_tree(3, 9, d_feat=16), n=29524, written once
  in the dataset format, loaded through ``data.load_graph`` and trained with
  ``pipeline.train`` for a fixed number of epochs. Array size dominates: the
  O(n^2) sample plan, the scatter in ``gather_rows``, tape memory.
* ``hubwide-session``: a homophilous preferential-attachment graph (n=3000,
  E~3n, hubs of degree ~100) with 1000-wide sparse binary bag-of-words
  features, run through the README session: load, train for fixed epochs,
  ``gromov_delta`` on sampled quadruples, ``export_heatmap`` of ~1000 nodes.
  Wide features exercise the constant feature lift and the text loader; the
  analysis tail is the only user of ``kernels`` and ``manifolds``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.sparse import csgraph

from hgcl import cli, data, optim
from hgcl import pipeline as pl

from tracing import epoch_intervals_ms


@dataclass
class Op:
    """One measured operation: a train run, a delta call or a heatmap export."""

    kind: str
    label: str
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    stream: str = ""  # metric stream of a train run, compared across passes
    epoch_ms: list[float] = field(default_factory=list)
    epochs_run: int = 0
    test_acc: float | None = None
    primary: bool = False  # counts toward epoch_ms_p50 and test_acc

    @property
    def ok(self) -> bool:
        return not self.problems


class Probe:
    """What a workload needs from the harness: the epoch clock, a run id for
    spans, and a way to run checks without tracing them."""

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer

    def paused(self):
        return self.tracer.pause() if self.tracer is not None else contextlib.nullcontext()

    def run(self, op: Op, fn, check) -> Op:
        """Time ``fn()``, then run ``check(op, value)`` untimed; errors of
        either are recorded on the op instead of raised."""
        if self.tracer is not None:
            self.tracer.run_id += 1
        try:
            t0 = perf_counter()
            value = fn()
            op.seconds = perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            op.problems.append(f"{type(exc).__name__}: {exc}")
            return op
        with self.paused():
            try:
                check(op, value)
            except Exception as exc:  # noqa: BLE001
                op.problems.append(f"check raised {type(exc).__name__}: {exc}")
        return op

    def take_train_call(self, op: Op, n_before: int):
        """The single ``pipeline.train`` call made since ``n_before``, with the
        epoch times filled into ``op``; None (and a problem) otherwise."""
        calls = self.clock.calls[n_before:]
        if len(calls) != 1:
            op.problems.append(f"expected one pipeline.train call, saw {len(calls)}")
            return None
        result, ends = calls[0]
        if len(ends) != result.epochs_run + 2:
            op.problems.append(f"{len(ends)} validation passes for {result.epochs_run} epochs")
        op.epochs_run = result.epochs_run
        op.epoch_ms = epoch_intervals_ms(ends, result.epochs_run)
        op.test_acc = result.test_metrics.accuracy
        return result


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def hub_graph(seed: int, n: int = 3000, m_attach: int = 3, n_classes: int = 7,
              width: int = 1000, class_words: int = 40, homophily: float = 0.8,
              p_class_word: float = 0.6) -> data.Graph:
    """Homophilous preferential attachment with Cora-like bag-of-words features.

    Each new node joins with ``m_attach`` edges to distinct earlier nodes
    picked with probability proportional to degree, restricted to its own
    class with probability ``homophily``. A node holds 10-26 words; each is a
    word of its class's block with probability ``p_class_word``, otherwise a
    word of the shared vocabulary.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    m0 = m_attach + 1
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    ends = [v for e in edges for v in e]  # degree-weighted node pool
    class_ends: list[list[int]] = [[] for _ in range(n_classes)]
    for v in ends:
        class_ends[labels[v]].append(v)
    for i in range(m0, n):
        own = class_ends[labels[i]]
        targets: list[int] = []
        while len(targets) < m_attach:
            pool = own if own and rng.random() < homophily else ends
            t = pool[int(rng.integers(len(pool)))]
            if t not in targets:
                targets.append(t)
        for t in targets:
            edges.append((t, i))
            ends += [t, i]
            class_ends[labels[t]].append(t)
            class_ends[labels[i]].append(i)
    features = np.zeros((n, width))
    shared = np.arange(n_classes * class_words, width)
    for i in range(n):
        k = int(rng.integers(10, 27))
        k_class = int(rng.binomial(k, p_class_word))
        block = labels[i] * class_words
        features[i, block + rng.choice(class_words, k_class, replace=False)] = 1.0
        features[i, rng.choice(shared, k - k_class, replace=False)] = 1.0
    return data.Graph(n, np.array(edges, dtype=np.int64), features, labels)


def with_split(graph: data.Graph, seed: int) -> data.Graph:
    tr, va, te = data.split(graph, seed=seed)
    return data.Graph(graph.n_nodes, graph.edges, graph.features, graph.labels, tr, va, te)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def metric_stream(result) -> str:
    return "\n".join(rec.to_json() for rec in result.history) + "\n"


def check_history(op: Op, result) -> None:
    for rec in result.history:
        values = (rec.task_loss, rec.hpc_loss, rec.total_loss, rec.val_metric)
        if not all(math.isfinite(v) for v in values):
            op.problems.append(f"non-finite loss at epoch {rec.epoch}")
            break
    if len(result.history) != result.epochs_run:
        op.problems.append(f"len(history)={len(result.history)} != epochs_run={result.epochs_run}")


def check_checkpoint(op: Op, model, path: Path, graph, a_norm) -> "pl.HgclModel":
    """Reload ``path`` and require the same predictions as ``model``."""
    loaded = pl.HgclModel.load(path)
    if not np.array_equal(pl.predictions(model, graph, a_norm),
                          pl.predictions(loaded, graph, a_norm)):
        op.problems.append("reloaded checkpoint predicts differently")
    return loaded


def diameter(graph: data.Graph) -> float:
    d = csgraph.shortest_path(graph.csr_adjacency(), unweighted=True, directed=False)
    return float(np.max(d[np.isfinite(d)]))


def read_heatmap_csv(path: Path):
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    ids = [int(v) for v in header[1:-1]]
    body = [r.split(",") for r in rows[1:]]
    dist = np.array([[float(v) for v in r[1:-1]] for r in body])
    return ids, [int(r[0]) for r in body], dist


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._runs = 0

    def _outdir(self) -> Path:
        self._runs += 1
        return self.workdir / f"run{self._runs}"

    def prepare(self) -> None:
        """Generate and write the inputs (not timed)."""

    def setup(self) -> None:
        """One timed set-up: load or generate, split, normalize, model init."""
        raise NotImplementedError

    # Sessions i and i + PERIOD run the same operations on the same inputs;
    # a run makes at least PERIOD sessions.
    PERIOD = 1

    def session(self, probe: Probe, index: int) -> list[Op]:
        """The operations of measured session ``index``."""
        raise NotImplementedError

    def trace_session(self, probe: Probe) -> list[Op]:
        """The fixed operations of the untraced/traced comparison."""
        return self.session(probe, 0)

    def _model_setup(self, graph) -> None:
        data.normalize_adjacency(graph)
        model = pl.HgclModel(self.config(0), graph.features.shape[1], graph.n_classes)
        optim.Adam(model.parameters(), lr=model.config.lr, clip_norm=model.config.grad_clip)

    def config(self, seed: int) -> pl.TrainConfig:
        raise NotImplementedError


class Tree364Ablation(Workload):
    name = "tree364-ablation"
    TRAIN_SEEDS = (0, 1, 2)
    PERIOD = len(TRAIN_SEEDS)  # one session per training seed; together the grid
    EPOCHS, PATIENCE = 150, 50

    def prepare(self) -> None:
        self.spec = f"3,5,16,1.0,{self.seed}"
        self.graph = self._generate()
        self.a_norm = data.normalize_adjacency(self.graph)

    def _generate(self) -> data.Graph:
        tree = data.synthetic_tree(3, 5, d_feat=16, noise=1.0, seed=self.seed)
        return with_split(tree, self.seed)

    def config(self, seed: int) -> pl.TrainConfig:
        return pl.TrainConfig(epochs=self.EPOCHS, patience=self.PATIENCE, seed=seed)

    def setup(self) -> None:
        self._model_setup(self._generate())

    def session(self, probe: Probe, index: int) -> list[Op]:
        seed = self.TRAIN_SEEDS[index % self.PERIOD]
        return [self.cli_train(probe, ablation, seed) for ablation in pl.ABLATIONS]

    def cli_train(self, probe: Probe, ablation: str, seed: int) -> Op:
        out = self._outdir()
        argv = ["train", "--synthetic", self.spec, "--ablation", ablation,
                "--seeds", str(seed), "--epochs", str(self.EPOCHS),
                "--patience", str(self.PATIENCE), "--out", str(out)]
        op = Op("train", f"{ablation}/seed{seed}", primary=ablation == "full")
        n_before = len(probe.clock.calls)

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check(op: Op, code: int) -> None:
            if code != 0:
                op.problems.append(f"hgcl train exited with {code}")
                return
            result = probe.take_train_call(op, n_before)
            if result is None:
                return
            op.stream = (out / f"metrics_seed{seed}.jsonl").read_text()
            if op.stream != metric_stream(result):
                op.problems.append("metrics file differs from the returned history")
            check_history(op, result)
            summary = json.loads((out / f"summary_seed{seed}.json").read_text())
            if summary["epochs_run"] != result.epochs_run:
                op.problems.append("summary epochs_run differs from the run")
            check_checkpoint(op, result.model, out / f"model_seed{seed}.npz",
                             self.graph, self.a_norm)

        try:
            return probe.run(op, run, check)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class LoadedGraphWorkload(Workload):
    """A workload whose graph is written in the dataset format and loaded back."""

    EPOCHS = 1

    def generate(self) -> data.Graph:
        raise NotImplementedError

    def prepare(self) -> None:
        self.dataset = self.workdir / "dataset"
        data.save_graph(self.dataset, with_split(self.generate(), self.seed))
        self.graph = data.load_graph(self.dataset)
        self.a_norm = data.normalize_adjacency(self.graph)

    def setup(self) -> None:
        self._model_setup(data.load_graph(self.dataset))

    def config(self, seed: int) -> pl.TrainConfig:
        return pl.TrainConfig(epochs=self.EPOCHS, patience=self.EPOCHS, seed=seed)

    def trace_session(self, probe: Probe) -> list[Op]:
        self.setup()
        return self.session(probe, 0)

    def train(self, probe: Probe, checkpoint: Path) -> tuple[Op, object]:
        """Library training run; saves ``checkpoint`` and checks it reloads."""
        op = Op("train", "full/seed0", primary=True)
        n_before = len(probe.clock.calls)
        trained = {}

        def check(op: Op, result) -> None:
            probe.take_train_call(op, n_before)
            op.stream = metric_stream(result)
            check_history(op, result)
            result.model.save(checkpoint)
            trained["result"] = result
            trained["loaded"] = check_checkpoint(op, result.model, checkpoint,
                                                 self.graph, self.a_norm)

        probe.run(op, lambda: pl.train(self.graph, self.config(0)), check)
        return op, trained


class Tree29kEpochs(LoadedGraphWorkload):
    name = "tree29k-epochs"
    EPOCHS = 4

    def generate(self) -> data.Graph:
        return data.synthetic_tree(3, 9, d_feat=16, seed=self.seed)

    def session(self, probe: Probe, index: int) -> list[Op]:
        op, _ = self.train(probe, self.workdir / "model.npz")
        return [op]


class HubwideSession(LoadedGraphWorkload):
    name = "hubwide-session"
    EPOCHS = 15
    QUADRUPLES = 50_000
    HEATMAP_NODES = 1000

    def generate(self) -> data.Graph:
        return hub_graph(self.seed)

    def prepare(self) -> None:
        super().prepare()
        self.diameter = diameter(self.graph)
        per_class = math.ceil(self.HEATMAP_NODES / self.graph.n_classes)
        self.heatmap_ids = pl.default_heatmap_nodes(self.graph, per_class=per_class,
                                                    n_classes=self.graph.n_classes)

    def session(self, probe: Probe, index: int) -> list[Op]:
        train_op, trained = self.train(probe, self.workdir / "model.npz")
        return [train_op, self.delta(probe), self.heatmap(probe, trained.get("result"),
                                                          trained.get("loaded"))]

    def delta(self, probe: Probe) -> Op:
        def check(op: Op, delta: float) -> None:
            op.stream = repr(delta)
            if not 0.0 <= delta <= self.diameter / 2:
                op.problems.append(f"delta {delta} outside [0, diameter/2={self.diameter / 2}]")

        return probe.run(Op("delta", "sampled"),
                         lambda: data.gromov_delta(self.graph, num_quadruples=self.QUADRUPLES,
                                                   seed=self.seed), check)

    def heatmap(self, probe: Probe, result, loaded) -> Op:
        op = Op("heatmap", f"alpha/{len(self.heatmap_ids)}")
        if result is None:
            op.problems.append("no trained model to export")
            return op
        path = self.workdir / "heatmap.csv"

        def check(op: Op, dist: np.ndarray) -> None:
            op.stream = path.read_text()
            scale = max(1.0, float(np.max(dist)))
            if np.max(np.abs(dist - dist.T)) > 1e-9 * scale:
                op.problems.append("heatmap is not symmetric")
            if np.max(np.abs(np.diag(dist))) > 1e-6:
                op.problems.append("heatmap diagonal is not zero")
            ids, row_ids, written = read_heatmap_csv(path)
            expect = [int(i) for i in self.heatmap_ids]
            if ids != expect or row_ids != expect:
                op.problems.append("heatmap CSV ids differ from the requested nodes")
            elif not np.allclose(written, dist, rtol=1e-11, atol=1e-11):
                op.problems.append("heatmap CSV differs from the returned matrix")
            emb = loaded.embed(self.graph, self.a_norm)
            ref = emb.manifold_alpha.pairwise_dist(emb.points("alpha")[self.heatmap_ids])
            if not np.allclose(dist, ref, rtol=1e-12, atol=1e-12):
                op.problems.append("heatmap differs from pairwise_dist of the reloaded model")

        try:
            return probe.run(op, lambda: pl.export_heatmap(result.model, self.graph,
                                                           self.heatmap_ids, "alpha", path),
                             check)
        finally:
            path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (Tree364Ablation, Tree29kEpochs, HubwideSession)}
