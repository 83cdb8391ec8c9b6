"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 6 needs a local
Disease-format dataset (directory named by HGCL_DISEASE_DIR); it is skipped,
not failed, when the data is absent.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from hgcl import autodiff as ad
from hgcl import checks
from hgcl import diffgeo as dg
from hgcl import manifolds as mf
from hgcl import pipeline as pl
from hgcl.autodiff import Tensor
from hgcl.cli import main as cli_main
from hgcl.data import Graph, gromov_delta, load_graph, split, synthetic_tree
from hgcl.encoder import DualEmbedding
from hgcl.hpc import HpcConfig, SamplePlan, build_sample_plan, hpc_loss


def report(num, ok, desc, detail=""):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Manifold suite
# ---------------------------------------------------------------------------

def test_criterion_1_manifold_suite():
    t0 = time.time()
    results = checks.manifold_property_suites(trials=1000, seed=0)
    elapsed = time.time() - t0
    bad = [r for r in results if not r.ok]
    detail = f"{sum(r.trials for r in results)} checks, {elapsed:.1f}s" + \
        ("; failing: " + ", ".join(f"{r.name} ({r.worst_case})" for r in bad) if bad else "")
    report(1, not bad and elapsed < 30.0,
           "manifold property suites at stated tolerances in < 30 s", detail)


# ---------------------------------------------------------------------------
# 2. Gradient suite
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_suite():
    t0 = time.time()
    failures = []
    for case in checks.gradient_check_cases(seed=0, scope="all"):
        err = case.run()
        if err > case.threshold:
            failures.append(f"{case.name} err={err:.2e} thr={case.threshold:g}")
    elapsed = time.time() - t0
    report(2, not failures and elapsed < 120.0,
           "primitives <=1e-6, geometry compositions <=1e-4, hpc-through-encoder <=1e-3, < 2 min",
           f"{elapsed:.1f}s" + ("; " + "; ".join(failures) if failures else ""))


# ---------------------------------------------------------------------------
# 3. HPC closed-form oracle
# ---------------------------------------------------------------------------

def two_clique_fixture(d_between):
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j))
    graph = Graph(10, np.array(edges), np.zeros((10, 1)), np.zeros(10, dtype=int))
    man = mf.poincare(3, -1.0)
    u = np.zeros((1, 3))
    u[0, 0] = d_between / 2.0  # ball tangent metric norm is 2||u||
    far = dg.ambient_to_internal(man, man.exp0(u))
    coords = np.concatenate([np.zeros((5, 3)), np.repeat(far, 5, axis=0)])
    emb = DualEmbedding(Tensor(coords), Tensor(coords.copy()), man, man)
    return graph, man, emb


def test_criterion_3_hpc_closed_form_oracle():
    cfg = HpcConfig(bias=2.0, temperature=1.0, lambda_neg=0.5, num_negatives=2)
    graph, man, emb = two_clique_fixture(6.0)
    plan = build_sample_plan(graph, 2, np.random.default_rng(0))
    got = hpc_loss(emb, plan, cfg).item()

    # independent direct evaluation: every positive pair sits at distance 0,
    # every negative pair at distance 6, degree 4 everywhere
    def disc(d):
        z = (cfg.bias - d) / cfg.temperature
        s = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        return min(max(s, 1e-7), 1.0 - 1e-7)

    total = 0.0
    for _anchor in range(10):
        consistency = math.log(disc(0.0)) + cfg.lambda_neg * 2 * math.log(1.0 - disc(6.0))
        tolerance = 4 * math.log(disc(0.0)) + cfg.lambda_neg * 2 * math.log(1.0 - disc(6.0))
        total += 2 * consistency + 2 * tolerance  # both views are identical
    expected = -total / (2 * 10)

    diff = abs(got - expected)
    report(3, diff <= 1e-10,
           "hpc_loss matches independent evaluation of the MI sums at <= 1e-10",
           f"loss={got:.12f} oracle={expected:.12f} diff={diff:.2e}")


# ---------------------------------------------------------------------------
# 4. Monotonicity
# ---------------------------------------------------------------------------

def ray_embedding(man, radii):
    u = np.zeros((len(radii), man.dim))
    u[:, 0] = np.asarray(radii) / (2.0 if man.kind is mf.Model.POINCARE else 1.0)
    return dg.ambient_to_internal(man, man.exp0(u))


def empty_plan(n, neg_intra, neg_inter):
    return SamplePlan(np.asarray(neg_intra, dtype=np.int64),
                      np.asarray(neg_inter, dtype=np.int64),
                      np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def test_criterion_4_monotonicity_1000_trials():
    rng = np.random.default_rng(2024)
    manifolds = [mf.poincare(3, -1.0), mf.poincare(3, -0.5), mf.lorentz(3, -1.0)]
    violations = 0
    for trial in range(1000):
        man = manifolds[trial % 3]
        n = 5
        radii = np.sort(rng.uniform(0.3, 3.5, n))
        step = rng.uniform(0.05, 0.5)
        if trial % 2 == 0:
            # positive mode: node n-1's two views differ radially; pull them closer.
            # lambda_n = 0 so only the consistency pairs change.
            cfg = HpcConfig(lambda_neg=0.0, bias=rng.uniform(0.5, 3.0),
                            temperature=rng.uniform(0.3, 2.0))
            plan = empty_plan(n, np.zeros((n, 1)), np.zeros((n, 1)))
            alpha = ray_embedding(man, radii)
            gap = rng.uniform(0.2, 1.5)
            beta_radii = radii.copy()
            beta_radii[-1] += gap
            before = ray_embedding(man, beta_radii)
            beta_radii[-1] -= min(step, gap * 0.9)
            after = ray_embedding(man, beta_radii)
            l0 = hpc_loss(DualEmbedding(Tensor(alpha), Tensor(before), man, man),
                          plan, cfg).item()
            l1 = hpc_loss(DualEmbedding(Tensor(alpha), Tensor(after), man, man),
                          plan, cfg).item()
        else:
            # negative mode: identical views, push the outermost node (everyone's
            # sole negative) farther out; only negative-pair distances change.
            cfg = HpcConfig(lambda_neg=rng.uniform(0.1, 1.5), bias=rng.uniform(0.5, 3.0),
                            temperature=rng.uniform(0.3, 2.0), num_negatives=1)
            outer = n - 1
            negs = np.full((n, 1), outer)
            negs[outer, 0] = 0  # the outer node draws someone else
            plan = empty_plan(n, negs, negs.copy())
            before_coords = ray_embedding(man, radii)
            radii_after = radii.copy()
            radii_after[-1] += step
            after_coords = ray_embedding(man, radii_after)
            l0 = hpc_loss(DualEmbedding(Tensor(before_coords), Tensor(before_coords.copy()),
                                        man, man), plan, cfg).item()
            l1 = hpc_loss(DualEmbedding(Tensor(after_coords), Tensor(after_coords.copy()),
                                        man, man), plan, cfg).item()
        if not l1 < l0:
            violations += 1
    report(4, violations == 0,
           "positive-closer / negative-farther each strictly decreases the loss "
           "(1000 randomized trials)", f"violations={violations}")


# ---------------------------------------------------------------------------
# 5 & 7. Ablation study and heatmap claim on the synthetic tree
# ---------------------------------------------------------------------------

ABLATION_SEEDS = list(range(10))


@pytest.fixture(scope="module")
def tree_study():
    base = synthetic_tree(3, 5, d_feat=16, noise=1.0, seed=0)
    tr, va, te = split(base, (0.1, 0.2, 0.7), seed=0)
    graph = Graph(base.n_nodes, base.edges, base.features, base.labels, tr, va, te)
    t0 = time.time()
    results = {}
    keep_model = None
    for ablation in ("full", "no_hpc", "no_pos", "no_dist"):
        accs = []
        for seed in ABLATION_SEEDS:
            cfg = pl.TrainConfig(epochs=150, patience=50, seed=seed, ablation=ablation)
            res = pl.train(graph, cfg)
            accs.append(res.test_metrics.accuracy)
            if ablation == "full" and keep_model is None:
                keep_model = res.model
        results[ablation] = float(np.mean(accs))
    return {"graph": graph, "means": results, "model": keep_model,
            "elapsed": time.time() - t0}


def test_criterion_5_directional_ablation(tree_study):
    m = tree_study["means"]
    elapsed = tree_study["elapsed"]
    ok = (m["full"] >= m["no_hpc"] and m["full"] >= m["no_pos"]
          and m["full"] >= m["no_dist"] and m["full"] - m["no_hpc"] >= 0.01
          and elapsed < 600.0)
    detail = (f"full={m['full']:.4f} no_hpc={m['no_hpc']:.4f} no_pos={m['no_pos']:.4f} "
              f"no_dist={m['no_dist']:.4f} gap={m['full'] - m['no_hpc']:.4f} "
              f"time={elapsed:.0f}s")
    report(5, ok, "full >= every ablation and full - no_hpc >= 1 point "
                  "(10 seeds, < 10 min)", detail)


def test_criterion_7_heatmap_compactness(tree_study, tmp_path):
    graph = tree_study["graph"]
    model = tree_study["model"]
    ids = pl.default_heatmap_nodes(graph, per_class=20, n_classes=graph.n_classes)
    labels = graph.labels[ids]
    ok_views = []
    stats = []
    for view in ("alpha", "beta"):
        dist = pl.export_heatmap(model, graph, ids, view, tmp_path / f"{view}.csv")
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(len(ids), dtype=bool)
        intra = float(np.mean(dist[same & off_diag]))
        inter = float(np.mean(dist[~same]))
        ok_views.append(intra < inter)
        stats.append(f"{view}: intra={intra:.3f} inter={inter:.3f}")
    report(7, all(ok_views),
           "mean intra-class embedding distance < mean inter-class, both views",
           "; ".join(stats))


# ---------------------------------------------------------------------------
# 6. Optional Disease-format reproduction
# ---------------------------------------------------------------------------

def test_criterion_6_disease_if_available():
    path = os.environ.get("HGCL_DISEASE_DIR")
    if not path or not os.path.isdir(path):
        print("ACCEPTANCE 6 SKIP: no converted Disease-format dataset "
              "(set HGCL_DISEASE_DIR)", flush=True)
        pytest.skip("Disease-format dataset not supplied")
    graph = load_graph(path)
    f1 = {"full": [], "no_hpc": []}
    for ablation in f1:
        for seed in range(5):
            cfg = pl.TrainConfig(epochs=300, patience=100, seed=seed,
                                 ablation=ablation, eval_metric="macro_f1")
            res = pl.train(graph, cfg)
            f1[ablation].append(res.test_metrics.macro_f1)
    mean_full = float(np.mean(f1["full"]))
    mean_no = float(np.mean(f1["no_hpc"]))
    report(6, mean_full >= 0.85 and mean_full > mean_no,
           "Disease-format: full-model mean F1 >= 0.85 over 5 seeds and full > no_hpc",
           f"full={mean_full:.4f} no_hpc={mean_no:.4f}")


# ---------------------------------------------------------------------------
# 8. Hyperbolicity estimator
# ---------------------------------------------------------------------------

def independent_four_point(dist):
    best = 0.0
    n = dist.shape[0]
    for q in itertools.combinations(range(n), 4):
        w, x, y, z = q
        sums = sorted([dist[w, x] + dist[y, z], dist[w, y] + dist[x, z],
                       dist[w, z] + dist[x, y]], reverse=True)
        best = max(best, (sums[0] - sums[1]) / 2.0)
    return best


def test_criterion_8_delta_estimator():
    from scipy.sparse.csgraph import shortest_path

    path40 = Graph(40, np.array([(i, i + 1) for i in range(39)]),
                   np.zeros((40, 1)), np.zeros(40, dtype=int))
    trees = [synthetic_tree(2, 3, d_feat=4), synthetic_tree(3, 3, d_feat=4),
             synthetic_tree(2, 4, d_feat=4), synthetic_tree(4, 2, d_feat=8), path40]
    tree_ok = all(gromov_delta(t, exact=True) == 0.0 for t in trees)

    rng = np.random.default_rng(5)
    sampled_ok = True
    cross_ok = True
    graphs = []
    for n in (6, 9, 12):
        edges = np.array([(i, (i + 1) % n) for i in range(n)])
        graphs.append(Graph(n, np.sort(edges, axis=1), np.zeros((n, 1)),
                            np.zeros(n, dtype=int)))
    for n in (15, 30, 55):
        edges = {(i, i + 1) for i in range(n - 1)}
        while len(edges) < int(1.4 * n):
            i, j = sorted(rng.integers(0, n, 2))
            if i != j:
                edges.add((i, j))
        graphs.append(Graph(n, np.array(sorted(edges)), np.zeros((n, 1)),
                            np.zeros(n, dtype=int)))
    for g in graphs:
        exact = gromov_delta(g, exact=True)
        d = shortest_path(g.csr_adjacency(), unweighted=True, directed=False)
        if g.n_nodes <= 14 and independent_four_point(d) != exact:
            cross_ok = False
        for count in (100, 2000):
            if gromov_delta(g, num_quadruples=count, seed=3) > exact:
                sampled_ok = False
    report(8, tree_ok and sampled_ok and cross_ok,
           "exact delta = 0 on trees; sampled <= exact on all n <= 60 graphs; "
           "exhaustive scan matches independent enumeration",
           f"trees={tree_ok} sampled_bound={sampled_ok} cross_check={cross_ok}")


# ---------------------------------------------------------------------------
# 9. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path, capsys):
    train_args = ["train", "--synthetic", "2,4,8,0.5", "--seeds", "0,1",
                  "--epochs", "12", "--patience", "12", "--hidden-dim", "8",
                  "--embed-dim", "8"]
    assert cli_main(train_args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(train_args + ["--out", str(tmp_path / "b")]) == 0
    same_files = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("metrics_seed0.jsonl", "metrics_seed1.jsonl",
                     "summary_seed0.json", "summary_seed1.json", "aggregate.json"))

    capsys.readouterr()
    cli_main(["delta", "--synthetic", "3,4", "--samples", "2000", "--seed", "4"])
    out1 = capsys.readouterr().out
    cli_main(["delta", "--synthetic", "3,4", "--samples", "2000", "--seed", "4"])
    out2 = capsys.readouterr().out

    heat_args = ["heatmap", "--synthetic", "2,4,8,0.5",
                 "--model", str(tmp_path / "a" / "model_seed0.npz"),
                 "--nodes", "0,1,2,3,4", "--view", "alpha"]
    cli_main(heat_args + ["--out", str(tmp_path / "h1.csv")])
    cli_main(heat_args + ["--out", str(tmp_path / "h2.csv")])
    same_heat = (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()

    report(9, same_files and out1 == out2 and same_heat,
           "repeated CLI invocations produce byte-identical metric outputs",
           f"train_files={same_files} delta_stdout={out1 == out2} heatmap_csv={same_heat}")
