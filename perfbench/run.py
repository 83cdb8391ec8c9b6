"""hgcl benchmark: three training/analysis workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of tree364-ablation, tree29k-epochs, hubwide-session (see
workloads.py for why each exists), or ``all`` to run the three one after
another, each in its own process. Each workload runs in one process with
BLAS pinned to one thread.

``--trace 0`` repeats sessions of the workload for about S seconds with only
an epoch clock installed (two clock reads per epoch) and reports the
end-to-end metrics:

* setup_s: median of repeated set-ups (load or generate, split,
  normalize_adjacency, model and optimizer init);
* epoch_ms_p50: median time of one training step plus its validation pass,
  over the epochs of the primary train runs (``full`` on tree364-ablation),
  epoch 0 of each run excluded;
* session_ms_per_epoch: wall time of all sessions' operations over the
  training epochs they ran: the amortised cost of an epoch with set-up, CLI
  artifact writes, final evaluations and, on hubwide-session, the delta and
  heatmap tail. A session is one training seed's row of the ablation grid on
  tree364-ablation (the grid's raw wall time, sweep_s, moves with where
  early stopping falls), one train run on tree29k-epochs and train + delta
  + heatmap on hubwide-session;
* test_acc: mean test accuracy of the primary train runs;
* peak_rss_mb: peak resident set size of the workload process.

Both timings pool the whole run: the host these figures were taken on
switches between a fast and a ~1.6x slower state for tens of seconds at a
time, so a run-wide median is as steady as a run can be made.

``--trace 1`` runs the workload's trace session twice, untraced and then
with every hgcl layer wrapped (tracing.py), requires byte-identical metric
streams and fully restored attributes, and reports per-module metrics:
self seconds summed over the traced session, counts over the session, and
tape figures per training step.

Every operation's output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Run metadata,
all metrics (also those that exist on one workload only) and the span file
of a traced run are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "session_ms_per_epoch": "ms",
    "epoch_ms_p50": "ms",
    "test_acc": "fraction",
    "peak_rss_mb": "MB",
}

# Primitives every workload's training step uses; each gets calls/fwd_s/bwd_s.
TRACED_OPS = (
    "add", "sub", "mul", "div", "scalar_mul", "matmul", "aggregate", "tanh",
    "sigmoid", "exp", "log", "sqrt", "square", "sinh", "acosh_clamped",
    "artanh_clamped", "clip", "row_norm", "reduce_sum", "reduce_mean",
    "concat_cols", "gather_rows",
)

# Per-module metrics every workload reports in a traced run. Metrics of
# layers only some workloads call (data.load_graph, data.gromov_delta,
# kernels, manifolds, export_heatmap, cli) are in the results file and the
# printed report.
PER_LAYER = {
    "data.normalize_adjacency_s": "s",
    "diffgeo.exp0_s": "s",
    "diffgeo.log0_s": "s",
    "diffgeo.dist_rows_s": "s",
    "diffgeo.transfer0_s": "s",
    "encoder.lift_features_s": "s",
    "encoder.lift_features_incl_s": "s",
    "encoder.lift_features.calls": "count",
    "encoder.encode_fwd_s": "s",
    "encoder.encode_fwd_incl_s": "s",
    "encoder.encode_bwd_s": "s",
    "encoder.tape_nodes": "count",
    "hpc.build_sample_plan_s": "s",
    "hpc.hpc_loss_fwd_s": "s",
    "hpc.hpc_loss_fwd_incl_s": "s",
    "hpc.hpc_loss_bwd_s": "s",
    "hpc.tape_nodes": "count",
    "hpc.negatives_drawn": "count",
    "autodiff.backward_s": "s",
    "autodiff.tape_nodes": "count",
    "autodiff.tape_bytes": "B",
    "autodiff.tensors_created": "count",
    "optim.step_s": "s",
    "optim.clip_frac": "fraction",
    "pipeline.train_s": "s",
    "pipeline.evaluate_s": "s",
    "pipeline.evaluate_incl_s": "s",
    "pipeline.decode_fwd_s": "s",
    "pipeline.cross_entropy_fwd_s": "s",
    "pipeline.epochs_run": "count",
    "trace.overhead_epoch_ms": "ms",
    **{f"autodiff.op.{op}.{part}": unit for op in TRACED_OPS
       for part, unit in (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"))},
}

# Exact counts that later changes can cite as counts, not as speed-ups.
COMPUTED = dict.fromkeys(
    ("encoder.tape_nodes", "hpc.tape_nodes", "hpc.negatives_drawn", "autodiff.tape_nodes",
     "autodiff.tape_bytes", "kernels.bfs_edges_scanned", "kernels.quads_evaluated",
     "manifolds.pair_dims"), " (computed)")

WORKLOAD_NAMES = ("tree364-ablation", "tree29k-epochs", "hubwide-session")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 3, 1000, 2.0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_percentiles(n: int, candidates=(90, 95, 99)) -> list[int]:
    """Percentiles with at least ten of ``n`` samples beyond them."""
    return [p for p in candidates if n * (100 - p) >= 10 * 100]


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_metadata(args) -> dict:
    import numpy
    import scipy

    from hgcl import kernels

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "kernels_backend": kernels.backend_name(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def primary_epochs(ops) -> list[float]:
    return [ms for op in ops if op.kind == "train" and op.primary for ms in op.epoch_ms]


def compare_streams(reference, ops, what: str) -> None:
    """Record a problem on each op whose output differs from its reference."""
    for ref, op in zip(reference, ops):
        if op.ok and ref.ok and op.stream != ref.stream:
            op.problems.append(f"{op.kind} {op.label}: output differs {what}")


def run_untraced(workload, seconds: float) -> tuple[dict, dict, list]:
    from tracing import EpochClock, Patcher
    from workloads import Probe

    from hgcl import pipeline

    setup = []
    while (len(setup) < SETUP_MIN_REPS or sum(setup) < SETUP_MIN_SECONDS) \
            and len(setup) < SETUP_MAX_REPS:
        t0 = perf_counter()
        workload.setup()
        setup.append(perf_counter() - t0)

    clock, patcher = EpochClock(), Patcher()
    clock.install(patcher, pipeline)
    probe = Probe(clock)
    sessions = []
    start = perf_counter()
    try:
        while True:
            sessions.append(workload.session(probe, len(sessions)))
            elapsed = perf_counter() - start
            if (len(sessions) >= workload.PERIOD
                    and elapsed * (len(sessions) + 1) / len(sessions) > seconds):
                break
    finally:
        unrestored = patcher.restore()
    for i in range(workload.PERIOD, len(sessions)):
        compare_streams(sessions[i - workload.PERIOD], sessions[i],
                        "from an earlier session on the same inputs")

    ops = [op for s in sessions for op in s]
    epochs = primary_epochs(ops)
    accs = [op.test_acc for op in ops if op.primary and op.test_acc is not None]
    epochs_run = sum(op.epochs_run for op in ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "session_ms_per_epoch": 1000 * sum(op.seconds for op in ops) / epochs_run
        if epochs_run else None,
        "epoch_ms_p50": statistics.median(epochs) if epochs else None,
        "test_acc": statistics.fmean(accs) if accs else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "setup_reps": (len(setup), "count"),
        "sessions": (len(sessions), "count"),
        "epoch_samples": (len(epochs), "count"),
    }
    for p in tail_percentiles(len(epochs)):
        report[f"epoch_ms_p{p}"] = (percentile(epochs, p), "ms")
    report["session_s"] = (statistics.median(sum(op.seconds for op in s) for s in sessions), "s")
    if workload.name == "tree364-ablation":
        grid = sessions[:workload.PERIOD]
        report["sweep_s"] = (sum(op.seconds for s in grid for op in s), "s")
        from hgcl.pipeline import ABLATIONS
        for ablation in ABLATIONS:
            ms = [v for op in ops if op.label.startswith(ablation + "/") for v in op.epoch_ms]
            if ms:
                report[f"epoch_ms_p50.{ablation}"] = (statistics.median(ms), "ms")
        report["epochs_run"] = (sum(op.epochs_run for s in grid for op in s), "count")
    for kind in ("delta", "heatmap"):
        times = [op.seconds for op in ops if op.kind == kind and op.ok]
        if times:
            report[f"{kind}_s"] = (statistics.median(times), "s")
    problems = [f"attribute not restored: {name}" for name in unrestored]
    return metrics, {"report": report, "problems": problems}, ops


def run_traced(workload, results_stem: Path) -> tuple[dict, dict, list]:
    from tracing import EpochClock, Patcher, Tracer, outside_children, span_times
    from workloads import Probe

    from hgcl import pipeline

    clock, clock_patcher = EpochClock(), Patcher()
    clock.install(clock_patcher, pipeline)
    tracer, trace_patcher = Tracer(), Patcher()
    unrestored = []
    try:
        untraced = workload.trace_session(Probe(clock))
        tracer.install(trace_patcher)
        try:
            traced = workload.trace_session(Probe(clock, tracer))
        finally:
            unrestored += trace_patcher.restore()
    finally:
        unrestored += clock_patcher.restore()
    compare_streams(untraced, traced, "between the untraced and traced runs")
    tracer.write_spans(results_stem.with_name(results_stem.name + "-spans.jsonl"))

    self_s, incl_s, calls = span_times(tracer.spans)
    counts = tracer.counts
    steps = counts["autodiff.backward_calls"]

    def per(total, n):
        return total / n if n else 0.0

    metrics = {
        "data.normalize_adjacency_s": self_s.get("data.normalize_adjacency", 0.0),
        "encoder.lift_features.calls": calls.get("encoder.lift_features", 0),
        "encoder.encode_bwd_s": tracer.owner_bwd_s["encoder.encode"],
        "encoder.tape_nodes": per(tracer.owner_nodes["encoder.encode"], steps),
        "hpc.hpc_loss_bwd_s": tracer.owner_bwd_s["hpc.hpc_loss"],
        "hpc.tape_nodes": per(tracer.owner_nodes["hpc.hpc_loss"], calls.get("hpc.hpc_loss", 0)),
        "hpc.negatives_drawn": per(counts["hpc.negatives_drawn"], counts["hpc.plans"]),
        "autodiff.tape_nodes": per(counts["autodiff.tape_nodes"], steps),
        "autodiff.tape_bytes": per(counts["autodiff.tape_bytes"], steps),
        "autodiff.tensors_created": per(counts["autodiff.tensors_created"], steps),
        "optim.step_s": incl_s.get("optim.step", 0.0),
        "optim.clip_frac": per(counts["optim.clipped"], counts["optim.clip_calls"]),
        "pipeline.epochs_run": sum(op.epochs_run for op in traced),
    }
    if primary_epochs(traced) and primary_epochs(untraced):
        metrics["trace.overhead_epoch_ms"] = (statistics.median(primary_epochs(traced))
                                              - statistics.median(primary_epochs(untraced)))
        report_untraced = {"untraced.epoch_ms_p50":
                           (statistics.median(primary_epochs(untraced)), "ms")}
    else:
        report_untraced = {}
    for span, name in (("diffgeo.exp0", "diffgeo.exp0_s"), ("diffgeo.log0", "diffgeo.log0_s"),
                       ("diffgeo.dist_rows", "diffgeo.dist_rows_s"),
                       ("diffgeo.transfer0", "diffgeo.transfer0_s"),
                       ("encoder.lift_features", "encoder.lift_features_s"),
                       ("encoder.encode", "encoder.encode_fwd_s"),
                       ("hpc.build_sample_plan", "hpc.build_sample_plan_s"),
                       ("hpc.hpc_loss", "hpc.hpc_loss_fwd_s"),
                       ("autodiff.backward", "autodiff.backward_s"),
                       ("pipeline.train", "pipeline.train_s"),
                       ("pipeline.evaluate", "pipeline.evaluate_s"),
                       ("pipeline.decode", "pipeline.decode_fwd_s"),
                       ("pipeline.cross_entropy", "pipeline.cross_entropy_fwd_s")):
        metrics[name] = self_s.get(span, 0.0)
    for span in ("encoder.lift_features", "encoder.encode", "hpc.hpc_loss", "pipeline.evaluate"):
        suffix = "_fwd_incl_s" if span in ("encoder.encode", "hpc.hpc_loss") else "_incl_s"
        metrics[span + suffix] = incl_s.get(span, 0.0)
    for op in TRACED_OPS:
        n, fwd, bwd = tracer.ops.get(op, (0, 0.0, 0.0))
        metrics[f"autodiff.op.{op}.calls"] = n
        metrics[f"autodiff.op.{op}.fwd_s"] = fwd
        metrics[f"autodiff.op.{op}.bwd_s"] = bwd

    # Layers that only some workloads call.
    report = {}
    for span in ("data.load_graph", "data.gromov_delta", "kernels.bfs_all_pairs",
                 "kernels.four_point_delta_quads", "kernels.four_point_delta_exact",
                 "manifolds.pairwise_dist", "manifolds.check_points",
                 "pipeline.export_heatmap"):
        if span in calls:
            report[span + "_s"] = (self_s[span], "s")
            report[span + ".calls"] = (calls[span], "count")
    for key in ("kernels.bfs_edges_scanned", "kernels.quads_evaluated", "manifolds.pair_dims"):
        if counts.get(key):
            report[key] = (counts[key], "count")
    if "cli.main" in calls:
        report["cli.overhead_s"] = (outside_children(tracer.spans, "cli.main", "pipeline.train"),
                                    "s")
    for op in sorted(set(tracer.ops) - set(TRACED_OPS)):
        n, fwd, bwd = tracer.ops[op]
        report[f"autodiff.op.{op}.calls"] = (n, "count")
        report[f"autodiff.op.{op}.fwd_s"] = (fwd, "s")
        report[f"autodiff.op.{op}.bwd_s"] = (bwd, "s")
    report.update(report_untraced)
    report["spans"] = (len(tracer.spans), "count")
    problems = [f"attribute not restored: {name}" for name in unrestored]
    return metrics, {"report": report, "problems": problems}, untraced + traced


def run_workload(args) -> int:
    from workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        if args.trace:
            metrics, extra, ops = run_traced(workload, stem)
            units = PER_LAYER
        else:
            metrics, extra, ops = run_untraced(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not op.ok for op in ops)
    problems = extra["problems"] + [p for op in ops for p in op.problems]
    missing = [name for name in units if metrics.get(name) is None]
    problems += [f"metric {name} not measured" for name in missing]
    report = {"failed_frac": (failed / len(ops) if ops else 1.0, "fraction"),
              **extra["report"]}
    tag = f"[{args.workload} seed={args.seed} trace={args.trace}]"
    for name, unit in units.items():
        if name not in missing:
            print(f"{tag} {name} = {metrics[name]:.6g} {unit}{COMPUTED.get(name, '')}")
    for name, (value, unit) in report.items():
        print(f"{tag} {name} = {value:.6g} {unit}{COMPUTED.get(name, '')}")
    for problem in problems:
        print(f"{tag} PROBLEM {problem}")

    meta = run_metadata(args)
    measured = {name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items() if name not in missing}
    stem.with_suffix(".json").write_text(json.dumps({
        "meta": meta,
        "metrics": measured,
        "report": {name: {"value": v, "unit": u} for name, (v, u) in report.items()},
        "ops": [{"kind": op.kind, "label": op.label, "seconds": op.seconds,
                 "epochs_run": op.epochs_run,
                 "epoch_ms": op.epoch_ms,
                 "problems": op.problems} for op in ops],
        "problems": problems,
    }, indent=2) + "\n")
    print(f"{tag} meta {json.dumps(meta, sort_keys=True)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": measured,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Pin BLAS before numpy is first imported; child processes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import hgcl
    except ImportError as exc:
        print(f"error: cannot import hgcl from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(hgcl.__file__).resolve().parent != ROOT / "src" / "hgcl":
        print(f"error: hgcl imported from {hgcl.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
