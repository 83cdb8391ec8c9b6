"""Command-line front end.

Subcommands: train, gradcheck, manifold-test, delta, heatmap.
Exit codes: 0 success, 1 usage error, 2 runtime error (including failed
checks). Flag values override config-file values override defaults; the
effective configuration is echoed into the run manifest. All outputs land
under --out.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import checks
from . import data as data_mod
from . import pipeline as pl
from .hpc import HpcConfig

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class CliError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _field_parsers(cls, skip: set[str]) -> dict:
    """Field name -> the type of its default, for each field of ``cls`` not in ``skip``."""
    return {f.name: type(f.default) for f in dataclasses.fields(cls) if f.name not in skip}


# Config-file key and flag name -> parser, in field order. --seeds sets the seed
# and --ablation no_dist the similarity, so neither is a key of its own.
CONFIG_KEYS = _field_parsers(pl.TrainConfig, {"seed", "hpc"})
HPC_KEYS = _field_parsers(HpcConfig, {"similarity"})


def _parse_synthetic(spec: str):
    parts = spec.split(",")
    try:
        b, h = int(parts[0]), int(parts[1])
        d_feat = int(parts[2]) if len(parts) > 2 else 16
        noise = float(parts[3]) if len(parts) > 3 else 0.1
        seed = int(parts[4]) if len(parts) > 4 else 0
    except (ValueError, IndexError):
        raise CliError(f"--synthetic wants 'b,h[,d_feat[,noise[,seed]]]', got {spec!r}")
    return {"branching": b, "depth": h, "d_feat": d_feat, "noise": noise, "seed": seed}


def _load_dataset(args) -> tuple[data_mod.Graph, dict]:
    if getattr(args, "data", None):
        graph = data_mod.load_graph(args.data)
        source = {"data_dir": str(Path(args.data).resolve()),
                  "input_sha256": _hash_dir(args.data)}
    elif getattr(args, "synthetic", None):
        spec = _parse_synthetic(args.synthetic)
        graph = data_mod.synthetic_tree(**spec)
        tr, va, te = data_mod.split(graph, seed=spec["seed"])
        graph = data_mod.Graph(graph.n_nodes, graph.edges, graph.features, graph.labels,
                               tr, va, te)
        source = {"synthetic": spec,
                  "input_sha256": hashlib.sha256(
                      json.dumps(spec, sort_keys=True).encode()).hexdigest()}
    else:
        raise CliError("one of --data or --synthetic is required")
    return graph, source


def _hash_dir(directory) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(directory).iterdir()):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    with data_mod.atomic_open(path) as fh:
        fh.write(text)


def _config_value(key: str, raw, conv):
    """A ``--config`` JSON value as the field's type. An int may stand for a
    float; nothing else is converted, so no value is truncated or coerced."""
    if isinstance(raw, bool) or not (isinstance(raw, conv)
                                     or (conv is float and isinstance(raw, int))):
        raise CliError(f"config key {key!r} wants {conv.__name__}, got {json.dumps(raw)}")
    return conv(raw)


def _build_config(args, seed: int) -> pl.TrainConfig:
    values = {}
    hpc_values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        for key, raw in file_cfg.items():
            if key in CONFIG_KEYS:
                values[key] = _config_value(key, raw, CONFIG_KEYS[key])
            elif key in HPC_KEYS:
                hpc_values[key] = _config_value(key, raw, HPC_KEYS[key])
            else:
                raise CliError(f"unknown config key {key!r}")
    for key, conv in CONFIG_KEYS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = conv(flag)
    for key, conv in HPC_KEYS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            hpc_values[key] = conv(flag)
    return pl.TrainConfig(seed=seed, hpc=HpcConfig(**hpc_values), **values)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    t_start = time.time()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = [int(s) for s in str(args.seeds).split(",") if s != ""]
    if not seeds:
        raise CliError("--seeds must name at least one seed")
    base = _build_config(args, seeds[0])
    graph, source = _load_dataset(args)

    per_seed = []
    for seed in seeds:
        config = dataclasses.replace(base, seed=seed)
        result = pl.train(graph, config)
        stream = "\n".join(rec.to_json() for rec in result.history) + "\n"
        _atomic_write(out / f"metrics_seed{seed}.jsonl", stream)
        summary = {
            "seed": seed,
            "ablation": config.ablation,
            "metric": config.eval_metric,
            "best_epoch": result.best_epoch,
            "epochs_run": result.epochs_run,
            "val": {"accuracy": result.val_metrics.accuracy,
                    "macro_f1": result.val_metrics.macro_f1},
            "test": {"accuracy": result.test_metrics.accuracy,
                     "macro_f1": result.test_metrics.macro_f1},
            "config": config.to_dict(),
        }
        _atomic_write(out / f"summary_seed{seed}.json",
                      json.dumps(summary, sort_keys=True, indent=2) + "\n")
        result.model.save(out / f"model_seed{seed}.npz")
        per_seed.append(summary)

    scores = [s["test"][base.eval_metric] for s in per_seed]
    aggregate = {
        "metric": base.eval_metric,
        "n_seeds": len(seeds),
        "seeds": seeds,
        "mean": float(np.mean(scores)),
        "std": float(np.std(scores)),
        "per_seed_test": scores,
        "ablation": per_seed[0]["ablation"],
    }
    _atomic_write(out / "aggregate.json", json.dumps(aggregate, sort_keys=True, indent=2) + "\n")

    manifest = {
        "command": "train",
        "source": source,
        "config": base.to_dict(),
        "seeds": seeds,
        "outputs": sorted(p.name for p in out.iterdir() if p.name != "manifest.json"),
        "duration_sec": round(time.time() - t_start, 3),
    }
    _atomic_write(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(json.dumps(aggregate, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# gradcheck / manifold-test / delta / heatmap
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    cases = checks.gradient_check_cases(seed=args.seed, scope=args.scope)
    if not cases:
        raise CliError(f"no checks registered for scope {args.scope!r}")
    failed = 0
    for case in cases:
        err = case.run()
        ok = err <= case.threshold
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {case.name} [{case.scope}] "
              f"max_rel_err={err:.3e} threshold={case.threshold:g}")
    print(f"{len(cases) - failed}/{len(cases)} gradient checks passed")
    return 0 if failed == 0 else RUNTIME_EXIT


def cmd_manifold_test(args) -> int:
    if args.trials == 0:
        print("warning: --trials 0 runs nothing; vacuous pass", file=sys.stderr)
        print("0 property suites executed")
        return 0
    results = checks.manifold_property_suites(trials=args.trials, seed=args.seed)
    failed = 0
    for r in results:
        ok = r.ok
        failed += 0 if ok else 1
        line = (f"{'PASS' if ok else 'FAIL'} {r.name}: trials={r.trials} "
                f"max_dev={r.max_dev:.3e} tolerance={r.tolerance:g}")
        if not ok:
            line += f" violations={r.violations} worst={r.worst_case}"
        print(line)
    return 0 if failed == 0 else RUNTIME_EXIT


def cmd_delta(args) -> int:
    graph, _ = _load_dataset(args)
    exact = True if args.exact else None
    report = data_mod.gromov_delta_report(graph, num_quadruples=args.samples, seed=args.seed,
                                          exact=exact)
    print(json.dumps(report._asdict(), sort_keys=True))
    return 0


def cmd_heatmap(args) -> int:
    graph, _ = _load_dataset(args)
    model = pl.HgclModel.load(args.model)
    if args.nodes == "default":
        node_ids = pl.default_heatmap_nodes(graph)
    elif args.nodes.startswith("per_class:"):
        node_ids = pl.default_heatmap_nodes(graph, per_class=int(args.nodes.split(":")[1]),
                                            n_classes=graph.n_classes)
    else:
        try:
            node_ids = np.array([int(v) for v in args.nodes.split(",")], dtype=np.int64)
        except ValueError:
            raise CliError(f"--nodes wants 'default', 'per_class:K' or id list, got {args.nodes!r}")
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    pl.export_heatmap(model, graph, node_ids, args.view, out)
    print(json.dumps({"out": str(out), "nodes": int(len(node_ids)), "view": args.view}))
    return 0


# ---------------------------------------------------------------------------

def _add_dataset_flags(p):
    p.add_argument("--data", help="dataset directory (edges.txt / features.csv / labels.csv)")
    p.add_argument("--synthetic", help="synthetic tree spec 'b,h[,d_feat[,noise[,seed]]]'")


def build_parser() -> Parser:
    parser = Parser(prog="hgcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train and evaluate over one or more seeds")
    _add_dataset_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seeds", default="0", help="comma-separated training seeds")
    p.add_argument("--config", help="JSON config file (flat keys, same names as flags)")
    for key, conv in {**CONFIG_KEYS, **HPC_KEYS}.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                       type=str if conv is str else conv)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference checks of the gradient engine")
    p.add_argument("--scope", choices=["manifold", "encoder", "hpc", "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("manifold-test", help="randomized geometric property suites")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_manifold_test)

    p = sub.add_parser("delta", help="four-point hyperbolicity of a graph")
    _add_dataset_flags(p)
    p.add_argument("--exact", action="store_true", help="force exhaustive enumeration")
    p.add_argument("--samples", type=int, default=None, help="sampled quadruples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("heatmap", help="pairwise embedding-distance CSV for plotting")
    _add_dataset_flags(p)
    p.add_argument("--model", required=True, help="model .npz written by train")
    p.add_argument("--nodes", default="default",
                   help="'default' (20 per class, 2 classes), 'per_class:K', or id list")
    p.add_argument("--view", choices=["alpha", "beta"], default="alpha")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_heatmap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # noqa: BLE001
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
