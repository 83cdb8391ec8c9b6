"""BENCH_perfbench.json: the append-only record of benchmark medians."""

import json
import numbers
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("pr", "workload", "metric", "unit", "parent", "change", "pairs", "seeds",
          "nproc", "command")


def test_every_entry_names_a_declared_metric_and_how_it_was_measured():
    entries = json.loads((ROOT / "BENCH_perfbench.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert isinstance(entries, list) and entries
    for e in entries:
        assert all(f in e for f in FIELDS), e
        assert e["workload"] in workloads, e
        assert units.get(e["metric"]) == e["unit"], e
        assert isinstance(e["parent"], numbers.Real) and isinstance(e["change"], numbers.Real)
        assert isinstance(e["pairs"], int) and e["pairs"] >= 1, e
        assert e["seeds"] is None or (len(e["seeds"]) == e["pairs"]
                                      and all(isinstance(s, int) for s in e["seeds"])), e
        assert isinstance(e["nproc"], int) and e["nproc"] >= 1, e
        assert e["command"].startswith("python3 perfbench/run.py "), e
        assert f"--workload {e['workload']} " in e["command"], e
    prs = [e["pr"] for e in entries]
    assert all(isinstance(p, int) for p in prs) and prs == sorted(prs)  # appended in order


def test_pair_wins_and_parent_quartiles_are_well_formed():
    """``change_better`` ("k/pairs": pairs the change won) and
    ``parent_quartiles`` ([q1, q3] of the parent's runs) come together."""
    entries = json.loads((ROOT / "BENCH_perfbench.json").read_text())
    for e in entries:
        assert ("change_better" in e) == ("parent_quartiles" in e), e
        if "change_better" not in e:
            continue
        won = re.fullmatch(r"(\d+)/(\d+)", e["change_better"])
        assert won and int(won[2]) == e["pairs"] and int(won[1]) <= e["pairs"], e
        q1, q3 = e["parent_quartiles"]
        assert isinstance(q1, numbers.Real) and isinstance(q3, numbers.Real) and q1 <= q3, e
