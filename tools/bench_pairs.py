"""Interleaved parent/change runs of the benchmark, medians to BENCH_<n>.json.

    python3 tools/bench_pairs.py --number <n> [--parent REV]

Run from the root of a source checkout. The parent is the committed tree of
--parent (HEAD~1 by default, for a committed change; HEAD while the change is
still uncommitted), exported with `git archive` into a temporary directory.
The change is the working tree. For each workload of BENCHMARK.json, pair k
runs the benchmark command with seed FIRST_SEED + k in both trees, the parent
first in even pairs and the change first in odd ones, each in its own tree
with its own `perfbench/`. Every run must report "correct": true.

The output maps workload to metric to {"parent", "change", "unit"}, each a
median over the pairs of the end-to-end metrics, beside what a claim needs:
"parent_quartiles" and "change_quartiles" (the first and third quartiles of
each side's runs, inclusive method), "ratio" (the median over pairs of
change / parent, null where a parent value is 0) and "change_wins" (the pairs
where the change is strictly better in the metric's declared direction, out
of "pairs"). After its pairs, each workload also runs TRACED_RUNS traced
runs (--trace 1) per side, interleaved the same way, and the same map gains
each per-layer metric of BENCHMARK.json as {"parent", "change", "unit",
"traced_runs"}, the medians of those runs. Every run's line is also printed
to standard error as it finishes.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

PAIRS = 10
TRACED_RUNS = 3
FIRST_SEED = 901


def export_tree(ref: str, dest: Path) -> None:
    """Write the committed files of ref into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from 3.12 and in 3.10.12 / 3.11.4 onward
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} in {tree} is not correct: {done.stderr.strip()}")
    return result


def interleaved(trees: dict[str, Path], declared: dict, workload: str, pairs: int, trace: int) -> dict[str, list[dict]]:
    """Each side's metric values over `pairs` runs, pair k at seed FIRST_SEED + k,
    the parent first in even pairs and the change first in odd ones."""
    values = {"parent": [], "change": []}
    for k in range(pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(trees[side], declared["command"], workload, FIRST_SEED + k, declared["run_seconds"], trace)
            values[side].append({name: m["value"] for name, m in result["metrics"].items()})
            print(json.dumps({"workload": workload, "pair": k, "side": side, "trace": trace, **result}), file=sys.stderr)
    return values


def summarize(parent: list[float], change: list[float], better: str, unit: str) -> dict:
    """Medians, quartiles, median pair ratio and win count of paired runs."""
    sign = 1 if better == "higher" else -1
    quartiles = [statistics.quantiles(side, n=4, method="inclusive") for side in (parent, change)]
    return {
        "parent": statistics.median(parent),
        "change": statistics.median(change),
        "unit": unit,
        "parent_quartiles": [quartiles[0][0], quartiles[0][2]],
        "change_quartiles": [quartiles[1][0], quartiles[1][2]],
        "ratio": statistics.median(c / p for p, c in zip(parent, change)) if all(parent) else None,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--number", type=int, required=True, help="n in the output name BENCH_<n>.json")
    parser.add_argument("--parent", default="HEAD~1", help="git revision to compare against")
    args = parser.parse_args(argv)

    change = Path.cwd()
    declared = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    end_to_end = declared["end_to_end"]

    out = {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        export_tree(args.parent, parent)
        trees = {"parent": parent, "change": change}
        for workload in workloads:
            values = interleaved(trees, declared, workload, PAIRS, 0)
            out[workload] = {
                m["name"]: summarize(
                    [run[m["name"]] for run in values["parent"]],
                    [run[m["name"]] for run in values["change"]],
                    m["better"],
                    m["unit"],
                )
                for m in end_to_end
            }
            traced = interleaved(trees, declared, workload, TRACED_RUNS, 1)
            for m in declared["per_layer"]:
                medians = {side: statistics.median(run[m["name"]] for run in runs) for side, runs in traced.items()}
                out[workload][m["name"]] = {**medians, "unit": m["unit"], "traced_runs": TRACED_RUNS}

    path = change / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
