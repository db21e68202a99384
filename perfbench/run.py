"""flcop benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload fc-campaign --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The inputs are generated from --seed under `.perfbench/`, which the
run deletes when it ends. With --trace 0 the result holds the end-to-end
metrics declared in BENCHMARK.json; with --trace 1 it holds the per-layer
metrics of a traced run, whose spans are kept in `.perfbench/spans/`.
The last line of standard output is the result; problems found by the
checks go to standard error and set "correct" to false.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CODEC_SIZES = (32928, 420, 42, 10)


class Session:
    """Repeats a workload's rounds for the run's time, traced or not.

    Rounds are whole, so every run attempts the same operations in the same
    proportions. A traced run first measures one round untraced, then repeats
    traced rounds; the gap in evaluations per second between the two is the
    tracing overhead. The peak memory is read when the first round ends, so
    it covers set-up and one round whatever number of rounds fits in the run.
    """

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.traced_rounds = 0
        self.overhead_pct = 0.0
        self.peak_rss_mb = 0.0

    def _repeat(self, one_round) -> list:
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(one_round())
            if time.perf_counter() - start >= self.seconds:
                return rounds

    def measure(self, one_round) -> list:
        def round_then_peak():
            result = one_round()
            if not self.peak_rss_mb:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            return result

        return self._measure(round_then_peak)

    def _measure(self, one_round) -> list:
        if self.tracer is None:
            return self._repeat(one_round)
        self.tracer.restore()
        untraced = one_round()
        self.tracer.install()
        traced = self._repeat(one_round)
        self.tracer.restore()
        self.traced_rounds = len(traced)
        rate = statistics.median(r.evaluations / r.wall_s for r in traced)
        self.overhead_pct = 100.0 * (1.0 - rate / (untraced.evaluations / untraced.wall_s))
        return [untraced, *traced]


def end_to_end(session: Session, outcome) -> dict[str, float]:
    eval_s = [t for r in outcome.rounds for t in r.eval_s]
    return {
        "evals_per_s": statistics.median(r.evaluations / r.wall_s for r in outcome.rounds),
        "eval_s_p50": statistics.median(eval_s),
        "setup_s": statistics.median(outcome.setup_s),
        "peak_rss_mb": session.peak_rss_mb,
        "front_hv": outcome.front_hv,
        "accuracy_mean": outcome.accuracy_mean,
    }


def per_layer(session: Session, outcome) -> dict[str, float]:
    tracer = session.tracer
    table = tracer.table()
    n = session.traced_rounds

    def total(name):
        return float(tracer.spans(table, name)[0].sum()) / n

    def calls(name):
        return len(tracer.spans(table, name)[0]) / n

    def median_ms(name, size=None):
        durations, sizes = tracer.spans(table, name)
        if size is not None:
            durations = durations[sizes == size]
        return 1000.0 * float(np.median(durations)) if len(durations) else 0.0

    out = {}
    for attr in ("load_mnist", "subsample", "partition"):
        out[f"data.{attr}.s"] = median_ms(f"data.{attr}") / 1000.0
    out["nn.sgd_step.calls"] = calls("nn.sgd_step")
    out["nn.sgd_step.s"] = total("nn.sgd_step")
    out["nn.sgd_step.ms_p50"] = median_ms("nn.sgd_step")
    out["nn.loss_and_gradients.s"] = total("nn.loss_and_gradients")
    out["nn.count_correct.s"] = total("nn.count_correct")
    for attr in ("sparsify", "quantize", "dequantize"):
        out[f"codec.{attr}.calls"] = calls(f"codec.{attr}")
        out[f"codec.{attr}.s"] = total(f"codec.{attr}")
    for attr in ("sparsify", "quantize"):
        for size in CODEC_SIZES:
            out[f"codec.{attr}.ms_p50.n{size}"] = median_ms(f"codec.{attr}", size)
    out["codec.entries"] = float(tracer.spans(table, "codec.sparsify")[1].sum()) / n
    out["federation.run_federated_training.self_s"] = tracer.self_s["federation.run_federated_training"] / n
    out["federation.aggregate.s"] = total("federation.aggregate")
    out["federation.rounds"] = tracer.counts["federation.rounds"] / n
    out["federation.uploads"] = tracer.counts["federation.uploads"] / n
    out["objectives.evaluations"] = calls("objectives.simulate_genome")
    out["objectives.unique_ratio"] = outcome.layer.get("objectives.unique_ratio", 0.0)
    out["nsga2.non_dominated_sort.calls"] = calls("nsga2.non_dominated_sort")
    for attr in ("non_dominated_sort", "crowding_distance", "replacement", "variation"):
        out[f"nsga2.{attr}.s"] = total(f"nsga2.{attr}")
    out["metrics.pareto_filter.calls"] = calls("metrics.pareto_filter")
    out["metrics.pareto_filter.s"] = total("metrics.pareto_filter")
    points = tracer.spans(table, "metrics.pareto_filter")[1]
    out["metrics.pareto_filter.points_mean"] = float(points.mean()) if len(points) else 0.0
    out["metrics.hypervolume.s"] = total("metrics.hypervolume")
    out["metrics.archive_size"] = outcome.layer.get("metrics.archive_size", 0.0)
    out["metrics.export_campaign.s"] = total("metrics.export_campaign")
    for key in ("cli.pool.worker_cpu_s", "cli.pool.cpu_ms_per_eval", "cli.pool.nivcsw"):
        out[key] = outcome.layer.get(key, 0.0)
    out["trace.overhead_pct"] = session.overhead_pct
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "flcop" / "__init__.py").is_file() or not declared_path.is_file():
        print(f"error: run from the root of a flcop checkout (no src/flcop or BENCHMARK.json in {ROOT})", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    session = Session(args.seconds, workloads.install_tracer() if args.trace else None)
    try:
        outcome = workloads.WORKLOADS[args.workload](session, work, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = per_layer(session, outcome)
        spans = ROOT / ".perfbench" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        session.tracer.write(spans / f"{args.workload}-s{args.seed}.npz")
        wanted = declared["per_layer"]
    else:
        values = end_to_end(session, outcome)
        wanted = declared["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: computed metrics {sorted(values)} differ from BENCHMARK.json", file=sys.stderr)
        return 3

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": sum(r.evaluations for r in outcome.rounds),
        "failed": sum(r.failed for r in outcome.rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
