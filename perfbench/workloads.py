"""The benchmark's workloads.

Every workload repeats whole rounds of identical work until the run's time is
spent, so the share of failed evaluations is the same in every run. Set-up is
timed apart, several times. Each workload returns an Outcome; run.py turns it
into metrics.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from flcop import cli, data, federation, metrics, nn, nsga2, objectives
from flcop.nn import TrainConfig
from flcop.objectives import EvalEnv, Genome
from tracing import Tracer

SETUP_REPEATS = 11
N_CLIENTS = 4
ACCURACY_FLOOR = 0.5  # five times chance on ten classes

# flcop optimize at the desk-fc shape (8000/2000 examples, 4 clients,
# population 20), cut to a few generations so a run stays short. The genomes
# after the first generation follow the data seed; four independent runs
# average that out of the cost of a round.
CAMPAIGN_RUNS = 4
CAMPAIGN_GENERATIONS = 3
CAMPAIGN_FLAGS = ["--preset", "desk-fc", "--runs", str(CAMPAIGN_RUNS), "--generations", str(CAMPAIGN_GENERATIONS)]
CAMPAIGN_EVALUATIONS = CAMPAIGN_RUNS * 20 * (CAMPAIGN_GENERATIONS + 1)
# the process-pool check runs a smaller campaign, because pool workers are slow
POOL_CHECK_FLAGS = ["--preset", "desk-fc", "--runs", "1", "--pop", "4", "--generations", "1"]
POOL_CHECK_EVALUATIONS = 4 * 2

# [m, E, mu_1..mu_4, b_1..b_4] on the fc arrays (32928, 42, 420, 10)
SWEEP_GENOMES = (
    (4, 1, 0, 0, 0, 0, 32, 32, 32, 32),  # no reduction
    (4, 1, 50, 0, 25, 0, 8, 16, 8, 16),
    (4, 2, 25, 10, 50, 0, 4, 8, 16, 32),
    (4, 2, 10, 50, 0, 25, 16, 1, 4, 2),
)

# A discretised analytic problem: x in [0, 800], y and z in [0, 15];
# f1 = x / 800 is minimised and f2 = (0.05 + 0.95 sqrt(x / 800)) / 2**(y + z)
# maximised. Its Pareto set is y = z = 0 for every x, 801 genomes, and every
# dominated genome has a dominator the search meets often.
ANALYTIC_BOUNDS = ((0, 800), (0, 15), (0, 15))
ANALYTIC_POP = 100
ANALYTIC_GENERATIONS = 300
ANALYTIC_SETUP_SEARCHES = 16


@dataclass
class Round:
    wall_s: float
    evaluations: int
    failed: int
    eval_s: list[float]  # wall seconds per evaluation, one entry per batch


@dataclass
class Outcome:
    rounds: list[Round]
    setup_s: list[float]
    front_hv: float
    accuracy_mean: float
    problems: list[str]
    layer: dict[str, float] = field(default_factory=dict)


class SearchTimer:
    """Wraps nsga2.run, where the CLI looks it up. Times each generation from
    one batch evaluation to the next and keeps every run's result."""

    def __init__(self):
        self.results: list[nsga2.SearchResult] = []
        self.gen_eval_s: list[float] = []
        self.f2: list[tuple[int, float]] = []  # (generation, f2) of every evaluation
        self.failed = 0
        self.distinct = 0

    def __enter__(self):
        self._original = original = nsga2.run

        def timed_run(evaluate, params, *args, **kwargs):
            marks = []
            seen = set()

            def timed_evaluate(genomes, generation):
                marks.append((time.perf_counter(), len(genomes)))
                seen.update(tuple(g) for g in genomes)
                results = evaluate(genomes, generation)
                self.f2 += [(generation, r[1]) for r in results]
                # the CLI keeps only (f1, f2): a failed genome is recorded with accuracy 0.0
                self.failed += sum(1 for r in results if r[1] == 0.0)
                return results

            result = original(timed_evaluate, params, *args, **kwargs)
            ends = [t for t, _ in marks[1:]] + [time.perf_counter()]
            self.gen_eval_s += [(end - t) / n for (t, n), end in zip(marks, ends)]
            self.results.append(result)
            self.distinct += len(seen)
            return result

        nsga2.run = timed_run
        return self

    def __exit__(self, *exc):
        nsga2.run = self._original

    @property
    def evaluations(self) -> int:
        return sum(r.evaluations for r in self.results)


def install_tracer() -> Tracer:
    """Spans at every layer boundary, each patched where its caller looks it up."""
    t = Tracer()
    for attr in ("load_mnist", "subsample", "partition"):
        t.wrap(data, attr, f"data.{attr}")
    t.wrap(federation, "sgd_step", "nn.sgd_step")
    t.wrap(nn, "loss_and_gradients", "nn.loss_and_gradients")
    t.wrap(federation, "count_correct", "nn.count_correct")
    for attr in ("sparsify", "quantize", "dequantize"):
        t.wrap(federation, attr, f"codec.{attr}", size_of=lambda layer, *a, **k: np.size(layer))
    t.wrap(
        objectives, "run_federated_training", "federation.run_federated_training",
        count=lambda args, out: {
            "federation.rounds": out.ledger.rounds_executed,
            "federation.uploads": out.ledger.rounds_executed * args[0].participants,
        },
    )
    t.wrap(federation, "aggregate", "federation.aggregate")
    t.wrap(objectives, "simulate_genome", "objectives.simulate_genome")
    for attr in ("non_dominated_sort", "crowding_distance", "replacement"):
        t.wrap(nsga2, attr, f"nsga2.{attr}")
    for attr in ("binary_tournament", "single_point_crossover", "uniform_mutation"):
        t.wrap(nsga2, attr, "nsga2.variation")
    for module in (nsga2, metrics):
        t.wrap(module, "pareto_filter", "metrics.pareto_filter", size_of=lambda points, *a, **k: len(points))
        t.wrap(module, "hypervolume", "metrics.hypervolume")
    t.wrap(metrics, "export_campaign", "metrics.export_campaign")
    return t


def generate_inputs(work: Path, seed: int) -> Path:
    """Write the four IDX files in a child process, so the generator's memory
    stays out of this process's peak."""
    out = work / "mnist"
    subprocess.run([sys.executable, inputs.__file__, "--seed", str(seed), "--out", str(out)], check=True)
    return out


def time_setup(mnist_dir, train_limit, test_limit) -> tuple[list[float], EvalEnv]:
    """Load the IDX files and build an evaluation environment the way the CLI
    does, several times; returns the times and the last environment."""
    times = []
    for _ in range(SETUP_REPEATS):
        env = None  # drop the previous copy, so memory holds one at a time
        start = time.perf_counter()
        train, test = data.load_mnist(mnist_dir)
        train = data.subsample(train, train_limit, 1)
        test = data.subsample(test, test_limit, 1)
        env = EvalEnv(
            spec=nn.fully_connected(),
            partition=data.partition(train, N_CLIENTS, 1),
            test=test,
            train=TrainConfig(0.1, 64),
            epochs=1,
            seed=1,
        )
        times.append(time.perf_counter() - start)
    return times, env


def run_cli(argv) -> int:
    """flcop.cli.main with its progress lines kept off the result stream."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def fc_campaign(session, work: Path, seed: int) -> Outcome:
    """flcop optimize through cli.main, serial, as users run the search."""
    mnist = generate_inputs(work, seed)
    setup, _ = time_setup(mnist, 8000, 2000)
    flags = ["optimize", *CAMPAIGN_FLAGS, "--mnist-dir", str(mnist), "--workers", "1"]
    timers = []

    def one_round() -> Round:
        out = work / f"campaign{len(timers) + 1}"
        with SearchTimer() as timer:
            start = time.perf_counter()
            rc = run_cli([*flags, "--out", str(out)])
            wall = time.perf_counter() - start
        timers.append(timer)
        if rc != 0 or timer.evaluations != CAMPAIGN_EVALUATIONS:
            return Round(wall, CAMPAIGN_EVALUATIONS, CAMPAIGN_EVALUATIONS, [wall / CAMPAIGN_EVALUATIONS])
        return Round(wall, timer.evaluations, timer.failed, timer.gen_eval_s)

    rounds = session.measure(one_round)

    first = work / "campaign1"
    try:
        problems, merged = checks.check_campaign_dir(first, CAMPAIGN_RUNS, N_CLIENTS, ACCURACY_FLOOR)
    except (OSError, ValueError, IndexError) as exc:
        return Outcome(rounds, setup, 0.0, 0.0, [f"campaign outputs unreadable: {exc}"], {})
    for k in range(2, len(timers) + 1):
        problems += checks.same_bytes(first, work / f"campaign{k}", "*.csv")
        problems += checks.same_bytes(first, work / f"campaign{k}", "*.jsonl")
    pairs = [(p[0], p[1]) for p in merged]
    front_hv = metrics.hypervolume(pairs, metrics.HV_REFERENCE)
    problems += checks.check_hypervolume(front_hv, pairs, "pareto_merged.csv")

    # the process-pool path must write the same CSVs as the serial one
    base = ["optimize", *POOL_CHECK_FLAGS, "--mnist-dir", str(mnist)]
    serial_dir, pool_dir = work / "pool_check_serial", work / "pool_check_pool"
    rc_serial = run_cli([*base, "--workers", "1", "--out", str(serial_dir)])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    rc_pool = run_cli([*base, "--workers", "2", "--out", str(pool_dir)])
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if rc_serial != 0 or rc_pool != 0:
        problems.append(f"pool check campaigns exited {rc_serial} (serial) and {rc_pool} (pool)")
    else:
        problems += checks.same_bytes(serial_dir, pool_dir, "*.csv")
        problems += checks.same_bytes(serial_dir, pool_dir, "*.jsonl")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)

    last = timers[-1]
    layer = {
        "metrics.archive_size": statistics.mean(len(r.archive) for r in last.results),
        "objectives.unique_ratio": last.distinct / last.evaluations,
        "cli.pool.worker_cpu_s": cpu,
        "cli.pool.cpu_ms_per_eval": 1000.0 * cpu / POOL_CHECK_EVALUATIONS,
        "cli.pool.nivcsw": float(after.ru_nivcsw - before.ru_nivcsw),
    }
    # the first generation's genomes are fixed by the campaign seed, so their
    # accuracy follows training alone; later generations follow selection
    accuracy_mean = statistics.mean(f2 for generation, f2 in timers[0].f2 if generation == 0)
    return Outcome(rounds, setup, front_hv, accuracy_mean, problems, layer)


def fc_upload_sweep(session, work: Path, seed: int) -> Outcome:
    """A fixed genome set evaluated like flcop eval on the full inputs."""
    mnist = generate_inputs(work, seed)
    setup, env = time_setup(mnist, None, None)
    results = {}

    def one_round() -> Round:
        eval_s = []
        failed = 0
        start = time.perf_counter()
        for vec in SWEEP_GENOMES:
            t0 = time.perf_counter()
            vector, outcome = objectives.simulate_genome(Genome.from_vector(vec), env)
            eval_s.append(time.perf_counter() - t0)
            failed += int(vector.failed)
            results[vec] = (vector, outcome)
        return Round(time.perf_counter() - start, len(SWEEP_GENOMES), failed, eval_s)

    rounds = session.measure(one_round)

    problems = []
    for vec, (vector, outcome) in results.items():
        problems += checks.check_f1([(vector.comm_fraction, vec)], checks.FC_SIZES, N_CLIENTS, "fc-upload-sweep")
        if outcome is None:
            continue
        ledger = {
            "rounds": outcome.ledger.rounds_executed,
            "uplink_bits": outcome.ledger.uplink_bits,
            "downlink_bits": outcome.ledger.downlink_bits,
            "baseline_bits": outcome.ledger.baseline_bits,
        }
        problems += checks.check_ledger(ledger, vec, checks.FC_SIZES, inputs.N_TRAIN, N_CLIENTS, 64, 1)
        if vector.n_test != inputs.N_TEST or vector.accuracy != vector.n_correct / inputs.N_TEST:
            problems.append(f"accuracy {vector.accuracy} of genome {list(vec)} is not n_correct / {inputs.N_TEST}")
    no_reduction = results[SWEEP_GENOMES[0]][0]
    if no_reduction.comm_fraction != 1.0:
        problems.append(f"no-reduction genome has f1 {no_reduction.comm_fraction}, not 1.0")
    if not ACCURACY_FLOOR <= no_reduction.accuracy < 1.0:
        problems.append(f"no-reduction accuracy {no_reduction.accuracy} lies outside [{ACCURACY_FLOOR}, 1)")
    pairs = [v.as_pair() for v, _ in results.values()]
    front_hv = metrics.hypervolume(pairs, metrics.HV_REFERENCE)
    problems += checks.check_hypervolume(front_hv, pairs, "fc-upload-sweep points")
    accuracy_mean = statistics.mean(v.accuracy for v, _ in results.values())
    layer = {"objectives.unique_ratio": 1.0}
    return Outcome(rounds, setup, front_hv, accuracy_mean, problems, layer)


def analytic_table() -> tuple[np.ndarray, np.ndarray]:
    """(f1, f2) of every genome of the grid, indexed by the genome."""
    (_, x_hi), (_, y_hi), (_, z_hi) = ANALYTIC_BOUNDS
    x = np.arange(x_hi + 1, dtype=np.float64)[:, None, None] / x_hi
    s = np.arange(y_hi + 1)[None, :, None] + np.arange(z_hi + 1)[None, None, :]
    f1 = np.broadcast_to(x, (x_hi + 1, y_hi + 1, z_hi + 1)).copy()
    f2 = (0.05 + 0.95 * np.sqrt(x)) * np.exp2(-s.astype(np.float64))
    return f1, f2


def search_analytic(session, work: Path, seed: int) -> Outcome:
    """nsga2.run at population 100 for 300 generations on a problem whose
    evaluation is a table lookup, so the engine's own work is what is timed."""
    f1, f2 = analytic_table()

    def evaluate(genomes, generation):
        return [(float(f1[g]), float(f2[g])) for g in genomes]

    # A search's set-up is its generation 0: the initial population drawn,
    # evaluated, ranked and archived. That takes about 10 ms, within which
    # the machine's short slow spells decide the time, so one set-up starts
    # ANALYTIC_SETUP_SEARCHES searches. It loads no data, so a traced run's
    # spans start with its rounds (Session.measure puts the wrappers back).
    if session.tracer is not None:
        session.tracer.restore()
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        for k in range(ANALYTIC_SETUP_SEARCHES):
            nsga2.run(evaluate, nsga2.SearchParams(ANALYTIC_POP, 0, ANALYTIC_BOUNDS, seed=seed + k),
                      directions=(1, -1), hv_reference=metrics.HV_REFERENCE)
        setup.append(time.perf_counter() - start)
    params = nsga2.SearchParams(ANALYTIC_POP, ANALYTIC_GENERATIONS, ANALYTIC_BOUNDS, seed=seed)

    timers = []

    def one_round() -> Round:
        with SearchTimer() as timer:
            start = time.perf_counter()
            nsga2.run(evaluate, params, directions=(1, -1), hv_reference=metrics.HV_REFERENCE)
            wall = time.perf_counter() - start
        timers.append(timer)
        return Round(wall, timer.evaluations, timer.failed, timer.gen_eval_s)

    rounds = session.measure(one_round)

    problems = []
    result = timers[0].results[0]
    if result.evaluations != ANALYTIC_POP * (ANALYTIC_GENERATIONS + 1):
        problems.append(f"the search made {result.evaluations} evaluations")
    for timer in timers[1:]:
        if [a[:2] for a in timer.results[0].archive] != [a[:2] for a in result.archive]:
            problems.append("a repeated search with the same seed gave another archive")
    optimal = checks.pareto_mask(f1.ravel(), f2.ravel()).reshape(f1.shape)
    for objs, genome, _ in result.archive:
        if not optimal[genome]:
            problems.append(f"archive genome {genome} is not Pareto-optimal")
        elif objs != (float(f1[genome]), float(f2[genome])):
            problems.append(f"archive genome {genome} carries objectives {objs}")
    pairs = [a[0] for a in result.archive]
    problems += checks.check_non_dominated(pairs, "final archive")
    front_hv = result.history[-1].hv_archive
    problems += checks.check_hypervolume(front_hv, pairs, "final archive")
    layer = {
        "metrics.archive_size": float(len(result.archive)),
        "objectives.unique_ratio": timers[0].distinct / timers[0].evaluations,
    }
    return Outcome(rounds, setup, front_hv, statistics.mean(f2 for _, f2 in timers[0].f2), problems, layer)


WORKLOADS = {
    "fc-campaign": fc_campaign,
    "fc-upload-sweep": fc_upload_sweep,
    "search-analytic": search_analytic,
}
