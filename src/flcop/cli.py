"""Command-line entry point: campaign runner, baseline runner, single-genome
evaluator, and report regenerator.

`optimize` evaluates each generation on one pool of --workers threads per
campaign; the threads share the campaign's datasets and each run's
environment. Its files are byte-identical for any worker count on one
machine, but they follow OpenBLAS's thread count (the core count unless
OPENBLAS_NUM_THREADS is set), which decides the low bits of the matmuls.
More workers speed up only the conv model, whose time is spent in BLAS with
the interpreter lock released, and only while workers x BLAS threads <=
cores; an fc campaign with more than one worker notes this on stderr. It
deletes the files it is about to write, writes campaign.json first and each
run's files as that run ends, then builds the merged outputs as `report`
does, from those files.

Configuration precedence: explicit flags > config file (--config, JSON or
key=value lines) > preset bundle (--preset) > built-in defaults. The built-in
defaults reproduce the reference experimental setup (population 100, 300
generations for the fully-connected model and 120 for the convolutional one,
30 runs, 4 clients).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import data, metrics, nn, nsga2, objectives
from .nn import TrainConfig
from .objectives import BOUNDS_PRESETS, Bounds, EvalEnv, Genome, comm_fraction

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

DEFAULTS = {
    "model": "fc",
    "n_clients": 4,
    "pop": 100,
    "generations": None,  # resolved per model: fc 300, conv 120
    "runs": 30,
    "seed": 1,
    "init_seed": 0,
    "bounds": "default",
    "train_limit": None,
    "test_limit": None,
    "lr": 0.1,
    "batch_size": 64,
    "epochs": 1,
    "workers": 1,
    "out": "flcop-out",
}

GENERATIONS_BY_MODEL = {"fc": 300, "conv": 120}

PRESETS = {
    "desk-fc": {
        "model": "fc", "train_limit": 8000, "test_limit": 2000, "n_clients": 4,
        "pop": 20, "generations": 20, "runs": 1, "seed": 1,
    },
    "desk-conv": {
        "model": "conv", "train_limit": 2000, "test_limit": 500, "n_clients": 4,
        "pop": 8, "generations": 4, "runs": 1, "seed": 1,
    },
}

MODEL_SPECS = {"fc": nn.fully_connected, "conv": nn.convolutional}

# the value types a config file may give each key; null is also accepted
# where the default is None, and for preset and mnist_dir
_CONFIG_TYPES = {key: (type(value),) for key, value in DEFAULTS.items() if value is not None}
_CONFIG_TYPES.update(
    generations=(int,), train_limit=(int,), test_limit=(int,), lr=(int, float), preset=(str,), mnist_dir=(str,)
)


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mnist-dir", help="directory with the four MNIST IDX files (env FLCOP_MNIST_DIR)")
    p.add_argument("--model", choices=("fc", "conv"))
    p.add_argument("--n-clients", type=int)
    p.add_argument("--train-limit", type=int, help="use only the first K examples of the seeded permutation")
    p.add_argument("--test-limit", type=int)
    p.add_argument("--lr", type=float, help="SGD learning rate")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--init-seed", type=int, help="seed for the shared initial model weights")
    p.add_argument("--config", help="JSON or key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flcop", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run the multi-objective search campaign")
    _add_common(p_opt)
    p_opt.add_argument("--pop", type=int, help="population size (even, >= 4)")
    p_opt.add_argument("--generations", type=int)
    p_opt.add_argument("--runs", type=int)
    p_opt.add_argument("--bounds", choices=tuple(BOUNDS_PRESETS))
    p_opt.add_argument("--preset", choices=tuple(PRESETS))
    p_opt.add_argument("--workers", type=int, help="parallel fitness evaluations")
    p_opt.add_argument("--out", help="output directory")

    p_base = sub.add_parser("baseline", help="evaluate the no-reduction configuration")
    _add_common(p_base)
    p_base.add_argument("--out", help="output directory")
    p_base.add_argument("--trace", help="write per-round JSON lines to this file")
    p_base.add_argument("--trace-accuracy", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate one genome")
    _add_common(p_eval)
    p_eval.add_argument("genome", help="flat JSON array [m, E, mu_1.., b_1..], or @file")
    p_eval.add_argument("--bounds", choices=tuple(BOUNDS_PRESETS))
    p_eval.add_argument("--layer-sizes", help="comma-separated synthetic layer sizes: closed-form objectives only, no simulation")
    p_eval.add_argument("--trace", help="write per-round JSON lines to this file")
    p_eval.add_argument("--trace-accuracy", action="store_true")

    p_rep = sub.add_parser("report", help="regenerate merged front, genome stats, and summary from stored CSVs")
    p_rep.add_argument("dir", help="campaign output directory")
    return parser


def _load_config_file(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        loaded = json.loads(text)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config JSON must be an object")
    else:
        loaded = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            loaded[key.strip()] = json.loads(value.strip())
    cfg = {str(k).replace("-", "_"): v for k, v in loaded.items()}
    for key, value in cfg.items():
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}: unknown key {key!r}; expected one of {', '.join(sorted(_CONFIG_TYPES))}")
        if value is None and DEFAULTS.get(key) is None:
            continue
        expected = _CONFIG_TYPES[key]
        # bool is an int subclass, but true is no population size
        if isinstance(value, bool) or not isinstance(value, expected):
            names = " or ".join(t.__name__ for t in expected)
            raise ConfigError(f"{path}: {key} must be {names}, got {value!r}")
    if cfg.get("preset") is not None and cfg["preset"] not in PRESETS:
        raise ConfigError(f"{path}: preset must be one of {', '.join(PRESETS)}, got {cfg['preset']!r}")
    return cfg


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge flags, config file, preset, and defaults into one options dict."""
    try:
        file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    preset = PRESETS.get(getattr(args, "preset", None) or file_cfg.get("preset"), {})
    options = {}
    for key, default in DEFAULTS.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            options[key] = cli_value
        elif key in file_cfg:
            options[key] = file_cfg[key]
        elif key in preset:
            options[key] = preset[key]
        else:
            options[key] = default
    for key, choices in (("model", MODEL_SPECS), ("bounds", BOUNDS_PRESETS)):
        if options[key] not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {options[key]!r}")
    if options["generations"] is None:
        options["generations"] = GENERATIONS_BY_MODEL[options["model"]]
    options["mnist_dir"] = getattr(args, "mnist_dir", None) or file_cfg.get("mnist_dir") or None

    if options["n_clients"] < 1:
        raise ConfigError("--n-clients must be at least 1")
    if options["pop"] < 4 or options["pop"] % 2:
        raise ConfigError("--pop must be even and at least 4")
    for key in ("generations", "runs", "batch_size", "epochs", "workers", "train_limit", "test_limit"):
        if options[key] is not None and options[key] < 1:
            raise ConfigError(f"--{key.replace('_', '-')} must be at least 1")
    if options["lr"] <= 0:
        raise ConfigError("--lr must be positive")
    try:
        TrainConfig(options["lr"], options["batch_size"])
    except ValueError as exc:
        raise ConfigError(f"--lr: {exc}") from exc
    if options["seed"] < 0 or options["init_seed"] < 0:
        raise ConfigError("seeds must be non-negative")
    return options


def _mnist_dir(options: dict) -> Path:
    chosen = options.get("mnist_dir") or os.environ.get("FLCOP_MNIST_DIR")
    if not chosen:
        raise DataError("no MNIST directory: pass --mnist-dir or set FLCOP_MNIST_DIR")
    path = Path(chosen)
    if not path.is_dir():
        raise DataError(f"MNIST directory {path} does not exist")
    return path


def _load_datasets(options: dict):
    try:
        train, test = data.load_mnist(_mnist_dir(options))
    except (data.IdxFormatError, data.IdxLengthError, data.DataConsistencyError, FileNotFoundError) as exc:
        raise DataError(str(exc)) from exc
    train = data.subsample(train, options["train_limit"], options["seed"])
    test = data.subsample(test, options["test_limit"], options["seed"])
    if options["n_clients"] > train.count:
        raise ConfigError(f"--n-clients {options['n_clients']} exceeds the {train.count} training examples")
    return train, test


def _make_env(options: dict, train, test, run_seed: int) -> EvalEnv:
    part = data.partition(train, options["n_clients"], run_seed)
    return EvalEnv(
        spec=MODEL_SPECS[options["model"]](),
        partition=part,
        test=test,
        train=TrainConfig(options["lr"], options["batch_size"]),
        epochs=options["epochs"],
        seed=run_seed,
        init_seed=options["init_seed"],
    )


def _search(pool: ThreadPoolExecutor, env: EvalEnv, params: nsga2.SearchParams) -> nsga2.SearchResult:
    """One run's search, each generation's genomes evaluated on the pool."""

    def evaluate(genomes, generation):
        def one(index, genes):
            # looked up on the module at each call, so a wrapper set on
            # objectives.simulate_genome (the perfbench tracer's) sees every evaluation
            vector, _ = objectives.simulate_genome(Genome.from_vector(genes), env, generation, index)
            return vector.as_pair()

        return list(pool.map(one, range(len(genomes)), genomes))

    return nsga2.run(evaluate, params, directions=(1, -1), hv_reference=metrics.HV_REFERENCE)


def _campaign_manifest(options: dict, bounds: Bounds) -> dict:
    manifest = {k: options[k] for k in sorted(DEFAULTS)}
    manifest["mnist_dir"] = str(options["mnist_dir"]) if options["mnist_dir"] else None
    manifest["interval_max"] = bounds.interval_max
    manifest["n_layers"] = bounds.n_layers
    return manifest


def _front_points(result: nsga2.SearchResult, run_id: int, generation: int) -> list[metrics.ParetoPoint]:
    points = [
        metrics.ParetoPoint(ind.objectives[0], ind.objectives[1], Genome.from_vector(ind.genome), run_id, generation)
        for ind in result.population
        if ind.rank == 1
    ]
    points.sort(key=lambda p: (p.comm, p.accuracy, p.genome.to_vector()))
    return points


def _write_generation_log(path: Path, history: list[nsga2.GenerationRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rec in history:
            row = {
                "gen": rec.generation,
                "front1": [[objs[0], objs[1], list(genome)] for objs, genome in rec.front],
                "hypervolume": rec.hv_front,
                "evals": rec.evaluations,
            }
            f.write(json.dumps(row) + "\n")


def _run_files(run_id: int) -> tuple[str, str, str]:
    """The pareto, hypervolume and generation-log file names of one run."""
    return f"pareto_run{run_id}.csv", f"hypervolume_run{run_id}.csv", f"generations_run{run_id}.jsonl"


MERGED_FILES = ("pareto_merged.csv", "genome_stats.csv", "summary.json")


def cmd_optimize(args: argparse.Namespace) -> int:
    options = resolve_options(args)
    if options["model"] == "fc" and options["workers"] > 1:
        # fc evaluation is mostly Python code, which the interpreter lock serialises
        print(f"note: --workers {options['workers']} does not speed up fc evaluation; --workers 1 is as fast", file=sys.stderr)
    train, test = _load_datasets(options)
    spec = MODEL_SPECS[options["model"]]()
    bounds = Bounds(options["n_clients"], spec.n_arrays, BOUNDS_PRESETS[options["bounds"]])
    out = Path(options["out"])
    out.mkdir(parents=True, exist_ok=True)
    # an older campaign's files must not pass for this one's if it is killed
    for run_id in range(1, options["runs"] + 1):
        for name in _run_files(run_id):
            (out / name).unlink(missing_ok=True)
    for name in MERGED_FILES:
        (out / name).unlink(missing_ok=True)
    metrics.write_json(out / "campaign.json", _campaign_manifest(options, bounds))

    with ThreadPoolExecutor(options["workers"]) as pool:
        for run_id in range(1, options["runs"] + 1):
            run_seed = options["seed"] + run_id - 1
            params = nsga2.SearchParams(
                population_size=options["pop"],
                generations=options["generations"],
                bounds=tuple(bounds.coordinate_ranges()),
                seed=run_seed,
            )
            # the run's environment lives only inside the call; its shards are
            # index views onto `train`, so a run adds no copy of the rows
            result = _search(pool, _make_env(options, train, test, run_seed), params)
            front = _front_points(result, run_id, options["generations"])
            pareto_name, hv_name, log_name = _run_files(run_id)
            metrics.write_pareto_csv(out / pareto_name, front, bounds.n_layers)
            hv_rows = [(r.generation, r.hv_front, r.evaluations, r.hv_archive) for r in result.history]
            metrics.write_csv(out / hv_name, metrics.HV_HEADER, hv_rows)
            _write_generation_log(out / log_name, result.history)
            print(f"run {run_id}/{options['runs']}: front size {len(front)}, evaluations {result.evaluations}")

    return report(out)


def _print_merged(summary: dict) -> None:
    print(
        f"merged front: {summary['merged_front_size']} points, "
        f"best f2 {summary['best_f2']}, min f1 {summary['min_f1']}"
    )


def brute_force_genome(n_clients: int, n_layers: int) -> Genome:
    return Genome(n_clients, 1, (0,) * n_layers, (32,) * n_layers)


def _simulate_payload(genome: Genome, env: EvalEnv, args: argparse.Namespace) -> dict:
    """Simulate one genome, one JSON line per round to --trace if given, and
    return the {genome, objectives, ledger} payload."""
    trace_file = open(args.trace, "w", encoding="utf-8", newline="\n") if args.trace else contextlib.nullcontext()
    with trace_file as handle:
        trace = (lambda row: handle.write(json.dumps(row) + "\n")) if handle else None
        vector, outcome = objectives.simulate_genome(genome, env, trace=trace, trace_accuracy=args.trace_accuracy)
    ledger = outcome.ledger if outcome else None
    return {
        "genome": list(genome.to_vector()),
        "objectives": {
            "f1": vector.comm_fraction,
            "f2": vector.accuracy,
            "alpha": vector.alpha,
            "beta": vector.beta,
            "n_correct": vector.n_correct,
            "n_test": vector.n_test,
            "failed": vector.failed,
            "note": vector.note,
        },
        "ledger": None if ledger is None else {
            "rounds": ledger.rounds_executed,
            "uplink_bits": ledger.uplink_bits,
            "downlink_bits": ledger.downlink_bits,
            "baseline_bits": ledger.baseline_bits,
        },
    }


def cmd_baseline(args: argparse.Namespace) -> int:
    options = resolve_options(args)
    env = _make_env(options, *_load_datasets(options), options["seed"])
    payload = _simulate_payload(brute_force_genome(env.n_clients, env.spec.n_arrays), env, args)
    out = Path(options["out"])
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_json(out / "baseline.json", payload)
    print(json.dumps(payload["objectives"]))
    return EXIT_OK


def _parse_genome_arg(text: str) -> Genome:
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read genome file {text[1:]}: {exc}") from exc
    try:
        vec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"genome is not valid JSON: {exc}") from exc
    # bool is an int subclass, but true is no gene
    if not isinstance(vec, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in vec):
        raise ConfigError("genome must be a flat JSON array of integers")
    try:
        return Genome.from_vector(vec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_eval(args: argparse.Namespace) -> int:
    options = resolve_options(args)
    genome = _parse_genome_arg(args.genome)

    if args.layer_sizes:
        try:
            sizes = [int(s) for s in args.layer_sizes.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --layer-sizes: {exc}") from exc
        if any(n < 1 for n in sizes):
            raise ConfigError(f"bad --layer-sizes: every size must be at least 1, got {args.layer_sizes}")
    else:
        sizes = MODEL_SPECS[options["model"]]().param_shapes
    try:
        genome.validate(Bounds(options["n_clients"], len(sizes), BOUNDS_PRESETS[options["bounds"]]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if args.layer_sizes:
        alpha, beta, f1 = comm_fraction(genome, sizes, options["n_clients"])
        payload = {
            "genome": list(genome.to_vector()),
            "objectives": {"f1": f1, "f2": None, "alpha": alpha, "beta": beta},
            "ledger": None,
        }
    else:
        payload = _simulate_payload(genome, _make_env(options, *_load_datasets(options), options["seed"]), args)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def report(out: Path) -> int:
    """Build the merged outputs of the campaign in out from its manifest and
    per-run CSVs, all read and checked before anything is written."""
    manifest_path = out / "campaign.json"
    if not manifest_path.is_file():
        raise DataError(f"missing {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for key in ("runs", "n_clients", "n_layers", "interval_max"):
            value = manifest[key]
            # bool is an int subclass, but true is no count
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{key} must be an integer of at least 1, got {value!r}")
        runs = manifest["runs"]
        bounds = Bounds(manifest["n_clients"], manifest["n_layers"], manifest["interval_max"])
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{manifest_path} is not a campaign manifest: {type(exc).__name__}: {exc}") from exc
    missing = []
    for k in range(1, runs + 1):
        for name in _run_files(k)[:2]:
            if not (out / name).is_file():
                missing.append(name)
    if missing:
        raise DataError("missing campaign files: " + ", ".join(missing))

    run_fronts, hv_tables = [], []
    try:
        for k in range(1, runs + 1):
            pareto_name, hv_name, _ = _run_files(k)
            path = out / pareto_name
            run_fronts.append(metrics.read_pareto_csv(path))
            for point in run_fronts[-1]:
                point.genome.validate(bounds)
                # both objectives are fractions; NaN fails the comparison too
                if not (0.0 <= point.comm <= 1.0 and 0.0 <= point.accuracy <= 1.0):
                    raise ValueError(f"objectives ({point.comm}, {point.accuracy}) lie outside [0, 1]")
            path = out / hv_name
            hv_tables.append(metrics.read_hypervolume_csv(path))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    _print_merged(metrics.export_campaign(out, run_fronts, hv_tables, bounds, manifest))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    return report(Path(args.dir))


COMMANDS = {
    "optimize": cmd_optimize,
    "baseline": cmd_baseline,
    "eval": cmd_eval,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - map everything else to the runtime exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
