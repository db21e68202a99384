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
from functools import partial
from pathlib import Path
from typing import Callable

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
    "mnist_dir": None,  # None reads FLCOP_MNIST_DIR
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
    # an empty --mnist-dir names no directory, as an unset one does
    p.add_argument("--mnist-dir", type=lambda path: path or None,
                   help="directory with the four MNIST IDX files (env FLCOP_MNIST_DIR)")
    p.add_argument("--model", choices=tuple(nn.MODELS))
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
        if key not in DEFAULTS and key != "preset":
            raise ConfigError(f"{path}: unknown key {key!r}; expected one of {', '.join(sorted([*DEFAULTS, 'preset']))}")
        if value is None and DEFAULTS.get(key) is None:  # null means the default
            continue
        try:
            if key != "preset":
                metrics.check_option(key, value)
            elif not (isinstance(value, str) and value in PRESETS):
                raise ValueError(f"preset must be one of {', '.join(PRESETS)}, got {value!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return cfg


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge flags, config file, preset, and defaults into one options dict,
    each value checked by its rule in metrics.MANIFEST_RULES."""
    try:
        file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    preset = PRESETS.get(getattr(args, "preset", None) or file_cfg.get("preset"), {})
    options = {}
    for key, default in DEFAULTS.items():
        flag = getattr(args, key, None)
        options[key] = flag if flag is not None else file_cfg.get(key, preset.get(key, default))
    # every source of model has been checked: argparse's choices, the config file, a preset
    if options["generations"] is None:
        options["generations"] = GENERATIONS_BY_MODEL[options["model"]]
    for key, value in options.items():
        try:
            metrics.check_option(key, value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return options


def _mnist_dir(options: dict) -> Path:
    chosen = options.get("mnist_dir") or os.environ.get("FLCOP_MNIST_DIR")
    if not chosen:
        raise DataError("no MNIST directory: pass --mnist-dir or set FLCOP_MNIST_DIR")
    path = Path(chosen)
    if not path.is_dir():
        raise DataError(f"MNIST directory {path} does not exist")
    return path


def _out_dir(out, writes: Callable[[str], bool], flag: str = "--out") -> Path:
    """The output directory out, checked before any data is read: the nearest
    existing path at or above it must be a directory, and no entry of it
    whose name `writes` accepts, a file the command writes, may be a
    directory. Reads only the entries out holds, and creates nothing."""
    out = Path(out)
    existing = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigError(f"{flag} {out}: {existing} is not a directory")
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        if writes(path.name) and path.is_dir():
            raise ConfigError(f"{flag} {out}: {path} is a directory")
    return out


def _load_datasets(options: dict):
    mnist_dir = _mnist_dir(options)
    try:
        train, test = data.load_mnist(mnist_dir)
    except (data.IdxFormatError, data.IdxLengthError, data.DataConsistencyError, FileNotFoundError) as exc:
        raise DataError(str(exc)) from exc
    for ds, name in ((train, data.TRAIN_IMAGES), (test, data.TEST_IMAGES)):
        if ds.count == 0:
            raise DataError(f"{mnist_dir / name} holds no examples")
    train = data.subsample(train, options["train_limit"], options["seed"])
    test = data.subsample(test, options["test_limit"], options["seed"])
    if options["n_clients"] > train.count:
        raise ConfigError(f"--n-clients {options['n_clients']} exceeds the {train.count} training examples")
    return train, test


def _make_env(options: dict, train, test, run_seed: int) -> EvalEnv:
    part = data.partition(train, options["n_clients"], run_seed)
    return EvalEnv(
        spec=nn.MODELS[options["model"]](),
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


def cmd_optimize(args: argparse.Namespace) -> int:
    options = resolve_options(args)
    if options["model"] == "fc" and options["workers"] > 1:
        # fc evaluation is mostly Python code, which the interpreter lock serialises
        print(f"note: --workers {options['workers']} does not speed up fc evaluation; --workers 1 is as fast", file=sys.stderr)
    ours = partial(metrics.is_campaign_file, runs=options["runs"])
    out = _out_dir(options["out"], ours)
    train, test = _load_datasets(options)
    spec = nn.MODELS[options["model"]]()
    bounds = Bounds(options["n_clients"], spec.n_arrays, BOUNDS_PRESETS[options["bounds"]])
    out.mkdir(parents=True, exist_ok=True)
    # an older campaign's files must not pass for this one's if it is killed
    for path in sorted(out.iterdir()):
        if ours(path.name):
            path.unlink()
    metrics.write_json(out / metrics.MANIFEST_FILE, {**options, "interval_max": bounds.interval_max, "n_layers": bounds.n_layers})

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
            metrics.write_run(out, run_id, result.history, options["pop"])
            print(f"run {run_id}/{options['runs']}: front size {len(result.history[-1].front)}, evaluations {result.evaluations}")

    return report(out)


def brute_force_genome(n_clients: int, n_layers: int) -> Genome:
    return Genome(n_clients, 1, (0,) * n_layers, (32,) * n_layers)


def _simulate_payload(genome: Genome, env: EvalEnv, args: argparse.Namespace) -> dict:
    """Simulate one genome, one JSON line per round to --trace if given (with
    the round's global-model test accuracy under --trace-accuracy), and
    return the {genome, objectives, ledger} payload."""
    trace_file = open(args.trace, "w", encoding="utf-8", newline="\n") if args.trace else contextlib.nullcontext()
    with trace_file as handle:

        def trace(row, model):
            if args.trace_accuracy:
                row["global_accuracy"] = nn.count_correct(model, env.test) / env.test.count
            handle.write(json.dumps(row) + "\n")

        vector, outcome = objectives.simulate_genome(genome, env, trace=trace if handle else None)
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


def _check_trace_flags(args: argparse.Namespace) -> None:
    """A trace flag that would write no trace, or a --trace that cannot be
    written as a file, is a configuration error. Creates nothing."""
    if getattr(args, "layer_sizes", None) and (args.trace or args.trace_accuracy):
        raise ConfigError("--layer-sizes runs no simulation, so it takes no --trace or --trace-accuracy")
    if args.trace_accuracy and not args.trace:
        raise ConfigError("--trace-accuracy needs --trace")
    trace = Path(args.trace) if args.trace else None
    if trace and trace.is_dir():
        raise ConfigError(f"--trace {trace} is a directory")
    if trace and not trace.parent.is_dir():
        raise ConfigError(f"--trace {trace}: {trace.parent} is not a directory")


def cmd_baseline(args: argparse.Namespace) -> int:
    _check_trace_flags(args)
    options = resolve_options(args)
    out = _out_dir(options["out"], lambda name: name == "baseline.json")
    env = _make_env(options, *_load_datasets(options), options["seed"])
    payload = _simulate_payload(brute_force_genome(env.n_clients, env.spec.n_arrays), env, args)
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
    _check_trace_flags(args)
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
        sizes = nn.MODELS[options["model"]]().param_shapes
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
    """Build the merged outputs of the campaign in out from its checked files."""
    try:
        campaign = metrics.read_campaign(out)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    summary = metrics.export_campaign(out, *campaign)
    print(f"merged front: {summary['merged_front_size']} points, best f2 {summary['best_f2']}, min f1 {summary['min_f1']}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    return report(_out_dir(args.dir, lambda name: name in metrics.MERGED_FILES, "report"))


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
