"""Front quality metrics, cross-run merging, and the campaign directory.

Objective convention throughout: f1 (communication fraction) is minimized,
f2 (accuracy) is maximized, both live in [0, 1], and the hypervolume
reference point (1.0, 0.0) is the worst corner of that box.

It also owns the campaign directory, the table of every campaign option
(`OPTIONS`, from which `cli` builds its flags and checks its config files),
and a run's one in-memory form, a list of `GenerationRecord`s: `write_run`
writes a run's records as its files, `read_campaign` checks every file and
returns the records that were written, and `export_campaign` builds the merged
outputs from them. A record holds a front and the archive's volume; a
generation's number, evaluation count and front volume are computed here.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .nn import MODELS, TrainConfig
from .objectives import BOUNDS_PRESETS, Bounds, Genome, comm_fraction

HV_REFERENCE = (1.0, 0.0)


@dataclass(frozen=True)
class ParetoPoint:
    comm: float
    accuracy: float
    genome: Genome
    run_id: int
    generation: int

    def as_pair(self) -> tuple[float, float]:
        return (self.comm, self.accuracy)


# rows per block of the dominance matrix, so each boolean temporary holds
# about 128k entries however large the archive grows
_BLOCK_ENTRIES = 1 << 17


def dominated_by(points: np.ndarray, block: np.ndarray | None = None) -> np.ndarray:
    """Entry [r, j] is true iff points[j] strictly dominates block[r]: no
    worse in every objective and better in one. `points` is an (n, d) and
    `block` an (r, d) float64 array, both already mapped to minimisation;
    `block` defaults to all of `points`. NaN raises ValueError."""
    if block is None:
        block = points
    if np.isnan(points).any() or np.isnan(block).any():
        raise ValueError("objective values must not be NaN")
    # 2-D comparisons one objective at a time: broadcasting over a trailing
    # axis of size d builds d-times larger temporaries and runs slower. Each
    # objective is one contiguous row of the transposes, where a column view
    # of the (n, d) inputs would be read with a stride of d.
    cols, rows = np.ascontiguousarray(points.T), np.ascontiguousarray(block.T)[:, :, None]
    no_worse = cols[0] <= rows[0]
    better = cols[0] < rows[0]
    for k in range(1, len(cols)):
        no_worse &= cols[k] <= rows[k]
        better |= cols[k] < rows[k]
    no_worse &= better
    return no_worse


def pareto_filter(points: Sequence[tuple[float, ...]], directions: Sequence[int] = (1, -1)) -> list[int]:
    """Ascending indices of points not strictly dominated by any other point.

    Duplicates do not dominate each other, so every copy of a non-dominated
    point survives. A NaN objective raises ValueError.
    """
    arr = np.asarray(points, np.float64).reshape(len(points), len(directions)) * np.asarray(directions)
    step = max(1, _BLOCK_ENTRIES // max(1, len(arr)))
    keep = [
        start + np.flatnonzero(~dominated_by(arr, arr[start : start + step]).any(axis=1))
        for start in range(0, len(arr), step)
    ]
    return np.concatenate(keep).tolist() if keep else []


def hypervolume(points: Sequence[tuple[float, float]], reference: tuple[float, float] = HV_REFERENCE) -> float:
    """Area dominated by the points within the reference box.

    One sweep by ascending f1, ties by descending f2, under a running ceiling
    that starts at the reference f2: a point whose f2 rises above the ceiling
    contributes the rectangle from the reference f1 back to its own f1, over
    the span it adds. A dominated or repeated point always meets a ceiling at
    or above its own f2, set by a point sorted before it, so it adds nothing
    and needs no filter. The terms are added in sweep order, as a loop over
    the filtered front would add them. A point strictly outside the
    reference box, or with a NaN coordinate, is an error.
    """
    f1_ref, f2_ref = reference
    arr = np.asarray(points, np.float64).reshape(len(points), 2)
    outside = np.flatnonzero((arr[:, 0] > f1_ref) | (arr[:, 1] < f2_ref))
    if outside.size:
        raise ValueError(f"point {tuple(arr[outside[0]].tolist())} lies outside the reference box {reference}")
    if np.isnan(arr).any():
        raise ValueError("objective values must not be NaN")
    order = np.lexsort((-arr[:, 1], arr[:, 0]))
    f1, f2 = arr[order, 0], arr[order, 1]
    ceiling = np.maximum.accumulate(np.concatenate(([f2_ref], f2)))[:-1]
    rises = f2 > ceiling
    if not rises.any():
        return 0.0
    # Python float arithmetic: inf and NaN terms are results, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (f1_ref - f1[rises]) * (f2[rises] - ceiling[rises])
        # cumsum adds in sweep order; + 0.0 turns a sum of -0.0 terms into
        # the +0.0 that a loop starting from area = 0.0 returns
        return float(np.cumsum(terms)[-1]) + 0.0


def merge_pseudo_optimal(runs: Sequence[Sequence[ParetoPoint]]) -> list[ParetoPoint]:
    """Non-dominated filter over the union of all runs' points, provenance kept."""
    if not runs:
        raise ValueError("need at least one run to merge")
    union = [p for run in runs for p in run]
    keep = pareto_filter([p.as_pair() for p in union])
    merged = [union[i] for i in keep]
    merged.sort(key=lambda p: (p.comm, p.accuracy, p.run_id))
    return merged


def best_accuracy_point(front: Sequence[ParetoPoint]) -> ParetoPoint:
    return max(front, key=lambda p: (p.accuracy, -p.comm))


def lowest_comm_point(front: Sequence[ParetoPoint]) -> ParetoPoint:
    return min(front, key=lambda p: (p.comm, -p.accuracy))


def elbow_point(front: Sequence[ParetoPoint]) -> ParetoPoint:
    """Front member farthest from the chord joining the front's extreme points."""
    ordered = sorted(front, key=lambda p: (p.comm, p.accuracy))
    a = lowest_comm_point(front).as_pair()
    b = best_accuracy_point(front).as_pair()
    chord = np.hypot(b[0] - a[0], b[1] - a[1])
    if chord == 0.0:
        return ordered[0]
    best, best_dist = ordered[0], -1.0
    for p in ordered:
        dist = abs((b[0] - a[0]) * (a[1] - p.accuracy) - (a[0] - p.comm) * (b[1] - a[1])) / chord
        if dist > best_dist:
            best, best_dist = p, dist
    return best


_SELECTORS = {
    "best_accuracy": best_accuracy_point,
    "elbow": elbow_point,
    "lowest_comm": lowest_comm_point,
}

FRONT_KINDS = tuple(_SELECTORS)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value)) if isinstance(value, float) else str(int(value))


def _csv_text(header: str, rows: Iterable[Sequence]) -> str:
    """One header line, then one line per row; repr round-trips every float."""
    return "\n".join([header, *(",".join(_fmt(v) for v in row) for row in rows)]) + "\n"


def _write_text(path, text: str) -> None:
    """The one way `metrics` writes a file: UTF-8 with LF line ends."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_csv(path) -> list[list[str]]:
    """The cells of each non-empty line after the header."""
    return [line.split(",") for line in Path(path).read_text(encoding="utf-8").splitlines()[1:] if line]


def write_json(path, obj) -> None:
    """Strict JSON: a NaN or infinite float raises ValueError."""
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _pareto_text(points: Sequence[ParetoPoint]) -> str:
    header = ",".join(["run", "gen", "f1", "f2", *Bounds(1, points[0].genome.n_layers).coordinate_names()])
    return _csv_text(header, ([p.run_id, p.generation, p.comm, p.accuracy, *p.genome.to_vector()] for p in points))


@dataclass
class GenerationRecord:
    """One generation of a run, as the search knows it: its first front as
    (objectives, genes) pairs and the hypervolume of the run's archive. Its
    number g is its index in the history; its evaluation count pop * (g + 1)
    and its front's hypervolume are computed where the record is written."""

    front: list[tuple[tuple[float, ...], tuple[int, ...]]]
    hv_archive: float


def final_front(run_id: int, history: Sequence[GenerationRecord]) -> list[ParetoPoint]:
    """The last generation's front, sorted by (f1, f2, genes)."""
    gen = len(history) - 1
    return [ParetoPoint(*objs, Genome.from_vector(genes), run_id, gen) for objs, genes in sorted(history[gen].front)]


HV_HEADER = "gen,hv,evals,hv_archive"
MANIFEST_FILE = "campaign.json"
MERGED_FILES = ("pareto_merged.csv", "genome_stats.csv", "summary.json")


def run_files(run_id: int) -> tuple[str, str, str]:
    """The pareto, hypervolume and generation-log file names of one run."""
    return f"pareto_run{run_id}.csv", f"hypervolume_run{run_id}.csv", f"generations_run{run_id}.jsonl"


def is_campaign_file(name: str, runs: int) -> bool:
    """Whether a campaign of `runs` runs writes a file of this name: its
    manifest, a merged output, or a file of run k in 1 .. runs. Builds the
    names of one run at most, however large runs is."""
    if name == MANIFEST_FILE or name in MERGED_FILES:
        return True
    number = re.search("[0-9]+", name)
    return number is not None and 1 <= int(number[0]) <= runs and name in run_files(int(number[0]))


def _is_rate(value) -> bool:
    # TrainConfig refuses a rate that is not finite, or is 0, in float32, where SGD applies it
    try:
        TrainConfig(value)
    except (ValueError, TypeError, OverflowError):
        return False
    return type(value) in (int, float) and value > 0


class Option(NamedTuple):
    """One key of campaign.json: the `rule` an error names, the test a value
    `holds` (bool is an int subclass, but true is no count), its `default`,
    the `commands` whose flag sets it (none for a derived key), the flag's
    `parse`, which also maps each value that holds to its one form, and the
    flag's `help`, which is the rule where none is given."""

    rule: str
    holds: Callable[[object], bool]
    default: object = None
    commands: tuple[str, ...] = ()
    parse: Callable = int
    help: str | None = None


_TRAINING, _SEARCH = ("optimize", "baseline", "eval"), ("optimize",)
_COUNT = ("an integer of at least 1", lambda value: type(value) is int and value >= 1)
_SEED = ("an integer of at least 0", lambda value: type(value) is int and value >= 0)
_LIMIT = ("an integer of at least 1 or null", lambda value: value is None or type(value) is int and value >= 1)

# Every key of campaign.json, in the order the flags are listed. An option's
# flag, config-file entry and manifest value meet the rule of its row.
OPTIONS = {
    # an empty --mnist-dir names no directory, as an unset one does
    "mnist_dir": Option("a string or null", lambda value: value is None or isinstance(value, str), None, _TRAINING,
                        lambda path: path or None, "directory with the four MNIST IDX files (env FLCOP_MNIST_DIR)"),
    "model": Option(f"one of {', '.join(MODELS)}", lambda value: isinstance(value, str) and value in MODELS, "fc", _TRAINING, str),
    "n_clients": Option(*_COUNT, 4, _TRAINING),
    "train_limit": Option(*_LIMIT, None, _TRAINING, int, "use only the first K examples of the seeded permutation"),
    "test_limit": Option(*_LIMIT, None, _TRAINING),
    "lr": Option("a positive number, finite and not 0 in float32", _is_rate, 0.1, _TRAINING, float),
    "batch_size": Option(*_COUNT, 64, _TRAINING),
    "epochs": Option(*_COUNT, 1, _TRAINING),
    "seed": Option(*_SEED, 1, _TRAINING),
    "init_seed": Option(*_SEED, 0, _TRAINING, int, "seed for the shared initial model weights"),
    "pop": Option("an even integer of at least 4", lambda value: type(value) is int and value >= 4 and value % 2 == 0, 100, _SEARCH),
    "generations": Option(*_COUNT, None, _SEARCH),  # null resolves per model, by cli.GENERATIONS_BY_MODEL
    "runs": Option(*_COUNT, 30, _SEARCH),
    "bounds": Option(f"one of {', '.join(BOUNDS_PRESETS)}", lambda value: isinstance(value, str) and value in BOUNDS_PRESETS,
                     "default", ("optimize", "eval"), str),
    "workers": Option(*_COUNT, 1, _SEARCH, int, "parallel fitness evaluations"),
    "out": Option("a string", lambda value: isinstance(value, str), "flcop-out", ("optimize", "baseline"), str, "output directory"),
    "interval_max": Option(*_COUNT),
    "n_layers": Option(*_COUNT),
}


def check_option(key: str, value):
    """Value in its one form, the parse of its row in OPTIONS; ValueError,
    naming key, its rule and value, unless value meets that row's rule."""
    option = OPTIONS[key]
    if not option.holds(value):
        raise ValueError(f"{key} must be {option.rule}, got {value!r}")
    return value if value is None else option.parse(value)


def _run_texts(run_id: int, history: Sequence[GenerationRecord], hvs: Sequence[float], pop: int) -> tuple[str, str, str]:
    """The texts of run_files(run_id), given each front's volume in hvs: the final front,
    the volume trace, and one JSON line per gen g, after pop * (g + 1) evaluations."""
    rows = [(g, r, hv, pop * (g + 1)) for g, (r, hv) in enumerate(zip(history, hvs))]
    trace = _csv_text(HV_HEADER, [(g, hv, evals, r.hv_archive) for g, r, hv, evals in rows])
    log = ({"gen": g, "front1": [[*objs, genes] for objs, genes in r.front], "hypervolume": hv, "evals": evals}
           for g, r, hv, evals in rows)
    return _pareto_text(final_front(run_id, history)), trace, "".join(json.dumps(line) + "\n" for line in log)


def write_run(out_dir, run_id: int, history: Sequence[GenerationRecord], pop: int) -> None:
    """Write one run's files into out_dir from its GenerationRecords, pop evaluations per generation."""
    hvs = [hypervolume([objs for objs, _ in r.front]) for r in history]
    for name, text in zip(run_files(run_id), _run_texts(run_id, history, hvs, pop)):
        _write_text(Path(out_dir) / name, text)


def _finite_float(text: str) -> float:
    """float(text), but NaN, Infinity and overflows such as 1e999 raise ValueError."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_manifest(out_dir) -> tuple[dict, Bounds]:
    """The manifest of the campaign in out_dir and the bounds it names. It
    holds exactly the keys that optimize writes, each meeting its rule in
    OPTIONS, as its flag and config-file entry do, with interval_max
    its bounds preset's cap and n_layers its model's array count; anything
    else, a missing file or a NaN, Infinity or 1e999 raises ValueError naming it."""
    path = Path(out_dir) / MANIFEST_FILE
    if not path.is_file():
        raise ValueError(f"missing {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"), parse_float=_finite_float, parse_constant=_finite_float)
        if not isinstance(manifest, dict):
            raise ValueError("needs a JSON object")
        if odd := sorted(manifest.keys() ^ OPTIONS.keys()):
            raise ValueError(f"needs exactly the keys optimize writes, and lacks or adds {', '.join(odd)}")
        for key in OPTIONS:
            check_option(key, manifest[key])
        if manifest["interval_max"] != BOUNDS_PRESETS[manifest["bounds"]]:
            raise ValueError(f"interval_max must be {BOUNDS_PRESETS[manifest['bounds']]}, the {manifest['bounds']}"
                             f" bounds' interval cap, got {manifest['interval_max']}")
        n_arrays = len(MODELS[manifest["model"]]().param_shapes)
        if manifest["n_layers"] != n_arrays:
            raise ValueError(f"n_layers must be {n_arrays}, the {manifest['model']} model's array count, got {manifest['n_layers']}")
    except ValueError as exc:  # a UnicodeDecodeError and a JSONDecodeError are ValueErrors too
        raise ValueError(f"{path} is not a campaign manifest: {type(exc).__name__}: {exc}") from exc
    return manifest, Bounds(manifest["n_clients"], manifest["n_layers"], manifest["interval_max"])


def read_campaign(out_dir) -> tuple[dict, Bounds, list[list[GenerationRecord]]]:
    """The manifest and bounds that read_manifest returns, and the run
    histories of the campaign in out_dir, each history the GenerationRecords
    that write_run wrote, after every file has been checked; a malformed
    file, or the first missing one, raises ValueError naming it. A run's
    generation log and hypervolume file hold one line
    per gen 0 .. generations; every front in the log holds one or more points, none
    dominated by another, each with f1, f2 in [0, 1], a genome of
    2 + 2 * n_layers coordinates within bounds, and an f1 bit-equal to the
    genome's comm_fraction over the model's layer sizes and n_clients, taken
    once per distinct genome of a run; every hv_archive lies in [0, 1], at
    least its front's hv and the previous hv_archive less rounding. Each run
    file must then be exactly what write_run writes for the fronts in its log,
    with evals = pop * (gen + 1) and each hv its front's hypervolume."""
    out = Path(out_dir)
    manifest, bounds = read_manifest(out)
    sizes = MODELS[manifest["model"]]().param_shapes
    runs, pop, generations = range(1, manifest["runs"] + 1), manifest["pop"], manifest["generations"]
    # the first missing file alone: runs comes from outside and may be huge
    missing = next((name for k in runs for name in run_files(k) if not (out / name).is_file()), None)
    if missing:
        raise ValueError(f"missing campaign file {out / missing}")
    histories = []
    try:
        for k in runs:
            paths = [out / name for name in run_files(k)]
            path = paths[2]
            log = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            # canonical types: a value of another type renders differently below
            fronts = [[((float(f1), float(f2)), tuple(map(int, genes))) for f1, f2, genes in row["front1"]] for row in log]
            if len(fronts) != generations + 1 or not all(fronts):
                raise ValueError(f"needs {generations + 1} lines, one per gen 0 .. {generations}, each with a front1 point")
            points = [p for front in fronts for p in front]
            # a ragged genome list raises ValueError
            pairs, genomes = np.array([p[0] for p in points]), np.array([p[1] for p in points])
            # the width first, which the bounds comparison below needs
            if genomes.shape != (len(points), 2 + 2 * bounds.n_layers):
                raise ValueError(f"front1 genomes need {2 + 2 * bounds.n_layers} coordinates, for {bounds.n_layers} layers")
            # one comparison over every front's points; NaN fails too
            lo, hi = np.array(bounds.coordinate_ranges()).T
            inside = ((0.0 <= pairs) & (pairs <= 1.0)).all(axis=1) & ((lo <= genomes) & (genomes <= hi)).all(axis=1)
            if not inside.all():
                raise ValueError(f"front1 point {points[inside.argmin()]} needs f1, f2 in [0, 1] and a genome within {bounds}")
            # fronts repeat genomes from one generation to the next, so each
            # distinct genome's closed form is taken once
            f1s = {genes: comm_fraction(Genome.from_vector(genes), sizes, manifest["n_clients"])[2]
                   for genes in {genes for _, genes in points}}
            for gen, front in enumerate(fronts):
                for (f1, _), genes in front:
                    if f1 != f1s[genes]:
                        raise ValueError(f"gen {gen} logs f1 {f1} for genome {list(genes)}, whose closed form is {f1s[genes]}")
            # rank-1 points never dominate each other, and duplicates survive the filter
            for gen, front in enumerate(fronts):
                if len(pareto_filter([objs for objs, _ in front])) < len(front):
                    raise ValueError(f"gen {gen} holds a front1 point that another of its points dominates")
            hvs = [hypervolume([objs for objs, _ in front]) for front in fronts]
            path = paths[1]
            archive = [float(hv_archive) for _, _, _, hv_archive in read_csv(path)]
            if len(archive) != generations + 1:
                raise ValueError(f"needs {generations + 1} rows, one per gen 0 .. {generations}")
            previous = 0.0
            for gen, (front, hv, hv_archive) in enumerate(zip(fronts, hvs, archive)):
                if not 0.0 <= hv_archive <= 1.0:  # NaN fails too
                    raise ValueError(f"gen {gen} needs an hv_archive in [0, 1], got {hv_archive}")
                # The archive weakly dominates the front and its previous
                # self, so in exact arithmetic hv_archive >= max(hv, previous),
                # but a float sweep of a dominating set can come out an ulp
                # smaller. A sweep of n non-negative terms, each rounded at
                # most 3 times and each partial sum once, is within a relative
                # (n + 2) * 2**-53 of its exact area (no term nears underflow).
                # The gen-g archive holds at most pop * (g + 1) points and its
                # previous self fewer, so the slack below covers either
                # comparison twice over. It is below 1 for under 2**50
                # evaluations, so a positive volume needs a positive hv_archive.
                floor = max(hv, previous) * (1.0 - 4 * (pop * (gen + 1) + len(front) + 4) * 2.0**-53)
                if hv_archive < floor:
                    raise ValueError(f"gen {gen} needs an hv_archive of at least {floor}, the larger of its front's hv"
                                     f" {hv} and the previous hv_archive {previous} less rounding, got {hv_archive}")
                previous = hv_archive
            history = [GenerationRecord(front, hv_archive) for front, hv_archive in zip(fronts, archive)]
            # the log first: it is the source of the other two
            for path, text in reversed(list(zip(paths, _run_texts(k, history, hvs, pop)))):
                disk, text = path.read_bytes(), text.encode("utf-8")
                if disk != text:
                    line = next(n for n, (a, b) in enumerate(zip_longest(disk.split(b"\n"), text.split(b"\n")), 1) if a != b)
                    raise ValueError(f"line {line} is not what optimize writes for the fronts in {paths[2].name}")
            histories.append(history)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, OverflowError) as exc:
        # a log line of another shape: a missing key, a wrong type, or an integer too large for a float
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from exc
    return manifest, bounds, histories


def genome_stats_rows(run_fronts: Sequence[Sequence[ParetoPoint]], bounds: Bounds) -> list[tuple]:
    """Quartiles of normalized genome coordinates of each run's selected points.

    For every selection kind (best accuracy, elbow, lowest communication) the
    chosen genome of each run is normalized coordinate-wise to [0, 1] by the
    search bounds; rows carry (kind, coordinate, q1, median, q3).
    """
    ranges = bounds.coordinate_ranges()
    names = bounds.coordinate_names()
    rows = []
    for kind in FRONT_KINDS:
        chosen = [_SELECTORS[kind](front) for front in run_fronts]
        matrix = np.array([p.genome.to_vector() for p in chosen], np.float64)
        for col, (name, (lo, hi)) in enumerate(zip(names, ranges)):
            span = hi - lo
            values = (matrix[:, col] - lo) / span if span else np.zeros(len(chosen))
            q1, med, q3 = np.percentile(values, [25, 50, 75])
            rows.append((kind, name, float(q1), float(med), float(q3)))
    return rows


GENOME_STATS_HEADER = "kind,coord,q1,median,q3"


def build_summary(merged: Sequence[ParetoPoint], histories: Sequence[Sequence[GenerationRecord]], manifest: dict) -> dict:
    """The campaign summary; each run's figures come from its last record and the manifest's pop."""
    per_run = []
    for k, history in enumerate(histories, start=1):
        last = history[-1]
        front = [objs for objs, _ in last.front]
        per_run.append({
            "run": k,
            "front_size": len(front),
            "best_f2": max(f2 for _, f2 in front),
            "min_f1": min(f1 for f1, _ in front),
            "final_hv": hypervolume(front),
            "final_hv_archive": last.hv_archive,
            "evaluations": manifest["pop"] * len(history),
        })
    return {
        "config": manifest,
        "runs": len(histories),
        "merged_front_size": len(merged),
        "best_f2": max(p.accuracy for p in merged),
        "min_f1": min(p.comm for p in merged),
        "per_run": per_run,
    }


def export_campaign(out_dir, manifest: dict, bounds: Bounds, histories: Sequence[Sequence[GenerationRecord]]) -> dict:
    """Write the merged front, genome statistics and summary of the runs'
    histories into out_dir. Returns the summary."""
    out = Path(out_dir)
    merged_name, stats_name, summary_name = MERGED_FILES
    run_fronts = [final_front(k, history) for k, history in enumerate(histories, start=1)]
    merged = merge_pseudo_optimal(run_fronts)
    _write_text(out / merged_name, _pareto_text(merged))
    _write_text(out / stats_name, _csv_text(GENOME_STATS_HEADER, genome_stats_rows(run_fronts, bounds)))
    summary = build_summary(merged, histories, manifest)
    write_json(out / summary_name, summary)
    return summary
