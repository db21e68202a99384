"""Output checks computed apart from the program.

Nothing here calls into `flcop`: the closed-form objective, the traffic
ledger, dominance, hypervolume and the analytic Pareto set are all recomputed
from first principles and compared with what the program reported. Each check
returns a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

# 784 -> 42 -> 10 perceptron: weights and biases as separate arrays
FC_SIZES = (784 * 42, 42, 42 * 10, 10)
# two float64 roundings sit between the exact value and the program's f1
F1_REL_TOL = Fraction(4, 2**52)


def split_genome(vec, n_layers: int):
    m, e = int(vec[0]), int(vec[1])
    mus = [int(v) for v in vec[2 : 2 + n_layers]]
    bits = [int(v) for v in vec[2 + n_layers :]]
    if len(mus) != n_layers or len(bits) != n_layers:
        raise ValueError(f"genome {list(vec)} does not fit {n_layers} layers")
    return m, e, mus, bits


def exact_f1(vec, sizes, n_clients: int) -> Fraction:
    """Mean of the downlink share m / (N E) and the uplink share
    m / (N E) * sum(b/32 * (100 - mu)/100 * n / total), in exact rationals."""
    m, e, mus, bits = split_genome(vec, len(sizes))
    share = Fraction(m, n_clients * e)
    total = sum(sizes)
    uplink = share * sum(Fraction(b, 32) * Fraction(100 - mu, 100) * Fraction(n, total) for mu, b, n in zip(mus, bits, sizes))
    return (share + uplink) / 2


def check_f1(points, sizes, n_clients: int, where: str) -> list[str]:
    """points: iterable of (f1, genome vector)."""
    problems = []
    for f1, vec in points:
        exact = exact_f1(vec, sizes, n_clients)
        if abs(Fraction(f1) - exact) > exact * F1_REL_TOL:
            problems.append(f"{where}: f1 {f1!r} of genome {list(vec)} differs from the closed form {float(exact)!r}")
    return problems


def expected_ledger(vec, sizes, n_train: int, n_clients: int, batch_size: int, epochs: int) -> dict:
    """Bit totals the protocol must report for one simulated run."""
    m, e, mus, bits = split_genome(vec, len(sizes))
    largest_shard = -(-n_train // n_clients)
    iterations = -(-largest_shard // batch_size) * epochs
    rounds = -(-iterations // e)
    theta = 32 * sum(sizes)
    upload = sum(-(-(n * (100 - mu)) // 100) * b + 64 for mu, b, n in zip(mus, bits, sizes))
    return {
        "rounds": rounds,
        "uplink_bits": rounds * m * upload,
        "downlink_bits": rounds * m * theta,
        "baseline_bits": iterations * n_clients * theta,
    }


def check_ledger(ledger: dict, vec, sizes, n_train, n_clients, batch_size, epochs) -> list[str]:
    want = expected_ledger(vec, sizes, n_train, n_clients, batch_size, epochs)
    return [
        f"ledger of genome {list(vec)}: {key} {ledger[key]} != expected {want[key]}"
        for key in want
        if ledger[key] != want[key]
    ]


def dominated_mask(f1, f2) -> np.ndarray:
    """mask[i]: some other point has f1 <= and f2 >= with one strict (f1 down, f2 up)."""
    a = np.asarray(f1, np.float64)
    b = np.asarray(f2, np.float64)
    no_worse = (a[:, None] <= a[None, :]) & (b[:, None] >= b[None, :])
    better = (a[:, None] < a[None, :]) | (b[:, None] > b[None, :])
    return (no_worse & better).any(axis=0)


def check_non_dominated(pairs, where: str) -> list[str]:
    if not pairs:
        return [f"{where}: empty front"]
    f1, f2 = zip(*pairs)
    bad = np.flatnonzero(dominated_mask(f1, f2))
    return [f"{where}: point {pairs[i]} is dominated by another front point" for i in bad[:5]]


def hypervolume_slabs(pairs, ref=(1.0, 0.0)) -> Fraction:
    """Exact area dominated within the box [f1, ref_f1] x [ref_f2, f2].

    Sweeps vertical slabs between consecutive distinct f1 values, each as tall
    as the best f2 reached at or left of it; the program sweeps horizontal
    bands instead, so the two agree only if both are right.
    """
    if not pairs:
        return Fraction(0)
    f1_ref, f2_ref = Fraction(ref[0]), Fraction(ref[1])
    xs = sorted({Fraction(p[0]) for p in pairs})
    best = {}
    for p in pairs:
        x = Fraction(p[0])
        best[x] = max(best.get(x, f2_ref), Fraction(p[1]))
    area = Fraction(0)
    height = f2_ref
    for i, x in enumerate(xs):
        height = max(height, best[x])
        right = xs[i + 1] if i + 1 < len(xs) else f1_ref
        area += (right - x) * (height - f2_ref)
    return area


def check_hypervolume(value: float, pairs, where: str) -> list[str]:
    exact = hypervolume_slabs(pairs)
    if abs(Fraction(value) - exact) > Fraction(1, 10**12):
        return [f"{where}: hypervolume {value!r} differs from the slab sweep {float(exact)!r}"]
    return []


def pareto_mask(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Non-dominated points of a whole grid (f1 down, f2 up), by one sort.

    A point survives when its f2 is the best among points with the same f1
    and strictly better than every f2 at a strictly smaller f1.
    """
    order = np.lexsort((-f2, f1))
    s1, s2 = f1[order], f2[order]
    new_group = np.r_[True, s1[1:] != s1[:-1]]
    group_id = np.cumsum(new_group) - 1
    group_best = s2[new_group]  # first of each group holds its largest f2
    best_before = np.r_[-np.inf, np.maximum.accumulate(group_best)[:-1]]
    keep_sorted = (s2 == group_best[group_id]) & (s2 > best_before[group_id])
    keep = np.empty_like(keep_sorted)
    keep[order] = keep_sorted
    return keep


def read_front_csv(path) -> list[tuple[float, float, tuple[int, ...]]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    if header[:4] != ["run", "gen", "f1", "f2"]:
        raise ValueError(f"{path}: unexpected header {header}")
    return [(float(r[2]), float(r[3]), tuple(int(v) for v in r[4:])) for r in body]


def check_campaign_dir(out: Path, runs: int, n_clients: int, floor: float) -> tuple[list[str], list[tuple]]:
    """Checks on one `optimize` output directory; returns (problems, merged front)."""
    problems = []
    run_fronts = []
    for k in range(1, runs + 1):
        front = read_front_csv(out / f"pareto_run{k}.csv")
        run_fronts.append(front)
        problems += check_non_dominated([(p[0], p[1]) for p in front], f"pareto_run{k}.csv")
        problems += check_f1([(p[0], p[2]) for p in front], FC_SIZES, n_clients, f"pareto_run{k}.csv")
        with open(out / f"generations_run{k}.jsonl", encoding="utf-8") as f:
            for line in f:
                row = json.loads(line)
                problems += check_f1(
                    [(p[0], p[2]) for p in row["front1"]], FC_SIZES, n_clients, f"generations_run{k}.jsonl"
                )
    merged = read_front_csv(out / "pareto_merged.csv")
    problems += check_non_dominated([(p[0], p[1]) for p in merged], "pareto_merged.csv")
    problems += check_f1([(p[0], p[2]) for p in merged], FC_SIZES, n_clients, "pareto_merged.csv")
    union = {p for front in run_fronts for p in front}
    if not set(merged) <= union:
        problems.append("pareto_merged.csv holds points that no run front holds")
    if merged and max(p[1] for p in merged) < floor:
        problems.append(f"best merged accuracy {max(p[1] for p in merged)} is below the floor {floor}")
    if any(not (0.0 < p[1] <= 1.0) for p in merged):
        problems.append("merged front holds an accuracy outside (0, 1]")
    return problems, merged


def same_bytes(a: Path, b: Path, pattern: str) -> list[str]:
    names_a = sorted(p.name for p in a.glob(pattern))
    names_b = sorted(p.name for p in b.glob(pattern))
    if names_a != names_b:
        return [f"{a} and {b} hold different {pattern} files: {names_a} vs {names_b}"]
    return [f"{b / n} differs from {a / n}" for n in names_a if (a / n).read_bytes() != (b / n).read_bytes()]

