import json
import multiprocessing
import re
import shutil
import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from flcop import cli, data, metrics, objectives
from flcop.objectives import Genome
from conftest import LayerCompressionSpec, payload_bits


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def _campaign_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv")) + [out / "summary.json"]}


def test_baseline_full_communication(fixture_mnist_dir, tmp_path, capsys):
    rc = run_cli(
        "baseline", "--mnist-dir", fixture_mnist_dir, "--out", tmp_path,
        "--trace", tmp_path / "trace.jsonl",
    )
    assert rc == 0
    payload = json.loads((tmp_path / "baseline.json").read_text())
    assert payload["objectives"]["f1"] == 1.0
    assert payload["objectives"]["alpha"] == 1.0
    assert payload["objectives"]["beta"] == 1.0

    ledger = payload["ledger"]
    theta = 32 * 33400
    rounds = ledger["rounds"]
    assert ledger["downlink_bits"] == rounds * 4 * theta
    assert ledger["uplink_bits"] == rounds * 4 * (theta + 64 * 4)

    rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert len(rows) == rounds
    assert sum(r["uplink_bits"] for r in rows) == ledger["uplink_bits"]
    assert all("global_accuracy" not in r for r in rows)
    out = capsys.readouterr().out
    assert '"f1": 1.0' in out


def test_trace_accuracy_adds_per_round_accuracy(fixture_mnist_dir, tmp_path):
    rc = run_cli(
        "baseline", "--mnist-dir", fixture_mnist_dir, "--out", tmp_path,
        "--train-limit", 256, "--test-limit", 64,
        "--trace", tmp_path / "trace.jsonl", "--trace-accuracy",
    )
    assert rc == 0
    rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert rows and all(0.0 <= r["global_accuracy"] <= 1.0 for r in rows)


def test_eval_brute_force_genome(fixture_mnist_dir, capsys):
    rc = run_cli("eval", "[4,1,0,0,0,0,32,32,32,32]", "--mnist-dir", fixture_mnist_dir)
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objectives"]["alpha"] == 1.0
    assert payload["objectives"]["beta"] == 1.0
    assert payload["ledger"]["uplink_bits"] > 0


def test_eval_synthetic_layer_sizes(capsys):
    rc = run_cli("eval", "[4,20,10,45,2,2,20,15]", "--layer-sizes", "100,100,100")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objectives"]["f1"] == pytest.approx(0.03216145833333, abs=1e-12)
    assert payload["objectives"]["f2"] is None
    assert payload["ledger"] is None


def test_eval_rejects_invalid_genomes(fixture_mnist_dir, tmp_path, capsys):
    for genome, message in (
        ("[4,1,0,0,0,0,0,0,0,0]", "b_1=0 outside [1, 32]"),
        ("not json", "not valid JSON"),
        ("[1,2,3]", "genome length must be even"),
        ("[true,1,0,0,0,0,32,32,32,32]", "flat JSON array of integers"),
        (f"@{tmp_path / 'missing.json'}", "cannot read genome file"),
    ):
        assert run_cli("eval", genome, "--mnist-dir", fixture_mnist_dir) == 1
        assert message in capsys.readouterr().err


def test_eval_checks_the_genome_before_loading_data(tmp_path, capsys):
    assert run_cli("eval", "[4,1,0,0,0,0,0,0,0,0]", "--mnist-dir", tmp_path / "nope") == 1
    assert "b_1=0 outside [1, 32]" in capsys.readouterr().err
    assert run_cli("eval", "[4,1,0,0,0,0,32,32,32,32]", "--mnist-dir", tmp_path / "nope") == 2


def test_image_file_not_28_by_28_exits_2(fixture_mnist_dir, tmp_path, capsys):
    for name in fixture_mnist_dir.iterdir():
        shutil.copy(name, tmp_path / name.name)
    images = tmp_path / data.TRAIN_IMAGES
    raw = bytearray(images.read_bytes())
    raw[8:16] = struct.pack(">2i", 784, 1)
    images.write_bytes(bytes(raw))
    assert run_cli("eval", "[4,1,0,0,0,0,32,32,32,32]", "--mnist-dir", tmp_path) == 2
    assert "expected 28x28 images, got 784x1" in capsys.readouterr().err


def test_label_above_nine_exits_2(fixture_mnist_dir, tmp_path, capsys):
    for name in fixture_mnist_dir.iterdir():
        shutil.copy(name, tmp_path / name.name)
    labels = tmp_path / data.TRAIN_LABELS
    raw = bytearray(labels.read_bytes())
    raw[8] = 12
    labels.write_bytes(bytes(raw))
    assert run_cli("eval", "[4,1,0,0,0,0,32,32,32,32]", "--mnist-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert str(labels) in err and "labels must lie in [0, 9], got 12" in err


def test_eval_rejects_layer_sizes_below_one(capsys):
    for sizes in ("0,0", "-5,10"):
        assert run_cli("eval", "[4,1,0,0,32,32]", f"--layer-sizes={sizes}") == 1
        assert "every size must be at least 1" in capsys.readouterr().err


def test_unknown_model_or_bounds_in_config_file_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    for key, value in (("model", "mlp"), ("bounds", "wide"), ("preset", "desk")):
        cfg.write_text(json.dumps({key: value}))
        assert run_cli("optimize", "--config", cfg) == 1
        assert f"{key} must be one of" in capsys.readouterr().err


def test_misspelt_preset_in_config_file_names_the_file_even_with_preset_flag(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"preset": "desk"}))
    for flags in ([], ["--preset", "desk-fc"]):
        args = cli.build_parser().parse_args(["optimize", "--config", str(cfg), *flags])
        with pytest.raises(cli.ConfigError, match=re.escape(f"{cfg}: preset must be one of")):
            cli.resolve_options(args)


def _resolve_config(path):
    return cli.resolve_options(cli.build_parser().parse_args(["optimize", "--config", str(path)]))


def _config_files(tmp_path, entries: dict) -> list:
    """The same entries as a JSON file and as a key=value file."""
    as_json = tmp_path / "conf.json"
    as_json.write_text(json.dumps(entries))
    as_lines = tmp_path / "conf.txt"
    as_lines.write_text("".join(f"{key} = {json.dumps(value)}\n" for key, value in entries.items()))
    return [as_json, as_lines]


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"pop": "8"}, "pop must be int, got '8'"),
        ({"runs": 2.5}, "runs must be int, got 2.5"),
        ({"runs": True}, "runs must be int, got True"),
        ({"pop": None}, "pop must be int, got None"),
        ({"lr": "0.1"}, "lr must be int or float, got '0.1'"),
        ({"model": 1}, "model must be str, got 1"),
        ({"popsize": 8}, "unknown key 'popsize'"),
    ],
)
def test_config_file_key_and_type_checked(tmp_path, capsys, entries, message):
    for path in _config_files(tmp_path, entries):
        with pytest.raises(cli.ConfigError, match=re.escape(message)):
            _resolve_config(path)
        assert run_cli("optimize", "--config", path) == 1
        assert message in capsys.readouterr().err


def test_config_file_accepts_int_lr_and_null_limits(tmp_path):
    entries = {"lr": 1, "train-limit": None, "generations": None, "mnist_dir": None, "preset": None}
    for path in _config_files(tmp_path, entries):
        options = _resolve_config(path)
        assert options["lr"] == 1 and options["train_limit"] is None
        assert options["generations"] == 300 and options["mnist_dir"] is None


def test_unreadable_config_file_is_config_error(tmp_path):
    assert run_cli("optimize", "--config", tmp_path / "missing.json") == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("optimize", "--config", bad) == 1


def test_eval_uses_bounds_from_config_file(tmp_path):
    genome = "[4,101,0,0,32,32]"  # E = 101 is outside mutation-narrow's [1, 100]
    assert run_cli("eval", genome, "--layer-sizes", "10,10") == 0
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"bounds": "mutation-narrow"}))
    assert run_cli("eval", genome, "--layer-sizes", "10,10", "--config", cfg) == 1


@pytest.mark.parametrize("manifest", ["not json", '{"n_clients": 4}', "[1, 2]"])
def test_report_rejects_bad_manifest(tmp_path, capsys, manifest):
    (tmp_path / "campaign.json").write_text(manifest)
    assert run_cli("report", tmp_path) == 2
    assert "campaign.json" in capsys.readouterr().err


def test_odd_population_rejected(fixture_mnist_dir):
    assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--pop", 7) == 1


def test_learning_rate_overflowing_float32_rejected(fixture_mnist_dir, capsys):
    for lr in ("1e39", "inf", "nan"):
        assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--lr", lr) == 1
        assert "--lr" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--train-limit", "--test-limit"])
def test_limits_below_one_are_config_errors(fixture_mnist_dir, tmp_path, capsys, flag):
    for limit in (0, -3):
        assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--out", tmp_path, flag, limit) == 1
        assert f"{flag} must be at least 1" in capsys.readouterr().err
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({flag[2:].replace("-", "_"): 0}))
    assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--config", cfg) == 1
    assert f"{flag} must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "baseline", "eval"])
def test_more_clients_than_training_examples_is_config_error(fixture_mnist_dir, tmp_path, capsys, command):
    genome = [json.dumps([5000, 1] + [0] * 4 + [32] * 4)] if command == "eval" else []
    out = ["--out", tmp_path] if command != "eval" else []
    argv = [command, *genome, "--mnist-dir", fixture_mnist_dir, *out, "--train-limit", 100]
    assert run_cli(*argv, "--n-clients", 5000) == 1
    assert "--n-clients 5000 exceeds the 100 training examples" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "[4,1,0,0,0,0,32,32,32,32]", "--workers", "7"],
        ["eval", "[4,1,0,0,0,0,32,32,32,32]", "--out", "elsewhere"],
        ["baseline", "--workers", "2"],
    ],
)
def test_flags_a_command_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_data_dir_is_data_error(tmp_path, monkeypatch):
    monkeypatch.delenv("FLCOP_MNIST_DIR", raising=False)
    assert run_cli("baseline", "--mnist-dir", tmp_path / "nope") == 2
    assert run_cli("baseline") == 2


def test_env_var_fallback(fixture_mnist_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FLCOP_MNIST_DIR", str(fixture_mnist_dir))
    rc = run_cli("eval", "[4,1,0,0,0,0,32,32,32,32]")
    assert rc == 0


CAMPAIGN_FLAGS = ("--pop", 8, "--generations", 3, "--runs", 2, "--seed", 5)


@pytest.fixture(scope="module")
def campaign_dir(fixture_mnist_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--out", out, *CAMPAIGN_FLAGS) == 0
    return out


def test_campaign_outputs(campaign_dir):
    names = {p.name for p in campaign_dir.iterdir()}
    expected = {
        "campaign.json", "summary.json", "pareto_merged.csv", "genome_stats.csv",
        "pareto_run1.csv", "pareto_run2.csv",
        "hypervolume_run1.csv", "hypervolume_run2.csv",
        "generations_run1.jsonl", "generations_run2.jsonl",
    }
    assert expected <= names

    header = (campaign_dir / "pareto_run1.csv").read_text().splitlines()[0]
    assert header == "run,gen,f1,f2,m,E,mu_1,mu_2,mu_3,mu_4,b_1,b_2,b_3,b_4"
    assert (campaign_dir / "hypervolume_run1.csv").read_text().splitlines()[0] == "gen,hv,evals,hv_archive"

    merged = metrics.read_pareto_csv(campaign_dir / "pareto_merged.csv")
    assert merged
    summary = json.loads((campaign_dir / "summary.json").read_text())
    assert summary["runs"] == 2
    assert 0.0 <= summary["min_f1"] <= 1.0

    log_rows = [
        json.loads(line)
        for line in (campaign_dir / "generations_run1.jsonl").read_text().splitlines()
    ]
    assert [r["gen"] for r in log_rows] == [0, 1, 2, 3]
    assert all({"gen", "front1", "hypervolume", "evals"} <= set(r) for r in log_rows)
    genome = log_rows[-1]["front1"][0][2]
    Genome.from_vector(genome)  # stored as the flat [m, E, mu.., b..] array


def test_report_is_idempotent(campaign_dir):
    before = _campaign_bytes(campaign_dir)
    assert run_cli("report", campaign_dir) == 0
    assert _campaign_bytes(campaign_dir) == before


def test_report_rebuilds_deleted_outputs(campaign_dir, tmp_path):
    out = tmp_path / "campaign"
    shutil.copytree(campaign_dir, out)
    regenerated = ("pareto_merged.csv", "genome_stats.csv", "summary.json")
    before = {name: (out / name).read_bytes() for name in regenerated}
    for name in regenerated:
        (out / name).unlink()
    assert run_cli("report", out) == 0
    assert {name: (out / name).read_bytes() for name in regenerated} == before
    assert _campaign_bytes(out) == _campaign_bytes(campaign_dir)


@pytest.mark.parametrize("value", [-3, -2, 0, True, 1.5, 4.9, "2", "1000", None])
@pytest.mark.parametrize("key", ["runs", "n_clients", "n_layers", "interval_max"])
def test_report_rejects_bad_run_count(campaign_dir, tmp_path, capsys, key, value):
    out = tmp_path / "campaign"
    shutil.copytree(campaign_dir, out)
    manifest = json.loads((out / "campaign.json").read_text())
    manifest[key] = value
    metrics.write_json(out / "campaign.json", manifest)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli("report", out) == 2
    err = capsys.readouterr().err
    assert f"{key} must be an integer of at least 1" in err
    assert "campaign.json" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_report_names_missing_files(campaign_dir, capsys):
    moved = campaign_dir / "pareto_run2.csv"
    stash = moved.read_bytes()
    moved.unlink()
    try:
        rc = run_cli("report", campaign_dir)
        assert rc == 2
        assert "pareto_run2.csv" in capsys.readouterr().err
    finally:
        moved.write_bytes(stash)


def _first_row_cell(index, value):
    """A corruption that sets one cell of the first data row."""
    def corrupt(lines):
        cells = lines[1].split(",")
        cells[index] = value
        return [lines[0], ",".join(cells), *lines[2:]]
    return corrupt


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("pareto_run2.csv", _first_row_cell(2, "abc")),
        ("hypervolume_run1.csv", lambda lines: [*lines, "4,0.5"]),
        # consistent as a CSV, but a 1-layer genome under a 4-layer manifest
        ("pareto_run1.csv", lambda lines: ["run,gen,f1,f2,m,E,mu_1,b_1", "1,3,0.5,0.5,4,10,0,32"]),
        # numbers, but no fractions
        ("pareto_run1.csv", _first_row_cell(3, "nan")),
        ("pareto_run2.csv", _first_row_cell(2, "2.0")),
    ],
    ids=["non-numeric-cell", "short-row", "wrong-layer-count", "nan-f2", "f1-above-one"],
)
def test_report_rejects_malformed_run_files(campaign_dir, tmp_path, capsys, name, corrupt):
    out = tmp_path / "campaign"
    shutil.copytree(campaign_dir, out)
    path = out / name
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli("report", out) == 2
    assert name in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_killed_campaign_keeps_finished_runs(fixture_mnist_dir, campaign_dir, tmp_path, monkeypatch, capsys):
    out = tmp_path / "killed"
    # an older campaign in the same directory, whose run 2 must not survive
    older = ("--pop", 8, "--generations", 3, "--runs", 2, "--seed", 1)
    assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--out", out, *older) == 0
    real_run = cli.nsga2.run
    calls = []

    def run_then_die(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("killed during run 2")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli.nsga2, "run", run_then_die)
    assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--out", out, *CAMPAIGN_FLAGS) == 3
    kept = ["campaign.json", "generations_run1.jsonl", "hypervolume_run1.csv", "pareto_run1.csv"]
    assert sorted(p.name for p in out.iterdir()) == kept
    for name in kept[1:]:
        assert (out / name).read_bytes() == (campaign_dir / name).read_bytes(), name
    manifests = [json.loads((d / "campaign.json").read_text()) for d in (out, campaign_dir)]
    for manifest in manifests:
        del manifest["out"]
    assert manifests[0] == manifests[1]
    capsys.readouterr()
    assert run_cli("report", out) == 2
    assert "pareto_run2.csv" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 2])
def test_optimize_evaluates_through_simulate_genome(fixture_mnist_dir, tmp_path, monkeypatch, workers):
    # the benchmark's tracer counts evaluations by wrapping this module
    # attribute, so the search must look it up there on every call
    real = objectives.simulate_genome
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(objectives, "simulate_genome", counting)
    argv = [
        "optimize", "--mnist-dir", fixture_mnist_dir, "--out", tmp_path,
        "--pop", 4, "--generations", 1, "--runs", 1, "--workers", workers,
    ]
    assert run_cli(*argv) == 0
    assert len(calls) == 8


def test_no_process_outlives_a_pooled_campaign(fixture_mnist_dir, tmp_path):
    argv = ["optimize", "--mnist-dir", fixture_mnist_dir, "--out", tmp_path, "--pop", 4, "--generations", 1]
    assert run_cli(*argv, "--runs", 1, "--workers", 2) == 0
    assert multiprocessing.active_children() == []


def test_campaign_deterministic_across_workers(fixture_mnist_dir, tmp_path):
    base = ["optimize", "--mnist-dir", fixture_mnist_dir, "--pop", 6, "--generations", 2]
    assert run_cli(*base, "--runs", 2, "--seed", 3, "--out", tmp_path / "w1", "--workers", 1) == 0
    assert run_cli(*base, "--runs", 2, "--seed", 3, "--out", tmp_path / "w2", "--workers", 2) == 0
    names = sorted(p.name for p in (tmp_path / "w1").iterdir() if p.suffix in (".csv", ".jsonl"))
    assert "generations_run2.jsonl" in names and "pareto_run2.csv" in names
    for name in names:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes(), name
    # run 2 (seed 4) must not depend on run 1: it equals a campaign that starts at seed 4
    assert run_cli(*base, "--runs", 1, "--seed", 4, "--out", tmp_path / "s4", "--workers", 2) == 0
    run2 = (tmp_path / "w2" / "generations_run2.jsonl").read_bytes()
    assert (tmp_path / "s4" / "generations_run1.jsonl").read_bytes() == run2


def test_one_thread_pool_per_campaign(fixture_mnist_dir, tmp_path, monkeypatch):
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", CountingPool)
    argv = [
        "optimize", "--mnist-dir", fixture_mnist_dir, "--out", tmp_path,
        "--pop", 4, "--generations", 1, "--runs", 3, "--seed", 2,
    ]
    assert run_cli(*argv, "--workers", 2) == 0
    assert len(pools) == 1
    assert run_cli(*argv, "--workers", 1) == 0
    assert len(pools) == 2  # one worker runs on a pool too


@pytest.mark.parametrize("model, workers, noted", [("fc", 2, True), ("fc", 1, False), ("conv", 2, False)])
def test_fc_campaign_notes_that_workers_do_not_help(fixture_mnist_dir, tmp_path, capsys, model, workers, noted):
    argv = [
        "optimize", "--mnist-dir", fixture_mnist_dir, "--out", tmp_path, "--model", model,
        "--pop", 4, "--generations", 1, "--runs", 1, "--train-limit", 8, "--test-limit", 4, "--batch-size", 4,
    ]
    assert run_cli(*argv, "--workers", workers) == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if "does not speed up fc evaluation" in line]
    assert len(notes) == int(noted)


def test_config_file_and_flag_precedence(fixture_mnist_dir, tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"pop": 6, "generations": 2, "runs": 1, "train-limit": 512}))
    parser = cli.build_parser()
    args = parser.parse_args(
        ["optimize", "--config", str(cfg), "--mnist-dir", str(fixture_mnist_dir), "--pop", "8"]
    )
    options = cli.resolve_options(args)
    assert options["pop"] == 8  # flag beats file
    assert options["generations"] == 2  # file beats defaults
    assert options["train_limit"] == 512

    kv = tmp_path / "conf.txt"
    kv.write_text("pop = 10\n# comment\nseed = 4\n")
    args = parser.parse_args(["optimize", "--config", str(kv), "--mnist-dir", str(fixture_mnist_dir)])
    options = cli.resolve_options(args)
    assert options["pop"] == 10 and options["seed"] == 4


def test_desk_preset_bundles_settings():
    parser = cli.build_parser()
    args = parser.parse_args(["optimize", "--preset", "desk-fc"])
    options = cli.resolve_options(args)
    assert options["model"] == "fc"
    assert options["train_limit"] == 8000 and options["test_limit"] == 2000
    assert options["pop"] == 20 and options["generations"] == 20 and options["runs"] == 1

    args = parser.parse_args(["optimize", "--preset", "desk-fc", "--pop", "30"])
    assert cli.resolve_options(args)["pop"] == 30  # flags still win


def test_reference_defaults():
    parser = cli.build_parser()
    options = cli.resolve_options(parser.parse_args(["optimize"]))
    assert options["pop"] == 100 and options["runs"] == 30
    assert options["generations"] == 300 and options["n_clients"] == 4
    options = cli.resolve_options(parser.parse_args(["optimize", "--model", "conv"]))
    assert options["generations"] == 120


def test_brute_force_genome_helper():
    g = cli.brute_force_genome(4, 4)
    assert g.to_vector() == (4, 1, 0, 0, 0, 0, 32, 32, 32, 32)
    assert payload_bits([LayerCompressionSpec(32, 0)], [10]) == 10 * 32 + 64
