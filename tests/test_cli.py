import json
import multiprocessing
import re
import shutil
import struct
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from flcop import cli, data, metrics, nn, objectives
from flcop.objectives import Genome
from conftest import LayerCompressionSpec, make_synthetic, payload_bits, read_pareto_csv, write_idx


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
    payload = json.loads((tmp_path / "baseline.json").read_text())
    assert len(rows) == payload["ledger"]["rounds"]
    # the last round's model is the one the objective scores
    assert rows[-1]["global_accuracy"] == payload["objectives"]["f2"]


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
        ({"pop": "8"}, "pop must be an even integer of at least 4, got '8'"),
        ({"runs": 2.5}, "runs must be an integer of at least 1, got 2.5"),
        ({"runs": True}, "runs must be an integer of at least 1, got True"),
        ({"pop": None}, "pop must be an even integer of at least 4, got None"),
        ({"lr": "0.1"}, "lr must be a positive number, finite and not 0 in float32, got '0.1'"),
        ({"model": 1}, "model must be one of fc, conv, got 1"),
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


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("missing.json", None, "cannot read config file"),
        ("bad.json", "{not json", "cannot read config file"),
        # a string without quotes is no JSON value: the line and the key are named
        ("bad.txt", "pop = 8\nmodel = fc\n",
         'bad.txt, line 2: the value of model is not JSON: fc (a string needs double quotes, as in model = "fc")'),
    ],
    ids=["missing", "not-json", "unquoted-string"],
)
def test_unreadable_config_file_is_config_error(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert run_cli("optimize", "--config", path) == 1
    assert message in capsys.readouterr().err


def test_eval_uses_bounds_from_config_file(tmp_path):
    genome = "[4,101,0,0,32,32]"  # E = 101 is outside mutation-narrow's [1, 100]
    assert run_cli("eval", genome, "--layer-sizes", "10,10") == 0
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"bounds": "mutation-narrow"}))
    assert run_cli("eval", genome, "--layer-sizes", "10,10", "--config", cfg) == 1


MANIFEST = {
    "runs": 1, "model": "fc", "n_clients": 4, "n_layers": 4, "interval_max": 1000, "pop": 4, "generations": 1,
    "bounds": "default", "lr": 0.1, "seed": 1, "init_seed": 0, "batch_size": 64, "epochs": 1, "workers": 1,
    "train_limit": None, "test_limit": None, "out": "flcop-out", "mnist_dir": None,
}


@pytest.mark.parametrize(
    "manifest",
    [
        "not json", '{"n_clients": 4}', "[1, 2]",
        # a model flcop does not train, or another model's array count
        *(json.dumps({**MANIFEST, **edit}) for edit in ({"model": "xyz"}, {"model": ["fc"]}, {"n_layers": 12}, {"model": "conv"})),
        # options optimize rejects: an unknown bounds preset, an interval cap
        # that is not its preset's, a rate SGD cannot apply, a negative or boolean seed
        *(json.dumps({**MANIFEST, **edit}) for edit in (
            {"bounds": "xyz"}, {"bounds": ["default"]}, {"interval_max": 999}, {"bounds": "mutation-narrow"},
            {"lr": -5.0}, {"lr": 1e-50}, {"lr": 0}, {"lr": "0.1"},
            {"seed": -4}, {"seed": True}, {"init_seed": -4}, {"init_seed": 1.5},
            {"batch_size": 0}, {"batch_size": "x"}, {"epochs": 0}, {"workers": -1}, {"workers": True},
            {"train_limit": 0}, {"test_limit": "a"}, {"out": 5}, {"mnist_dir": 7}, {"pop": 5},
        )),
        # a manifest without a key that optimize writes
        *(json.dumps({k: v for k, v in MANIFEST.items() if k != key})
          for key in ("batch_size", "epochs", "workers", "train_limit", "test_limit", "out", "mnist_dir")),
    ],
)
def test_report_rejects_bad_manifest(tmp_path, capsys, manifest):
    (tmp_path / "campaign.json").write_text(manifest)
    assert run_cli("report", tmp_path) == 2
    assert "campaign.json" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["campaign.json"]


def _rejects(call, error) -> bool:
    try:
        call()
    except error:
        return True
    return False


@settings(max_examples=400, deadline=None)
@given(
    key=st.sampled_from(sorted(cli.DEFAULTS)),
    value=st.one_of(
        st.integers(-2, 6), st.booleans(), st.floats(), st.text(max_size=3),
        st.sampled_from([*nn.MODELS, *objectives.BOUNDS_PRESETS, *cli.PRESETS]), st.none(),
    ),
)
def test_report_rejects_exactly_what_optimize_rejects(key, value):
    # a null config entry means the default, so where that is null it is no value to judge
    assume(value is not None or cli.DEFAULTS[key] is not None)
    manifest = {**MANIFEST, key: value}
    # optimize writes the model's array count and the bounds preset's cap with them
    if key == "model" and value in nn.MODELS:
        manifest["n_layers"] = nn.MODELS[value]().n_arrays
    if key == "bounds" and value in objectives.BOUNDS_PRESETS:
        manifest["interval_max"] = objectives.BOUNDS_PRESETS[value]
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "conf.json"
        config.write_text(json.dumps({key: value}))
        (Path(out) / metrics.MANIFEST_FILE).write_text(json.dumps(manifest))
        by_optimize = _rejects(lambda: _resolve_config(config), cli.ConfigError)
        assert _rejects(lambda: metrics.read_manifest(out), ValueError) == by_optimize


_VALID_VALUES = {
    "mnist_dir": st.text(max_size=3),
    "out": st.text(max_size=3),
    "model": st.sampled_from(sorted(nn.MODELS)),
    "bounds": st.sampled_from(sorted(objectives.BOUNDS_PRESETS)),
    "lr": st.one_of(st.integers(1, 10**6), st.floats(1e-6, 1e6)),
    "pop": st.integers(2, 500).map(lambda half: 2 * half),
    "seed": st.integers(0, 2**40),
    "init_seed": st.integers(0, 2**40),
}


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(cli.DEFAULTS)), data=st.data())
def test_a_flag_and_its_config_entry_resolve_to_the_same_options(key, data):
    # so equal options write equal manifests: an int lr is a float and an
    # empty mnist_dir is null, whichever way they are given
    value = data.draw(_VALID_VALUES.get(key, st.integers(1, 2**40)), label="value")
    flag = f"--{key.replace('_', '-')}={value if isinstance(value, str) else json.dumps(value)}"
    by_flag = json.dumps(cli.resolve_options(cli.build_parser().parse_args(["optimize", flag])), sort_keys=True)
    with tempfile.TemporaryDirectory() as out:
        for path in _config_files(Path(out), {key: value}):
            assert json.dumps(_resolve_config(path), sort_keys=True) == by_flag


def test_report_accepts_the_base_manifest(tmp_path, capsys):
    # the manifest the rejection cases edit passes its own checks, so each
    # case is rejected for its edit: here report goes on to the run files
    (tmp_path / "campaign.json").write_text(json.dumps(MANIFEST))
    assert run_cli("report", tmp_path) == 2
    assert f"missing campaign file {tmp_path / 'pareto_run1.csv'}" in capsys.readouterr().err


def test_odd_population_rejected(fixture_mnist_dir):
    assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--pop", 7) == 1


def test_learning_rate_overflowing_float32_rejected(fixture_mnist_dir, capsys):
    for lr in ("1e39", "inf", "nan"):
        assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--lr", lr) == 1
        assert f"lr must be a positive number, finite and not 0 in float32, got {float(lr)!r}" in capsys.readouterr().err


def test_learning_rate_rounding_to_zero_in_float32_rejected(tmp_path, capsys):
    genome = "[4,1,0,0,0,0,32,32,32,32]"
    argv = ["eval", genome, "--layer-sizes", "1,1,1,1", "--mnist-dir", tmp_path / "missing"]
    assert run_cli(*argv, "--lr", "1e-50") == 1
    assert "lr must be a positive number, finite and not 0 in float32, got 1e-50" in capsys.readouterr().err
    assert run_cli(*argv, "--lr", "1e-45") == 0


@pytest.mark.parametrize("flag", ["--train-limit", "--test-limit"])
def test_limits_below_one_are_config_errors(fixture_mnist_dir, tmp_path, capsys, flag):
    key = flag[2:].replace("-", "_")
    for limit in (0, -3):
        assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--out", tmp_path, flag, limit) == 1
        assert f"{key} must be an integer of at least 1 or null, got {limit}" in capsys.readouterr().err
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({key: 0}))
    assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--config", cfg) == 1
    assert f"{cfg}: {key} must be an integer of at least 1 or null, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "baseline", "eval"])
def test_more_clients_than_training_examples_is_config_error(fixture_mnist_dir, tmp_path, capsys, command):
    genome = [json.dumps([5000, 1] + [0] * 4 + [32] * 4)] if command == "eval" else []
    out = ["--out", tmp_path] if command != "eval" else []
    argv = [command, *genome, "--mnist-dir", fixture_mnist_dir, *out, "--train-limit", 100]
    assert run_cli(*argv, "--n-clients", 5000) == 1
    assert "--n-clients 5000 exceeds the 100 training examples" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("empty", ["train", "test"])
@pytest.mark.parametrize("command", ["optimize", "baseline", "eval"])
def test_empty_idx_file_is_data_error(tmp_path, capsys, command, empty):
    mnist = tmp_path / "mnist"
    mnist.mkdir()
    sizes = {"train": 64, "test": 32, empty: 0}
    write_idx(make_synthetic(sizes["train"], 0), mnist / data.TRAIN_IMAGES, mnist / data.TRAIN_LABELS)
    write_idx(make_synthetic(sizes["test"], 1), mnist / data.TEST_IMAGES, mnist / data.TEST_LABELS)
    genome = ["[4,1,0,0,0,0,32,32,32,32]"] if command == "eval" else []
    out = tmp_path / "out"
    out_flag = ["--out", out] if command != "eval" else []
    assert run_cli(command, *genome, "--mnist-dir", mnist, *out_flag) == 2
    name = data.TRAIN_IMAGES if empty == "train" else data.TEST_IMAGES
    assert f"{mnist / name} holds no examples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["optimize", "baseline"])
@pytest.mark.parametrize("below", [(), ("sub",), ("sub", "dir")], ids=["file", "under-file", "two-under-file"])
def test_out_under_a_file_is_config_error_before_data(tmp_path, capsys, command, below):
    # the MNIST directory is missing, so an --out check made after the data
    # is read would exit 2
    blocker = tmp_path / "notadir"
    blocker.write_bytes(b"kept")
    out = blocker.joinpath(*below)
    assert run_cli(command, "--mnist-dir", tmp_path / "missing", "--out", out) == 1
    assert f"{blocker} is not a directory" in capsys.readouterr().err
    assert blocker.read_bytes() == b"kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["notadir"]


@pytest.mark.parametrize("name", ["pareto_run2.csv", "generations_run1.jsonl", "campaign.json", "summary.json"])
def test_directory_at_a_campaign_file_is_config_error_before_data(tmp_path, capsys, name):
    # the MNIST directory is missing, so a check made after the data is read
    # would exit 2; summary.json was written only after the whole campaign
    (tmp_path / "out" / name).mkdir(parents=True)
    argv = ["optimize", "--mnist-dir", tmp_path / "missing", "--out", tmp_path / "out", "--runs", 2]
    assert run_cli(*argv) == 1
    assert f"{tmp_path / 'out' / name} is a directory" in capsys.readouterr().err
    assert [p.relative_to(tmp_path).as_posix() for p in sorted(tmp_path.rglob("*"))] == ["out", f"out/{name}"]


def test_huge_run_count_names_no_run_before_data(tmp_path, monkeypatch, capsys):
    # only the entries --out holds are checked, so no name is built per run
    calls = []
    real = metrics.run_files

    def counted(run_id):
        calls.append(run_id)
        if len(calls) > 100:
            raise RuntimeError("run_files called for more than 100 runs")
        return real(run_id)

    monkeypatch.setattr(metrics, "run_files", counted)
    argv = ["optimize", "--preset", "desk-fc", "--runs", 10**9, "--mnist-dir", tmp_path / "missing", "--out", tmp_path / "out"]
    assert run_cli(*argv) == 2
    assert "missing" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_campaign_deletes_only_the_files_it_writes(fixture_mnist_dir, tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    others = {"pareto_run3.csv": b"run 3", "pareto_run02.csv": b"run 02", "notes.txt": b"notes"}
    for name, text in {"pareto_run1.csv": b"run 1", **others}.items():
        (out / name).write_bytes(text)

    def killed(*args, **kwargs):
        raise RuntimeError("killed during run 1")

    monkeypatch.setattr(cli.nsga2, "run", killed)
    assert run_cli("optimize", "--mnist-dir", fixture_mnist_dir, "--out", out, *CAMPAIGN_FLAGS) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.name != "campaign.json"} == others


@pytest.mark.parametrize("name", metrics.MERGED_FILES)
def test_report_with_a_directory_at_an_output_is_config_error_before_writing(campaign_dir, tmp_path, capsys, name):
    out = tmp_path / "campaign"
    shutil.copytree(campaign_dir, out)
    (out / name).unlink()
    (out / name).mkdir()
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert run_cli("report", out) == 1
    assert f"{out / name} is a directory" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert (out / name).is_dir() and not any((out / name).iterdir())


@pytest.mark.parametrize(
    "command, case",
    [(command, case) for command in ("eval", "baseline") for case in ("trace-dir", "trace-under-file", "trace-under-absent")]
    + [("baseline", "baseline-json-dir")],
)
def test_unwritable_trace_or_baseline_file_is_config_error_before_data(tmp_path, capsys, command, case):
    # the MNIST directory is missing, so a path check made after the data is
    # read would exit 2
    (tmp_path / "notadir").write_bytes(b"kept")
    (tmp_path / "dir").mkdir()
    (tmp_path / "out" / "baseline.json").mkdir(parents=True)
    trace, named = {
        "trace-dir": (tmp_path / "dir", tmp_path / "dir"),
        "trace-under-file": (tmp_path / "notadir" / "x.jsonl", tmp_path / "notadir"),
        "trace-under-absent": (tmp_path / "absent" / "x.jsonl", tmp_path / "absent"),
        "baseline-json-dir": (None, tmp_path / "out" / "baseline.json"),
    }[case]
    argv = ["eval", "[4,1,0,0,0,0,32,32,32,32]"] if command == "eval" else ["baseline", "--out", tmp_path / "out"]
    before = sorted((str(p), p.read_bytes() if p.is_file() else None) for p in tmp_path.rglob("*"))
    assert run_cli(*argv, "--mnist-dir", tmp_path / "missing", *(["--trace", trace] if trace else [])) == 1
    assert f"{named} is" in capsys.readouterr().err
    assert sorted((str(p), p.read_bytes() if p.is_file() else None) for p in tmp_path.rglob("*")) == before


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

    merged = read_pareto_csv(campaign_dir / "pareto_merged.csv")
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


def test_summary_final_hv_is_the_last_hypervolume_row(campaign_dir):
    summary = json.loads((campaign_dir / "summary.json").read_text())
    assert len(summary["per_run"]) == 2
    for k, run in enumerate(summary["per_run"], start=1):
        gen, hv, evals, hv_archive = metrics.read_csv(campaign_dir / f"hypervolume_run{k}.csv")[-1]
        assert run["final_hv"] == float(hv)
        assert run["final_hv_archive"] == float(hv_archive)
        assert run["evaluations"] == int(evals)


def test_report_is_idempotent(campaign_dir):
    before = _campaign_bytes(campaign_dir)
    assert run_cli("report", campaign_dir) == 0
    assert _campaign_bytes(campaign_dir) == before


def test_read_campaign_takes_one_hypervolume_per_logged_front(campaign_dir, monkeypatch):
    manifest = json.loads((campaign_dir / metrics.MANIFEST_FILE).read_text())
    # the positivity rule and the renderer share one volume per front
    calls = []
    real = metrics.hypervolume

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "hypervolume", spy)
    metrics.read_campaign(campaign_dir)
    assert len(calls) == manifest["runs"] * (manifest["generations"] + 1)


def test_an_int_lr_flag_and_config_entry_write_the_same_campaign(fixture_mnist_dir, tmp_path):
    argv = ["optimize", "--mnist-dir", fixture_mnist_dir, "--out", tmp_path / "out", "--pop", 4, "--generations", 1, "--runs", 1]
    assert run_cli(*argv, "--lr", 1) == 0
    by_flag = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert b'"lr": 1.0,' in by_flag["campaign.json"]
    (tmp_path / "conf.txt").write_text("lr = 1\n")
    assert run_cli(*argv, "--config", tmp_path / "conf.txt") == 0
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == by_flag


@pytest.mark.parametrize("edit", [{"lr": 1}, {"mnist_dir": ""}])
def test_report_accepts_an_unnormalised_manifest(campaign_dir, tmp_path, edit):
    # config files wrote these spellings before options were normalised
    out = tmp_path / "campaign"
    shutil.copytree(campaign_dir, out)
    metrics.write_json(out / "campaign.json", {**json.loads((out / "campaign.json").read_text()), **edit})
    manifest = (out / "campaign.json").read_bytes()
    assert run_cli("report", out) == 0
    assert (out / "campaign.json").read_bytes() == manifest
    assert json.loads((out / "summary.json").read_text())["config"] == json.loads(manifest)


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
@pytest.mark.parametrize("key", ["runs", "n_clients", "n_layers", "interval_max", "pop", "generations"])
def test_report_rejects_bad_run_count(campaign_dir, tmp_path, capsys, key, value):
    out = tmp_path / "campaign"
    shutil.copytree(campaign_dir, out)
    manifest = json.loads((out / "campaign.json").read_text())
    manifest[key] = value
    metrics.write_json(out / "campaign.json", manifest)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli("report", out) == 2
    err = capsys.readouterr().err
    assert ("pop must be an even integer of at least 4" if key == "pop" else f"{key} must be an integer of at least 1") in err
    assert "campaign.json" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_report_rejects_non_finite_manifest_numbers(campaign_dir, tmp_path, capsys, value):
    out = tmp_path / "campaign"
    shutil.copytree(campaign_dir, out)
    text = (out / "campaign.json").read_text()
    assert '"lr": 0.1,' in text
    (out / "campaign.json").write_text(text.replace('"lr": 0.1,', f'"lr": {value},'))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli("report", out) == 2
    err = capsys.readouterr().err
    assert "campaign.json" in err and f"{value} is not a finite number" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_write_json_rejects_non_finite_numbers(tmp_path):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            metrics.write_json(tmp_path / "summary.json", {"final_hv": value})
    assert not (tmp_path / "summary.json").exists()


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


@pytest.mark.parametrize("key, named", [("runs", "pareto_run3.csv"), ("n_layers", "campaign.json")])
def test_report_checks_manifest_counts_against_the_files_first(campaign_dir, tmp_path, capsys, key, named):
    # a count this large sizes no list or array before a file bears it out;
    # n_layers must be the model's array count, so the manifest fails first
    out = tmp_path / "campaign"
    shutil.copytree(campaign_dir, out)
    manifest = json.loads((out / "campaign.json").read_text())
    manifest[key] = 10**9
    metrics.write_json(out / "campaign.json", manifest)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli("report", out) == 2
    err = capsys.readouterr().err
    assert named in err and len(err) < 1000
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_report_accepts_every_honest_f1_of_a_desk_campaign(fixture_mnist_dir, tmp_path, monkeypatch):
    out = tmp_path / "desk"
    argv = ["--preset", "desk-fc", "--generations", 3, "--runs", 2, "--mnist-dir", fixture_mnist_dir, "--out", out]
    assert run_cli("optimize", *argv) == 0
    closed = []
    real = metrics.comm_fraction
    monkeypatch.setattr(metrics, "comm_fraction", lambda genome, *args: closed.append(genome.to_vector()) or real(genome, *args))
    assert run_cli("report", out) == 0
    # one closed form per distinct genome of each run's log
    logged = [
        {tuple(genes) for line in (out / f"generations_run{k}.jsonl").read_text().splitlines() for *_, genes in json.loads(line)["front1"]}
        for k in (1, 2)
    ]
    assert sorted(closed) == sorted(genes for run in logged for genes in run)


def _first_row_cell(index, value):
    """A corruption that sets one cell of the first data row."""
    def corrupt(lines):
        cells = lines[1].split(",")
        cells[index] = value
        return [lines[0], ",".join(cells), *lines[2:]]
    return corrupt


def _last_row_cell(index, value):
    """A corruption that sets one cell of the last data row."""
    def corrupt(lines):
        cells = lines[-1].split(",")
        cells[index] = value
        return [*lines[:-1], ",".join(cells)]
    return corrupt


def _log_line(index, edit):
    """A corruption that applies `edit` to one generation-log line's object."""
    def corrupt(lines):
        row = json.loads(lines[index])
        edit(row)
        lines[index] = json.dumps(row)
        return lines
    return corrupt


def _append_dominated_copy(row):
    """Append a copy of the front's highest-f2 point with f2 = 0, which that point dominates."""
    f1, f2, genes = max(row["front1"], key=lambda point: point[1])
    assert f2 > 0.0
    row["front1"].append([f1, 0.0, genes])


def _nudge_drop_percent(row):
    """Move the first front point's mu_1 by one, inside its bounds [0, 50]."""
    genes = row["front1"][0][2]
    genes[2] += 1 if genes[2] < 50 else -1


def _middle_hv_archive_above_last(lines):
    """Set gen 1's hv_archive halfway from the last one to 1, so the archive volume falls after it."""
    last = float(lines[-1].split(",")[3])
    assert len(lines) > 3 and last < 1.0
    cells = lines[2].split(",")
    cells[3] = repr((last + 1.0) / 2)
    return [*lines[:2], ",".join(cells), *lines[3:]]


def _last_hv_archive_half_its_hv(lines):
    """Set the last hv_archive to half its row's hv, below its own front's volume."""
    cells = lines[-1].split(",")
    assert float(cells[1]) > 0.0
    cells[3] = repr(float(cells[1]) / 2)
    return [*lines[:-1], ",".join(cells)]


def _extra_generation(lines):
    """A well-formed row for one generation past the last, with its volumes."""
    gen, hv, evals, hv_archive = lines[-1].split(",")
    pop = int(evals) // (int(gen) + 1)
    return [*lines, f"{int(gen) + 1},{hv},{int(evals) + pop},{hv_archive}"]


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
        # a last row, which summary.json would copy
        ("hypervolume_run1.csv", lambda lines: [*lines, "1,nan,8,inf"]),
        ("hypervolume_run2.csv", _first_row_cell(1, "nan")),
        ("hypervolume_run2.csv", _first_row_cell(3, "inf")),
        ("hypervolume_run1.csv", _first_row_cell(1, "1.5")),
        ("hypervolume_run1.csv", _first_row_cell(3, "-0.25")),
        ("hypervolume_run2.csv", _first_row_cell(2, "0")),
        ("hypervolume_run1.csv", _first_row_cell(0, "-1")),
        # a header alone, which summary.json would fill with made-up figures
        ("pareto_run2.csv", lambda lines: lines[:1]),
        ("hypervolume_run2.csv", lambda lines: lines[:1]),
        # points that pareto_merged.csv would credit to another run
        ("pareto_run2.csv", _first_row_cell(0, "7")),
        # the last row, which summary.json copies, must be the last generation's
        ("hypervolume_run1.csv", lambda lines: [lines[0], *reversed(lines[1:])]),
        # a generation the run never reached, which pareto_merged.csv would copy
        ("pareto_run1.csv", _first_row_cell(1, "99")),
        # evals follow from pop and gen; summary.json copies the last row's
        ("hypervolume_run2.csv", _last_row_cell(2, "1")),
        # a truncated run, whose final_hv would be an earlier generation's
        ("hypervolume_run2.csv", lambda lines: lines[:-1]),
        ("hypervolume_run1.csv", _extra_generation),
        # a front that its own hypervolume trace does not describe
        ("pareto_run2.csv", _first_row_cell(3, "0.99")),
        # an archive that lost the front's volume, which summary.json copies
        ("hypervolume_run2.csv", _last_row_cell(3, "0.0")),
        ("hypervolume_run1.csv", _first_row_cell(3, "0.0")),
        # an archive volume that falls, or that lies below its front's
        ("hypervolume_run1.csv", _middle_hv_archive_above_last),
        ("hypervolume_run2.csv", _last_hv_archive_half_its_hv),
        # a run whose log is missing, short, or describes another run
        ("generations_run2.jsonl", lambda lines: None),
        ("generations_run1.jsonl", lambda lines: lines[:-1]),
        ("generations_run2.jsonl", lambda lines: [*lines, lines[-1]]),
        ("generations_run1.jsonl", _log_line(0, lambda row: row.update(gen=1))),
        ("generations_run2.jsonl", _log_line(-1, lambda row: row.update(evals=1))),
        ("generations_run1.jsonl", _log_line(-1, lambda row: row.update(hypervolume=0.5))),
        ("generations_run2.jsonl", _log_line(-1, lambda row: row["front1"].pop())),
        # a multiset: one more copy of a front point is another front
        ("generations_run1.jsonl", _log_line(-1, lambda row: row["front1"].append(row["front1"][0]))),
        ("generations_run2.jsonl", _log_line(-1, lambda row: row["front1"][0].__setitem__(1, 0.5))),
        # lines that are no JSON objects of the log's shape
        ("generations_run1.jsonl", lambda lines: [*lines[:-1], "abc"]),
        ("generations_run2.jsonl", lambda lines: [*lines[:-1], "[1, 2]"]),
        ("generations_run1.jsonl", _log_line(-1, lambda row: row.pop("front1"))),
        ("generations_run2.jsonl", _log_line(-1, lambda row: row.update(hypervolume=float("nan")))),
        # a middle generation's front: its volume, its point count and its bounds
        ("generations_run2.jsonl", _log_line(1, lambda row: row["front1"][0].__setitem__(1, 0.1))),
        ("generations_run1.jsonl", _log_line(1, lambda row: row["front1"].pop(0))),
        ("generations_run2.jsonl", _log_line(1, lambda row: row["front1"][0][2].__setitem__(0, 99))),
        ("generations_run1.jsonl", _log_line(1, lambda row: row["front1"][0].__setitem__(0, 10**400))),
        # values, or an order, that Python reads as equal but optimize writes otherwise
        ("generations_run1.jsonl", _log_line(1, lambda row: row.update(gen=1.0))),
        ("generations_run2.jsonl", _log_line(1, lambda row: row.update(gen=True))),
        ("generations_run1.jsonl", _log_line(1, lambda row: row.update(evals=float(row["evals"])))),
        ("hypervolume_run2.csv", lambda lines: [lines[0], re.sub(r"^(\d+,[^,]+,)", r"\g<1>0", lines[1]), *lines[2:]]),
        ("pareto_run1.csv", lambda lines: [lines[0], *reversed(lines[1:])]),
        # a dominated point adds no volume, so the middle line renders as it is written
        ("generations_run2.jsonl", _log_line(1, _append_dominated_copy)),
        # no other file holds a non-final front's genomes: only f1's closed form tells
        ("generations_run1.jsonl", _log_line(0, _nudge_drop_percent)),
        ("generations_run2.jsonl", _log_line(2, _nudge_drop_percent)),
    ],
    ids=[
        "non-numeric-cell", "short-row", "wrong-layer-count", "nan-f2", "f1-above-one",
        "nan-and-inf-last-row", "nan-hv", "inf-hv-archive", "hv-above-one", "negative-hv-archive",
        "no-evals", "negative-gen", "no-front-point", "no-generation-row", "other-run",
        "reversed-generations", "pareto-gen-past-last", "miscounted-last-row", "truncated-run",
        "extra-generation", "front-off-its-trace", "zero-last-hv-archive", "zero-first-hv-archive",
        "middle-hv-archive-above-last", "last-hv-archive-half-its-hv",
        "missing-log", "short-log", "extra-log-line", "log-gen-off", "log-evals-off", "log-hv-off",
        "log-front-short", "log-front-extra-copy", "log-front-f2-off", "log-line-not-json",
        "log-line-not-an-object", "log-line-without-front", "log-nan-hv", "log-middle-f2-off",
        "log-middle-front-short", "log-middle-m-out-of-bounds", "log-middle-f1-beyond-float", "log-gen-float",
        "log-gen-true", "log-evals-float", "evals-zero-padded", "pareto-rows-reversed", "log-middle-dominated-point",
        "log-first-drop-percent-off", "log-middle-drop-percent-off",
    ],
)
def test_report_rejects_malformed_run_files(campaign_dir, tmp_path, capsys, name, corrupt):
    out = tmp_path / "campaign"
    shutil.copytree(campaign_dir, out)
    path = out / name
    lines = corrupt(path.read_text().splitlines())
    if lines is None:
        path.unlink()
    else:
        path.write_text("\n".join(lines) + "\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli("report", out) == 2
    assert name in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "[4,1,0,0,0,0,32,32,32,32]", "--trace-accuracy"),
        ("baseline", "--trace-accuracy"),
        ("eval", "[4,1,0,0,0,0,32,32,32,32]", "--layer-sizes", "100,10,100,10", "--trace", "TRACE"),
        ("eval", "[4,1,0,0,0,0,32,32,32,32]", "--layer-sizes", "100,10,100,10", "--trace-accuracy"),
        ("eval", "[4,1,0,0,0,0,32,32,32,32]", "--layer-sizes", "100,10,100,10", "--trace", "TRACE", "--trace-accuracy"),
    ],
    ids=["eval-accuracy-without-trace", "baseline-accuracy-without-trace", "layer-sizes-trace",
         "layer-sizes-accuracy", "layer-sizes-trace-and-accuracy"],
)
def test_trace_flags_that_write_nothing_are_config_errors(tmp_path, capsys, argv):
    # the MNIST directory does not exist, so a command that read data would exit 2
    trace = tmp_path / "trace.jsonl"
    argv = [trace if a == "TRACE" else a for a in argv]
    out = ("--out", tmp_path / "out") if argv[0] == "baseline" else ()
    assert run_cli(*argv, "--mnist-dir", tmp_path / "missing", *out) == 1
    assert "--trace" in capsys.readouterr().err
    assert not trace.exists() and not (tmp_path / "out").exists()


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
