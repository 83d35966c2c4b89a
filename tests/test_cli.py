"""End-to-end command-line tests on a miniature configuration."""
from __future__ import annotations

import json
import struct

import pytest

import plrank.training
from plrank.cli import main
from plrank.policy import load_checkpoint, save_checkpoint

TINY_CONFIG = {
    "seed": 5,
    "world": {"n_users": 60, "n_items": 50, "m": 3, "buckets": 3, "exposure_pool": 24},
    "data": {"K": 4, "L": 3, "noise_rate": 0.1},
    "model": {
        "d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 16,
        "max_len": 48, "max_gen": 10, "head_hidden": 8,
    },
    "sft": {"steps": 25, "batch_size": 4},
    "rl": {"steps": 2, "batch_size": 1, "rankings_per_instance": 2},
    "eval": {"cutoffs": [1, 3], "probe_slots": [1, 2, 4], "n_shuffles": 2, "history_cutoff": 3},
}


@pytest.fixture()
def workdir(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "run"
    return cfg_path, out


def run(cfg_path, out, *argv):
    return main([*argv, "--config", str(cfg_path), "--out", str(out)])


def test_full_pipeline(workdir, capsys):
    cfg_path, out = workdir
    assert run(cfg_path, out, "gen-data") == 0
    for split in ("train", "valid", "test"):
        assert (out / f"instances_{split}.jsonl").exists()
    assert (out / "effective_config.json").exists()

    assert run(cfg_path, out, "build-sft") == 0
    assert (out / "sft.jsonl").exists()

    assert run(cfg_path, out, "train", "--stage", "sft") == 0
    assert (out / "sft_model.bin").exists()
    assert (out / "metrics_sft.csv").exists()

    assert run(cfg_path, out, "train", "--stage", "rl") == 0
    assert (out / "rl_model.bin").exists()

    assert run(cfg_path, out, "eval") == 0
    assert (out / "eval.csv").exists()
    assert (out / "strata.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checkpoint"] == "rl_model.bin"
    assert 0.0 <= summary["ndcg_mean"]["1"] <= 1.0

    assert run(cfg_path, out, "probe") == 0
    assert (out / "probe_position.csv").exists()
    assert (out / "probe_history.csv").exists()
    assert (out / "probe_position.svg").exists()
    probe_summary = json.loads((out / "probe_summary.json").read_text())
    assert probe_summary["position_identical"] is True
    assert probe_summary["position_max_spread"] == 0

    assert run(cfg_path, out, "report") == 0
    assert (out / "curve_sft.svg").exists()
    assert (out / "curve_rl.svg").exists()

    assert run(cfg_path, out, "verify") == 0
    capsys.readouterr()


def test_outputs_are_idempotent(workdir):
    cfg_path, out = workdir
    run(cfg_path, out, "gen-data")
    first = (out / "instances_test.jsonl").read_bytes()
    run(cfg_path, out, "gen-data")
    assert (out / "instances_test.jsonl").read_bytes() == first

    run(cfg_path, out, "build-sft")
    run(cfg_path, out, "train", "--stage", "sft")
    run(cfg_path, out, "eval")
    eval_a = (out / "eval.csv").read_bytes()
    summary_a = (out / "summary.json").read_bytes()
    run(cfg_path, out, "eval")
    assert (out / "eval.csv").read_bytes() == eval_a
    assert (out / "summary.json").read_bytes() == summary_a


def test_missing_prerequisites_fail_cleanly(workdir, capsys):
    cfg_path, out = workdir
    assert run(cfg_path, out, "build-sft") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DataFormatError:")
    assert "\n" == err[err.index("\n") :]  # a single line

    assert run(cfg_path, out, "train", "--stage", "rl") == 2
    assert run(cfg_path, out, "eval") == 2
    assert run(cfg_path, out, "verify") == 2
    capsys.readouterr()


def test_bad_config_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for config, message in (
        ({"world": {"n_user": 10}}, "error: ConfigError: unknown key world.n_user\n"),
        (dict(TINY_CONFIG, sft={"steps": "5"}), "error: ConfigError: sft.steps must be an integer, got '5'\n"),
    ):
        bad.write_text(json.dumps(config))
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == message


def test_unreadable_artifacts_fail_with_one_line(workdir, capsys):
    cfg_path, out = workdir
    for argv in (["gen-data"], ["build-sft"], ["train", "--stage", "sft"]):
        assert run(cfg_path, out, *argv) == 0
    test_split = out / "instances_test.jsonl"
    clean = test_split.read_bytes()
    test_split.write_bytes(clean + b"\xff\n")
    bad_line = len(clean.splitlines()) + 1
    metrics = out / "metrics_sft.csv"
    lines = metrics.read_text().split("\n")
    lines[2] = "x," + lines[2].split(",", 1)[1]  # the first row's step
    metrics.write_text("\n".join(lines))
    cases = (
        (["eval"], cfg_path, f"{test_split}: line {bad_line}: 'utf-8' codec can't decode"),
        (["report"], cfg_path, f"{metrics}: could not convert string to float: 'x'"),
        (["eval"], out, f"Is a directory: '{out}'"),
    )
    for argv, config, message in cases:
        capsys.readouterr()
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
    test_split.write_bytes(clean)
    assert run(cfg_path, out, "eval") == 0


def test_seed_override_changes_artifacts(workdir):
    cfg_path, out = workdir
    run(cfg_path, out, "gen-data")
    base = (out / "instances_test.jsonl").read_bytes()
    out2 = out.parent / "run2"
    assert main(
        ["gen-data", "--config", str(cfg_path), "--out", str(out2), "--seed", "6"]
    ) == 0
    assert (out2 / "instances_test.jsonl").read_bytes() != base


def test_checkpoint_config_mismatch_detected(workdir, tmp_path, capsys):
    cfg_path, out = workdir
    run(cfg_path, out, "gen-data")
    run(cfg_path, out, "build-sft")
    run(cfg_path, out, "train", "--stage", "sft")
    other = dict(TINY_CONFIG)
    other["sft"] = dict(TINY_CONFIG["sft"], steps=26)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    assert main(["eval", "--config", str(other_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "was trained under config" in err


def test_checkpoint_that_does_not_fit_the_model_fails_with_one_line(workdir, tmp_path, capsys):
    cfg_path, out = workdir
    for argv in (["gen-data"], ["build-sft"], ["train", "--stage", "sft"]):
        assert run(cfg_path, out, *argv) == 0
    ckpt = out / "sft_model.bin"
    wider = tmp_path / "wider.json"  # the same world and data, a wider model
    wider.write_text(json.dumps(dict(TINY_CONFIG, model=dict(TINY_CONFIG["model"], d_model=16))))
    misshapen = f"error: DataFormatError: {ckpt}: tensor emb has shape (17, 8), the model's is (17, 16)\n"
    for argv in (["train", "--stage", "rl"], ["train", "--stage", "sft", "--init", str(ckpt)], ["eval"]):
        capsys.readouterr()
        assert main([*argv, "--config", str(wider), "--out", str(out)]) == 2
        assert capsys.readouterr().err == misshapen
    params, embedded_hash, seed = load_checkpoint(ckpt)
    forged = out / "forged.bin"
    for tensors, fault in (
        ({k: v for k, v in params.items() if k != "head.b2"}, "tensor head.b2 is missing"),
        (dict(params, extra=params["head.b2"]), "tensor extra is not a tensor of the model"),
    ):
        save_checkpoint(forged, tensors, embedded_hash, seed)
        capsys.readouterr()
        assert run(cfg_path, out, "eval", "--ckpt", str(forged)) == 2
        assert capsys.readouterr().err == f"error: DataFormatError: {forged}: {fault}\n"


def test_verify_detects_seed_mismatch(workdir, capsys):
    cfg_path, out = workdir
    run(cfg_path, out, "gen-data")
    run(cfg_path, out, "build-sft")
    run(cfg_path, out, "train", "--stage", "sft")
    run(cfg_path, out, "eval")
    assert main(
        ["verify", "--config", str(cfg_path), "--out", str(out), "--seed", "99"]
    ) == 2
    err = capsys.readouterr().err
    assert "config_hash" in err or "seed" in err


def test_verify_detects_rewritten_data_header(workdir, capsys):
    cfg_path, out = workdir
    for argv in (["gen-data"], ["build-sft"], ["train", "--stage", "sft"], ["eval"], ["report"]):
        assert run(cfg_path, out, *argv) == 0
    assert run(cfg_path, out, "verify") == 0

    def rewrite_seed(path):
        if path.suffix == ".bin":
            params, embedded_hash, seed = load_checkpoint(path)
            save_checkpoint(path, params, embedded_hash, seed + 1)
            return
        text = path.read_text()
        old = "seed=5" if path.suffix in (".csv", ".svg") else '"seed": 5'
        assert old in text
        path.write_text(text.replace(old, old[:-1] + "6", 1))

    # one artifact of each kind, in the order: report table, metrics table,
    # JSON summary, data headers, checkpoint, SVG chart, effective config
    kinds = (
        "eval.csv",
        "metrics_sft.csv",
        "summary.json",
        "instances_valid.jsonl",
        "sft.jsonl",
        "sft_model.bin",
        "curve_sft.svg",
        "effective_config.json",
    )
    cases = [(name, rewrite_seed, f"{name}: seed 6 != 5") for name in kinds]
    cases += [
        (
            "strata.csv",
            lambda path: path.write_text("garbage\n" + path.read_text().split("\n", 1)[1]),
            "strata.csv: missing report header, got 'garbage'",
        ),
        (
            "sft_model.bin",
            lambda path: path.write_bytes(path.read_bytes()[:-8]),
            "sft_model.bin: checkpoint truncated while reading tensor ",
        ),
        (
            "eval.csv",
            lambda path: path.write_bytes(b"\xff" + path.read_bytes()),
            "eval.csv: 'utf-8' codec can't decode byte 0xff",
        ),
        (
            "summary.json",
            lambda path: path.write_text(
                json.dumps(dict(json.loads(path.read_text()), config_hash=5))
            ),
            "summary.json: header carries no config_hash string and seed integer",
        ),
    ]
    for name, damage, message in cases:
        path = out / name
        original = path.read_bytes()
        damage(path)
        capsys.readouterr()
        assert run(cfg_path, out, "verify") == 2
        assert f"verify: {message}" in capsys.readouterr().err
        path.write_bytes(original)
    assert run(cfg_path, out, "verify") == 0


def test_interrupted_train_keeps_previous_metrics(workdir, monkeypatch):
    cfg_path, out = workdir
    run(cfg_path, out, "gen-data")
    run(cfg_path, out, "build-sft")
    assert run(cfg_path, out, "train", "--stage", "sft") == 0
    metrics = (out / "metrics_sft.csv").read_bytes()
    checkpoint = (out / "sft_model.bin").read_bytes()
    loss_fn = plrank.training.sft_batch_loss
    calls = []

    def interrupted(*args, **kwargs):
        calls.append(1)
        if len(calls) == 10:
            raise KeyboardInterrupt
        return loss_fn(*args, **kwargs)

    monkeypatch.setattr(plrank.training, "sft_batch_loss", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(cfg_path, out, "train", "--stage", "sft")
    assert len(calls) == 10
    assert (out / "metrics_sft.csv").read_bytes() == metrics
    assert (out / "sft_model.bin").read_bytes() == checkpoint
    assert not list(out.glob("*.tmp"))


def test_verify_checks_the_metrics_header(workdir, capsys):
    cfg_path, out = workdir
    run(cfg_path, out, "gen-data")
    run(cfg_path, out, "build-sft")
    run(cfg_path, out, "train", "--stage", "sft")
    assert run(cfg_path, out, "verify") == 0
    path = out / "metrics_sft.csv"
    first, rest = path.read_text().split("\n", 1)
    assert first.startswith("# plrank kind=metrics ") and rest.startswith("step,")
    path.write_text(first.replace("seed=5", "seed=6") + "\n" + rest)
    capsys.readouterr()
    assert run(cfg_path, out, "verify") == 2
    assert "metrics_sft.csv: seed 6 != 5" in capsys.readouterr().err
    assert run(cfg_path, out, "report") == 0  # the header is not a data row
    # a file written before decision_acc and score_std joined the columns
    columns, body = rest.split("\n", 1)
    assert columns.split(",")[-3:] == ["decision_acc", "score_std", "wallclock_ms"]
    old = columns.replace("decision_acc,score_std,", "")
    path.write_text(first + "\n" + old + "\n" + body)
    capsys.readouterr()
    assert run(cfg_path, out, "verify") == 2
    assert f"metrics_sft.csv: columns {old} != " in capsys.readouterr().err


def test_tokens_outside_the_vocabulary_fail_with_one_line(workdir, capsys):
    cfg_path, out = workdir
    for argv in (["gen-data"], ["build-sft"], ["train", "--stage", "sft"]):
        assert run(cfg_path, out, *argv) == 0
    assert TINY_CONFIG["world"]["buckets"] == 3  # so the vocabulary has 8 + 3 * 3 ids

    def candidate(record):
        record["candidates"][1]["tokens"][0] = 99

    def profile(record):
        record["user"]["profile_tokens"][2] = 99

    def target(record):
        record["target"][0] = 99

    check_damaged_first_records(cfg_path, out, capsys, (
        ("instances_train.jsonl", candidate, ["build-sft"], "line 2: candidate bucket 99 out of range [0, 3)"),
        ("instances_train.jsonl", candidate, ["train", "--stage", "rl"], "line 2: candidate bucket 99"),
        ("instances_test.jsonl", profile, ["eval"], "line 2: profile bucket 99 out of range [0, 3)"),
        ("sft.jsonl", target, ["train", "--stage", "sft"], "line 2: target token 99 out of range [0, 17)"),
    ))


def check_damaged_first_records(cfg_path, out, capsys, cases):
    """Each (file, damage, command, message): with the file's first record
    damaged, the command exits 2 with one `error: DataFormatError: <file>:
    <message>` line, and passes again once the file is restored."""
    for name, damage, argv, message in cases:
        path = out / name
        clean = path.read_bytes()
        header, first, rest = clean.decode().split("\n", 2)
        record = json.loads(first)
        damage(record)
        path.write_text("\n".join([header, json.dumps(record, sort_keys=True), rest]))
        capsys.readouterr()
        assert run(cfg_path, out, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: DataFormatError: {path}: {message}") and err.count("\n") == 1
        path.write_bytes(clean)
    assert run(cfg_path, out, "eval") == 0


def test_bad_records_fail_with_one_line(workdir, capsys):
    cfg_path, out = workdir
    for argv in (["gen-data"], ["build-sft"], ["train", "--stage", "sft"]):
        assert run(cfg_path, out, *argv) == 0
    first_train_id = json.loads((out / "instances_train.jsonl").read_text().split("\n")[1])["instance_id"]

    def integer_item_id(record):
        record["candidates"][0]["item_id"] = 7

    def grade(value):
        def damage(record):
            record["relevance"][0] = value
        return damage

    def no_relevant(record):
        record["relevance"] = [0] * len(record["relevance"])

    def empty(key):
        def damage(record):
            record[key] = []
        return damage

    def long_history(record):
        record["user"]["history"] = [{"item_id": f"i{t}", "tokens": [0, 1, 2], "t": t} for t in range(30)]

    def long_prefix(record):
        record["prefix"] = record["prefix"] * 10

    first_sft = json.loads((out / "sft.jsonl").read_text().split("\n")[1])
    long_row = f"row length {10 * len(first_sft['prefix'])} + {len(first_sft['target'])} exceeds max_len 48"
    sft, rl = ["train", "--stage", "sft"], ["train", "--stage", "rl"]
    check_damaged_first_records(cfg_path, out, capsys, (
        ("instances_test.jsonl", integer_item_id, ["eval"], "line 2: candidate item_id 7 is not a string"),
        ("instances_test.jsonl", grade(-1), ["eval"], "line 2: relevance grade -1 is not 0 or 1"),
        ("instances_test.jsonl", grade(2), ["eval"], "line 2: relevance grade 2 is not 0 or 1"),
        ("sft.jsonl", empty("target"), sft, "line 2: prefix and target must not be empty"),
        ("sft.jsonl", empty("prefix"), sft, "line 2: prefix and target must not be empty"),
        ("instances_train.jsonl", no_relevant, rl, f"instance {first_train_id!r} has no relevant candidate"),
        ("instances_test.jsonl", long_history, ["eval"], "line 2: history length 30 exceeds L=3"),
        ("sft.jsonl", long_prefix, sft, f"line 2: {long_row}"),
    ))


def test_forged_checkpoint_dims_fail_with_one_line(workdir, capsys):
    cfg_path, out = workdir
    for argv in (["gen-data"], ["build-sft"], ["train", "--stage", "sft"]):
        assert run(cfg_path, out, *argv) == 0
    raw = (out / "sft_model.bin").read_bytes()
    (hash_len,) = struct.unpack("<I", raw[16:20])
    (name_len,) = struct.unpack("<I", raw[24 + hash_len : 28 + hash_len])
    rank_at = 28 + hash_len + name_len  # the first tensor's rank, then its dims
    assert struct.unpack("<I", raw[rank_at : rank_at + 4])[0] >= 1
    forged = out / "forged.bin"
    forged.write_bytes(raw[: rank_at + 4] + struct.pack("<Q", 2**59) + raw[rank_at + 12 :])  # its first dim
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(forged), "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: DataFormatError: {forged}: checkpoint truncated while reading tensor ")
    assert err.count("\n") == 1
