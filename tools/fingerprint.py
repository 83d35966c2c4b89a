"""Bit-identity fingerprint of the desk pipeline.

Runs `plrank gen-data`, `build-sft`, `train --stage sft`, `train --stage rl`,
`eval`, `probe` and `report` into a temporary directory, with the default
config but SFT_STEPS and RL_STEPS training steps, and prints one SHA-256 per
part, so two checkouts can be compared line by line:

  instances    the three instance files `gen-data` writes
  sft_corpus   the teacher corpus `build-sft` writes
  sft          the SFT checkpoint and metrics file
  decode       `decode_slate` on the first SLATES test slates with the SFT
               weights, greedy and sampled, with and without cot: tokens,
               token log-probs, final hidden states, truncation and scores
  rl           the RL checkpoint and metrics file
  reports      what `eval`, `probe` and `report` write from the RL checkpoint:
               eval.csv, strata.csv, summary.json, the probe tables, summary
               and chart, and the two training curves

The metrics files are hashed without their last column, the wall clock. Every
file embeds the config hash, so two checkouts compare only if their configs
have the same fields. Each instance file and the teacher corpus is loaded,
checked against the config's vocabulary and limits, and saved again, and the
script exits nonzero if that changes a byte. Each split
is also built again in this process on a fresh world, with the train counts
taken from a second one, so no user's events carry over from the counts to a
split; the script exits nonzero if that changes a byte of what `gen-data`
wrote. Last,
`plrank verify` checks what the stages wrote against the config; the script
exits nonzero if any command does.

Usage: python tools/fingerprint.py

It runs on one BLAS thread, as the test suite and the benchmark do, and
imports plrank from the `src/` directory beside this script, so a copy of this
file placed in another checkout fingerprints that checkout. The commands'
own output and the CPU seconds of each stage go to stderr; the hashes go to
stdout.
"""
from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from plrank import cli  # noqa: E402
from plrank.config import load_run_config, policy_config  # noqa: E402
from plrank.policy import decode_slate, load_checkpoint  # noqa: E402
from plrank.report import read_table  # noqa: E402
from plrank.rng import substream  # noqa: E402
from plrank.world import (  # noqa: E402
    SPLITS,
    build_instances,
    generate_world,
    load_instances_jsonl,
    load_sft_jsonl,
    save_instances_jsonl,
    save_sft_jsonl,
    train_positive_counts,
)

SFT_STEPS = 40
RL_STEPS = 30
SLATES = 60
REPORTS = (
    "eval.csv", "strata.csv", "summary.json",
    "probe_position.csv", "probe_position.svg", "probe_history.csv", "probe_summary.json",
    "curve_sft.svg", "curve_rl.svg",
)


def run(*argv: str) -> None:
    t0 = time.process_time()
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(list(argv))
    if code:
        raise SystemExit(f"plrank {' '.join(argv)} exited with {code}")
    stage = " ".join(argv[: argv.index("--config")])
    print(f"stage {stage}: {time.process_time() - t0:.2f} CPU s", file=sys.stderr)


def hash_files(*paths: Path):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h


def check_round_trip(out: Path, load, save, *names: str) -> None:
    """Load each data file and save it again in a subdirectory; no byte may change."""
    again = out / "round_trip"
    again.mkdir(exist_ok=True)
    for name in names:
        records, header = load(out / name)
        save(again / name, records, meta=header)
        if (again / name).read_bytes() != (out / name).read_bytes():
            raise SystemExit(f"{name}: loading and saving it again changed its bytes")


def check_rebuild(out: Path, cfg) -> None:
    """Build every split again with no events kept from the counts; no byte may change."""
    counts = train_positive_counts(generate_world(cfg.world, cfg.seed))
    again = out / "rebuilt"
    again.mkdir(exist_ok=True)
    for split in SPLITS:
        name = f"instances_{split}.jsonl"
        world = generate_world(cfg.world, cfg.seed)
        instances, _ = build_instances(world, split, K=cfg.data.K, L=cfg.data.L, train_counts=counts)
        save_instances_jsonl(again / name, instances, meta=load_instances(out / name, cfg)[1])
        if (again / name).read_bytes() != (out / name).read_bytes():
            raise SystemExit(f"{name}: building it without the counts' events changed its bytes")


def load_instances(path: Path, cfg):
    return load_instances_jsonl(path, policy_config(cfg).vocab(), cfg.data.L)


def load_sft(path: Path, cfg):
    pcfg = policy_config(cfg)
    return load_sft_jsonl(path, pcfg.vocab(), pcfg.max_len)


def hash_metrics(h, path: Path) -> None:
    """The metrics table without its last column, the wall clock."""
    meta, header, rows = read_table(path)
    h.update(repr((meta, header[:-1], [row[:-1] for row in rows])).encode())


def hash_decode(out: Path, cfg):
    pcfg = policy_config(cfg)
    vocab = pcfg.vocab()
    params, _, _ = load_checkpoint(out / "sft_model.bin")
    instances, _ = load_instances(out / "instances_test.jsonl", cfg)
    h = hashlib.sha256()
    for inst in instances[:SLATES]:
        for cot in (True, False):
            for sampled in (False, True):
                rng_of = (
                    (lambda item_id: substream(cfg.seed, "fingerprint", inst.instance_id, item_id))
                    if sampled
                    else None
                )
                _, row_of_slot, rats, scores = decode_slate(
                    params, inst.ctx, inst.candidates, pcfg, vocab, cot, rng_of=rng_of
                )
                h.update(row_of_slot.tobytes() + scores.tobytes())
                for r in rats:
                    h.update(
                        r.tokens.tobytes() + r.token_logprobs.tobytes() + r.final_hidden.tobytes()
                        + bytes([r.truncated])
                    )
    return h


def main() -> int:
    parts = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = out / "config.json"
        config.write_text(json.dumps({"sft": {"steps": SFT_STEPS}, "rl": {"steps": RL_STEPS}}))
        common = ("--config", str(config), "--out", str(out))
        cfg = load_run_config(config)
        run("gen-data", *common)
        instance_files = [f"instances_{split}.jsonl" for split in SPLITS]
        parts["instances"] = hash_files(*(out / name for name in instance_files))
        check_round_trip(out, lambda path: load_instances(path, cfg), save_instances_jsonl, *instance_files)
        check_rebuild(out, cfg)
        run("build-sft", *common)
        parts["sft_corpus"] = hash_files(out / "sft.jsonl")
        check_round_trip(out, lambda path: load_sft(path, cfg), save_sft_jsonl, "sft.jsonl")
        run("train", "--stage", "sft", *common)
        parts["sft"] = hash_files(out / "sft_model.bin")
        hash_metrics(parts["sft"], out / "metrics_sft.csv")
        parts["decode"] = hash_decode(out, cfg)
        run("train", "--stage", "rl", *common)
        parts["rl"] = hash_files(out / "rl_model.bin")
        hash_metrics(parts["rl"], out / "metrics_rl.csv")
        for stage in ("eval", "probe", "report"):
            run(stage, *common)
        parts["reports"] = hash_files(*(out / name for name in REPORTS))
        run("verify", *common)
    for name, h in parts.items():
        print(f"{name:12s} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
