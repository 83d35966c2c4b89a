"""Command-line pipeline: generate data, clone, fine-tune, evaluate, probe.

Every command reads one JSON config, writes its artifacts under --out, and
embeds the config hash and seed in everything it emits. Commands are
idempotent: re-running with the same inputs rewrites byte-identical outputs
(metrics CSVs differ only in their wallclock column). Errors print a single
machine-readable line on stderr and exit nonzero.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .config import (
    RunConfig,
    config_hash,
    dump_effective,
    load_run_config,
    policy_config,
    run_config_from_dict,
    stage_config,
)
from .errors import ConfigError, DataFormatError
from .evaluation import evaluate, probe_history_shuffle, probe_position, stratify
from .policy import init_params, load_checkpoint, save_checkpoint, serialize_context
from .report import (
    parse_report_header,
    read_table,
    summarize_history_probe,
    write_eval_csv,
    write_grouped_bars_svg,
    write_history_probe_csv,
    write_line_chart_svg,
    write_position_probe_csv,
    write_strata_csv,
    write_summary_json,
)
from .rng import substream
from .training import MetricsWriter, rl_train, sft_train
from .world import (
    SPLITS,
    build_instances,
    build_sft_corpus,
    generate_world,
    load_instances_jsonl,
    load_sft_jsonl,
    save_instances_jsonl,
    save_sft_jsonl,
    train_positive_counts,
)

log = logging.getLogger("plrank.cli")


def _setup_logging() -> None:
    level = os.environ.get("PLRANK_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"PLRANK_LOG must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(
        level=levels[level], format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )


def _load_config(args) -> RunConfig:
    if args.config is not None:
        cfg = load_run_config(args.config)
    else:
        cfg = RunConfig()
        cfg.validate()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
        cfg.validate()
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _instances_path(out: Path, split: str) -> Path:
    return out / f"instances_{split}.jsonl"


def _load_instances(out: Path, split: str):
    path = _instances_path(out, split)
    if not path.exists():
        raise DataFormatError(f"missing {path}; run gen-data first")
    instances, header = load_instances_jsonl(path)
    return instances, header


def _serialize_fn(vocab):
    return lambda ctx, item: serialize_context(ctx, item, vocab)


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    dump_effective(cfg, out / "effective_config.json")
    world = generate_world(cfg.world, cfg.seed)
    counts = train_positive_counts(world)
    h = config_hash(cfg)
    for split in SPLITS:
        instances, stats = build_instances(
            world, split, K=cfg.data.K, L=cfg.data.L, train_counts=counts
        )
        save_instances_jsonl(
            _instances_path(out, split),
            instances,
            meta={
                "seed": cfg.seed,
                "config_hash": h,
                "split": split,
                "skipped_no_positive": stats.skipped_no_positive,
                "skipped_few_negatives": stats.skipped_few_negatives,
            },
        )
        log.info("split %s: %d instances", split, stats.built)
        print(f"gen-data {split}: {stats.built} instances")
    return 0


def cmd_build_sft(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    pcfg = policy_config(cfg)
    vocab = pcfg.vocab()
    instances, _ = _load_instances(out, "train")
    examples, stats = build_sft_corpus(
        instances,
        cfg.data.noise_rate,
        seed=cfg.seed,
        vocab=vocab,
        serialize_fn=_serialize_fn(vocab),
        selfcheck_k=cfg.data.selfcheck_k,
    )
    save_sft_jsonl(
        out / "sft.jsonl",
        examples,
        meta={
            "seed": cfg.seed,
            "config_hash": config_hash(cfg),
            "noise_rate": cfg.data.noise_rate,
            "kept": stats.kept,
            "rejected": stats.rejected,
            "kept_positive": stats.kept_positive,
        },
    )
    print(f"build-sft: kept {stats.kept} rejected {stats.rejected}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    pcfg = policy_config(cfg)
    h = config_hash(cfg)
    tcfg = stage_config(cfg, args.stage)
    if args.stage == "sft":
        sft_path = out / "sft.jsonl"
        if not sft_path.exists():
            raise DataFormatError(f"missing {sft_path}; run build-sft first")
        examples, _ = load_sft_jsonl(sft_path)
        if args.init is not None:
            params, _, _ = load_checkpoint(args.init)
        else:
            params = init_params(pcfg, substream(cfg.seed, "init", "policy"))
        metrics = MetricsWriter(out / "metrics_sft.csv")
        try:
            rows = sft_train(params, examples, pcfg, tcfg, seed=cfg.seed, metrics=metrics)
        finally:
            metrics.close()
        save_checkpoint(out / "sft_model.bin", params, h, cfg.seed)
        final = -rows[-1]["ppo_obj"] if rows else float("nan")
        print(f"train sft: {len(rows)} steps, final nll {final:.4f}")
        return 0
    instances, _ = _load_instances(out, "train")
    init_path = args.init if args.init is not None else out / "sft_model.bin"
    if not Path(init_path).exists():
        raise DataFormatError(f"missing init checkpoint {init_path}; train the sft stage first")
    params, _, _ = load_checkpoint(init_path)
    metrics = MetricsWriter(out / "metrics_rl.csv")
    try:
        rows = rl_train(params, instances, pcfg, tcfg, seed=cfg.seed, metrics=metrics)
    finally:
        metrics.close()
    save_checkpoint(out / "rl_model.bin", params, h, cfg.seed)
    final = rows[-1].mean_reward if rows else float("nan")
    print(f"train rl: {len(rows)} steps, final mean reward {final:.4f}")
    return 0


def _load_model(args, out: Path, cfg: RunConfig):
    if args.ckpt is not None:
        path = Path(args.ckpt)
    else:
        path = out / "rl_model.bin"
        if not path.exists():
            path = out / "sft_model.bin"
    if not path.exists():
        raise DataFormatError(f"no checkpoint found at {path}; train first or pass --ckpt")
    params, embedded_hash, seed = load_checkpoint(path)
    expected = config_hash(cfg)
    if embedded_hash != expected:
        raise DataFormatError(
            f"checkpoint {path} was trained under config {embedded_hash[:12]}, "
            f"current config is {expected[:12]}"
        )
    return params, path


def _eval_instances(cfg: RunConfig, out: Path):
    instances, _ = _load_instances(out, cfg.eval.split)
    if cfg.eval.max_instances:
        instances = instances[: cfg.eval.max_instances]
    return instances


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    pcfg = policy_config(cfg)
    h = config_hash(cfg)
    params, ckpt = _load_model(args, out, cfg)
    instances = _eval_instances(cfg, out)
    report = evaluate(params, instances, pcfg, cutoffs=cfg.eval.cutoffs, cot=cfg.rl.cot)
    write_eval_csv(out / "eval.csv", report, h, cfg.seed)
    strata = stratify(report, cutoff=cfg.eval.history_cutoff)
    write_strata_csv(out / "strata.csv", strata, h, cfg.seed)
    payload = {
        "checkpoint": ckpt.name,
        "split": cfg.eval.split,
        "n_instances": report.n_instances,
        "n_excluded": report.n_excluded,
        "ndcg_mean": {str(c): report.mean[c] for c in report.cutoffs},
        "ndcg_ci95": {str(c): report.ci95[c] for c in report.cutoffs},
    }
    write_summary_json(out / "summary.json", payload, h, cfg.seed)
    shown = ", ".join(
        f"@{c} {report.mean[c]:.4f} (±{report.ci95[c]:.4f})" for c in report.cutoffs
    )
    print(f"eval {cfg.eval.split}: n={report.n_instances} ndcg {shown}")
    return 0


def cmd_probe(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    pcfg = policy_config(cfg)
    h = config_hash(cfg)
    params, _ = _load_model(args, out, cfg)
    instances = _eval_instances(cfg, out)
    pos = probe_position(params, instances, pcfg, slots=cfg.eval.probe_slots, cot=cfg.rl.cot)
    write_position_probe_csv(out / "probe_position.csv", pos, h, cfg.seed)
    write_grouped_bars_svg(
        out / "probe_position.svg",
        {f"slot {s}": pos.histograms[s] for s in pos.slots},
        "positive-item rank by probe slot",
        h,
        cfg.seed,
    )
    hist = probe_history_shuffle(
        params,
        instances,
        pcfg,
        cutoff=cfg.eval.history_cutoff,
        n_shuffles=cfg.eval.n_shuffles,
        seed=cfg.seed,
        cot=cfg.rl.cot,
    )
    write_history_probe_csv(out / "probe_history.csv", hist, h, cfg.seed)
    payload = {
        "position_identical": pos.identical,
        "position_max_spread": pos.max_spread,
        "history_original_mean": hist.original_mean,
        "history_avg": hist.avg,
        "history_std": hist.std,
        "history_range": hist.range,
    }
    write_summary_json(out / "probe_summary.json", payload, h, cfg.seed)
    print(
        f"probe: position identical={pos.identical} spread={pos.max_spread} "
        f"history avg={hist.avg:.4f} std={hist.std:.4f} range={hist.range:.4f} "
        f"original={hist.original_mean:.4f}"
    )
    return 0


def cmd_report(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    h = config_hash(cfg)
    made = []
    for stage, column, label in (
        ("sft", "ppo_obj", "cloning objective"),
        ("rl", "mean_reward", "mean reward"),
    ):
        path = out / f"metrics_{stage}.csv"
        if not path.exists():
            continue
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            steps, values = [], []
            for row in reader:
                if row[column]:
                    steps.append(float(row["step"]))
                    values.append(float(row[column]))
        if not steps:
            continue
        svg = out / f"curve_{stage}.svg"
        write_line_chart_svg(
            svg, steps, values, f"{stage}: {label}", h, cfg.seed, y_label=label
        )
        made.append(svg.name)
    if not made:
        raise DataFormatError("no metrics files found; train first")
    print(f"report: wrote {', '.join(made)}")
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    expected = config_hash(cfg)
    checked = 0
    problems = []

    effective = out / "effective_config.json"
    if effective.exists():
        with open(effective, "r", encoding="utf-8") as fh:
            stored = run_config_from_dict(json.load(fh))
        if config_hash(stored) != expected:
            problems.append(f"{effective.name}: effective config hashes differently")
        checked += 1

    for name in ("eval.csv", "strata.csv", "probe_position.csv", "probe_history.csv"):
        path = out / name
        if not path.exists():
            continue
        meta, header, rows = read_table(path)
        if meta["config_hash"] != expected:
            problems.append(f"{name}: config_hash {meta['config_hash'][:12]} != {expected[:12]}")
        if meta["seed"] != cfg.seed:
            problems.append(f"{name}: seed {meta['seed']} != {cfg.seed}")
        checked += 1
        if name == "probe_history.csv":
            summary_path = out / "probe_summary.json"
            if summary_path.exists():
                with open(summary_path, "r", encoding="utf-8") as fh:
                    stored_summary = json.load(fh)
                redone = summarize_history_probe(rows)
                for key, stored_key in (
                    ("avg", "history_avg"),
                    ("std", "history_std"),
                    ("range", "history_range"),
                    ("original_mean", "history_original_mean"),
                ):
                    if redone[key] != stored_summary.get(stored_key):
                        problems.append(
                            f"probe_summary.json: {stored_key} does not match raw rows"
                        )
                checked += 1

    for name in ("summary.json", "probe_summary.json"):
        path = out / name
        if not path.exists():
            continue
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("config_hash") != expected:
            problems.append(f"{name}: embedded config_hash mismatch")
        if payload.get("seed") != cfg.seed:
            problems.append(f"{name}: embedded seed mismatch")
        checked += 1

    for name in ("sft_model.bin", "rl_model.bin"):
        path = out / name
        if not path.exists():
            continue
        _, embedded_hash, embedded_seed = load_checkpoint(path)
        if embedded_hash != expected:
            problems.append(f"{name}: checkpoint config_hash mismatch")
        if embedded_seed != cfg.seed:
            problems.append(f"{name}: checkpoint seed {embedded_seed} != {cfg.seed}")
        checked += 1

    for name in ("probe_position.svg", "curve_sft.svg", "curve_rl.svg"):
        path = out / name
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        start = text.find("<desc>")
        end = text.find("</desc>")
        if start == -1 or end == -1:
            problems.append(f"{name}: missing embedded header")
        else:
            meta = parse_report_header(text[start + len("<desc>") : end])
            if meta["config_hash"] != expected:
                problems.append(f"{name}: embedded config_hash mismatch")
        checked += 1

    if checked == 0:
        raise DataFormatError(f"nothing to verify under {out}")
    if problems:
        for p in problems:
            print(f"verify: {p}", file=sys.stderr)
        return 2
    print(f"verify: {checked} artifacts consistent with config {expected[:12]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plrank",
        description="Rationale-to-rank trainer on a synthetic recommendation world.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON run config (defaults used if absent)")
        p.add_argument("--out", default="run", help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("gen-data", help="generate the world and ranking instances")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("build-sft", help="build the filtered teacher corpus")
    common(p)
    p.set_defaults(fn=cmd_build_sft)

    p = sub.add_parser("train", help="run one training stage")
    common(p)
    p.add_argument("--stage", choices=("sft", "rl"), required=True)
    p.add_argument("--init", default=None, help="initial checkpoint path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="greedy evaluation with confidence intervals")
    common(p)
    p.add_argument("--ckpt", default=None, help="checkpoint to evaluate")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("probe", help="presentation and history-order leak probes")
    common(p)
    p.add_argument("--ckpt", default=None, help="checkpoint to probe")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("report", help="render charts from metrics files")
    common(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("verify", help="check artifact headers against the config")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, DataFormatError, FileNotFoundError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
