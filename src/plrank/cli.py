"""Command-line pipeline: generate data, clone, fine-tune, evaluate, probe.

Every command reads one JSON config, writes its artifacts under --out, and
embeds the config hash and seed in everything it emits. Commands are
idempotent: re-running with the same inputs rewrites byte-identical outputs
(metrics CSVs differ only in their wallclock column). Errors print a single
machine-readable line on stderr and exit nonzero.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .atomic import atomic_write
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
from .policy import init_params, load_checkpoint, param_shapes, save_checkpoint, serialize_context
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
from .training import METRICS_COLUMNS, MetricsWriter, rl_train, sft_train
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


def _load_instances(out: Path, split: str, cfg: RunConfig):
    path = _instances_path(out, split)
    if not path.exists():
        raise DataFormatError(f"missing {path}; run gen-data first")
    return load_instances_jsonl(path, policy_config(cfg).vocab(), max_history=cfg.data.L)


def _load_params(path, pcfg) -> tuple[dict, str]:
    """A checkpoint's tensors, each checked against the model's `param_shapes`,
    and its config hash, unchecked: an RL run may change its `rl` settings
    over the same SFT checkpoint."""
    params, embedded_hash, _ = load_checkpoint(path)
    shapes = param_shapes(pcfg)
    for name in sorted(params.keys() | shapes.keys()):
        if name not in shapes:
            fault = "is not a tensor of the model"
        elif name not in params:
            fault = "is missing"
        elif params[name].shape != shapes[name]:
            fault = f"has shape {params[name].shape}, the model's is {shapes[name]}"
        else:
            continue
        raise DataFormatError(f"{path}: tensor {name} {fault}")
    return params, embedded_hash


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
        print(f"gen-data {split}: {len(instances)} instances")
    return 0


def cmd_build_sft(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    vocab = policy_config(cfg).vocab()
    instances, _ = _load_instances(out, "train", cfg)
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
            "kept": len(examples),
            "rejected": stats.rejected,
            "kept_positive": stats.kept_positive,
        },
    )
    print(f"build-sft: kept {len(examples)} rejected {stats.rejected}")
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
        examples, _ = load_sft_jsonl(sft_path, pcfg.vocab(), max_len=pcfg.max_len)
        if args.init is not None:
            params, _ = _load_params(args.init, pcfg)
        else:
            params = init_params(pcfg, substream(cfg.seed, "init", "policy"))
        # the metrics file is replaced only once the checkpoint is written
        with atomic_write(out / "metrics_sft.csv", "w", encoding="utf-8", newline="") as fh:
            metrics = MetricsWriter(fh, h, cfg.seed)
            rows = sft_train(params, examples, pcfg, tcfg, seed=cfg.seed, metrics=metrics)
            save_checkpoint(out / "sft_model.bin", params, h, cfg.seed)
        final = -rows[-1]["ppo_obj"] if rows else float("nan")
        print(f"train sft: {len(rows)} steps, final nll {final:.4f}")
        return 0
    instances, _ = _load_instances(out, "train", cfg)
    # the reward, NDCG, is undefined for a slate with no relevant candidate
    unjudged = [inst.instance_id for inst in instances if not any(inst.relevance)]
    if unjudged:
        raise DataFormatError(
            f"{_instances_path(out, 'train')}: instance {unjudged[0]!r} has no relevant candidate"
        )
    init_path = args.init if args.init is not None else out / "sft_model.bin"
    if not Path(init_path).exists():
        raise DataFormatError(f"missing init checkpoint {init_path}; train the sft stage first")
    params, _ = _load_params(init_path, pcfg)
    with atomic_write(out / "metrics_rl.csv", "w", encoding="utf-8", newline="") as fh:
        metrics = MetricsWriter(fh, h, cfg.seed)
        rows = rl_train(params, instances, pcfg, tcfg, seed=cfg.seed, metrics=metrics)
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
    params, embedded_hash = _load_params(path, policy_config(cfg))
    expected = config_hash(cfg)
    if embedded_hash != expected:
        raise DataFormatError(
            f"checkpoint {path} was trained under config {embedded_hash[:12]}, "
            f"current config is {expected[:12]}"
        )
    return params, path


def _eval_instances(cfg: RunConfig, out: Path):
    instances, _ = _load_instances(out, cfg.eval.split, cfg)
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
        _, header, rows = read_table(path)
        try:
            step_at, value_at = header.index("step"), header.index(column)
            steps = [float(row[step_at]) for row in rows if row[value_at]]
            values = [float(row[value_at]) for row in rows if row[value_at]]
        except (ValueError, IndexError) as exc:  # a missing column, a short row, not a number
            raise DataFormatError(f"{path}: {exc}") from exc
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


# what the stages write, by command; each embeds its config hash and seed
ARTIFACTS = (
    "effective_config.json", *(f"instances_{split}.jsonl" for split in SPLITS), "sft.jsonl",
    "metrics_sft.csv", "sft_model.bin", "metrics_rl.csv", "rl_model.bin",
    "eval.csv", "strata.csv", "summary.json",
    "probe_position.csv", "probe_position.svg", "probe_history.csv", "probe_summary.json",
    "curve_sft.svg", "curve_rl.svg",
)


def _provenance(path: Path) -> tuple[str, int]:
    """The config hash and seed that the artifact's writer embedded in it."""
    if path.suffix == ".bin":
        _, embedded_hash, seed = load_checkpoint(path)
        return embedded_hash, seed
    with open(path, "r", encoding="utf-8") as fh:
        # a table's or a data file's header is its first line
        text = fh.readline() if path.suffix in (".csv", ".jsonl") else fh.read()
    if path.suffix == ".csv":
        meta = parse_report_header(text)
    elif path.suffix == ".svg":
        start, end = text.find("<desc>"), text.find("</desc>")
        if start == -1 or end == -1:
            raise DataFormatError("missing embedded header")
        meta = parse_report_header(text[start + len("<desc>") : end])
    else:
        try:
            meta = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"header is not JSON: {exc}") from exc
        if path.name == "effective_config.json":
            stored = run_config_from_dict(meta)
            return config_hash(stored), stored.seed
        if not (
            isinstance(meta, dict)
            and isinstance(meta.get("config_hash"), str)
            and isinstance(meta.get("seed"), int)
        ):
            raise DataFormatError("header carries no config_hash string and seed integer")
    return meta["config_hash"], meta["seed"]


def _content_problems(out: Path, name: str) -> list[str]:
    """What verify checks beyond provenance: a metrics table's columns, and
    the probe summary recomputed from the history probe's raw rows."""
    if name.startswith("metrics_"):
        header = read_table(out / name)[1]
        if tuple(header) != METRICS_COLUMNS:
            return [f"{name}: columns {','.join(header)} != {','.join(METRICS_COLUMNS)}"]
    history = out / "probe_history.csv"
    if name == "probe_summary.json" and history.exists():
        stored = json.loads((out / name).read_text(encoding="utf-8"))
        try:
            redone = summarize_history_probe(read_table(history)[2])
        except DataFormatError as exc:
            raise DataFormatError(f"{history.name}: {exc}") from exc
        return [
            f"{name}: history_{field} does not match raw rows"
            for field in ("original_mean", "avg", "std", "range")
            if getattr(redone, field) != stored.get(f"history_{field}")
        ]
    return []


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    expected = config_hash(cfg)
    present = [name for name in ARTIFACTS if (out / name).exists()]
    if not present:
        raise DataFormatError(f"nothing to verify under {out}")
    problems = []
    for name in present:
        try:
            embedded_hash, seed = _provenance(out / name)
            content = _content_problems(out, name)
        except (ConfigError, DataFormatError, UnicodeDecodeError) as exc:
            # a reader that names the file names it by its path; say it once
            problems.append(f"{name}: {str(exc).removeprefix(f'{out / name}: ')}")
            continue
        if embedded_hash != expected:
            problems.append(f"{name}: config_hash {embedded_hash[:12]} != {expected[:12]}")
        if seed != cfg.seed:
            problems.append(f"{name}: seed {seed} != {cfg.seed}")
        problems += content
    if problems:
        for p in problems:
            print(f"verify: {p}", file=sys.stderr)
        return 2
    print(f"verify: {len(present)} artifacts consistent with config {expected[:12]}")
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
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, DataFormatError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
