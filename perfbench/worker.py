"""One measured process of the benchmark.

`run.py` starts this script in a fresh process with one BLAS thread. It builds
a workload's inputs from the desk config (the default `RunConfig`), runs the
workload's ops on a schedule drawn from `--seed`, checks the program's outputs,
and prints one JSON object as the last line of its standard output.

Modes:
  setup       build the inputs, report the CPU seconds that took, exit
  timed       build, then run the ops with no tracing; end-to-end figures
  traced      build and run with a span at every layer boundary; per-layer figures
  checkpoint  train the teacher-cloned checkpoint that rl_finetune and
              eval_probe start from, and write it to --ckpt
"""
from __future__ import annotations

import argparse
import collections
import dataclasses
import gc
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import plrank.autodiff as AD  # noqa: E402
import plrank.evaluation as E  # noqa: E402
import plrank.policy as P  # noqa: E402
import plrank.rank as R  # noqa: E402
import plrank.training as T  # noqa: E402
import plrank.world as W  # noqa: E402
from plrank.config import RunConfig, config_hash, policy_config, stage_config  # noqa: E402
from plrank.rng import KeyedStreams, substream  # noqa: E402

from checkers import is_permutation, ndcg_single_positive, positive_rank, rank_in_ranking  # noqa: E402
from tracer import GC_SPAN, Tracer  # noqa: E402

WORKLOADS = ("sft_clone", "rl_finetune", "eval_probe")

# Work per second of run length: SFT steps, RL steps, and eval instances (each
# instance is scored 15 times: evaluate, three probe slots, and the history
# probe's original plus ten shuffles). The rates were measured on the reference
# machine, so a run lasts about --seconds there; the work, not the time, is
# fixed, so every commit does the same ops and the same allocations.
WORK_RATE = {"sft_clone": 18.0, "rl_finetune": 13.5, "eval_probe": 4.7}
MIN_OPS = 100          # so that ten timed ops fall beyond the 90th percentile
WARMUP = 3             # untimed ops before the timed loop
CHECKPOINT_SFT_STEPS = 600
# rl_finetune restarts from the checkpoint, with a fresh Adam, every this many
# steps. Left to run on, the policy drifts within tens of steps: on one seed the
# rationales shrank from 12 to 3 tokens over 150 steps, on another they grew,
# and the op cost moved with them.
RL_EPISODE = 8
HELDOUT_ROWS = 16
# sft_clone draws this many candidate batches per step and keeps a stratified
# sample of them by padded length (see stratified_pick).
SFT_POOL = 8
# In a traced op, the self times of all its spans must add up to the op's CPU
# time as the op timer reads it, to within this fraction.
MAX_SELF_SUM_GAP = 0.01

# Tape node kinds reported one by one; anything else is counted as "other".
NODE_KINDS = (
    "leaf", "add", "mul", "scale", "matmul", "softmax", "log_softmax", "logsumexp",
    "exp", "tanh", "relu", "asum", "index_select", "reshape", "swapaxes",
    "broadcast_to", "minimum", "clip",
)

clock = time.process_time


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    cfg: RunConfig
    world: W.World
    counts: np.ndarray
    instances: list
    corpus: list | None
    params: dict


def build_inputs(workload: str, seed: int, ckpt: str | None) -> Inputs:
    """Everything a user builds before the first op: world, instances, corpus, weights."""
    cfg = RunConfig()
    pcfg = policy_config(cfg)
    world = W.generate_world(cfg.world, cfg.seed)
    counts = W.train_positive_counts(world)
    split = "test" if workload == "eval_probe" else "train"
    instances, _ = W.build_instances(world, split, K=cfg.data.K, L=cfg.data.L, train_counts=counts)
    corpus = None
    if workload == "sft_clone":
        vocab = pcfg.vocab()
        corpus, _ = W.build_sft_corpus(
            instances,
            cfg.data.noise_rate,
            seed=cfg.seed,
            vocab=vocab,
            serialize_fn=lambda ctx, item: P.serialize_context(ctx, item, vocab),
            selfcheck_k=cfg.data.selfcheck_k,
        )
        params = P.init_params(pcfg, substream(seed, "init", "policy"))
    else:
        params, _, _ = P.load_checkpoint(ckpt)
    return Inputs(cfg, world, counts, instances, corpus, params)


def slates_per_instance(cfg: RunConfig) -> int:
    """evaluate, one rescoring per probe slot, the history probe's original and shuffles."""
    return 2 + len(cfg.eval.probe_slots) + cfg.eval.n_shuffles


def work_units(workload: str, seconds: float, inp: Inputs) -> int:
    n = math.ceil(seconds * WORK_RATE[workload])
    if workload == "eval_probe":
        per_instance = slates_per_instance(inp.cfg)
        return max(math.ceil(MIN_OPS / per_instance), min(n, len(inp.instances) - WARMUP))
    return max(MIN_OPS, n)


def stratified_pick(items: list, n: int, rng: np.random.Generator, cost) -> list:
    """n items: the costliest one, and one drawn from each of n - 1 equal strata
    of `cost` among the rest.

    Op time and op garbage grow with the sequence length. One item per stratum
    gives every seed the same spread of op costs; the costliest item sets the
    peak memory, so every seed has it. A fixed golden-ratio order of the strata
    spreads long and short sequences evenly over the run, so every seed piles
    up about the same garbage between two runs of the cyclic collector.
    """
    by_cost = sorted(range(len(items)), key=lambda i: cost(items[i]))
    picks = [int(rng.choice(stratum)) for stratum in np.array_split(np.asarray(by_cost[:-1]), n - 1)]
    picks.append(by_cost[-1])
    spread = np.argsort((np.arange(n) * 0.6180339887498949) % 1.0, kind="stable")
    return [items[picks[s]] for s in spread]


def history_length(instance) -> int:
    return len(instance.ctx.history)


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    op_s: list = field(default_factory=list)         # CPU seconds per timed op
    loop_s: float = 0.0                               # CPU seconds of the timed loop
    tokens: int = 0                                   # real token positions of timed ops
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)      # failed run-level checks
    gen_lens: list = field(default_factory=list)      # rationale lengths (rl_finetune)
    rss_after_op: list = field(default_factory=list)  # MB, traced runs only
    info: dict = field(default_factory=dict)


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class OpRunner:
    """Times ops on the CPU clock and, in traced runs, opens each op's root span."""

    def __init__(self, out: Outcome, tracer: Tracer | None):
        self.out = out
        self.tracer = tracer

    def __call__(self, name: str, fn, *args):
        """One timed op; returns its result, or None when it raised."""
        if self.tracer is not None:
            self.tracer.begin_op(name)
        t0 = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            log(f"op {self.out.attempted} raised {type(exc).__name__}: {exc}")
            result = None
        finally:
            elapsed = clock() - t0
            if self.tracer is not None:
                self.tracer.end_op()
        self.out.op_s.append(elapsed)
        self.out.loop_s += elapsed
        self.out.attempted += 1
        if result is None:
            self.out.failed += 1
        if self.tracer is not None:
            self.out.rss_after_op.append(rss_mb())
        return result


def begin_timed_loop(tracer: Tracer | None) -> None:
    """Counts from set-up and warm-up are not per-op work."""
    if tracer is not None:
        tracer.counts.clear()


def end_timed_loop(out: Outcome, tracer: Tracer | None) -> None:
    """Record the peak before the checks run, and trace none of the checks."""
    out.info["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()


def finite(loss: float, grads: dict) -> bool:
    return bool(np.isfinite(loss)) and all(np.all(np.isfinite(g)) for g in grads.values())


def run_sft_clone(inp: Inputs, seed: int, n_ops: int, tracer: Tracer | None) -> Outcome:
    cfg = inp.cfg
    pcfg = policy_config(cfg)
    tcfg = stage_config(cfg, "sft")
    labels = np.array([ex.ground_truth for ex in inp.corpus])
    by_label = (np.flatnonzero(labels == 0), np.flatnonzero(labels == 1))
    pool = []  # batches drawn as sft_train draws them: a fair coin per row picks its label
    for j in range(SFT_POOL * (WARMUP + n_ops)):
        rng = substream(seed, "bench", "sft", j)
        picks = [by_label[l][rng.integers(0, by_label[l].size)] for l in rng.integers(0, 2, tcfg.batch_size)]
        pool.append([inp.corpus[int(i)] for i in picks])
    batches = stratified_pick(
        pool, WARMUP + n_ops, substream(seed, "bench", "sft-pick"),
        cost=lambda batch: max(ex.prefix.size + ex.target.size for ex in batch),
    )
    opt = T.Adam(inp.params, tcfg.lr_policy, tcfg.lr_head)

    def step(batch):
        loss, grads = T.sft_batch_loss(inp.params, batch, pcfg)
        opt.step(inp.params, grads)
        return loss, grads

    out = Outcome()
    losses = []
    for batch in batches[:WARMUP]:
        loss, _ = step(batch)
        losses.append(loss)
    begin_timed_loop(tracer)
    run_op = OpRunner(out, tracer)
    for batch in batches[WARMUP:]:
        result = run_op("op", step, batch)
        out.tokens += sum(ex.prefix.size + ex.target.size for ex in batch)
        if result is None:
            continue
        loss, grads = result
        losses.append(loss)
        if not finite(loss, grads):
            out.failed += 1
    end_timed_loop(out, tracer)

    ln_v = math.log(pcfg.vocab().size)
    if abs(losses[0] - ln_v) > 0.05 * ln_v:
        out.problems.append(f"first NLL {losses[0]:.4f} is not within 5% of ln(vocab) {ln_v:.4f}")
    tenth = max(1, len(losses) // 10)
    first, last = float(np.mean(losses[:tenth])), float(np.mean(losses[-tenth:]))
    if not last < first:
        out.problems.append(f"NLL did not fall: first tenth {first:.4f}, last tenth {last:.4f}")
    gap = heldout_gap(inp, seed)
    if not gap <= 1e-9:
        out.problems.append(f"tape and numpy NLL differ by {gap:.3e} on the held-out batch")
    out.info.update(nll_first=losses[0], nll_first_tenth=first, nll_last_tenth=last, heldout_gap=gap)
    return out


def heldout_gap(inp: Inputs, seed: int) -> float:
    """|tape NLL - numpy NLL| on a batch from the valid split, which SFT never sees."""
    cfg = inp.cfg
    pcfg = policy_config(cfg)
    vocab = pcfg.vocab()
    valid, _ = W.build_instances(inp.world, "valid", K=cfg.data.K, L=cfg.data.L, train_counts=inp.counts)
    examples, _ = W.build_sft_corpus(
        valid[:2], cfg.data.noise_rate, seed=cfg.seed, vocab=vocab,
        serialize_fn=lambda ctx, item: P.serialize_context(ctx, item, vocab),
        selfcheck_k=cfg.data.selfcheck_k,
    )
    rng = substream(seed, "bench", "heldout")
    batch = [examples[int(i)] for i in rng.choice(len(examples), HELDOUT_ROWS, replace=False)]
    tape_nll, _ = T.sft_batch_loss(inp.params, batch, pcfg, train=False)
    total = sum(float(-P.token_log_probs(inp.params, ex.prefix, ex.target, pcfg).sum()) for ex in batch)
    return abs(tape_nll - total / sum(ex.target.size for ex in batch))


def run_rl_finetune(inp: Inputs, seed: int, n_ops: int, tracer: Tracer | None) -> Outcome:
    cfg = inp.cfg
    pcfg = policy_config(cfg)
    tcfg = stage_config(cfg, "rl")
    vocab = pcfg.vocab()
    schedule = stratified_pick(inp.instances, WARMUP + n_ops, substream(seed, "bench", "rl"), history_length)
    streams = KeyedStreams(seed)
    out = Outcome()
    run_op = OpRunner(out, tracer)
    for step, inst in enumerate(schedule):
        if step % RL_EPISODE == 0:  # inp.params stays the checkpoint; each episode trains a copy
            params = P.clone_params(inp.params)
            opt = T.Adam(params, tcfg.lr_policy, tcfg.lr_head)
        if step < WARMUP:
            T.rl_step(params, opt, [inst], pcfg, tcfg, vocab, streams, step)
            continue
        if step == WARMUP:
            begin_timed_loop(tracer)
        result = run_op("op", T.rl_step, params, opt, [inst], pcfg, tcfg, vocab, streams, step)
        if result is None:
            continue
        stats, records = result
        (record,) = records
        lens = [len(r.tokens) for r in record.rationales]
        out.gen_lens.extend(lens)
        out.tokens += len(lens) * record.prefix_len + sum(lens)
        if not rl_outputs_ok(record, stats, tcfg, pcfg):
            out.failed += 1
    end_timed_loop(out, tracer)
    return out


def rl_outputs_ok(record, stats, tcfg, pcfg) -> bool:
    k = len(record.instance.candidates)
    positive = record.instance.relevance.index(1)
    for perm, reward in zip(record.rankings, record.rewards):
        if not is_permutation(perm, k):
            return False
        expected = ndcg_single_positive(rank_in_ranking(perm, positive), tcfg.reward_cutoff)
        if abs(reward - expected) > 1e-12:
            return False
    if abs(stats.ppo_obj - stats.mean_reward) > 1e-10:
        return False
    return all(
        1 <= len(r.tokens) <= pcfg.max_gen and np.all(r.token_logprobs <= 0.0)
        for r in record.rationales
    )


def run_eval_probe(inp: Inputs, seed: int, n_instances: int, tracer: Tracer | None) -> Outcome:
    cfg = inp.cfg
    pcfg = policy_config(cfg)
    vocab = pcfg.vocab()
    picked = stratified_pick(inp.instances, WARMUP + n_instances, substream(seed, "bench", "eval"), history_length)
    warm, insts = picked[:WARMUP], picked[WARMUP:]
    prefix_len = {i.instance_id: P.serialize_context(i.ctx, i.candidates[0], vocab).size for i in insts}
    for inst in warm:
        E.score_instance(inp.params, inst, pcfg, vocab)

    out = Outcome()
    scored = []  # (instance, scores, rationale lengths) per op, checked after the round
    run_op = OpRunner(out, tracer)
    inner = E.score_instance

    def hooked(params, instance, pcfg, vocab, cot=True):
        result = run_op("evaluation.score_instance", inner, params, instance, pcfg, vocab, cot)
        if result is None:
            raise RuntimeError(f"score_instance failed on {instance.instance_id}")
        scored.append((instance, result[0], [len(r.tokens) for r in result[1]]))
        return result

    planned = len(insts) * slates_per_instance(cfg)
    E.score_instance = hooked  # evaluate and the history probe look the name up here
    begin_timed_loop(tracer)
    t0 = clock()
    try:
        report = E.evaluate(inp.params, insts, pcfg, cutoffs=cfg.eval.cutoffs, cot=cfg.rl.cot)
        position = E.probe_position(
            inp.params, insts, pcfg, slots=cfg.eval.probe_slots, scorer=hooked, cot=cfg.rl.cot
        )
        history = E.probe_history_shuffle(
            inp.params, insts, pcfg, cutoff=cfg.eval.history_cutoff,
            n_shuffles=cfg.eval.n_shuffles, seed=seed, cot=cfg.rl.cot,
        )
    except Exception as exc:  # a failed slate aborts the round; every op of it counts failed
        log(f"eval round raised {type(exc).__name__}: {exc}")
        out.attempted = out.failed = planned
        out.problems.append("the eval round did not complete")
        return out
    finally:
        out.loop_s = clock() - t0
        E.score_instance = inner
        end_timed_loop(out, tracer)

    out.tokens = sum(len(lens) * prefix_len[inst.instance_id] + sum(lens) for inst, _, lens in scored)
    out.failed += sum(not slate_ok(op, report, index, pcfg) for index, op in enumerate(scored))
    if not (position.identical and position.max_spread == 0):
        out.problems.append(f"position probe: identical={position.identical} spread={position.max_spread}")
    if abs(history.original_mean - report.mean[10]) > 1e-12:
        out.problems.append(
            f"history probe original mean {history.original_mean!r} != evaluate mean {report.mean[10]!r}"
        )
    ndcg10 = report.mean[10]
    if not 0.0 <= ndcg10 <= 1.0:
        out.problems.append(f"NDCG@10 {ndcg10!r} is outside [0, 1]")
    out.info.update(ndcg10=ndcg10, instances=n_instances)
    log(f"checkpoint NDCG@10 on {n_instances} test instances: {ndcg10:.4f} (random level 0.227)")
    return out


def slate_ok(op, report, index: int, pcfg) -> bool:
    """Per-slate checks; the first slates are evaluate's, one per instance, in order."""
    inst, scores, lens = op
    if not (np.all(np.isfinite(scores)) and all(1 <= n <= pcfg.max_gen for n in lens)):
        return False
    if index >= len(report.results):
        return True
    res = report.results[index]
    rank = positive_rank(scores, inst.positive_index())
    return (
        res.instance_id == inst.instance_id
        and rank == res.positive_rank
        and abs(ndcg_single_positive(rank, 10) - res.ndcg[10]) <= 1e-12
    )


RUNNERS = {"sft_clone": run_sft_clone, "rl_finetune": run_rl_finetune, "eval_probe": run_eval_probe}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def node_kinds(args, kwargs) -> dict:
    """Tape records by op kind, read off each node's backward closure."""
    tape = args[0]
    kinds = collections.Counter(
        "leaf" if node.backward_fn is None else node.backward_fn.__qualname__.split(".")[0]
        for node in tape.nodes
    )
    out = {"autodiff.nodes_per_op": len(tape.nodes)}
    for kind, n in kinds.items():
        key = f"autodiff.nodes.{kind if kind in NODE_KINDS else 'other'}"
        out[key] = out.get(key, 0) + n
    return out


def install_tracer() -> Tracer:
    tracer = Tracer(clock)
    tracer.install("world.generate", W, "generate_world")
    tracer.install("world.generate", W, "train_positive_counts")
    tracer.install("world.instances", W, "build_instances")
    tracer.install("world.corpus", W, "build_sft_corpus")
    tracer.install(None, W, "user_events", count=lambda a, k: {"world.user_events_calls": 1})
    tracer.install("policy.tape_forward", P, "forward_hidden_tape")
    tracer.install("policy.lm_head", P, "sequence_log_probs_tape")
    tracer.install(
        "policy.prefill", P, "_np_forward", count=lambda a, k: {"policy.prefill_tokens": int(np.size(a[1]))}
    )
    tracer.install("policy.decode", P, "_np_decode_step")
    tracer.install("policy.score_head", P, "score_hidden")
    tracer.install("policy.score_head", P, "head_score_tape")
    tracer.install("autodiff.backward", AD.Tape, "backward", count=node_kinds)
    tracer.install("training.rollout", T, "rollout")
    tracer.install("training.pl_log_prob", T, "pl_log_prob_tape")
    tracer.install("training.adam", T.Adam, "step")
    tracer.install("rank.pl_sample", R, "pl_sample_many")
    tracer.install("rank.reward", R, "ndcg")
    tracer.start_gc_spans()
    return tracer


def layer_metrics(tracer: Tracer, out: Outcome, world: dict) -> dict:
    n = max(1, len(out.op_s))
    own, incl, calls = tracer.totals()
    op_total = sum(out.op_s)
    root_self = own.get("op", 0.0) + own.get("evaluation.score_instance", 0.0)  # the ops' own code

    def ms(name):
        return own.get(name, 0.0) / n * 1000.0

    def per_op(key):
        return tracer.counts.get(key, 0) / n

    rollout_ms = incl.get("training.rollout", 0.0) / n * 1000.0
    update_ms = (op_total / n * 1000.0 - rollout_ms) if "training.rollout" in incl else 0.0
    values = {
        "world.generate_s": world.get("world.generate", 0.0),
        "world.instances_s": world.get("world.instances", 0.0),
        "world.user_events_calls": world.get("world.user_events_calls", 0),
        "world.corpus_s": world.get("world.corpus", 0.0),
        "policy.tape_forward_ms": ms("policy.tape_forward"),
        "policy.lm_head_ms": ms("policy.lm_head"),
        "policy.prefill_ms": ms("policy.prefill"),
        "policy.prefill_tokens": per_op("policy.prefill_tokens"),
        "policy.decode_ms": ms("policy.decode"),
        "policy.decode_steps": calls.get("policy.decode", 0) / n,
        "policy.score_head_ms": ms("policy.score_head"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.nodes_per_op": per_op("autodiff.nodes_per_op"),
        **{f"autodiff.nodes.{kind}": per_op(f"autodiff.nodes.{kind}") for kind in NODE_KINDS + ("other",)},
        "autodiff.gc_pause_ms": ms(GC_SPAN),
        "autodiff.gc_collected": per_op("autodiff.gc_collected"),
        "autodiff.rss_after_op_mb": max(out.rss_after_op, default=0.0),
        "training.rollout_ms": rollout_ms,
        "training.update_ms": update_ms,
        "training.pl_log_prob_ms": ms("training.pl_log_prob"),
        "training.adam_ms": ms("training.adam"),
        "training.gen_len_mean": float(np.mean(out.gen_lens)) if out.gen_lens else 0.0,
        "rank.pl_sample_ms": ms("rank.pl_sample"),
        "rank.reward_ms": ms("rank.reward"),
        "evaluation.score_instance_ms": ms("evaluation.score_instance"),
        "evaluation.slates_scored": calls.get("evaluation.score_instance", 0),
        "trace.op_ms": op_total / n * 1000.0,
        "trace.op_self_ms": root_self / n * 1000.0,
        "trace.covered_share": 1.0 - root_self / op_total if op_total > 0 else 0.0,
        "trace.self_sum_gap": max(
            (abs(spans - timed) / timed for spans, timed in zip(tracer.op_self_sums(), out.op_s) if timed > 0),
            default=0.0,
        ),
    }
    return values


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


class _CollectEvery50Steps:
    """sft_train metrics sink that runs the cyclic collector every 50 steps.

    Each step's tape graph is a reference cycle; left to the default collector
    the 600 steps peaked at 1.9 GB, with this the build peaks near 780 MB.
    """

    def write_row(self, step, **_):
        if step % 50 == 49:
            gc.collect()


def make_checkpoint(path: Path) -> None:
    cfg = RunConfig()
    inp = build_inputs("sft_clone", cfg.seed, None)  # weights initialised as `plrank train` does
    tcfg = dataclasses.replace(stage_config(cfg, "sft"), steps=CHECKPOINT_SFT_STEPS)
    T.sft_train(inp.params, inp.corpus, policy_config(cfg), tcfg, seed=cfg.seed, metrics=_CollectEvery50Steps())
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    P.save_checkpoint(tmp, inp.params, config_hash(cfg), cfg.seed)
    os.replace(tmp, path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced", "checkpoint"))
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ckpt", default=None)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    if args.mode == "checkpoint":
        make_checkpoint(Path(args.ckpt))
        print(json.dumps({"checkpoint": args.ckpt, "cpu_s": clock()}))
        return 0

    tracer = install_tracer() if args.mode == "traced" else None
    inp = build_inputs(args.workload, args.seed, args.ckpt)
    setup_s = clock()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    world = {}
    if tracer is not None:
        _, incl, _ = tracer.totals(ops_only=False)
        world = {k: v for k, v in incl.items() if k.startswith("world.")}
        world["world.user_events_calls"] = tracer.counts.get("world.user_events_calls", 0)
    n = work_units(args.workload, args.seconds, inp)
    out = RUNNERS[args.workload](inp, args.seed, n, tracer)

    result = {"attempted": out.attempted, "failed": out.failed, "setup_s": setup_s}
    if tracer is not None:
        layers = layer_metrics(tracer, out, world)
        if not layers["trace.self_sum_gap"] <= MAX_SELF_SUM_GAP:
            out.problems.append(
                f"span self times miss an op's CPU time by {layers['trace.self_sum_gap']:.2%}"
            )
        result["layers"] = layers
        if args.trace_out:
            tracer.write(args.trace_out)
    result.update(problems=out.problems, info=out.info)
    result["e2e"] = {
        "ops_per_cpu_s": out.attempted / out.loop_s,
        "tokens_per_cpu_s": out.tokens / out.loop_s,
        "op_ms_p50": float(np.percentile(out.op_s, 50)) * 1000.0,
        "op_ms_p90": float(np.percentile(out.op_s, 90)) * 1000.0,
        "peak_rss_mb": out.info["peak_rss_mb"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
