"""Greedy evaluation, strata breakdowns, and two leakage probes.

Evaluation decodes one greedy rationale per candidate, ranks
candidates by descending head score (presentation index breaks ties, so the
ranking is a pure function of the scores), and reports truncated ranking
quality with normal-approximation confidence intervals. The probes hunt for
two specific bugs: scores that depend on slate position, and scores that
secretly depend on history order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .policy import PolicyConfig, Vocab, decode_slate
from .rank import ndcg
from .rng import KeyedStreams
from .world import RankingInstance, UserContext


def rank_by_scores(scores: np.ndarray) -> np.ndarray:
    """Slot indices in descending score order; earlier slots win ties."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), -scores))


def score_instance(
    params: dict[str, np.ndarray],
    instance: RankingInstance,
    pcfg: PolicyConfig,
    vocab: Vocab,
    cot: bool = True,
) -> tuple[np.ndarray, list]:
    """Greedy rationale per candidate; scores and rationales in presentation order."""
    _, row_of_slot, rats, scores = decode_slate(
        params, instance.ctx, instance.candidates, pcfg, vocab, cot
    )
    return scores, [rats[row] for row in row_of_slot]


@dataclass
class InstanceResult:
    instance_id: str
    ndcg: dict[int, float]           # cutoff -> value
    positive_rank: int               # 0-based rank of the positive candidate
    history_length: int
    positive_train_frequency: int
    scores: np.ndarray


@dataclass
class EvalReport:
    cutoffs: tuple[int, ...]
    n_instances: int
    n_excluded: int                  # all-zero relevance, skipped from means
    mean: dict[int, float] = field(default_factory=dict)
    ci95: dict[int, float] = field(default_factory=dict)
    results: list[InstanceResult] = field(default_factory=list)


def evaluate(
    params: dict[str, np.ndarray],
    instances: list[RankingInstance],
    pcfg: PolicyConfig,
    cutoffs: tuple[int, ...] = (1, 5, 10),
    cot: bool = True,
) -> EvalReport:
    """Greedy decoding evaluation over a split."""
    if not instances:
        raise ContractViolation("nothing to evaluate")
    vocab = pcfg.vocab()
    report = EvalReport(cutoffs=tuple(cutoffs), n_instances=0, n_excluded=0)
    per_cutoff: dict[int, list[float]] = {c: [] for c in cutoffs}
    for inst in instances:
        if sum(inst.relevance) == 0:
            report.n_excluded += 1
            continue
        scores, _ = score_instance(params, inst, pcfg, vocab, cot=cot)
        ranking = rank_by_scores(scores)
        values = {c: ndcg(ranking, inst.relevance, c) for c in cutoffs}
        for c in cutoffs:
            per_cutoff[c].append(values[c])
        positive_rank = int(np.nonzero(ranking == inst.positive_index())[0][0])
        report.results.append(
            InstanceResult(
                instance_id=inst.instance_id,
                ndcg=values,
                positive_rank=positive_rank,
                history_length=len(inst.ctx.history),
                positive_train_frequency=inst.candidates[inst.positive_index()].train_frequency,
                scores=scores,
            )
        )
        report.n_instances += 1
    for c in cutoffs:
        vals = np.asarray(per_cutoff[c])
        report.mean[c] = float(vals.mean()) if vals.size else float("nan")
        report.ci95[c] = (
            float(1.96 * vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else float("nan")
        )
    return report


# ---------------------------------------------------------------------------
# Strata
# ---------------------------------------------------------------------------

INDUSTRIAL_TIERS = (
    ("zero", 0, 0),
    ("low", 1, 5),
    ("high", 6, None),
)


def frequency_quartile_edges(frequencies: np.ndarray) -> np.ndarray:
    """Quartile boundaries of positive-item training frequency."""
    return np.quantile(np.asarray(frequencies, dtype=np.float64), [0.25, 0.5, 0.75])


def stratify(report: EvalReport, cutoff: int, history_bins: tuple[int, ...] = (0, 1, 4, 10)) -> dict:
    """Mean quality by popularity quartile, industrial tier, and history bin."""
    if cutoff not in report.cutoffs:
        raise ContractViolation(f"cutoff {cutoff} was not evaluated")
    freqs = np.array([r.positive_train_frequency for r in report.results])
    values = np.array([r.ndcg[cutoff] for r in report.results])
    hist = np.array([r.history_length for r in report.results])
    out: dict[str, dict] = {"frequency_quartiles": {}, "industrial_tiers": {}, "history_bins": {}}
    if values.size == 0:
        return out
    edges = frequency_quartile_edges(freqs)
    quartile = np.searchsorted(edges, freqs, side="right")
    for q in range(4):
        mask = quartile == q
        out["frequency_quartiles"][f"q{q + 1}"] = {
            "n": int(mask.sum()),
            "mean": float(values[mask].mean()) if mask.any() else float("nan"),
        }
    for name, lo, hi in INDUSTRIAL_TIERS:
        mask = freqs >= lo if hi is None else (freqs >= lo) & (freqs <= hi)
        out["industrial_tiers"][name] = {
            "n": int(mask.sum()),
            "mean": float(values[mask].mean()) if mask.any() else float("nan"),
        }
    bins = sorted(history_bins)
    for i, lo in enumerate(bins):
        hi = bins[i + 1] - 1 if i + 1 < len(bins) else None
        mask = hist >= lo if hi is None else (hist >= lo) & (hist <= hi)
        label = f"{lo}+" if hi is None else (f"{lo}" if hi == lo else f"{lo}-{hi}")
        out["history_bins"][label] = {
            "n": int(mask.sum()),
            "mean": float(values[mask].mean()) if mask.any() else float("nan"),
        }
    return out


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def presentation_index_scorer(params, instance, pcfg, vocab, cot=True):
    """Reference scorer with a deliberate slate-position leak, for probe tests."""
    k = len(instance.candidates)
    return np.arange(k, 0, -1, dtype=np.float64), [None] * k


@dataclass
class PositionProbeResult:
    slots: tuple[int, ...]
    histograms: dict[int, np.ndarray]  # probe slot -> rank histogram of the moved item
    identical: bool
    max_spread: int                    # worst rank difference for any (instance, slot) pair


def probe_position(
    params: dict[str, np.ndarray],
    instances: list[RankingInstance],
    pcfg: PolicyConfig,
    slots: tuple[int, ...] = (1, 10, 20),
    scorer=score_instance,
    cot: bool = True,
) -> PositionProbeResult:
    """Move the positive candidate to fixed slots; its rank must not care.

    For every instance the positive item is moved to each probe slot (other
    candidates keep their relative order) and the slate is rescored. A clean
    model gives the item an identical rank in every arrangement; any spread
    is a presentation leak.
    """
    if not instances:
        raise ContractViolation("nothing to probe")
    vocab = pcfg.vocab()
    slots = tuple(int(s) for s in slots)
    histograms = {s: np.zeros(0, dtype=np.int64) for s in slots}
    ranks_by_slot: dict[int, list[int]] = {s: [] for s in slots}
    max_spread = 0
    for inst in instances:
        k = len(inst.candidates)
        pos = inst.positive_index()
        rest = [i for i in range(k) if i != pos]
        inst_ranks = []
        for slot in slots:
            target = min(slot, k) - 1  # clamp 1-based probe slots into range
            order = rest[:target] + [pos] + rest[target:]
            moved = RankingInstance(
                instance_id=inst.instance_id,
                ctx=inst.ctx,
                candidates=tuple(inst.candidates[i] for i in order),
                relevance=tuple(inst.relevance[i] for i in order),
            )
            scores, _ = scorer(params, moved, pcfg, vocab, cot=cot)
            ranking = rank_by_scores(scores)
            rank = int(np.nonzero(ranking == target)[0][0])
            ranks_by_slot[slot].append(rank)
            inst_ranks.append(rank)
        max_spread = max(max_spread, max(inst_ranks) - min(inst_ranks))
    depth = max(len(inst.candidates) for inst in instances)
    for s in slots:
        histograms[s] = np.bincount(np.asarray(ranks_by_slot[s]), minlength=depth)
    first = histograms[slots[0]]
    identical = all(np.array_equal(histograms[s], first) for s in slots)
    return PositionProbeResult(
        slots=slots, histograms=histograms, identical=identical, max_spread=max_spread
    )


@dataclass
class HistoryShuffleResult:
    original_mean: float
    shuffle_means: np.ndarray  # (n_shuffles,) test-set mean per reshuffle
    avg: float
    std: float
    range: float


def probe_history_shuffle(
    params: dict[str, np.ndarray],
    instances: list[RankingInstance],
    pcfg: PolicyConfig,
    cutoff: int = 10,
    n_shuffles: int = 10,
    seed: int = 0,
    cot: bool = True,
) -> HistoryShuffleResult:
    """Measure sensitivity of test quality to history event order.

    Each pass reshuffles every instance's history (keyed per shuffle and
    instance, never by position) and re-evaluates the whole set with
    `evaluate`, so the unshuffled mean is exactly the evaluated mean.
    """
    if not instances:
        raise ContractViolation("nothing to probe")
    streams = KeyedStreams(seed)
    original = evaluate(params, instances, pcfg, cutoffs=(cutoff,), cot=cot).mean[cutoff]
    means = []
    for shuffle_idx in range(n_shuffles):
        shuffled = []
        for inst in instances:
            order = streams.stream("hshuffle", shuffle_idx, inst.instance_id).permutation(
                len(inst.ctx.history)
            )
            ctx = UserContext(
                user_id=inst.ctx.user_id,
                profile_tokens=inst.ctx.profile_tokens,
                history=tuple(inst.ctx.history[i] for i in order),
            )
            shuffled.append(
                RankingInstance(
                    instance_id=inst.instance_id,
                    ctx=ctx,
                    candidates=inst.candidates,
                    relevance=inst.relevance,
                )
            )
        means.append(evaluate(params, shuffled, pcfg, cutoffs=(cutoff,), cot=cot).mean[cutoff])
    means = np.asarray(means)
    return HistoryShuffleResult(
        original_mean=original,
        shuffle_means=means,
        avg=float(means.mean()),
        std=float(means.std(ddof=0)),
        range=float(means.max() - means.min()),
    )
