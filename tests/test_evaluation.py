"""Tests for greedy evaluation, strata, probes, and report emitters."""
from __future__ import annotations

import numpy as np
import pytest

from plrank.errors import ContractViolation, DataFormatError
from plrank.evaluation import (
    EvalReport,
    InstanceResult,
    evaluate,
    frequency_quartile_edges,
    presentation_index_scorer,
    probe_history_shuffle,
    probe_position,
    rank_by_scores,
    score_instance,
    stratify,
)
from plrank.policy import PolicyConfig, init_params
from plrank.report import (
    parse_report_header,
    read_table,
    report_header,
    summarize_history_probe,
    write_eval_csv,
    write_grouped_bars_svg,
    write_history_probe_csv,
    write_line_chart_svg,
    write_position_probe_csv,
    write_strata_csv,
    write_summary_json,
)
from plrank.rng import substream
from plrank.world import RankingInstance, WorldConfig, build_instances, generate_world, train_positive_counts

WCFG = WorldConfig(n_users=80, n_items=60, m=4, exposure_pool=24)
PCFG = PolicyConfig(
    m=4, buckets=4, d_model=16, n_layers=2, n_heads=2, d_ff=32,
    max_len=96, max_gen=16, head_hidden=16, init_std=0.02,
)


def tiny_setup(seed: int = 3, split: str = "test", K: int = 4, L: int = 3):
    world = generate_world(WCFG, seed)
    instances, _ = build_instances(world, split, K=K, L=L, train_counts=train_positive_counts(world))
    return world, instances


def fresh_params(seed: int = 0):
    return init_params(PCFG, substream(seed, "init", "policy"))


def item_id_scorer(params, instance, pcfg, vocab, cot=True):
    """Presentation-blind reference: score is a pure function of the item."""
    return np.array([float(int(c.item_id[1:])) for c in instance.candidates]), None


def test_rank_by_scores_stable_ties():
    assert rank_by_scores(np.array([0.5, 0.9, 0.5])).tolist() == [1, 0, 2]
    assert rank_by_scores(np.array([1.0, 1.0, 1.0])).tolist() == [0, 1, 2]


def test_score_instance_presentation_invariant():
    world, instances = tiny_setup()
    params = fresh_params()
    inst = instances[0]
    k = len(inst.candidates)
    perm = substream(1, "p").permutation(k)
    shuffled = RankingInstance(
        instance_id=inst.instance_id,
        ctx=inst.ctx,
        candidates=tuple(inst.candidates[p] for p in perm),
        relevance=tuple(inst.relevance[p] for p in perm),
    )
    a, _ = score_instance(params, inst, PCFG, PCFG.vocab())
    b, _ = score_instance(params, shuffled, PCFG, PCFG.vocab())
    for s in range(k):
        assert b[s] == a[perm[s]]  # bitwise: same item, same score
    again, _ = score_instance(params, inst, PCFG, PCFG.vocab())
    assert np.array_equal(a, again)


def test_evaluate_report_consistency():
    world, instances = tiny_setup()
    params = fresh_params()
    report = evaluate(params, instances, PCFG, cutoffs=(1, 3), cot=True)
    assert report.n_instances == len(instances)
    assert report.n_excluded == 0
    for c in (1, 3):
        vals = np.array([r.ndcg[c] for r in report.results])
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert report.mean[c] == pytest.approx(vals.mean())
        assert report.ci95[c] == pytest.approx(1.96 * vals.std(ddof=1) / np.sqrt(vals.size))
    for r in report.results:
        assert 0 <= r.positive_rank < 4
        # rank 0 at cutoff 1 is exactly a hit, anything else a miss
        assert r.ndcg[1] == pytest.approx(1.0 if r.positive_rank == 0 else 0.0)


def test_evaluate_excludes_unjudged_instances():
    world, instances = tiny_setup()
    params = fresh_params()
    inst = instances[0]
    unjudged = RankingInstance(
        instance_id="dead",
        ctx=inst.ctx,
        candidates=inst.candidates,
        relevance=tuple(0 for _ in inst.relevance),
    )
    report = evaluate(params, [inst, unjudged], PCFG, cutoffs=(1,), cot=True)
    assert report.n_instances == 1
    assert report.n_excluded == 1
    with pytest.raises(ContractViolation):
        evaluate(params, [], PCFG, cutoffs=(1,), cot=True)


def synthetic_report() -> EvalReport:
    report = EvalReport(cutoffs=(10,), n_instances=12, n_excluded=0)
    freqs = [0, 0, 0, 1, 2, 3, 5, 6, 7, 10, 20, 40]
    hists = [0, 0, 1, 2, 3, 3, 4, 5, 9, 10, 12, 20]
    for i, (f, hl) in enumerate(zip(freqs, hists)):
        report.results.append(
            InstanceResult(
                instance_id=f"u{i}",
                ndcg={10: i / 11.0},
                positive_rank=i % 4,
                history_length=hl,
                positive_train_frequency=f,
            )
        )
    return report


def test_stratify_partitions_everything():
    report = synthetic_report()
    strata = stratify(report, cutoff=10)
    for group in ("frequency_quartiles", "industrial_tiers", "history_bins"):
        total = sum(cell["n"] for cell in strata[group].values())
        assert total == 12, group
    tiers = strata["industrial_tiers"]
    assert tiers["zero"]["n"] == 3
    assert tiers["low"]["n"] == 4
    assert tiers["high"]["n"] == 5
    bins = strata["history_bins"]
    assert bins["0"]["n"] == 2
    assert bins["1-3"]["n"] == 4
    assert bins["4-9"]["n"] == 3
    assert bins["10+"]["n"] == 3
    zero_vals = [r.ndcg[10] for r in report.results if r.positive_train_frequency == 0]
    assert tiers["zero"]["mean"] == pytest.approx(np.mean(zero_vals))
    with pytest.raises(ContractViolation):
        stratify(report, cutoff=5)


def test_frequency_quartiles_split_quarterly():
    freqs = np.arange(100)
    edges = frequency_quartile_edges(freqs)
    assert edges.tolist() == [24.75, 49.5, 74.25]


def test_position_probe_detects_leaky_scorer():
    world, instances = tiny_setup()
    result = probe_position(
        None, instances[:6], PCFG, slots=(1, 2, 4), cot=True, scorer=presentation_index_scorer
    )
    assert not result.identical
    assert result.max_spread > 0
    # the leaky scorer puts the moved item exactly at its slot
    assert result.histograms[1][0] == 6
    assert result.histograms[2][1] == 6
    assert result.histograms[4][3] == 6


def test_position_probe_passes_clean_scorer():
    world, instances = tiny_setup()
    result = probe_position(
        None, instances[:6], PCFG, slots=(1, 2, 4), cot=True, scorer=item_id_scorer
    )
    assert result.identical
    assert result.max_spread == 0
    for s in (2, 4):
        assert np.array_equal(result.histograms[s], result.histograms[1])


def test_position_probe_on_real_model_is_clean():
    world, instances = tiny_setup()
    params = fresh_params()
    result = probe_position(params, instances[:4], PCFG, slots=(1, 2, 4), cot=True)
    assert result.identical
    assert result.max_spread == 0


def test_history_shuffle_probe_shapes_and_determinism():
    world, instances = tiny_setup()
    params = fresh_params()
    a = probe_history_shuffle(params, instances[:5], PCFG, cutoff=3, n_shuffles=3, seed=9, cot=True)
    b = probe_history_shuffle(params, instances[:5], PCFG, cutoff=3, n_shuffles=3, seed=9, cot=True)
    assert a.shuffle_means.shape == (3,)
    assert np.array_equal(a.shuffle_means, b.shuffle_means)
    assert a.original_mean == b.original_mean
    assert a.avg == pytest.approx(a.shuffle_means.mean())
    assert a.std == pytest.approx(a.shuffle_means.std(ddof=0))
    assert a.range == pytest.approx(a.shuffle_means.max() - a.shuffle_means.min())
    assert 0.0 <= a.original_mean <= 1.0
    assert a.original_mean == evaluate(params, instances[:5], PCFG, cutoffs=(3,), cot=True).mean[3]


def test_report_header_round_trip():
    line = report_header("eval", "cafe" * 16, 7)
    meta = parse_report_header(line)
    assert meta["kind"] == "eval"
    assert meta["config_hash"] == "cafe" * 16
    assert meta["seed"] == 7
    with pytest.raises(DataFormatError):
        parse_report_header("not a header")
    with pytest.raises(DataFormatError):
        parse_report_header("# plrank kind=eval")


def test_eval_csv_round_trip(tmp_path):
    world, instances = tiny_setup()
    params = fresh_params()
    report = evaluate(params, instances[:5], PCFG, cutoffs=(1, 3), cot=True)
    path = tmp_path / "eval.csv"
    write_eval_csv(path, report, "f00d" * 16, 3)
    meta, header, rows = read_table(path)
    assert meta["kind"] == "eval" and meta["seed"] == 3
    assert header[:3] == ["instance_id", "ndcg_at_1", "ndcg_at_3"]
    assert len(rows) == 5
    for row, r in zip(rows, report.results):
        assert row[0] == r.instance_id
        assert float(row[1]) == r.ndcg[1]  # repr round-trips exactly
        assert int(row[3]) == r.positive_rank


def test_strata_and_summary_emitters(tmp_path):
    report = synthetic_report()
    strata = stratify(report, cutoff=10)
    path = tmp_path / "strata.csv"
    write_strata_csv(path, strata, "ab" * 32, 1)
    meta, header, rows = read_table(path)
    assert header == ["group", "label", "n", "mean"]
    assert sum(1 for r in rows if r[0] == "industrial_tiers") == 3

    spath = tmp_path / "summary.json"
    write_summary_json(spath, {"x": 1.5}, "ab" * 32, 1)
    import json

    payload = json.loads(spath.read_text())
    assert payload == {"x": 1.5, "config_hash": "ab" * 32, "seed": 1}


def test_probe_emitters_round_trip(tmp_path):
    world, instances = tiny_setup()
    pos = probe_position(None, instances[:6], PCFG, slots=(1, 2), cot=True, scorer=item_id_scorer)
    ppath = tmp_path / "pos.csv"
    write_position_probe_csv(ppath, pos, "ee" * 32, 2)
    meta, header, rows = read_table(ppath)
    assert header == ["probe_slot", "rank", "count"]
    total = sum(int(r[2]) for r in rows)
    assert total == 2 * 6  # two slots, six instances

    params = fresh_params()
    hist = probe_history_shuffle(params, instances[:4], PCFG, cutoff=3, n_shuffles=3, seed=4, cot=True)
    hpath = tmp_path / "hist.csv"
    write_history_probe_csv(hpath, hist, "ee" * 32, 2)
    _, _, hrows = read_table(hpath)
    redone = summarize_history_probe(hrows)
    assert redone.avg == hist.avg
    assert redone.std == hist.std
    assert redone.range == hist.range
    assert redone.original_mean == hist.original_mean
    for bad in (["shuffle_0", "abc"], ["shuffle_0", "0.5", "1"]):
        with pytest.raises(DataFormatError, match="history probe table has a bad row"):
            summarize_history_probe([["original", "0.5"], bad])


def test_svg_charts_are_deterministic(tmp_path):
    xs = np.arange(10)
    ys = np.sin(xs / 3.0)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_line_chart_svg(p1, xs, ys, "demo", "cd" * 32, 5, "value")
    write_line_chart_svg(p2, xs, ys, "demo", "cd" * 32, 5, "value")
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert "<polyline" in text
    meta = parse_report_header(text.split("<desc>")[1].split("</desc>")[0])
    assert meta["config_hash"] == "cd" * 32

    g1 = tmp_path / "g.svg"
    write_grouped_bars_svg(
        g1, {"slot 1": np.array([3, 1]), "slot 2": np.array([3, 1])}, "bars", "cd" * 32, 5
    )
    assert "<rect" in g1.read_text()
    with pytest.raises(DataFormatError):
        write_line_chart_svg(tmp_path / "x.svg", [], [], "t", "cd" * 32, 5, "value")
