"""Tests for config parsing, validation, and canonical hashing."""
from __future__ import annotations

import dataclasses
import json

import pytest

from plrank.config import (
    RunConfig,
    config_hash,
    dump_effective,
    effective_dict,
    load_run_config,
    policy_config,
    run_config_from_dict,
    stage_config,
)
from plrank.errors import ConfigError, DataFormatError


def test_defaults_validate_and_hash():
    cfg = RunConfig()
    cfg.validate()
    h = config_hash(cfg)
    assert len(h) == 64 and all(c in "0123456789abcdef" for c in h)
    assert config_hash(RunConfig()) == h


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="unknown key worlds"):
        run_config_from_dict({"worlds": {}})
    with pytest.raises(ConfigError, match="unknown key world.n_user"):
        run_config_from_dict({"world": {"n_user": 10}})
    with pytest.raises(ConfigError, match="unknown key rl.clip"):
        run_config_from_dict({"rl": {"clip": 0.3}})
    with pytest.raises(ConfigError, match="unknown key rl.temperature"):
        run_config_from_dict({"rl": {"temperature": 0.5}})
    with pytest.raises(ConfigError, match="unknown key world.max_grade"):
        run_config_from_dict({"world": {"max_grade": 1}})
    for key, value in (("epsilon", 0.1), ("cot", False)):
        with pytest.raises(ConfigError, match=f"unknown key sft.{key}"):
            run_config_from_dict({"sft": {key: value}})
    for key, value in (("relevance_basis", "token"), ("negative_sampling", "popularity")):
        with pytest.raises(ConfigError, match=f"unknown key world.{key}"):
            run_config_from_dict({"world": {key: value}})


def test_section_overrides_start_from_the_desk_section():
    assert run_config_from_dict({"rl": {"steps": 5}}).rl == dataclasses.replace(RunConfig().rl, steps=5)
    assert run_config_from_dict({"sft": {"steps": 5}}).sft == dataclasses.replace(RunConfig().sft, steps=5)


def test_section_overrides_change_hash():
    base = run_config_from_dict({})
    small = run_config_from_dict({"world": {"n_users": 100}})
    assert small.world.n_users == 100
    assert small.world.n_items == base.world.n_items
    assert config_hash(small) != config_hash(base)


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        run_config_from_dict({"eval": {"split": "evaluation"}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"data": {"noise_rate": 1.5}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"rl": {"rankings_per_instance": 1}})  # the desk loo baseline needs >= 2
    with pytest.raises(ConfigError):
        run_config_from_dict({"seed": "forty-two"})
    with pytest.raises(ConfigError, match="seed must be an integer, got True"):
        run_config_from_dict({"seed": True})
    for value in ("5", 5.0, True):  # a str, a float and a bool for an int field
        with pytest.raises(ConfigError, match="sft.steps must be an integer"):
            run_config_from_dict({"sft": {"steps": value}})
    with pytest.raises(ConfigError, match="rl.joint must be true or false, got 1"):
        run_config_from_dict({"rl": {"joint": 1}})
    with pytest.raises(ConfigError, match="eval.cutoffs must be a list of integers"):
        run_config_from_dict({"eval": {"cutoffs": [1, 5.0, 10]}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"model": {"max_len": 128}})  # prefix would not fit
    with pytest.raises(ConfigError):
        run_config_from_dict({"data": {"L": 0}, "model": {"max_len": 41}})  # prefix 18 + max_gen 24


def test_tuple_fields_accept_lists():
    cfg = run_config_from_dict(
        {"eval": {"cutoffs": [1, 5], "probe_slots": [1, 3], "history_cutoff": 5}}
    )
    assert cfg.eval.cutoffs == (1, 5)
    assert cfg.eval.probe_slots == (1, 3)
    # a float field takes an integer as it is, so the config hashes as written
    assert type(run_config_from_dict({"sft": {"lr_policy": 1}}).sft.lr_policy) is int


def test_effective_round_trip(tmp_path):
    cfg = run_config_from_dict({"seed": 7, "world": {"n_users": 500}, "rl": {"steps": 11}})
    path = tmp_path / "cfg.json"
    dump_effective(cfg, path)
    again = load_run_config(path)
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    with pytest.raises(DataFormatError):
        (tmp_path / "broken.json").write_text("{nope")
        load_run_config(tmp_path / "broken.json")


def test_policy_and_stage_views():
    cfg = run_config_from_dict({"world": {"m": 6, "buckets": 3}, "data": {"K": 12, "L": 7}})
    pcfg = policy_config(cfg)
    assert pcfg.m == 6 and pcfg.buckets == 3
    assert pcfg.d_model == cfg.model.d_model
    rl = stage_config(cfg, "rl")
    assert rl.steps == cfg.rl.steps
    sft = stage_config(cfg, "sft")
    assert sft.batch_size == cfg.sft.batch_size
    with pytest.raises(ConfigError):
        stage_config(cfg, "warmup")


def test_effective_dict_contains_all_sections():
    full = effective_dict(RunConfig())
    assert set(full) == {"seed", "world", "data", "model", "sft", "rl", "eval"}
    assert set(full["sft"]) == {"steps", "batch_size", "lr_policy", "lr_head"}
    assert len(full["world"]) == 8
    assert full["sft"]["steps"] == 2000
    assert full["rl"]["steps"] == 3000
    text = json.dumps(full, sort_keys=True)
    assert "n_users" in text
