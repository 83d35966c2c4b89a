"""Run configuration: nested sections, strict parsing, canonical hashing.

A run is fully described by one JSON document. Parsing rejects unknown keys
by name (typos should fail loudly, not silently train the wrong thing), and
the config hash is the SHA-256 of the canonical JSON of the fully-expanded
effective config, so two runs share a hash exactly when nothing differs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from .atomic import atomic_write
from .errors import ConfigError, DataFormatError
from .policy import ModelConfig, PolicyConfig, prefix_length
from .training import SftConfig, TrainConfig
from .world import SPLITS, WorldConfig


@dataclass(frozen=True)
class DataConfig:
    """Instance and teacher-corpus shape."""

    K: int = 20              # candidates per ranking instance
    L: int = 20              # history cap
    noise_rate: float = 0.2  # teacher decision flip probability
    selfcheck_k: int = 2     # attributes revisited in the self-check section

    def validate(self) -> None:
        if self.K < 2:
            raise ConfigError(f"data.K must be >= 2, got {self.K}")
        if self.L < 0:
            raise ConfigError(f"data.L must be >= 0, got {self.L}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ConfigError(f"data.noise_rate must be in [0, 1), got {self.noise_rate}")
        if self.selfcheck_k < 0:
            raise ConfigError(f"data.selfcheck_k must be >= 0, got {self.selfcheck_k}")


@dataclass(frozen=True)
class EvalConfig:
    cutoffs: tuple[int, ...] = (1, 5, 10)
    split: str = "test"
    max_instances: int = 0          # 0 means the whole split
    probe_slots: tuple[int, ...] = (1, 10, 20)
    n_shuffles: int = 10
    history_cutoff: int = 10        # cutoff used by the history probe

    def validate(self) -> None:
        if self.split not in SPLITS:
            raise ConfigError(f"eval.split must be one of {SPLITS}, got {self.split!r}")
        if not self.cutoffs or any(c < 1 for c in self.cutoffs):
            raise ConfigError("eval.cutoffs must be positive integers")
        if self.max_instances < 0:
            raise ConfigError("eval.max_instances must be >= 0")
        if not self.probe_slots or any(s < 1 for s in self.probe_slots):
            raise ConfigError("eval.probe_slots must be positive 1-based slots")
        if self.n_shuffles < 1:
            raise ConfigError("eval.n_shuffles must be >= 1")
        if self.history_cutoff < 1:
            raise ConfigError("eval.history_cutoff must be >= 1")
        if self.history_cutoff not in self.cutoffs:
            raise ConfigError(
                f"eval.history_cutoff ({self.history_cutoff}) must be one of "
                f"eval.cutoffs {self.cutoffs} so strata come from an evaluated cutoff"
            )


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    world: WorldConfig = WorldConfig()
    data: DataConfig = DataConfig()
    model: ModelConfig = ModelConfig()
    sft: SftConfig = SftConfig(steps=2000, batch_size=16, lr_policy=1e-3)
    rl: TrainConfig = TrainConfig(
        steps=3000,
        batch_size=1,
        rankings_per_instance=8,
        baseline="loo",
        lr_head=2e-3,
    )
    eval: EvalConfig = EvalConfig()

    def validate(self) -> None:
        self.world.validate()
        self.data.validate()
        self.eval.validate()
        self.sft.validate()
        self.rl.validate()
        self.model.validate()
        prefix = prefix_length(self.world.m, self.data.L)
        if prefix + self.model.max_gen > self.model.max_len:
            raise ConfigError(
                f"serialized prefix ({prefix}) plus max_gen ({self.model.max_gen}) "
                f"exceeds max_len ({self.model.max_len})"
            )


_SECTIONS = ("world", "data", "model", "sft", "rl", "eval")


def _build_section(base, data: dict, where: str):
    """`base` (the desk section) with the keys of `data` replaced."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {where!r} must be an object")
    known = {f.name for f in dataclasses.fields(base)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown key {where}.{key}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    return dataclasses.replace(base, **kwargs)


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    defaults = RunConfig()
    for key in data:
        if key != "seed" and key not in _SECTIONS:
            raise ConfigError(f"unknown key {key}")
    kwargs = {}
    if "seed" in data:
        if not isinstance(data["seed"], int):
            raise ConfigError(f"seed must be an integer, got {data['seed']!r}")
        kwargs["seed"] = data["seed"]
    for name in _SECTIONS:
        base = getattr(defaults, name)
        kwargs[name] = _build_section(base, data[name], name) if name in data else base
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"config {path}: invalid JSON: {exc}") from exc
    return run_config_from_dict(data)


def effective_dict(cfg: RunConfig) -> dict:
    """The fully-expanded config with every default filled in."""
    return dataclasses.asdict(cfg)


def canonical_json(cfg: RunConfig) -> str:
    return json.dumps(effective_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def dump_effective(cfg: RunConfig, path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(effective_dict(cfg), fh, sort_keys=True, indent=2)
        fh.write("\n")


def policy_config(cfg: RunConfig) -> PolicyConfig:
    return PolicyConfig(m=cfg.world.m, buckets=cfg.world.buckets, **dataclasses.asdict(cfg.model))


def stage_config(cfg: RunConfig, stage: str) -> SftConfig:
    """The training config of one stage, "sft" or "rl"."""
    if stage == "sft":
        return cfg.sft
    if stage == "rl":
        return cfg.rl
    raise ConfigError(f"unknown stage {stage!r}")
