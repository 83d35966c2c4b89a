"""Desk-scale rationale policy with a Plackett-Luce ranking head.

A toy autoregressive decoder emits short structured rationales per candidate
item, a small scoring head maps each rationale's final hidden state to a raw
score, and the induced Plackett-Luce ranking is trained against truncated NDCG
with REINFORCE (head) and token-level clipped PPO (policy). Every stochastic
estimator is held to an exact enumeration oracle on a synthetic world.
"""
from . import allocator  # noqa: F401  (fixes glibc's malloc thresholds on import)
from .config import RunConfig, config_hash, load_run_config, policy_config, stage_config
from .evaluation import evaluate, probe_history_shuffle, probe_position
from .policy import PolicyConfig, Vocab, generate, init_params, serialize_context
from .rank import (
    dcg,
    discounts,
    enumerate_expected_reward,
    ndcg,
    pl_grad_scores,
    pl_log_prob,
    pl_sample,
    pl_sample_many,
)
from .training import SftConfig, TrainConfig, rl_train, rollout, sft_train
from .world import (
    RankingInstance,
    WorldConfig,
    build_instances,
    build_sft_corpus,
    generate_world,
    oracle_teacher,
)

__version__ = "0.1.0"

__all__ = [
    "PolicyConfig",
    "RankingInstance",
    "RunConfig",
    "SftConfig",
    "TrainConfig",
    "Vocab",
    "WorldConfig",
    "build_instances",
    "build_sft_corpus",
    "config_hash",
    "dcg",
    "discounts",
    "enumerate_expected_reward",
    "evaluate",
    "generate",
    "generate_world",
    "init_params",
    "load_run_config",
    "ndcg",
    "oracle_teacher",
    "pl_grad_scores",
    "pl_log_prob",
    "pl_sample",
    "pl_sample_many",
    "policy_config",
    "probe_history_shuffle",
    "probe_position",
    "rl_train",
    "rollout",
    "serialize_context",
    "sft_train",
    "stage_config",
    "__version__",
]
