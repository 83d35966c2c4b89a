"""Benchmark of the plrank pipeline on one CPU core.

    python3 perfbench/run.py --workload sft_clone --seed 1 --seconds 12 --trace 0

Workloads (see README.md): sft_clone, rl_finetune, eval_probe. Each run starts
fresh worker processes with one BLAS thread, so no run inherits another's
memory or caches:

  --trace 0  SETUP_SAMPLES - 1 processes that only build the inputs, then the
             timed process; prints the end-to-end metrics. setup_s is the
             median of the SETUP_SAMPLES set-up times.
  --trace 1  the timed process, then the same work in a traced process;
             prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Results and span files go to perfbench/out/.
The teacher-cloned checkpoint that rl_finetune and eval_probe start from is
trained on the first run that needs it and kept in perfbench/out/ckpt/, keyed
by a hash of the program's source; delete that directory after changing how
worker.py trains it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src" / "plrank"
OUT = BENCH_DIR / "out"

WORKLOADS = ("sft_clone", "rl_finetune", "eval_probe")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
CHECKPOINT_TIMEOUT_S = 800

class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past {timeout} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def checkpoint_path() -> Path:
    """The cloned checkpoint for this source tree, trained first if missing."""
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    path = OUT / "ckpt" / f"sft-{digest.hexdigest()[:16]}.bin"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        print(f"training the benchmark checkpoint into {path.relative_to(ROOT)}", file=sys.stderr)
        run_worker(["--mode", "checkpoint", "--ckpt", str(path)], CHECKPOINT_TIMEOUT_S)
    return path


def declared_units(kind: str) -> dict[str, str]:
    """Unit of each metric of a kind ("end_to_end" or "per_layer") in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "__init__.py").is_file():
        raise BenchError(f"program source not found at {SRC}; run from a checkout of the repository")
    units = declared_units("per_layer" if args.trace else "end_to_end")
    OUT.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.workload != "sft_clone":
        common += ["--ckpt", str(checkpoint_path())]
    tag = f"{args.workload}-seed{args.seed}"

    if args.trace == 0:
        setups = [run_worker(["--mode", "setup", *common], CHILD_TIMEOUT_S)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        timed = run_worker(["--mode", "timed", *common], CHILD_TIMEOUT_S)
        values = dict(timed["e2e"], setup_s=statistics.median(setups + [timed["setup_s"]]))
        runs = [timed]
    else:
        timed = run_worker(["--mode", "timed", *common], CHILD_TIMEOUT_S)
        traced = run_worker(
            ["--mode", "traced", *common, "--trace-out", str(OUT / f"trace-{tag}.jsonl")], CHILD_TIMEOUT_S
        )
        plain_rate = timed["e2e"]["ops_per_cpu_s"]
        values = dict(
            traced["layers"],
            **{"trace.overhead_pct": 100.0 * (plain_rate - traced["e2e"]["ops_per_cpu_s"]) / plain_rate},
        )
        runs = [timed, traced]

    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    for run in runs:
        for problem in run["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    last = runs[-1]
    result = {
        "correct": all(not run["problems"] for run in runs),
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "runs": runs, "result": result}
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
