"""Importing plrank fixes glibc's malloc thresholds, so freed steps are reused."""
import os
import platform
import subprocess
import sys

import pytest

import plrank.allocator as allocator

# Ten rounds that each touch and then free 96 MB in 1 MB arrays, the way a
# tape step frees its graph when it returns. Prints the minor page faults of
# the rounds after the first.
ROUNDS = """
import resource
import numpy as np
{imports}

def round_():
    arrays = [np.ones(2**17) for _ in range(96)]
    del arrays

round_()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    round_()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _refaults(imports: str) -> int:
    env = {k: v for k, v in os.environ.items() if k not in allocator.ENV_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", ROUNDS.format(imports=imports)],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_import_keeps_freed_memory_for_the_next_round():
    # 96 MB freed ten times is 245,760 pages; kept in the heap, almost none
    # fault again. With glibc's adaptive thresholds most of them do.
    assert _refaults("import plrank") < 2_000
    assert _refaults("") > 20_000


def test_thresholds_left_alone_when_the_environment_sets_them(monkeypatch):
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "1048576")
    assert allocator.pin_malloc_thresholds() is False
