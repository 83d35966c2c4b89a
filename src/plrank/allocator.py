"""Fixed glibc malloc thresholds, so each step reuses the last step's memory.

A training step allocates tens of megabytes of numpy arrays, and the tape
frees them by reference counting while its backward runs, each activation as
soon as the last op that reads it has passed its gradient on. glibc's default
malloc adapts its mmap threshold to the largest block freed so far and hands
the top of the heap back to the kernel once more than twice that threshold is
free there. Each step's arrays were then faulted in afresh by the next step.
A perfbench `sft_clone` run (270 desk SFT steps) took 0.8 to 1.3 million
minor page faults, a count that moved with the order of the frees, and 2.4 to
3.8 s of system time that moved with it. With fixed thresholds the freed
memory stays in the heap and the next step reuses it: the same run takes
57 thousand faults and 0.4 s.

`import plrank` sets them once. glibc reads MALLOC_MMAP_THRESHOLD_ and
MALLOC_TRIM_THRESHOLD_ from the environment at start-up; when either is set,
the user has chosen and the thresholds are left alone. Off glibc nothing
changes.
"""
from __future__ import annotations

import ctypes
import os

# mallopt parameter numbers, from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Blocks below this come from the heap. It is glibc's largest allowed value on
# 64-bit (half its 64 MB heap size), far above the arrays of a desk step.
MMAP_THRESHOLD = 32 * 2**20
# Free memory at the top of the heap is handed back to the kernel only beyond
# this, which bounds what an idle process keeps.
TRIM_THRESHOLD = 256 * 2**20

ENV_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def pin_malloc_thresholds() -> bool:
    """Set glibc's mmap and trim thresholds to fixed values; True when set."""
    if any(os.environ.get(name) for name in ENV_VARS):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # Setting either threshold also turns off glibc's adaptive mmap threshold.
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )


pin_malloc_thresholds()
