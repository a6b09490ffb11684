"""The process's thread budget, read by every stage that runs on threads.

The UB sampler runs its block kernels on BUDGET worker threads (cfsim.mc), and
LMMSE estimation and the SE tables split their per-AP work into BUDGET AP
slices (over_aps). A campaign's process pool lowers the budget to the CPUs
each process has (harness.sampler_workers). No output depends on it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

# Threads one process keeps busy: 1 or 2
BUDGET = 2

# Per-AP work on fewer estimator entries (K A N^2) than this stays on one thread:
# two halves of small numpy calls pass the interpreter lock back and forth for
# longer than they save (desk, 6,000 entries: 0.9 -> 3.6 ms; desk-mmimo, 37,500:
# 3.4 -> 4.9 ms; paper, 96,000: 19.4 -> 14.7 ms)
SPLIT_MIN_ENTRIES = 65_536


def ap_slices(n_ap, entries):
    """The AP slices of a per-AP stage over `entries` estimator entries: every AP
    at budget 1 or below SPLIT_MIN_ENTRIES, else two halves."""
    if BUDGET < 2 or n_ap < 2 or entries < SPLIT_MIN_ENTRIES:
        return [slice(0, n_ap)]
    return [slice(0, n_ap // 2), slice(n_ap // 2, n_ap)]


def over_aps(slices, work):
    """[work(aps) for aps in slices], slices from ap_slices: the calling thread
    runs the first slice and a worker thread the second. Each call writes its own
    APs of the caller's outputs, and every decision across APs is the caller's,
    taken on the returned values. An exception of either call reaches the caller,
    the first's when both raise."""
    first, *rest = slices
    if not rest:
        return [work(first)]
    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(work, rest[0])
        return [work(first), second.result()]
