"""The process's thread budget, read by every stage that runs on threads.

The UB sampler runs its block kernels on BUDGET worker threads (cfsim.mc), and
the SE tables split their per-AP work into BUDGET AP slices (over_aps). The
budget is the CPUs left to the process (sampler_workers): a serial run starts at
sampler_workers(1), and a campaign's process pool sets sampler_workers(jobs) in
each process (set_budget). No output depends on it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def sampler_workers(jobs):
    """The thread budget of each of jobs processes: the CPUs left to each, at
    least 1 and at most 2."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(2, (cpus or 1) // jobs))


def set_budget(n):
    global BUDGET
    BUDGET = n


# Threads one process keeps busy: 1 or 2
BUDGET = sampler_workers(1)

# SE tables over fewer entries K A N^2 than this stay on one thread: two halves
# of small numpy calls pass the interpreter lock back and forth for longer than
# they save (desk, 6,000 entries: 0.66 -> 1.97 ms; desk-mmimo, 37,500: 0.59 ->
# 1.84 ms), and on paper, 96,000, too: the paper-lb benchmark 0.0570 -> 0.0595 s
SPLIT_MIN_ENTRIES = 65_536


def ap_slices(n_ap, entries):
    """The AP slices of a per-AP stage over `entries` entries K A N^2: every AP at
    budget 1 or below SPLIT_MIN_ENTRIES, else two halves."""
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
