"""Monte-Carlo evaluation of the spectral-efficiency bounds.

Samples raw channels and the training observation jointly, applies the LMMSE
estimators, and assembles (i) the use-and-then-forget term groups that mirror
the closed-form lower bound and (ii) the sampled upper bounds. This module is
the independent side of the dual-route check: it never touches the
closed-form tables in cfsim.se.

The copilot mix is a sum per pilot. All three estimators run one sampler
(`_batch_sums`) and one cross kernel (`_cross`), and differ only in the
per-block reducer they hand the sampler. A reducer consumes its block's g_hat:
the kernel conjugates and scales it in place and multiplies it into g^T (a
batched BLAS matmul over (S, K, A*N) reshapes) once per link asked for. The
upper bounds of both links share one reducer, so each sample is drawn and
estimated once.

The sampler is a two-stage pipeline. The calling thread makes every random
draw, in one fixed order; threads.BUDGET worker threads run each block's
kernels (channel scale, pilot mix, LMMSE step, reducer) as soon as the block's
draws are made.
numpy releases the GIL in the draws, the matmuls and large elementwise ops, so
the two stages run at once. The calling thread adds the block sums in block
order, so every output is the same however the threads are timed. Memory is
about one batch of raw draws plus the blocks in flight.
"""

from __future__ import annotations

import queue
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import threads
from .channel import LargeScaleState, channel_scaler, fill_normal, sample_blocks
from .estimation import EstimationState, PilotBook


def _power(z):
    return z.real**2 + z.imag**2


def _cross(g, g_hat, mask=None, root_eta_dl=None):
    """Cross terms of the links asked for, as (ul, norms, dl); g_hat is consumed.

    With mask (K, A) of 0/1: ul[s, k, j] = sum_{a in A_k} ghat_{k,a}^H g_{j,a} and
    norms[s, k] = sum_{a in A_k} ||ghat_{k,a}||^2. With root_eta_dl (K, A), zero
    off the serving mask: dl[s, k, j] = sum_a sqrt(eta_dl[j,a]) g_{k,a}^H ghat_{j,a},
    the conjugate transpose of (conj(ghat) sqrt(eta_dl)) @ g^T. g_hat is
    conjugated and scaled in place, and both products share the right operand g^T.
    """
    S, K, A, N = g.shape
    right = g.reshape(S, K, -1).transpose(0, 2, 1)
    left = g_hat.reshape(S, K, -1)
    flat = left.view(float)  # real and imaginary parts side by side
    conj = np.tile([1.0, -1.0], A * N)  # folded into the first scaling
    ul = norms = dl = None
    if mask is not None:
        flat *= np.repeat(mask, 2 * N, axis=1) * conj
        conj = 1.0
        norms = np.einsum("skx,skx->sk", flat, flat)
        ul = left @ right
    if root_eta_dl is not None:
        flat *= np.repeat(root_eta_dl, 2 * N, axis=1) * conj
        dl = left @ right
        dl = np.conjugate(dl, out=dl).transpose(0, 2, 1)
    return ul, norms, dl


def _batched(n_samples, batch_count):
    if batch_count < 2 or n_samples < batch_count:
        raise ValueError(
            "a standard error needs batch_count >= 2 and n_samples >= batch_count, "
            f"got n_samples={n_samples}, batch_count={batch_count}"
        )
    base = n_samples // batch_count
    sizes = [base] * batch_count
    sizes[-1] += n_samples - base * batch_count
    return sizes


def _chunks(n, parts=8):
    """range(n) in about `parts` slices: draws are made a chunk at a time, so the
    drawing thread's temporaries stay small beside the blocks in flight."""
    step = -(-n // parts)
    return [slice(i, i + step) for i in range(0, n, step)]


def _batch_sums(ls, est, book, rng, n_samples, batch_count, reduce):
    """Sum the arrays reduce(g, g_hat) returns over the blocks of each batch;
    reduce may overwrite g_hat, a buffer that is reused once it returns.

    The calling thread makes every draw of a batch, in the stream's order: all
    real parts of g, all its imaginary parts, the (S, K, A) LOS phases block by
    block, then the training noise's real parts and, block by block, its
    imaginary parts. Meanwhile threads.BUDGET workers scale each block's channels
    once its phases are drawn, and mix its pilots, estimate it and reduce it once
    its noise is. The calling thread adds the block sums in block order, so the sums
    do not depend on thread timing. A batch is finished before the next is
    drawn. Held at once: g and the noise's real parts for one batch, and the
    complex noise of at most BUDGET + 1 blocks. The training noise is drawn per
    pilot sequence (users sharing a pilot see the same projected noise, as the
    projection of one common W_a realization dictates).

    Returns (total, batches): the sums over all samples, and one (batch size,
    sums) pair per batch.
    """
    K, A, N = ls.steering.shape
    pidx = book.assignment
    root_eta = np.sqrt(np.asarray(est.eta_train, dtype=float))
    users, scale = channel_scaler(ls)
    sizes = _batched(n_samples, batch_count)
    row_bytes = 16 * (K + book.tau_p) * A * N
    # the users whose estimator is a real d I at every AP: ghat = d y, one multiply
    # on the float views that gives the bits of the (N, N) matmul
    d = est.D[..., 0, 0].real
    is_scalar = np.array([(est.D[k] == d[k, :, None, None] * np.eye(N)).all() for k in range(K)])
    workers = threads.BUDGET
    # one g_hat buffer per worker, made here: what a worker allocates stays in
    # its thread's malloc arena, which no other thread reuses
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(np.empty((sample_blocks(max(sizes), row_bytes)[0].stop, K, A, N), dtype=complex))

    def estimate(g, y, scaled):
        scaled.result()
        y *= np.sqrt(est.sigma_w2 / 2.0)
        for k in range(K):
            y[:, pidx[k]] += root_eta[k] * g[:, k]
        buf = free.get_nowait()  # at most `workers` blocks are estimated at once
        try:
            g_hat = buf[: len(g)]
            for k in range(K):  # written through a view of g_hat
                if is_scalar[k]:
                    np.multiply(y.view(float)[:, pidx[k]], d[k, :, None],
                                out=g_hat.view(float)[:, k])
                else:  # an A-batch of (N, N) @ (N, S)
                    np.matmul(est.D[k], y[:, pidx[k]].transpose(1, 2, 0),
                              out=g_hat[:, k].transpose(1, 2, 0))
            return reduce(g, g_hat)
        finally:
            free.put(buf)

    def add(sums, part):
        return part if sums is None else [s + p for s, p in zip(sums, part)]

    batches = []
    pool = ThreadPoolExecutor(workers)
    try:
        for size in sizes:
            blocks = sample_blocks(size, row_bytes)
            chunks = [_chunks(b.stop - b.start) for b in blocks]
            g = np.empty((size, K, A, N), dtype=complex)
            for part in (g.real, g.imag):
                for b, cs in zip(blocks, chunks):
                    fill_normal(rng, part[b], cs)
            scaled = []
            for b in blocks:
                theta = rng.uniform(0.0, 2.0 * np.pi, (b.stop - b.start, K, A))
                scaled.append(pool.submit(scale, g[b], theta[:, users]))
            # real parts one array per block, each let go once its block's noise is complex
            noise = [np.empty((b.stop - b.start, book.tau_p, A, N)) for b in blocks]
            for real, cs in zip(noise, chunks):
                fill_normal(rng, real, cs)
            sums, pending = None, deque()
            for i, (b, cs, done) in enumerate(zip(blocks, chunks, scaled)):
                y = np.empty(noise[i].shape, dtype=complex)
                y.real = noise[i]
                noise[i] = None
                fill_normal(rng, y.imag, cs)
                pending.append(pool.submit(estimate, g[b], y, done))
                if len(pending) > workers:
                    sums = add(sums, pending.popleft().result())
            while pending:
                sums = add(sums, pending.popleft().result())
            batches.append((size, sums))
            del g, y, theta, scaled  # before the next batch is drawn
    finally:
        pool.shutdown(cancel_futures=True)
    total = [sum(parts) for parts in zip(*(sums for _, sums in batches))]
    return total, batches


def _stderr(batch_values):
    values = np.array(batch_values)
    return np.std(values, axis=0, ddof=1) / np.sqrt(len(values))


@dataclass(frozen=True)
class UatfResult:
    """MC estimates of the UatF term groups and the assembled SE bound."""

    se: np.ndarray  # (K,)
    se_stderr: np.ndarray  # (K,)
    sinr: np.ndarray  # (K,)
    desired: np.ndarray  # (K,) complex  E[D_k]
    gain_var: np.ndarray  # (K,)          E|B_k|^2
    interference: np.ndarray  # (K, K)    E|I_{k,j}|^2 (diagonal zero)
    noise_term: np.ndarray  # (K,)        sigma^2 (DL) or E|N_k|^2 (UL)


def _uatf_result(total, batches, n_samples, prelog, terms):
    """Assemble a UatfResult from moment sums; terms(*means) returns
    (desired, gain_var, interference, noise_term)."""

    def parts(sums, size):
        desired, gain_var, interference, noise = terms(*(x / size for x in sums))
        sinr = np.abs(desired) ** 2 / (gain_var + interference.sum(axis=1) + noise)
        return desired, gain_var, interference, noise, sinr

    desired, gain_var, interference, noise, sinr = parts(total, n_samples)
    batch_se = [prelog * np.log2(1.0 + parts(sums, size)[4]) for size, sums in batches]
    return UatfResult(
        se=prelog * np.log2(1.0 + sinr),
        se_stderr=_stderr(batch_se),
        sinr=sinr,
        desired=desired,
        gain_var=gain_var,
        interference=interference,
        noise_term=noise,
    )


def uatf_dl_mc(
    ls: LargeScaleState,
    est: EstimationState,
    book: PilotBook,
    serving,
    eta_dl,
    sigma_z2,
    prelog,
    n_samples,
    rng,
    batch_count=20,
):
    """Sampled use-and-then-forget terms for the downlink bound."""
    root = np.sqrt(np.where(serving, np.asarray(eta_dl, dtype=float), 0.0))

    def reduce(g, g_hat):
        cross = _cross(g, g_hat, root_eta_dl=root)[2]
        return cross.sum(axis=0), _power(cross).sum(axis=0)

    def terms(mean_c, mean_c2):
        desired = np.diag(mean_c).copy()
        interference = mean_c2.copy()
        np.fill_diagonal(interference, 0.0)
        gain_var = np.diag(mean_c2) - np.abs(desired) ** 2
        return desired, gain_var, interference, np.full(len(desired), sigma_z2)

    total, batches = _batch_sums(ls, est, book, rng, n_samples, batch_count, reduce)
    return _uatf_result(total, batches, n_samples, prelog, terms)


def uatf_ul_mc(
    ls: LargeScaleState,
    est: EstimationState,
    book: PilotBook,
    serving,
    eta_ul,
    prelog,
    n_samples,
    rng,
    batch_count=20,
):
    """Sampled use-and-then-forget terms for the uplink bound."""
    eta = np.asarray(eta_ul, dtype=float)
    mask = np.asarray(serving, dtype=float)

    def reduce(g, g_hat):
        cross, norms, _ = _cross(g, g_hat, mask)
        return cross.sum(axis=0), _power(cross).sum(axis=0), norms.sum(axis=0)

    def terms(mean_c, mean_c2, mean_n):
        desired = np.sqrt(eta) * np.diag(mean_c)
        gain_var = eta * (np.diag(mean_c2) - np.abs(np.diag(mean_c)) ** 2)
        interference = eta[None, :] * mean_c2
        np.fill_diagonal(interference, 0.0)
        return desired, gain_var, interference, est.sigma_w2 * mean_n

    total, batches = _batch_sums(ls, est, book, rng, n_samples, batch_count, reduce)
    return _uatf_result(total, batches, n_samples, prelog, terms)


@dataclass(frozen=True)
class UbResult:
    se: np.ndarray  # (K,)
    se_stderr: np.ndarray  # (K,)


def se_ub_mc(
    ls,
    est,
    book,
    serving,
    eta_dl,
    eta_ul,
    sigma_z2,
    prelog_dl,
    prelog_ul,
    n_samples,
    rng,
    batch_count=20,
):
    """Sampled upper bounds prelog * E[log2(1 + instantaneous SINR)] of both
    links, from one (g, g_hat) stream: each block's g_hat is consumed by one
    _cross call for both links. Returns (dl, ul) UbResults."""
    root = np.sqrt(np.where(serving, np.asarray(eta_dl, dtype=float), 0.0))
    eta = np.asarray(eta_ul, dtype=float)
    mask = np.asarray(serving, dtype=float)

    def log_sum(pw, noise):
        num = np.diagonal(pw, axis1=1, axis2=2)
        return np.log2(1.0 + num / (pw.sum(axis=2) - num + noise)).sum(axis=0)

    def reduce(g, g_hat):
        ul, norms, dl = _cross(g, g_hat, mask, root)
        return log_sum(_power(dl), sigma_z2), log_sum(eta * _power(ul), est.sigma_w2 * norms)

    total, batches = _batch_sums(ls, est, book, rng, n_samples, batch_count, reduce)
    return tuple(
        UbResult(
            se=prelog * total[i] / n_samples,
            se_stderr=_stderr([prelog * sums[i] / size for size, sums in batches]),
        )
        for i, prelog in enumerate((prelog_dl, prelog_ul))
    )
