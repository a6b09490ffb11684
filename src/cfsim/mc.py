"""Monte-Carlo evaluation of the spectral-efficiency bounds.

Samples raw channels and the training observation jointly, applies the LMMSE
estimators, and assembles, from one pass, (i) the sampled upper bounds and
(ii) the use-and-then-forget term groups that mirror the closed-form lower
bound. This module is the independent side of the dual-route check: it never
touches the closed-form tables in cfsim.se.

The copilot mix is a sum per pilot. One sampler (`_batch_sums`), one cross
kernel (`_cross`) and one reducer serve both bounds: the reducer takes each
cross's power once and sums it into the upper bounds' log terms and the
mirror's moments. The kernel consumes its block's g_hat: it conjugates and
scales it in place and multiplies it into g^T (a batched BLAS matmul over
(S, K, A*N) reshapes) once per link, so each sample is drawn and estimated
once for both links.

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


def _cross(g, g_hat, mask, root_eta_dl):
    """Cross terms of both links, as (ul, norms, dl); g_hat is consumed.

    mask (K, A) of 0/1: ul[s, k, j] = sum_{a in A_k} ghat_{k,a}^H g_{j,a} and
    norms[s, k] = sum_{a in A_k} ||ghat_{k,a}||^2. root_eta_dl (K, A), zero off
    the serving mask: dl[s, k, j] = sum_a sqrt(eta_dl[j,a]) g_{k,a}^H ghat_{j,a},
    the conjugate transpose of (conj(ghat) sqrt(eta_dl)) @ g^T. g_hat is
    conjugated and scaled in place, and both products share the right operand g^T.
    """
    S, K, A, N = g.shape
    right = g.reshape(S, K, -1).transpose(0, 2, 1)
    left = g_hat.reshape(S, K, -1)
    flat = left.view(float)  # real and imaginary parts side by side
    flat *= np.repeat(mask, 2 * N, axis=1) * np.tile([1.0, -1.0], A * N)
    norms = np.einsum("skx,skx->sk", flat, flat)
    ul = left @ right
    flat *= np.repeat(root_eta_dl, 2 * N, axis=1)
    dl = left @ right
    return ul, norms, np.conjugate(dl, out=dl).transpose(0, 2, 1)


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


def _batch_sums(ls, est, book, rng, n_samples, batch_count, reduce):
    """Sum the arrays reduce(g, g_hat) returns over the blocks of each batch;
    reduce may overwrite g_hat, a buffer that is reused once it returns.

    The calling thread makes every draw of a batch, one block of samples per
    call, in the stream's order: all real parts of g, all its imaginary parts,
    the (S, K, A) LOS phases, then the training noise's real parts and, each
    just before its block is handed on, its imaginary parts. Meanwhile
    threads.BUDGET workers scale each block's channels once its phases are
    drawn, and mix its pilots, estimate it and reduce it once its noise is. The
    calling thread adds the block sums in block order, so the sums do not
    depend on thread timing. A batch is finished before the next is drawn.
    Held at once: g and the noise's real parts for one batch, and the
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
    row = np.full(K, -1)
    row[est.dense_users] = np.arange(len(est.dense_users))  # -1: D = d I at every AP
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
                if row[k] < 0:  # ghat = d y; the float views give the matmul's bits
                    np.multiply(y.view(float)[:, pidx[k]], est.d[k, :, None],
                                out=g_hat.view(float)[:, k])
                else:  # an A-batch of (N, N) @ (N, S)
                    np.matmul(est.D_dense[row[k]], y[:, pidx[k]].transpose(1, 2, 0),
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
            g = np.empty((size, K, A, N), dtype=complex)
            fill_normal(rng, g.real, blocks)
            fill_normal(rng, g.imag, blocks)
            scaled = []
            for b in blocks:
                theta = rng.uniform(0.0, 2.0 * np.pi, (b.stop - b.start, K, A))
                scaled.append(pool.submit(scale, g[b], theta[:, users]))
            # real parts one array per block, each let go once its block's noise is complex
            noise = [rng.standard_normal((b.stop - b.start, book.tau_p, A, N)) for b in blocks]
            sums, pending = None, deque()
            for i, (b, done) in enumerate(zip(blocks, scaled)):
                y = np.empty(noise[i].shape, dtype=complex)
                y.real = noise[i]
                noise[i] = None
                y.imag = rng.standard_normal(y.shape)
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
class McResult:
    """One link's sampled upper bound and its UatF mirror: the lower bound's
    term groups and the SE assembled from them."""

    ub: np.ndarray  # (K,)        prelog E[log2(1 + instantaneous SINR)]
    ub_stderr: np.ndarray  # (K,)
    lb: np.ndarray  # (K,)        the mirror's SE
    lb_stderr: np.ndarray  # (K,)
    desired: np.ndarray  # (K,) complex  E[D_k]
    gain_var: np.ndarray  # (K,)          E|B_k|^2
    interference: np.ndarray  # (K, K)    E|I_{k,j}|^2 (diagonal zero)
    noise_term: np.ndarray  # (K,)        sigma^2 (DL) or E|N_k|^2 (UL)


def se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, sigma_z2, prelog, n_samples, rng,
             batch_count=20):
    """Sampled upper bounds prelog * E[log2(1 + instantaneous SINR)] and
    use-and-then-forget term groups of both links, from one (g, g_hat) stream.
    Returns (dl, ul) McResults."""
    eta = np.asarray(eta_ul, dtype=float)
    mask = np.asarray(serving, dtype=float)
    root = np.sqrt(np.where(serving, np.asarray(eta_dl, dtype=float), 0.0))

    def log_sum(pw, noise):
        num = np.diagonal(pw, axis1=1, axis2=2)
        return np.log2(1.0 + num / (pw.sum(axis=2) - num + noise)).sum(axis=0)

    def reduce(g, g_hat):
        """Both links' UB log sums, then the mirror's moment sums of the crosses."""
        ul, norms, dl = _cross(g, g_hat, mask, root)
        dl_pw, ul_pw = _power(dl), _power(ul)
        return [log_sum(dl_pw, sigma_z2), log_sum(eta * ul_pw, est.sigma_w2 * norms),
                *(x.sum(axis=0) for x in (dl, dl_pw, ul, ul_pw, norms))]

    def links(sums, size):
        """Each link's (desired, gain_var, interference, noise_term, se) from the
        moment sums over size samples; the UL weighs user j's terms by eta_ul[j]."""
        dl_c, dl_c2, ul_c, ul_c2, ul_n = (x / size for x in sums[2:])
        for c, c2, w, noise in ((dl_c, dl_c2, np.ones_like(eta), np.full(len(eta), sigma_z2)),
                                (ul_c, ul_c2, eta, est.sigma_w2 * ul_n)):
            desired = np.sqrt(w) * np.diag(c)
            gain_var = w * (np.diag(c2) - np.abs(np.diag(c)) ** 2)
            interference = w[None, :] * c2
            np.fill_diagonal(interference, 0.0)
            sinr = np.abs(desired) ** 2 / (gain_var + interference.sum(axis=1) + noise)
            yield desired, gain_var, interference, noise, prelog * np.log2(1.0 + sinr)

    total, batches = _batch_sums(ls, est, book, rng, n_samples, batch_count, reduce)
    batch_lb = [[link[4] for link in links(sums, size)] for size, sums in batches]
    return tuple(
        McResult(ub=prelog * total[i] / n_samples,
                 ub_stderr=_stderr([prelog * sums[i] / size for size, sums in batches]),
                 lb=se, lb_stderr=_stderr([b[i] for b in batch_lb]), desired=desired,
                 gain_var=gain_var, interference=interference, noise_term=noise)
        for i, (desired, gain_var, interference, noise, se) in enumerate(links(total, n_samples))
    )
