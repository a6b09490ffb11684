"""MC sampler kernels against their literal einsum forms, the threaded sampler
against a single-thread reference, and argument checks."""

import ast
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import make_state
from per_pair import dense_D, draw_channels, fourth_moment_check

import cfsim.channel
import cfsim.mc
from cfsim.channel import sample_blocks
from cfsim.mc import (
    _batch_sums,
    _batched,
    _cross,
    se_ub_mc,
)
from cfsim.power import ppa_dl


def _dl_cross_oracle(g, g_hat, root_eta_dl):
    return np.einsum("skan,ja,sjan->skj", np.conj(g), root_eta_dl, g_hat)


def _ul_cross_oracle(g, g_hat, mask):
    cross = np.einsum("skan,ka,sjan->skj", np.conj(g_hat), mask, g)
    norms = np.einsum("skan,ka->sk", np.abs(g_hat) ** 2, mask)
    return cross, norms


def _joint_oracle(ls, est, book, rng, s):
    """One batch through the dense K x K copilot weights, drawn in the sampler's order."""
    A, N = ls.steering.shape[1:]
    same = book.assignment[:, None] == book.assignment[None, :]
    M = same * np.sqrt(np.asarray(est.eta_train, dtype=float))[None, :]
    g = draw_channels(ls, rng, s)
    noise = np.sqrt(est.sigma_w2 / 2.0) * (
        rng.standard_normal((s, book.tau_p, A, N))
        + 1j * rng.standard_normal((s, book.tau_p, A, N))
    )
    y_hat = np.einsum("ki,sian->skan", M, g) + noise[:, book.assignment]
    return g, np.einsum("kanm,skam->skan", dense_D(est), y_hat)


def _draw_oracle(ls, rng, n):
    K, A, N = ls.steering.shape
    shape = (n, K, A, N)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(n, K, A))
    scale = np.sqrt(ls.beta / (ls.rice_k + 1.0))[None, :, :, None]
    los = np.sqrt(ls.rice_k)[None, :, :, None] * np.exp(1j * theta)[..., None] * ls.steering[None]
    return scale * (los + h)


class _Blocks(list):
    """Blocks that the sampler's block-order sum concatenates in sample order."""

    def __add__(self, other):
        return _Blocks(list.__add__(self, other))

    def __radd__(self, other):  # sum() starts from 0
        return self if other == 0 else NotImplemented


def _drawn(ls, est, book, rng, n_samples, batch_count):
    """Every (g, g_hat) block the sampler makes, concatenated over samples."""
    total, _ = _batch_sums(ls, est, book, rng, n_samples, batch_count,
                           lambda g, g_hat: [_Blocks([g.copy()]), _Blocks([g_hat.copy()])])
    return tuple(np.concatenate(parts) for parts in total)


def _serial_batch_sums(ls, est, book, rng, n_samples, batch_count, reduce):
    """_batch_sums on one thread: per batch, draw_channels and then the training
    noise's real and imaginary parts; each block mixed, estimated and reduced in
    turn, and the block sums added in block order."""
    K, A, N = ls.steering.shape
    pidx = book.assignment
    root_eta = np.sqrt(est.eta_train)
    D = dense_D(est)
    batches = []
    for size in _batched(n_samples, batch_count):
        g = draw_channels(ls, rng, size)
        y = np.empty((size, book.tau_p, A, N), dtype=complex)
        y.real = rng.standard_normal(y.shape)
        y.imag = rng.standard_normal(y.shape)
        y *= np.sqrt(est.sigma_w2 / 2.0)
        for k in range(K):
            y[:, pidx[k]] += root_eta[k] * g[:, k]
        sums = None
        for b in sample_blocks(size, 16 * (K + book.tau_p) * A * N):
            g_hat = np.empty_like(g[b])
            for k in range(K):
                np.matmul(D[k], y[b, pidx[k]].transpose(1, 2, 0),
                          out=g_hat[:, k].transpose(1, 2, 0))
            part = reduce(g[b], g_hat)
            sums = part if sums is None else [s + p for s, p in zip(sums, part)]
        batches.append((size, sums))
    total = [sum(parts) for parts in zip(*(sums for _, sums in batches))]
    return total, batches


def _ub_inputs(state):
    # DL powers around PPA, so the DL SINRs are not small and log2(1 + x) is
    # far from linear
    serving, cfg = state["serving"], state["cfg"]
    pick = np.random.default_rng(4)
    ppa = ppa_dl(state["est"].gamma, serving, np.full(cfg.n_ap, cfg.power.dl_budget_per_ap_w))
    eta_dl = ppa * pick.uniform(0.5, 1.5, serving.shape)
    eta_ul = pick.uniform(0.02, 0.3, state["ls"].n_users)
    return serving, eta_dl, eta_ul


@pytest.fixture(params=["gate", "collided_uc"])
def state(request, gate_fixture, collided_uc):
    return gate_fixture if request.param == "gate" else collided_uc


def test_joint_chunks_match_dense_copilot_oracle(state):
    ls, est, book = state["ls"], state["est"], state["book"]
    g_all, g_hat_all = _drawn(ls, est, book, np.random.default_rng(5), 50, 3)
    rng = np.random.default_rng(5)
    sizes = _batched(50, 3)  # 16, 16, 18
    ends = np.cumsum(sizes)[:-1]
    for g, g_hat, s in zip(np.split(g_all, ends), np.split(g_hat_all, ends), sizes):
        g_ref, g_hat_ref = _joint_oracle(ls, est, book, rng, s)
        np.testing.assert_array_equal(g, g_ref)
        np.testing.assert_allclose(g_hat, g_hat_ref, rtol=1e-12, atol=0)


def test_cross_kernels_match_einsum_oracles(state):
    ls, est, book = state["ls"], state["est"], state["book"]
    rng = np.random.default_rng(6)
    g, g_hat = _drawn(ls, est, book, rng, 40, 2)
    g_before = g.copy()
    serving = state["serving"]
    root = np.sqrt(np.where(serving, rng.uniform(0.01, 0.2, serving.shape), 0.0))
    mask = serving.astype(float)
    ul_ref, norms_ref = _ul_cross_oracle(g, g_hat, mask)
    ul, norms, dl = _cross(g, g_hat.copy(), mask, root)  # the kernel consumes g_hat
    np.testing.assert_allclose(ul, ul_ref, rtol=1e-12)
    np.testing.assert_allclose(norms, norms_ref, rtol=1e-12)
    np.testing.assert_allclose(dl, _dl_cross_oracle(g, g_hat, root), rtol=1e-12)
    np.testing.assert_array_equal(g, g_before)


def test_sampler_keeps_the_channel_stream(gate_fixture):
    # each batch's channels are draw_channels's, then its training noise is drawn
    ls, est, book = gate_fixture["ls"], gate_fixture["est"], gate_fixture["book"]
    g, _ = _drawn(ls, est, book, np.random.default_rng(9), 30, 2)

    def batches(draw):
        rng = np.random.default_rng(9)
        out = []
        for _ in range(2):
            out.append(draw(ls, rng, 15))
            rng.standard_normal((2, 15, book.tau_p, *ls.steering.shape[1:]))  # its noise
        return np.concatenate(out)

    np.testing.assert_array_equal(g, batches(draw_channels))
    np.testing.assert_allclose(g, batches(_draw_oracle), rtol=1e-12, atol=1e-300)


def test_se_ub_mc_links_match_per_link_reduction(state):
    # both links read one stream; each must equal its own link's reduction of
    # the same sampler draws, with its own eta and noise
    ls, est, book = state["ls"], state["est"], state["book"]
    serving, eta_dl, eta_ul = _ub_inputs(state)
    sigma_z2, prelog = 3.0 * est.sigma_w2, 0.3
    dl, ul = se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, sigma_z2, prelog,
                      60, np.random.default_rng(3), batch_count=3)

    def sinr(pw, noise):
        num = np.diagonal(pw, axis1=1, axis2=2)
        return num / (pw.sum(axis=2) - num + noise)

    batch_dl, batch_ul = [], []
    g_all, g_hat_all = _drawn(ls, est, book, np.random.default_rng(3), 60, 3)
    for g, g_hat in zip(np.split(g_all, 3), np.split(g_hat_all, 3)):
        pw = np.abs(_dl_cross_oracle(g, g_hat, np.sqrt(eta_dl))) ** 2
        batch_dl.append(prelog * np.log2(1.0 + sinr(pw, sigma_z2)).mean(axis=0))
        cross, norms = _ul_cross_oracle(g, g_hat, serving.astype(float))
        pw = eta_ul[None, None, :] * np.abs(cross) ** 2
        batch_ul.append(prelog * np.log2(1.0 + sinr(pw, est.sigma_w2 * norms)).mean(axis=0))
    for res, batch in ((dl, batch_dl), (ul, batch_ul)):
        np.testing.assert_allclose(res.ub, np.mean(batch, axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            res.ub_stderr, np.std(batch, axis=0, ddof=1) / np.sqrt(3), rtol=1e-12
        )


def test_uatf_mc_assembles_the_term_groups_from_oracle_moments(state):
    # each link's UatF mirror, the term groups as the bound defines them, from
    # the einsum oracles' moments over the same sampler draws
    ls, est, book = state["ls"], state["est"], state["book"]
    serving, eta_dl, eta_ul = _ub_inputs(state)
    sigma_z2, prelog = 3.0 * est.sigma_w2, 0.3
    dl, ul = se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, sigma_z2, prelog,
                      60, np.random.default_rng(3), batch_count=3)
    g, g_hat = _drawn(ls, est, book, np.random.default_rng(3), 60, 3)
    dl_c = _dl_cross_oracle(g, g_hat, np.sqrt(eta_dl))
    ul_c, norms = _ul_cross_oracle(g, g_hat, serving.astype(float))
    ul_c = np.sqrt(eta_ul)[None, None, :] * ul_c  # user j's UL term carries sqrt(eta_ul[j])
    noises = (np.full(ls.n_users, sigma_z2), est.sigma_w2 * norms.mean(axis=0))
    for res, cross, noise in ((dl, dl_c, noises[0]), (ul, ul_c, noises[1])):
        own = np.diagonal(cross, axis1=1, axis2=2)  # (S, K)
        desired, second = own.mean(axis=0), (np.abs(own) ** 2).mean(axis=0)
        gain_var = second - np.abs(desired) ** 2
        interference = (np.abs(cross) ** 2).mean(axis=0)
        np.fill_diagonal(interference, 0.0)
        se = prelog * np.log2(1.0 + np.abs(desired) ** 2
                              / (gain_var + interference.sum(axis=1) + noise))
        for name, want in (("desired", desired), ("interference", interference),
                           ("noise_term", noise), ("lb", se)):
            np.testing.assert_allclose(getattr(res, name), want, rtol=1e-12, err_msg=name)
        # a variance is a difference of moments: it carries their rounding, 1e-12
        # of E|D_k|^2, which can exceed 1e-12 of the variance itself
        assert np.all(np.abs(res.gain_var - gain_var) <= 1e-12 * second)


def _bounds(results):
    """(SE, stderr) of the UB and of the mirror of each McResult."""
    return [pair for r in results for pair in ((r.ub, r.ub_stderr), (r.lb, r.lb_stderr))]


def _all_estimators(state):
    """g, g_hat, and the bounds of se_ub_mc on two streams, in 2 batches."""
    ls, est, book = state["ls"], state["est"], state["book"]
    serving, eta_dl, eta_ul = _ub_inputs(state)
    kw = dict(batch_count=2)
    rng, sigma_z2 = np.random.default_rng, 3.0 * est.sigma_w2
    results = (
        *se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, sigma_z2, 0.3, 100, rng(1), **kw),
        *se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, sigma_z2, 0.3, 100, rng(2), **kw),
    )
    return _drawn(ls, est, book, rng(7), 100, 2), _bounds(results)


@pytest.mark.parametrize("block_rows", [1, 3, 10**6])
def test_block_size_is_invisible(state, monkeypatch, block_rows):
    # blocks of 3 samples straddle the ends of the 50-sample batches; 10**6
    # puts each batch in one block
    (g_ref, g_hat_ref), ref = _all_estimators(state)
    K, A, N = state["ls"].steering.shape
    row_bytes = 16 * (K + state["book"].tau_p) * A * N
    monkeypatch.setattr(cfsim.channel, "BLOCK_BYTES", block_rows * row_bytes)
    (g, g_hat), res = _all_estimators(state)
    np.testing.assert_array_equal(g, g_ref)
    np.testing.assert_allclose(g_hat, g_hat_ref, rtol=1e-12, atol=0)
    for (se, err), (se_ref, err_ref) in zip(res, ref):
        np.testing.assert_allclose(se, se_ref, rtol=1e-12)
        # a 2-batch stderr is the gap between two batch SEs: it carries their
        # rounding, 1e-12 of the SE, which can exceed 1e-12 of the gap itself
        assert np.all(np.abs(err - err_ref) <= 1e-12 * (err_ref + se_ref))


def test_sampler_memory_is_one_chunk_of_raw_draws(desk_cfg):
    # the peak above entry is one batch's g and training noise plus small blocks;
    # the reducers consume g_hat in place, so no block of theirs copies it
    st = make_state(seed=2, n_ap=desk_cfg.n_ap, n_ap_antennas=desk_cfg.n_ap_antennas,
                    n_gue=desk_cfg.n_gue, n_uav=desk_cfg.n_uav, tau_p=desk_cfg.frame.tau_p,
                    config=desk_cfg)
    ls, est, book = st["ls"], st["est"], st["book"]
    serving, eta_dl, eta_ul = _ub_inputs(st)
    K, A, N = ls.steering.shape
    batch = 256
    raw_bytes = batch * (K + book.tau_p) * A * N * 16
    tracemalloc.start()
    try:
        se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, 3.0 * est.sigma_w2, 0.3, 2 * batch,
                 np.random.default_rng(0), batch_count=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * raw_bytes


def _estimate(state, rng, n_samples=80):
    """The bounds of se_ub_mc on state, n_samples in 2 batches."""
    ls, est, book = state["ls"], state["est"], state["book"]
    serving, eta_dl, eta_ul = _ub_inputs(state)
    sigma_z2, kw = 3.0 * est.sigma_w2, dict(batch_count=2)
    return _bounds(cfsim.mc.se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, sigma_z2, 0.3,
                                     n_samples, rng, **kw))


class _RecordingPool(ThreadPoolExecutor):
    """A ThreadPoolExecutor that records every pool made and how it was shut down."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shutdowns = []
        self.made.append(self)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))
        super().shutdown(wait, cancel_futures=cancel_futures)


@pytest.fixture
def pools(monkeypatch):
    """The pools the sampler makes; the test's calls must leave none running."""
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(cfsim.mc, "ThreadPoolExecutor", _RecordingPool)
    entry = threading.active_count()
    yield _RecordingPool.made
    assert threading.active_count() == entry


def _one_sample_blocks(state, monkeypatch):
    K, A, N = state["ls"].steering.shape
    monkeypatch.setattr(cfsim.channel, "BLOCK_BYTES", 16 * (K + state["book"].tau_p) * A * N)


def test_collided_uc_has_scalar_and_dense_estimators(collided_uc):
    # the sampler applies each user off estimation's dense rows (D a real d I at
    # every AP) as one multiply on y; the serial reference below runs the matmul for
    # every user, so its collided_uc case checks the multiply's bits only while some
    # users are off the dense rows
    dense = collided_uc["est"].dense_users
    assert 0 < len(dense) < collided_uc["cfg"].n_users


# _bounds lists each link's UB pair and then its UatF mirror's pair: the se_ub_mc
# case compares the UB's bytes, the uatf_mc case the mirror's, of the same pass
@pytest.mark.parametrize("part", [pytest.param(0, id="se_ub_mc"), pytest.param(1, id="uatf_mc")])
def test_threaded_sampler_matches_serial_reference(state, monkeypatch, pools, part):
    # 40 one-sample blocks per batch, thread switches as often as the interpreter
    # allows, and reducer calls of scattered length, so blocks finish out of
    # order: the block sums must still be added in block order
    _one_sample_blocks(state, monkeypatch)
    delays = iter(np.random.default_rng(0).uniform(0.0, 2e-3, 10**4))
    lock = threading.Lock()

    def scattered(ls, est, book, rng, n_samples, batch_count, reduce):
        def slow_reduce(g, g_hat):
            with lock:
                delay = next(delays)
            time.sleep(delay)
            return reduce(g, g_hat)

        return _batch_sums(ls, est, book, rng, n_samples, batch_count, slow_reduce)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monkeypatch.setattr(cfsim.mc, "_batch_sums", scattered)
        threaded = _estimate(state, np.random.default_rng(11))
        monkeypatch.setattr(cfsim.mc, "_batch_sums", _serial_batch_sums)
        serial = _estimate(state, np.random.default_rng(11))
    finally:
        sys.setswitchinterval(interval)
    for (se, err), (se_ref, err_ref) in zip(threaded[part::2], serial[part::2]):
        assert se.tobytes() == se_ref.tobytes()
        assert err.tobytes() == err_ref.tobytes()
    assert len(pools) == 1 and pools[0].shutdowns  # no pool is left running


def test_reducer_error_cancels_pending_blocks(gate_fixture, monkeypatch, pools):
    # the third block's reducer raises: the call raises it, the blocks not yet
    # started are cancelled, and no worker outlives the call
    _one_sample_blocks(gate_fixture, monkeypatch)

    class ThirdBlock(Exception):
        pass

    calls, lock = [], threading.Lock()

    def failing(ls, est, book, rng, n_samples, batch_count, reduce):
        def third_fails(g, g_hat):
            with lock:
                calls.append(len(calls))
                n = len(calls)
            if n == 3:
                raise ThirdBlock
            if n > 3:
                time.sleep(0.01)  # the calling thread has time to cancel the rest
            return reduce(g, g_hat)

        return _batch_sums(ls, est, book, rng, n_samples, batch_count, third_fails)

    monkeypatch.setattr(cfsim.mc, "_batch_sums", failing)
    with pytest.raises(ThirdBlock):
        _estimate(gate_fixture, np.random.default_rng(12))
    assert len(calls) < 40  # blocks per batch: the rest never ran
    assert [pool.shutdowns for pool in pools] == [[(True, True)]]


@pytest.mark.parametrize("n_samples,batch_count", [(5, 20), (100, 1), (100, 0)])
def test_mc_rejects_too_few_samples_or_batches(gate_fixture, n_samples, batch_count):
    ls, est, book = gate_fixture["ls"], gate_fixture["est"], gate_fixture["book"]
    serving = gate_fixture["serving"]
    eta_dl = np.where(serving, 0.1, 0.0)
    eta_ul = np.full(ls.n_users, 0.1)
    rng = np.random.default_rng(0)
    args = (ls, est, book, serving, eta_dl, eta_ul, 1e-3, 0.4, n_samples, rng)
    calls = [
        lambda: se_ub_mc(*args, batch_count=batch_count),
        lambda: fourth_moment_check(1.0, 2.0, np.ones(2), np.eye(2), n_samples, rng,
                                    batch_count=batch_count),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"n_samples={n_samples}, batch_count={batch_count}"):
            call()


def test_mc_imports_nothing_from_the_closed_forms():
    # the sampler is the independent side of the closed-form check: mc.py may
    # not import cfsim.se, nor any name from it
    imported = []
    for node in ast.walk(ast.parse(open(cfsim.mc.__file__).read())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # relative to the cfsim package
            module = ".".join(filter(None, ["cfsim" if node.level else "", node.module]))
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
    assert "cfsim.estimation" in imported
    assert not [m for m in imported if m == "cfsim.se" or m.startswith("cfsim.se.")]
