"""MC sampler kernels against their literal einsum forms, and argument checks."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import make_state

from cfsim.channel import draw_channels
from cfsim.mc import (
    _dl_cross,
    _ul_cross,
    fourth_moment_check,
    joint_chunks,
    se_ub_mc,
    uatf_dl_mc,
    uatf_ul_mc,
)


def _dl_cross_oracle(g, g_hat, root_eta_dl):
    return np.einsum("skan,ja,sjan->skj", np.conj(g), root_eta_dl, g_hat)


def _ul_cross_oracle(g, g_hat, mask):
    cross = np.einsum("skan,ka,sjan->skj", np.conj(g_hat), mask, g)
    norms = np.einsum("skan,ka->sk", np.abs(g_hat) ** 2, mask)
    return cross, norms


def _joint_oracle(ls, est, book, rng, s):
    """One chunk through the dense K x K copilot weights, drawn in the sampler's order."""
    A, N = ls.steering.shape[1:]
    same = book.assignment[:, None] == book.assignment[None, :]
    M = same * np.sqrt(np.asarray(est.eta_train, dtype=float))[None, :]
    g = draw_channels(ls, rng, s)
    noise = np.sqrt(est.sigma_w2 / 2.0) * (
        rng.standard_normal((s, book.tau_p, A, N))
        + 1j * rng.standard_normal((s, book.tau_p, A, N))
    )
    y_hat = np.einsum("ki,sian->skan", M, g) + noise[:, book.assignment]
    return g, np.einsum("kanm,skam->skan", est.D, y_hat)


def _draw_oracle(ls, rng, n):
    K, A, N = ls.steering.shape
    shape = (n, K, A, N)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    if ls.los_phase_policy == "per_drop":
        theta = np.broadcast_to(ls.los_phase, (n, K, A))
    else:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(n, K, A))
    scale = np.sqrt(ls.beta / (ls.rice_k + 1.0))[None, :, :, None]
    los = np.sqrt(ls.rice_k)[None, :, :, None] * np.exp(1j * theta)[..., None] * ls.steering[None]
    return scale * (los + h)


@pytest.fixture(scope="module")
def collided_uc():
    """6 users on 3 pilots (collisions), user-centric clusters of 2 out of 4 APs."""
    st = make_state(seed=21, n_ap=4, n_ap_antennas=3, n_gue=4, n_uav=2, tau_p=3,
                    association_mode="uc", uc_cluster_size=2)
    assert len(np.unique(st["book"].assignment)) < st["cfg"].n_users
    assert not st["assoc"].serving.all()
    return st


@pytest.fixture(params=["gate", "collided_uc"])
def state(request, gate_fixture, collided_uc):
    return gate_fixture if request.param == "gate" else collided_uc


def test_joint_chunks_match_dense_copilot_oracle(state):
    ls, est, book = state["ls"], state["est"], state["book"]
    chunks = list(joint_chunks(ls, est, book, np.random.default_rng(5), 50, chunk=23))
    rng = np.random.default_rng(5)
    for (g, g_hat), s in zip(chunks, (23, 23, 4)):
        g_ref, g_hat_ref = _joint_oracle(ls, est, book, rng, s)
        np.testing.assert_array_equal(g, g_ref)
        np.testing.assert_allclose(g_hat, g_hat_ref, rtol=1e-12, atol=0)


def test_cross_kernels_match_einsum_oracles(state):
    ls, est, book = state["ls"], state["est"], state["book"]
    rng = np.random.default_rng(6)
    g, g_hat = next(joint_chunks(ls, est, book, rng, 40))
    serving = state["assoc"].serving
    root = np.sqrt(np.where(serving, rng.uniform(0.01, 0.2, serving.shape), 0.0))
    np.testing.assert_allclose(
        _dl_cross(g, g_hat, root), _dl_cross_oracle(g, g_hat, root), rtol=1e-12
    )
    mask = serving.astype(float)
    cross, norms = _ul_cross(g, g_hat, mask)
    cross_ref, norms_ref = _ul_cross_oracle(g, g_hat, mask)
    np.testing.assert_allclose(cross, cross_ref, rtol=1e-12)
    np.testing.assert_allclose(norms, norms_ref, rtol=1e-12)


@pytest.mark.parametrize("policy", ["per_draw", "per_drop"])
def test_sampler_keeps_the_channel_stream(gate_fixture, policy):
    ls = replace(gate_fixture["ls"], los_phase_policy=policy)
    est, book = gate_fixture["est"], gate_fixture["book"]
    g, _ = next(joint_chunks(ls, est, book, np.random.default_rng(9), 30))
    np.testing.assert_array_equal(g, draw_channels(ls, np.random.default_rng(9), 30))
    np.testing.assert_allclose(
        g, _draw_oracle(ls, np.random.default_rng(9), 30), rtol=1e-12, atol=1e-300
    )


def test_se_ub_mc_links_match_per_link_reduction(state):
    # both links read one stream; each must equal its own link's reduction of
    # the same joint_chunks draws, with its own eta, noise and prelog
    ls, est, book = state["ls"], state["est"], state["book"]
    serving = state["assoc"].serving
    pick = np.random.default_rng(4)
    eta_dl = np.where(serving, pick.uniform(0.01, 0.2, serving.shape), 0.0)
    eta_ul = pick.uniform(0.02, 0.3, ls.n_users)
    sigma_z2, prelog_dl, prelog_ul = 3.0 * est.sigma_w2, 0.3, 0.45
    dl, ul = se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, sigma_z2, prelog_dl, prelog_ul,
                      60, np.random.default_rng(3), batch_count=3, chunk=20)

    def sinr(pw, noise):
        num = np.diagonal(pw, axis1=1, axis2=2)
        return num / (pw.sum(axis=2) - num + noise)

    batch_dl, batch_ul = [], []
    for g, g_hat in joint_chunks(ls, est, book, np.random.default_rng(3), 60, chunk=20):
        pw = np.abs(_dl_cross_oracle(g, g_hat, np.sqrt(eta_dl))) ** 2
        batch_dl.append(prelog_dl * np.log2(1.0 + sinr(pw, sigma_z2)).mean(axis=0))
        cross, norms = _ul_cross_oracle(g, g_hat, serving.astype(float))
        pw = eta_ul[None, None, :] * np.abs(cross) ** 2
        batch_ul.append(prelog_ul * np.log2(1.0 + sinr(pw, est.sigma_w2 * norms)).mean(axis=0))
    for res, batch in ((dl, batch_dl), (ul, batch_ul)):
        np.testing.assert_allclose(res.se, np.mean(batch, axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            res.se_stderr, np.std(batch, axis=0, ddof=1) / np.sqrt(3), rtol=1e-12
        )


@pytest.mark.parametrize("n_samples,batch_count", [(5, 20), (100, 1), (100, 0)])
def test_mc_rejects_too_few_samples_or_batches(gate_fixture, n_samples, batch_count):
    ls, est, book = gate_fixture["ls"], gate_fixture["est"], gate_fixture["book"]
    serving = gate_fixture["assoc"].serving
    eta_dl = np.where(serving, 0.1, 0.0)
    eta_ul = np.full(ls.n_users, 0.1)
    rng = np.random.default_rng(0)
    calls = [
        lambda: se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, 1e-3, 0.4, 0.4, n_samples,
                         rng, batch_count=batch_count),
        lambda: uatf_dl_mc(ls, est, book, serving, eta_dl, 1e-3, 0.4, n_samples, rng,
                           batch_count=batch_count),
        lambda: uatf_ul_mc(ls, est, book, serving, eta_ul, 0.4, n_samples, rng,
                           batch_count=batch_count),
        lambda: fourth_moment_check(1.0, 2.0, np.ones(2), np.eye(2), n_samples, rng,
                                    batch_count=batch_count),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"n_samples={n_samples}, batch_count={batch_count}"):
            call()
