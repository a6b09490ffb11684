import numpy as np
import pytest

from cfsim.association import associate_uc, build_association
from cfsim.config import SimConfig
from cfsim.errors import ConfigError


def _aps_of(serving, k):
    return np.flatnonzero(serving[k]).tolist()


def _cf(n_ap, n_users):
    """The cell-free serving mask of n_users users and n_ap APs."""
    return build_association(SimConfig(), np.ones((n_users, n_ap)))


def test_cf_full_map():
    serving = _cf(2, 3)
    assert serving.shape == (3, 2) and serving.dtype == bool
    assert serving.sum(axis=0).tolist() == [3, 3]
    assert serving.sum(axis=1).tolist() == [2, 2, 2]


def _consistent(serving):
    # A_k and K_a read the same mask: a in A_k exactly when k in K_a
    for k in range(serving.shape[0]):
        for a in range(serving.shape[1]):
            assert (a in np.flatnonzero(serving[k])) == (k in np.flatnonzero(serving[:, a]))


def test_cf_bidirectional_consistency():
    _consistent(_cf(4, 5))


def test_uc_degenerates_to_cf():
    beta = np.random.default_rng(0).uniform(0.1, 1.0, (5, 4))
    uc = associate_uc(beta, 4)
    cf = _cf(4, 5)
    np.testing.assert_array_equal(uc, cf)


def test_uc_single_ap_is_argmax():
    beta = np.random.default_rng(1).uniform(0.1, 1.0, (6, 5))
    serving = associate_uc(beta, 1)
    for k in range(6):
        assert _aps_of(serving, k) == [int(np.argmax(beta[k]))]


def test_uc_strictly_decreasing_rows():
    beta = np.tile(np.arange(8, 0, -1, dtype=float), (3, 1))
    serving = associate_uc(beta, 3)
    for k in range(3):
        assert _aps_of(serving, k) == [0, 1, 2]


def test_uc_matches_brute_force_topk():
    rng = np.random.default_rng(2)
    beta = rng.uniform(0.0, 1.0, (10, 6))
    target = 3
    serving = associate_uc(beta, target)
    for k in range(10):
        brute = set(np.argsort(-beta[k], kind="stable")[:target])
        assert set(_aps_of(serving, k)) == brute
    _consistent(serving)


def test_uc_topk_optimality():
    rng = np.random.default_rng(3)
    beta = rng.uniform(0.0, 1.0, (7, 9))
    serving = associate_uc(beta, 4)
    for k in range(7):
        inside = serving[k]
        assert beta[k, inside].min() >= beta[k, ~inside].max()


def test_uc_tie_break_lower_index():
    beta = np.array([[0.5, 0.5, 0.5, 0.2]])
    serving = associate_uc(beta, 2)
    assert _aps_of(serving, 0) == [0, 1]


def test_uc_invalid_target():
    beta = np.ones((2, 3))
    with pytest.raises(ConfigError, match="uc_cluster_size"):
        associate_uc(beta, 0)
    with pytest.raises(ConfigError, match="uc_cluster_size"):
        associate_uc(beta, 4)
