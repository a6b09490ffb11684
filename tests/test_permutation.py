"""Metamorphic relations of a drop's closed forms: after the large-scale stage,
permuting the APs leaves every LB unchanged, at thread budget 1 and 2 alike
(no LB stage reads the budget); permuting the users (their rows of
the large-scale state, roles, pilot assignment and serving mask) permutes the
LBs; and relabelling the pilots leaves every LB unchanged. Each permutation
moves every user and AP index the stages use (the LOS row map, the dense users,
the copilot pairs and their scatter), which the oracles on small fixtures can
miss. The LBs agree to rtol 1e-13, but under DL max-min only the DL min SE is
compared, within outer_tol: the solver's path follows the order of its inputs."""

import pathlib
from dataclasses import replace

import numpy as np
import pytest

from cfsim import mc
from cfsim.association import build_association
from cfsim.config import config_from_dict, load_config, preset_desk, preset_mmimo, preset_paper
from cfsim.estimation import PilotBook, build_estimation
from cfsim.harness import allocate_dl, allocate_ul
from cfsim.se import build_se_tables, dl_sinr_lb, se_from_sinr, ul_sinr_lb

from conftest import drop_state

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"

CASES = {  # name: (config, drops)
    "cf-ppa-fpc": (preset_paper, (0, 1, 2)),
    "uc-5-kappa": (lambda: config_from_dict({"association": {"mode": "uc", "uc_cluster_size": 5},
                                             "power": {"kappa": 0.2}}, base=preset_paper()),
                   (0, 1, 2)),
    "mmimo": (preset_mmimo, (0,)),
    "desk-maxmin": (lambda: load_config(CONFIG_DIR / "maxmin.yaml", base=preset_desk()), (0,)),
}


def _lbs(cfg, ls, book, serving):
    """(DL, UL) LB SINRs of a drop from its large-scale state onwards."""
    est = build_estimation(ls, book, cfg.train_energy_w, cfg.noise_w)
    tables = build_se_tables(ls, est, book, serving)
    eta_dl, _ = allocate_dl(cfg, tables, ls.roles)
    eta_ul, _ = allocate_ul(cfg, tables, est)
    return dl_sinr_lb(tables, eta_dl, cfg.noise_w), ul_sinr_lb(tables, eta_ul, cfg.noise_w)


def _assert_same(cfg, got, want):
    """got == want, (DL, UL) LB SINRs, to the module's tolerances."""
    (dl, ul), (dl_want, ul_want) = got, want
    if cfg.power.dl == "maxmin":
        se, se_want = (se_from_sinr(x.min(), cfg.frame.prelog) for x in (dl, dl_want))
        assert abs(se - se_want) <= cfg.power.maxmin.outer_tol * se_want
    else:
        np.testing.assert_allclose(dl, dl_want, rtol=1e-13, atol=0)
    np.testing.assert_allclose(ul, ul_want, rtol=1e-13, atol=0)


@pytest.fixture(scope="module", params=[(name, drop) for name, (_, drops) in CASES.items()
                                        for drop in drops],
                ids=lambda p: f"{p[0]}-drop{p[1]}")
def drop(request):
    """(cfg, ls, book, serving, LBs, drop)."""
    name, drop = request.param
    cfg = CASES[name][0]()
    ls, book = drop_state(cfg, drop)
    serving = build_association(cfg, ls.beta)
    return cfg, ls, book, serving, _lbs(cfg, ls, book, serving), drop


def _ap_moved_lbs(drop, seed):
    """The drop's LBs with its APs in a random order drawn from seed."""
    cfg, ls, book, serving = drop[:4]
    ap = np.random.default_rng(seed).permutation(cfg.n_ap)
    moved = replace(ls, beta=ls.beta[:, ap], rice_k=ls.rice_k[:, ap], steering=ls.steering[:, ap])
    return _lbs(cfg, moved, book, serving[:, ap])


def test_ap_order_leaves_every_lb(drop):
    cfg, base, seed = drop[0], drop[4], drop[5]
    _assert_same(cfg, _ap_moved_lbs(drop, seed), base)


@pytest.mark.parametrize("budget", [1, 2])
def test_ap_order_leaves_every_lb_at_either_thread_budget(monkeypatch, drop, budget):
    cfg, base, seed = drop[0], drop[4], drop[5]
    monkeypatch.setattr(mc, "BUDGET", budget)
    _assert_same(cfg, _ap_moved_lbs(drop, 10 + seed), base)


def test_user_order_permutes_the_lbs(drop):
    cfg, ls, book, serving, base, seed = drop
    user = np.random.default_rng(seed).permutation(cfg.n_users)
    moved = replace(ls, beta=ls.beta[user], rice_k=ls.rice_k[user],
                    steering=ls.steering[user], roles=ls.roles[user])
    moved_book = PilotBook(assignment=book.assignment[user], tau_p=book.tau_p)
    _assert_same(cfg, _lbs(cfg, moved, moved_book, serving[user]), [x[user] for x in base])


def test_pilot_labels_leave_every_lb(drop):
    cfg, ls, book, serving, base, seed = drop
    label = np.random.default_rng(seed).permutation(book.tau_p)
    relabelled = PilotBook(assignment=label[book.assignment], tau_p=book.tau_p)
    assert (relabelled.assignment != book.assignment).any()
    _assert_same(cfg, _lbs(cfg, ls, relabelled, serving), base)
