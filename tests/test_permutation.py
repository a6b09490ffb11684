"""Metamorphic relations of a drop's closed forms: after the large-scale stage,
permuting the APs leaves every LB unchanged, and permuting the users (their rows
of the large-scale state, roles, pilot assignment and serving mask) permutes the
LBs. Each permutation moves every user and AP index the stages use (the LOS row
map, the dense users, the copilot pairs, the AP halves), which the oracles on
small fixtures can miss."""

from dataclasses import replace

import numpy as np
import pytest

from cfsim.association import build_association
from cfsim.config import config_from_dict, preset_paper
from cfsim.estimation import PilotBook, build_estimation
from cfsim.harness import allocate_dl, allocate_ul
from cfsim.se import build_se_tables, dl_sinr_lb, ul_sinr_lb

from conftest import drop_state

CASES = {
    "cf-ppa-fpc": {},
    "uc-5-kappa": {"association": {"mode": "uc", "uc_cluster_size": 5},
                   "power": {"kappa": 0.2}},
}


def _lbs(cfg, ls, book, serving):
    """(DL, UL) LB SINRs of a drop from its large-scale state onwards."""
    est = build_estimation(ls, book, cfg.train_energy_w, cfg.noise_w)
    tables = build_se_tables(ls, est, book, serving)
    eta_dl, _ = allocate_dl(cfg, tables, ls.roles)
    eta_ul, _ = allocate_ul(cfg, tables, est)
    return dl_sinr_lb(tables, eta_dl, cfg.noise_w), ul_sinr_lb(tables, eta_ul, cfg.noise_w)


@pytest.fixture(scope="module", params=[(name, drop) for name in CASES for drop in (0, 1)],
                ids=lambda p: f"{p[0]}-drop{p[1]}")
def paper_drop(request):
    name, drop = request.param
    cfg = config_from_dict(CASES[name], base=preset_paper())
    ls, book = drop_state(cfg, drop)
    serving = build_association(cfg, ls.beta)
    return cfg, ls, book, serving, _lbs(cfg, ls, book, serving), drop


def test_ap_order_leaves_every_lb(paper_drop):
    cfg, ls, book, serving, base, drop = paper_drop
    ap = np.random.default_rng(drop).permutation(cfg.n_ap)
    moved = replace(ls, beta=ls.beta[:, ap], rice_k=ls.rice_k[:, ap], steering=ls.steering[:, ap])
    for got, want in zip(_lbs(cfg, moved, book, serving[:, ap]), base):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_user_order_permutes_the_lbs(paper_drop):
    cfg, ls, book, serving, base, drop = paper_drop
    user = np.random.default_rng(drop).permutation(cfg.n_users)
    moved = replace(ls, beta=ls.beta[user], rice_k=ls.rice_k[user],
                    steering=ls.steering[user], roles=ls.roles[user])
    moved_book = PilotBook(assignment=book.assignment[user], tau_p=book.tau_p)
    for got, want in zip(_lbs(cfg, moved, moved_book, serving[user]), base):
        np.testing.assert_allclose(got, want[user], rtol=1e-13, atol=0)
