"""Metamorphic relations of a drop's closed forms: after the large-scale stage,
permuting the APs leaves every LB unchanged, at thread budget 1 and 2 alike;
permuting the users (their rows of the large-scale state, roles, pilot
assignment and serving mask) permutes the LBs; and relabelling the pilots
leaves every LB unchanged. Each permutation moves every user and AP index the
stages use (the LOS row map, the dense users, the copilot pairs and their
scatter, the AP halves), which the oracles on small fixtures can miss."""

from dataclasses import replace

import numpy as np
import pytest

from cfsim import threads
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
    """(cfg, ls, book, serving, LBs, drop), the LBs from one thread."""
    name, drop = request.param
    cfg = config_from_dict(CASES[name], base=preset_paper())
    ls, book = drop_state(cfg, drop)
    serving = build_association(cfg, ls.beta)
    budget, threads.BUDGET = threads.BUDGET, 1
    try:
        return cfg, ls, book, serving, _lbs(cfg, ls, book, serving), drop
    finally:
        threads.BUDGET = budget


def _ap_moved_lbs(paper_drop, seed):
    """The drop's LBs with its APs in a random order drawn from seed."""
    cfg, ls, book, serving, _, _ = paper_drop
    ap = np.random.default_rng(seed).permutation(cfg.n_ap)
    moved = replace(ls, beta=ls.beta[:, ap], rice_k=ls.rice_k[:, ap], steering=ls.steering[:, ap])
    return _lbs(cfg, moved, book, serving[:, ap])


def test_ap_order_leaves_every_lb(paper_drop):
    base, drop = paper_drop[4:]
    for got, want in zip(_ap_moved_lbs(paper_drop, drop), base):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("budget", [1, 2])
def test_ap_order_leaves_every_lb_at_either_thread_budget(monkeypatch, paper_drop, budget):
    # a paper drop's K A N^2 = 96,000 entries split the SE tables into two AP halves
    # at budget 2, and the permutation moves APs from one half into the other
    cfg, (base, drop) = paper_drop[0], paper_drop[4:]
    monkeypatch.setattr(threads, "BUDGET", budget)
    entries = cfg.n_users * cfg.n_ap * cfg.n_ap_antennas**2
    assert len(threads.ap_slices(cfg.n_ap, entries)) == budget
    for got, want in zip(_ap_moved_lbs(paper_drop, 10 + drop), base):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_user_order_permutes_the_lbs(paper_drop):
    cfg, ls, book, serving, base, drop = paper_drop
    user = np.random.default_rng(drop).permutation(cfg.n_users)
    moved = replace(ls, beta=ls.beta[user], rice_k=ls.rice_k[user],
                    steering=ls.steering[user], roles=ls.roles[user])
    moved_book = PilotBook(assignment=book.assignment[user], tau_p=book.tau_p)
    for got, want in zip(_lbs(cfg, moved, moved_book, serving[user]), base):
        np.testing.assert_allclose(got, want[user], rtol=1e-13, atol=0)


def test_pilot_labels_leave_every_lb(paper_drop):
    cfg, ls, book, serving, base, drop = paper_drop
    label = np.random.default_rng(drop).permutation(book.tau_p)
    relabelled = PilotBook(assignment=label[book.assignment], tau_p=book.tau_p)
    assert (relabelled.assignment != book.assignment).any()
    for got, want in zip(_lbs(cfg, ls, relabelled, serving), base):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
