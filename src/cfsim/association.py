"""Serving masks between users and APs (cell-free, user-centric, single-BS baseline).

A serving mask is a (K, A) bool array: serving[k, a] is True when AP a serves
user k, so row k is user k's serving set A_k.
"""

from __future__ import annotations

import numpy as np

from .errors import AssociationError, ConfigError


def associate_uc(beta, cluster_size):
    """User-centric: each user keeps its `cluster_size` largest-beta APs.

    Ties break toward the lower AP index so drops are reproducible.
    """
    beta = np.asarray(beta, dtype=float)
    n_users, n_ap = beta.shape
    if not 1 <= cluster_size <= n_ap:
        raise ConfigError(
            f"must lie in [1, n_ap={n_ap}], got {cluster_size}",
            field="association.uc_cluster_size",
        )
    serving = np.zeros((n_users, n_ap), dtype=bool)
    order = np.argsort(-beta, axis=1, kind="stable")  # stable -> lower index wins ties
    for k in range(n_users):
        serving[k, order[k, :cluster_size]] = True
    return serving


def build_association(config, beta):
    """The serving mask of a drop: every AP serves every user (cell-free), or each
    user's uc_cluster_size strongest APs (user-centric). Raises AssociationError
    if a user has no serving AP."""
    if config.association.mode == "cf":
        serving = np.ones(beta.shape, dtype=bool)
    else:
        serving = associate_uc(beta, config.association.uc_cluster_size)
    if not serving.any(axis=1).all():
        orphans = np.flatnonzero(~serving.any(axis=1))
        raise AssociationError(f"users without serving APs: {orphans.tolist()}")
    return serving
