"""One trading day of the market, evaluated from scratch.

Every agent plans production q_p = [sum_j sqrt(a_ij * p_i/p_j)]^(2/3), the
closed-form maximizer of the utility -q^2/2 + sum_j 2*sqrt(q_ij) under the
budget p_i*q_i = sum_j p_j*q_ij with fixed spending fractions a_ij.  Wants,
demands, traded quantities, expenditure shares and profits follow.  This is
the one full evaluation; the incremental kernel in `dynamics` repeats its
arithmetic in its order, so the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MarketDomainError

TWO_THIRDS = 2.0 / 3.0


@dataclass
class MarketSnapshot:
    """Result of one full market evaluation.

    wants and shares are flat per-supplier-edge arrays aligned with
    net.sup_idx.
    """
    production: np.ndarray
    wants: np.ndarray
    demand: np.ndarray
    traded: np.ndarray
    shares: np.ndarray
    profit: np.ndarray


def evaluate_market(prices, net, wts):
    """Evaluate one full trading day and return a MarketSnapshot."""
    p = np.asarray(prices, dtype=np.float64)
    if p.shape != (net.n_agents,):
        raise MarketDomainError(f"expected {net.n_agents} prices, got shape {p.shape}")
    if not np.all(p > 0.0):
        raise MarketDomainError("prices must be strictly positive")
    # agents' edge ids as columns of a (max degree, N) matrix, short ones
    # padded with an appended zero: summing over axis 0 adds each row left
    # to right, and float ** is libm pow, both as in the engine's kernel
    deg = np.diff(net.sup_ptr)
    slot = np.arange(deg.max())[:, None]
    padded = np.where(slot < deg, net.sup_ptr[:-1] + slot, net.n_edges)
    prod_terms = wts.weights_flat * (p[net.row_agent] / p[net.sup_idx])
    sums = np.append(np.sqrt(prod_terms), 0.0)[padded].sum(axis=0)
    production = np.array([s ** TWO_THIRDS for s in sums.tolist()])
    wants = prod_terms * production[net.row_agent]
    demand = np.bincount(net.sup_idx, weights=wants, minlength=net.n_agents)
    traded = np.minimum(production, demand)
    # share b_ij of supplier j's sales going to customer i; zero where j has
    # no demand (nothing is traded there, so the profit term vanishes anyway)
    dj = demand[net.sup_idx]
    shares = np.zeros_like(wants)
    np.divide(wants, dj, out=shares, where=dj > 0.0)
    # profit: earnings p_i*q_t minus expenditure on suppliers
    contrib = shares * (p[net.sup_idx] * traded[net.sup_idx])
    expend = np.append(contrib, 0.0)[padded].sum(axis=0)
    profit = p * traded - expend
    return MarketSnapshot(production=production, wants=wants, demand=demand,
                          traded=traded, shares=shares, profit=profit)
