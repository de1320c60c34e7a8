import numpy as np
import pytest

import socmarket as sm
from socmarket.errors import MarketDomainError

from conftest import customer_rows, random_instance, supplier_rows


def brute_force_snapshot(prices, suppliers, weights):
    """Straight-line re-derivation of one trading day, kept deliberately
    independent of the package implementation."""
    n = len(suppliers)
    production = []
    wants = []  # dict per agent: supplier -> quantity
    for i in range(n):
        tot = 0.0
        for j, a in zip(suppliers[i], weights[i]):
            tot += (a * prices[i] / prices[j]) ** 0.5
        q = tot ** (2.0 / 3.0)
        production.append(q)
        wants.append({j: a * (prices[i] / prices[j]) * q
                      for j, a in zip(suppliers[i], weights[i])})
    demand = [0.0] * n
    for i in range(n):
        for j, w in wants[i].items():
            demand[j] += w
    traded = [min(production[i], demand[i]) for i in range(n)]
    profit = []
    for i in range(n):
        expend = 0.0
        for j, w in wants[i].items():
            if demand[j] > 0:
                expend += (w / demand[j]) * prices[j] * traded[j]
        profit.append(prices[i] * traded[i] - expend)
    return production, wants, demand, traded, profit


def symmetric_ring(n=5, a=0.5, price=10.0):
    net = sm.build_ring(n)
    wts = sm.assign_weights_fixed(net, a)
    return net, wts, np.full(n, price)


def production(prices, net, wts):
    return sm.evaluate_market(prices, net, wts).production


class TestProduction:
    def test_single_supplier_unit(self):
        net = sm.TradeNetwork([[1], [0]], (2,), "custom")
        wts = sm.ExpenditureMatrix(net, np.ones(2), "fixed")
        p = np.array([3.0, 3.0])
        assert production(p, net, wts)[0] == pytest.approx(1.0)

    def test_equal_split_equal_prices(self):
        net, wts, p = symmetric_ring()
        # frozen from the 1D maximization oracle (scipy bounded minimizer
        # of -u(q)); agrees with 2**(1/3)
        assert production(p, net, wts) == pytest.approx(
            np.full(5, 1.2599210498948732), abs=1e-12)

    def test_quarter_split_equal_prices(self):
        net, wts, p = symmetric_ring(a=0.25)
        # frozen from the same oracle: argmax of -q^2/2 + 2 sqrt(0.25 q) + 2 sqrt(0.75 q)
        assert production(p, net, wts) == pytest.approx(
            np.full(5, 1.2311354891647142), abs=1e-12)

    def test_rejects_nonpositive_price(self):
        net, wts, p = symmetric_ring()
        p[3] = 0.0
        with pytest.raises(MarketDomainError):
            sm.evaluate_market(p, net, wts)

    def test_optimum_beats_grid(self, rng):
        # the closed form must maximize the utility -q^2/2 + sum_j 2 sqrt(q_ij)
        # over a dense grid for random spending splits and price ratios
        for _ in range(100):
            k = int(rng.integers(1, 6))
            a = rng.random(k) + 0.05
            a /= a.sum()
            ratios = rng.uniform(0.2, 5.0, k)
            q_star = np.sum(np.sqrt(a * ratios)) ** (2.0 / 3.0)
            u_star = -0.5 * q_star * q_star + 2.0 * np.sum(np.sqrt(a * ratios * q_star))
            grid = np.linspace(q_star / 4, 4 * q_star, 2000)
            u_grid = -0.5 * grid ** 2 + 2 * np.sqrt(grid) * np.sum(np.sqrt(a * ratios))
            assert u_grid.max() <= u_star + 1e-12 * max(1.0, abs(u_star))

    def test_monotone_in_supplier_price(self, rng):
        for _ in range(20):
            net, wts, prices = random_instance(rng)
            j = int(rng.integers(net.n_agents))
            customers = customer_rows(net)[j]
            if not customers:
                continue
            cheaper = prices.copy()
            cheaper[j] *= 0.9
            before = production(prices, net, wts)
            after = production(cheaper, net, wts)
            for i in customers:
                w = wts.row(i)[net.suppliers[i].tolist().index(j)]
                if w > 0:
                    assert after[i] > before[i]


class TestWants:
    def test_symmetric_ring_wants(self):
        net, wts, p = symmetric_ring()
        w = sm.evaluate_market(p, net, wts).wants
        assert w == pytest.approx(np.full(net.n_edges, 2.0 ** (-2.0 / 3.0)), abs=1e-12)

    def test_zero_weight_edge(self):
        net = sm.TradeNetwork([[1, 2], [0, 2], [0, 1]], (3,), "custom")
        wts = sm.ExpenditureMatrix(net, np.array([0.0, 1.0, 0.5, 0.5, 1.0, 0.0]),
                                   "custom")
        p = np.array([7.0, 9.0, 11.0])
        w = sm.evaluate_market(p, net, wts).wants
        assert w[0] == 0.0 and w[5] == 0.0
        assert np.all(w[1:5] > 0.0)

    def test_global_scaling_leaves_wants(self, rng):
        net, wts, prices = random_instance(rng)
        snap = sm.evaluate_market(prices, net, wts)
        snap2 = sm.evaluate_market(prices * 2.0, net, wts)
        assert np.allclose(snap.wants, snap2.wants, rtol=1e-12)

    def test_budget_identity(self, rng):
        # planned spending exactly exhausts planned earnings
        for _ in range(30):
            net, wts, prices = random_instance(rng)
            snap = sm.evaluate_market(prices, net, wts)
            spend = np.bincount(net.row_agent,
                                weights=snap.wants * prices[net.sup_idx],
                                minlength=net.n_agents)
            earn = prices * snap.production
            assert np.max(np.abs(spend - earn) / earn) < 1e-9


class TestDemandTradeShares:
    def test_symmetric_ring_demand_equals_production(self):
        net, wts, p = symmetric_ring()
        snap = sm.evaluate_market(p, net, wts)
        assert snap.demand == pytest.approx(snap.production, abs=1e-12)

    def test_agent_without_customers(self):
        net = sm.TradeNetwork([[1], [0], [0]], (3,), "custom")
        wts = sm.ExpenditureMatrix(net, np.ones(3), "custom")
        snap = sm.evaluate_market(np.array([5.0, 6.0, 7.0]), net, wts)
        assert snap.demand[2] == 0.0
        assert snap.traded[2] == 0.0

    def test_want_mass_conservation(self, rng):
        for _ in range(20):
            net, wts, prices = random_instance(rng)
            snap = sm.evaluate_market(prices, net, wts)
            assert snap.demand.sum() == pytest.approx(snap.wants.sum(), rel=1e-12)

    def test_symmetric_shares_are_half(self):
        net, wts, p = symmetric_ring()
        snap = sm.evaluate_market(p, net, wts)
        assert snap.shares == pytest.approx(np.full(net.n_edges, 0.5), abs=1e-12)

    def test_single_customer_share_is_one(self):
        net = sm.TradeNetwork([[1], [0]], (2,), "custom")
        wts = sm.ExpenditureMatrix(net, np.ones(2), "custom")
        snap = sm.evaluate_market(np.array([5.0, 8.0]), net, wts)
        assert snap.shares == pytest.approx([1.0, 1.0])

    def test_zero_demand_share_is_zero(self):
        # agent 2 is wanted by nobody (its only inbound edge has weight 0),
        # so the share on that edge is zero by definition
        net = sm.TradeNetwork([[1, 2], [0], [0]], (3,), "custom")
        wts = sm.ExpenditureMatrix(net, np.array([1.0, 0.0, 1.0, 1.0]), "custom")
        snap = sm.evaluate_market(np.array([5.0, 6.0, 7.0]), net, wts)
        assert snap.demand[2] == 0.0
        assert snap.shares[1] == 0.0

    def test_share_normalization(self, rng):
        for _ in range(20):
            net, wts, prices = random_instance(rng)
            snap = sm.evaluate_market(prices, net, wts)
            got = np.bincount(net.sup_idx, weights=snap.shares,
                              minlength=net.n_agents)
            for j in range(net.n_agents):
                if snap.demand[j] > 0:
                    assert got[j] == pytest.approx(1.0, abs=1e-9)


class TestProfits:
    def test_symmetric_ring_zero_profit(self):
        net, wts, p = symmetric_ring()
        snap = sm.evaluate_market(p, net, wts)
        assert snap.profit == pytest.approx(np.zeros(5), abs=1e-12)

    def test_profit_scales_linearly_with_prices(self, rng):
        net, wts, prices = random_instance(rng)
        lam = 3.7
        a = sm.evaluate_market(prices, net, wts)
        b = sm.evaluate_market(lam * prices, net, wts)
        assert np.allclose(b.profit, lam * a.profit, rtol=1e-12, atol=1e-12)

    def test_three_agent_cycle_against_oracle(self):
        suppliers = [[2], [0], [1]]
        net = sm.TradeNetwork(suppliers, (3,), "custom")
        wts = sm.ExpenditureMatrix(net, np.ones(3), "custom")
        prices = np.array([10.0, 10.5, 11.0])
        snap = sm.evaluate_market(prices, net, wts)
        _, _, _, _, profit = brute_force_snapshot(
            prices, suppliers, [[1.0], [1.0], [1.0]])
        assert snap.profit == pytest.approx(profit, rel=1e-12)

    def test_random_instances_against_oracle(self, rng):
        for _ in range(15):
            net, wts, prices = random_instance(rng)
            weights = [wts.row(i).tolist() for i in range(net.n_agents)]
            snap = sm.evaluate_market(prices, net, wts)
            production, _, demand, traded, profit = brute_force_snapshot(
                prices, supplier_rows(net), weights)
            assert snap.production == pytest.approx(production, rel=1e-10)
            assert snap.demand == pytest.approx(demand, rel=1e-10, abs=1e-12)
            assert snap.traded == pytest.approx(traded, rel=1e-10, abs=1e-12)
            assert snap.profit == pytest.approx(profit, rel=1e-9, abs=1e-10)


class TestEvaluateMarket:
    def test_symmetric_ring_snapshot(self):
        net, wts, p = symmetric_ring()
        snap = sm.evaluate_market(p, net, wts)
        assert snap.profit == pytest.approx(np.zeros(5), abs=1e-12)
        assert snap.traded == pytest.approx(np.full(5, 2 ** (1 / 3)), abs=1e-12)

    def test_identities_on_random_instances(self, rng):
        for _ in range(30):
            net, wts, prices = random_instance(rng)
            snap = sm.evaluate_market(prices, net, wts)
            scale = np.abs(prices * snap.traded).sum()
            assert abs(snap.profit.sum()) <= 1e-9 * max(scale, 1.0)
            assert np.array_equal(snap.traded,
                                  np.minimum(snap.production, snap.demand))

    def test_label_permutation_equivariance(self, rng):
        net, wts, prices = random_instance(rng)
        n = net.n_agents
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        suppliers2 = [perm[net.suppliers[int(inv[k])]].tolist() for k in range(n)]
        net2 = sm.TradeNetwork(suppliers2, (n,), "custom")
        w2 = np.concatenate([wts.row(int(inv[k])) for k in range(n)])
        wts2 = sm.ExpenditureMatrix(net2, w2, "custom")
        snap = sm.evaluate_market(prices, net, wts)
        snap2 = sm.evaluate_market(prices[inv], net2, wts2)
        assert snap2.production == pytest.approx(snap.production[inv], rel=1e-12)
        assert snap2.profit == pytest.approx(snap.profit[inv], rel=1e-9, abs=1e-12)
