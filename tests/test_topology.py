import numpy as np
import pytest

import socmarket as sm
from socmarket.errors import TopologyError
from socmarket.topology import coordinates

from conftest import customer_rows, random_instance, supplier_rows


def _coords(net, ids):
    """Lattice coordinates of agent ids on net, as (x, y) tuples."""
    return [tuple(c) for c in coordinates(ids, net.extents).tolist()]


class TestRing:
    def test_smallest_ring_wraps(self):
        net = sm.build_ring(3)
        assert net.suppliers[0].tolist() == [2, 1]

    def test_ring_is_its_own_transpose(self):
        net = sm.build_ring(5)
        assert net.suppliers[2].tolist() == [1, 3]
        assert customer_rows(net)[2] == [1, 3]

    def test_below_minimum_size(self):
        with pytest.raises(TopologyError):
            sm.build_ring(2)

    def test_embedding_is_index(self):
        net = sm.build_ring(7)
        assert net.extents == (7,)
        assert np.array_equal(coordinates(np.arange(7), net.extents), np.arange(7))


class TestCornerLattice:
    def test_rt_origin(self):
        net = sm.build_corner_lattice(3, "RT")
        assert _coords(net, net.suppliers[0]) == [(1, 0), (0, 1)]

    def test_lb_wraps(self):
        net = sm.build_corner_lattice(3, "LB")
        assert _coords(net, net.suppliers[0]) == [(2, 0), (0, 2)]

    def test_rt_customers_are_left_and_bottom(self):
        L = 3
        net = sm.build_corner_lattice(L, "RT")
        customers = customer_rows(net)
        for i in range(net.n_agents):
            x, y = coordinates(i, net.extents)
            expect = {((x - 1) % L) + y * L, x + ((y - 1) % L) * L}
            assert set(customers[i]) == expect
            assert len(customers[i]) == 2

    def test_too_small(self):
        with pytest.raises(TopologyError):
            sm.build_corner_lattice(2, "RT")

    def test_unknown_corner(self):
        with pytest.raises(TopologyError):
            sm.build_corner_lattice(4, "XY")

    @pytest.mark.parametrize("corner", ["RT", "LT", "LB", "RB"])
    def test_supplier_order_follows_precedence(self, corner):
        # canonical direction precedence is R, T, L, B
        net = sm.build_corner_lattice(5, corner)
        order = {"R": 0, "T": 1, "L": 2, "B": 3}
        dirs = sorted(corner, key=lambda d: order[d])
        L = 5
        off = {"R": (1, 0), "T": (0, 1), "L": (-1, 0), "B": (0, -1)}
        for i in (0, 7, 24):
            x, y = coordinates(i, net.extents)
            expect = [((x + off[d][0]) % L) + ((y + off[d][1]) % L) * L for d in dirs]
            assert net.suppliers[i].tolist() == expect


def _corner_type(net, i, L):
    x, y = coordinates(i, net.extents)
    sup = set(_coords(net, net.suppliers[i]))
    got = []
    for d, (dx, dy) in (("R", (1, 0)), ("T", (0, 1)), ("L", (-1, 0)), ("B", (0, -1))):
        if ((x + dx) % L, (y + dy) % L) in sup:
            got.append(d)
    return frozenset(got)


class TestManhattan:
    def test_unit_loop_cycles_through_all_corners(self):
        L = 4
        net = sm.build_manhattan(L)
        cycle = [frozenset(c) for c in ("RT", "RB", "LB", "LT")]
        # walk every unit loop; the four corner types must appear in cyclic
        # order (either orientation, any starting point)
        for x in range(L):
            for y in range(L):
                loop = [(x, y), ((x + 1) % L, y), ((x + 1) % L, (y + 1) % L),
                        (x, (y + 1) % L)]
                types = [_corner_type(net, a + b * L, L) for a, b in loop]
                assert set(types) == set(cycle)
                start = cycle.index(types[0])
                fwd = [cycle[(start + k) % 4] for k in range(4)]
                bwd = [cycle[(start - k) % 4] for k in range(4)]
                assert types in (fwd, bwd)

    def test_degrees(self):
        net = sm.build_manhattan(4)
        assert all(len(s) == 2 for s in supplier_rows(net))
        assert all(len(c) == 2 for c in customer_rows(net))

    @pytest.mark.parametrize("L", [5, 3, 2])
    def test_parity_and_size(self, L):
        with pytest.raises(TopologyError):
            sm.build_manhattan(L)


class TestFLattice:
    def test_even_parity_buys_left_right(self):
        net = sm.build_f_lattice(4)
        assert _coords(net, net.suppliers[0]) == [(3, 0), (1, 0)]

    def test_odd_parity_buys_top_bottom(self):
        net = sm.build_f_lattice(4)
        agent = 1  # (1, 0), odd parity
        assert _coords(net, net.suppliers[agent]) == [(1, 1), (1, 3)]

    def test_degrees(self):
        net = sm.build_f_lattice(4)
        assert all(len(s) == 2 for s in supplier_rows(net))
        assert all(len(c) == 2 for c in customer_rows(net))

    def test_odd_size_rejected(self):
        with pytest.raises(TopologyError):
            sm.build_f_lattice(5)


class TestErEmbedded:
    def test_tiny_alpha_leaves_only_repairs(self):
        net = sm.build_er_embedded(30, 1e-12, np.random.default_rng(0))
        assert all(len(s) == 1 for s in supplier_rows(net))

    def test_mean_degree_tracks_n_alpha(self):
        # <K> = N*alpha; N=100, alpha=0.05 -> about 5, averaged over seeds
        total = 0
        n_seeds = 100
        for seed in range(n_seeds):
            net = sm.build_er_embedded(100, 0.05, np.random.default_rng(seed))
            total += net.n_edges / 100
        assert abs(total / n_seeds - 5.0) < 0.5

    def test_same_seed_same_edges(self):
        a = sm.build_er_embedded(50, 0.1, np.random.default_rng(42))
        b = sm.build_er_embedded(50, 0.1, np.random.default_rng(42))
        assert supplier_rows(a) == supplier_rows(b)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(TopologyError):
            sm.build_er_embedded(10, alpha, np.random.default_rng(0))

    def test_repair_touches_only_supplierless_agents(self):
        # replay the Bernoulli stage with the same stream: agents that drew
        # at least one edge must keep exactly those edges
        n, alpha, seed = 40, 0.04, 7
        rng = np.random.default_rng(seed)
        mat = rng.random((n, n)) < alpha
        np.fill_diagonal(mat, False)
        net = sm.build_er_embedded(n, alpha, np.random.default_rng(seed))
        for i in range(n):
            drawn = np.flatnonzero(mat[i]).tolist()
            row = net.suppliers[i].tolist()
            if drawn:
                assert row == drawn
            else:
                assert len(row) == 1
                assert row[0] != i


class TestInvariants:
    def test_transpose_consistency_and_degree_bookkeeping(self, rng):
        for _ in range(25):
            net, _, _ = random_instance(rng)
            suppliers, customers = supplier_rows(net), customer_rows(net)
            rebuilt = [[] for _ in range(net.n_agents)]
            for i, row in enumerate(suppliers):
                for j in row:
                    rebuilt[j].append(i)
            assert rebuilt == customers
            assert sum(map(len, suppliers)) == net.n_edges
            assert sum(map(len, customers)) == net.n_edges

    def test_lattice_regularity(self):
        nets = [sm.build_corner_lattice(4, c) for c in ("RT", "LT", "LB", "RB")]
        nets += [sm.build_manhattan(4), sm.build_f_lattice(4)]
        for net in nets:
            assert all(len(s) == 2 for s in supplier_rows(net))
            assert all(len(c) == 2 for c in customer_rows(net))

    def test_no_self_edges_rejected(self):
        with pytest.raises(TopologyError):
            sm.TradeNetwork([[0], [0]], (2,), "custom")

    # a valid 5-ring with agents 2 and 4 broken the same way: the error
    # names the lowest offending agent
    @pytest.mark.parametrize("bad_row, message", [
        ([], "agent 2 has no suppliers"),
        ([1, 3, 1], "agent 2 has duplicate suppliers"),
        ([1, 5], "agent 2 has supplier 5 out of range"),
        ([-1, 3], "agent 2 has supplier -1 out of range"),
        ([1, 2], "agent 2 supplies itself"),
    ], ids=["no_suppliers", "duplicate", "above_range", "below_range", "self_supply"])
    def test_invalid_rows_rejected(self, bad_row, message):
        rows = [[4, 1], [0, 2], bad_row, [2, 4], [3, 0]]
        rows[4] = [4 if j == 2 else j for j in bad_row]
        with pytest.raises(TopologyError, match=f"^{message}$"):
            sm.TradeNetwork(rows, (5,), "custom")

    @pytest.mark.parametrize("extents", [(3,), (2, 2), (1, 1, 2), ()],
                             ids=["line", "lattice", "three_dims", "none"])
    def test_extents_must_hold_the_agents(self, extents):
        with pytest.raises(TopologyError, match="do not hold 2 agents"):
            sm.TradeNetwork([[1], [0]], extents, "custom")

    @pytest.mark.parametrize("build", [
        lambda: sm.build_ring(7),
        lambda: sm.build_corner_lattice(5, "RT"),
        lambda: sm.build_corner_lattice(5, "LT"),
        lambda: sm.build_corner_lattice(5, "LB"),
        lambda: sm.build_corner_lattice(5, "RB"),
        lambda: sm.build_manhattan(6),
        lambda: sm.build_f_lattice(6),
        lambda: sm.build_er_embedded(40, 0.1, np.random.default_rng(3)),
        lambda: sm.build_er_embedded(60, 0.01, np.random.default_rng(4)),
    ], ids=["ring", "corner_rt", "corner_lt", "corner_lb", "corner_rb",
            "manhattan", "f_lattice", "er_dense", "er_repaired"])
    def test_transpose_equals_double_loop(self, build):
        net = build()
        customers = [[] for _ in range(net.n_agents)]
        in_edges = [[] for _ in range(net.n_agents)]
        e = 0
        for i, row in enumerate(supplier_rows(net)):
            for j in row:
                customers[j].append(i)
                in_edges[j].append(e)
                e += 1
        assert customer_rows(net) == customers
        for j in range(net.n_agents):
            assert net.in_idx[net.in_ptr[j]:net.in_ptr[j + 1]].tolist() == in_edges[j]
        assert net.in_ptr[-1] == net.n_edges
        # the kernel binds these arrays by address
        for arr in (net.sup_ptr, net.sup_idx, net.in_ptr, net.in_idx):
            assert arr.dtype == np.int64 and arr.flags.c_contiguous


class TestReadOnly:
    def test_writes_to_the_arrays_raise(self):
        # suppliers are views into sup_idx: a write through them would skip
        # the constructor's checks and leave the transpose stale
        net = sm.build_ring(5)
        with pytest.raises(ValueError, match="read-only"):
            net.suppliers[0][0] = 3
        with pytest.raises(ValueError, match="read-only"):
            net.sup_idx[0] = 3
        for name in ("sup_ptr", "sup_idx", "row_agent", "in_ptr", "in_idx"):
            assert not getattr(net, name).flags.writeable
        assert supplier_rows(net)[0] == [4, 1]

    @pytest.mark.parametrize("kind", [
        "ring", "corner_rt", "corner_lt", "corner_lb", "corner_rb",
        "manhattan", "f_lattice", "er_embedded"])
    def test_every_builder_runs_both_engines(self, kind):
        net, wts, _ = random_instance(np.random.default_rng(3), kind)
        cfg = sm.SimConfig(total_steps=300, transient_steps=0, seed=2)
        full = sm.run(net, wts, cfg, engine="full")
        fast = sm.run(net, wts, cfg, engine="incremental", audit_interval=50)
        assert np.array_equal(fast.loser_index, full.loser_index)
        assert np.array_equal(fast.min_profit, full.min_profit)
        assert np.array_equal(fast.mean_price, full.mean_price)


class TestWeights:
    def test_fixed_split_half(self):
        net = sm.build_corner_lattice(4, "RT")
        wts = sm.assign_weights_fixed(net, 0.5)
        for i in range(net.n_agents):
            assert np.array_equal(wts.row(i), [0.5, 0.5])

    def test_fixed_split_quarter(self):
        net = sm.build_manhattan(4)
        wts = sm.assign_weights_fixed(net, 0.25)
        for i in range(net.n_agents):
            assert np.array_equal(wts.row(i), [0.25, 0.75])
            assert wts.row(i).sum() == 1.0

    def test_fixed_split_needs_two_suppliers(self):
        net = sm.build_er_embedded(30, 0.2, np.random.default_rng(3))
        assert any(len(s) != 2 for s in supplier_rows(net))
        with pytest.raises(TopologyError):
            sm.assign_weights_fixed(net, 0.5)

    @pytest.mark.parametrize("a", [0.0, 1.0, -1.0, 2.0])
    def test_fixed_split_bounds(self, a):
        net = sm.build_ring(4)
        with pytest.raises(TopologyError):
            sm.assign_weights_fixed(net, a)

    def test_uniform_single_supplier_gets_everything(self):
        net = sm.build_er_embedded(20, 1e-12, np.random.default_rng(1))
        wts = sm.assign_weights_uniform(net, np.random.default_rng(2))
        assert np.array_equal(wts.weights_flat, np.ones(20))

    def test_uniform_deterministic(self):
        net = sm.build_er_embedded(30, 0.2, np.random.default_rng(5))
        a = sm.assign_weights_uniform(net, np.random.default_rng(9))
        b = sm.assign_weights_uniform(net, np.random.default_rng(9))
        assert np.array_equal(a.weights_flat, b.weights_flat)

    @pytest.mark.parametrize("weights,message", [
        ([0.5] * 9, "weight vector does not match the edge count"),
        ([1.5, -0.5] + [0.5] * 8, "expenditure weights must be >= 0 and not NaN"),
        ([np.nan, 0.5] + [0.5] * 8, "expenditure weights must be >= 0 and not NaN"),
        ([0.5, 0.25] + [0.5] * 8, "expenditure rows must sum to 1"),
    ], ids=["shape", "negative", "nan", "row_sum"])
    def test_bad_weights_rejected(self, weights, message):
        net = sm.build_ring(5)
        with pytest.raises(TopologyError, match=f"^{message}$"):
            sm.ExpenditureMatrix(net, weights, "custom")

    def test_rows_normalized_both_schemes(self, rng):
        for _ in range(25):
            net, wts, _ = random_instance(rng)
            sums = np.bincount(net.row_agent, weights=wts.weights_flat,
                               minlength=net.n_agents)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12
            assert np.all(wts.weights_flat >= 0.0)

