import ctypes
import dataclasses
import io
import re

import numpy as np
import pytest

import socmarket as sm
from socmarket import _kernel
from socmarket.errors import ConsistencyError, MarketDomainError

from conftest import customer_rows, random_instance, supplier_rows


def small_setup(seed=3, n=12):
    net = sm.build_ring(n)
    wts = sm.assign_weights_fixed(net, 0.4)
    cfg = sm.SimConfig(total_steps=400, transient_steps=50, seed=seed)
    return net, wts, cfg


def profit_rows(sim):
    """Profit vector each step of a fresh Simulation sees before its cut."""
    rows = []
    while sim.t < sim.config.total_steps:
        rows.append(sim.engine.profit.copy())
        sim.step()
    return np.array(rows)


class TestSimConfig:
    def test_defaults_follow_protocol(self):
        cfg = sm.SimConfig()
        assert cfg.price_floor == 10.0
        assert cfg.eta_max == 0.01
        assert cfg.total_steps == 1_000_000
        assert cfg.transient_steps == 100_000
        cfg.validate()

    @pytest.mark.parametrize("kw", [
        dict(price_floor=0.0),
        dict(price_floor=-1.0),
        dict(eta_max=0.0),
        dict(eta_max=1.0),
        dict(transient_steps=100, total_steps=100),
        dict(renorm_threshold=-1.0),
        dict(renorm_threshold=1e-300),
        dict(seed=-3),
    ])
    def test_invalid_configs(self, kw):
        with pytest.raises(ValueError):
            sm.SimConfig(**{"total_steps": 100, "transient_steps": 10, **kw}).validate()


class TestInitPrices:
    def test_interval(self):
        net = sm.build_ring(1000)
        wts = sm.assign_weights_fixed(net, 0.5)
        cfg = sm.SimConfig(total_steps=10, transient_steps=0, price_floor=10.0)
        p = np.asarray(sm.Simulation(net, wts, cfg).engine.p)
        assert np.all(p >= 10.0) and np.all(p < 11.0)

    def test_deterministic(self):
        net, wts, _ = small_setup()
        cfg = sm.SimConfig(total_steps=10, transient_steps=0, seed=5)
        a = sm.Simulation(net, wts, cfg).engine.p
        b = sm.Simulation(net, wts, cfg).engine.p
        assert np.array_equal(a, b)


class TestFindLoser:
    def test_basic(self):
        assert sm.find_loser([0.1, -0.2, 0.0]) == 1

    def test_tie_breaks_low_index(self):
        assert sm.find_loser([-0.5, -0.5]) == 0

    def test_shift_invariance(self, rng):
        v = rng.normal(size=30)
        assert sm.find_loser(v) == sm.find_loser(v + 17.3)

    def test_empty(self):
        with pytest.raises(ValueError):
            sm.find_loser([])


class TestApplyPriceCut:
    def test_multiplicative_cut(self):
        net, wts, cfg = small_setup()
        sim = sm.Simulation(net, wts, cfg)
        before = list(sim.engine.p)
        _, loser, _, _, eta, _ = sim.step()
        after = sim.engine.p
        assert 0.0 <= eta < cfg.eta_max
        assert after[loser] == before[loser] * (1.0 - eta)
        assert np.array_equal(after[:loser], before[:loser])
        assert np.array_equal(after[loser + 1:], before[loser + 1:])
        assert all(v > 0 for v in after)

    def test_mean_eta_is_half_max(self):
        net, wts, _ = small_setup()
        cfg = sm.SimConfig(total_steps=20_000, transient_steps=0, seed=0)
        sim = sm.Simulation(net, wts, cfg)
        etas = [sim.step()[4] for _ in range(20_000)]
        assert np.mean(etas) == pytest.approx(0.005, rel=0.02)


class TestAffectedSets:
    def test_ring_profit_set_is_seven_wide(self):
        net = sm.build_ring(100)
        sets = sm.affected_sets(net, 50)
        assert sorted(sets.profit) == list(range(47, 54))
        assert len(sets.profit) == 7

    def test_small_ring_saturates(self):
        net = sm.build_ring(5)
        sets = sm.affected_sets(net, 0)
        assert sorted(sets.profit) == [0, 1, 2, 3, 4]

    def test_er_closure_structure(self, rng):
        net = sm.build_er_embedded(40, 0.08, rng)
        c = 7
        sets = sm.affected_sets(net, c)
        sup, cust = supplier_rows(net), customer_rows(net)
        prod = {c, *cust[c]}
        dem = {j for i in prod for j in sup[i]}
        traded = prod | dem
        profit = traded | {i for j in traded for i in cust[j]}
        assert set(sets.production) == prod
        assert set(sets.demand) == dem
        assert set(sets.traded) == traded
        assert set(sets.profit) == profit
        for phase in sets:
            assert len(set(phase)) == len(phase)

    @pytest.mark.parametrize("build", [
        lambda: sm.build_ring(9),
        lambda: sm.build_ring(3),
        lambda: sm.build_corner_lattice(5, "RT"),
        lambda: sm.build_corner_lattice(5, "LT"),
        lambda: sm.build_corner_lattice(5, "LB"),
        lambda: sm.build_corner_lattice(5, "RB"),
        lambda: sm.build_manhattan(6),
        lambda: sm.build_f_lattice(6),
        lambda: sm.build_er_embedded(40, 0.1, np.random.default_rng(5)),
        lambda: sm.build_er_embedded(60, 0.02, np.random.default_rng(6)),
        lambda: sm.build_er_embedded(60, 0.01, np.random.default_rng(4)),
        lambda: sm.TradeNetwork([[1], [0, 2, 3], [3], [0, 1, 2, 4], [0], [3, 4]],
                                (6,), "custom"),
    ], ids=["ring", "ring3", "corner_rt", "corner_lt", "corner_lb", "corner_rb",
            "manhattan", "f_lattice", "er_dense", "er_sparse", "er_repaired",
            "custom_mixed_degree"])
    def test_every_agent_matches_closure_loop(self, build):
        # the update plan of every agent, built at once, against the
        # dependency chain spelled out as loops over the supplier and
        # customer lists
        net = build()
        sup, cust = supplier_rows(net), customer_rows(net)
        ptr, agents = sm.dynamics.update_plan(net, np.arange(net.n_agents))
        assert len(ptr) == 4 * net.n_agents + 1 and ptr[-1] == len(agents)
        for c in range(net.n_agents):
            prod = [c] + cust[c]
            dem = [j for i in prod for j in sup[i]]
            traded = prod + dem
            profit = traded + [i for j in traded for i in cust[j]]
            rows = [agents[ptr[4 * c + k]:ptr[4 * c + k + 1]].tolist() for k in range(4)]
            assert rows == [sorted(set(prod)), sorted(set(dem)), sorted(set(traded)),
                            sorted(set(profit))]
            assert sm.affected_sets(net, c) == tuple(map(tuple, rows))

    def test_plan_of_some_agents_is_their_rows(self):
        net = sm.build_manhattan(6)
        ptr, agents = sm.dynamics.update_plan(net, np.arange(net.n_agents))
        picked = [7, 0, 35, 7]
        sub_ptr, sub = sm.dynamics.update_plan(net, picked)
        for r, c in enumerate(picked):
            assert np.array_equal(sub[sub_ptr[4 * r]:sub_ptr[4 * r + 4]],
                                  agents[ptr[4 * c]:ptr[4 * c + 4]])

    @pytest.mark.parametrize("agent", [-1, 36])
    def test_plan_rejects_an_agent_out_of_range(self, agent):
        with pytest.raises(IndexError):
            sm.dynamics.update_plan(sm.build_manhattan(6), [3, agent])

    def test_order_within_a_phase_is_free(self, rng):
        # each phase writes its own agents' slots and reads only prices and
        # earlier phases, so a shuffled plan gives the same bits
        for _ in range(10):
            net, wts, prices = random_instance(rng)
            a = sm.MarketEngine(net, wts, prices)
            b = sm.MarketEngine(net, wts, prices)
            c = int(rng.integers(net.n_agents))
            for j in range(4 * c, 4 * c + 4):
                phase = b._plan[b._plan_ptr[j]:b._plan_ptr[j + 1]]
                phase[...] = rng.permutation(phase)
            a.apply_price_change(c, prices[c] * 0.99)
            b.apply_price_change(c, prices[c] * 0.99)
            assert all(map(np.array_equal, (a.qp, a.wants, a.qW, a.qt),
                           (b.qp, b.wants, b.qW, b.qt)))
            assert a.profit.tobytes() == b.profit.tobytes()

    def test_covers_all_actually_changed_profits(self, rng):
        # brute force: after one cut, profits outside the predicted set
        # must be bit-identical to before
        for _ in range(10):
            net, wts, prices = random_instance(rng)
            before = sm.evaluate_market(prices, net, wts)
            c = int(rng.integers(net.n_agents))
            p2 = prices.copy()
            p2[c] *= 0.99
            after = sm.evaluate_market(p2, net, wts)
            changed = np.flatnonzero(before.profit != after.profit)
            assert set(changed) <= set(sm.affected_sets(net, c).profit)


class TestIncrementalEvaluate:
    def test_single_cut_matches_full_recompute(self):
        net = sm.build_corner_lattice(32, "RT")
        wts = sm.assign_weights_fixed(net, 0.25)
        rng = np.random.default_rng(8)
        prices = 10.0 + rng.random(net.n_agents)
        eng = sm.MarketEngine(net, wts, prices)
        c = 517
        eng.apply_price_change(c, prices[c] * 0.99)
        assert eng.touched_last == len(sm.affected_sets(net, c).profit)
        eng.audit()

    def test_random_topologies(self, rng):
        for _ in range(10):
            net, wts, prices = random_instance(rng)
            eng = sm.MarketEngine(net, wts, prices)
            c = int(rng.integers(net.n_agents))
            eng.apply_price_change(c, prices[c] * (1.0 - 0.01 * rng.random()))
            eng.audit()

    def test_stale_state_detected(self):
        net, wts, cfg = small_setup()
        eng = sm.Simulation(net, wts, cfg).engine
        eng.apply_price_change(0, eng.p[0] * 0.99)
        eng.p[5] *= 0.98  # a second change the engine was not told about
        with pytest.raises(ConsistencyError):
            eng.audit()


class TestStep:
    def test_symmetric_ring_first_loser_is_zero(self):
        # all profits are exactly zero at t=0 on a symmetric ring, so the
        # tie-break picks agent 0 and only its price changes
        net = sm.build_ring(6)
        wts = sm.assign_weights_fixed(net, 0.5)
        cfg = sm.SimConfig(total_steps=5, transient_steps=0, seed=1)
        sim = sm.Simulation(net, wts, cfg)
        eng = sim.engine
        eng.p = [10.0] * 6
        eng.psum = 60.0
        eng.recompute_all()
        before = list(eng.p)
        t, loser, smin, mp, eta, _ = sim.step()
        assert (t, loser) == (0, 0)
        assert smin == 0.0
        assert eng.p[0] == before[0] * (1.0 - eta)
        assert np.array_equal(eng.p[1:], before[1:])

    def test_deterministic_records(self):
        net, wts, cfg = small_setup()
        a = sm.run(net, wts, cfg)
        b = sm.run(net, wts, cfg)
        assert np.array_equal(a.loser_index, b.loser_index)
        assert np.array_equal(a.min_profit, b.min_profit)
        assert np.array_equal(a.mean_price, b.mean_price)

    def test_renormalization_neutrality(self):
        # force a renormalization every step; the loser sequence must match
        # the run without renormalization (homogeneity)
        net, wts, _ = small_setup()
        base = sm.SimConfig(total_steps=200, transient_steps=10, seed=9)
        always = sm.SimConfig(total_steps=200, transient_steps=10, seed=9,
                              renorm_threshold=1e9)
        a = sm.run(net, wts, base)
        b = sm.run(net, wts, always)
        assert not a.renorm_flags.any()
        assert b.renorm_flags.all()
        assert np.array_equal(a.loser_index, b.loser_index)

    def test_renorm_triggers_below_threshold(self):
        net, wts, _ = small_setup()
        cfg = sm.SimConfig(total_steps=300, transient_steps=10, seed=2,
                           renorm_threshold=10.45)
        rec = sm.run(net, wts, cfg)
        assert rec.renorm_flags.any()
        hit = np.flatnonzero(rec.renorm_flags)[0]
        assert rec.mean_price[hit] == pytest.approx(1.0, rel=1e-9)


class TestRun:
    def test_post_transient_window(self):
        net, wts, _ = small_setup()
        cfg = sm.SimConfig(total_steps=10, transient_steps=2, seed=0)
        rec = sm.run(net, wts, cfg)
        assert len(rec.loser_index) == 10
        assert len(rec.post(rec.loser_index)) == 8

    def test_prices_stay_positive_and_deflate(self):
        net = sm.build_ring(100)
        wts = sm.assign_weights_fixed(net, 0.5)
        cfg = sm.SimConfig(total_steps=10_000, transient_steps=1000, seed=4)
        rec = sm.run(net, wts, cfg)
        assert np.all(rec.mean_price > 0)
        k = sm.fit_decay_rate(rec.mean_price)
        assert k > 0

    def test_positions_feed_jump_distance(self):
        net = sm.build_corner_lattice(4, "RT")
        wts = sm.assign_weights_fixed(net, 0.5)
        cfg = sm.SimConfig(total_steps=50, transient_steps=5, seed=0)
        rec = sm.run(net, wts, cfg)
        d = sm.jump_distances(rec)
        assert d.shape == (len(rec.post(rec.positions)) - 1,)
        assert np.all(d >= 0.0)

    def test_activity_column_matches_offline_signal(self):
        net, wts, cfg = small_setup()
        f0 = -0.004
        rec = sm.run(net, wts, cfg, activity_f0=f0)
        rows = profit_rows(sm.Simulation(net, wts, cfg))
        offline = np.count_nonzero(rows / rec.mean_price[:, None] < f0, axis=1)
        assert np.array_equal(rec.activity, offline)

    @pytest.mark.parametrize("renorm_threshold", [None, 1e9])
    @pytest.mark.parametrize("f0", [-0.004, 0.0])
    def test_track_activity_matches_run(self, renorm_threshold, f0):
        # 1e9 renormalizes every step; activity is counted after it
        net, wts, cfg = small_setup()
        cfg = dataclasses.replace(cfg, renorm_threshold=renorm_threshold)
        rec = sm.run(net, wts, cfg, activity_f0=f0)
        sim = sm.Simulation(net, wts, cfg)
        counts = sm.track_activity(sim, [f0])
        assert np.array_equal(counts[:, 0], rec.activity)

    def test_min_profit_matches_loser_entry(self):
        net, wts, cfg = small_setup()
        rec = sm.run(net, wts, cfg)
        rows = profit_rows(sm.Simulation(net, wts, cfg))
        for k in range(len(rec.loser_index)):
            row = rows[k]
            assert rec.min_profit[k] == row[rec.loser_index[k]]
            assert rec.loser_index[k] == np.argmin(row)

    def test_audit_passes_along_run(self):
        # ER rows of up to 11 and 36 suppliers too, long enough that a
        # pairwise row sum would differ from the kernel's left-to-right one
        net, wts, cfg = small_setup()
        markets = [(net, wts)]
        for alpha in (0.05, 0.2):
            er = sm.build_er_embedded(100, alpha, np.random.default_rng([4, 1]))
            markets.append((er, sm.assign_weights_uniform(er, np.random.default_rng([4, 2]))))
        for net, wts in markets:
            sim = sm.Simulation(net, wts, cfg)
            sim.run(audit_interval=50)  # raises on divergence
            # the state is the vectorized evaluation bit for bit
            snap = sm.evaluate_market(sim.engine.p, net, wts)
            assert np.array_equal(sim.engine.profit, snap.profit)
            assert np.array_equal(sim.engine.qp, snap.production)

    @pytest.mark.parametrize("kwargs", [
        dict(audit_interval=-5),
        dict(checkpoint_every=-5),
    ], ids=["audit_interval", "checkpoint_every"])
    def test_negative_interval_rejected(self, tmp_path, kwargs):
        net, wts, cfg = small_setup()
        sim = sm.Simulation(net, wts, cfg)
        ckpt = tmp_path / "ckpt.bin"
        with pytest.raises(ValueError, match="must be >= 0"):
            sim.run(checkpoint_path=str(ckpt), **kwargs)
        assert sim.t == 0 and not any(tmp_path.iterdir())

    def test_engine_rejects_bad_prices(self):
        net, wts, _ = small_setup()
        with pytest.raises(MarketDomainError):
            sm.MarketEngine(net, wts, np.zeros(net.n_agents))


class TestEngineEquivalence:
    @pytest.mark.parametrize("maker", [
        lambda: (sm.build_ring(30), "fixed"),
        lambda: (sm.build_corner_lattice(8, "RT"), "fixed"),
        lambda: (sm.build_manhattan(6), "fixed"),
        lambda: (sm.build_f_lattice(6), "fixed"),
        lambda: (sm.build_er_embedded(40, 0.08, np.random.default_rng(2)), "uniform"),
    ])
    def test_losers_identical(self, maker):
        net, scheme = maker()
        if scheme == "fixed":
            wts = sm.assign_weights_fixed(net, 0.3)
        else:
            wts = sm.assign_weights_uniform(net, np.random.default_rng(3))
        cfg = sm.SimConfig(total_steps=10_000, transient_steps=100, seed=6)
        inc = sm.run(net, wts, cfg, engine="incremental")
        full = sm.run(net, wts, cfg, engine="full")
        assert np.array_equal(inc.loser_index, full.loser_index)
        assert np.array_equal(inc.min_profit, full.min_profit)
        assert np.array_equal(inc.mean_price, full.mean_price)

    def test_incremental_state_equals_vectorized_eval(self):
        net = sm.build_corner_lattice(8, "RT")
        wts = sm.assign_weights_fixed(net, 0.25)
        cfg = sm.SimConfig(total_steps=500, transient_steps=10, seed=1)
        sim = sm.Simulation(net, wts, cfg)
        for _ in range(500):
            sim.step()
        sim.engine.audit()

    def test_touched_set_bounded_independent_of_n(self):
        # per-step work on a ring touches at most 7 profits, whatever N is
        for n in (50, 500):
            net = sm.build_ring(n)
            wts = sm.assign_weights_fixed(net, 0.4)
            cfg = sm.SimConfig(total_steps=200, transient_steps=10, seed=2)
            sim = sm.Simulation(net, wts, cfg)
            touched = []
            for _ in range(200):
                sim.step()
                touched.append(sim.engine.touched_last)
            assert max(touched) <= 7

    def test_touched_last_after_step_and_run(self):
        net = sm.build_corner_lattice(8, "RT")
        wts = sm.assign_weights_fixed(net, 0.25)
        cfg = sm.SimConfig(total_steps=300, transient_steps=0, seed=3)
        sim = sm.Simulation(net, wts, cfg)
        for k in range(20):
            t, loser, smin, mp, eta, renormed = sim.step()
            assert (t, type(loser), type(eta), type(renormed)) == (k, int, float, bool)
            assert float(smin) < 0.0 < float(mp)
            assert sim.engine.touched_last == len(sm.affected_sets(net, loser).profit)
        rec = sim.run()
        last = int(rec.loser_index[-1])
        assert sim.engine.touched_last == len(sm.affected_sets(net, last).profit)

    def test_full_engine_recomputes_every_profit(self):
        net = sm.build_ring(50)
        wts = sm.assign_weights_fixed(net, 0.4)
        cfg = sm.SimConfig(total_steps=20, transient_steps=0, seed=2)
        sim = sm.Simulation(net, wts, cfg, engine="full")
        for _ in range(20):
            sim.step()
            assert sim.engine.touched_last == 50

    def test_engine_names_are_exact(self):
        net, wts, _ = small_setup()
        with pytest.raises(ValueError, match="engine must be incremental or full"):
            sm.MarketEngine(net, wts, np.full(net.n_agents, 10.0), engine="Full")


def reference_loop(net, wts, cfg, engine, f0, thresholds):
    """The documented step, written out from the engine's public pieces
    with one scalar draw per cut."""
    rng = np.random.default_rng(cfg.seed)
    prices = cfg.price_floor + rng.random(net.n_agents)
    eng = sm.MarketEngine(net, wts, prices, engine=engine)
    if cfg.renorm_threshold is None:
        level = 1e-6 * (eng.psum / eng.n)
    else:
        level = cfg.renorm_threshold
    cols = {k: [] for k in ("loser", "min_profit", "mean_price", "renorm",
                            "activity", "per_threshold")}
    for _ in range(cfg.total_steps):
        mp = eng.psum / eng.n
        renormed = mp < level
        if renormed:
            eng.renormalize()
            mp = eng.psum / eng.n
        profit = eng.profit
        loser = sm.find_loser(profit)
        cols["loser"].append(loser)
        cols["min_profit"].append(profit[loser])
        cols["mean_price"].append(mp)
        cols["renorm"].append(renormed)
        cols["activity"].append(int(np.sum(profit < f0 * mp)))
        cols["per_threshold"].append([int(np.sum(profit < x * mp)) for x in thresholds])
        eta = cfg.eta_max * rng.random()
        eng.apply_price_change(loser, eng.p[loser] * (1.0 - eta))
    return cols, eng.p, rng.bit_generator.state


class TestStepLoop:
    @pytest.mark.parametrize("m", [1, 7, 1024, 3001])
    def test_block_draw_equals_single_draws(self, m):
        block, single = np.random.default_rng(m), np.random.default_rng(m)
        drawn = block.random(m).tolist()
        assert drawn == [single.random() for _ in range(m)]
        assert block.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("renorm_threshold", [None, 1e9])
    @pytest.mark.parametrize("engine", ["incremental", "full"])
    @pytest.mark.parametrize("maker", [
        lambda: sm.build_ring(30),
        lambda: sm.build_corner_lattice(6, "RT"),
        lambda: sm.build_manhattan(6),
        lambda: sm.build_f_lattice(6),
        lambda: sm.build_er_embedded(40, 0.08, np.random.default_rng(2)),
    ], ids=["ring", "rt", "manhattan", "f", "er"])
    def test_run_equals_reference_loop(self, maker, engine, renorm_threshold):
        net = maker()
        wts = sm.assign_weights_uniform(net, np.random.default_rng(3))
        # more steps than one block of cuts
        cfg = sm.SimConfig(total_steps=2500, transient_steps=100, seed=6,
                           renorm_threshold=renorm_threshold)
        f0, grid = -0.004, [-0.006, -0.004, -0.002, 0.0]
        ref, ref_p, ref_state = reference_loop(net, wts, cfg, engine, f0, grid)
        sim = sm.Simulation(net, wts, cfg, engine=engine)
        rec = sim.run(activity_f0=f0)
        assert rec.loser_index.tolist() == ref["loser"]
        assert rec.min_profit.tolist() == ref["min_profit"]
        assert rec.mean_price.tolist() == ref["mean_price"]
        assert rec.renorm_flags.tolist() == ref["renorm"]
        assert rec.activity.tolist() == ref["activity"]
        assert np.array_equal(sim.engine.p, ref_p)
        assert sim._rng.bit_generator.state == ref_state
        tracked = sm.Simulation(net, wts, cfg, engine=engine)
        assert sm.track_activity(tracked, grid).tolist() == ref["per_threshold"]
        assert np.array_equal(tracked.engine.p, ref_p)
        assert tracked._rng.bit_generator.state == ref_state

    @pytest.mark.parametrize("renorm_threshold", [None, 1e9])
    def test_checkpoint_and_audit_cadence(self, tmp_path, monkeypatch, renorm_threshold):
        net, wts, _ = small_setup()
        cfg = sm.SimConfig(total_steps=3000, transient_steps=20, seed=7,
                           renorm_threshold=renorm_threshold)
        full = sm.run(net, wts, cfg, activity_f0=-0.004)
        audited = []
        audit = sm.MarketEngine.audit

        def counting_audit(eng, *args, **kwargs):
            audited.append(sim.t)
            return audit(eng, *args, **kwargs)
        monkeypatch.setattr(sm.MarketEngine, "audit", counting_audit)
        # checkpoint every 7 steps (no divisor of a block of cuts) and stop
        # at step 2050, past the last checkpoint at 2044
        ckpt = tmp_path / "ckpt.bin"
        sim = sm.Simulation(net, wts, dataclasses.replace(cfg, total_steps=2050))
        head = sim.run(activity_f0=-0.004, audit_interval=13,
                       checkpoint_path=ckpt, checkpoint_every=7)
        assert audited == list(range(13, 2051, 13))
        assert sm.load_checkpoint(ckpt)[0] == 2044
        sim = sm.Simulation.resume(net, wts, cfg, ckpt)
        tail = sim.run(activity_f0=-0.004, audit_interval=13)
        assert audited[len(range(13, 2051, 13)):] == list(range(2054, 3001, 13))
        for name in ("loser_index", "min_profit", "mean_price", "renorm_flags", "activity"):
            joined = np.concatenate([getattr(head, name)[:2044], getattr(tail, name)])
            assert np.array_equal(joined, getattr(full, name)), name

    @pytest.mark.parametrize("engine", sm.dynamics.ENGINES)
    def test_blocks_join_to_run(self, tmp_path, monkeypatch, engine):
        # 700-step blocks, audits every 300 steps and checkpoints every 500,
        # stopping at 2900: the last checkpoint, at 2500, and most audits
        # fall inside a block
        net = sm.build_corner_lattice(8, "RT")
        wts = sm.assign_weights_uniform(net, np.random.default_rng(3))
        cfg = sm.SimConfig(total_steps=2900, transient_steps=0, seed=4)
        grid = np.array([-0.006, -0.004, np.nan, 0.0])
        audited = []
        audit = sm.MarketEngine.audit
        monkeypatch.setattr(sm.MarketEngine, "audit",
                            lambda eng: audited.append(sim.t) or audit(eng))
        sim = sm.Simulation(net, wts, cfg, engine=engine)
        ref = sim.run(activity_f0=grid, audit_interval=300,
                      checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=500)
        monkeypatch.setattr(sm.Simulation, "CHUNK", 700)
        sim = sm.Simulation(net, wts, cfg, engine=engine)
        assert list(sim.blocks(0, grid)) == []
        blocks = list(sim.blocks(cfg.total_steps, grid, 300, tmp_path / "blocks.ckpt", 500))
        assert [b[0] for b in blocks] == list(range(0, 2900, 700))
        assert audited == 2 * list(range(300, 2901, 300))
        assert sm.load_checkpoint(tmp_path / "blocks.ckpt")[0] == 2500
        assert (tmp_path / "blocks.ckpt").read_bytes() == (tmp_path / "run.ckpt").read_bytes()
        for k, name in enumerate(TestKernelLoopAgainstFullEngine.COLUMNS, 1):
            joined = np.concatenate([b[k] for b in blocks])
            assert joined.dtype == getattr(ref, name).dtype, name
            assert np.array_equal(joined, getattr(ref, name)), name
        assert list(sim.blocks(cfg.total_steps)) == [] and sim.t == 2900


class TestKernelLoopAgainstFullEngine:
    """The kernel's block of cuts (incremental engine) against the full
    engine's per-step Python loop, the oracle: every column and the final
    state bit for bit, in each activity mode, with audits, renormalisation
    at every step, and a checkpoint and resume in the middle of a block."""

    NETS = {
        "rt32": lambda: sm.build_corner_lattice(32, "RT"),
        "ring30": lambda: sm.build_ring(30),
        "er100": lambda: sm.build_er_embedded(100, 0.05, np.random.default_rng([4, 1])),
        "manhattan6": lambda: sm.build_manhattan(6),
        "f6": lambda: sm.build_f_lattice(6),
    }
    # no activity, a scalar threshold, and a grid (the kernel counts both
    # in its step loop, the full engine with numpy)
    MODES = {"none": None, "scalar": -0.004,
             "grid": np.array([-0.3, -0.006, -0.004, -0.002, 0.0, 0.004])}
    COLUMNS = ("loser_index", "min_profit", "mean_price", "renorm_flags", "activity")

    @pytest.mark.parametrize("renorm_threshold", [None, 1e9])
    @pytest.mark.parametrize("net_name", list(NETS))
    def test_kernel_loop_equals_full_engine(self, tmp_path, net_name, renorm_threshold):
        net = self.NETS[net_name]()
        wts = sm.assign_weights_uniform(net, np.random.default_rng(3))
        # more steps than one block of cuts
        cfg = sm.SimConfig(total_steps=1500, transient_steps=0, seed=6,
                           renorm_threshold=renorm_threshold)
        for mode, f0 in self.MODES.items():
            full = sm.Simulation(net, wts, cfg, engine="full")
            ref = full.run(activity_f0=f0)
            # checkpoints at 700 (inside the second block of an unbroken
            # run) and 1400, audits every 97 steps; stop at 1000, resume at 700
            ckpt = tmp_path / f"{mode}.ckpt"
            sim = sm.Simulation(net, wts, dataclasses.replace(cfg, total_steps=1000))
            head = sim.run(activity_f0=f0, audit_interval=97,
                           checkpoint_path=ckpt, checkpoint_every=700)
            assert sm.load_checkpoint(ckpt)[0] == 700
            sim = sm.Simulation.resume(net, wts, cfg, ckpt)
            tail = sim.run(activity_f0=f0, audit_interval=97)
            for name in self.COLUMNS:
                got = getattr(head, name)
                if got is None:
                    assert f0 is None and getattr(ref, name) is None
                    continue
                joined = np.concatenate([got[:700], getattr(tail, name)])
                assert joined.dtype == getattr(ref, name).dtype, (mode, name)
                assert np.array_equal(joined, getattr(ref, name)), (mode, name)
            assert np.array_equal(sim.engine.p, full.engine.p), mode
            assert np.array_equal(sim.engine.profit, full.engine.profit), mode
            assert sim.engine.psum == full.engine.psum, mode
            assert sim._rng.bit_generator.state == full._rng.bit_generator.state, mode


def rt_lattice(L=32):
    net = sm.build_corner_lattice(L, "RT")
    return net, sm.assign_weights_fixed(net, 0.25)


class TestGridCount:
    """A grid of thresholds counted in the kernel's step loop must equal
    the per-step count of reference_loop over more than one block of cuts,
    on every plan and at ties."""

    # rising (negative), constant (zero) and falling (positive) threshold
    # columns; at +-0.3 the profits are dense enough that some lie between
    # the thresholds
    GRID = [-0.3, -0.004, -0.002, 0.0, 0.004, 0.3]

    # a renormalisation at every step recomputes every agent, so that case
    # runs on a smaller lattice, just past one block
    @pytest.mark.parametrize("renorm,L,steps", [
        ("never", 32, 2500), ("mid_block", 32, 2500), ("every_step", 16, 1100)])
    def test_grid_equals_reference_loop(self, renorm, L, steps):
        net, wts = rt_lattice(L)
        cfg = sm.SimConfig(total_steps=steps, transient_steps=0, seed=4, price_floor=0.4)
        if renorm == "mid_block":
            # prices start near a mean of 0.9, so a level 0.3 % below it is
            # crossed once, some 600 cuts in, and not again after the prices
            # are rescaled to a mean of 1
            start = sm.Simulation(net, wts, cfg).engine
            cfg = dataclasses.replace(cfg, renorm_threshold=0.997 * start.psum / start.n)
        elif renorm == "every_step":
            cfg = dataclasses.replace(cfg, renorm_threshold=1e9)
        ref, ref_p, _ = reference_loop(net, wts, cfg, "incremental", self.GRID[1], self.GRID)
        flags = np.flatnonzero(ref["renorm"])
        if renorm == "mid_block":
            assert len(flags) == 1 and flags[0] % sm.Simulation._BLOCK > 100
        sim = sm.Simulation(net, wts, cfg)
        assert sm.track_activity(sim, self.GRID).tolist() == ref["per_threshold"]
        assert np.array_equal(sim.engine.p, ref_p)
        # one threshold, as a grid of one and as a scalar
        column = [[row[1]] for row in ref["per_threshold"]]
        assert sm.track_activity(sm.Simulation(net, wts, cfg), self.GRID[1:2]).tolist() == column
        rec = sm.Simulation(net, wts, cfg).run(activity_f0=self.GRID[1])
        assert rec.activity.tolist() == ref["activity"]

    @staticmethod
    def at_equal_prices(net, engine):
        """A one-step Simulation whose prices are all 1: every profit is the
        same value (0 on these networks) and the mean price is exactly 1."""
        cfg = sm.SimConfig(total_steps=1, transient_steps=0)
        sim = sm.Simulation(net, sm.assign_weights_fixed(net, 0.25), cfg, engine=engine)
        sim.engine.p = 1.0
        sim.engine.recompute_all()
        sim.engine.psum = float(net.n_agents)
        return sim

    @pytest.mark.parametrize("maker", [
        lambda: sm.build_ring(30), lambda: sm.build_corner_lattice(32, "RT")],
        ids=["ring30", "rt32"])
    def test_profits_equal_to_a_threshold_are_not_below_it(self, maker):
        net = maker()
        v = self.at_equal_prices(net, "full").engine.profit[0]
        below, above = np.nextafter(v, -np.inf), np.nextafter(v, np.inf)
        # the grid, and each threshold alone: a profit equal to a threshold
        # is not below it
        grids = {(v, below, above): [0, 0, net.n_agents], (v,): [0], (below,): [0],
                 (above,): [net.n_agents]}
        for engine in ("incremental", "full"):
            for grid, expected in grids.items():
                sim = self.at_equal_prices(net, engine)
                assert np.all(sim.engine.profit == v)
                assert sm.track_activity(sim, grid).tolist() == [expected], (engine, grid)

    def test_nan_least_profit_does_not_skip_the_count(self):
        net = sm.build_ring(30)
        profit = np.linspace(-1.0, 1.0, 30)
        # the first is the loser tree's root, as np.argmin; a NaN is in the
        # kernel's last bucket, below no threshold
        profit[[3, 20]] = np.nan
        for engine in ("incremental", "full"):
            sim = self.at_equal_prices(net, engine)
            sim.engine.profit = profit
            assert sm.track_activity(sim, [-0.5, 0.0, np.inf]).tolist() == [[7, 14, 28]], engine

    @pytest.mark.parametrize("maker,engine", [
        (lambda: sm.build_corner_lattice(32, "RT"), "incremental"),
        (lambda: sm.build_ring(30), "incremental"),
        (lambda: sm.build_corner_lattice(32, "RT"), "full")],
        ids=["rt32", "ring30", "rt32-full"])
    def test_empty_grid_counts_nothing(self, maker, engine):
        net = maker()
        cfg = sm.SimConfig(total_steps=40, transient_steps=0, seed=2)
        sim = sm.Simulation(net, sm.assign_weights_fixed(net, 0.25), cfg, engine=engine)
        activity = sm.track_activity(sim, [])
        assert activity.shape == (40, 0) and activity.dtype == np.int32
        assert sim.t == 40

    def test_audit_and_checkpoint_cadence_with_resume(self, tmp_path):
        net, wts = rt_lattice()
        cfg = sm.SimConfig(total_steps=3000, transient_steps=0, seed=5)
        ref, _, _ = reference_loop(net, wts, cfg, "incremental", -0.004, self.GRID)
        # blocks end every 13 steps (audits) and every 700 (checkpoints);
        # stop at 2050, resume from the checkpoint at 1400
        ckpt = tmp_path / "ckpt.bin"
        sim = sm.Simulation(net, wts, dataclasses.replace(cfg, total_steps=2050))
        head = sim.run(activity_f0=np.array(self.GRID), audit_interval=13,
                       checkpoint_path=ckpt, checkpoint_every=700)
        assert sm.load_checkpoint(ckpt)[0] == 1400
        tail = sm.track_activity(sm.Simulation.resume(net, wts, cfg, ckpt), self.GRID)
        joined = np.concatenate([head.activity[:1400], tail])
        assert joined.tolist() == ref["per_threshold"]


class TestCandidateCount:
    """The kernel counts the activity from per-agent threshold buckets and
    a list of the profits inside a threshold's band, bucketed anew on entry
    and whenever the mean price falls past a slack; its counts must equal
    the full engine's numpy count bit for bit."""

    MIXED = [-0.3, -0.004, -0.002, 0.0, 0.004, 0.3]

    @staticmethod
    def counts(net, wts, cfg, f0, engine, blocks=False):
        """track_activity's counts, or the activity of Simulation.blocks
        joined, on one engine."""
        sim = sm.Simulation(net, wts, cfg, engine=engine)
        if not blocks:
            return sm.track_activity(sim, f0)
        return np.concatenate([block[5] for block in sim.blocks(cfg.total_steps, f0)])

    @pytest.mark.parametrize("grid", [MIXED, [0.001, 0.004, 0.3], [-0.3, -0.004], []],
                             ids=["mixed", "positive", "negative", "empty"])
    def test_mean_price_falls_past_the_slack_within_a_block(self, grid):
        # cuts of up to 90 % move the mean price of a ring of 6 past the
        # bands' slack at almost every step, and renormalise it often
        net = sm.build_ring(6)
        wts = sm.assign_weights_uniform(net, np.random.default_rng(1))
        cfg = sm.SimConfig(total_steps=3000, transient_steps=0, seed=3, eta_max=0.9)
        rec = sm.Simulation(net, wts, cfg).run()
        mp, block = rec.mean_price, sm.Simulation._BLOCK
        assert np.count_nonzero(mp[1:block] < (1 - 1e-3) * mp[:block - 1]) > 500
        assert np.count_nonzero(rec.renorm_flags) > 10
        got = self.counts(net, wts, cfg, grid, "incremental")
        assert np.array_equal(got, self.counts(net, wts, cfg, grid, "full"))

    # the 32-threshold grid spans the profits, about -0.4 to 0 times the
    # mean price here, so its last row holds 22 different counts
    @pytest.mark.parametrize("f0", [MIXED, -0.004, np.linspace(-0.45, 0.01, 32)],
                             ids=["grid", "scalar", "grid32"])
    def test_renormalisation_mid_block(self, f0):
        net, wts = rt_lattice(16)
        cfg = sm.SimConfig(total_steps=1500, transient_steps=0, seed=4, price_floor=0.4)
        start = sm.Simulation(net, wts, cfg).engine
        cfg = dataclasses.replace(cfg, renorm_threshold=0.997 * start.psum / start.n)
        recs = [sm.Simulation(net, wts, cfg, engine=e).run(activity_f0=f0)
                for e in ("incremental", "full")]
        flags = np.flatnonzero(recs[0].renorm_flags)
        assert len(flags) == 1 and 100 < flags[0] < sm.Simulation._BLOCK
        assert recs[0].activity.dtype == recs[1].activity.dtype == np.int32
        assert np.array_equal(recs[0].activity, recs[1].activity)
        assert np.array_equal(recs[0].loser_index, recs[1].loser_index)

    def test_buckets_and_band_list_match_a_recount(self):
        # profits planted inside the bands (two of which overlap), on a band's
        # lower edge (equal to its threshold at the first step) and a NaN,
        # then chunks that end mid-block: each agent's bucket is the count
        # of sorted thresholds whose band top its profit is not below (nf0
        # for a NaN or a profit >= bound), hist counts the agents of each
        # bucket that lie below the next band, and the band list holds the
        # others once each, with slot their place there
        net, wts = rt_lattice()
        cfg = sm.SimConfig(total_steps=20_000, transient_steps=0, seed=7)
        sim = sm.Simulation(net, wts, cfg)
        eng, kernel = sim.engine, sim.engine._market
        grid = np.array([-0.004, -0.006, -0.0045, -0.004, -0.0040025])
        k, members = len(grid), 0
        for chunk in (1, 2, 1023, 1025, 5000, 12_949):
            mp = eng.psum / eng.n
            planted = eng.profit.copy()
            planted[::50] = mp * np.resize([-0.0059997, -0.003999, -0.0044998, np.nan, -0.006], 21)
            eng.profit = planted
            act = sim._advance(chunk, grid)[4]
            assert act[0].tolist() == [np.count_nonzero(planted < f * mp) for f in grid]
            members = max(members, kernel.nband)
            assert np.array_equal(grid[eng._order], eng._sorted_f0)
            assert np.all(np.diff(eng._sorted_f0) >= 0)
            lo, hi, profit = eng._lo, eng._hi, eng.profit
            assert np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)
            assert np.all(lo <= hi) and kernel.bound == hi[-1]
            bucket = np.where(profit < kernel.bound,
                              np.searchsorted(hi, profit, side="right"), k)
            banded = (bucket < k) & (profit >= lo[np.minimum(bucket, k - 1)])
            assert np.array_equal(eng._bucket, bucket)
            assert np.array_equal(eng._hist, np.bincount(bucket[~banded], minlength=k + 1))
            band = eng._band[:kernel.nband]
            assert sorted(band) == np.flatnonzero(banded).tolist()
            assert np.array_equal(eng._slot[band], np.arange(len(band)))
            assert np.count_nonzero(eng._slot >= 0) == len(band)
            assert 0 < eng._hist[:k].sum() < net.n_agents
        assert members >= 15

    @pytest.mark.parametrize("grid", [
        [0.004, -0.3, -0.004, -0.004, 0.0],
        [-np.inf, -0.004, np.inf, 0.0, np.nan, -0.002]], ids=["unsorted", "infinite"])
    def test_unsorted_and_infinite_grids(self, monkeypatch, grid):
        # a repeated threshold, mixed signs, thresholds out of order, +-inf
        # and a NaN, over chunks that end mid-block
        net, wts = rt_lattice()
        cfg = sm.SimConfig(total_steps=2500, transient_steps=0, seed=6)
        monkeypatch.setattr(sm.Simulation, "CHUNK", 700)
        got = self.counts(net, wts, cfg, grid, "incremental", blocks=True)
        assert np.array_equal(got, self.counts(net, wts, cfg, grid, "full"))
        assert len(np.unique(got[:, grid.index(-0.004)])) > 10

    def test_fresh_rt100_lattice(self):
        # about 3 000 of the 10 000 profits lie below the grid at the start
        net, wts = rt_lattice(100)
        cfg = sm.SimConfig(total_steps=300, transient_steps=0, seed=5)
        grid = -0.005 * np.asarray(sm.analysis.THRESHOLD_GRID_UNITS)
        got = self.counts(net, wts, cfg, grid, "incremental")
        assert np.array_equal(got, self.counts(net, wts, cfg, grid, "full"))
        assert got[0, -1] > 2000

    def test_simulations_in_alternating_blocks_count_as_each_alone(self, monkeypatch):
        # each Simulation keeps its own buckets: two advanced in turns,
        # in chunks that end mid-block, count as each does alone
        net, wts = rt_lattice()
        cfgs = [sm.SimConfig(total_steps=3000, transient_steps=0, seed=s) for s in (1, 2)]
        alone = [self.counts(net, wts, cfg, self.MIXED, "incremental") for cfg in cfgs]
        monkeypatch.setattr(sm.Simulation, "CHUNK", 700)
        sims = [sm.Simulation(net, wts, cfg) for cfg in cfgs]
        parts = [[], []]
        for pair in zip(*(sim.blocks(3000, self.MIXED) for sim in sims)):
            for part, block in zip(parts, pair):
                part.append(block[5])
        for part, ref in zip(parts, alone):
            assert np.array_equal(np.concatenate(part), ref)
        full = self.counts(net, wts, cfgs[0], self.MIXED, "full", blocks=True)
        assert np.array_equal(alone[0], full)


class TestRecordSerialization:
    # the record ends before its column line, inside it, or inside a line
    # before it; or it lacks a header line or a column
    @pytest.mark.parametrize("cut,missing", [
        (1, None), (8, None), (-3, None), (b"# extents 10\n", "extents header line"),
        (b" min_profit", "min_profit column")],
        ids=["before", "inside", "meta", "no-extents", "no-min_profit"])
    def test_record_cut_in_its_header_is_refused(self, tmp_path, cut, missing):
        net = sm.build_ring(10)
        cfg = sm.SimConfig(total_steps=20, transient_steps=0, seed=1)
        path = tmp_path / "run.txt"
        sm.run(net, sm.assign_weights_fixed(net, 0.4), cfg).save_text(path)
        data = path.read_bytes()
        if missing:
            path.write_bytes(data.replace(cut, b"", 1))
            message = f"{path}: the record has no {missing}"
        else:
            path.write_bytes(data[:data.index(b"\nt loser_idx ") + cut])
            message = f"{path}: the record ends inside its header, with no complete column line"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            sm.RunRecord.load_text(path)

    def test_text_roundtrip(self, tmp_path):
        net, wts, cfg = small_setup()
        rec = sm.run(net, wts, cfg, activity_f0=-0.004)
        rec.config_hash = "0123456789abcdef"
        path = tmp_path / "run.txt"
        rec.save_text(path)
        back = sm.RunRecord.load_text(path)
        assert np.array_equal(back.loser_index, rec.loser_index)
        assert np.array_equal(back.min_profit, rec.min_profit)
        assert np.array_equal(back.mean_price, rec.mean_price)
        assert np.array_equal(back.activity, rec.activity)
        assert back.activity_f0 == rec.activity_f0
        assert back.kind == rec.kind
        assert back.extents == rec.extents
        assert back.transient_steps == rec.transient_steps
        assert back.config_hash == rec.config_hash

    def test_numpy_scalar_header_roundtrip(self, tmp_path):
        # numpy 2 writes repr(np.float64(x)) as "np.float64(x)"
        net, wts, cfg = small_setup()
        cfg = dataclasses.replace(cfg, eta_max=np.float64(0.01),
                                  price_floor=np.float64(10.0), seed=np.int64(cfg.seed))
        rec = sm.Simulation(net, wts, cfg).run(activity_f0=np.float64(-0.004))
        path = tmp_path / "run.txt"
        rec.save_text(path)
        back = sm.RunRecord.load_text(path)
        assert back.activity_f0 == -0.004
        assert back.config == cfg
        plain = dataclasses.replace(cfg, eta_max=0.01, price_floor=10.0, seed=int(cfg.seed))
        sm.Simulation(net, wts, plain).run(activity_f0=-0.004).save_text(tmp_path / "plain.txt")
        assert path.read_bytes() == (tmp_path / "plain.txt").read_bytes()

    def test_2d_positions_roundtrip(self, tmp_path):
        net = sm.build_corner_lattice(4, "RT")
        wts = sm.assign_weights_fixed(net, 0.5)
        cfg = sm.SimConfig(total_steps=60, transient_steps=5, seed=0)
        rec = sm.run(net, wts, cfg)
        path = tmp_path / "run.txt"
        rec.save_text(path)
        back = sm.RunRecord.load_text(path)
        assert np.array_equal(back.positions, rec.positions)

    def test_rerun_writes_identical_bytes(self, tmp_path):
        net, wts, cfg = small_setup()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        sm.run(net, wts, cfg).save_text(p1)
        sm.run(net, wts, cfg).save_text(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_grid_activity_is_refused(self, tmp_path):
        # the text format has one activity column: a run over a grid of
        # thresholds must not leave a file that load_text cannot read
        net, wts, cfg = small_setup()
        grid = sm.run(net, wts, cfg, activity_f0=np.array([-0.004, 0.0]))
        path = tmp_path / "run.txt"
        with pytest.raises(ValueError):
            grid.save_text(path)
        assert not path.exists()
        rec = sm.run(net, wts, cfg, activity_f0=-0.004)
        rec.save_text(path)
        back = sm.RunRecord.load_text(path)
        assert np.array_equal(back.activity, rec.activity)
        assert np.array_equal(back.activity, grid.activity[:, 0])
        assert back.activity_f0 == -0.004

    @pytest.mark.parametrize("net,with_activity,fast", [
        (sm.build_ring(50), True, False),
        (sm.build_corner_lattice(10, "RT"), False, False),
        (sm.build_corner_lattice(10, "RT"), True, False),
        (sm.build_ring(50), True, True),
        (sm.build_corner_lattice(10, "RT"), False, True),
    ], ids=["ring-activity", "lattice", "lattice-activity", "ring-activity-fast",
            "lattice-fast"])
    def test_block_writer_matches_row_reference(self, tmp_path, net, with_activity, fast):
        # more rows than one write block, a nonzero start step, and a
        # reference that formats each row value by value; mean prices below
        # 1e-5 are written with an exponent, which the kernel declines, while
        # prices near 10 and profits near -1 take its fast path, and so does
        # 0.0, but not the nan in the second block
        rng = np.random.default_rng(5)
        n = sm.Simulation.CHUNK + 1234
        rec = sm.RunRecord(
            n_agents=net.n_agents, extents=net.extents, transient_steps=10,
            loser_index=rng.integers(0, net.n_agents, n).astype(np.int32),
            min_profit=rng.normal(size=n) * 1e-3,
            mean_price=rng.random(n) * 1e-5,
            renorm_flags=rng.random(n) < 0.1, kind=net.kind, start_step=777,
            activity=rng.integers(0, 60, n).astype(np.int32) if with_activity else None,
            activity_f0=-0.004 if with_activity else None)
        if fast:
            rec.min_profit = rec.min_profit * 100 - 1.0
            rec.mean_price = rec.mean_price * 1e5 + 9.5
            rec.min_profit[n - 7] = 0.0
            rec.mean_price[n - 3] = np.nan
        path = tmp_path / "run.txt"
        rec.save_text(path)
        text = path.read_text()
        head, _, body = text.partition("\nt loser_idx")
        rows = []
        pos = rec.positions.reshape(n, -1)
        for k in range(n):
            row = [str(rec.start_step + k), str(rec.loser_index[k])]
            row += [str(v) for v in pos[k]]
            row += [repr(float(rec.min_profit[k])), repr(float(rec.mean_price[k])),
                    "1" if rec.renorm_flags[k] else "0"]
            if with_activity:
                row.append(str(rec.activity[k]))
            rows.append(" ".join(row))
        # compare lines: a failing diff of two long strings takes minutes
        assert body.split("\n")[1:] == rows + [""]
        back = sm.RunRecord.load_text(path)
        assert back.start_step == 777
        assert np.array_equal(back.positions, rec.positions)
        for name in ("min_profit", "mean_price"):
            assert np.array_equal(getattr(back, name).view(np.uint64),
                                  getattr(rec, name).view(np.uint64))
        # the kernel takes the fast case's first block, and declines the rest
        out = np.empty(32 * n, np.uint8)
        taken = [_kernel.load().socm_write_rows(
            out.ctypes.data, rows, 1, (ctypes.c_void_p * 1)(col.ctypes.data),
            b"f", ord(" ")) >= 0
            for col in (rec.min_profit, rec.mean_price) for rows in (sm.Simulation.CHUNK, n)]
        assert taken == [fast, fast, fast, False]

    @staticmethod
    def saved_rows(tmp_path, rec):
        """The path of rec's text, its header through the column names, and
        its rows."""
        path = tmp_path / "run.txt"
        rec.save_text(path)
        text = path.read_bytes()
        cut = text.index(b"\n", text.index(b"\nt loser_idx") + 1) + 1
        return path, text[:cut], text[cut:]

    @pytest.mark.parametrize("net,f0", [
        (sm.build_corner_lattice(6, "RT"), None), (sm.build_ring(30), -0.004)],
        ids=["lattice", "ring-activity"])
    def test_reader_matches_loadtxt_bits(self, tmp_path, net, f0):
        wts = sm.assign_weights_fixed(net, 0.4)
        cfg = sm.SimConfig(total_steps=3000, transient_steps=0, seed=4)
        rec = sm.run(net, wts, cfg, activity_f0=f0)
        path, _, rows = self.saved_rows(tmp_path, rec)
        ref = np.loadtxt(io.BytesIO(rows), ndmin=2)
        back = sm.RunRecord.load_text(path)
        columns = [back.loser_index, *back.positions.reshape(len(ref), -1).T,
                   back.min_profit, back.mean_price, back.renorm_flags]
        if f0 is not None:
            columns.append(back.activity)
        assert len(columns) == ref.shape[1] - 1
        for k, col in enumerate(columns, start=1):
            assert np.array_equal(col.astype(np.float64).view(np.uint64),
                                  ref[:, k].view(np.uint64))

    @pytest.mark.parametrize("damage", ["missing_field", "stray_letter", "no_final_newline",
                                        "negative_zero", "tabs"])
    def test_reader_refuses_what_loadtxt_refuses(self, tmp_path, damage):
        # a body the kernel does not take goes to np.loadtxt, which reads it
        # or raises its own ValueError, as it did before the kernel read
        # records
        net, wts, cfg = small_setup()
        path, head, rows = self.saved_rows(tmp_path, sm.run(net, wts, cfg))
        lines = rows.split(b"\n")
        if damage == "missing_field":
            lines[3] = lines[3].rsplit(b" ", 1)[0]
        elif damage == "stray_letter":
            lines[5] = lines[5].replace(b".", b".x", 1)
        elif damage == "no_final_newline":
            lines.pop()
        elif damage == "negative_zero":  # in the min_profit column
            fields = lines[2].split(b" ")
            lines[2] = b" ".join(fields[:3] + [b"-0"] + fields[4:])
        else:
            lines[4] = lines[4].replace(b" ", b"\t")
        rows = b"\n".join(lines)
        path.write_bytes(head + rows)
        if damage in ("missing_field", "stray_letter"):
            with pytest.raises(ValueError) as today:
                np.loadtxt(io.BytesIO(rows), ndmin=2)
            with pytest.raises(ValueError, match=re.escape(str(today.value))):
                sm.RunRecord.load_text(path)
            return
        ref = np.loadtxt(io.BytesIO(rows), ndmin=2)
        back = sm.RunRecord.load_text(path)
        assert np.array_equal(back.min_profit.view(np.uint64), ref[:, 3].view(np.uint64))
        assert np.array_equal(back.loser_index, ref[:, 1].astype(np.int64))

    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "python"])
    def test_zero_row_roundtrip(self, tmp_path, monkeypatch, kernel):
        # a record of no steps reads back as one, with or without a compiler
        if not kernel:
            monkeypatch.setattr(sm.dynamics, "_record_kernel", lambda: None)
        net = sm.build_corner_lattice(4, "RT")
        empty = np.zeros(0)
        rec = sm.RunRecord(
            n_agents=net.n_agents, extents=net.extents, transient_steps=0,
            loser_index=np.zeros(0, np.int64), min_profit=empty, mean_price=empty,
            renorm_flags=np.zeros(0, bool), kind=net.kind, activity=np.zeros(0, np.int32),
            activity_f0=-0.004, start_step=40)
        path = tmp_path / "run.txt"
        rec.save_text(path)
        back = sm.RunRecord.load_text(path)
        assert back.total_steps == 40
        for name in ("loser_index", "min_profit", "mean_price", "renorm_flags", "activity"):
            assert getattr(back, name).shape == (0,)
        assert back.positions.shape == (0, 2)

    @pytest.mark.parametrize("damage", ["dropped", "added"])
    def test_rows_of_another_width_are_refused(self, tmp_path, damage):
        # the kernel declines such rows, and np.loadtxt reads rows of any
        # one width: a field cut from, or added to, the middle of every row
        # would shift the columns after it
        net, wts, cfg = small_setup()
        path, head, rows = self.saved_rows(tmp_path, sm.run(net, wts, cfg))
        lines = []
        for line in rows.split(b"\n")[:-1]:
            fields = line.split(b" ")
            fields[2:3] = [] if damage == "dropped" else [fields[2], b"0"]
            lines.append(b" ".join(fields) + b"\n")
        path.write_bytes(head + b"".join(lines))
        width = 5 if damage == "dropped" else 7
        with pytest.raises(ValueError, match=f"rows hold {width} fields, the header names 6"):
            sm.RunRecord.load_text(path)


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        net, wts, _ = small_setup()
        cfg = sm.SimConfig(total_steps=300, transient_steps=20, seed=7)
        ckpt = tmp_path / "ckpt.bin"
        full = sm.run(net, wts, cfg)
        # run 100 steps, checkpointing at step 100
        first_cfg = sm.SimConfig(total_steps=100, transient_steps=20, seed=7)
        sim = sm.Simulation(net, wts, first_cfg)
        head = sim.run(checkpoint_path=ckpt, checkpoint_every=100)
        resumed = sm.Simulation.resume(net, wts, cfg, ckpt)
        tail = resumed.run()
        assert tail.start_step == head.total_steps
        for name in ("loser_index", "min_profit", "mean_price"):
            joined = np.concatenate([getattr(head, name), getattr(tail, name)])
            assert np.array_equal(joined, getattr(full, name)), name

    def test_resume_on_a_network_of_another_size_rejected(self, tmp_path):
        net, wts, cfg = small_setup(n=10)
        ckpt = tmp_path / "ckpt.bin"
        sm.Simulation(net, wts, dataclasses.replace(cfg, total_steps=100)).run(
            checkpoint_path=ckpt, checkpoint_every=50)
        other, other_wts, _ = small_setup(n=12)
        with pytest.raises(ValueError, match="holds 10 agents, the network has 12"):
            sm.Simulation.resume(other, other_wts, cfg, ckpt)

    def test_resume_rejects_an_unknown_engine(self, tmp_path):
        # the same check as the constructor's: a misspelt name must not
        # silently run the full engine
        net, wts, cfg = small_setup(n=10)
        ckpt = tmp_path / "ckpt.bin"
        sm.Simulation(net, wts, dataclasses.replace(cfg, total_steps=100)).run(
            checkpoint_path=ckpt, checkpoint_every=50)
        with pytest.raises(ValueError, match="engine must be incremental or full"):
            sm.Simulation.resume(net, wts, cfg, ckpt, engine="Incremental")

    def test_checkpoint_roundtrip_fields(self, tmp_path):
        rng = np.random.default_rng(3)
        rng.random(17)  # advance the stream
        prices = 10 + np.random.default_rng(0).random(8)
        path = tmp_path / "c.bin"
        sm.save_checkpoint(path, 12345, prices, rng, float(prices.sum()), 1e-5)
        t, p, rng2, psum, level = sm.load_checkpoint(path)
        assert t == 12345
        assert np.array_equal(p, prices)
        assert psum == prices.sum()
        assert level == 1e-5
        assert rng2.bit_generator.state == rng.bit_generator.state
        assert rng2.random() == rng.random()

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        path = tmp_path / "c.bin"
        sm.save_checkpoint(path, 7, np.full(4, 10.0), rng, 40.0, 1e-5)

        class Crash:
            def pack(self, *args):
                raise OSError("disk full")
        # the second save dies while it writes the header
        monkeypatch.setattr(sm.dynamics, "_CKPT_HEAD", Crash())
        with pytest.raises(OSError):
            sm.save_checkpoint(path, 9, np.full(4, 5.0), rng, 20.0, 1e-5)
        monkeypatch.undo()
        t, p, _, psum, _ = sm.load_checkpoint(path)
        assert (t, psum) == (7, 40.0)
        assert np.array_equal(p, np.full(4, 10.0))
        # and leaves no temporary file behind
        assert sorted(f.name for f in tmp_path.iterdir()) == ["c.bin"]

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        sm.save_checkpoint(path, 7, np.full(4, 10.0), np.random.default_rng(3),
                           40.0, 1e-5)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            sm.load_checkpoint(path)

    def test_checkpoint_cut_inside_header_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        sm.save_checkpoint(path, 7, np.full(4, 10.0), np.random.default_rng(3),
                           40.0, 1e-5)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError):
            sm.load_checkpoint(path)
