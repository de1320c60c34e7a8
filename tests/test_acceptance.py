"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy runs (the full-protocol avalanche and walk experiments) are shared
through module-scoped fixtures.  Expected wall time for the whole module
is a few minutes, dominated by the two million-step runs.
"""

import time

import numpy as np
import pytest

import socmarket as sm
from socmarket import cli

from conftest import random_instance


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ----------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="module")
def rt1024_scan():
    """RT lattice N=1024, a=0.25, full protocol, activity tracked on the
    caption threshold plus the critical-scan grid."""
    net = sm.build_corner_lattice(32, "RT")
    wts = sm.assign_weights_fixed(net, 0.25)
    cfg = sm.SimConfig(total_steps=1_000_000, transient_steps=100_000, seed=11)
    grid = np.concatenate([[-0.048],
                           -0.5 * cfg.eta_max * np.asarray(sm.analysis.THRESHOLD_GRID_UNITS)])
    return sm.threshold_scan(net, wts, cfg, f0_grid=grid)


@pytest.fixture(scope="module")
def er100_scan():
    """ER network N=100, alpha=0.05 (mean degree 5), uniform random
    weights, full protocol, caption threshold prepended to the grid."""
    net = sm.build_er_embedded(100, 0.05, np.random.default_rng([1, 1]))
    wts = sm.assign_weights_uniform(net, np.random.default_rng([1, 2]))
    cfg = sm.SimConfig(total_steps=1_000_000, transient_steps=100_000, seed=1)
    grid = np.concatenate([[-0.057],
                           -0.5 * cfg.eta_max * np.asarray(sm.analysis.THRESHOLD_GRID_UNITS)])
    scan = sm.threshold_scan(net, wts, cfg, f0_grid=grid)
    return scan


@pytest.fixture(scope="module")
def rt100_record():
    """RT lattice L=100, a=0.5, 5e5 post-transient steps."""
    net = sm.build_corner_lattice(100, "RT")
    wts = sm.assign_weights_fixed(net, 0.5)
    cfg = sm.SimConfig(total_steps=600_000, transient_steps=100_000, seed=5)
    return sm.run(net, wts, cfg, engine="incremental")


# ----------------------------------------------------------------------
# 1. exact identities

def test_criterion_1_exact_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    kinds = ["ring", "corner_rt", "corner_lt", "corner_lb", "corner_rb",
             "manhattan", "f_lattice", "er_embedded"]
    worst_zero = worst_budget = worst_share = 0.0
    for kind in kinds:
        for _ in range(100):
            net, wts, prices = random_instance(rng, kind=kind)
            snap = sm.evaluate_market(prices, net, wts)
            scale = max(1.0, float(np.abs(prices * snap.traded).sum()))
            worst_zero = max(worst_zero, abs(snap.profit.sum()) / scale)
            spend = np.bincount(net.row_agent,
                                weights=snap.wants * prices[net.sup_idx],
                                minlength=net.n_agents)
            earn = prices * snap.production
            worst_budget = max(worst_budget, float(np.max(np.abs(spend - earn) / earn)))
            got = np.bincount(net.sup_idx, weights=snap.shares,
                              minlength=net.n_agents)
            supplied = snap.demand > 0
            if supplied.any():
                worst_share = max(worst_share,
                                  float(np.max(np.abs(got[supplied] - 1.0))))
            assert np.array_equal(snap.traded,
                                  np.minimum(snap.production, snap.demand))
    elapsed = time.perf_counter() - t0
    ok = worst_zero <= 1e-9 and worst_budget <= 1e-9 and worst_share <= 1e-9 \
        and elapsed < 10.0
    report(1, ok, f"800 instances over 8 classes: zero-sum {worst_zero:.2e}, "
                  f"budget {worst_budget:.2e}, shares {worst_share:.2e}, "
                  f"min-rule exact, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. homogeneity

def test_criterion_2_homogeneity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_q = worst_s = 0.0
    loser_stable = True
    for _ in range(20):
        net, wts, prices = random_instance(rng)
        base = sm.evaluate_market(prices, net, wts)
        loser = sm.find_loser(base.profit)
        for lam in (1e-3, 1.0, 1e3):
            snap = sm.evaluate_market(lam * prices, net, wts)
            for name in ("production", "wants", "demand", "traded", "shares"):
                a, b = getattr(base, name), getattr(snap, name)
                scale = np.maximum(np.abs(a), 1e-300)
                worst_q = max(worst_q, float(np.max(np.abs(a - b) / scale)))
            sscale = max(1e-300, float(np.max(np.abs(base.profit))))
            worst_s = max(worst_s, float(
                np.max(np.abs(snap.profit - lam * base.profit)) / (lam * sscale)))
            loser_stable &= sm.find_loser(snap.profit) == loser
    elapsed = time.perf_counter() - t0
    ok = worst_q <= 1e-12 and worst_s <= 1e-9 and loser_stable and elapsed < 1.0
    report(2, ok, f"quantities drift {worst_q:.2e} (<=1e-12), profits scale "
                  f"to {worst_s:.2e}, loser invariant: {loser_stable}, {elapsed:.2f}s")


# ----------------------------------------------------------------------
# 3. optimization oracle

def test_criterion_3_optimization_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_gap = -np.inf
    for _ in range(120):
        k = int(rng.integers(1, 7))
        a = rng.random(k) + 0.02
        a /= a.sum()
        ratios = rng.uniform(0.1, 8.0, k)
        coeff = float(np.sum(np.sqrt(a * ratios)))
        q_star = coeff ** (2.0 / 3.0)
        u_star = -0.5 * q_star ** 2 + 2.0 * np.sqrt(q_star) * coeff
        grid = np.linspace(q_star / 4.0, 4.0 * q_star, 10_000)
        u_grid = -0.5 * grid ** 2 + 2.0 * np.sqrt(grid) * coeff
        worst_gap = max(worst_gap, float(u_grid.max() - u_star))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-10 and elapsed < 10.0
    report(3, ok, f"120 random (a, P) draws, grid never beats closed form "
                  f"(worst gap {worst_gap:.2e}), {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 4. engine equivalence

def test_criterion_4_engine_equivalence():
    t0 = time.perf_counter()
    results = []
    rt = sm.build_corner_lattice(32, "RT")
    rt_w = sm.assign_weights_fixed(rt, 0.25)
    er = sm.build_er_embedded(100, 0.05, np.random.default_rng([4, 1]))
    er_w = sm.assign_weights_uniform(er, np.random.default_rng([4, 2]))
    cfg = sm.SimConfig(total_steps=10_000, transient_steps=1000, seed=44)
    for net, wts, tag in ((rt, rt_w, "RT32"), (er, er_w, "ER100")):
        inc = sm.run(net, wts, cfg, engine="incremental")
        full = sm.run(net, wts, cfg, engine="full")
        same = (np.array_equal(inc.loser_index, full.loser_index)
                and np.array_equal(inc.min_profit, full.min_profit))
        results.append((tag, same))
    elapsed = time.perf_counter() - t0
    ok = all(s for _, s in results) and elapsed < 60.0
    report(4, ok, "identical loser sequences over 1e4 steps: "
                  + ", ".join(f"{t}={s}" for t, s in results)
                  + f", {elapsed:.0f}s")


# ----------------------------------------------------------------------
# 5. deflation rate

def test_criterion_5_decay_rate():
    t0 = time.perf_counter()
    fits = {}
    for n in (100, 400):
        net = sm.build_ring(n)
        wts = sm.assign_weights_fixed(net, 0.5)
        cfg = sm.SimConfig(total_steps=200_000, transient_steps=10_000, seed=55)
        rec = sm.run(net, wts, cfg)
        fits[n] = sm.fit_decay_rate(rec.mean_price)
    pred = {n: sm.predicted_decay_rate(n, 0.01) for n in fits}
    ratios = {n: fits[n] / pred[n] for n in fits}
    n_ratio = fits[100] / fits[400]
    elapsed = time.perf_counter() - t0
    ok = all(abs(r - 1.0) <= 0.25 for r in ratios.values()) \
        and abs(n_ratio / 4.0 - 1.0) <= 0.25 and elapsed < 120.0
    report(5, ok, f"fitted/predicted: N=100 {ratios[100]:.3f}, N=400 "
                  f"{ratios[400]:.3f} (within 25%), k100/k400 = {n_ratio:.2f} "
                  f"(inverse-N), {elapsed:.0f}s")


# ----------------------------------------------------------------------
# 6. avalanche exponents

def test_criterion_6a_rt_lattice_size_exponent(rt1024_scan):
    scan = rt1024_scan
    caption = scan.entries[0]
    assert caption.f0 == -0.048
    # the reference threshold assumes an unstated rescaling; under
    # mean-price rescaling it sits below the stationary profit range, so
    # the documented fallback (critical-threshold scan) applies
    degenerate = caption.tau_s is None
    entry = scan.best_entry
    assert entry is not None, "no critical threshold found"
    tau = entry.tau_s.exponent
    ok = abs(tau - 1.33) <= 0.15 and degenerate
    report("6a", ok,
           f"RT N=1024 a=0.25: caption f0=-0.048 unusable "
           f"({caption.n_events} events) -> critical scan chose "
           f"f0={entry.f0:.4f} -> tau_S = {tau:.3f} +/- {entry.tau_s.stderr:.3f} "
           f"(target 1.33 +/- 0.15, {entry.n_events} events)")


def test_criterion_6b_er_exponents(er100_scan):
    scan = er100_scan
    caption = scan.entries[0]
    assert caption.f0 == -0.057
    degenerate = caption.tau_s is None
    entry = scan.best_entry
    assert entry is not None, "no critical threshold found"
    events = scan.events(scan.entries.index(entry))
    out = sm.avalanche_exponents(events)
    tau_s, tau_t = out.tau_s.exponent, out.tau_t.exponent
    ok = abs(tau_s - 1.38) <= 0.15 and abs(tau_t - 1.46) <= 0.20 and degenerate
    report("6b", ok,
           f"ER N=100 <K>=5 uniform: caption f0=-0.057 unusable "
           f"({caption.n_events} events), scan chose f0={entry.f0:.4f} -> "
           f"tau_S = {tau_s:.3f} +/- {out.tau_s.stderr:.3f} "
           f"(target 1.38 +/- 0.15), "
           f"tau_T = {tau_t:.3f} +/- {out.tau_t.stderr:.3f} "
           f"(target 1.46 +/- 0.20, {out.n_events} events)")


def test_criterion_6_reference_line_er_below_mean_field(er100_scan):
    entry = er100_scan.best_entry
    ok = entry.tau_s.exponent < sm.MFBP_TAU_S
    report("6b-ref", ok,
           f"ER tau_S = {entry.tau_s.exponent:.3f} < mean-field 3/2: {ok}")


# ----------------------------------------------------------------------
# 7. loser-walk exponents

def test_criterion_7_loser_walk_exponents(rt100_record):
    stats = sm.loser_jump_stats(rt100_record, mode="raw", metric="norm")
    pi1 = stats.pi1.exponent if stats.pi1 else float("nan")
    pi2 = stats.pi2.exponent if stats.pi2 else float("nan")
    ok = abs(pi1 - 2.59) <= 0.30 and abs(pi2 - 1.60) <= 0.30
    report(7, ok,
           f"RT L=100 a=0.5, {stats.n_jumps} jumps: pi1 = {pi1:.3f} "
           f"(target 2.59 +/- 0.30), pi2 = {pi2:.3f} (target 1.60 +/- 0.30)")


def test_criterion_7_reduced_lattice_two_branch_structure():
    net = sm.build_corner_lattice(50, "RT")
    wts = sm.assign_weights_fixed(net, 0.5)
    cfg = sm.SimConfig(total_steps=250_000, transient_steps=50_000, seed=5)
    rec = sm.run(net, wts, cfg)
    stats = sm.loser_jump_stats(rec)
    xi = np.repeat(stats.cumulative_x, stats.counts)
    has_far_mass = np.mean(xi > 25.0) > 0.001
    ok = (stats.pi1 is not None and stats.pi2 is not None
          and stats.pi1.exponent > 0 and stats.pi2.exponent > 0
          and has_far_mass)
    report("7-reduced", ok,
           f"L=50 two-branch structure: pi1 = {stats.pi1.exponent:.2f}, "
           f"pi2 = {stats.pi2.exponent:.2f}, far-branch mass present: {has_far_mass}")


# ----------------------------------------------------------------------
# 8. fit machinery calibration

def test_criterion_8_fit_calibration():
    t0 = time.perf_counter()
    errs = {}
    for i, tau in enumerate((1.3, 1.5, 2.0)):
        v = sm.sample_discrete_power_law(tau, 100_000,
                                         np.random.default_rng(800 + i))
        fit = sm.fit_power_law(sm.log_bin(v), (10, 1000))
        errs[tau] = abs(fit.exponent - tau)
    elapsed = time.perf_counter() - t0
    ok = all(e <= 0.05 for e in errs.values()) and elapsed < 30.0
    report(8, ok, "synthetic recovery errors: "
           + ", ".join(f"tau={t}: {e:.3f}" for t, e in errs.items())
           + f" (all <= 0.05), {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 9. scaling relation on the ER run

def test_criterion_9_scaling_relation(er100_scan):
    scan = er100_scan
    entry = scan.best_entry
    events = scan.events(scan.entries.index(entry))
    out = sm.avalanche_exponents(events)
    ok = out.relation_residual <= 2.0 * out.relation_stderr
    report(9, ok,
           f"|tau_S - 1 - (tau_T - 1)/gamma| = {out.relation_residual:.4f} "
           f"<= 2 x {out.relation_stderr:.4f} (gamma = {out.gamma.gamma:.3f} "
           f"+/- {out.gamma.stderr:.3f})")


# ----------------------------------------------------------------------
# 10. pipeline determinism

def test_criterion_10_pipeline_determinism(tmp_path):
    cfg_text = """
[topology]
kind = corner
corner = RT
L = 16

[weights]
a = 0.25

[sim]
total_steps = 30000
transient_steps = 2000
seed = 10

[analysis]
f0 = -0.005
fit_min = 2
fit_max = 400

[output]
dir = {out}
"""
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.ini"
        cfg.write_text(cfg_text.format(out=out))
        for cmd in ("run", "avalanche-stats", "walk-stats", "decay-check"):
            assert cli.main([cmd, "--config", str(cfg)]) == 0
        outs.append(out)
    names = ["run_seed10.txt", "manifest.json", "summary.json",
             "avalanche_fits.json", "avalanche_sizes.csv",
             "avalanche_durations.csv", "jump_fits.json",
             "jump_cumulative.csv", "decay_check.json"]
    diffs = [n for n in names
             if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()]
    ok = not diffs
    report(10, ok, "rerun byte-identical for all outputs"
           + ("" if ok else f"; differs: {diffs}"))
