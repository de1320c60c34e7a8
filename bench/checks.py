"""Output checks that recompute what the CLI wrote, without stored copies.

Each check returns a list of problems; an empty list passes.  The market
evaluation and the avalanche recount here are written from the documented
model (README closed form, maximal nonzero stretches), not from the
package's own code paths.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

TWO_THIRDS = 2.0 / 3.0
ENGINE_RTOL = 1e-9      # recorded min_profit and mean_price vs this evaluation
TIE_RTOL = 1e-12        # profits this close to the minimum count as tied
ENGINE_SAMPLES = 16     # steps checked per trajectory
SCAN_PREFIX_STEPS = 2000
MIN_EVENTS = 1000


class ClosedForm:
    """Independent evaluation of one trading day.

    Edge e says buyer[e] buys from seller[e] with spending fraction w[e]:
    q_i = [sum_j sqrt(a_ij p_i / p_j)]^(2/3), wants a_ij (p_i / p_j) q_i,
    demand = summed wants, traded = min(production, demand), and each
    seller's takings p_j q_t,j are split over buyers by their share of
    its demand.
    """

    def __init__(self, suppliers, weights):
        self.n = len(suppliers)
        self.buyer = np.repeat(np.arange(self.n), [len(r) for r in suppliers])
        self.seller = np.concatenate([np.asarray(r, dtype=np.int64) for r in suppliers])
        self.w = np.concatenate([np.asarray(w, dtype=np.float64) for w in weights])

    @classmethod
    def of(cls, net, wts):
        return cls(net.suppliers, [wts.row(i) for i in range(net.n_agents)])

    def profits(self, prices):
        p = np.asarray(prices, dtype=np.float64)
        n, buyer, seller = self.n, self.buyer, self.seller
        ratio = self.w * p[buyer] / p[seller]
        q = np.bincount(buyer, weights=np.sqrt(ratio), minlength=n) ** TWO_THIRDS
        wants = ratio * q[buyer]
        demand = np.bincount(seller, weights=wants, minlength=n)
        traded = np.minimum(q, demand)
        d = demand[seller]
        share = np.divide(wants, d, out=np.zeros_like(wants), where=d > 0.0)
        spend = np.bincount(buyer, weights=share * p[seller] * traded[seller],
                            minlength=n)
        return p * traded - spend


def recount_avalanches(y):
    """(size, duration) of each maximal nonzero stretch of y that starts
    after a zero and ends before one."""
    events = []
    seen_zero = in_event = False
    size = duration = 0
    for v in np.asarray(y).tolist():
        if v > 0:
            if in_event:
                size += v
                duration += 1
            elif seen_zero:
                in_event, size, duration = True, v, 1
        else:
            if in_event:
                events.append((size, duration))
                in_event = False
            seen_zero = True
    return events


def replay_prices(n, sim_cfg, losers, renorm_flags, sample_steps):
    """Yield (step, prices) at each sample step, before that step's cut.

    Follows the documented protocol: prices start uniform on
    [price_floor, price_floor + 1) and each step the loser's price is cut
    by eta ~ U[0, eta_max), all drawn from one generator seeded with the
    run seed; a renormalization divides every price by the mean.
    """
    rng = np.random.default_rng(sim_cfg.seed)
    p = sim_cfg.price_floor + rng.random(n)
    etas = sim_cfg.eta_max * rng.random(len(losers))
    wanted = set(sample_steps)
    for k, loser in enumerate(losers):
        if renorm_flags[k]:
            p = p / (math.fsum(p) / n)
        if k in wanted:
            yield k, p.copy()
        p[loser] = p[loser] * (1.0 - etas[k])


def sample_steps(count):
    return sorted(set(np.linspace(0, count - 1, ENGINE_SAMPLES).astype(int).tolist()))


def check_engine(evaluator, sim_cfg, losers, min_profit, mean_price, renorm_flags,
                 activity=None, f0=None):
    """The recorded loser holds the least profit (lowest index among ties)
    and the recorded min_profit, mean_price and activity match."""
    problems = []
    steps = sample_steps(len(losers))
    for k, p in replay_prices(evaluator.n, sim_cfg, losers, renorm_flags, steps):
        profit = evaluator.profits(p)
        mp = math.fsum(p) / evaluator.n
        lo = profit.min()
        tied = np.flatnonzero(profit <= lo + TIE_RTOL * np.abs(profit).max())
        if losers[k] != tied[0]:
            problems.append(f"step {k}: loser {losers[k]}, least profit at {tied[0]}")
        if not math.isclose(min_profit[k], lo, rel_tol=ENGINE_RTOL):
            problems.append(f"step {k}: min_profit {min_profit[k]!r} vs {lo!r}")
        if not math.isclose(mean_price[k], mp, rel_tol=ENGINE_RTOL):
            problems.append(f"step {k}: mean_price {mean_price[k]!r} vs {mp!r}")
        if activity is not None and activity[k] != np.count_nonzero(profit < f0 * mp):
            problems.append(f"step {k}: activity {activity[k]} vs "
                            f"{np.count_nonzero(profit < f0 * mp)}")
    return problems


# ----------------------------------------------------------------------
# file readers

def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    """(header, float columns) of a CLI CSV file."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(-1, len(header)).T


def read_record(path):
    """(meta dict, columns dict) of a run record."""
    meta, header = {}, None
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                parts = line[1:].split()
                meta[parts[0]] = parts[1:]
            else:
                header = line.split()
                break
        data = np.loadtxt(fh, ndmin=2)
    return meta, {name: data[:, k] for k, name in enumerate(header)}


# ----------------------------------------------------------------------
# workload checks: name -> problems, in a fixed order

SCAN_CHECKS = ("config_hash", "f0_on_grid", "n_events", "sizes_csv", "durations_csv",
               "tau_s", "scaling_relation", "engine", "avalanche_recount")
WALK_CHECKS = ("config_hash", "n_jumps", "jump_cdf", "walk_exponents", "engine")


def _log_binned(path, n_events):
    """Doubling bins [2^r, 2^(r+1) - 1] from r = 0, density normalized,
    and counts density * width * n_events that are whole numbers."""
    header, (x, density) = read_csv(path)
    problems = []
    if header != ["x", "density"]:
        return [f"{path.name}: header {header}"]
    lo = 2.0 ** np.arange(x.size)
    width = lo
    if not np.array_equal(x, (lo + 2 * lo - 1) / 2):
        problems.append(f"{path.name}: x is not on the doubling bins")
    total = math.fsum(density * width)
    if not math.isclose(total, 1.0, rel_tol=1e-9):
        problems.append(f"{path.name}: sum density*width = {total!r}")
    counts = density * width * n_events
    if not np.allclose(counts, np.rint(counts), rtol=0, atol=1e-6) \
            or int(np.rint(counts).sum()) != n_events:
        problems.append(f"{path.name}: bin counts are not whole or do not sum to n_events")
    return problems


def scan_checks(out_dir, ecfg, sim_cfg, net, wts):
    from socmarket import analysis, dynamics

    fits = read_json(out_dir / "avalanche_fits.json")
    n_events = fits["n_events"]
    grid = [-0.5 * sim_cfg.eta_max * u for u in analysis.THRESHOLD_GRID_UNITS]
    checks = {
        "config_hash": [] if fits["config_hash"] == ecfg.digest()
        else [f"config_hash {fits['config_hash']} vs {ecfg.digest()}"],
        "f0_on_grid": [] if any(math.isclose(fits["f0"], g, rel_tol=1e-12) for g in grid)
        else [f"f0 {fits['f0']!r} not on {grid}"],
        "n_events": [] if n_events >= MIN_EVENTS else [f"{n_events} events"],
        "sizes_csv": _log_binned(out_dir / "avalanche_sizes.csv", n_events),
        "durations_csv": _log_binned(out_dir / "avalanche_durations.csv", n_events),
    }
    tau_s = (fits["tau_s"] or {}).get("exponent")
    checks["tau_s"] = [] if tau_s is not None and 1.0 < tau_s < 1.5 else [f"tau_S {tau_s}"]
    rel = fits["scaling_relation"]
    tau_t, gamma = fits["tau_t"], fits["gamma_st"]
    if rel is None or tau_t is None or gamma is None:
        checks["scaling_relation"] = ["scaling relation missing"]
    else:
        g = gamma["gamma"]
        resid = abs(tau_s - 1.0 - (tau_t["exponent"] - 1.0) / g)
        comb = math.sqrt(fits["tau_s"]["stderr"] ** 2 + (tau_t["stderr"] / g) ** 2
                         + ((tau_t["exponent"] - 1.0) * gamma["stderr"] / g ** 2) ** 2)
        checks["scaling_relation"] = [] if (
            math.isclose(rel["residual"], resid, rel_tol=1e-9, abs_tol=1e-15)
            and math.isclose(rel["combined_stderr"], comb, rel_tol=1e-9)) else [
            f"residual {rel['residual']!r} / stderr {rel['combined_stderr']!r} "
            f"vs recomputed {resid!r} / {comb!r}"]

    # the scan's own trajectory through its transient and a little beyond
    # (activity stays nonzero through most of the transient), rerun
    # through the public API
    prefix = dataclasses.replace(
        sim_cfg, total_steps=sim_cfg.transient_steps + SCAN_PREFIX_STEPS, transient_steps=0)
    record = dynamics.Simulation(net, wts, prefix, engine=ecfg.engine).run(
        activity_f0=fits["f0"])
    checks["engine"] = check_engine(
        ClosedForm.of(net, wts), prefix, record.loser_index, record.min_profit,
        record.mean_price, record.renorm_flags, record.activity, fits["f0"])
    mine = recount_avalanches(record.activity)
    theirs = [(e.size, e.duration) for e in analysis.extract_avalanches(record.activity)]
    # on some seeds (er100_scan seed 0) the activity stays nonzero until
    # after the prefix, so both lists are empty and the check is vacuous
    checks["avalanche_recount"] = [] if mine == theirs else [
        f"{len(theirs)} events extracted, {len(mine)} recounted"]
    return checks


def walk_checks(out_dir, record_path, ecfg, sim_cfg, net, wts):
    meta, cols = read_record(record_path)
    fits = read_json(out_dir / "jump_fits.json")
    manifest = read_json(out_dir / "manifest.json")
    hashes = {meta.get("config_hash", [None])[0], fits["config_hash"],
              manifest["config_hash"], ecfg.digest()}
    checks = {"config_hash": [] if len(hashes) == 1 else [f"hashes differ: {hashes}"]}

    post = sim_cfg.total_steps - sim_cfg.transient_steps
    checks["n_jumps"] = [] if fits["n_jumps"] == post - 1 else [
        f"n_jumps {fits['n_jumps']} vs {post - 1}"]

    L = net.extents[0]
    idx = cols["loser_idx"].astype(np.int64)
    pos = np.stack([cols["pos_x"], cols["pos_y"]], axis=1)
    problems = []
    if not np.array_equal(pos, np.stack([idx % L, idx // L], axis=1)):
        problems.append("record positions do not match loser indices")
    step = sim_cfg.transient_steps
    d = np.abs(np.diff(pos[cols["t"] >= step], axis=0))
    xs, counts = np.unique(np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2), return_counts=True)
    _, (cx, cf) = read_csv(out_dir / "jump_cumulative.csv")
    if np.any(np.diff(cf) < 0) or cf[-1] != 1.0:
        problems.append("cumulative F is not non-decreasing to 1")
    if cx.size != xs.size or not np.allclose(cx, xs, rtol=1e-12, atol=0) \
            or not np.allclose(cf, np.cumsum(counts) / counts.sum(), rtol=1e-12, atol=0):
        problems.append("cumulative F does not match the recorded loser positions")
    checks["jump_cdf"] = problems
    checks["walk_exponents"] = [f"{k} = {fits[k]}" for k in ("pi1", "pi2")
                                if not fits[k] or not fits[k]["exponent"] > 0]
    checks["engine"] = check_engine(
        ClosedForm.of(net, wts), sim_cfg, idx, cols["min_profit"],
        cols["mean_price"], cols["renorm_flag"].astype(bool))
    return checks
