"""Self-tests of the benchmark's own output checks.

    PYTHONPATH=src python -m pytest -q bench
"""

import dataclasses
import json

import numpy as np
import pytest

import run
import socmarket as sm
from checks import ClosedForm, check_engine, recount_avalanches


def _instance(rng, kind):
    if kind == "er":
        net = sm.build_er_embedded(int(rng.integers(10, 60)), float(rng.uniform(0.03, 0.3)), rng)
        wts = sm.assign_weights_uniform(net, rng)
    else:
        net = sm.build_corner_lattice(int(rng.integers(3, 9)), kind)
        wts = sm.assign_weights_fixed(net, float(rng.uniform(0.05, 0.95)))
    return net, wts, 10.0 + rng.random(net.n_agents)


@pytest.mark.parametrize("kind", ["er", "RT", "LB"])
def test_closed_form_matches_evaluate_market(kind):
    rng = np.random.default_rng(7)
    for _ in range(20):
        net, wts, prices = _instance(rng, kind)
        # spread prices over decades so the ratios are far from one
        prices = prices * 10.0 ** rng.uniform(-3, 3, net.n_agents)
        snap = sm.evaluate_market(prices, net, wts)
        mine = ClosedForm.of(net, wts).profits(prices)
        # profits are differences of takings p_i q_t,i and spending
        scale = np.max(prices * snap.traded)
        np.testing.assert_allclose(mine, snap.profit, rtol=0, atol=1e-12 * scale)


def test_recount_on_hand_made_signal():
    # leading and trailing stretches have no observed start or end
    y = [2, 1, 0, 3, 0, 0, 1, 4, 2, 0, 5, 0, 0, 7, 7]
    assert recount_avalanches(y) == [(3, 1), (7, 3), (5, 1)]
    assert recount_avalanches([0, 0, 0]) == []
    assert recount_avalanches([1, 2, 3]) == []
    got = [(e.size, e.duration) for e in sm.extract_avalanches(np.array(y))]
    assert got == recount_avalanches(y)


def test_engine_check_passes_a_real_run_and_catches_a_wrong_loser():
    net = sm.build_corner_lattice(8, "RT")
    wts = sm.assign_weights_fixed(net, 0.25)
    cfg = sm.SimConfig(total_steps=400, transient_steps=0, seed=3)
    f0 = -0.005
    rec = sm.Simulation(net, wts, cfg).run(activity_f0=f0)
    args = (ClosedForm.of(net, wts), cfg, rec.loser_index, rec.min_profit,
            rec.mean_price, rec.renorm_flags)
    assert check_engine(*args, rec.activity, f0) == []

    wrong = rec.loser_index.copy()
    wrong[-1] = (wrong[-1] + 1) % net.n_agents
    assert check_engine(args[0], cfg, wrong, *args[3:]) != []
    shifted = dataclasses.replace(cfg, seed=4)
    assert check_engine(args[0], shifted, *args[2:]) != []


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
