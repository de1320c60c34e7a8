"""The incremental engine's output streams, pinned bit for bit.

Fixed-seed runs on six networks, each tracking the 8-threshold scan grid and
each passing through at least one renormalisation, are compared with the
digests in data/streams_sha256.json: one sha256 per 10 000-step chunk of each
stream (loser, min profit, mean price, renormalisation flags, activity rows)
and one of the final prices.  A change to the engine that moves any bit
fails here and names the first stream and chunk that differ.

A change that is meant to move the bits rewrites the pins with
`PYTHONPATH=src python tests/test_streams.py`.
"""

import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import socmarket as sm
from socmarket.analysis import THRESHOLD_GRID_UNITS

PINS = Path(__file__).with_name("data") / "streams_sha256.json"
CHUNK = 10_000
ETA_MAX = 0.01
GRID = -0.5 * ETA_MAX * np.asarray(THRESHOLD_GRID_UNITS)


def _fixed(build, a):
    def make(rng):
        net = build()
        return net, sm.assign_weights_fixed(net, a)
    return make


def _er100(rng):
    net = sm.build_er_embedded(100, 0.05, rng)
    return net, sm.assign_weights_uniform(net, rng)


# name: (network and weights from a generator, steps, renorm threshold).
# Prices start on [0.5, 1.5), so a threshold just below the start's mean
# price of about 1 renormalises once the cuts pull the mean under it, and
# leaves the renormalised mean of 1 above it.  RT100 runs 20 000 steps: on a
# fresh RT 100x100 lattice about 3 000 profits lie below the grid's top
# threshold, so each tracked step costs about 40 us.
CASES = {
    "rt32": (_fixed(lambda: sm.build_corner_lattice(32, "RT"), 0.25), 50_000, 0.9),
    "rt100": (_fixed(lambda: sm.build_corner_lattice(100, "RT"), 0.5), 20_000, 0.99),
    "er100": (_er100, 50_000, 0.5),
    "ring100": (_fixed(lambda: sm.build_ring(100), 0.5), 50_000, 0.5),
    "manhattan6": (_fixed(lambda: sm.build_manhattan(6), 0.25), 50_000, 0.5),
    "f6": (_fixed(lambda: sm.build_f_lattice(6), 0.25), 50_000, 0.5),
}


def machine():
    """What the digests may depend on besides the code: the architecture,
    the platform, numpy's version and the C compiler."""
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True).stdout
    except OSError:
        cc = ""
    return [platform.machine(), sys.platform, np.__version__,
            (cc.splitlines() or ["no cc"])[0]]


def _digest(values, dtype):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()


def streams(name, seed=7):
    """The digests of one case's run on the incremental engine."""
    make, steps, threshold = CASES[name]
    net, wts = make(np.random.default_rng(seed))
    cfg = sm.SimConfig(price_floor=0.5, eta_max=ETA_MAX, total_steps=steps,
                       transient_steps=0, seed=seed, renorm_threshold=threshold)
    sim = sm.Simulation(net, wts, cfg)
    rec = sim.run(activity_f0=GRID)
    assert rec.renorm_flags.any()
    columns = {"loser": (rec.loser_index, "<i8"), "min_profit": (rec.min_profit, "<f8"),
               "mean_price": (rec.mean_price, "<f8"), "renorm_flags": (rec.renorm_flags, "u1"),
               "activity": (rec.activity, "<i8")}
    out = {stream: [_digest(values[a:a + CHUNK], dtype) for a in range(0, steps, CHUNK)]
           for stream, (values, dtype) in columns.items()}
    out["final_prices"] = [_digest(sim.engine.p, "<f8")]
    return out


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_streams_match_the_pins(pins, name):
    got, want = streams(name), pins["cases"][name]
    for stream, chunks in want.items():
        for k, (a, b) in enumerate(zip(chunks, got[stream])):
            if a != b:
                here = machine()
                where = ("the final prices" if stream == "final_prices" else
                         f"stream {stream}, chunk {k} (steps {k * CHUNK} to {(k + 1) * CHUNK - 1})")
                same = "the same" if here == pins["machine"] else "a different"
                pytest.fail(f"{name}: {where} differs from the pins, which were written on "
                            f"{same} machine ({pins['machine']}; this one is {here})")
    assert got == want


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps({"machine": machine(), "chunk": CHUNK,
                                "cases": {name: streams(name) for name in CASES}}, indent=1) + "\n")
