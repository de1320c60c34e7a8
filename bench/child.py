"""Code the benchmark runs in fresh interpreters.

    python child.py setup INI                 set up one simulation, then exit
    python child.py cli TRACE -- ARGS...      `socmarket ARGS...` with tracing
    python child.py probe INI TRACE WORKDIR   fixed layer probe, with tracing

Tracing wraps the public functions of each socmarket module and keeps one
span per call (name, start, end, parent, count) in memory; the spans are
written to TRACE as JSON when the process ends.  Spans never reach inside
the program: the engine step and the tracker are not split here.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time

# probe sizes: engine steps per phase, full market evaluations, and
# avalanches in the synthetic activity signal
PROBE_STEPS = 2000
PROBE_EVALUATIONS = 200
PROBE_EVENTS = 2000


class Tracer:
    """In-memory spans of wrapped calls."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, count]
        self._stack = []
        self._opaque = 0

    def wrap(self, name, fn, count=None, opaque=False):
        """Wrap fn so each call records a span.  Calls made inside an
        opaque span are charged to it and not recorded on their own."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._opaque += opaque
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self._opaque -= opaque
            if count is not None:
                span[4] = count(args, result)
            return result
        return traced

    def add(self, name, start, end, count=0):
        self.spans.append([name, start, end, -1, count])

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def instrument(tracer):
    """Import socmarket.cli under a span and wrap the layer entry points."""
    t0 = time.perf_counter()
    from socmarket import analysis, cli, dynamics, market
    tracer.add("cli.import", t0, time.perf_counter())

    def patch(owner, attr, label, **kw):
        setattr(owner, attr, tracer.wrap(label, getattr(owner, attr), **kw))

    patch(cli, "build_experiment", "cli.build_experiment")
    patch(dynamics.Simulation, "__init__", "dynamics.Simulation.__init__")
    patch(dynamics.Simulation, "run", "dynamics.Simulation.run",
          count=lambda args, rec: len(rec.loser_index))
    patch(dynamics.RunRecord, "save_text", "dynamics.RunRecord.save_text",
          count=lambda args, _: os.path.getsize(args[1]))
    # a bound classmethod, rebound as a static function of the class
    dynamics.RunRecord.load_text = staticmethod(tracer.wrap(
        "dynamics.RunRecord.load_text", dynamics.RunRecord.load_text))
    patch(dynamics, "save_checkpoint", "dynamics.save_checkpoint")
    patch(analysis, "track_activity", "analysis.track_activity",
          count=lambda args, out: out.shape[0])
    for name in ("extract_avalanches", "log_bin", "fit_power_law", "gamma_st",
                 "scaling_relation_residual"):
        patch(analysis, name, f"analysis.{name}")
    # its own binning and fits are part of the jump statistics
    patch(analysis, "loser_jump_stats", "analysis.loser_jump_stats", opaque=True)
    patch(market, "evaluate_market", "market.evaluate_market", count=lambda args, _: 1)


def setup(ini):
    """Set-up as the CLI does it, up to the first step."""
    from socmarket import cli, dynamics
    ecfg = cli.load_config(ini).validate()
    net, wts, sim_cfg = cli.build_experiment(ecfg, ecfg.sim.seed)
    dynamics.Simulation(net, wts, sim_cfg, engine=ecfg.engine)
    os._exit(0)


def traced_cli(trace_path, argv):
    tracer = Tracer()
    instrument(tracer)
    from socmarket import cli
    rc = cli.main(argv)
    tracer.dump(trace_path, rc=rc)
    return rc


def probe(ini, trace_path, workdir):
    """Touch every layer with fixed work on the workload network, so that
    each per-layer figure is measured on every workload.  Set-up happens
    before tracing starts: the CLI commands already measure it."""
    import warnings

    import numpy as np
    from socmarket import analysis, cli, dynamics, market
    from socmarket.errors import StatisticsWarning

    warnings.simplefilter("ignore", StatisticsWarning)
    ecfg = cli.load_config(ini)
    net, wts, sim_cfg = cli.build_experiment(ecfg, ecfg.sim.seed)
    cfg = dataclasses.replace(sim_cfg, total_steps=PROBE_STEPS, transient_steps=0)
    sims = [dynamics.Simulation(net, wts, cfg) for _ in range(3)]

    tracer = Tracer()
    instrument(tracer)
    record = sims[0].run(checkpoint_path=os.path.join(workdir, "probe.ckpt"),
                         checkpoint_every=PROBE_STEPS // 2)
    path = os.path.join(workdir, "probe_record.txt")
    record.save_text(path)
    analysis.loser_jump_stats(dynamics.RunRecord.load_text(path))

    grid = -0.5 * cfg.eta_max * np.asarray(analysis.THRESHOLD_GRID_UNITS)
    analysis.track_activity(sims[1], grid)

    # a few thousand steps rarely hold complete avalanches on large
    # networks, so the avalanche and fit layers get a fixed synthetic signal
    rng = np.random.default_rng(0)
    signal = [0]
    for duration in analysis.sample_discrete_power_law(1.5, PROBE_EVENTS, rng, x_max=1000):
        signal.extend(rng.integers(1, 4, duration).tolist())
        signal.append(0)
    events = analysis.extract_avalanches(signal)
    tau_s = analysis.fit_power_law(analysis.log_bin([e.size for e in events]), (10, 1000))
    tau_t = analysis.fit_power_law(analysis.log_bin([e.duration for e in events]), (10, 100))
    analysis.scaling_relation_residual(tau_s, tau_t, analysis.gamma_st(events))

    sim = sims[2]
    touched = 0
    for _ in range(PROBE_STEPS):
        sim.step()
        touched += sim.engine.touched_last
    prices = np.asarray(sim.engine.p)
    for _ in range(PROBE_EVALUATIONS):
        market.evaluate_market(prices, net, wts)
    tracer.dump(trace_path, touched=touched, touched_steps=PROBE_STEPS)
    return 0


def main(argv):
    mode = argv[0]
    if mode == "setup":
        return setup(argv[1])
    if mode == "cli":
        if argv[2] != "--":
            raise SystemExit("usage: child.py cli TRACE -- ARGS...")
        return traced_cli(argv[1], argv[3:])
    if mode == "probe":
        return probe(argv[1], argv[2], argv[3])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
