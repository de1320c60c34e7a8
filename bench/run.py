"""socmarket benchmark: runs the CLI as a user would and checks its outputs.

    python3 bench/run.py --workload rt32_scan --seed 0 --seconds 30 --trace 0

Each round runs the workload's `socmarket` commands in fresh
single-threaded interpreters, then checks their outputs.  Rounds repeat
until --seconds have passed; every figure is the median over rounds.
--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 reports the per-layer metrics from traced rounds and the tracing
overhead against an untraced pass of the same round.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from workloads import SCAN, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0   # children still running then are killed
MB = 1e6

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.import_s": "s", "cli.other_s": "s", "topology.build_s": "s",
    "dynamics.init_s": "s", "dynamics.steps_per_s": "1/s",
    "dynamics.touched_per_step": "count", "dynamics.record_save_s": "s",
    "dynamics.record_load_s": "s", "dynamics.record_mb": "MB",
    "dynamics.checkpoint_s": "s", "analysis.track_activity_steps_per_s": "1/s",
    "analysis.activity_us_per_step": "us", "analysis.avalanche_s": "s",
    "analysis.fit_s": "s", "analysis.jump_stats_s": "s",
    "market.evaluations_per_s": "1/s", "trace.overhead_pct": "%",
}
# span name -> the layer metric its self time is charged to
SELF_TIME_METRIC = {
    "cli.build_experiment": "topology.build_s",
    "dynamics.Simulation.__init__": "dynamics.init_s",
    "dynamics.RunRecord.save_text": "dynamics.record_save_s",
    "dynamics.RunRecord.load_text": "dynamics.record_load_s",
    "dynamics.save_checkpoint": "dynamics.checkpoint_s",
    "analysis.extract_avalanches": "analysis.avalanche_s",
    "analysis.log_bin": "analysis.avalanche_s",
    "analysis.fit_power_law": "analysis.fit_s",
    "analysis.gamma_st": "analysis.fit_s",
    "analysis.scaling_relation_residual": "analysis.fit_s",
    "analysis.loser_jump_stats": "analysis.jump_stats_s",
}


class Runner:
    """Spawns children with one environment and a shared deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def spawn(self, argv, log):
        """Run one child; returns (wall seconds, peak RSS in MB, exit code)."""
        with open(log, "ab") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss * 1024 / MB, proc.returncode


class Round:
    """One workload round: paths, commands and output checks."""

    def __init__(self, workload, seed, work):
        self.workload, self.seed, self.work = workload, seed, work
        self.out = work / "out"
        self.ini = work / "config.ini"
        self.ini.write_text(workload.ini_text(seed, self.out))
        self.commands = workload.commands(self.ini, self.out, seed)
        self.check_names = checks.SCAN_CHECKS if workload.kind == SCAN else checks.WALK_CHECKS
        from socmarket import cli
        self.ecfg = cli.load_config(str(self.ini)).validate()
        self.net, self.wts, self.sim_cfg = cli.build_experiment(self.ecfg, self.ecfg.sim.seed)

    def run_commands(self, runner, traced=False):
        """Run the commands in order from a clean output directory; returns
        per-command (wall, rss, rc) and, when traced, the trace files."""
        shutil.rmtree(self.out, ignore_errors=True)
        results, traces = [], []
        for k, args in enumerate(self.commands):
            if traced:
                trace = self.work / f"trace_cli{k}.json"
                argv = [str(HERE / "child.py"), "cli", str(trace), "--"] + args
                traces.append(trace)
            else:
                argv = ["-m", "socmarket.cli"] + args
            results.append(runner.spawn(argv, self.work / "cli.log"))
            if results[-1][2] != 0:
                break
        return results, traces

    def check(self):
        """Problems per check name, for outputs of commands that succeeded."""
        if self.workload.kind == SCAN:
            found = checks.scan_checks(self.out, self.ecfg, self.sim_cfg, self.net, self.wts)
        else:
            found = checks.walk_checks(self.out, self.out / self.workload.record_name(self.seed),
                                       self.ecfg, self.sim_cfg, self.net, self.wts)
        return {name: found[name] for name in self.check_names}


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(cli_traces, cli_walls, probe, untraced_wall):
    """Per-layer figures of one traced round."""
    m = defaultdict(float)
    for trace in cli_traces + [probe]:
        spans = trace["spans"]
        for (name, _, _, _, count), own in zip(spans, self_times(spans)):
            if name in SELF_TIME_METRIC:
                m[SELF_TIME_METRIC[name]] += own
            if name == "dynamics.RunRecord.save_text":
                m["dynamics.record_mb"] += count / MB
            elif name in ("dynamics.Simulation.run", "analysis.track_activity",
                          "market.evaluate_market"):
                m[name + ".s"] += own
                m[name + ".n"] += count
    for trace, wall in zip(cli_traces, cli_walls):
        roots = [(name, end - start) for name, start, end, parent, _ in trace["spans"]
                 if parent < 0]
        m["cli.import_s"] += sum(d for name, d in roots if name == "cli.import")
        m["cli.other_s"] += wall - sum(d for _, d in roots)
    step_s = m.pop("dynamics.Simulation.run.s") / m.pop("dynamics.Simulation.run.n")
    track_s = m.pop("analysis.track_activity.s") / m.pop("analysis.track_activity.n")
    m["dynamics.steps_per_s"] = 1.0 / step_s
    m["analysis.track_activity_steps_per_s"] = 1.0 / track_s
    m["analysis.activity_us_per_step"] = 1e6 * (track_s - step_s)
    m["market.evaluations_per_s"] = (m.pop("market.evaluate_market.n")
                                     / m.pop("market.evaluate_market.s"))
    m["dynamics.touched_per_step"] = probe["touched"] / probe["touched_steps"]
    m["trace.overhead_pct"] = 100.0 * (sum(cli_walls) - untraced_wall) / untraced_wall
    return m


def load_trace(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "socmarket" / "cli.py").is_file():
        print(f"no socmarket sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.monotonic()
    runner = Runner(started + RUN_DEADLINE_S)
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rnd = Round(workload, args.seed, work)
    log = work / "child.log"

    setup = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            wall, _, rc = runner.spawn([str(HERE / "child.py"), "setup", str(rnd.ini)], log)
            if rc != 0:
                print(f"set-up failed with exit code {rc}; see {log}", file=sys.stderr)
                return 2
            setup.append(wall)

    attempted = failed = 0
    correct = True
    samples = defaultdict(list)

    def attempt(traced):
        nonlocal attempted, failed, correct
        results, traces = rnd.run_commands(runner, traced)
        attempted += len(rnd.commands) + len(rnd.check_names)
        bad = sum(rc != 0 for _, _, rc in results) + len(rnd.commands) - len(results)
        failed += bad
        if bad:
            failed += len(rnd.check_names)
            print(f"a command failed; see {work / 'cli.log'}", file=sys.stderr)
            return None, traces
        try:
            found = rnd.check()
        except Exception:  # noqa: BLE001 - unreadable output fails every check
            traceback.print_exc()
            found = {name: ["output could not be checked"] for name in rnd.check_names}
        for name, problems in found.items():
            if problems:
                failed += 1
                correct = False
                print(f"check {name} failed: {'; '.join(problems)}", file=sys.stderr)
        return results, traces

    t0 = time.monotonic()
    rounds = 0
    while True:
        rounds += 1
        results, _ = attempt(traced=False)
        if results is not None:
            untraced = sum(wall for wall, _, _ in results)
            if args.trace:
                traced, traces = attempt(traced=True)
                probe_trace = work / "trace_probe.json"
                _, _, rc = runner.spawn([str(HERE / "child.py"), "probe", str(rnd.ini),
                                         str(probe_trace), str(work)], log)
                if traced is not None and rc == 0:
                    layers = layer_metrics([load_trace(t) for t in traces],
                                           [wall for wall, _, _ in traced],
                                           load_trace(probe_trace), untraced)
                    for name, value in layers.items():
                        samples[name].append(value)
                elif rc != 0:
                    print(f"layer probe failed; see {log}", file=sys.stderr)
            else:
                samples["wall_s"].append(untraced)
                samples["peak_rss_mb"].append(max(rss for _, rss, _ in results))
            print(f"round {rounds}: wall {untraced:.3f} s", file=sys.stderr)
        if time.monotonic() - t0 >= args.seconds:
            break

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    if not args.trace:
        samples["setup_s"] = setup
    if any(not samples[name] for name in units):
        print("no round completed; nothing measured", file=sys.stderr)
        return 2
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
