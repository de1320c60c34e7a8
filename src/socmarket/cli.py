"""Command-line experiment runner.

Subcommands reproduce the three experiment families end to end from an INI
config file: `run` (ensemble of seeded runs), `walk-stats` (loser-jump
distances and two-branch fits), `avalanche-stats` (size/duration
distributions, exponents and the scaling relation), and `decay-check`
(fitted vs predicted deflation rate).  All outputs are plain CSV/JSON with
the config hash embedded, and reruns are byte-identical.

The module keeps no statistics or defaults of its own: the INI is read
through INI_KEYS onto the config dataclasses, each network kind is built
through TOPOLOGY, and avalanche-stats fits through
analysis.avalanche_exponents.

Exit codes: 0 success, 1 config error, 2 runtime error, 3 statistics
warning escalated by --strict.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, analysis, dynamics, topology
from .errors import ConfigError, StatisticsWarning, TopologyError

# [topology] kind -> (the keys it needs, its builder): the builder takes
# the ExperimentConfig and the seed's network stream
TOPOLOGY = {
    "ring": (("n",), lambda e, rng: topology.build_ring(e.n)),
    "manhattan": (("L",), lambda e, rng: topology.build_manhattan(e.L)),
    "f_lattice": (("L",), lambda e, rng: topology.build_f_lattice(e.L)),
    "corner": (("L",), lambda e, rng: topology.build_corner_lattice(e.L, e.corner or "RT")),
    "er_embedded": (("n", "alpha"),
                    lambda e, rng: topology.build_er_embedded(e.n, e.alpha, rng)),
}


@dataclass
class ExperimentConfig:
    kind: str
    n: Optional[int] = None
    L: Optional[int] = None
    alpha: Optional[float] = None
    corner: Optional[str] = None
    scheme: str = "fixed"
    a: Optional[float] = 0.5
    sim: dynamics.SimConfig = dataclasses.field(default_factory=dynamics.SimConfig)
    f0: Optional[float] = None
    f0_quantile: Optional[float] = None
    fit_min: float = analysis.DEFAULT_SIZE_RANGE[0]
    fit_max: float = analysis.DEFAULT_SIZE_RANGE[1]
    fit_t_min: float = analysis.DEFAULT_DURATION_RANGE[0]
    fit_t_max: float = analysis.DEFAULT_DURATION_RANGE[1]
    distance_mode: str = "raw"
    distance_metric: str = "norm"
    n_seeds: int = 1
    workers: int = 1
    out_dir: str = "out"
    engine: str = "incremental"
    checkpoint_every: int = 100_000

    def validate(self):
        """Check the fields without building anything: the sim parameters,
        that the topology kind is known and has its required keys, and the
        analysis settings.  The topology and weight values (L, n, alpha,
        corner, scheme, a) are range-checked by the one real build in
        build_experiment, so an analysis of a recorded run never checks
        them."""
        try:
            self.sim.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.kind not in TOPOLOGY:
            raise ConfigError(f"unknown network kind {self.kind!r}")
        keys, _ = TOPOLOGY[self.kind]
        missing = [key for key in keys if getattr(self, key) is None]
        if missing:
            raise ConfigError(f"[topology] kind = {self.kind} needs "
                              + " and ".join(missing))
        if self.f0 is not None and self.f0_quantile is not None:
            raise ConfigError("give f0 or f0_quantile, not both")
        if self.f0 is not None and not math.isfinite(self.f0):
            raise ConfigError(f"f0 must be finite, got {self.f0}")
        if self.f0_quantile is not None and not 0.0 < self.f0_quantile < 1.0:
            raise ConfigError("f0_quantile must lie in (0, 1)")
        if not 0 < self.fit_min < self.fit_max:
            raise ConfigError("need 0 < fit_min < fit_max")
        if not 0 < self.fit_t_min < self.fit_t_max:
            raise ConfigError("need 0 < fit_t_min < fit_t_max")
        if self.distance_mode not in ("raw", "min_image"):
            raise ConfigError(f"unknown distance_mode {self.distance_mode!r}")
        if self.distance_metric not in ("norm", "component"):
            raise ConfigError(f"unknown distance_metric {self.distance_metric!r}")
        if self.engine not in dynamics.ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.n_seeds < 1 or self.workers < 1:
            raise ConfigError("n_seeds and workers must be >= 1")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        return self

    # execution-resource fields do not affect results and stay out of
    # the config hash
    _UNHASHED = ("out_dir", "workers", "checkpoint_every")

    def canonical(self):
        """Stable one-line-per-field text form, used for hashing."""
        items = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name == "sim":
                for sf in dataclasses.fields(v):
                    items.append(f"sim.{sf.name}={getattr(v, sf.name)!r}")
            elif f.name not in self._UNHASHED:
                items.append(f"{f.name}={v!r}")
        return "\n".join(items)

    def digest(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


# INI section -> key -> cast.  A key left out keeps its SimConfig ([sim])
# or ExperimentConfig field default; [output] dir is out_dir.  Other
# sections and keys (lowercased, as configparser reads keys) are errors.
# The first bad value in this order ([sim], then field order) is reported.
INI_KEYS = {
    "sim": {"price_floor": float, "eta_max": float, "total_steps": int,
            "transient_steps": int, "seed": int, "renorm_threshold": float},
    "topology": {"kind": str, "n": int, "L": int, "alpha": float, "corner": str},
    "weights": {"scheme": str, "a": float},
    "analysis": {"f0": float, "f0_quantile": float, "fit_min": float,
                 "fit_max": float, "fit_t_min": float, "fit_t_max": float,
                 "distance_mode": str, "distance_metric": str},
    "ensemble": {"n_seeds": int, "workers": int},
    "output": {"dir": str, "engine": str, "checkpoint_every": int},
}


def load_config(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        found = cp.read(path)
    except configparser.Error as exc:  # a repeated section, no section header
        raise ConfigError(str(exc)) from exc
    if not found:
        raise ConfigError(f"cannot read config file {path}")
    # [DEFAULT] too: its keys would reach every section
    for section in (cp.default_section, *cp.sections()):
        if section not in (cp.default_section, *INI_KEYS):
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(cp[section]) - {key.lower() for key in INI_KEYS.get(section, ())}
        if unknown:
            raise ConfigError(f"unknown key [{section}] {min(unknown)}")
    if not cp.has_option("topology", "kind"):
        raise ConfigError("[topology] kind is required")
    given = {}
    for section, keys in INI_KEYS.items():
        for key, cast in keys.items():
            if cp.has_option(section, key):
                try:
                    given[key] = cast(cp.get(section, key))
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from exc
    sim = dynamics.SimConfig(**{key: given.pop(key) for key in INI_KEYS["sim"]
                                if key in given})
    if "dir" in given:
        given["out_dir"] = given.pop("dir")
    return ExperimentConfig(sim=sim, **given)


def build_experiment(ecfg, seed):
    """Network, weights and sim config for one ensemble member of a
    validated config; the network comes from its kind's TOPOLOGY builder.

    Random topologies and weights draw from streams derived from the seed
    ([seed, 1] and [seed, 2]), so every ensemble member is fully
    reproducible from its seed alone.
    """
    _, build = TOPOLOGY[ecfg.kind]
    net = build(ecfg, np.random.default_rng([seed, 1]))
    if ecfg.scheme == "fixed":
        wts = topology.assign_weights_fixed(net, ecfg.a)
    elif ecfg.scheme == "uniform":
        wts = topology.assign_weights_uniform(net, np.random.default_rng([seed, 2]))
    else:
        raise ConfigError(f"unknown weight scheme {ecfg.scheme!r}")
    sim_cfg = dataclasses.replace(ecfg.sim, seed=seed)
    return net, wts, sim_cfg


def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fit_dict(fit):
    if fit is None:
        return None
    return {"exponent": fit.exponent, "stderr": fit.stderr,
            "fit_range": list(fit.fit_range), "n_points": fit.n_points,
            "r_squared": fit.r_squared}


def _write_csv(path, header, columns, meta=""):
    head = (f"# {meta}\n" if meta else "") + ",".join(header) + "\n"
    with open(path, "wb") as fh:
        fh.write(head.encode())
        fh.write(dynamics.format_rows([np.asarray(c, dtype=np.float64) for c in columns], ","))


# ----------------------------------------------------------------------
# commands

def _scan(ecfg, net, wts, sim_cfg, f0=None):
    """(f0, its avalanche events) from the post-transient scan of the single
    threshold f0, or of the critical-threshold grid when f0 is None, which
    gives the grid's best threshold.  The scan keeps each threshold's
    avalanches, not its activity."""
    scan = analysis.threshold_scan(
        net, wts, sim_cfg, f0_grid=None if f0 is None else [f0], engine=ecfg.engine,
        size_range=(ecfg.fit_min, ecfg.fit_max))
    if f0 is not None:
        return f0, scan.events(0)
    if scan.best is None:
        notes = "; ".join(f"{e.f0:.4g}: {e.note}" for e in scan.entries)
        raise ConfigError(f"no usable activity threshold found ({notes})")
    return scan.best_entry.f0, scan.events(scan.best)


def _configured_f0(ecfg, net, wts, sim_cfg):
    """(f0, how it was set) from f0 or f0_quantile; (None, "scan") if
    neither, for the scan then sets it."""
    if ecfg.f0_quantile is None:
        return (None, "scan") if ecfg.f0 is None else (float(ecfg.f0), "absolute")
    f0 = analysis.stationary_profit_quantile(
        dynamics.Simulation(net, wts, sim_cfg, engine=ecfg.engine), ecfg.f0_quantile)
    return f0, f"quantile({ecfg.f0_quantile})"


def _run_one(ecfg, seed, record_path, checkpoint_path):
    """Run one seed, writing its record block by block as it is simulated.
    Of the steps it keeps only the post-transient min_profit column: the
    summary's mean of it is numpy's pairwise sum over the whole column."""
    net, wts, sim_cfg = build_experiment(ecfg, seed)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    f0, _ = _configured_f0(ecfg, net, wts, sim_cfg)
    sim = dynamics.Simulation(net, wts, sim_cfg, engine=ecfg.engine)
    transient = sim_cfg.transient_steps
    post_min = np.empty(sim_cfg.total_steps - transient)
    summary = {"seed": seed, "record": record_path.name, "renorm_events": 0}

    def kept(blocks):
        for block in blocks:
            start, _, mins, means, flags, _ = block
            a, b = max(start - transient, 0), max(start + len(mins) - transient, 0)
            post_min[a:b] = mins[len(mins) - (b - a):]
            summary["final_mean_price"] = float(means[-1])
            summary["renorm_events"] += int(flags.sum())
            yield block

    none = np.empty(0)
    header = dynamics.RunRecord(
        net.n_agents, net.extents, transient, none, none, none, none, kind=net.kind,
        config=sim_cfg, activity=None if f0 is None else none, activity_f0=f0,
        config_hash=ecfg.digest())
    header.save_text(record_path, kept(sim.blocks(
        sim_cfg.total_steps, f0, checkpoint_path=checkpoint_path,
        checkpoint_every=ecfg.checkpoint_every)))
    summary["post_min_profit_mean"] = float(post_min.mean())
    return summary


def cmd_run(ecfg, args):
    out = Path(ecfg.out_dir)
    seeds = [ecfg.sim.seed + k for k in range(ecfg.n_seeds)]
    jobs = [(seed, out / f"run_seed{seed}.txt", out / f"ckpt_seed{seed}.bin")
            for seed in seeds]
    if ecfg.workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=ecfg.workers) as pool:
            futures = [pool.submit(_run_one, ecfg, s, rp, cp) for s, rp, cp in jobs]
            summaries = [f.result() for f in futures]
    else:
        summaries = [_run_one(ecfg, s, rp, cp) for s, rp, cp in jobs]
    manifest = {
        "config_hash": ecfg.digest(),
        "config": ecfg.canonical().split("\n"),
        "seeds": seeds,
        "version": __version__,
        "records": [s["record"] for s in summaries],
    }
    _json_dump(manifest, out / "manifest.json")
    _json_dump({"runs": summaries}, out / "summary.json")
    print(f"wrote {len(seeds)} run(s) to {out} (config {ecfg.digest()})")
    return 0


def _provenance(ecfg, args, record):
    """Config hash and seed the outputs carry.  A recorded run analyzed
    without --config carries the ones its record header names."""
    if args.config:
        return ecfg.digest(), ecfg.sim.seed
    return record.config_hash, record.config.seed if record.config else None


def _obtain_record(ecfg, args):
    if args.run:
        return dynamics.RunRecord.load_text(args.run)
    net, wts, sim_cfg = build_experiment(ecfg, ecfg.sim.seed)
    return dynamics.Simulation(net, wts, sim_cfg, engine=ecfg.engine).run()


def cmd_walk_stats(ecfg, args):
    record = _obtain_record(ecfg, args)
    out = Path(ecfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    is_lattice = record.kind in ("ring",) + topology.LATTICE_KINDS
    stats = analysis.loser_jump_stats(
        record, mode=ecfg.distance_mode, metric=ecfg.distance_metric)
    config_hash, seed = _provenance(ecfg, args, record)
    meta = f"config_hash {config_hash} seed {seed}"
    _write_csv(out / "jump_cumulative.csv", ["xi", "F"],
               (stats.cumulative_x, stats.cumulative_f), meta)
    fitted = is_lattice and stats.pi1 is not None
    result = {
        "config_hash": config_hash,
        "seed": seed,
        "kind": record.kind,
        "n_jumps": stats.n_jumps,
        "mode": ecfg.distance_mode,
        "metric": ecfg.distance_metric,
        "fitted": bool(fitted),
        "pi1": _fit_dict(stats.pi1 if is_lattice else None),
        "pi2": _fit_dict(stats.pi2 if is_lattice else None),
    }
    if not is_lattice:
        result["note"] = "no power law fitted: nonlocal network destroys spatial correlation"
        warnings.warn("non-lattice topology: emitting distances only",
                      StatisticsWarning, stacklevel=2)
    _json_dump(result, out / "jump_fits.json")
    if fitted:
        print(f"pi1 = {stats.pi1.exponent:.3f} +/- {stats.pi1.stderr:.3f}, "
              f"pi2 = {stats.pi2.exponent:.3f} +/- {stats.pi2.stderr:.3f}"
              if stats.pi2 else f"pi1 = {stats.pi1.exponent:.3f}")
    else:
        print("distances written; no power law fitted")
    return 0


def cmd_avalanche_stats(ecfg, args):
    if args.run:
        record = dynamics.RunRecord.load_text(args.run)
        if record.activity is None:
            raise ConfigError(f"{args.run} carries no activity column")
        f0, f0_mode = record.activity_f0, "recorded"
        events = analysis.extract_avalanches(record.post(record.activity))
        config_hash, seed = _provenance(ecfg, args, record)
    else:
        config_hash, seed = ecfg.digest(), ecfg.sim.seed
        net, wts, sim_cfg = build_experiment(ecfg, ecfg.sim.seed)
        f0, f0_mode = _configured_f0(ecfg, net, wts, sim_cfg)
        f0, events = _scan(ecfg, net, wts, sim_cfg, f0)
    out = Path(ecfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if len(events) == 0 and not args.run and ecfg.f0 is not None:
        # documented fallback: the absolute threshold missed the stationary
        # profit range (its scale depends on the rescaling convention), so
        # locate the critical threshold by scanning instead
        warnings.warn("absolute f0 produced no avalanches; falling back to "
                      "a critical-threshold scan",
                      StatisticsWarning, stacklevel=2)
        f0, events = _scan(ecfg, net, wts, sim_cfg)
        f0_mode = "scan (fallback)"
    if len(events) < analysis.MIN_EVENTS:
        warnings.warn(f"only {len(events)} avalanche events (< {analysis.MIN_EVENTS})",
                      StatisticsWarning, stacklevel=2)
    result = {
        "config_hash": config_hash,
        "seed": seed,
        "f0": f0,
        "f0_mode": f0_mode,
        "n_events": len(events),
        "tau_s": None, "tau_t": None, "gamma_st": None,
        "scaling_relation": None,
    }
    if events:
        fits = analysis.avalanche_exponents(
            events, (ecfg.fit_min, ecfg.fit_max), (ecfg.fit_t_min, ecfg.fit_t_max))
        meta = f"config_hash {config_hash} seed {seed}"
        _write_csv(out / "avalanche_sizes.csv", ["x", "density"],
                   (fits.sizes.x, fits.sizes.density), meta)
        _write_csv(out / "avalanche_durations.csv", ["x", "density"],
                   (fits.durations.x, fits.durations.density), meta)
        result["tau_s"] = _fit_dict(fits.tau_s)
        result["tau_t"] = _fit_dict(fits.tau_t)
        if fits.gamma:
            result["gamma_st"] = {"gamma": fits.gamma.gamma, "stderr": fits.gamma.stderr,
                                  "n_points": fits.gamma.n_points}
        if fits.relation_residual is not None:
            result["scaling_relation"] = {"residual": fits.relation_residual,
                                          "combined_stderr": fits.relation_stderr}
        result.update((f"{name}_error", msg) for name, msg in fits.errors.items())
    _json_dump(result, out / "avalanche_fits.json")
    if result["tau_s"]:
        print(f"tau_S = {result['tau_s']['exponent']:.3f} "
              f"+/- {result['tau_s']['stderr']:.3f} ({len(events)} events, f0 = {f0:.4g})")
    else:
        print(f"{len(events)} events at f0 = {f0}; no size fit")
    return 0


def cmd_decay_check(ecfg, args):
    record = _obtain_record(ecfg, args)
    out = Path(ecfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = record.n_agents
    eta_max = record.config.eta_max if record.config else ecfg.sim.eta_max
    predicted = analysis.predicted_decay_rate(n, eta_max)
    if predicted * record.total_steps < np.log(10.0):
        warnings.warn("run too short for a decade of decay; the fit will be "
                      "noisy", StatisticsWarning, stacklevel=2)
    fitted = analysis.fit_decay_rate(record.mean_price, renorm_flags=record.renorm_flags)
    config_hash, seed = _provenance(ecfg, args, record)
    result = {
        "config_hash": config_hash,
        "seed": seed,
        "n_agents": n,
        "eta_max": eta_max,
        "fitted_k": fitted,
        "predicted_k": predicted,
        "ratio": fitted / predicted,
    }
    _json_dump(result, out / "decay_check.json")
    print(f"fitted k = {fitted:.4e}, predicted {predicted:.4e}, "
          f"ratio {fitted / predicted:.3f}")
    return 0


# ----------------------------------------------------------------------
# entry point

def make_parser():
    parser = argparse.ArgumentParser(
        prog="socmarket",
        description="extremal market model: runs and critical statistics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("walk-stats", cmd_walk_stats),
                     ("avalanche-stats", cmd_avalanche_stats),
                     ("decay-check", cmd_decay_check)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config (INI)")
        p.add_argument("--run", help="existing run record to analyze")
        p.add_argument("--seed", type=int, help="override base seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--engine", choices=dynamics.ENGINES)
        p.add_argument("--f0", type=float, help="absolute activity threshold")
        p.add_argument("--f0-quantile", type=float,
                       help="activity threshold as a stationary profit quantile")
        p.add_argument("--strict", action="store_true",
                       help="treat statistics warnings as errors (exit 3)")
        p.set_defaults(func=fn)
    return parser


def _apply_overrides(ecfg, args):
    if args.seed is not None:
        ecfg = dataclasses.replace(ecfg, sim=dataclasses.replace(ecfg.sim, seed=args.seed))
    if args.out:
        ecfg = dataclasses.replace(ecfg, out_dir=args.out)
    if args.engine:
        ecfg = dataclasses.replace(ecfg, engine=args.engine)
    if args.f0 is not None:
        ecfg = dataclasses.replace(ecfg, f0=args.f0, f0_quantile=None)
    if args.f0_quantile is not None:
        ecfg = dataclasses.replace(ecfg, f0=None, f0_quantile=args.f0_quantile)
    return ecfg


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        if args.config:
            ecfg = load_config(args.config)
        elif args.command == "run":
            raise ConfigError("run needs --config")
        elif args.run:
            # analysis on a recorded run needs no topology section; its
            # outputs take their provenance from the record (_provenance)
            ecfg = ExperimentConfig(kind="ring", n=3)
        else:
            raise ConfigError("--config or --run is required")
        ecfg = _apply_overrides(ecfg, args)
        if args.config:
            ecfg.validate()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", StatisticsWarning)
            rc = args.func(ecfg, args)
            stat_warnings = [w for w in caught if issubclass(w.category, StatisticsWarning)]
        for w in stat_warnings:
            print(f"warning: {w.message}", file=sys.stderr)
        if stat_warnings and args.strict:
            return 3
        return rc
    except (ConfigError, TopologyError) as exc:
        # a TopologyError comes from a builder's range check on the config
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface runtime failures as exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
