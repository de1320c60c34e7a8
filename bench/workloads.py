"""The benchmark workloads: scaled-down versions of the `configs/` runs.

Each workload keeps the topology, weights, reference seed and analysis
settings of one `configs/*.ini` experiment and runs a tenth of its steps.
The benchmark seed is added to the reference seed, so `--seed 0` runs the
reference seed itself.
"""

from __future__ import annotations

from dataclasses import dataclass

SCAN = "scan"
WALK = "walk"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # SCAN (avalanche-stats) or WALK (run + walk-stats)
    base_seed: int          # the reference config's [sim] seed
    total_steps: int
    transient_steps: int
    body: str               # [topology], [weights] and [analysis] sections
    checkpoint_every: int = 0

    def config_seed(self, seed):
        """Config seed for a benchmark seed; seed 0 is the reference seed."""
        return self.base_seed + seed % 2 ** 31

    def ini_text(self, seed, out_dir):
        text = (f"{self.body.strip()}\n\n[sim]\nprice_floor = 10\neta_max = 0.01\n"
                f"total_steps = {self.total_steps}\n"
                f"transient_steps = {self.transient_steps}\n"
                f"seed = {self.config_seed(seed)}\n\n[output]\ndir = {out_dir}\n")
        if self.checkpoint_every:
            text += f"checkpoint_every = {self.checkpoint_every}\n"
        return text

    def record_name(self, seed):
        """File name `socmarket run` gives the record of this seed."""
        return f"run_seed{self.config_seed(seed)}.txt"

    def commands(self, ini, out_dir, seed):
        """CLI argument lists of one round, in order."""
        if self.kind == SCAN:
            return [["avalanche-stats", "--config", str(ini)]]
        return [["run", "--config", str(ini)],
                ["walk-stats", "--config", str(ini),
                 "--run", str(out_dir / self.record_name(seed))]]


WORKLOADS = {w.name: w for w in (
    # configs/rt_lattice_avalanches.ini at 1/10 of its steps
    Workload(
        name="rt32_scan",
        kind=SCAN, base_seed=11, total_steps=100_000, transient_steps=10_000,
        body="""
[topology]
kind = corner
corner = RT
L = 32

[weights]
scheme = fixed
a = 0.25

[analysis]
fit_min = 10
fit_max = 1000
"""),
    # configs/er_avalanches.ini at 1/10 of its steps; left out of
    # BENCHMARK.json because its cost follows the random graph each seed
    # draws (see README)
    Workload(
        name="er100_scan",
        kind=SCAN, base_seed=1, total_steps=100_000, transient_steps=10_000,
        body="""
[topology]
kind = er_embedded
n = 100
alpha = 0.05

[weights]
scheme = uniform

[analysis]
fit_min = 10
fit_max = 1000
fit_t_min = 10
fit_t_max = 100
"""),
    # configs/rt_walk.ini at 1/10 of its steps, checkpointing 10 times
    Workload(
        name="rt100_walk",
        kind=WALK, base_seed=5, total_steps=60_000, transient_steps=10_000,
        checkpoint_every=10_000,
        body="""
[topology]
kind = corner
corner = RT
L = 100

[weights]
scheme = fixed
a = 0.5

[analysis]
distance_mode = raw
distance_metric = norm
"""),
)}
