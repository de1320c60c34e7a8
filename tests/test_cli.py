import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import socmarket as sm
from socmarket import cli

ROOT = Path(__file__).resolve().parents[1]


def write_config(path, text):
    path.write_text(text)
    return str(path)


def record_provenance(path):
    """(config hash, seed) named by a run record's header."""
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, *values = line[1:].split()
            meta[key] = values
    return meta["config_hash"][0], int(meta["config"][1])


RING_CFG = """
[topology]
kind = ring
n = 24

[sim]
total_steps = 4000
transient_steps = 500
seed = 3

[analysis]
f0 = -0.005

[output]
dir = {out}
checkpoint_every = 2000
"""

ER_CFG = """
[topology]
kind = er_embedded
n = 30
alpha = 0.1

[weights]
scheme = uniform

[sim]
total_steps = 3000
transient_steps = 400
seed = 7

[output]
dir = {out}
"""

RT16_CFG = """
[topology]
kind = corner
corner = RT
L = 16

[weights]
a = 0.25

[sim]
total_steps = 40000
transient_steps = 2000
seed = 3

[analysis]
fit_min = 2
fit_max = 400
{extra}

[output]
dir = {out}
"""


class TestConfigParsing:
    def test_missing_file(self):
        assert cli.main(["run", "--config", "/nonexistent.ini"]) == 1

    def test_missing_topology_section(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[sim]\nseed = 1\n")
        assert cli.main(["run", "--config", cfg]) == 1

    @pytest.mark.parametrize("text, message", [
        ("[topology]\nkind = ring\nn = 5\n[topology]\nn = 6\n",
         "section 'topology' already exists"),
        ("kind = ring\n[topology]\nn = 5\n", "File contains no section headers."),
    ], ids=["repeated_section", "no_section_header"])
    def test_unparsable_file_is_a_config_error(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_invalid_lattice_size(self, tmp_path):
        # validation checks fields only; the builder's range check fails
        # the one real build, still as a config error and before any output
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini",
                           "[topology]\nkind = manhattan\nL = 5\n")
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("topology_text, key", [
        ("kind = corner\ncorner = RT", "L"),
        ("kind = ring", "n"),
        ("kind = er_embedded\nn = 30", "alpha"),
    ], ids=["corner", "ring", "er_embedded"])
    def test_missing_topology_key(self, tmp_path, capsys, topology_text, key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", f"[topology]\n{topology_text}\n")
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"needs {key}" in err
        assert not out.exists()

    @pytest.mark.parametrize("analysis, args", [
        ("f0 = nan\n", []), ("f0 = inf\n", []), ("", ["--f0", "nan"]), ("", ["--f0=-inf"])],
        ids=["nan", "inf", "option_nan", "option_inf"])
    def test_f0_not_finite_is_refused(self, tmp_path, capsys, analysis, args):
        cfg = write_config(tmp_path / "c.ini",
                           f"[topology]\nkind = ring\nn = 10\n[analysis]\n{analysis}")
        assert cli.main(["avalanche-stats", "--config", cfg, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: f0 must be finite, got ")

    @pytest.mark.parametrize("text, message", [
        ("[topology]\nkind = torus\nn = 10\n", "unknown network kind 'torus'"),
        ("[topology]\nkind = ring\nn = 10\n[weights]\nscheme = equal\n",
         "unknown weight scheme 'equal'"),
        ("[topology]\nkind = ring\nn = 10\n[analysis]\ndistance_mode = wrapped\n",
         "unknown distance_mode 'wrapped'"),
        ("[topology]\nkind = ring\nn = 10\n[analysis]\ndistance_metric = max\n",
         "unknown distance_metric 'max'"),
        ("[topology]\nkind = ring\nn = 10\n[output]\nengine = fast\n",
         "unknown engine 'fast'"),
        ("[topology]\nkind = ring\nn = 10\n[sim]\nprice_floor = inf\n",
         "price_floor must be positive and finite, got inf"),
    ], ids=["kind", "scheme", "distance_mode", "distance_metric", "engine", "price_floor"])
    def test_unknown_choices_rejected(self, tmp_path, capsys, text, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("corner, kind", [("", "corner_rt"), ("corner = lb\n", "corner_lb")],
                             ids=["default", "lowercase"])
    def test_corner_key_picks_the_lattice(self, tmp_path, corner, kind):
        cfg = write_config(tmp_path / "c.ini", f"[topology]\nkind = corner\nL = 4\n{corner}")
        net, _, _ = cli.build_experiment(cli.load_config(cfg).validate(), 0)
        want = sm.build_corner_lattice(4, kind[-2:])
        assert net.kind == kind
        assert np.array_equal(net.sup_idx, want.sup_idx)

    def test_corner_is_the_one_spelling_of_a_corner_lattice(self, tmp_path, capsys):
        # kind = corner with corner = LT; corner_lt is not a second name
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", "[topology]\nkind = corner_lt\nL = 4\n")
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: unknown network kind 'corner_lt'\n"
        assert not out.exists()

    def test_inverted_duration_window(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           "[topology]\nkind = ring\nn = 10\n"
                           "[analysis]\nfit_t_min = 100\nfit_t_max = 10\n")
        with pytest.raises(sm.ConfigError, match="fit_t_min < fit_t_max"):
            cli.load_config(cfg).validate()
        assert cli.main(["avalanche-stats", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 1

    def test_invalid_eta(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           "[topology]\nkind = ring\nn = 10\n"
                           "[sim]\neta_max = 2.0\n")
        assert cli.main(["run", "--config", cfg]) == 1

    def test_both_thresholds_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           "[topology]\nkind = ring\nn = 10\n"
                           "[analysis]\nf0 = -0.01\nf0_quantile = 0.05\n")
        assert cli.main(["run", "--config", cfg]) == 1

    @pytest.mark.parametrize("text, message", [
        ("[sim]\ntotal_step = 3000\n", "unknown key [sim] total_step"),
        ("[sim]\nTotal_Step = 3000\n", "unknown key [sim] total_step"),
        ("[simulation]\nseed = 1\n", "unknown section [simulation]"),
        ("[Sim]\nseed = 1\n", "unknown section [Sim]"),
        ("[DEFAULT]\nseed = 1\n", "unknown key [DEFAULT] seed"),
        ("[output]\ndir = x\nworkers = 2\n", "unknown key [output] workers"),
    ], ids=["typo", "typo_mixed_case", "section", "section_case", "default", "other_section"])
    def test_unknown_names_rejected(self, tmp_path, capsys, text, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", "[topology]\nkind = ring\nn = 10\n" + text)
        with pytest.raises(sm.ConfigError) as exc:
            cli.load_config(cfg)
        assert str(exc.value) == message
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_key_case_follows_configparser(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           "[topology]\nKIND = corner\nl = 4\n[sim]\nSeed = 2\n")
        ecfg = cli.load_config(cfg)
        assert (ecfg.kind, ecfg.L, ecfg.sim.seed) == ("corner", 4, 2)

    @pytest.mark.parametrize("sim, output, argv, message", [
        ("", "", ["--seed", "-3"], "seed must be >= 0, got -3"),
        ("seed = -1\n", "", [], "seed must be >= 0, got -1"),
        ("", "checkpoint_every = -5\n", [], "checkpoint_every must be >= 0, got -5"),
    ], ids=["seed_flag", "seed_key", "checkpoint_every"])
    def test_negative_seed_or_interval_is_a_config_error(self, tmp_path, capsys, sim,
                                                          output, argv, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", "[topology]\nkind = ring\nn = 10\n"
                           f"[sim]\ntotal_steps = 100\ntransient_steps = 10\n{sim}"
                           f"[output]\n{output}")
        assert cli.main(["run", "--config", cfg, "--out", str(out), *argv]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_needs_config_or_run(self):
        assert cli.main(["run"]) == 1

    def test_run_needs_config(self, tmp_path):
        # --run names a record to analyze; it cannot stand in for a config
        assert cli.main(["run", "--run", "/nonexistent.txt",
                         "--out", str(tmp_path)]) == 1
        assert not any(tmp_path.iterdir())

    def test_defaults_follow_protocol(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[topology]\nkind = ring\nn = 10\n")
        ecfg = cli.load_config(cfg)
        assert ecfg.sim.total_steps == 1_000_000
        assert ecfg.sim.transient_steps == 100_000
        assert ecfg.sim.price_floor == 10.0
        assert ecfg.sim.eta_max == 0.01
        assert ecfg.fit_min == 10.0 and ecfg.fit_max == 1000.0

    @pytest.mark.parametrize("name, digest", [
        ("er_avalanches", "3a111dbe3ec59a79"),
        ("ring_decay", "d7551432764e9839"),
        ("rt_lattice_avalanches", "31cd49c776ba204b"),
        ("rt_walk", "e2901d882c0e9e51"),
    ])
    def test_reference_config_hashes(self, name, digest):
        # outputs carry the hash, so a change of loader must not move it
        ecfg = cli.load_config(str(ROOT / "configs" / f"{name}.ini"))
        assert ecfg.digest() == digest

    def test_all_defaults_hash(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[topology]\nkind = ring\nn = 5\n")
        assert cli.load_config(cfg).digest() == "4d2496170cc5ca1e"

    @pytest.mark.parametrize("text, message", [
        ("[topology]\nkind = ring\n[sim]\ntotal_steps = 1e5\n",
         "[sim] total_steps: invalid literal for int() with base 10: '1e5'"),
        # a missing kind first, then [sim], then the other sections
        ("[topology]\nn = 5\n[sim]\neta_max = x\n",
         "[topology] kind is required"),
        ("[topology]\nkind = ring\nn = y\n[sim]\neta_max = x\n",
         "[sim] eta_max: could not convert string to float: 'x'"),
        ("[topology]\nkind = ring\nn = y\n[ensemble]\nworkers = z\n",
         "[topology] n: invalid literal for int() with base 10: 'y'"),
    ], ids=["bad_cast", "missing_kind", "sim_first", "field_order"])
    def test_load_errors(self, tmp_path, text, message):
        cfg = write_config(tmp_path / "c.ini", text)
        with pytest.raises(sm.ConfigError) as exc:
            cli.load_config(cfg)
        assert str(exc.value) == message


class TestRunCommand:
    def test_writes_records_manifest_summary(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", RING_CFG.format(out=out))
        assert cli.main(["run", "--config", cfg]) == 0
        assert (out / "run_seed3.txt").exists()
        assert (out / "ckpt_seed3.bin").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [3]
        assert "config_hash" in manifest
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"][0]["seed"] == 3
        rec = sm.RunRecord.load_text(out / "run_seed3.txt")
        assert rec.total_steps == 4000
        assert rec.activity is not None  # f0 configured

    def test_ensemble_seeds(self, tmp_path):
        out = tmp_path / "out"
        base = RING_CFG.format(out=out) + "\n[ensemble]\nn_seeds = 3\n"
        cfg = write_config(tmp_path / "c.ini", base)
        assert cli.main(["run", "--config", cfg]) == 0
        for seed in (3, 4, 5):
            assert (out / f"run_seed{seed}.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [3, 4, 5]

    def test_parallel_workers_match_serial(self, tmp_path):
        out_s, out_p = tmp_path / "serial", tmp_path / "par"
        base = RING_CFG + "\n[ensemble]\nn_seeds = 2\nworkers = {w}\n"
        cfg_s = write_config(tmp_path / "s.ini", base.format(out=out_s, w=1))
        cfg_p = write_config(tmp_path / "p.ini", base.format(out=out_p, w=2))
        assert cli.main(["run", "--config", cfg_s]) == 0
        assert cli.main(["run", "--config", cfg_p]) == 0
        for seed in (3, 4):
            a = (out_s / f"run_seed{seed}.txt").read_bytes()
            b = (out_p / f"run_seed{seed}.txt").read_bytes()
            assert a == b

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_config(tmp_path / "c1.ini", RING_CFG.format(out=out1))
        cfg2 = write_config(tmp_path / "c2.ini", RING_CFG.format(out=out2))
        assert cli.main(["run", "--config", cfg1]) == 0
        assert cli.main(["run", "--config", cfg2]) == 0
        assert (out1 / "run_seed3.txt").read_bytes() == \
            (out2 / "run_seed3.txt").read_bytes()

    def test_seed_override(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", RING_CFG.format(out=out))
        assert cli.main(["run", "--config", cfg, "--seed", "99"]) == 0
        assert (out / "run_seed99.txt").exists()

    def test_streamed_record_matches_the_whole_run(self, tmp_path, monkeypatch):
        # 700-step blocks: the transient (500 steps) and the last checkpoint
        # (at 3 300, every 1 100 steps) end inside one; prices start near 1
        # and are renormalised whenever their mean falls below 0.8
        out = tmp_path / "out"
        text = RING_CFG.format(out=out).replace(
            "seed = 3", "seed = 3\nprice_floor = 0.5\nrenorm_threshold = 0.8").replace(
            "checkpoint_every = 2000", "checkpoint_every = 1100")
        cfg = write_config(tmp_path / "c.ini", text)
        monkeypatch.setattr(sm.Simulation, "CHUNK", 700)
        assert cli.main(["run", "--config", cfg]) == 0
        ecfg = cli.load_config(cfg)
        net, wts, sim_cfg = cli.build_experiment(ecfg, 3)
        ref = sm.Simulation(net, wts, sim_cfg).run(
            activity_f0=ecfg.f0, checkpoint_path=tmp_path / "ref.bin", checkpoint_every=1100)
        ref.config_hash = ecfg.digest()
        ref.save_text(tmp_path / "ref.txt")
        assert (out / "run_seed3.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
        assert (out / "ckpt_seed3.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()
        assert sm.load_checkpoint(tmp_path / "ref.bin")[0] == 3300
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"runs": [{
            "seed": 3, "record": "run_seed3.txt",
            "final_mean_price": float(ref.mean_price[-1]),
            "post_min_profit_mean": float(ref.post(ref.min_profit).mean()),
            "renorm_events": int(ref.renorm_flags.sum())}]}
        assert summary["runs"][0]["renorm_events"] > 1

    def test_run_memory_grows_by_the_kept_column(self, tmp_path):
        # an RT32 run at 50 000 and at 200 000 steps: the peak grows by the
        # 8-byte post-transient min_profit column, not by the record's
        # columns (21 bytes a step)
        peaks = []
        sm.Simulation(sm.build_ring(3), sm.assign_weights_fixed(sm.build_ring(3), 0.5),
                      sm.SimConfig(total_steps=2, transient_steps=0))  # load the kernel
        for steps in (50_000, 200_000):
            out = tmp_path / str(steps)
            cfg = write_config(tmp_path / f"{steps}.ini", f"""
[topology]
kind = corner
corner = RT
L = 32

[weights]
a = 0.25

[sim]
total_steps = {steps}
transient_steps = {steps // 10}
seed = 11

[output]
dir = {out}
""")
            tracemalloc.start()
            try:
                assert cli.main(["run", "--config", cfg]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 12 * 150_000


class TestWalkStats:
    def test_lattice_fits_written(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", f"""
[topology]
kind = corner
corner = RT
L = 16

[sim]
total_steps = 12000
transient_steps = 500
seed = 2

[output]
dir = {out}
""")
        assert cli.main(["walk-stats", "--config", cfg]) == 0
        fits = json.loads((out / "jump_fits.json").read_text())
        assert fits["kind"] == "corner_rt"
        assert fits["fitted"] is True
        assert fits["pi1"]["exponent"] > 0
        csv = (out / "jump_cumulative.csv").read_text().splitlines()
        assert csv[0].startswith("# config_hash")
        assert csv[1] == "xi,F"
        assert len(csv) > 3

    def test_er_emits_distances_only(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", ER_CFG.format(out=out))
        assert cli.main(["walk-stats", "--config", cfg]) == 0
        fits = json.loads((out / "jump_fits.json").read_text())
        assert fits["fitted"] is False
        assert "note" in fits
        assert (out / "jump_cumulative.csv").exists()

    def test_er_strict_escalates_warning(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", ER_CFG.format(out=out))
        assert cli.main(["walk-stats", "--config", cfg, "--strict"]) == 3

    def test_operates_on_recorded_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", RING_CFG.format(out=out))
        assert cli.main(["run", "--config", cfg]) == 0
        record = out / "run_seed3.txt"
        digest = hashlib.sha256(record.read_bytes()).hexdigest()
        assert cli.main(["walk-stats", "--run", str(record),
                         "--out", str(tmp_path / "w")]) == 0
        assert cli.main(["decay-check", "--run", str(record),
                         "--out", str(tmp_path / "w")]) == 0
        # analysis must not mutate the record
        assert hashlib.sha256(record.read_bytes()).hexdigest() == digest
        # without --config the outputs carry the record's provenance
        config_hash, seed = record_provenance(record)
        assert seed == 3
        for name in ("jump_fits.json", "decay_check.json"):
            out_json = json.loads((tmp_path / "w" / name).read_text())
            assert (out_json["config_hash"], out_json["seed"]) == (config_hash, seed)
        csv = (tmp_path / "w" / "jump_cumulative.csv").read_text().splitlines()
        assert csv[0] == f"# config_hash {config_hash} seed {seed}"

    def test_record_cut_before_its_column_line(self, tmp_path, capsys):
        # and a record without its n_agents line or its loser_idx column:
        # each refusal names the file and what it lacks
        net = sm.build_ring(20)
        cfg = sm.SimConfig(total_steps=20, transient_steps=0, seed=1)
        record = tmp_path / "run.txt"
        sm.run(net, sm.assign_weights_fixed(net, 0.4), cfg).save_text(record)
        data = record.read_bytes()
        for damaged, message in [
                (data[:data.index(b"\nt loser_idx ") + 1],
                 "the record ends inside its header, with no complete column line"),
                (data.replace(b"# n_agents 20\n", b""), "the record has no n_agents header line"),
                (data.replace(b" loser_idx ", b" loser "), "the record has no loser_idx column")]:
            record.write_bytes(damaged)
            assert cli.main(["walk-stats", "--run", str(record),
                             "--out", str(tmp_path / "w")]) == 2
            assert capsys.readouterr().err == f"error: {record}: {message}\n"


class TestAvalancheStats:
    def test_absolute_threshold_path(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", RING_CFG.format(out=out))
        rc = cli.main(["avalanche-stats", "--config", cfg])
        assert rc == 0
        fits = json.loads((out / "avalanche_fits.json").read_text())
        assert fits["f0"] == -0.005
        assert fits["f0_mode"] == "absolute"
        assert fits["n_events"] > 0
        assert (out / "avalanche_sizes.csv").exists()
        assert (out / "avalanche_durations.csv").exists()

    def test_absolute_threshold_matches_the_recorded_run(self, tmp_path, monkeypatch):
        # the streamed path, in 300-step chunks, finds the avalanches of the
        # activity column that `run` records
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", RING_CFG.format(out=out))
        assert cli.main(["run", "--config", cfg]) == 0
        assert cli.main(["avalanche-stats", "--run", str(out / "run_seed3.txt"),
                         "--config", cfg, "--out", str(tmp_path / "rec")]) == 0
        monkeypatch.setattr(sm.Simulation, "CHUNK", 300)
        assert cli.main(["avalanche-stats", "--config", cfg]) == 0
        recorded = json.loads((tmp_path / "rec" / "avalanche_fits.json").read_text())
        direct = json.loads((out / "avalanche_fits.json").read_text())
        assert (recorded.pop("f0_mode"), direct.pop("f0_mode")) == ("recorded", "absolute")
        assert recorded == direct and direct["n_events"] > 0
        for name in ("avalanche_sizes.csv", "avalanche_durations.csv"):
            assert (out / name).read_bytes() == (tmp_path / "rec" / name).read_bytes()

    def test_absolute_threshold_memory_follows_the_events(self, tmp_path):
        # a 200 000-step RT32 run: the command's peak stays under a quarter
        # of the (steps, 8) int32 activity that a scan used to hold
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", f"""
[topology]
kind = corner
corner = RT
L = 32

[weights]
a = 0.25

[sim]
total_steps = 200000
transient_steps = 20000
seed = 11

[output]
dir = {out}
""")
        sm.Simulation(sm.build_ring(3), sm.assign_weights_fixed(sm.build_ring(3), 0.5),
                      sm.SimConfig(total_steps=2, transient_steps=0))  # load the kernel
        tracemalloc.start()
        try:
            assert cli.main(["avalanche-stats", "--config", cfg, "--f0", "-0.0047"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fits = json.loads((out / "avalanche_fits.json").read_text())
        assert fits["f0_mode"] == "absolute" and fits["n_events"] > 4000
        assert peak < (200_000 - 20_000) * 8 * 4 / 4

    def test_recorded_run_path(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", RING_CFG.format(out=out))
        assert cli.main(["run", "--config", cfg]) == 0
        assert cli.main(["avalanche-stats", "--run", str(out / "run_seed3.txt"),
                         "--out", str(tmp_path / "av")]) == 0
        fits = json.loads((tmp_path / "av" / "avalanche_fits.json").read_text())
        assert fits["f0_mode"] == "recorded"
        config_hash, seed = record_provenance(out / "run_seed3.txt")
        assert seed == 3
        assert (fits["config_hash"], fits["seed"]) == (config_hash, seed)
        csv = (tmp_path / "av" / "avalanche_sizes.csv").read_text().splitlines()
        assert csv[0] == f"# config_hash {config_hash} seed {seed}"

    def test_scan_path_when_no_threshold_given(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", RT16_CFG.format(out=out, extra=""))
        rc = cli.main(["avalanche-stats", "--config", cfg])
        assert rc == 0
        fits = json.loads((out / "avalanche_fits.json").read_text())
        assert fits["f0_mode"] == "scan"
        assert fits["f0"] < 0

    def test_degenerate_absolute_falls_back_to_scan(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini",
                           RT16_CFG.format(out=out, extra="f0 = -9.0"))
        rc = cli.main(["avalanche-stats", "--config", cfg])
        assert rc == 0
        fits = json.loads((out / "avalanche_fits.json").read_text())
        assert fits["f0_mode"] == "scan (fallback)"
        assert fits["n_events"] > 0

    def test_failed_duration_fit_leaves_the_other_fits(self, tmp_path):
        # a duration window holding one populated bin: tau_t fails alone,
        # and the relation, which needs all three fits, is not reported
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", f"""
[topology]
kind = corner
corner = RT
L = 16

[weights]
a = 0.25

[sim]
total_steps = 60000
transient_steps = 6000
seed = 11

[analysis]
f0 = -0.0047
fit_t_min = 50
fit_t_max = 100

[output]
dir = {out}
""")
        assert cli.main(["avalanche-stats", "--config", cfg]) == 0
        fits = json.loads((out / "avalanche_fits.json").read_text())
        assert fits["tau_s"] and fits["gamma_st"]
        assert fits["tau_t"] is None
        assert fits["tau_t_error"] == "need at least 3 nonzero bins in [50, 100], found 1"
        assert "tau_s_error" not in fits and "gamma_error" not in fits
        assert fits["scaling_relation"] is None

    def test_quantile_mode(self, tmp_path):
        out = tmp_path / "out"
        body = RING_CFG.format(out=out).replace("f0 = -0.005",
                                                "f0_quantile = 0.05")
        cfg = write_config(tmp_path / "c.ini", body)
        assert cli.main(["avalanche-stats", "--config", cfg]) == 0
        fits = json.loads((out / "avalanche_fits.json").read_text())
        assert fits["f0_mode"] == "quantile(0.05)"

    @pytest.mark.parametrize("threshold,extra", [
        ("f0_quantile = 0.05", []), ("f0 = -0.005", ["--f0-quantile", "0.05"])],
        ids=["config", "option"])
    def test_quantile_run_records_its_threshold(self, tmp_path, threshold, extra):
        out = tmp_path / "out"
        body = RING_CFG.format(out=out).replace("f0 = -0.005", threshold)
        cfg = write_config(tmp_path / "c.ini", body)
        assert cli.main(["run", "--config", cfg, *extra]) == 0
        assert cli.main(["avalanche-stats", "--run", str(out / "run_seed3.txt"),
                         "--out", str(tmp_path / "rec")]) == 0
        assert cli.main(["avalanche-stats", "--config", cfg, *extra]) == 0
        recorded = json.loads((tmp_path / "rec" / "avalanche_fits.json").read_text())
        direct = json.loads((out / "avalanche_fits.json").read_text())
        assert direct["f0_mode"] == "quantile(0.05)"
        assert (recorded["f0"], recorded["n_events"]) == (direct["f0"], direct["n_events"])
        assert recorded["n_events"] > 0


class TestDecayCheck:
    def test_reports_ratio(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", f"""
[topology]
kind = ring
n = 50

[sim]
total_steps = 60000
transient_steps = 2000
seed = 1

[output]
dir = {out}
""")
        assert cli.main(["decay-check", "--config", cfg]) == 0
        res = json.loads((out / "decay_check.json").read_text())
        assert res["predicted_k"] == pytest.approx(
            sm.predicted_decay_rate(50, 0.01))
        assert 0.5 < res["ratio"] < 2.0

    def test_ratio_over_renormalisations(self, tmp_path):
        # a cut of up to 50 % on a ring of 10 renormalises 7 times in 3 000
        # steps; one line through the whole mean-price series reads 0.013
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", f"""
[topology]
kind = ring
n = 10

[sim]
eta_max = 0.5
total_steps = 3000
transient_steps = 100
seed = 3

[output]
dir = {out}
""")
        assert cli.main(["decay-check", "--config", cfg]) == 0
        res = json.loads((out / "decay_check.json").read_text())
        assert res["ratio"] == pytest.approx(0.917, abs=0.001)


class TestBuildCount:
    """Each process builds an experiment's network only where it runs it."""

    @staticmethod
    def _count_builds(monkeypatch):
        calls = []
        build = cli.build_experiment

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)
        monkeypatch.setattr(cli, "build_experiment", counting)
        return calls

    def test_run_builds_once_and_recorded_analyses_build_nothing(
            self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.ini", RING_CFG.format(out=out))
        calls = self._count_builds(monkeypatch)
        assert cli.main(["run", "--config", cfg]) == 0
        assert len(calls) == 1
        record = str(out / "run_seed3.txt")
        for cmd in ("walk-stats", "avalanche-stats", "decay-check"):
            del calls[:]
            assert cli.main([cmd, "--config", cfg, "--run", record]) == 0, cmd
            assert calls == [], cmd


class TestImports:
    # the package needs numpy alone; these check the CLI's import cost
    @staticmethod
    def _last_line(code):
        src = str(Path(sm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip().splitlines()[-1]

    def test_cli_import_leaves_scipy_unloaded(self):
        code = "import sys, socmarket.cli; print('scipy' in sys.modules)"
        assert self._last_line(code) == "False"

    def test_cli_import_leaves_process_pools_unloaded(self):
        # only `run` with workers > 1 starts a process pool
        code = ("import sys, socmarket.cli; print(sorted(m for m in sys.modules "
                "if m in ('concurrent.futures.process', 'multiprocessing')))")
        assert self._last_line(code) == "[]"

    def test_fitting_commands_leave_scipy_unloaded(self, tmp_path):
        out = tmp_path / "out"
        # a threshold and fit windows at which every line fit has data
        text = RING_CFG.format(out=out).replace(
            "f0 = -0.005", "f0 = -0.002\nfit_min = 1\nfit_t_min = 1")
        cfg = write_config(tmp_path / "c.ini", text)
        code = (
            "import sys\n"
            "from socmarket import cli\n"
            "for cmd in ('avalanche-stats', 'walk-stats', 'decay-check'):\n"
            f"    assert cli.main([cmd, '--config', {cfg!r}]) == 0\n"
            "print('scipy' in sys.modules)\n")
        assert self._last_line(code) == "False"
        # the commands did fit lines
        fits = json.loads((out / "avalanche_fits.json").read_text())
        assert fits["tau_s"] and fits["tau_t"] and fits["gamma_st"]
        assert json.loads((out / "jump_fits.json").read_text())["pi1"]
        assert json.loads((out / "decay_check.json").read_text())["fitted_k"] > 0


class TestDeterministicPipeline:
    def test_all_analysis_outputs_byte_identical(self, tmp_path):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            cfg = write_config(tmp_path / f"{tag}.ini", RING_CFG.format(out=out))
            assert cli.main(["run", "--config", cfg]) == 0
            assert cli.main(["avalanche-stats", "--config", cfg]) == 0
            assert cli.main(["walk-stats", "--config", cfg]) == 0
            assert cli.main(["decay-check", "--config", cfg]) == 0
            outs.append(out)
        names = ["run_seed3.txt", "manifest.json", "summary.json",
                 "avalanche_fits.json", "avalanche_sizes.csv",
                 "avalanche_durations.csv", "jump_fits.json",
                 "jump_cumulative.csv", "decay_check.json"]
        for name in names:
            a, b = outs[0] / name, outs[1] / name
            assert a.exists(), name
            assert a.read_bytes() == b.read_bytes(), name
