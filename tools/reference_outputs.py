"""Check the reference commands' outputs against their recorded digests.

Runs the thirteen reference commands in a temporary directory, in order:
the four `configs/*.ini` commands; `avalanche-stats` on
`rt_lattice_avalanches.ini` with `--f0-quantile 0.01`, with `--f0 -0.0047`
and with `--f0 -1` (which finds no avalanches and falls back to a scan);
`run` on `rt_walk.ini` (a 2-D record and its checkpoint) and `walk-stats
--run` on the record it wrote; `run` on `ring_decay.ini` (a 1-D record)
and `walk-stats --run` on that record; and `run` on
`rt_lattice_avalanches.ini` with `--f0 -0.0047` (a record with an activity
column) and `avalanche-stats --run` on that record.  It hashes every file they
write (keyed by its path under `out/`), and each command's stdout with its
exit code appended (`out_<name>.stdout`) and its stderr
(`out_<name>.stderr`), and compares the digests with
`reference_outputs.json` beside this script.

    python tools/reference_outputs.py           # exit 1 on any difference
    python tools/reference_outputs.py --write   # record the digests anew

It runs from the repository's `src/`, with nothing installed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("reference_outputs.json")
COMMANDS = {
    "ring_decay": ["decay-check", "--config", "configs/ring_decay.ini"],
    "rt_walk": ["walk-stats", "--config", "configs/rt_walk.ini"],
    "rt_lattice_avalanches": ["avalanche-stats", "--config", "configs/rt_lattice_avalanches.ini"],
    "er_avalanches": ["avalanche-stats", "--config", "configs/er_avalanches.ini"],
    "rt_quantile": ["avalanche-stats", "--config", "configs/rt_lattice_avalanches.ini",
                    "--f0-quantile", "0.01", "--out", "out/rt_quantile"],
    "rt_f0": ["avalanche-stats", "--config", "configs/rt_lattice_avalanches.ini",
              "--f0", "-0.0047", "--out", "out/rt_f0"],
    "rt_f0_fallback": ["avalanche-stats", "--config", "configs/rt_lattice_avalanches.ini",
                       "--f0", "-1", "--out", "out/rt_f0_fallback"],
    "rt_run": ["run", "--config", "configs/rt_walk.ini", "--out", "out/rt_run"],
    "rt_walk_run": ["walk-stats", "--run", "out/rt_run/run_seed5.txt",
                    "--out", "out/rt_walk_run"],
    "ring_run": ["run", "--config", "configs/ring_decay.ini", "--out", "out/ring_run"],
    "ring_walk_run": ["walk-stats", "--run", "out/ring_run/run_seed55.txt",
                      "--out", "out/ring_walk_run"],
    "rt_f0_run": ["run", "--config", "configs/rt_lattice_avalanches.ini",
                  "--f0", "-0.0047", "--out", "out/rt_f0_run"],
    "rt_f0_recorded": ["avalanche-stats", "--run", "out/rt_f0_run/run_seed11.txt",
                       "--out", "out/rt_f0_recorded"],
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digests():
    """{name: sha256} of every output of the reference commands."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in COMMANDS.items():
            args = [str(ROOT / a) if a.startswith("configs/") else a for a in args]
            done = subprocess.run([sys.executable, "-m", "socmarket.cli", *args],
                                  cwd=tmp, env=env, capture_output=True)
            found[f"out_{name}.stdout"] = sha256(done.stdout + b"\nexit %d" % done.returncode)
            found[f"out_{name}.stderr"] = sha256(done.stderr)
        out = Path(tmp) / "out"
        for path in sorted(out.rglob("*")):
            if path.is_file():
                found[path.relative_to(out).as_posix()] = sha256(path.read_bytes())
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"record the digests in {DIGESTS.name} instead of checking them")
    args = parser.parse_args(argv)
    found = digests()
    if args.write:
        DIGESTS.write_text(json.dumps({"commands": COMMANDS, "files": found}, indent=1) + "\n")
        print(f"wrote {len(found)} digests to {DIGESTS}")
        return 0
    want = json.loads(DIGESTS.read_text())["files"]
    bad = [f"{name}: missing" for name in sorted(want.keys() - found.keys())]
    bad += [f"{name}: not in {DIGESTS.name}" for name in sorted(found.keys() - want.keys())]
    bad += [f"{name}: differs" for name in sorted(want.keys() & found.keys())
            if want[name] != found[name]]
    for line in bad:
        print(line)
    print(f"{len(found)} outputs, {len(bad)} differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
