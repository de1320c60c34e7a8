"""Building, caching and loading the incremental engine's C kernel."""

import numpy as np
import pytest

import socmarket as sm
from socmarket import _kernel


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty kernel cache, with no library loaded in this process."""
    path = tmp_path / "cache"
    monkeypatch.setattr(_kernel, "CACHE", path)
    monkeypatch.setattr(_kernel, "_lib", None)
    return path


def cached_library(cache):
    return cache / _kernel.library_name(_kernel.SOURCE.read_bytes())


def check_engine():
    """One incremental price cut, audited against evaluate_market."""
    net = sm.build_corner_lattice(6, "RT")
    wts = sm.assign_weights_fixed(net, 0.25)
    prices = 10.0 + np.random.default_rng(1).random(net.n_agents)
    eng = sm.MarketEngine(net, wts, prices)
    eng.apply_price_change(7, prices[7] * 0.99)
    assert eng.touched_last == len(sm.affected_sets(net, 7).profit)
    eng.audit()


def test_missing_library_is_built(cache):
    assert not cached_library(cache).exists()
    check_engine()
    assert cached_library(cache).is_file()
    assert [p.name for p in cache.iterdir()] == [cached_library(cache).name]


@pytest.mark.parametrize("damage", ["truncated", "corrupt", "empty"])
def test_damaged_library_is_rebuilt(cache, damage):
    # built but not loaded: a library this process has mapped must not be
    # rewritten in place, and a second load of its path returns the first
    lib = cached_library(cache)
    cache.mkdir()
    _kernel._build(_kernel.compiler(), lib)
    whole = lib.read_bytes()
    if damage == "truncated":
        # loading an ELF file cut here crashes the process with SIGBUS
        lib.write_bytes(whole[:4000])
    elif damage == "corrupt":
        lib.write_bytes(whole[:100] + bytes(len(whole) - 100))
    else:
        lib.write_bytes(b"")
    check_engine()
    assert _kernel._intact(lib)


def test_source_edit_changes_the_cache_name():
    source = _kernel.SOURCE.read_bytes()
    name = _kernel.library_name(source)
    assert name.startswith("_kernel-") and name.endswith(".so")
    assert _kernel.library_name(source) == name
    assert _kernel.library_name(source + b"\n/* edited */\n") != name
    assert _kernel.library_name(source.replace(b"0.0", b"0.00", 1)) != name


def test_unwritable_cache_builds_for_this_process(tmp_path, monkeypatch):
    # a cache path below a regular file cannot be created
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(_kernel, "CACHE", tmp_path / "file" / "cache")
    monkeypatch.setattr(_kernel, "_lib", None)
    check_engine()
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_no_compiler(cache, monkeypatch):
    monkeypatch.setattr(_kernel, "compiler", lambda: None)
    net = sm.build_ring(12)
    wts = sm.assign_weights_fixed(net, 0.4)
    cfg = sm.SimConfig(total_steps=50, transient_steps=0, seed=1)
    with pytest.raises(RuntimeError, match="needs a C compiler.*engine = full"):
        sm.Simulation(net, wts, cfg, engine="incremental")
    rec = sm.Simulation(net, wts, cfg, engine="full").run()
    assert len(rec.loser_index) == 50
    assert not cache.exists()


@pytest.mark.parametrize("agent", [-1, 36])
def test_agent_out_of_range_is_rejected_before_the_kernel(agent):
    net = sm.build_corner_lattice(6, "RT")
    wts = sm.assign_weights_fixed(net, 0.25)
    eng = sm.MarketEngine(net, wts, np.full(net.n_agents, 10.0))
    with pytest.raises(IndexError):
        eng.apply_price_change(agent, 9.9)
    assert np.all(eng.p == 10.0)
    eng.audit()
