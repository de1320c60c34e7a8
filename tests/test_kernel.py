"""Building, caching and loading the incremental engine's C kernel, and
its loser tree."""

import ctypes
import io
import re
import subprocess

import numpy as np
import pytest

import socmarket as sm
from socmarket import _kernel, dynamics


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


def test_build_removes_libraries_of_earlier_sources(cache):
    cache.mkdir()
    (cache / _kernel.library_name(b"/* an earlier kernel */")).write_bytes(b"stale")
    check_engine()
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


def test_no_compiler(cache, monkeypatch, tmp_path):
    compiler = _kernel.compiler
    monkeypatch.setattr(_kernel, "compiler", lambda: None)
    net = sm.build_ring(12)
    wts = sm.assign_weights_fixed(net, 0.4)
    cfg = sm.SimConfig(total_steps=50, transient_steps=0, seed=1)
    with pytest.raises(RuntimeError, match="needs a C compiler.*engine = full"):
        sm.Simulation(net, wts, cfg, engine="incremental")
    rec = sm.Simulation(net, wts, cfg, engine="full").run(activity_f0=-0.004)
    assert len(rec.loser_index) == 50
    # repr and np.loadtxt write and read the record
    rec.save_text(tmp_path / "python.txt")
    back = sm.RunRecord.load_text(tmp_path / "python.txt")
    for name in ("loser_index", "min_profit", "mean_price", "renorm_flags", "activity"):
        assert np.array_equal(getattr(back, name), getattr(rec, name))
    empty = bytes(dynamics.format_rows([np.zeros(0), np.zeros(0, np.int64)]))
    assert not cache.exists()
    # the kernel writes the same bytes
    monkeypatch.setattr(_kernel, "compiler", compiler)
    rec.save_text(tmp_path / "kernel.txt")
    assert _kernel._lib is not None
    assert (tmp_path / "kernel.txt").read_bytes() == (tmp_path / "python.txt").read_bytes()
    assert bytes(dynamics.format_rows([np.zeros(0), np.zeros(0, np.int64)])) == empty == b""


@pytest.mark.parametrize("agent", [-1, 36])
def test_agent_out_of_range_is_rejected_before_the_kernel(agent):
    net = sm.build_corner_lattice(6, "RT")
    wts = sm.assign_weights_fixed(net, 0.25)
    eng = sm.MarketEngine(net, wts, np.full(net.n_agents, 10.0))
    with pytest.raises(IndexError):
        eng.apply_price_change(agent, 9.9)
    assert np.all(eng.p == 10.0)
    eng.audit()


@pytest.mark.parametrize("extra", [(), ("-U__SIZEOF_INT128__",)], ids=["default", "no-int128"])
def test_kernel_builds_without_warnings(tmp_path, extra):
    cc = _kernel.compiler()
    if cc is None:
        pytest.skip("no C compiler")
    done = subprocess.run(
        [cc, *_kernel.FLAGS, *extra, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernel.so"), str(_kernel.SOURCE), "-lm"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # without unsigned __int128 the float writer declines every float
    out, col = np.empty(32, np.uint8), np.array([1.5])
    size = _kernel._open(tmp_path / "kernel.so").socm_write_rows(
        out.ctypes.data, 1, 1, (ctypes.c_void_p * 1)(col.ctypes.data), b"f", ord(" "))
    assert size == (-1 if extra else 4)


# the ctypes type of each C member type the kernel's structs use
C_TYPES = {"double": ctypes.c_double, "int64_t": ctypes.c_int64}


def c_struct_fields(source, name):
    """(member, ctypes type) pairs of `typedef struct { ... } name;` in C
    source, in declaration order; every pointer maps to c_void_p."""
    body = re.search(r"typedef struct \{([^}]*)\} " + name + ";", source).group(1)
    fields = []
    for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        first, *rest = decl.split(",")
        *base, first = first.split()
        base = [word for word in base if word != "const"]
        for declarator in (first, *rest):
            pointer = "*" in declarator
            fields.append((declarator.strip().lstrip("*"),
                           ctypes.c_void_p if pointer else C_TYPES[" ".join(base)]))
    return fields


def test_ctypes_struct_mirrors_the_kernel():
    # a field added, dropped or moved on one side alone makes the kernel
    # read the wrong member, or past the end of the struct
    assert _kernel.Market._fields_ == c_struct_fields(_kernel.SOURCE.read_text(), "market")


class LoserTree:
    """The kernel's loser tree over a profit vector of its own."""

    def __init__(self, profit):
        self.lib = _kernel.load()
        self.profit = np.array(profit, dtype=np.float64)
        n = len(self.profit)
        size = 1 << (n - 1).bit_length()
        self.tree = np.empty(2 * size, dtype=np.int32)
        self.market = _kernel.Market(profit=self.profit.ctypes.data,
                                     tree=self.tree.ctypes.data, n=n, size=size)
        self.lib.socm_tree_build(ctypes.byref(self.market))

    def set(self, i, value):
        self.profit[i] = value
        self.repair([i])

    def repair(self, leaves):
        """Repair the tree after the profits of `leaves` changed."""
        leaves = np.array(leaves, dtype=np.int32)
        self.lib.socm_tree_repair(ctypes.byref(self.market), leaves.ctypes.data, len(leaves))

    @property
    def root(self):
        return int(self.tree[1])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 1000])
def test_loser_tree_root_is_argmin(n):
    rng = np.random.default_rng(n)
    # few distinct values, so that minima repeat; -0.0 equals 0.0
    values = np.array([-1.0, -0.0, 0.0, 0.5, 2.0, -np.inf, np.inf])
    tree = LoserTree(rng.choice(values[:5], n))
    assert tree.root == np.argmin(tree.profit)
    for _ in range(40 * n):
        i = int(rng.integers(n))
        tree.set(i, values[rng.integers(len(values))] if rng.random() < 0.9 else np.nan)
        assert tree.root == np.argmin(tree.profit)
        if rng.random() < 0.1:  # clear the NaNs
            nans = np.flatnonzero(np.isnan(tree.profit))
            for j in nans[rng.permutation(len(nans))]:
                tree.set(int(j), rng.choice(values))
            assert tree.root == np.argmin(tree.profit)
    tree.lib.socm_tree_build(ctypes.byref(tree.market))
    assert tree.root == np.argmin(tree.profit)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 1000])
@pytest.mark.parametrize("order", ["ascending", "descending", "repeated", "single"])
def test_repair_over_leaves_equals_a_rebuilt_tree(n, order):
    # each leaf climbs only to where its path meets the next leaf's; in any
    # order of the leaves, and with repeats, every node ends up as a rebuilt
    # tree's, not only the root
    rng = np.random.default_rng(n)
    values = np.array([-1.0, -0.0, 0.0, 0.5, 2.0, -np.inf, np.inf, np.nan])
    tree = LoserTree(rng.choice(values[:5], n))
    for _ in range(200):
        if order == "single":
            leaves = [int(rng.integers(n))]
        else:
            leaves = np.unique(rng.integers(n, size=int(rng.integers(1, 40))))
            if order == "descending":
                leaves = leaves[::-1]
            elif order == "repeated":
                leaves = rng.permutation(np.repeat(leaves, rng.integers(1, 4, leaves.size)))
        tree.profit[leaves] = rng.choice(values, len(leaves), p=[0.14] * 7 + [0.02])
        tree.repair(leaves)
        repaired = tree.tree[1:].copy()
        tree.lib.socm_tree_build(ctypes.byref(tree.market))
        assert np.array_equal(tree.tree[1:], repaired)
        assert tree.root == np.argmin(tree.profit)


def test_loser_tree_ties_and_nan():
    tree = LoserTree([0.0, -0.0, 1.0, -0.0, 0.0])
    assert tree.root == 0  # -0.0 == 0.0: the lowest index wins
    tree.set(4, -1.0)
    tree.set(2, -1.0)
    assert tree.root == 2
    tree.set(3, np.nan)
    tree.set(1, np.nan)
    assert tree.root == 1  # the first NaN, as np.argmin
    tree.set(1, -5.0)
    assert tree.root == 3
    tree.set(3, 7.0)
    assert tree.root == 1


# the kernel repairs the tree leaf by leaf on sparse plans (the ring of
# 200, RT32) and replays every match on dense ones (ER100, F6)
@pytest.mark.parametrize("make", [
    lambda rng: sm.build_ring(200),
    lambda rng: sm.build_corner_lattice(32, "RT"),
    lambda rng: sm.build_er_embedded(100, 0.05, rng),
    lambda rng: sm.build_f_lattice(6),
], ids=["ring200", "rt32", "er100", "f6"])
def test_engine_tree_follows_every_update(make):
    rng = np.random.default_rng(5)
    net = make(rng)
    wts = sm.assign_weights_uniform(net, rng)
    eng = sm.MarketEngine(net, wts, 10.0 + rng.random(net.n_agents))
    assert eng._tree[1] == np.argmin(eng.profit)
    # cuts of any agent, not only of the loser, move profits all over;
    # every other cut first shuffles each phase of the agent's plan row, so
    # any leaf can come last; every node of the repaired tree is that of a
    # rebuilt one
    for k in range(300):
        c = int(rng.integers(net.n_agents))
        if k % 2 == 0:
            for j in range(4 * c, 4 * c + 4):
                phase = eng._plan[eng._plan_ptr[j]:eng._plan_ptr[j + 1]]
                phase[...] = rng.permutation(phase)
        eng.apply_price_change(c, eng.p[c] * (1.0 - 0.2 * rng.random()))
        assert eng._tree[1] == np.argmin(eng.profit)
        repaired = eng._tree.copy()
        eng._build_tree()
        assert np.array_equal(eng._tree, repaired)
    profit = eng.profit.copy()
    profit[net.n_agents // 2] = profit.min() - 1.0
    eng.profit = profit
    assert eng._tree[1] == net.n_agents // 2
    eng.renormalize()
    assert eng._tree[1] == np.argmin(eng.profit)


def kernel_repr(lib, x):
    """The kernel's text for the float x, or None where it declines."""
    value = ctypes.c_double(x)
    out = ctypes.create_string_buffer(32)
    size = lib.socm_write_rows(out, 1, 1, (ctypes.c_void_p * 1)(ctypes.addressof(value)),
                               b"f", ord(" "))
    return None if size < 0 else out.raw[:size - 1].decode()


def formatted(values):
    """(value, kernel text) of every value the kernel formats; every other
    one it must decline."""
    lib = _kernel.load()
    pairs = [(x, kernel_repr(lib, x)) for x in np.asarray(values, dtype=np.float64).tolist()]
    return [(x, text) for x, text in pairs if text is not None]


def short_decimals(rng, n):
    """n decimals of 1-7 significant digits from 1e-6 to 1e16, each with its
    neighbours one ulp below and above."""
    digits = rng.integers(1, 10 ** rng.integers(1, 8, n))
    values = np.array([float(f"{d}e{e}") for d, e in zip(digits, rng.integers(-12, 10, n))])
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@pytest.mark.parametrize("draw", ["bit_patterns", "log_uniform", "short_decimals"])
def test_float_formatter_matches_repr(draw):
    rng = np.random.default_rng(["bit_patterns", "log_uniform", "short_decimals"].index(draw))
    n = 100_000
    if draw == "bit_patterns":
        values = rng.integers(0, 2 ** 64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    elif draw == "log_uniform":
        values = 10.0 ** rng.uniform(-6, 17, n) * rng.choice([-1.0, 1.0], n)
    else:
        values = short_decimals(rng, n // 3)
    done = formatted(values)
    assert [text for _, text in done] == [repr(x) for x, _ in done]
    # the fast path takes every float in [1e-4, 1e15) but an exact tie,
    # which random draws almost never are
    inside = (np.abs(values) >= 1e-4) & (np.abs(values) < 1e15)
    assert len(done) >= 0.99 * inside.sum()


def test_float_formatter_edges():
    # every power of two the fast path can meet, and its neighbours: the
    # gap below a power of two is half the gap above
    powers = [2.0 ** e for e in range(-20, 60)]
    near = [float(np.nextafter(p, d)) for p in powers for d in (0.0, np.inf)]
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 0.5, 2.5,
             1125899906842624.25, 999999999999999.9, 0.1, 10.5, -1.25,
             *powers, *near]
    for x in (1e-4, 1e15):
        edges += [x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, np.inf))]
    edges += [-x for x in edges]
    done = formatted(edges)
    assert [text for _, text in done] == [repr(x) for x, _ in done]
    taken = {x for x, _ in done}
    assert not taken & {np.inf, 5e-324, 1e15, 1125899906842624.25, float(np.nextafter(1e-4, 0))}
    assert {0.0, 0.5, 2.5, 0.1, 10.5, -1.25, 1e-4, 999999999999999.9} <= taken
    assert {p for p in powers if 1e-4 <= p < 1e15} <= taken
    assert {"0.0", "-0.0"} <= {text for _, text in done}


def test_decimal_reader_matches_loadtxt():
    # repr's output, decimals of 1-20 digits with up to 22 fraction digits,
    # and integers, read to the same bits as np.loadtxt reads them
    rng = np.random.default_rng(7)
    n = 30_000
    values = np.concatenate([10.0 ** rng.uniform(-6, 17, n), short_decimals(rng, n // 3)])
    tokens = [repr(x) for x in (values * rng.choice([-1.0, 1.0], len(values))).tolist()]
    for _ in range(n):
        whole = "".join(map(str, rng.integers(0, 10, rng.integers(1, 17))))
        frac = "".join(map(str, rng.integers(0, 10, rng.integers(0, 23))))
        tokens.append(("-" if rng.random() < 0.5 else "") + whole + ("." + frac if frac else ""))
    tokens += ["0", "-0", "0.0", "-0.0", "nan", "inf", "-inf", "1e-05", "9007199254740993",
               "562949953421312.0625", "0.00010000000000000000479"]
    body = ("\n".join(tokens) + "\n").encode()
    got = np.empty((len(tokens), 1))
    assert _kernel.load().socm_read_rows(body, len(body), len(tokens), 1, got.ctypes.data) == 0
    ref = np.loadtxt(io.BytesIO(body), ndmin=2)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
