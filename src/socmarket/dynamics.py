"""Extremal market dynamics.

Each step: evaluate the market, find the agent with the least profit (the
loser), cut its price by a random factor eta in [0, eta_max), record the
step, repeat.  Simulation._advance drives these steps in pieces of at most
Simulation.CHUNK cuts, and Simulation.blocks streams their per-step arrays.
Two interchangeable engines drive the evaluation:

* full        -- market.evaluate_market over every agent each step (O(N)),
                 with the loser found by an argmin (find_loser); its steps
                 are a short Python loop, the oracle for the other engine
* incremental -- after a single price change, recompute only the affected
                 neighborhood (production and wants of the changed agent
                 and its customers; demands of that set's suppliers; trades
                 over the union; profits over the union and its customers).
                 The neighborhood depends on the network alone, so the
                 engine builds it for every agent at once (update_plan),
                 as CSR arrays that the compiled kernel (_kernel.c) reads.
                 The kernel runs a whole piece of cuts: it takes each loser
                 from a loser tree, repaired once per node over the profit
                 phase, and counts the activity from per-agent threshold
                 buckets.

Both engines keep their state in float64 numpy arrays.  Engine construction
and renormalisation evaluate the full market too.  The incremental kernel
repeats evaluate_market's arithmetic in its order, and its tree breaks ties
as np.argmin does, so the engines' loser sequences agree exactly, not just
within tolerance.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import math
import os
import struct
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from . import _kernel
from .errors import ConsistencyError, MarketDomainError
from .market import evaluate_market
from .topology import coordinates


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.

    Initial prices are uniform on [price_floor, price_floor + 1).
    renorm_threshold is an absolute mean-price level below which all prices
    are divided by the current mean (an underflow guard that leaves the
    dynamics invariant); None resolves to 1e-6 times the initial mean, and
    a level below 1e-6 * price_floor is refused (see validate).
    """
    price_floor: float = 10.0
    eta_max: float = 0.01
    total_steps: int = 1_000_000
    transient_steps: int = 100_000
    seed: int = 0
    renorm_threshold: Optional[float] = None

    def validate(self):
        if not 0.0 < self.price_floor < math.inf:
            raise ValueError(f"price_floor must be positive and finite, got {self.price_floor}")
        if not 0.0 < self.eta_max < 1.0:
            raise ValueError(f"eta_max must lie in (0, 1), got {self.eta_max}")
        if not 0 <= self.transient_steps < self.total_steps:
            raise ValueError("need 0 <= transient_steps < total_steps")
        if not (self.renorm_threshold is None or self.renorm_threshold >= 1e-6 * self.price_floor):
            raise ValueError(
                f"renorm_threshold must be None or at least 1e-6 * price_floor, got "
                f"{self.renorm_threshold}: the engines keep the price sum by adding each cut's "
                "change, which stops tracking the mean price far below its start")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        return self


def find_loser(profits):
    """Index of the minimum profit; ties broken by the lowest index.
    An empty vector raises ValueError."""
    return int(np.asarray(profits).argmin())


# ----------------------------------------------------------------------
# affected-set bookkeeping

class AffectedSets(NamedTuple):
    """Agents to recompute, phase by phase, after one price change."""
    production: tuple
    demand: tuple
    traded: tuple
    profit: tuple


def _expand(keys, ptr, idx, n):
    """The keys r * n + idx[e] for each key r * n + a and each entry e of
    row a of the CSR arrays (ptr, idx)."""
    a = keys % n
    width = ptr[a + 1] - ptr[a]
    e = np.repeat(ptr[a] - np.cumsum(width) + width, width)
    e += np.arange(e.size)
    return np.repeat(keys - a, width) + idx[e]


def _distinct(*parts):
    """The distinct keys of the parts, ascending (a sort and a neighbour
    compare; np.unique's hash path is slower)."""
    keys = np.sort(np.concatenate(parts))
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def update_plan(net, changed):
    """Agents whose quantities can change after a price change of each of
    `changed`, as CSR arrays (ptr, agents): phase k (production, demand,
    traded, profit) of changed[r] is agents[ptr[4r + k]:ptr[4r + k + 1]].

    The dependency chain: production and wants change for the changed
    agent and its customers (A); demand changes for suppliers of A (B);
    traded for C = A | B; profit for C and customers of C.  Each phase is
    formed for all rows at once, as sorted distinct keys r * N + agent
    expanded through the network's CSR arrays, so it lists an agent once,
    ascending.  Any order would do: in the update kernel (_kernel.c) each
    agent of a phase writes only its own slots and reads only prices and
    what earlier phases wrote.
    """
    n = net.n_agents
    changed = np.asarray(changed, dtype=np.int64)
    if changed.size and not 0 <= changed.min() <= changed.max() < n:
        raise IndexError("agent out of range")
    cust = net.row_agent[net.in_idx]
    own = np.arange(changed.size) * n + changed
    prod = _distinct(own, _expand(own, net.in_ptr, cust, n))
    dem = _distinct(_expand(prod, net.sup_ptr, net.sup_idx, n))
    traded = _distinct(prod, dem)
    phases = (prod, dem, traded, _distinct(traded, _expand(traded, net.in_ptr, cust, n)))
    counts = np.stack([np.bincount(keys // n, minlength=changed.size) for keys in phases], 1)
    ptr = np.concatenate(([0], np.cumsum(counts)))
    agents = np.empty(ptr[-1], dtype=np.int32)
    for k, keys in enumerate(phases):  # row r's keys go to ptr[4r + k] on
        dest = np.repeat(ptr[k:-1:4] - np.cumsum(counts[:, k]) + counts[:, k], counts[:, k])
        dest += np.arange(keys.size)
        agents[dest] = keys % n
    return ptr, agents


def affected_sets(net, changed):
    """The phases of agent `changed`'s update_plan, as tuples of agents."""
    ptr, agents = update_plan(net, [changed])
    return AffectedSets(*(tuple(agents[a:b].tolist()) for a, b in zip(ptr[:-1], ptr[1:])))


# ----------------------------------------------------------------------
# engines

# the engine names a Simulation and the CLI accept
ENGINES = ("incremental", "full")


class _State:
    """An engine state array whose address the kernel holds: assigning to
    the attribute copies into the array, so the kernel never reads a stale
    buffer."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, eng, owner=None):
        return self if eng is None else eng.__dict__[self.slot]

    def __set__(self, eng, value):
        eng.__dict__[self.slot][...] = value
        if self.slot == "_profit":
            eng._build_tree()


class MarketEngine:
    """Mutable market state, updated by one of the ENGINES.

    The state is float64 numpy arrays: prices `p`, productions `qp`, wants
    (per supplier edge), demands `qW`, trades `qt` and profits `profit`,
    the one place the step reads the loser and the activity from.  The
    arrays live as long as the engine; assigning to one copies into it.
    `psum` is the price sum, which each cut updates.

    `recompute_all` writes evaluate_market's arrays into the state, which
    is every update of the "full" engine; the "incremental" engine's
    kernel (`_kernel.c`) runs the four phases (production and wants,
    demand, traded, profit) of the changed agent's update_plan row, with
    evaluate_market's arithmetic in its order, so both give the same bits.
    The incremental engine also keeps a loser tree over the profits (an
    int32 array, `_tree`): the kernel repairs it after every update, and
    recompute_all and any assignment to `profit` rebuild it.  The kernel's
    one struct, `_market`, is bound here once (an address taken through
    ctypes costs about a kernel step): the state, the plan, the tree,
    `psum` and each agent's threshold bucket and band slot; `_bind_grid`
    binds a threshold grid's sorted order, bands and per-bucket counts, and
    `Simulation._kernel_block` each call's draws and output arrays.
    """

    p = _State()
    qp = _State()
    wants = _State()
    qW = _State()
    qt = _State()
    profit = _State()
    # the state arrays evaluate_market's snapshot fields go to
    _SNAPSHOT = (("production", "_qp"), ("wants", "_wants"), ("demand", "_qW"),
                 ("traded", "_qt"), ("profit", "_profit"))

    def __init__(self, net, wts, prices, engine="incremental"):
        if engine not in ENGINES:
            raise ValueError(f"engine must be {' or '.join(ENGINES)}, got {engine!r}")
        incremental = engine == "incremental"
        # built first, so that a missing compiler fails before any work
        lib = _kernel.load() if incremental else None
        n = net.n_agents
        self.net, self.wts, self.n, self.incremental = net, wts, n, incremental
        # state; evaluate_market rejects a wrong shape or a price <= 0
        self._p = np.array(prices, dtype=np.float64)
        self._qp, self._qW, self._qt, self._profit = (np.empty(n) for _ in range(4))
        self._wants = np.empty(net.n_edges)
        # the full engine's struct only holds the price sum
        self._market = _kernel.Market(n=n)
        if incremental:
            self._lib = lib
            self._plan_ptr, self._plan = update_plan(net, np.arange(n))
            # every array the kernel reads is held by the engine or its network
            self._w = np.ascontiguousarray(wts.weights_flat, dtype=np.float64)
            size = 1 << (n - 1).bit_length()  # leaves of the loser tree
            self._tree = np.empty(2 * size, dtype=np.int32)
            # each agent's threshold bucket, the band list and each agent's
            # place there
            self._bucket, self._band, self._slot = np.empty((3, n), dtype=np.int32)
            arrays = (self._p, self._wants, self._qp, self._qW, self._qt, self._profit,
                      self._w, net.sup_ptr, net.sup_idx, net.in_ptr, net.in_idx,
                      self._plan_ptr, self._plan, self._tree)
            self._market = _kernel.Market(
                *(a.ctypes.data for a in arrays), n, size, 0.0,
                bucket=self._bucket.ctypes.data, band=self._band.ctypes.data,
                slot=self._slot.ctypes.data)
            self._market_ref = ctypes.byref(self._market)
            self._update_agent = partial(lib.socm_update, self._market_ref)
        self.recompute_all()
        self.psum = math.fsum(self._p)

    @property
    def psum(self):
        """The sum of the prices, kept by each cut, in the kernel's struct."""
        return self._market.psum

    @psum.setter
    def psum(self, value):
        self._market.psum = value

    def recompute_all(self):
        """Take the whole state from evaluate_market, in place."""
        snap = evaluate_market(self._p, self.net, self.wts)
        for field, slot in self._SNAPSHOT:
            getattr(self, slot)[...] = getattr(snap, field)
        self._build_tree()
        self.touched_last = self.n  # profit recomputations in the last update

    def _bind_grid(self, f0):
        """Bind the threshold grid f0 (a float64 array) to the kernel: its
        sorted order, the sorted thresholds with a NaN as -inf (below which
        no profit lies either), their bands and the per-bucket counts."""
        k = len(f0)
        key = np.where(np.isnan(f0), -np.inf, f0)
        self._order = np.argsort(key, kind="stable").astype(np.int32)
        self._sorted_f0 = key[self._order]
        self._lo, self._hi = np.empty((2, k))
        self._hist = np.empty(k + 1, dtype=np.int32)
        m = self._market
        m.nf0 = k
        for name in ("order", "sorted_f0", "lo", "hi", "hist"):
            setattr(m, name, getattr(self, "_" + name).ctypes.data)

    def _build_tree(self):
        """Rebuild the loser tree from the profits (incremental engine)."""
        if self.incremental:
            self._lib.socm_tree_build(self._market)

    def apply_price_change(self, agent, new_price):
        """Set one price and update every quantity it affects."""
        if not new_price > 0.0:
            raise MarketDomainError("price must remain positive")
        agent = int(agent)
        if not 0 <= agent < self.n:  # the kernel reads the agent's plan unchecked
            raise IndexError(f"agent {agent} out of range")
        p = self._p
        self.psum += new_price - p.item(agent)
        p[agent] = new_price
        if self.incremental:
            self.touched_last = self._update_agent(agent)
        else:
            self.recompute_all()

    def renormalize(self):
        """Divide all prices by the current mean price (degree-1 homogeneity
        makes quantities invariant and rescales profits), then recompute."""
        p = self._p
        m = math.fsum(p) / self.n
        np.divide(p, m, out=p)
        self.psum = math.fsum(p)
        self.recompute_all()

    # -- validation ------------------------------------------------------

    def audit(self):
        """Demand that the state equal a fresh evaluate_market bit for bit."""
        snap = evaluate_market(self._p, self.net, self.wts)
        for name, slot in self._SNAPSHOT:
            mine, ref = getattr(self, slot), getattr(snap, name)
            if not np.array_equal(mine, ref):
                err = float(np.max(np.abs(mine - ref)))
                raise ConsistencyError(
                    f"incremental state diverged on {name}: max err {err:.3e}")


# ----------------------------------------------------------------------
# run records

def _record_kernel():
    """The kernel library for record text, or None where it cannot be built
    (no C compiler): repr and np.loadtxt then do its work, with the same
    bytes and bits."""
    try:
        return _kernel.load()
    except (RuntimeError, OSError):
        return None


# bytes a field of each kind may take in the kernel's rows, separator included
_FIELD_BYTES = {"i": 21, "f": 32}


def format_rows(columns, sep=" "):
    """The rows of equal-length integer or float numpy columns as text:
    fields joined by sep, each written as repr writes it (a float as a
    Python float), every row ended by a newline.  Returns a bytes-like
    object.  The kernel writes it where its fast path takes every float
    (socm_write_rows); repr writes it otherwise."""
    rows = len(columns[0])
    if any(len(c) != rows for c in columns):
        raise ValueError("columns of different lengths")
    lib = _record_kernel()
    kinds = "".join("f" if c.dtype.kind == "f" else "i" for c in columns)
    if lib is not None:
        cols = [np.ascontiguousarray(c, dtype=np.float64 if kind == "f" else np.int64)
                for c, kind in zip(columns, kinds)]
        out = np.empty(rows * sum(map(_FIELD_BYTES.get, kinds)), dtype=np.uint8)
        ptrs = (ctypes.c_void_p * len(cols))(*(c.ctypes.data for c in cols))
        size = lib.socm_write_rows(out.ctypes.data, rows, len(cols), ptrs,
                                   kinds.encode(), ord(sep))
        if size >= 0:
            return out[:size]
    fields = zip(*(map(repr, c.tolist()) for c in columns))
    return "".join(sep.join(row) + "\n" for row in fields).encode()


def _parse_rows(body, ncols):
    """The rows of a record body (bytes) as a float64 matrix, as
    np.loadtxt(ndmin=2) reads them: by the kernel where it takes the body
    (socm_read_rows), and by np.loadtxt, with its errors, otherwise.  An
    empty body is ncols columns of no rows (np.loadtxt would read one)."""
    if not body:
        return np.empty((0, ncols))
    lib = _record_kernel()
    if lib is not None and body.endswith(b"\n"):
        data = np.empty((body.count(b"\n"), ncols))
        if lib.socm_read_rows(body, len(body), data.shape[0], ncols, data.ctypes.data) == 0:
            return data
    return np.loadtxt(io.BytesIO(body), ndmin=2)


@dataclass
class RunRecord:
    """Per-step time series of one run.

    Arrays cover steps [start_step, start_step + len).  Statistics should
    use the post-transient window (helpers below).  config_hash names the
    experiment config the run came from, when known; it round-trips
    through the text format.  The loser's positions are not stored: they
    follow from loser_index and extents (topology.coordinates), and the
    text format writes them as the pos_x (and pos_y) columns.
    """
    n_agents: int
    extents: tuple
    transient_steps: int
    loser_index: np.ndarray
    min_profit: np.ndarray
    mean_price: np.ndarray
    renorm_flags: np.ndarray
    kind: str = "custom"
    config: Optional[SimConfig] = None
    activity: Optional[np.ndarray] = None
    activity_f0: Optional[float] = None
    start_step: int = 0
    config_hash: Optional[str] = None

    @property
    def total_steps(self):
        return self.start_step + len(self.loser_index)

    @property
    def positions(self):
        """Coordinates of the loser at each step (topology.coordinates)."""
        return coordinates(self.loser_index, self.extents)

    def post(self, arr):
        """Slice a per-step array down to the post-transient window."""
        lo = max(0, self.transient_steps - self.start_step)
        return arr[lo:]

    # -- columnar text format -------------------------------------------

    def save_text(self, path, blocks=None):
        """Write the header, then the rows a block at a time: those of
        blocks, a Simulation.blocks stream, where given (the record then
        only gives the header), else its own in blocks of Simulation.CHUNK."""
        if self.activity is not None and self.activity.ndim != 1:
            raise ValueError("the text format holds one activity column; "
                             "a grid of thresholds cannot be saved")
        dim = len(self.extents)
        pos_cols = ["pos_x"] if dim == 1 else ["pos_x", "pos_y"]
        cols = ["t", "loser_idx"] + pos_cols + ["min_profit", "mean_price", "renorm_flag"]
        if self.activity is not None:
            cols.append("activity")
        head = ["# soc-market-run v1",
                f"# n_agents {self.n_agents}",
                f"# kind {self.kind}",
                "# extents " + " ".join(str(e) for e in self.extents),
                f"# transient_steps {self.transient_steps}",
                f"# start_step {self.start_step}"]
        # float(): under numpy 2 a numpy scalar's repr does not read back
        if self.activity_f0 is not None:
            head.append(f"# activity_f0 {float(self.activity_f0)!r}")
        if self.config is not None:
            c = self.config
            head.append(f"# config seed {c.seed} eta_max {float(c.eta_max)!r} "
                        f"price_floor {float(c.price_floor)!r} total_steps {c.total_steps}")
        if self.config_hash is not None:
            head.append(f"# config_hash {self.config_hash}")
        head.append(" ".join(cols))
        if blocks is None:
            size, arrays = Simulation.CHUNK, (self.loser_index, self.min_profit,
                                              self.mean_price, self.renorm_flags, self.activity)
            blocks = ((self.start_step + a, *(c if c is None else c[a:a + size] for c in arrays))
                      for a in range(0, len(self.loser_index), size))
        with open(path, "wb") as fh:
            fh.write(("\n".join(head) + "\n").encode())
            for start, losers, mins, means, flags, activity in blocks:
                m = len(losers)
                pos = coordinates(losers, self.extents).reshape(m, dim)
                columns = [np.arange(start, start + m), losers, *pos.T, mins, means,
                           flags.astype(np.uint8)]
                if self.activity is not None:
                    columns.append(activity)
                fh.write(format_rows(columns))

    @classmethod
    def load_text(cls, path):
        meta = {}
        with open(path, "rb") as fh:
            line = fh.readline().decode()
            if not line.startswith("# soc-market-run"):
                raise ValueError(f"{path}: not a run record")
            header = None
            while True:
                line = fh.readline().decode()
                if not line.endswith("\n"):
                    raise ValueError(f"{path}: the record ends inside its header, "
                                     "with no complete column line")
                if line.startswith("#"):
                    parts = line[1:].split()
                    if len(parts) < 2:
                        raise ValueError(f"{path}: the header line {line.rstrip()!r} "
                                         "holds no value")
                    meta[parts[0]] = parts[1:]
                else:
                    header = line.split()
                    break
            missing = [f"no {key} header line" for key in ("n_agents", "extents", "transient_steps")
                       if not meta.get(key)]
            missing += [f"no {name} column" for name in ("loser_idx", "min_profit", "mean_price",
                                                          "renorm_flag") if name not in header]
            if missing:
                raise ValueError(f"{path}: the record has " + " and ".join(missing))
            body = fh.read()
        data = _parse_rows(body, len(header))
        if data.shape[1] != len(header):
            raise ValueError(f"{path}: rows hold {data.shape[1]} fields, "
                             f"the header names {len(header)}")
        col = {name: k for k, name in enumerate(header)}

        def number(kind, key, text):
            try:
                return kind(text)
            except ValueError as exc:
                raise ValueError(f"{path}: the header's {key} {text!r} "
                                 f"does not read as {kind.__name__}") from exc

        def column(name, dtype, what):
            """Column `name` cast to dtype, refusing a value the cast changes."""
            values = data[:, col[name]]
            with np.errstate(invalid="ignore"):  # NaN, inf and overflow cast to garbage
                cast = values.astype(dtype)
            changed = cast != values
            if changed.any():
                raise ValueError(f"{path}: the {name} value {values[changed.argmax()]:g} "
                                 f"is not {what}")
            return cast

        activity = None
        if "activity" in col:
            activity = column("activity", np.int32, "a whole number >= 0")
            if activity.size and activity.min() < 0:
                raise ValueError(f"{path}: the activity value {activity.min()} "
                                 "is not a whole number >= 0")
        f0 = None
        if "activity_f0" in meta:
            f0 = number(float, "activity_f0", meta["activity_f0"][0])
        transient = number(int, "transient_steps", meta["transient_steps"][0])
        n_agents = number(int, "n_agents", meta["n_agents"][0])
        losers = column("loser_idx", np.int64, "a whole number")
        if losers.size and not 0 <= losers.min() <= losers.max() < n_agents:
            raise ValueError(f"{path}: a loser_idx lies outside the {n_agents} agents")
        config = None
        if "config" in meta:
            kv = meta["config"]
            fields = dict(zip(kv[::2], kv[1::2]))
            kinds = {"seed": int, "eta_max": float, "price_floor": float, "total_steps": int}
            missing = [key for key in kinds if key not in fields]
            if missing:
                raise ValueError(f"{path}: the config header line has no "
                                 + " and no ".join(missing))
            config = SimConfig(**{key: number(kind, f"config {key}", fields[key])
                                  for key, kind in kinds.items()}, transient_steps=transient)
        return cls(
            n_agents=n_agents,
            extents=tuple(number(int, "extents", v) for v in meta["extents"]),
            kind=meta.get("kind", ["custom"])[0],
            config=config,
            transient_steps=transient,
            loser_index=losers,
            min_profit=data[:, col["min_profit"]],
            mean_price=data[:, col["mean_price"]],
            renorm_flags=column("renorm_flag", bool, "0 or 1"),
            activity=activity, activity_f0=f0,
            start_step=number(int, "start_step", meta.get("start_step", ["0"])[0]),
            config_hash=meta.get("config_hash", [None])[0])


# ----------------------------------------------------------------------
# checkpoints (fixed-width little-endian, version-tagged)

_CKPT_MAGIC = b"SOCMKCP1"
# magic, t, n, psum, renorm level, PCG64 state and increment, has_uint32,
# uinteger; the n prices follow
_CKPT_HEAD = struct.Struct("<8sQQdd16s16sII")


def save_checkpoint(path, t, prices, rng, psum, renorm_level):
    """Write the _CKPT_HEAD header and the prices to path + ".tmp", then
    move it over path, so a crash mid-write leaves the previous checkpoint
    intact; a write or move that raises removes the temporary file."""
    state = rng.bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise ValueError("checkpoints support the PCG64 generator only")
    p = np.asarray(prices, dtype="<f8")
    pcg = state["state"]
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_HEAD.pack(
                _CKPT_MAGIC, t, len(p), psum, renorm_level, pcg["state"].to_bytes(16, "little"),
                pcg["inc"].to_bytes(16, "little"), state["has_uint32"], state["uinteger"]))
            fh.write(p.tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    with open(path, "rb") as fh:
        head = fh.read(_CKPT_HEAD.size)
        if head[:8] != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        if len(head) < _CKPT_HEAD.size:
            raise ValueError(f"{path}: checkpoint header cut short")
        _, t, n, psum, renorm_level, s, inc, has_u32, uint = _CKPT_HEAD.unpack(head)
        raw = fh.read(8 * n)
    if len(raw) < 8 * n:
        raise ValueError(f"{path}: checkpoint holds {len(raw) // 8} of {n} prices")
    prices = np.frombuffer(raw, dtype="<f8").copy()
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(s, "little"),
                  "inc": int.from_bytes(inc, "little")},
        "has_uint32": has_u32, "uinteger": uint}
    return t, prices, rng, psum, renorm_level


# ----------------------------------------------------------------------
# simulation driver

class Simulation:
    """Owns an engine, the random source, and the step loop (_advance)."""

    # steps per piece of _advance and per chunk of blocks, rows per save_text write
    CHUNK = 8192

    def __init__(self, net, wts, config, engine="incremental"):
        config.validate()
        self.net, self.wts, self.config = net, wts, config
        self._rng = np.random.default_rng(config.seed)
        prices = config.price_floor + self._rng.random(net.n_agents)
        self._eng = MarketEngine(net, wts, prices, engine)
        self._t = 0
        if config.renorm_threshold is None:
            self._renorm_level = 1e-6 * (self._eng.psum / net.n_agents)
        else:
            self._renorm_level = config.renorm_threshold

    @property
    def t(self):
        return self._t

    @property
    def engine(self):
        return self._eng

    def step(self):
        """Advance one trading day; returns (t, loser, min_profit,
        mean_price, eta, renormalized).  One step of the loop in _advance."""
        t = self._t
        loser, smin, mp, renorm, _, eta = self._advance(1)
        return t, int(loser[0]), smin[0], mp[0], eta, bool(renorm[0])

    def run(self, activity_f0=None, audit_interval=0,
            checkpoint_path=None, checkpoint_every=0):
        """Run through config.total_steps and return the RunRecord; the
        activity column counts agents below activity_f0 (see _advance)."""
        cfg = self.config
        start = self._t
        if cfg.total_steps <= start:
            raise ValueError("simulation already past total_steps")
        loser_idx, min_profit, mean_price, renorm, activity, _ = self._advance(
            cfg.total_steps - start, activity_f0, audit_interval,
            checkpoint_path, checkpoint_every)
        return RunRecord(
            n_agents=self.net.n_agents, extents=self.net.extents,
            kind=self.net.kind,
            transient_steps=cfg.transient_steps, loser_index=loser_idx,
            min_profit=min_profit, mean_price=mean_price, renorm_flags=renorm,
            config=cfg, activity=activity,
            activity_f0=activity_f0, start_step=start)

    def blocks(self, until, activity_f0=None, audit_interval=0,
               checkpoint_path=None, checkpoint_every=0):
        """Step up to step `until` in chunks of at most CHUNK steps, and
        yield each chunk as (its first step, loser, min_profit, mean_price,
        renorm_flags, activity or None): _advance's per-step arrays, with
        its activity counts, audits and checkpoints.  A simulation already
        at or past `until` yields nothing."""
        # each chunk comes from a call of _advance: this frame then holds no
        # chunk's arrays while the consumer reads them (inlining the loop here
        # raised threshold_scan's traced peak by about 0.1 MB)
        while self._t < until:
            yield (self._t, *self._advance(min(until - self._t, self.CHUNK), activity_f0,
                                           audit_interval, checkpoint_path, checkpoint_every)[:5])

    def _advance(self, count, activity_f0=None, audit_interval=0,
                 checkpoint_path=None, checkpoint_every=0):
        """The step loop: run `count` trading days.

        Each day renormalizes the prices if the mean price is below the
        renormalization level, picks the loser, counts the agents with
        profit strictly below activity_f0 * mean_price (one count for a
        scalar, a row of counts for an array, none for None), and cuts the
        loser's price by eta ~ U[0, eta_max).  Each piece of at most CHUNK
        steps, which ends at every audit and checkpoint step, draws its cuts
        at once (rng.random(m) gives the doubles of m single draws).

        The incremental engine runs each piece in the kernel
        (_kernel.c, socm_advance), which writes the per-step arrays in place
        and returns early when the prices need renormalising.  It counts
        the activity at every step from per-agent buckets over the sorted
        thresholds (MarketEngine._bind_grid): a count per bucket, plus a
        compare of the few profits that lie inside a threshold's band; the
        full engine runs each piece in _full_block and counts with numpy.
        Both give the same counts.

        Returns per-step arrays (loser, min_profit, mean_price,
        renorm_flags, activity or None) and the last cut eta.
        """
        if audit_interval < 0 or checkpoint_every < 0:
            raise ValueError("audit_interval and checkpoint_every must be >= 0")
        eng, rng = self._eng, self._rng
        steps = (np.empty(count, dtype=np.int32), np.empty(count), np.empty(count),
                 np.zeros(count, dtype=bool))
        activity = f0 = counts = None
        if activity_f0 is not None:
            activity = np.empty((count,) + np.shape(activity_f0), dtype=np.int32)
            f0 = np.array(activity_f0, dtype=np.float64).reshape(-1)
            counts = activity.reshape(count, len(f0))  # a view, one row per step
        block, market = self._full_block, eng._market
        if eng.incremental:
            block = self._kernel_block
            market.eta_max, market.level = self.config.eta_max, self._renorm_level
            if f0 is not None:
                eng._bind_grid(f0)
        if not checkpoint_path:
            checkpoint_every = 0
        t, k, eta = self._t, 0, None
        while k < count:
            m = min(count - k, self.CHUNK)
            for every in (audit_interval, checkpoint_every):
                if every:
                    m = min(m, every - t % every)
            draws = rng.random(m)  # the cuts are eta_max times them
            block(k, draws, *steps, f0, counts)
            eta = self.config.eta_max * draws.item(m - 1)
            k += m
            t += m
            self._t = t
            if audit_interval and t % audit_interval == 0:
                eng.audit()
            if checkpoint_every and t % checkpoint_every == 0:
                save_checkpoint(checkpoint_path, t, eng.p, rng, eng.psum, self._renorm_level)
        return (*steps, activity, eta)

    def _full_block(self, k, draws, loser_idx, min_profit, mean_price, renorm, f0, counts):
        """Steps k .. k + len(draws) - 1 of _advance, one at a time, on the
        full engine; counts[j] is step j's row of activity counts."""
        eng, level = self._eng, self._renorm_level
        p, profit, n = eng.p, eng.profit, eng.n
        for j, eta in enumerate((self.config.eta_max * draws).tolist(), k):
            mp = eng.psum / n
            if mp < level:
                eng.renormalize()
                renorm[j] = True
                mp = eng.psum / n
            loser = find_loser(profit)
            loser_idx[j] = loser
            min_profit[j] = profit[loser]
            mean_price[j] = mp
            if counts is not None:
                counts[j] = np.count_nonzero(profit[:, None] < f0 * mp, axis=0)
            eng.apply_price_change(loser, p[loser] * (1.0 - eta))

    def _kernel_block(self, k, draws, loser_idx, min_profit, mean_price, renorm, f0, counts):
        """Steps k .. k + len(draws) - 1 of _advance in the kernel, with a
        renormalisation wherever it stops early; the kernel reads the draws
        and writes each array from row k on in place."""
        eng, m, s = self._eng, len(draws), self._eng._market
        s.u, s.loser, s.min_profit, s.mean_price = (
            a.ctypes.data for a in (draws, loser_idx[k:], min_profit[k:], mean_price[k:]))
        s.activity = None if counts is None else counts[k:].ctypes.data
        market, advance = eng._market_ref, eng._lib.socm_advance
        done = 0
        while True:
            # renorm[k + done] is set where the kernel stopped for a
            # renormalisation, which then must not stop it again
            done = advance(market, done, m, int(renorm[k + done]))
            if done < 0:
                raise MarketDomainError("price must remain positive")
            if done == m:
                break
            eng.renormalize()
            renorm[k + done] = True
        c = loser_idx.item(k + m - 1)  # the profits the last cut recomputed
        eng.touched_last = int(eng._plan_ptr[4 * c + 4] - eng._plan_ptr[4 * c + 3])

    @classmethod
    def resume(cls, net, wts, config, checkpoint_path, engine="incremental"):
        """Rebuild a simulation from a checkpoint; continues at step t."""
        t, prices, rng, psum, renorm_level = load_checkpoint(checkpoint_path)
        if len(prices) != net.n_agents:
            raise ValueError(f"{checkpoint_path}: checkpoint holds {len(prices)} agents, "
                             f"the network has {net.n_agents}")
        sim = cls.__new__(cls)
        sim.net, sim.wts, sim.config = net, wts, config.validate()
        sim._rng = rng
        sim._eng = MarketEngine(net, wts, prices, engine)
        sim._eng.psum = psum
        sim._t = t
        sim._renorm_level = renorm_level
        return sim


def run(net, wts, config, engine="incremental", **kwargs):
    """Build a Simulation and run it to completion."""
    return Simulation(net, wts, config, engine=engine).run(**kwargs)
