"""Directed trade networks and expenditure weights.

Agents sit on a directed graph: an edge j -> i means j is a supplier of i
(i buys from j).  A network is its supplier CSR arrays, their transpose
(the customers), and the periodic extents of the line or lattice its
agents sit on; `coordinates` maps agent ids to positions from the extents
alone, which the loser-walk statistics use to measure jump distances.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import TopologyError

LATTICE_KINDS = ("manhattan", "f_lattice", "corner_rt", "corner_lt",
                 "corner_lb", "corner_rb")
NETWORK_KINDS = ("ring",) + LATTICE_KINDS + ("er_embedded", "custom")

# direction -> (dx, dy); "top" is +y
_DIRS = {"R": (1, 0), "T": (0, 1), "L": (-1, 0), "B": (0, -1)}
# canonical supplier ordering for corner assignments: R before T before L before B
_DIR_PRECEDENCE = "RTLB"
CORNERS = ("RT", "LT", "LB", "RB")


def coordinates(ids, extents):
    """Positions of agent ids: the id itself on a line (one extent), and
    (x, y) = (id % L, id // L), stacked last, on a lattice of extents (L, L)."""
    ids = np.asarray(ids)
    if len(extents) == 1:
        return ids
    L = extents[0]
    return np.stack([ids % L, ids // L], axis=-1)


def _first(mask):
    """Index of the first True entry of a boolean array, or None."""
    return int(np.argmax(mask)) if mask.any() else None


class TradeNetwork:
    """Directed supplier/customer graph on a periodic line or lattice.

    Immutable after construction: its arrays are read-only, so it is safe
    to share.

    `suppliers` is a sequence of rows, or an (N, K) integer array when every
    agent has K suppliers.  The constructor validates and transposes with
    whole-array numpy operations: one stable argsort of the supplier column
    orders each good's customers by ascending index, with in_idx in the
    same order, which fixes the order in which the engine sums demand.

    Attributes
    ----------
    n_agents : int
    sup_ptr, sup_idx : int64 CSR arrays of suppliers, by edge id: agent i's
                       ordered suppliers are sup_idx[sup_ptr[i]:sup_ptr[i + 1]]
    row_agent        : int64 buying agent of each edge
    in_ptr, in_idx   : int64 CSR arrays of the transpose: the customers of j
                       are row_agent[in_idx[in_ptr[j]:in_ptr[j + 1]]],
                       ascending, and in_idx holds their supplier-edge ids
    extents : tuple of periodic linear sizes, (N,) or (L, L); agent
              positions are coordinates(ids, extents)
    kind    : one of NETWORK_KINDS
    """

    def __init__(self, suppliers, extents, kind):
        if kind not in NETWORK_KINDS:
            raise TopologyError(f"unknown network kind {kind!r}")
        n = len(suppliers)
        self.n_agents = n
        self.extents = tuple(int(e) for e in extents)
        if len(self.extents) not in (1, 2) or np.prod(self.extents) != n:
            raise TopologyError(f"extents {self.extents} do not hold {n} agents "
                                f"on a line or a lattice")
        self.kind = kind

        # CSR over supplier edges; edge e belongs to row row_agent[e]
        if isinstance(suppliers, np.ndarray):  # (N, K): K suppliers each
            degrees = np.full(n, suppliers.shape[1], dtype=np.int64)
            flat = suppliers.ravel()
        else:
            degrees = np.fromiter(map(len, suppliers), dtype=np.int64, count=n)
            flat = np.fromiter(chain.from_iterable(suppliers), dtype=np.int64,
                               count=degrees.sum())
        self.sup_ptr = np.concatenate(([0], np.cumsum(degrees)))
        self.sup_idx = flat.astype(np.int64)
        self.row_agent = np.repeat(np.arange(n, dtype=np.int64), degrees)

        # edges are stored by ascending row, so the first flagged edge
        # names the lowest offending agent
        sup, row = self.sup_idx, self.row_agent
        if not degrees.all():
            raise TopologyError(f"agent {np.argmin(degrees)} has no suppliers")
        e = _first((sup < 0) | (sup >= n))
        if e is not None:
            raise TopologyError(f"agent {row[e]} has supplier {sup[e]} out of range")
        e = _first(sup == row)
        if e is not None:
            raise TopologyError(f"agent {row[e]} supplies itself")
        pairs = np.sort(row * n + sup)
        e = _first(pairs[1:] == pairs[:-1])
        if e is not None:
            raise TopologyError(f"agent {pairs[e] // n} has duplicate suppliers")

        # transpose; edges are stored by ascending row, so a stable sort on
        # the supplier keeps each good's customers ascending
        self.in_idx = np.argsort(self.sup_idx, kind="stable").astype(np.int64, copy=False)
        self.in_ptr = np.concatenate(([0], np.cumsum(np.bincount(self.sup_idx, minlength=n))))
        for arr in (self.sup_ptr, self.sup_idx, self.row_agent, self.in_ptr, self.in_idx):
            arr.flags.writeable = False

    @property
    def n_edges(self):
        return int(self.sup_ptr[-1])

    @property
    def suppliers(self):
        """Each agent's ordered supplier ids, as views into sup_idx."""
        return np.split(self.sup_idx, self.sup_ptr[1:-1])

    def __repr__(self):
        return (f"TradeNetwork(kind={self.kind!r}, n_agents={self.n_agents}, "
                f"n_edges={self.n_edges}, extents={self.extents})")


class ExpenditureMatrix:
    """Per-agent spending weights aligned with the supplier lists.

    weights_flat[e] is the fraction of agent row_agent[e]'s earnings spent
    on supplier sup_idx[e].  Rows are normalized to sum to one.
    """

    def __init__(self, net, weights_flat, scheme):
        w = np.asarray(weights_flat, dtype=np.float64)
        if w.shape != (net.n_edges,):
            raise TopologyError("weight vector does not match the edge count")
        # both checks are written so that a NaN fails them
        if not np.all(w >= 0.0):
            raise TopologyError("expenditure weights must be >= 0 and not NaN")
        sums = np.bincount(net.row_agent, weights=w, minlength=net.n_agents)
        if not np.all(np.abs(sums - 1.0) <= 1e-12):
            raise TopologyError("expenditure rows must sum to 1")
        self.net = net
        self.weights_flat = w
        self.scheme = scheme

    def row(self, i):
        """Weights of agent i, aligned with its suppliers
        net.sup_idx[net.sup_ptr[i]:net.sup_ptr[i + 1]]."""
        return self.weights_flat[self.net.sup_ptr[i]:self.net.sup_ptr[i + 1]]

    def __repr__(self):
        return f"ExpenditureMatrix(scheme={self.scheme!r}, n_edges={len(self.weights_flat)})"


# ----------------------------------------------------------------------
# builders

def build_ring(n_agents):
    """1D ring: agent i buys from its left and right neighbors, in that order."""
    n = int(n_agents)
    if n < 3:
        raise TopologyError(f"ring needs at least 3 agents, got {n}")
    i = np.arange(n)
    return TradeNetwork(np.stack([(i - 1) % n, (i + 1) % n], axis=1), (n,), "ring")


def _lattice(L, steps, kind):
    """L x L periodic lattice, agent id = x + y*L.  steps[k] is the (dx, dy)
    offset of every agent's k-th supplier, as scalars or per-agent arrays."""
    x, y = coordinates(np.arange(L * L), (L, L)).T
    rows = np.stack([(x + dx) % L + ((y + dy) % L) * L for dx, dy in steps], axis=1)
    return TradeNetwork(rows, (L, L), kind)


def _corner_steps(corner):
    """Supplier offsets of a two-direction corner, in R,T,L,B precedence."""
    return [_DIRS[d] for d in sorted(corner, key=_DIR_PRECEDENCE.index)]


def _tiled_steps(L, tile):
    """Per-agent supplier offsets from a 2x2 tile of offset pairs, where
    tile[y % 2][x % 2] lists the two (dx, dy) of the agent at (x, y)."""
    x, y = coordinates(np.arange(L * L), (L, L)).T
    offsets = np.asarray(tile)[y % 2, x % 2]  # (N, supplier, dx/dy)
    return [(offsets[:, k, 0], offsets[:, k, 1]) for k in range(2)]


def build_corner_lattice(L, corner):
    """L x L periodic lattice where every agent's two suppliers sit in the
    same two directions, e.g. right and top for corner="RT"."""
    L = int(L)
    corner = corner.upper()
    if corner not in CORNERS:
        raise TopologyError(f"corner must be one of {CORNERS}, got {corner!r}")
    if L < 3:
        raise TopologyError(f"corner lattice needs L >= 3, got {L}")
    return _lattice(L, _corner_steps(corner), f"corner_{corner.lower()}")


# 2x2 tile of corner types, indexed [y % 2][x % 2]; chosen so that walking
# any unit loop visits the corner types in the cyclic order RT, RB, LB, LT
_MANHATTAN_TILE = (("RT", "RB"), ("LT", "LB"))


def build_manhattan(L):
    """Manhattan lattice: corner types tile in 2x2 blocks so every unit loop
    cycles through RT, RB, LB, LT.  Needs even L to close periodically."""
    L = int(L)
    if L < 4 or L % 2:
        raise TopologyError(f"manhattan lattice needs even L >= 4, got {L}")
    tile = [[_corner_steps(c) for c in row] for row in _MANHATTAN_TILE]
    return _lattice(L, _tiled_steps(L, tile), "manhattan")


def build_f_lattice(L):
    """F lattice: even-(x+y) agents buy from left and right, odd ones from
    top and bottom.  Needs even L to close periodically."""
    L = int(L)
    if L < 4 or L % 2:
        raise TopologyError(f"f lattice needs even L >= 4, got {L}")
    left_right = [_DIRS["L"], _DIRS["R"]]
    top_bottom = [_DIRS["T"], _DIRS["B"]]
    tile = [[left_right, top_bottom], [top_bottom, left_right]]
    return _lattice(L, _tiled_steps(L, tile), "f_lattice")


def build_er_embedded(n_agents, alpha, rng):
    """Directed Erdos-Renyi graph embedded on a 1D index line.

    Each ordered pair (i, j), i != j, gets a supplier edge j -> i with
    probability alpha.  Agents left without suppliers are repaired with a
    single uniformly chosen supplier, so K_i >= 1 always holds.
    """
    n = int(n_agents)
    if n < 2:
        raise TopologyError(f"er network needs at least 2 agents, got {n}")
    if not 0.0 < alpha < 1.0:
        raise TopologyError(f"alpha must lie in (0, 1), got {alpha}")
    rng = np.random.default_rng(rng)
    mat = rng.random((n, n)) < alpha
    np.fill_diagonal(mat, False)
    for i in np.flatnonzero(~mat.any(axis=1)):
        j = int(rng.integers(n - 1))
        mat[i, j + (j >= i)] = True  # skip self
    ptr = np.concatenate(([0], np.cumsum(mat.sum(axis=1))))
    return TradeNetwork(np.split(np.nonzero(mat)[1], ptr[1:-1]), (n,), "er_embedded")


# ----------------------------------------------------------------------
# expenditure weights

def assign_weights_fixed(net, a):
    """Fixed split on two-supplier networks: the first supplier in each
    agent's list gets weight a, the second gets 1 - a."""
    if not 0.0 < a < 1.0:
        raise TopologyError(f"choice parameter must lie in (0, 1), got {a}")
    degrees = np.diff(net.sup_ptr)
    if np.any(degrees != 2):
        i = int(np.argmax(degrees != 2))
        raise TopologyError(
            f"fixed split needs exactly 2 suppliers everywhere; "
            f"agent {i} has {degrees[i]}")
    w = np.tile([a, 1.0 - a], net.n_agents)
    return ExpenditureMatrix(net, w, f"fixed_split({a})")


def assign_weights_uniform(net, rng):
    """Random weights: K_i independent uniforms on (0, 1] per agent,
    normalized to row sum one."""
    rng = np.random.default_rng(rng)
    raw = 1.0 - rng.random(net.n_edges)  # (0, 1]
    sums = np.bincount(net.row_agent, weights=raw, minlength=net.n_agents)
    w = raw / sums[net.row_agent]
    return ExpenditureMatrix(net, w, "uniform_random")

