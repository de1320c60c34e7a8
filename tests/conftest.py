import numpy as np
import pytest

import socmarket as sm


def random_instance(rng, kind=None):
    """One random (net, wts, prices) triple drawn over the topology zoo."""
    kinds = ["ring", "corner_rt", "corner_lt", "corner_lb", "corner_rb",
             "manhattan", "f_lattice", "er_embedded"]
    if kind is None:
        kind = kinds[rng.integers(len(kinds))]
    if kind == "ring":
        net = sm.build_ring(int(rng.integers(3, 40)))
    elif kind.startswith("corner"):
        net = sm.build_corner_lattice(int(rng.integers(3, 7)), kind.split("_")[1])
    elif kind == "manhattan":
        net = sm.build_manhattan(int(rng.choice([4, 6, 8])))
    elif kind == "f_lattice":
        net = sm.build_f_lattice(int(rng.choice([4, 6, 8])))
    else:
        net = sm.build_er_embedded(int(rng.integers(10, 60)),
                                   float(rng.uniform(0.03, 0.3)), rng)
    if np.all(np.diff(net.sup_ptr) == 2) and rng.random() < 0.5:
        wts = sm.assign_weights_fixed(net, float(rng.uniform(0.05, 0.95)))
    else:
        wts = sm.assign_weights_uniform(net, rng)
    prices = 10.0 + rng.random(net.n_agents)
    return net, wts, prices


def supplier_rows(net):
    """Each agent's ordered suppliers, as lists."""
    return [row.tolist() for row in net.suppliers]


def customer_rows(net):
    """Each agent's customers (the transpose, ascending), as lists, read
    through in_ptr, in_idx and row_agent."""
    customers = net.row_agent[net.in_idx]
    return [row.tolist() for row in np.split(customers, net.in_ptr[1:-1])]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
