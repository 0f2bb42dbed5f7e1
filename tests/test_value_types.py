"""Every value type stores its own read-only copy of the arrays it is given.

Each case builds one value type from writable arrays that the test owns and
returns the arrays the type stores.  A stored array must be read-only and
share no memory with an input, and every input must stay writeable.
"""

import numpy as np
import pytest

from graphwhs.control import CostSpec
from graphwhs.dynamics import ControlSignal
from graphwhs.energies import EnergySpec
from graphwhs.graphs import (
    DensityState,
    EdgeField,
    Graph,
    MomentumState,
    is_int,
    is_real,
)
from graphwhs.hjb import GridValueFunction, SimplexGrid
from graphwhs.waves import WaveState


def pair_graph():
    return Graph.from_edges(2, [(0, 1, 1.0)])


def build_graph(a):
    G = Graph(n=2, omega=a(np.array([[0.0, 1.5], [1.5, 0.0]])))
    e = G.edge_list
    return [G.omega, e.ii, e.jj, e.omega, e.rev]


def build_density(a):
    return [DensityState(rho=a(np.array([0.3, 0.7]))).rho]


def build_momentum(a):
    return [MomentumState(s=a(np.array([0.4, -0.2]))).s]


def build_edge_field(a):
    return [EdgeField(values=a(np.array([0.5, -0.5])), graph=pair_graph()).values]


def build_energy(a):
    spec = EnergySpec(
        graph=pair_graph(),
        interaction=a(np.array([[0.0, 0.3], [0.3, 0.0]])),
        sigma=a(np.array([0.1, 0.2])),
    )
    return [spec.interaction, spec.sigma, spec.edge_interaction]


def build_cost(a):
    spec = CostSpec(target_rho=a(np.array([0.5, 0.5])), target_x=a(np.array([0.1, 0.0])))
    return [spec.target_rho, spec.target_x]


def build_control(a):
    signal = ControlSignal(
        breakpoints=a(np.array([0.0, 0.5, 1.0])), values=a(np.array([[0.1, 0.2], [0.0, 0.3]])),
        ell=1.0,
    )
    return [signal.breakpoints, signal.values]


def axes(a):
    return (
        a(np.linspace(0.0, 1.0, 3)), a(np.linspace(0.1, 0.9, 3)),
        a(np.linspace(-1.0, 1.0, 3)), a(np.linspace(-1.0, 1.0, 3)),
    )


def build_grid(a):
    return list(SimplexGrid(axes=axes(a), cfl={}).axes)


def build_grid_values(a):
    grid = SimplexGrid(axes=axes(np.array), cfl={})
    gvf = GridValueFunction(
        grid=grid, values=a(np.zeros(grid.shape)), cost_spec=None, energy=None, ell=1.0, cfl={},
    )
    return [gvf.values]


def build_wave(a):
    return [WaveState(u=a(np.array([0.6, 0.8j]))).u]


BUILDERS = [
    build_graph, build_density, build_momentum, build_edge_field, build_energy, build_cost,
    build_control, build_grid, build_grid_values, build_wave,
]


@pytest.mark.parametrize("build", BUILDERS, ids=lambda f: f.__name__[len("build_"):])
def test_value_types_store_read_only_copies(build):
    inputs = []

    def owned(arr):
        assert arr.flags.writeable
        inputs.append(arr)
        return arr

    stored = build(owned)
    assert inputs and stored
    for arr in stored:
        assert not arr.flags.writeable
        for given in inputs:
            assert not np.shares_memory(arr, given)
    for given in inputs:
        assert given.flags.writeable


def test_the_predicate_pair_refuses_bools_and_non_numbers():
    for value in (1, 2.5, -0.0, np.float64(0.5), np.int64(3), np.float32(1.5)):
        assert is_real(value), value
    for value in (True, False, np.True_, "1.0", None, 1j, [1.0], np.array(1.0)):
        assert not is_real(value), value
    for value in (0, -3, np.int64(7), np.uint8(2)):
        assert is_int(value), value
    for value in (True, np.False_, 2.0, np.float64(2.0), "2", None):
        assert not is_int(value), value
