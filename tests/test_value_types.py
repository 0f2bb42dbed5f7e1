"""Value types: read-only copies of their arrays, and the ranges of their numbers.

Each copy case builds one value type from writable arrays that the test owns
and returns the arrays the type stores.  A stored array must be read-only
and share no memory with an input, and every input must stay writeable.

Each range case hands one checked number to the code that checks it: the
ends of its interval, a value just inside and just outside each finite end,
NaN, both infinities and True.  It asserts only accept or refuse, not the
message, so the same cases hold for any implementation of the checks.
"""

import math

import numpy as np
import pytest

from graphwhs import cli, control
from graphwhs.control import CostSpec, legendre_fhat
from graphwhs.dynamics import ControlSignal, SdeConfig, simulate_batch
from graphwhs.energies import EnergySpec
from graphwhs.graphs import (
    DensityState,
    DomainError,
    EdgeField,
    Graph,
    MomentumState,
    is_int,
    is_real,
)
from graphwhs.hjb import GridValueFunction, SimplexGrid, TruncationFn, fhat_R
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


def pair_state():
    return DensityState(rho=np.array([0.5, 0.5])), MomentumState(s=np.array([0.1, -0.1]))


def solver_with(key, value):
    s = dict(cli._SOLVER_DEFAULTS)
    if key in ("grid_shape", "theta"):
        s[key] = [value] + list(s[key])[1:]
    else:
        s[key] = value
    cli._check_solver(s)


def sde_with(key, value):
    SdeConfig(energy=EnergySpec(graph=pair_graph()), **{key: value})


def escape_quota(value):
    rho, x = pair_state()
    cfg = SdeConfig(energy=EnergySpec(graph=pair_graph()), T=0.01, dt=0.01)
    simulate_batch(cfg, rho, x, n_paths=1, master_seed=0, escape_quota=value)


def ball_radius_fhat(ell):
    legendre_fhat(CostSpec(), 0.0, *pair_state(), np.array([0.3, 0.4]), ell)


def ball_radius_fhat_R(ell):
    energy = EnergySpec(graph=pair_graph())
    fhat_R(CostSpec(), energy, TruncationFn(R=5.0), 0.0, *pair_state(), np.zeros(2), 0.0, ell)


# (name, check, lo, hi, ends): check(value) refuses with DomainError a value
# outside the interval from lo to hi, each end open or closed as ends marks.
REAL_RANGES = [
    ("control_coeff", lambda v: CostSpec(control_coeff=v), 0.0, math.inf, "()"),
    ("tracking_coeff", lambda v: CostSpec(tracking_coeff=v), 0.0, math.inf, "[)"),
    ("bound", lambda v: CostSpec(bound=v), 0.0, math.inf, "[)"),
    ("terminal_weight", lambda v: CostSpec(terminal_weight=v), 0.0, math.inf, "[)"),
    ("terminal_offset", lambda v: CostSpec(terminal_offset=v), -math.inf, math.inf, "()"),
    ("legendre_fhat.ell", ball_radius_fhat, 0.0, math.inf, "()"),
    ("class.ell", lambda v: control._read_class({"ell": v}, 0.0, 1.0), 0.0, math.inf, "()"),
    ("sde.t0", lambda v: sde_with("t0", v), 0.0, 1.0, "[)"),
    ("sde.T", lambda v: sde_with("T", v), 0.0, math.inf, "()"),
    ("sde.dt", lambda v: sde_with("dt", v), 0.0, math.inf, "()"),
    ("sde.boundary_floor", lambda v: sde_with("boundary_floor", v), 0.0, 0.5, "()"),
    ("signal.ell", lambda v: ControlSignal.constant([0.0, 0.0], 0.0, 1.0, v), 0.0, math.inf, "()"),
    ("escape_quota", escape_quota, 0.0, 1.0, "[]"),
    ("fisher_coeff", lambda v: EnergySpec(graph=pair_graph(), fisher_coeff=v), 0.0, math.inf,
     "[)"),
    ("truncation.R", lambda v: TruncationFn(R=v), 1.0, math.inf, "[)"),
    ("truncation.beta", lambda v: TruncationFn(R=2.0, beta=v), 0.0, 1.0, "()"),
    ("fhat_R.ell", ball_radius_fhat_R, 0.0, math.inf, "()"),
    ("grid.ell", lambda v: SimplexGrid.build(EnergySpec(graph=pair_graph()), v, 1.0,
                                             shape=(2, 2, 2, 2)), 0.0, math.inf, "()"),
    ("solver.t_bar", lambda v: solver_with("t_bar", v), 0.0, 1.0, "(]"),
    ("solver.X", lambda v: solver_with("X", v), 0.0, math.inf, "()"),
    ("solver.rho_margin", lambda v: solver_with("rho_margin", v), 0.0, 0.5, "()"),
    ("solver.budget", lambda v: solver_with("budget", v), 1.0, math.inf, "[]"),
    ("solver.theta", lambda v: solver_with("theta", v), 0.0, math.inf, "()"),
    ("solver.escape_quota", lambda v: solver_with("escape_quota", v), 0.0, 1.0, "[]"),
]

# (name, check, low): check(value) refuses anything but an int of at least low.
INT_RANGES = [
    ("solver.grid_shape", lambda v: solver_with("grid_shape", v), 2),
    ("solver.n_paths", lambda v: solver_with("n_paths", v), 1),
    ("solver.inner_paths", lambda v: solver_with("inner_paths", v), 1),
    ("solver.path_steps", lambda v: solver_with("path_steps", v), 8),
    ("solver.path_iters", lambda v: solver_with("path_iters", v), 0),
]


def real_cases(lo, hi, ends):
    """(value, accepted) at the ends of the interval, beside them, and off the reals."""
    cases = [(math.nan, False), (True, False)]
    for end, closed, inward in ((lo, ends[0] == "[", hi), (hi, ends[1] == "]", lo)):
        cases += [(end, closed), (np.nextafter(end, inward), True)]
        if math.isfinite(end):
            cases.append((np.nextafter(end, end - (inward - end)), False))
    cases += [(-math.inf, lo == -math.inf and ends[0] == "["),
              (math.inf, hi == math.inf and ends[1] == "]")]
    return cases


def int_cases(low):
    return [(low, True), (low + 1, True), (low - 1, False), (float(low), False),
            (math.nan, False), (-math.inf, False), (math.inf, False), (True, False)]


RANGE_CASES = [
    pytest.param(check, value, accepted, id=f"{name}={value!r}")
    for name, check, lo, hi, ends in REAL_RANGES
    for value, accepted in real_cases(lo, hi, ends)
] + [
    pytest.param(check, value, accepted, id=f"{name}={value!r}")
    for name, check, low in INT_RANGES
    for value, accepted in int_cases(low)
]


# The largest finite radius overflows ell * ell inside the transforms.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("check, value, accepted", RANGE_CASES)
def test_each_checked_number_is_accepted_exactly_inside_its_range(check, value, accepted):
    if accepted:
        check(value)
    else:
        with pytest.raises(DomainError):
            check(value)
