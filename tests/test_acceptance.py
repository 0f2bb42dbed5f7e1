"""End-to-end verification suite: one test per numbered criterion.

Each test delegates to the corresponding check in `graphwhs.checks`, prints
its single PASS/FAIL line, and asserts the verdict.  The entries marked
``slow`` are the Monte-Carlo comparisons (8 and 12) and the transport oracle
(13); everything else finishes in seconds.
"""

import pytest

from graphwhs import checks


def _run(fn, **kwargs):
    result = fn(**kwargs)
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_probability_weight_axioms():
    _run(checks.criterion_1)


def test_criterion_02_integration_by_parts():
    _run(checks.criterion_2)


def test_criterion_03_gradient_oracle():
    _run(checks.criterion_3)


def test_criterion_04_mass_conservation():
    _run(checks.criterion_4)


def test_criterion_05_wave_transform_consistency():
    _run(checks.criterion_5)


def test_criterion_06_energy_regularity_scaling():
    _run(checks.criterion_6)


def test_criterion_07_legendre_transform_oracle():
    _run(checks.criterion_7)


@pytest.mark.slow
def test_criterion_08_dynamic_programming_consistency():
    _run(checks.criterion_8)


def test_criterion_09_energy_cutoff_apparatus():
    _run(checks.criterion_9)


def test_criterion_10_sup_inf_convolution():
    _run(checks.criterion_10)


def test_criterion_11_grid_solver_sanity():
    _run(checks.criterion_11)


@pytest.mark.slow
def test_criterion_12_grid_solver_vs_monte_carlo():
    _run(checks.criterion_12)


@pytest.mark.slow
def test_criterion_13_transport_distance_oracle():
    _run(checks.criterion_13)
