"""Closed-form fixtures and the coordinate-descent oracle."""

import math

import numpy as np
import pytest

import massopt as mo


# -- fixture catalog ----------------------------------------------------------

def test_fixture_peak_values():
    assert mo.fixture("quadratic_ball_uniform", 1).u_exact(0.0) == \
        pytest.approx(0.75 * 2.0 ** (1.0 / 3.0))
    assert mo.fixture("quadratic_ball_uniform", 2).u_exact(0.0) == pytest.approx(0.75)
    assert mo.fixture("quadratic_ball_uniform", 3).u_exact(0.0) == \
        pytest.approx(0.75 * (2.0 / 3.0) ** (1.0 / 3.0))


def test_fixture_dirac_density_form():
    fix = mo.fixture("quadratic_ball_dirac", 2)
    r = np.array([0.2, 0.5, 0.8])
    assert np.allclose(fix.a_exact(r), 2.0 ** (-1.0 / 3.0) * r ** (-2.0 / 3.0))


def test_fixture_boundary_and_sign():
    for name, dim in [("quadratic_ball_uniform", 2), ("quadratic_ball_dirac", 3),
                      ("mk_interval_uniform", None), ("reciprocal_interval", None)]:
        fix = mo.fixture(name, dim)
        assert abs(fix.u_exact(1.0)) <= 1e-14   # vanishes on the boundary
        r = np.linspace(0.11, 0.95, 11)
        assert np.all(fix.a_exact(r) >= 0.0)


def test_fixture_unknown_and_missing_dimension():
    with pytest.raises(mo.UnknownFixture):
        mo.fixture("nope")
    with pytest.raises(mo.UnknownFixture):
        mo.fixture("quadratic_ball_uniform")
    with pytest.raises(mo.UnknownFixture):
        mo.fixture("quadratic_ball_dirac", 4)


def test_dirac_source_mass_matches_flux_balance():
    # -div(a grad u) through any sphere carries the full source mass, which
    # flux balance of the closed forms pins at the unit-sphere surface measure
    fix = mo.fixture("quadratic_ball_dirac", 2)
    grid = fix.grid(64)
    src = fix.source(grid)
    assert src.atoms[0][1] == pytest.approx(2.0 * math.pi)
    fix3 = mo.fixture("quadratic_ball_dirac", 3)
    assert fix3.source(fix3.grid(64)).atoms[0][1] == pytest.approx(4.0 * math.pi)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fixture_satisfies_strong_pde(dim):
    # weak residual of -div(|grad u|^2 grad u) = 2 f for the sampled exact
    # field, away from the origin, shrinks at least linearly with h
    fix = mo.fixture("quadratic_ball_uniform", dim)
    sups = []
    for n in (256, 512):
        grid = fix.grid(n)
        u = fix.u_exact(grid.node_coords[:, 0])
        g = grid.gradient_apply(u)
        flux = g * (grid.cell_volumes * np.sum(g * g, axis=1))[:, None]
        resid = grid.gradient_adjoint(flux) - 2.0 * fix.source(grid).load_vector()
        keep = (~grid.boundary_mask) & (np.abs(grid.node_coords[:, 0]) >= 0.1)
        sups.append(np.max(np.abs(resid[keep]) / grid.node_weights[keep]))
    assert sups[1] <= 0.6 * sups[0]


def test_fixture_errors_windowing():
    fix = mo.fixture("quadratic_ball_dirac", 2)
    prob = fix.build(512)
    sol = mo.solve_auxiliary(prob)
    mu = mo.recover_measure(sol, prob)
    u_err, a_err = mo.fixture_errors(fix, prob.grid, sol.u.values, mu)
    assert u_err <= 0.01
    assert a_err <= 0.05


# -- brute-force minimizer ----------------------------------------------------

def test_brute_force_small_quadratic():
    g = mo.interval_grid(-1.0, 1.0, 4)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(gap_tolerance=1e-12))
    val, u = mo.brute_force_min(prob)
    assert abs(val - sol.objective) <= 1e-6
    assert abs(u[0]) == 0.0 and abs(u[-1]) == 0.0


def test_brute_force_zero_source():
    g = mo.interval_grid(-1.0, 1.0, 6)
    prob = mo.build_problem(g, mo.reciprocal_cost(), mo.SourceTerm.constant(g, 0.0))
    val, u = mo.brute_force_min(prob)
    # the descent stops once a pass no longer lowers the value, so the
    # iterate is near 0 to within the objective's flatness, not exactly 0
    assert np.max(np.abs(u)) <= 1e-6
    # value = sum vol * c*(0) = 2 * (-2)
    assert val == pytest.approx(-4.0, rel=1e-12)


def test_brute_force_respects_gradient_box():
    g = mo.interval_grid(-1.0, 1.0, 8)
    prob = mo.build_problem(g, mo.linear_cost(0.5), mo.SourceTerm.constant(g, 1.0))
    _val, u = mo.brute_force_min(prob)
    grads = np.abs(np.diff(u)) / g.cell_h
    assert np.max(grads) <= 1.0 + 1e-12  # feasibility exact by construction


def test_brute_force_size_guard():
    g = mo.interval_grid(-1.0, 1.0, 12)  # 11 interior nodes
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    with pytest.raises(mo.TooLarge):
        mo.brute_force_min(prob)
    rg = mo.radial_grid(1.0, 4, 2)
    prob2 = mo.build_problem(rg, mo.quadratic_cost(), mo.SourceTerm.constant(rg, 1.0))
    with pytest.raises(mo.TooLarge):
        mo.brute_force_min(prob2)


def test_mutual_sandwich():
    # the oracle value can exceed the solver value only within gap tolerance
    g = mo.interval_grid(-1.0, 1.0, 7)
    rng = np.random.default_rng(3)
    f = mo.SourceTerm(g, density=rng.standard_normal(g.n_nodes))
    prob = mo.build_problem(g, mo.quadratic_cost(), f)
    sol = mo.solve_auxiliary(prob, mo.SolverParams(gap_tolerance=1e-12))
    val, _u = mo.brute_force_min(prob)
    assert val >= sol.dual_value - 1e-9
    assert sol.objective <= val + 1e-9
