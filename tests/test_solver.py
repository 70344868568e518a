"""Auxiliary-problem solver: objective, certificates, regimes."""

import math

import numpy as np
import pytest

import massopt as mo

INF = math.inf


def interval_problem(cost, n=256, value=1.0):
    g = mo.interval_grid(-1.0, 1.0, n)
    return mo.build_problem(g, cost, mo.SourceTerm.constant(g, value))


# -- objective --------------------------------------------------------------

def test_objective_zero_field():
    prob = interval_problem(mo.quadratic_cost())
    assert mo.objective_eval(prob, np.zeros(prob.grid.n_nodes)) == 0.0


def test_objective_infeasible_gradient_is_inf():
    prob = interval_problem(mo.linear_cost(0.5), n=16)
    u = mo.ScalarField.from_function(prob.grid, lambda p: 2.0 * (1.0 - abs(p[0])))
    assert mo.objective_eval(prob, u) == INF


def test_objective_polynomial_value():
    # int (x^2/2)^2/2 dx - int (1-x^2)/2 dx = 1/20 - 2/3 = -37/60
    prob = interval_problem(mo.quadratic_cost(), n=2048)
    u = mo.ScalarField.from_function(prob.grid, lambda p: (1.0 - p[0] ** 2) / 2.0)
    assert mo.objective_eval(prob, u) == pytest.approx(-37.0 / 60.0, abs=1e-5)


def test_objective_zero_source_reciprocal():
    # f = 0: minimum is u = 0 with value |domain| * c*(0) = 2 * (-2)
    prob = interval_problem(mo.reciprocal_cost(), value=0.0)
    sol = mo.solve_auxiliary(prob)
    assert np.max(np.abs(sol.u.values)) <= 1e-12
    assert sol.objective == pytest.approx(-4.0, rel=1e-12)


# -- solve: superlinear -----------------------------------------------------

def test_solve_interval_quadratic_peak():
    # peak value (3/4) * 2^(1/3) of the one-dimensional closed form
    prob = interval_problem(mo.quadratic_cost(), n=1024)
    sol = mo.solve_auxiliary(prob)
    assert sol.converged
    mid = prob.grid.n_nodes // 2
    exact = 0.75 * 2.0 ** (1.0 / 3.0)
    assert abs(sol.u.values[mid] - exact) / exact <= 0.005


def test_solve_radial_ball_three_dim_peak():
    g = mo.radial_grid(1.0, 1024, 3)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob)
    exact = 0.75 * (2.0 / 3.0) ** (1.0 / 3.0)
    assert sol.u.values[0] == pytest.approx(exact, rel=0.005)


def test_zero_source_quadratic():
    prob = interval_problem(mo.quadratic_cost(), value=0.0)
    sol = mo.solve_auxiliary(prob)
    assert np.max(np.abs(sol.u.values)) <= 1e-12
    assert sol.objective == pytest.approx(0.0, abs=1e-14)


# -- solve: linear regime ---------------------------------------------------

def test_linear_regime_lipschitz_bound():
    prob = interval_problem(mo.linear_cost(0.5), n=512)
    sol = mo.solve_auxiliary(prob)
    assert prob.lip_bound == pytest.approx(1.0)
    assert sol.max_gradient <= 1.0 + 1e-9


def test_reciprocal_solution_matches_closed_form():
    fix = mo.fixture("reciprocal_interval")
    prob = fix.build(512)
    sol = mo.solve_auxiliary(prob)
    u_ex = fix.u_exact(prob.grid.node_coords[:, 0])
    assert np.max(np.abs(sol.u.values - u_ex)) <= 1e-4
    assert sol.max_gradient <= math.sqrt(2.0) + 1e-9


# -- certificates -----------------------------------------------------------

def test_certified_gap_is_a_true_sandwich():
    prob = interval_problem(mo.quadratic_cost(), n=128)
    sol = mo.solve_auxiliary(prob)
    assert sol.objective >= sol.dual_value - 1e-12
    assert mo.objective_eval(prob, sol.u) == pytest.approx(sol.objective)
    assert sol.gap <= 1e-8 * max(1.0, abs(sol.objective))


def test_merit_monotone_over_accepted_iterates():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 12, 12)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=600, check_every=50,
                                                   gap_tolerance=1e-10))
    gaps = [row[3] for row in sol.log]
    for g1, g2 in zip(gaps[:-1], gaps[1:]):
        assert g2 <= g1 + 1e-12


def test_dual_flux_is_divergence_feasible():
    prob = interval_problem(mo.quadratic_cost(), n=200)
    sol = mo.solve_auxiliary(prob)
    mu = mo.DiscreteMeasure.lebesgue(prob.grid)
    div = mo.divergence_weighted(mu, sol.flux)
    interior = ~prob.grid.boundary_mask
    resid = np.abs(-div - prob.load)[interior]
    assert np.max(resid) <= 1e-10


@pytest.mark.parametrize("n", [2653, 3761])
def test_linear_certificate_closes_at_odd_resolution(n):
    # the sign-change cell of the flux sits mid-cell; its rounding-level
    # flux must not pin that cell's gradient to the cap
    fix = mo.fixture("mk_interval_uniform")
    prob = fix.build(n)
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=200))
    assert sol.converged
    assert sol.max_gradient <= prob.lip_bound * (1.0 + 1e-12)
    mu = mo.recover_measure_l_1d(sol, prob)
    rep = mo.verify_conditions(mu, sol, prob)
    for field, value in rep.residuals().items():
        assert value <= 1e-10, (field, value)


def test_symmetry_even_source():
    prob = interval_problem(mo.quadratic_cost(), n=200)
    sol = mo.solve_auxiliary(prob)
    assert np.max(np.abs(sol.u.values - sol.u.values[::-1])) <= 1e-8


# -- oracle agreement (small) ----------------------------------------------

def test_solver_matches_brute_force_small():
    g = mo.interval_grid(-1.0, 1.0, 5)
    f = mo.SourceTerm.constant(g, 1.0)
    prob = mo.build_problem(g, mo.quadratic_cost(), f)
    sol = mo.solve_auxiliary(prob, mo.SolverParams(gap_tolerance=1e-12))
    val, _u = mo.brute_force_min(prob)
    assert abs(sol.objective - val) <= 1e-6


def test_solution_converges_under_refinement():
    exact = 0.75 * 2.0 ** (1.0 / 3.0)
    errs = []
    for n in (64, 128, 256):
        prob = interval_problem(mo.quadratic_cost(), n=n)
        sol = mo.solve_auxiliary(prob)
        mid = prob.grid.n_nodes // 2
        errs.append(abs(sol.u.values[mid] - exact))
    assert errs[1] <= 0.5 * errs[0]
    assert errs[2] <= 0.5 * errs[1]


# -- first variation --------------------------------------------------------

def test_objective_gradient_matches_finite_differences():
    g = mo.interval_grid(-1.0, 1.0, 64)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    rng = np.random.default_rng(21)
    x = g.node_coords[:, 0]
    for _ in range(5):
        u = sum(c * np.sin((k + 1) * math.pi * x)
                for k, c in enumerate(rng.standard_normal(4)))
        d = sum(c * np.sin((k + 1) * math.pi * x)
                for k, c in enumerate(rng.standard_normal(4)))
        grad = mo.objective_gradient(prob, u)
        eps = 1e-5
        fd = (mo.objective_eval(prob, u + eps * d)
              - mo.objective_eval(prob, u - eps * d)) / (2.0 * eps)
        assert float(grad @ d) == pytest.approx(fd, rel=1e-5)


# -- two dimensions ---------------------------------------------------------

def test_rectangle_quadratic_certified():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 20, 20)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=3000,
                                                   gap_tolerance=1e-6, check_every=50))
    assert sol.converged
    assert sol.dual_residual <= 1e-10


def test_rectangle_linear_regime_feasible():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 16, 16)
    prob = mo.build_problem(g, mo.linear_cost(0.5), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=2500,
                                                   gap_tolerance=1e-3, check_every=50))
    assert sol.max_gradient <= 1.0 + 1e-9
    assert sol.objective >= sol.dual_value - 1e-12


# -- admissibility and failure modes ----------------------------------------

def test_dirac_admissibility_rules():
    g = mo.interval_grid(-1.0, 1.0, 32)
    atom_src = mo.SourceTerm(g, atoms=[(np.array([0.0]), 1.0)])
    # linear regime: always admissible
    mo.build_problem(g, mo.linear_cost(0.5), atom_src)
    # superlinear quadratic in dimension 1: admissible
    mo.build_problem(g, mo.quadratic_cost(), atom_src)
    with pytest.raises(mo.InadmissibleSource):
        mo.build_problem(g, mo.power_cost(3.0), atom_src)
    g4 = mo.radial_grid(1.0, 32, 4)
    with pytest.raises(mo.InadmissibleSource):
        mo.build_problem(g4, mo.quadratic_cost(),
                         mo.SourceTerm(g4, atoms=[(np.array([0.0]), 1.0)]))


def test_invalid_cost_rejected_at_build():
    g = mo.interval_grid(-1.0, 1.0, 32)
    bad = mo.expression_cost("t^0.5", alpha=1.0, beta=0.0)
    with pytest.raises(mo.InvalidCost):
        mo.build_problem(g, bad, mo.SourceTerm.constant(g, 1.0))


def test_not_converged_reports_best_iterate():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 12, 12)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=4,
                                                   gap_tolerance=1e-14, check_every=2))
    assert not sol.converged
    assert math.isfinite(sol.objective)
    with pytest.raises(mo.NotConverged) as err:
        mo.require_converged(sol)
    assert err.value.solution is sol


def test_iteration_log_written(tmp_path):
    prob = interval_problem(mo.quadratic_cost(), n=64)
    path = tmp_path / "iters.csv"
    mo.solve_auxiliary(prob, mo.SolverParams(log_path=str(path)))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,primal,dual,gap"
    assert len(lines) >= 2
