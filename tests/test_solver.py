"""Auxiliary-problem solver: objective, certificates, regimes."""

import math

import numpy as np
import pytest

import massopt as mo
from massopt import solver

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


# -- problem assembly -------------------------------------------------------

def test_build_problem_evaluates_weight_once_per_cell():
    calls = []

    def w(x):
        calls.append(x)
        return 1.0 + 0.5 * float(x[0]) ** 2

    g = mo.interval_grid(-1.0, 1.0, 64)
    prob = mo.build_problem(g, mo.linear_cost(0.5, spatial_weight=w),
                            mo.SourceTerm.constant(g, 1.0))
    assert len(calls) == g.n_cells
    np.testing.assert_array_equal(prob.cell_weights,
                                  1.0 + 0.5 * g.cell_centers[:, 0] ** 2)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_build_problem_refuses_bad_weights(bad):
    g = mo.interval_grid(-1.0, 1.0, 16)
    table = np.ones(g.n_cells)
    table[5] = bad
    with pytest.raises(mo.InvalidCost, match="finite and positive"):
        mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0),
                         cell_weights=table)
    with pytest.raises(mo.InvalidCost, match="finite and positive"):
        mo.build_problem(g, mo.quadratic_cost(spatial_weight=lambda x: bad),
                         mo.SourceTerm.constant(g, 1.0))


@pytest.mark.parametrize("budget", [0, -3])
def test_solver_params_refuse_budget_below_one(budget):
    with pytest.raises(ValueError, match="max_iterations"):
        mo.SolverParams(max_iterations=budget)


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


def _radial_quadratic(n=512):
    g = mo.radial_grid(1.0, n, 2)
    return mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))


@pytest.mark.parametrize("make_problem", [
    lambda: interval_problem(mo.linear_cost(0.5), n=512),
    _radial_quadratic,
    lambda: mo.fixture("reciprocal_interval").build(512),
], ids=["interval-linear", "radial-quadratic", "reciprocal-interval"])
def test_certificate_first_skips_splitting(monkeypatch, make_problem):
    # the exact 1-d certificate closes the gap before any splitting step,
    # so neither the operator norm nor an iteration is needed
    def no_splitting(*_args, **_kwargs):
        raise AssertionError("the splitting ran")

    monkeypatch.setattr(solver, "operator_norm", no_splitting)
    prob = make_problem()
    sol = mo.solve_auxiliary(prob)
    assert sol.converged
    assert sol.iterations == 0
    assert len(sol.log) == 1 and sol.log[0][0] == 0
    assert sol.log[0][1:] == (sol.objective, sol.dual_value, sol.gap)


@pytest.mark.parametrize("make_problem", [
    lambda: interval_problem(mo.quadratic_cost(), n=256),
    lambda: _radial_quadratic(256),
], ids=["interval", "radial"])
def test_open_certificate_takes_no_splitting(monkeypatch, make_problem):
    # a tolerance below the certificate's rounding-level gap keeps it open;
    # the 1-d solve still ends after its one certificate
    calls = []
    build = solver.feasible_flux_1d

    def counted(problem):
        calls.append(problem)
        return build(problem)

    monkeypatch.setattr(solver, "feasible_flux_1d", counted)
    monkeypatch.setattr(solver, "operator_norm", _no_splitting)
    sol = mo.solve_auxiliary(make_problem(), mo.SolverParams(
        max_iterations=100, check_every=25, gap_tolerance=1e-300))
    assert len(calls) == 1
    assert not sol.converged and sol.method == "certificate"
    assert sol.iterations == 0
    assert len(sol.log) == 1 and sol.log[0][0] == 0
    assert sol.log[0][1:] == (sol.objective, sol.dual_value, sol.gap)
    assert 0.0 < sol.rel_gap <= 1e-15


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
    mu = mo.recover_measure(sol, prob)
    rep = mo.verify_conditions(mu, sol, prob)
    for field, value in rep.residuals().items():
        assert value <= 1e-10, (field, value)


_TS = np.linspace(0.0, 8.0, 257)


@pytest.mark.parametrize("weighted", [False, True], ids=["homogeneous", "weighted"])
@pytest.mark.parametrize("cost", [
    mo.quadratic_cost(), mo.linear_cost(0.5), mo.tabulated_cost(_TS, _TS + _TS ** 2 / 2.0),
], ids=["quadratic", "linear", "dead-zone-table"])
def test_interval_selection_is_the_flux_inverse(cost, weighted):
    # a nonzero flux fixes its cell's gradient to the inverse of the flux;
    # the zero-flux cells alone absorb the mean, within the dead-zone edge
    grid = mo.interval_grid(-1.0, 1.0, 255)
    w = 1.0 + 0.5 * (grid.cell_centers[:, 0] + 1.0) if weighted else None
    prob = mo.build_problem(grid, cost, mo.SourceTerm.constant(grid, 1.0), w)
    sigma, g, t = solver.feasible_flux_1d(prob)
    sigma = sigma[:, 0]
    h = grid.cell_h
    assert abs(np.dot(h, g)) <= 1e-12 * np.dot(h, np.abs(g))
    flux = sigma != 0.0
    assert np.array_equal(g[flux], (t * np.sign(sigma))[flux])
    edge = np.sqrt(1.0 if w is None else w) * cost.zero_flux_edge() * np.ones(grid.n_cells)
    assert np.all(np.abs(g[~flux]) <= edge[~flux])
    assert mo.solve_auxiliary(prob).converged


def test_zero_flux_edge_closed_forms():
    assert mo.quadratic_cost().zero_flux_edge() == 0.0
    assert mo.power_cost(1.5).zero_flux_edge() == 0.0
    assert mo.reciprocal_cost().zero_flux_edge() == 0.0
    assert mo.linear_cost(0.5).zero_flux_edge() == pytest.approx(1.0, rel=1e-15)
    table = mo.tabulated_cost(_TS, _TS + _TS ** 2 / 2.0)
    assert table.zero_flux_edge() == pytest.approx(math.sqrt(2.0 * (1.0 + 1.0 / 64.0)),
                                                   rel=1e-15)


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


# -- per-cell scalar solves -------------------------------------------------

def _prox_three_way(problem, r, lam, iters=70):
    """Reference prox loop that tests both one-sided conjugate derivatives."""
    r = np.asarray(r, dtype=float)
    lo = np.zeros_like(r)
    hi = np.minimum(r, problem.cell_caps)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        s = 0.5 * mid * mid
        with np.errstate(invalid="ignore", over="ignore"):
            glo = mid + lam * mid * problem.conj_dminus(s)
            ghi = mid + lam * mid * problem.conj_dplus(s)
        go_right = ghi < r
        go_left = glo > r
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_left, mid, np.where(go_right, hi, mid))
    return 0.5 * (lo + hi)


def _tabulated_quadratic():
    ts = np.linspace(0.0, 4.0, 17)
    return mo.tabulated_cost(ts, 0.5 * ts * ts, alpha=1.0, beta=-0.5)


@pytest.mark.parametrize("make_cost, weighted", [
    (mo.quadratic_cost, False),
    (lambda: mo.power_cost(1.5), False),
    (lambda: mo.linear_cost(0.5), False),  # cap 1 < max r: both sides of it
    (mo.reciprocal_cost, False),
    (_tabulated_quadratic, False),
    (lambda: mo.linear_cost(0.5), True),
], ids=["quadratic", "power-1.5", "linear", "reciprocal", "tabulated", "weighted"])
def test_prox_matches_three_way_reference(make_cost, weighted):
    g = mo.interval_grid(-1.0, 1.0, 64)
    weights = np.linspace(0.5, 2.0, g.n_cells) if weighted else None
    prob = mo.build_problem(g, make_cost(), mo.SourceTerm.constant(g, 1.0),
                            cell_weights=weights)
    r = np.linspace(0.0, 3.0, g.n_cells)
    lam = np.linspace(0.01, 5.0, g.n_cells)[::-1]
    got = solver._prox_bisect(prob, r, lam)
    assert np.array_equal(got, _prox_three_way(prob, r, lam))


def test_prox_quadratic_closed_form():
    # real root of lam/2 t^3 + t = r: t = -2 sqrt(p/3) sinh(asinh(3q/(2p) sqrt(3/p)) / 3)
    # for the depressed cubic t^3 + p t + q with p = 2/lam, q = -2r/lam
    prob = interval_problem(mo.quadratic_cost(), n=64)
    r = np.geomspace(1e-6, 1e3, prob.grid.n_cells)
    lam = np.geomspace(1e-3, 1e2, prob.grid.n_cells)
    p, q = 2.0 / lam, -2.0 * r / lam
    exact = -2.0 * np.sqrt(p / 3.0) * np.sinh(
        np.arcsinh(1.5 * q / p * np.sqrt(3.0 / p)) / 3.0)
    np.testing.assert_allclose(solver._prox_bisect(prob, r, lam), exact,
                               rtol=1e-14, atol=0.0)


# -- two dimensions ---------------------------------------------------------

def test_project_flux_reused_factor_is_exact():
    # one unit-weight factor serves every projection of a solve; reusing it
    # gives exactly what a fresh factorisation gives
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 2.0, 9, 14)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))

    def fresh():
        return mo.grids.spd_factor(mo.grids.stiffness(g, np.ones(g.n_cells)))

    shared = fresh()
    rng = np.random.default_rng(3)
    for _ in range(3):
        y = rng.standard_normal((g.n_cells, 2))
        sigma, res = solver._project_flux(prob, y, shared)
        sigma_new, res_new = solver._project_flux(prob, y, fresh())
        assert np.array_equal(sigma, sigma_new) and res == res_new
        assert res <= 1e-12


def test_rectangle_quadratic_certified():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 20, 20)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=3000,
                                                   gap_tolerance=1e-6, check_every=50))
    assert sol.converged
    assert sol.dual_residual <= 1e-10


class _SplittingRan(Exception):
    pass


def _no_splitting(*_args, **_kwargs):
    raise _SplittingRan()


def _rectangle_problem(cost, weighted=False, nx=14, ny=11):
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.5, nx, ny)
    weights = np.geomspace(0.2, 5.0, g.n_cells) if weighted else None
    return mo.build_problem(g, cost, mo.SourceTerm.constant(g, 1.0), cell_weights=weights)


@pytest.mark.parametrize("make_cost, weighted", [
    (mo.quadratic_cost, False),
    (lambda: mo.power_cost(1.5), False),
    (lambda: mo.power_cost(3.0), False),
    (mo.quadratic_cost, True),
], ids=["quadratic", "power-1.5", "power-3", "weighted-quadratic"])
def test_newton_hessian_matches_gradient_differences(make_cost, weighted):
    # the tensor stiffness of the 2x2 Hessian blocks is the derivative of
    # the objective's first variation
    prob = _rectangle_problem(make_cost(), weighted, nx=9, ny=11)
    g = prob.grid
    idx = g.interior_idx
    rng = np.random.default_rng(7)
    u = np.zeros(g.n_nodes)
    v = np.zeros(g.n_nodes)
    u[idx] = rng.standard_normal(idx.size)
    v[idx] = rng.standard_normal(idx.size)
    grad = g.gradient_apply(u)
    d = prob.conj_dplus(0.5 * np.sum(grad * grad, axis=1))
    H = mo.grids.stiffness(g, solver._hessian_blocks(prob, grad, d, prob.cost.conj_exponent))
    h = 1e-5
    fd = (mo.objective_gradient(prob, u + h * v)
          - mo.objective_gradient(prob, u - h * v))[idx] / (2.0 * h)
    assert np.linalg.norm(H @ v[idx] - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("make_cost, weighted", [
    (mo.quadratic_cost, False),
    (lambda: mo.power_cost(1.5), False),
    (lambda: mo.power_cost(3.0), True),
], ids=["quadratic", "power-1.5", "weighted-power-3"])
def test_rectangle_power_law_costs_solve_by_newton(monkeypatch, make_cost, weighted):
    monkeypatch.setattr(solver, "operator_norm", _no_splitting)
    prob = _rectangle_problem(make_cost(), weighted)
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and sol.method == "newton"
    assert 0 < sol.iterations <= 12
    # one certificate per iterate, the start included
    assert [row[0] for row in sol.log] == list(range(sol.iterations + 1))
    assert sol.log[-1][1:] == (sol.objective, sol.dual_value, sol.gap)
    assert sol.dual_residual <= 1e-12
    assert np.linalg.norm(mo.objective_gradient(prob, sol.u)) <= 1e-9 * np.linalg.norm(prob.load)


def test_rectangle_tabulated_cost_takes_splitting(monkeypatch):
    monkeypatch.setattr(solver, "operator_norm", _no_splitting)
    prob = _rectangle_problem(_tabulated_quadratic())
    assert prob.cost.conj_exponent is None
    with pytest.raises(_SplittingRan):
        mo.solve_auxiliary(prob)


def test_newton_budget_counts_steps():
    prob = _rectangle_problem(mo.power_cost(1.5))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=2))
    assert not sol.converged and sol.method == "newton"
    assert sol.iterations == 2 and len(sol.log) == 3


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
