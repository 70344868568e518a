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


def _interval_source(cost, a, b, n, density):
    g = mo.interval_grid(a, b, n)
    return mo.build_problem(g, cost, mo.SourceTerm(g, density=density(g.node_coords[:, 0])))


def _no_factor(*_args, **_kwargs):
    raise AssertionError("a stiffness was factored")


# -- objective --------------------------------------------------------------

def test_objective_zero_field():
    prob = interval_problem(mo.quadratic_cost())
    assert mo.objective_eval(prob, np.zeros(prob.grid.n_nodes)) == 0.0


def test_objective_infeasible_gradient_is_inf():
    prob = interval_problem(mo.linear_cost(0.5), n=16)
    u = mo.ScalarField(prob.grid, 2.0 * (1.0 - np.abs(prob.grid.node_coords[:, 0])))
    assert mo.objective_eval(prob, u) == INF


def test_objective_polynomial_value():
    # int (x^2/2)^2/2 dx - int (1-x^2)/2 dx = 1/20 - 2/3 = -37/60
    prob = interval_problem(mo.quadratic_cost(), n=2048)
    u = mo.ScalarField(prob.grid, (1.0 - prob.grid.node_coords[:, 0] ** 2) / 2.0)
    assert mo.objective_eval(prob, u) == pytest.approx(-37.0 / 60.0, abs=1e-5)


def test_objective_zero_source_reciprocal():
    # f = 0: minimum is u = 0 with value |domain| * c*(0) = 2 * (-2)
    prob = interval_problem(mo.reciprocal_cost(), value=0.0)
    sol = mo.solve_auxiliary(prob)
    assert np.max(np.abs(sol.u.values)) <= 1e-12
    assert sol.objective == pytest.approx(-4.0, rel=1e-12)


# -- problem assembly -------------------------------------------------------

def test_build_problem_takes_weights_per_cell():
    w = lambda x: 1.0 + 0.5 * float(x[0]) ** 2
    g = mo.interval_grid(-1.0, 1.0, 64)
    prob = mo.build_problem(g, mo.linear_cost(0.5), mo.SourceTerm.constant(g, 1.0),
                            cell_weights=[w(x) for x in g.cell_centers])
    np.testing.assert_array_equal(prob.cell_weights,
                                  1.0 + 0.5 * g.cell_centers[:, 0] ** 2)
    # every weighted problem states both of its unverified assumptions
    assert len(prob.assumptions) == 2


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_build_problem_refuses_bad_weights(bad):
    g = mo.interval_grid(-1.0, 1.0, 16)
    table = np.ones(g.n_cells)
    table[5] = bad
    with pytest.raises(mo.InvalidCost, match="finite and positive"):
        mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0),
                         cell_weights=table)
    with pytest.raises(mo.InvalidCost, match="finite and positive"):
        mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0),
                         cell_weights=np.full(g.n_cells, bad))


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
    assert np.max(prob.cell_caps) == pytest.approx(1.0)
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
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=600, gap_tolerance=1e-10))
    gaps = [row[3] for row in sol.log]
    for g1, g2 in zip(gaps[:-1], gaps[1:]):
        assert g2 <= g1 + 1e-12


def test_saturated_huber_interval_certifies():
    # a load of 4 saturates the Huber cost's linear tail near the ends, where
    # the certificate scores c* at its recession slope
    prob = interval_problem(mo.expression_cost("t - 0.5 if t >= 1 else t^2/2"), value=4.0)
    sol = mo.solve_auxiliary(prob)
    assert sol.max_gradient > 1.0
    assert sol.gap <= 1e-12 * abs(sol.objective)
    report = mo.verify_conditions(mo.recover_measure(sol, prob), sol.u, prob)
    assert report.inclusion_violation <= 1e-12 and report.duality_identity_error <= 1e-12


def _radial_quadratic(n=512):
    g = mo.radial_grid(1.0, n, 2)
    return mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))


@pytest.mark.parametrize("make_problem", [
    lambda: interval_problem(mo.linear_cost(0.5), n=512),
    lambda: interval_problem(mo.quadratic_cost(), value=0.0),
    _radial_quadratic,
    lambda: mo.fixture("reciprocal_interval").build(512),
], ids=["interval-linear", "interval-zero-load", "radial-quadratic", "reciprocal-interval"])
def test_1d_certificate_closes_without_iterating(monkeypatch, make_problem):
    # the exact 1-d certificate closes the gap with no iteration and no
    # stiffness factorisation; it hands over the field integrated from its
    # own gradient, scored once: no u = 0 field competes with it
    monkeypatch.setattr(solver, "stiffness_factor", _no_factor)
    prob = make_problem()
    scored = []
    score = solver.objective_eval
    monkeypatch.setattr(solver, "objective_eval",
                        lambda problem, u: scored.append(u) or score(problem, u))
    sol = mo.solve_auxiliary(prob)
    assert sol.converged
    assert sol.iterations == 0
    assert len(sol.log) == 1 and sol.log[0][0] == 0
    assert sol.log[0][1:] == (sol.objective, sol.dual_value, sol.gap)
    assert sol.dual_residual <= 1e-12
    _sigma, g, _t = solver.feasible_flux_1d(prob)
    assert np.array_equal(sol.u.values, solver._primal_from_gradient(prob.grid, g))
    assert len(scored) == 1 and sol.objective == score(prob, sol.u.values)


@pytest.mark.parametrize("make_problem", [
    lambda: interval_problem(mo.quadratic_cost(), n=256),
    lambda: _radial_quadratic(256),
], ids=["interval", "radial"])
def test_open_1d_certificate_ends_after_one_flux(monkeypatch, make_problem):
    # a tolerance below the certificate's rounding-level gap keeps it open;
    # the 1-d solve still ends after its one certificate
    calls = []
    build = solver.feasible_flux_1d

    def counted(problem):
        calls.append(problem)
        return build(problem)

    monkeypatch.setattr(solver, "feasible_flux_1d", counted)
    monkeypatch.setattr(solver, "stiffness_factor", _no_factor)
    sol = mo.solve_auxiliary(make_problem(), mo.SolverParams(
        max_iterations=100, gap_tolerance=1e-300))
    assert len(calls) == 1
    assert not sol.converged and sol.method == "certificate"
    assert sol.iterations == 0
    assert len(sol.log) == 1 and sol.log[0][0] == 0
    assert sol.log[0][1:] == (sol.objective, sol.dual_value, sol.gap)
    assert 0.0 < sol.rel_gap <= 1e-15


@pytest.mark.parametrize("grid", [
    mo.interval_grid(-1.8219626490502898, -0.2760814667631626, 50), mo.radial_grid(1.5, 40, 2),
], ids=["interval", "radial"])
def test_zero_load_certificate_is_the_zero_field(grid):
    # the zero-mean root of a zero load is a subnormal flux, whose |sigma| / t
    # has lost its bits (a weighted reciprocal cost read 2.13 and 2.29 for
    # D-c*(0) = 2.147); the certificate is the zero flux and the +0 field
    w = np.geomspace(0.2, 5.0, grid.n_cells)
    prob = mo.build_problem(grid, mo.reciprocal_cost(0.2784881513578731, 1.2833335288938632),
                            mo.SourceTerm.constant(grid, 0.0), cell_weights=w)
    sol = mo.solve_auxiliary(prob)
    assert np.all(sol.flux.values == 0.0)
    assert np.all(sol.u.values == 0.0) and not np.any(np.signbit(sol.u.values))
    assert np.array_equal(sol.density, prob.conj_dminus(np.zeros(grid.n_cells)))
    assert sol.converged and sol.gap == 0.0


def test_certificate_closes_on_a_plateau_of_the_mean_gradient():
    # every cell near the flux's sign change sits on the dead-zone kink of a
    # table, so the mean gradient is zero, and rounds a hair below it, over
    # a whole interval of q0; the root search used to return its far end,
    # where the mean is 1.9e-6, and the certificate stayed open at 1.6e-7
    ts = np.array([0.0, 0.75909115805366367, 1.2209849943295423, 2.051698064719746,
                   2.8438662703978546, 3.7300379115524831, 4.2190357832607246,
                   4.7686784296482152, 5.4601637219097245, 6.004879920640021])
    cs = np.array([0.11870808933258037, 0.86878582754780376, 1.3906261175352808,
                   2.4072612335336756, 3.8238579535326247, 5.9544576214595768,
                   7.4835438983874942, 9.7320738800569107, 13.158214230856537,
                   16.350343551974916])
    g = mo.interval_grid(-1.8289521350357338, 1.1011552090855954, 48)
    prob = mo.build_problem(g, mo.tabulated_cost(ts, cs),
                            mo.SourceTerm.constant(g, 1.789518467644496))
    _sigma, grad, _t = solver.feasible_flux_1d(prob)
    assert abs(np.dot(g.widths[0], grad)) <= 1e-15
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and abs(sol.rel_gap) <= 1e-15


@pytest.mark.parametrize("make_problem", [
    lambda: _interval_source(mo.power_cost(1.1), -0.08571276085839075, 2.1676521533092634, 31,
                             lambda x: 1.0 + x),
    lambda: _interval_source(mo.expression_cost("t^1.5"), -1.4191707003825025,
                             -0.5533239738148501, 11, lambda x: np.full(x.size, 951.24)),
], ids=["power-1.1", "symmetric-t^1.5"])
def test_certificate_zeroes_only_a_flux_within_rounding(make_problem):
    # a flux counts as zero only within the rounding of q0 - cum: near
    # p = 1 a flux of 1e-12 still has the gradient 0.17, and zeroing it
    # left the mean gradient 0.013 off (relative gap 4.8e-4); the middle
    # cell of a symmetric load is at rounding level, and zeroing it closes
    prob = make_problem()
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and abs(sol.rel_gap) <= 1e-9
    rep = mo.verify_conditions(mo.recover_measure(sol, prob), sol.u, prob)
    assert rep.pde_residual <= 1e-5


def test_dual_flux_is_divergence_feasible():
    prob = interval_problem(mo.quadratic_cost(), n=200)
    sol = mo.solve_auxiliary(prob)
    mu = mo.DiscreteMeasure(prob.grid, np.ones(prob.grid.n_cells))
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
    assert sol.max_gradient <= np.max(prob.cell_caps) * (1.0 + 1e-12)
    mu = mo.recover_measure(sol, prob)
    rep = mo.verify_conditions(mu, sol.u, prob)
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
    h = grid.widths[0]
    assert abs(np.dot(h, g)) <= 1e-12 * np.dot(h, np.abs(g))
    flux = sigma != 0.0
    assert np.array_equal(g[flux], (t * np.sign(sigma))[flux])
    edge = np.sqrt(1.0 if w is None else w) * cost.zero_flux_edge() * np.ones(grid.n_cells)
    assert np.all(np.abs(g[~flux]) <= edge[~flux])
    assert mo.solve_auxiliary(prob).converged


def test_zero_flux_edge_closed_forms(monkeypatch):
    # expression costs are built first: their estimated growth constant
    # beta is one bisection, at construction, not in the edge
    sum_square = mo.expression_cost("t + t^2")
    sum_reciprocal = mo.expression_cost("t + 1/t")
    half = mo.expression_cost("t/2")

    def fail(*_args, **_kwargs):
        raise AssertionError("the dead-zone edge fell back to bisection")

    monkeypatch.setattr(mo.costs, "bisect", fail)
    assert mo.quadratic_cost().zero_flux_edge() == 0.0
    assert mo.power_cost(1.5).zero_flux_edge() == 0.0
    assert mo.reciprocal_cost().zero_flux_edge() == 0.0
    assert mo.linear_cost(0.5).zero_flux_edge() == pytest.approx(1.0, rel=1e-15)
    assert mo.regularized_cost(mo.linear_cost(0.5), 1e-3).zero_flux_edge() == \
        pytest.approx(1.0, rel=1e-15)
    assert mo.regularized_cost(mo.quadratic_cost(), 1e-3).zero_flux_edge() == 0.0
    table = mo.tabulated_cost(_TS, _TS + _TS ** 2 / 2.0)
    edge = table.zero_flux_edge()
    assert edge == pytest.approx(math.sqrt(2.0 * (1.0 + 1.0 / 64.0)), rel=1e-15)
    # the edge is rounded down onto the dead zone: sqrt(2 * 0.3) rounds up
    kinked = mo.tabulated_cost([0.0, 1.0, 2.0], [0.0, 0.3, 1.0])
    edge = kinked.zero_flux_edge()
    assert edge == pytest.approx(math.sqrt(0.6), rel=1e-15)
    assert kinked.conjugate_dminus(0.5 * edge * edge) == 0.0
    shifted = _TS[1:] + 0.5
    assert mo.tabulated_cost(shifted, shifted ** 2 / 2.0).zero_flux_edge() == 0.0
    # an expression's dead zone is its upper derivative at 0: the edge of
    # t + t^2 is the largest float with t^2/2 <= 1
    edge = sum_square.zero_flux_edge()
    assert 0.5 * edge * edge <= 1.0 < 0.5 * math.nextafter(edge, math.inf) ** 2
    assert sum_reciprocal.zero_flux_edge() == 0.0
    assert mo.regularized_cost(half, 1e-3).zero_flux_edge() == \
        pytest.approx(1.0, rel=1e-15)


def _reference_flux_level(prob):
    """``q0`` of the interval certificate by a 240-step bisection, and its flux."""
    grid = prob.grid
    h, vol = grid.widths[0], grid.cell_volumes
    cum = np.concatenate([[0.0], np.cumsum(prob.load[1:grid.n_cells])])

    def mean_grad(q0):
        sigma = (q0 - cum) * h / vol
        t = prob.invert_flux(np.abs(sigma))
        return float(np.dot(h, t * np.sign(sigma)))

    q0 = float(mo.costs.bisect(lambda q: mean_grad(q) < 0.0, float(np.min(cum)) - 1.0,
                               float(np.max(cum)) + 1.0, 240))
    sigma = (q0 - cum) * h / vol
    sigma[np.abs(sigma) <= 1e-12 * np.max(np.abs(sigma))] = 0.0
    return q0, sigma


_LEVEL_COSTS = [
    ("quadratic", mo.quadratic_cost), ("power1.5", lambda: mo.power_cost(1.5)),
    ("reciprocal", mo.reciprocal_cost), ("linear", lambda: mo.linear_cost(0.5)),
    ("dead-zone-table", lambda: mo.tabulated_cost(_TS, _TS + _TS ** 2 / 2.0)),
]


@pytest.mark.parametrize("weighted", [False, True], ids=["homogeneous", "weighted"])
@pytest.mark.parametrize("make_cost, atoms", [
    pytest.param(f, atoms, id=name + ("-atoms" if atoms else ""))
    for name, f in _LEVEL_COSTS for atoms in (False, True)
    # Dirac sources need a linear-regime or the quadratic cost
    if not atoms or name in ("quadratic", "reciprocal", "linear")])
def test_interval_flux_level_matches_reference_bisection(make_cost, atoms, weighted):
    # the breakpoint search lands within a few ulps of where a long
    # bisection of the mean gradient ends, with the same certificate
    cost = make_cost()
    grid = mo.interval_grid(-1.0, 1.0, 511)
    x = grid.node_coords[:, 0]
    w = 1.0 + 0.5 * (grid.cell_centers[:, 0] + 1.0) if weighted else None
    source = mo.SourceTerm(grid, density=1.0 + np.sin(3.0 * x),
                           atoms=[(np.array([0.3]), 0.7)] if atoms else [])
    prob = mo.build_problem(grid, cost, source, w)
    q_ref, sigma_ref = _reference_flux_level(prob)
    sigma = solver.feasible_flux_1d(prob)[0][:, 0]
    scale = float(np.max(np.abs(sigma_ref))) + abs(q_ref)
    assert np.max(np.abs(sigma - sigma_ref)) <= 4.0 * np.finfo(float).eps * scale
    sol = mo.solve_auxiliary(prob)
    assert sol.converged
    dual_ref = solver._dual_value(prob, sigma_ref[:, None])
    assert sol.dual_value == pytest.approx(dual_ref, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("n", [255, 4096])
@pytest.mark.parametrize("weighted", [False, True], ids=["homogeneous", "weighted"])
@pytest.mark.parametrize("make_cost", [f for _, f in _LEVEL_COSTS],
                         ids=[name for name, _ in _LEVEL_COSTS])
def test_interval_certificate_takes_few_flux_inversions(monkeypatch, make_cost, weighted, n):
    # a binary search over the breakpoints, then a few secant steps; the
    # bisection it replaced took 120 inversions
    calls = []
    invert = mo.CostFunction.invert_flux

    def counted(self, vabs, weight=1.0):
        calls.append(1)
        return invert(self, vabs, weight)

    monkeypatch.setattr(mo.CostFunction, "invert_flux", counted)
    grid = mo.interval_grid(-1.0, 1.0, n)
    w = 1.0 + 0.5 * (grid.cell_centers[:, 0] + 1.0) if weighted else None
    source = mo.SourceTerm(grid, density=1.0 + np.sin(3.0 * grid.node_coords[:, 0]))
    sol = mo.solve_auxiliary(mo.build_problem(grid, make_cost(), source, w))
    assert sol.converged
    assert len(calls) <= math.log2(n) + 20


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


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("make_cost", [
    mo.quadratic_cost, lambda: mo.power_cost(2.5), mo.reciprocal_cost,
    lambda: mo.linear_cost(0.5),
], ids=["quadratic", "power-2.5", "reciprocal", "linear"])
def test_solver_matches_brute_force_weighted(make_cost, n):
    # the oracle scores every cell's weighted conjugate w * c0*(s / w) itself
    g = mo.interval_grid(-1.0, 1.0, n)
    prob = mo.build_problem(g, make_cost(), mo.SourceTerm.constant(g, 1.0),
                            np.geomspace(0.2, 5.0, n))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(gap_tolerance=1e-12))
    val, _u = mo.brute_force_min(prob)
    assert abs(sol.objective - val) <= 1e-10 * max(1.0, abs(val))


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


def _tabulated_quadratic():
    ts = np.linspace(0.0, 4.0, 17)
    return mo.tabulated_cost(ts, 0.5 * ts * ts)


# -- two dimensions ---------------------------------------------------------

def _atom_quadratic():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.5, 14, 11)
    return mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm(
        g, density=np.ones(g.n_nodes), atoms=[((0.5, 0.75), 0.3)]))


@pytest.mark.parametrize("make_problem", [
    lambda: _rectangle_problem(mo.quadratic_cost()),
    lambda: _rectangle_problem(mo.power_cost(1.5)),
    lambda: _rectangle_problem(mo.power_cost(3.0), weighted=True),
    _atom_quadratic,
    lambda: _rectangle_problem(mo.linear_cost(0.5)),
    lambda: _rectangle_problem(_tabulated_quadratic()),
], ids=["quadratic", "power-1.5", "weighted-power-3", "quadratic-atom", "barrier", "table"])
def test_step_certificate_is_divergence_feasible(make_problem):
    # the Newton step's own solve corrects the flux onto the divergence
    # constraint: G^T (vol * sigma) = F on the interior to rounding
    prob = make_problem()
    g = prob.grid
    idx = g.interior_idx
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and sol.method == "newton"
    div = g.gradient_adjoint(sol.flux.values * g.cell_volumes[:, None])
    F = prob.load
    assert np.linalg.norm(div[idx] - F[idx]) <= 1e-12 * np.linalg.norm(F)
    assert sol.dual_residual <= 1e-12


def test_certificate_is_feasible_for_any_positive_definite_blocks():
    # G^T (flux + B G z) = F holds for every positive definite B, not only
    # the Newton Hessian: B = L L^T per cell with a random lower triangle L
    prob = _rectangle_problem(mo.quadratic_cost())
    g = prob.grid
    idx, vol, F = g.interior_idx, g.cell_volumes, prob.load
    rng = np.random.default_rng(11)
    l11, l22 = rng.uniform(0.1, 2.0, (2, g.n_cells))
    l21 = rng.standard_normal(g.n_cells)
    blocks = (l11 * l11, l11 * l21, l21 * l21 + l22 * l22)
    flux = rng.standard_normal((g.n_cells, 2))
    z = np.zeros(g.n_nodes)
    z[idx] = mo.grids.stiffness_factor(g, blocks).solve((F - g.gradient_adjoint(flux))[idx])
    dual, sigma = solver._certify(prob, flux, blocks, z)
    div = g.gradient_adjoint(sigma * vol[:, None])
    assert np.linalg.norm(div[idx] - F[idx]) <= 1e-12 * np.linalg.norm(F[idx])
    assert dual == solver._dual_value(prob, sigma)
    # a flux that already meets F is certified as it is by z = 0
    poisson = np.zeros(g.n_nodes)
    poisson[idx] = mo.grids.stiffness_factor(g, np.ones(g.n_cells)).solve(F[idx])
    feasible = g.gradient_apply(poisson)
    _dual, sigma = solver._certify(prob, feasible, blocks, np.zeros(g.n_nodes))
    assert np.array_equal(sigma, feasible / vol[:, None])


def test_rectangle_quadratic_certified():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 20, 20)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=3000, gap_tolerance=1e-6))
    assert sol.converged
    assert sol.dual_residual <= 1e-10


def _rectangle_problem(cost, weighted=False, nx=14, ny=11):
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.5, nx, ny)
    weights = np.geomspace(0.2, 5.0, g.n_cells) if weighted else None
    return mo.build_problem(g, cost, mo.SourceTerm.constant(g, 1.0), cell_weights=weights)


def _assert_count_rule(sol):
    # every step attempted factors a Hessian or reuses the held factor (a
    # power law's start factors nothing), and each level ends on at most one
    # step that made no progress (or a singular Hessian)
    extra = sol.factorisations + sol.chord_steps - sol.iterations
    assert 0 <= extra <= max(sol.mu_levels, 1)


def _first_variation(prob, u, mu):
    """First variation of the objective at smoothing level ``mu`` (exact when None)."""
    return solver._Point(prob, u, mu).variation[1]


@pytest.mark.parametrize("make_cost, weighted, mu", [
    (mo.quadratic_cost, False, None),
    (lambda: mo.power_cost(1.5), False, None),
    (lambda: mo.power_cost(3.0), False, None),
    (mo.quadratic_cost, True, None),
    (mo.reciprocal_cost, False, 1e-2),
    (lambda: mo.regularized_cost(mo.linear_cost(0.5), 1e-2), False, 1e-2),
    (lambda: mo.expression_cost("t + t^2/2"), False, 1e-2),
    (lambda: mo.expression_cost("t + 1/t"), False, 1e-2),
    (lambda: mo.linear_cost(0.5), True, 1e-2),
    # log-sum-exp: slopes up to 200, past every cell's s = |grad u|^2 / 2; at
    # mu = 1e-2 its curvature turns within the differences' step
    (lambda: mo.tabulated_cost(np.linspace(0.5, 200.0, 400),
                               0.5 * np.linspace(0.5, 200.0, 400) ** 2), False, 1e-1),
], ids=["quadratic", "power-1.5", "power-3", "weighted-quadratic", "reciprocal",
        "regularized-linear", "expression", "expression-reciprocal", "weighted-linear",
        "table"])
def test_newton_hessian_matches_gradient_differences(make_cost, weighted, mu):
    # the tensor stiffness of the 2x2 Hessian blocks is the derivative of
    # the first variation of the objective Newton minimises: the exact one
    # for a power law, the smoothed one at level mu for every other cost
    prob = _rectangle_problem(make_cost(), weighted, nx=9, ny=11)
    assert prob.cost.smoothing == (mu is not None)
    g = prob.grid
    idx = g.interior_idx
    rng = np.random.default_rng(7)
    u = np.zeros(g.n_nodes)
    v = np.zeros(g.n_nodes)
    u[idx] = rng.standard_normal(idx.size)
    v[idx] = rng.standard_normal(idx.size)
    if prob.regime == "L":
        # inside the gradient bound, where the barrier is finite
        u *= 0.8 * np.min(prob.cell_caps / np.linalg.norm(g.gradient_apply(u), axis=1))
    grad = g.gradient_apply(u)
    _value, d, rho = prob.level(0.5 * np.sum(grad * grad, axis=1), mu)
    hxx, hxy, hyy = solver._hessian_blocks(prob, grad, d, rho)
    gv = g.gradient_apply(v)
    Hv = g.gradient_adjoint(np.column_stack([hxx * gv[:, 0] + hxy * gv[:, 1],
                                             hxy * gv[:, 0] + hyy * gv[:, 1]]))[idx]
    h = 1e-5
    fd = (_first_variation(prob, u + h * v, mu)
          - _first_variation(prob, u - h * v, mu))[idx] / (2.0 * h)
    assert np.linalg.norm(Hv - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("make_cost, mu", [
    (lambda: mo.expression_cost("t^2/2 + t^3/3"), None),
    (lambda: mo.regularized_cost(mo.linear_cost(0.5), 1e-2), 1e-2),
], ids=["expression-exact", "regularized-smoothed"])
def test_newton_integrand_takes_one_search(monkeypatch, make_cost, mu):
    # c*, c*' and its radial curvature come from one bisection on D+c, exact
    # or smoothed
    prob = _rectangle_problem(make_cost(), nx=9, ny=11)
    assert prob.cost.smoothing == (mu is not None)
    searches = []
    first_false = mo.costs._SubgradientProfile._first_false

    def counted(profile, below, shape):
        searches.append(shape)
        return first_false(profile, below, shape)

    monkeypatch.setattr(mo.costs._SubgradientProfile, "_first_false", counted)
    value, d, rho = prob.level(np.linspace(0.0, 2.0, prob.grid.n_cells), mu)
    assert len(searches) == 1
    assert np.all(np.isfinite(value) & np.isfinite(d) & (d >= 0.0)) and np.all(np.isfinite(rho))


@pytest.mark.parametrize("make_cost", [_tabulated_quadratic, lambda: mo.expression_cost("t + 1/t")],
                         ids=["table", "expression"])
def test_newton_evaluates_each_point_once(monkeypatch, make_cost):
    # the start, every line-search trial and every level change evaluate the
    # cost once, and an iterate steps on from its accepted trial's
    # evaluation, so no (mu, s) is evaluated twice.  A linear cost would not
    # show it: each of its certificates scores s = slope in every carrying
    # cell, so its dual values repeat s by coincidence
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 16, 16)
    prob = mo.build_problem(g, make_cost(), mo.SourceTerm.constant(g, 1.0))
    points = []
    level = mo.CostFunction.level

    def recorded(cost, s, mu=None, weight=1.0):
        points.append((mu, np.asarray(s, dtype=float).tobytes()))
        return level(cost, s, mu, weight)

    monkeypatch.setattr(mo.CostFunction, "level", recorded)
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and sol.mu_levels > 0
    assert len(points) > sol.iterations
    assert len(set(points)) == len(points)


@pytest.mark.parametrize("make_cost, weighted", [
    (mo.quadratic_cost, False),
    (lambda: mo.power_cost(1.5), False),
    (lambda: mo.power_cost(3.0), True),
], ids=["quadratic", "power-1.5", "weighted-power-3"])
def test_rectangle_power_law_costs_solve_by_newton(make_cost, weighted):
    prob = _rectangle_problem(make_cost(), weighted)
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and sol.method == "newton" and sol.mu_levels == 0
    assert 0 < sol.iterations <= 12
    # one certificate per iterate, the start included
    assert [row[0] for row in sol.log] == list(range(sol.iterations + 1))
    assert sol.log[-1][1:] == (sol.objective, sol.dual_value, sol.gap)
    assert sol.dual_residual <= 1e-12
    assert np.linalg.norm(mo.objective_gradient(prob, sol.u)) <= 1e-9 * np.linalg.norm(prob.load)


@pytest.mark.parametrize("make_cost, weighted", [
    (mo.quadratic_cost, False),
    (lambda: mo.power_cost(1.5), False),
    (lambda: mo.power_cost(3.0), True),
    (lambda: mo.expression_cost("t^2/2"), False),
], ids=["quadratic", "power-1.5", "weighted-power-3", "expression"])
def test_flux_inverse_start_needs_few_newton_steps(make_cost, weighted):
    # the Poisson flux pushed through the cost's flux inverse starts Newton
    # near the optimum: at most four Hessian factors, the held one taking
    # chord steps in between
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 32, 32)
    weights = 1.0 + 0.5 * g.cell_centers[:, 0] if weighted else None
    prob = mo.build_problem(g, make_cost(), mo.SourceTerm.constant(g, 1.0), cell_weights=weights)
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and sol.method == "newton" and sol.mu_levels == 0
    assert sol.factorisations <= 4


def test_newton_stops_after_a_rounding_level_step(monkeypatch):
    # a step whose decrement is rounding level of the objective is judged by
    # the gradient; after it only chord steps follow, and no further
    # stiffness is factored
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 22, 46)
    x, y = g.node_coords.T
    prob = mo.build_problem(g, mo.power_cost(2.5375),
                            mo.SourceTerm(g, density=0.6416 + 0.4089 * x * y))
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and sol.method == "newton" and sol.chord_steps > 0
    # one factor or one chord solve per step: no step was attempted and
    # refused
    assert sol.factorisations + sol.chord_steps == sol.iterations
    assert [row[0] for row in sol.log] == list(range(sol.iterations + 1))
    grad_norm = np.linalg.norm(mo.objective_gradient(prob, sol.u))
    assert grad_norm <= 1e-9 * np.linalg.norm(prob.load)
    # judged by the objective alone, a step below its rounding is refused,
    # and the solve stops at a larger gradient
    monkeypatch.setattr(solver, "NEWTON_FLAT", 0.0)
    blind = mo.solve_auxiliary(prob)
    assert blind.factorisations + blind.chord_steps == blind.iterations + 1
    assert np.linalg.norm(mo.objective_gradient(prob, blind.u)) > grad_norm


def test_rectangle_tabulated_cost_takes_newton():
    # the table's conjugate is smoothed by log-sum-exp; the certificate
    # scores the exact one
    prob = _rectangle_problem(_tabulated_quadratic())
    assert prob.cost.smoothing
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and sol.method == "newton" and sol.mu_levels >= 2
    assert sol.objective == mo.objective_eval(prob, sol.u)
    _assert_count_rule(sol)


@pytest.mark.parametrize("make_cost", [lambda: mo.linear_cost(0.5), _tabulated_quadratic],
                         ids=["barrier", "table"])
def test_smoothed_solve_returns_its_last_iterate(tmp_path, make_cost):
    # the returned field is the final centred point: its exact objective
    # is the one the gap certifies, and the last logged primal
    path = tmp_path / "iterations.csv"
    prob = _rectangle_problem(make_cost())
    sol = mo.solve_auxiliary(prob)
    mo.grids.write_iteration_log(path, sol.log)
    assert sol.converged and sol.mu_levels >= 2
    assert sol.objective == mo.objective_eval(prob, sol.u)
    last = path.read_text().strip().splitlines()[-1].split(",")
    assert float(last[1]) == sol.objective
    assert sol.gap == sol.objective - sol.dual_value


def test_solution_counts_levels_and_factorisations():
    # a power law takes no smoothing level; the linear cost's barrier
    # shrinks mu until the certified gap meets the tolerance.  The power law
    # factors three Hessians (its start's unit stiffness is solved by sine
    # transforms) and takes four chord steps; the barrier takes chord steps
    # by the same rule
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 16, 16)
    source = mo.SourceTerm.constant(g, 1.0)
    power = mo.solve_auxiliary(mo.build_problem(g, mo.power_cost(1.5), source))
    assert power.converged
    assert (power.iterations, power.mu_levels, power.factorisations,
            power.chord_steps) == (7, 0, 3, 4)
    barrier = mo.solve_auxiliary(mo.build_problem(g, mo.linear_cost(0.5), source))
    assert barrier.converged and barrier.max_gradient < 1.0
    assert barrier.mu_levels > 0 and barrier.chord_steps > 0
    for sol in (power, barrier):
        _assert_count_rule(sol)
    # a certificate per iterate, and one more at each level entered after the first
    assert len(barrier.log) == barrier.iterations + barrier.mu_levels
    # weak duality on every row, up to the rounding of the two sums once they agree
    rounding = 4.0 * np.finfo(float).eps
    assert all(dual <= obj + rounding * abs(obj) for _step, obj, dual, _gap in barrier.log)


@pytest.mark.parametrize("make_cost, weighted", [
    (mo.quadratic_cost, False),
    (lambda: mo.power_cost(1.5), False),
    (lambda: mo.power_cost(3.0), True),
], ids=["quadratic", "power-1.5", "weighted-power-3"])
def test_power_law_takes_one_banded_solve_per_iterate(monkeypatch, make_cost, weighted):
    # the step's solve is the certificate's: one solve per step attempted,
    # with a new factor or the held one (a chord step), and at most one for
    # a last iterate that takes no step; the start's two unit-weight solves
    # (the Poisson solve and the projection of the flux-inverse gradient)
    # take sine transforms, not the band
    solve = mo.grids.BandCholesky.solve
    calls = []

    def counted(self, b):
        calls.append(b)
        return solve(self, b)

    monkeypatch.setattr(mo.grids.BandCholesky, "solve", counted)
    sol = mo.solve_auxiliary(_rectangle_problem(make_cost(), weighted))
    assert sol.converged and sol.chord_steps > 0
    attempted = sol.factorisations + sol.chord_steps
    assert len(calls) - attempted in (0, 1)


def test_chord_steps_keep_every_certificate():
    # a power law's tail reuses the held factor; every iterate stays
    # certified, and the solve still ends at a centred point
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 48, 48)
    prob = mo.build_problem(g, mo.power_cost(1.5), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and sol.chord_steps > 0
    # weak duality, up to the rounding of the two sums once they agree
    rounding = 4.0 * np.finfo(float).eps
    assert all(dual <= obj + rounding * abs(obj) for _step, obj, dual, _gap in sol.log)
    assert np.linalg.norm(mo.objective_gradient(prob, sol.u)) <= 1e-9 * np.linalg.norm(prob.load)
    report = mo.verify_conditions(mo.recover_measure(sol, prob), sol.u, prob)
    assert report.pde_residual <= 1e-8


def test_chord_certificate_is_exact_with_held_blocks(monkeypatch):
    # G^T (flux + B G z) = F holds for any positive definite blocks B paired
    # with their own factor, so a chord iterate, certified with the older
    # blocks and factor it holds, still has a feasible flux
    certify, factor_step = solver._certify, solver._factor_step
    certified, factored = [], []

    def recorded_certify(problem, flux, blocks, z):
        out = certify(problem, flux, blocks, z)
        certified.append((blocks, out[1]))
        return out

    def recorded_factor_step(*args):
        out = factor_step(*args)
        factored.append(out[0])
        return out

    monkeypatch.setattr(solver, "_certify", recorded_certify)
    monkeypatch.setattr(solver, "_factor_step", recorded_factor_step)
    prob = _rectangle_problem(mo.power_cost(1.5))
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and sol.chord_steps > 0
    assert all(any(blocks is b for b in factored) for blocks, _sigma in certified)
    # the iterates certified with blocks factored at an earlier iterate
    held = [sigma for (blocks, sigma), (prev, _s) in zip(certified[1:], certified)
            if blocks is prev]
    assert len(held) >= sol.chord_steps
    g, F = prob.grid, prob.load
    for sigma in held:
        miss = g.gradient_adjoint(sigma * g.cell_volumes[:, None]) - F
        assert np.linalg.norm(miss[g.interior_idx]) <= 1e-12 * np.linalg.norm(F)


@pytest.mark.parametrize("make_cost", [lambda: mo.linear_cost(0.5), _tabulated_quadratic],
                         ids=["barrier", "table"])
def test_smoothed_solve_factors_no_unit_stiffness(monkeypatch, make_cost):
    # a smoothed solve starts from 0 and certifies with its Hessians alone
    factor = solver.stiffness_factor
    weights = []

    def recorded(grid, w):
        weights.append(w)
        return factor(grid, w)

    monkeypatch.setattr(solver, "stiffness_factor", recorded)
    sol = mo.solve_auxiliary(_rectangle_problem(make_cost()))
    assert sol.converged and len(weights) == sol.factorisations
    assert all(isinstance(w, tuple) for w in weights)


@pytest.mark.parametrize("make_cost, weighted", [
    (mo.quadratic_cost, False),
    (lambda: mo.power_cost(1.5), False),
    (lambda: mo.power_cost(3.0), True),
    (lambda: mo.linear_cost(0.5), False),
], ids=["quadratic", "power-1.5", "weighted-power-3", "barrier"])
def test_solve_factors_only_hessians(monkeypatch, make_cost, weighted):
    # a power law's start solves its unit-weight stiffness by sine transforms,
    # so every stiffness factored is a Hessian's, and the solution counts
    # every banded factorisation the solve made
    factor, band_factor = solver.stiffness_factor, mo.grids.StiffnessLayout.factor
    weights, bands = [], []

    def recorded(grid, w):
        weights.append(w)
        return factor(grid, w)

    def counted(layout, band, pinned=()):
        bands.append(band.shape)
        return band_factor(layout, band, pinned)

    monkeypatch.setattr(solver, "stiffness_factor", recorded)
    monkeypatch.setattr(mo.grids.StiffnessLayout, "factor", counted)
    sol = mo.solve_auxiliary(_rectangle_problem(make_cost(), weighted))
    assert sol.converged and len(bands) == len(weights) == sol.factorisations > 0
    assert all(isinstance(w, tuple) for w in weights)


@pytest.mark.parametrize("make_cost", [lambda: mo.linear_cost(0.5), _tabulated_quadratic],
                         ids=["barrier", "table"])
def test_smoothed_zero_load_start_is_certified_without_a_factor(make_cost):
    # a zero load is centred at u = 0 at the exact level, whose zero flux is
    # feasible: the solve certifies it with the start's sine solve, enters
    # no smoothing level and factors nothing
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.5, 14, 11)
    sol = mo.solve_auxiliary(mo.build_problem(g, make_cost(), mo.SourceTerm.constant(g, 0.0)))
    assert sol.converged and sol.iterations == 0 and sol.factorisations == 0
    assert sol.mu_levels == 0 and sol.gap == 0.0 and sol.dual_residual == 0.0


def test_singular_hessian_ends_the_solve(monkeypatch):
    # a Hessian singular to working precision (as where the barrier's flux
    # concentrates on an atom) leaves no step: the solve returns its best
    # certificate instead of raising
    factor = solver.stiffness_factor
    calls = []

    def failing(grid, w):
        calls.append(w)
        if len(calls) == 3:  # two factors, then a singular Hessian
            raise mo.Unbounded("stiffness is singular to working precision")
        return factor(grid, w)

    monkeypatch.setattr(solver, "stiffness_factor", failing)
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8)
    prob = mo.build_problem(g, mo.linear_cost(0.5), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob)
    assert not sol.converged and sol.method == "newton"
    # nothing is factored after the singular Hessian, which ends its level
    assert len(calls) == sol.factorisations == 3
    _assert_count_rule(sol)
    assert sol.objective == mo.objective_eval(prob, sol.u) >= sol.dual_value


def test_newton_budget_counts_steps():
    prob = _rectangle_problem(mo.power_cost(1.5))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=2))
    assert not sol.converged and sol.method == "newton"
    assert sol.iterations == 2 and len(sol.log) == 3


def test_rectangle_linear_regime_feasible():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 16, 16)
    prob = mo.build_problem(g, mo.linear_cost(0.5), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=2500, gap_tolerance=1e-3))
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


@pytest.mark.parametrize("make_cost", [mo.quadratic_cost, lambda: mo.power_cost(2.0),
                                       lambda: mo.builtin_cost("power", p=2)],
                         ids=["quadratic", "power-2", "builtin-power-2"])
def test_power_two_is_the_quadratic_cost(make_cost):
    # admissibility of a Dirac source reads the cost's name, so t^2/2 is
    # admitted however it is built
    g = mo.radial_grid(1.0, 32, 2)
    cost = make_cost()
    assert cost.name == "quadratic"
    prob = mo.build_problem(g, cost, mo.SourceTerm(g, atoms=[(np.array([0.0]), 1.0)]))
    assert prob.regime == "SL"


def test_invalid_cost_rejected_at_build():
    # t^2 + t^0.5 grows superlinearly, but it is concave near 0, which the
    # secant check finds where the cost is built: no problem can hold it
    with pytest.raises(mo.InvalidCost, match="not convex"):
        mo.expression_cost("t^2 + t^0.5")


def test_not_converged_reports_best_iterate():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 12, 12)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=2, gap_tolerance=1e-14))
    assert not sol.converged
    assert math.isfinite(sol.objective)


@pytest.mark.parametrize("obj, dual", [(1.0, -INF), (INF, 0.0), (INF, -INF)])
def test_infinite_gap_is_infinite_relative_gap(obj, dual):
    assert solver._relative_gap(obj, dual) == (INF, INF)


@pytest.mark.parametrize("log", [
    [],
    [(0, 1.0 / 3.0, -INF, INF)],
    [(0, -0.0, -1e-300, 5e300), (7, 0.1, 0.2, 0.30000000000000004), (12, math.nan, 2.5, -1.0)],
], ids=["empty", "one", "three"])
def test_iteration_log_matches_per_row_writer(tmp_path, log):
    path = tmp_path / "iters.csv"
    mo.grids.write_iteration_log(path, log)
    rows = "".join("%d,%.17g,%.17g,%.17g\n" % row for row in log)
    assert path.read_text() == "iteration,primal,dual,gap\n" + rows


def test_iteration_log_written(tmp_path, monkeypatch):
    # the solve writes no file; the log it returns is written by the caller
    monkeypatch.chdir(tmp_path)
    prob = interval_problem(mo.quadratic_cost(), n=64)
    sol = mo.solve_auxiliary(prob)
    assert not any(tmp_path.iterdir())
    path = tmp_path / "iters.csv"
    mo.grids.write_iteration_log(path, sol.log)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,primal,dual,gap"
    assert len(lines) >= 2
