"""Conductivity recovery, energies, and the optimality verifier."""

import math

import numpy as np
import pytest

import massopt as mo
from massopt import cli, recovery

INF = math.inf


def solve_fixture(name, dim=None, resolution=512):
    fix = mo.fixture(name, dim)
    prob = fix.build(resolution)
    sol = mo.solve_auxiliary(prob)
    return fix, prob, sol


# -- superlinear recovery ----------------------------------------------------

def test_sl_density_is_half_gradient_squared():
    _fix, prob, sol = solve_fixture("quadratic_ball_uniform", 2)
    mu = mo.recover_measure(sol, prob)
    s = 0.5 * np.sum(prob.grid.gradient_apply(sol.u.values) ** 2, axis=1)
    assert np.allclose(mu.ac_density, s, atol=1e-13)
    assert not mu.atoms


def test_sl_density_zero_gradient_cell():
    g = mo.interval_grid(-1.0, 1.0, 64)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 0.0))
    sol = mo.solve_auxiliary(prob)
    mu = mo.recover_measure(sol, prob)
    assert np.all(mu.ac_density == 0.0)


def test_sl_radial_density_matches_closed_form():
    fix, prob, sol = solve_fixture("quadratic_ball_uniform", 3, resolution=1024)
    mu = mo.recover_measure(sol, prob)
    a_ex = fix.a_exact(prob.grid.cell_centers[:, 0])
    vol = prob.grid.cell_volumes
    err = np.dot(vol, np.abs(mu.ac_density - a_ex)) / np.dot(vol, a_ex)
    assert err <= 0.005


def test_sl_dirac_density_window():
    fix, prob, sol = solve_fixture("quadratic_ball_dirac", 2, resolution=1024)
    mu = mo.recover_measure(sol, prob)
    cm, _ = fix.masks(prob.grid)
    a_ex = fix.a_exact(prob.grid.cell_centers[:, 0])
    rel = np.abs(mu.ac_density - a_ex)[cm] / a_ex[cm]
    assert np.max(rel) <= 0.05


def _rectangle_solution(cost):
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8)
    prob = mo.build_problem(g, cost, mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=100,
                                                   gap_tolerance=1e-2))
    return prob, sol


@pytest.mark.parametrize("cost", [mo.quadratic_cost(), mo.linear_cost(0.5)],
                         ids=["quadratic", "linear"])
def test_rectangle_recovery_reads_solver_density(cost):
    # one rule in both regimes: the measure is the density Newton's flux carries
    prob, sol = _rectangle_solution(cost)
    mu = mo.recover_measure(sol, prob)
    assert np.array_equal(mu.ac_density, sol.density)
    assert not mu.atoms


_T17 = np.linspace(0.0, 4.0, 17)
_T257 = np.linspace(0.0, 8.0, 257)


@pytest.mark.parametrize("make_cost, nx, ny, by", [
    (lambda: mo.tabulated_cost(_T17, 0.5 * _T17 ** 2), 14, 11, 1.5),
    (lambda: mo.tabulated_cost(_T257, _T257 + 0.5 * _T257 ** 2), 16, 16, 1.0),
], ids=["17-node", "dead-zone"])
def test_rectangle_table_measure_verifies(make_cost, nx, ny, by):
    # the smoothed conjugate's derivative carries the flux of a
    # piecewise-linear conjugate, where its subdifferential is an interval
    g = mo.rectangle_grid(0.0, 1.0, 0.0, by, nx, ny)
    prob = mo.build_problem(g, make_cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob)
    assert sol.converged
    rep = mo.verify_conditions(mo.recover_measure(sol, prob), sol.u, prob)
    assert rep.passes(cli.DEFAULT_THRESHOLDS), rep


_T9 = np.linspace(0.0, 2.0, 9)
_SATURATED_1D = np.array([[0.0, 0.0], [1.358854260513316, 0.4723334434586732],
                          [2.656091662790223, 1.0975448270607104],
                          [3.5569345815547435, 2.492235019723596],
                          [4.719369758488948, 4.66653429260829],
                          [4.907538559045945, 5.21406339751218]])


def _unit_square(nx, ny):
    return "kind = rectangle\nax = 0\nbx = 1\nay = 0\nby = 1\nnx = %d\nny = %d" % (nx, ny)


@pytest.mark.parametrize("domain, table, value", [
    ("kind = interval\na = 0\nb = 1\nn = 184", _SATURATED_1D, 808),
    (_unit_square(19, 16), np.column_stack([_T9, 0.5 * _T9 ** 2]), 391),
    (_unit_square(32, 32), np.column_stack([_T9, 0.5 * _T9 ** 2]), 200),
    (_unit_square(16, 16), np.column_stack([_T9, _T9 + 0.5 * _T9 ** 2]), 300),
    (_unit_square(16, 16), np.column_stack([_T17, 0.5 * _T17 ** 2]), 100),
], ids=["interval", "rectangle-19x16", "rectangle-32", "rectangle-dead-zone", "rectangle-17-node"])
def test_saturated_table_density_stays_in_domain(tmp_path, domain, table, value):
    # a large load saturates the table at its last sample; the division
    # |sigma| / t left a 1-d cell a rounding past it, and a rectangle's last
    # level a mu past it, which the verifier scored as infinite cost
    np.savetxt(tmp_path / "table.csv", table, delimiter=",", fmt="%.17g")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[domain]\n%s\n\n[cost]\ntable = %s\n\n[source]\nvalue = %r\n\n"
                   "[output]\ndir = %s\n" % (domain, tmp_path / "table.csv", value,
                                               tmp_path / "out"))
    assert cli.main(["run", str(cfg)]) == 0
    density = np.loadtxt(tmp_path / "out" / "measure.csv", delimiter=",", skiprows=2)[:, -1]
    assert table[0, 0] <= np.min(density) and np.max(density) == table[-1, 0]


def test_zero_flux_cell_at_a_table_kink_carries_no_density():
    # a small load pins every carried gradient at the dead-zone edge, where
    # c* has a kink; the zero-flux cell's D-c* used to be read at the
    # integrated field's gradient, whose rounding put it past the kink at
    # the next sample 0.2199, so that cell carried a flux of 0.26
    ts = np.array([0.0, 0.21990672451805959, 0.76701971768930999, 1.5800783447394042,
                   2.0066891017902293, 2.1444851267154901])
    cs = np.array([0.036939694919254751, 0.19131393731055915, 1.0042560378063707,
                   2.4488064224587598, 3.3965958138401331, 3.8235161834156211])
    g = mo.interval_grid(-0.1050332870427726, 1.6945242000770302, 60)
    prob = mo.build_problem(g, mo.tabulated_cost(ts, cs),
                            mo.SourceTerm.constant(g, 0.0573022490044641))
    sol = mo.solve_auxiliary(prob)
    zero = sol.flux.values[:, 0] == 0.0
    assert np.count_nonzero(zero) == 1 and np.all(sol.density[zero] == 0.0)
    rep = mo.verify_conditions(mo.recover_measure(sol, prob), sol.u, prob)
    assert rep.passes(cli.DEFAULT_THRESHOLDS), rep


_T4 = np.linspace(0.0, 3.0, 4)


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("make_cost", [
    mo.quadratic_cost,
    lambda: mo.power_cost(3.0),
    lambda: mo.linear_cost(0.5),
    mo.reciprocal_cost,
    lambda: mo.expression_cost("t + 1/t"),
    lambda: mo.expression_cost("t + t^2/2"),
    lambda: mo.tabulated_cost(_T4, 0.5 * _T4 ** 2),
    lambda: mo.regularized_cost(mo.linear_cost(0.5), 1e-3),
], ids=["quadratic", "power-3", "linear", "reciprocal", "t+1/t", "t+t^2/2", "table",
        "regularized"])
def test_zero_load_rectangle_verifies_at_the_exact_level(make_cost, weighted):
    # u = 0 is centred before any smoothing, so the solve enters no level
    # and hands over the exact conjugate's D+c*(0), not a smoothed multiplier
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 16, 16)
    w = np.geomspace(0.2, 5.0, g.n_cells) if weighted else None
    prob = mo.build_problem(g, make_cost(), mo.SourceTerm.constant(g, 0.0), cell_weights=w)
    sol = mo.solve_auxiliary(prob)
    assert sol.converged and sol.mu_levels == 0 and sol.iterations == 0
    assert np.array_equal(sol.density, prob.level(np.zeros(g.n_cells))[1])
    rep = mo.verify_conditions(mo.recover_measure(sol, prob), sol.u, prob)
    assert rep.passes(cli.DEFAULT_THRESHOLDS), rep


# -- linear-regime recovery --------------------------------------------------

def test_mk_flux_inversion():
    fix, prob, sol = solve_fixture("mk_interval_uniform", resolution=1024)
    mu = mo.recover_measure(sol, prob)
    assert not mu.atoms
    a_ex = np.abs(prob.grid.cell_centers[:, 0])
    vol = prob.grid.cell_volumes
    err = np.dot(vol, np.abs(mu.ac_density - a_ex)) / np.dot(vol, a_ex)
    assert err <= 0.03
    # gradient saturates where the measure lives
    g = np.abs(prob.grid.gradient_apply(sol.u.values)[:, 0])
    on = mu.ac_density > 0.05
    assert np.max(np.abs(g[on] - 1.0)) <= 1e-3


def test_reciprocal_density_lower_bound():
    fix, prob, sol = solve_fixture("reciprocal_interval", resolution=1024)
    mu = mo.recover_measure(sol, prob)
    floor = 1e-12 * np.max(mu.ac_density)
    assert np.min(mu.ac_density[mu.ac_density > floor]) >= 1.0 - 1e-6
    a_ex = fix.a_exact(prob.grid.cell_centers[:, 0])
    assert np.max(np.abs(mu.ac_density - a_ex)) <= 1e-10


def test_l_recovery_radial_reciprocal():
    g = mo.radial_grid(1.0, 512, 2)
    prob = mo.build_problem(g, mo.reciprocal_cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob)
    mu = mo.recover_measure(sol, prob)
    rep = mo.verify_conditions(mu, sol.u, prob)
    assert np.min(mu.ac_density) >= 1.0 - 1e-6
    assert sol.max_gradient <= math.sqrt(2.0) + 1e-9
    for field, value in rep.residuals().items():
        assert value <= 1e-3, (field, value)


def test_l_recovery_radial_center_atom():
    # transport problem from a point source at the center of the disc:
    # the gradient saturates at 1 on the support of the measure
    g = mo.radial_grid(1.0, 512, 2)
    prob = mo.build_problem(g, mo.linear_cost(0.5),
                            mo.SourceTerm(g, atoms=[(np.array([0.0]), 1.0)]))
    sol = mo.solve_auxiliary(prob)
    mu = mo.recover_measure(sol, prob)
    rep = mo.verify_conditions(mu, sol.u, prob)
    assert sol.max_gradient <= 1.0 + 1e-9
    for field, value in rep.residuals().items():
        assert value <= 1e-3, (field, value)
    on = mu.ac_density > 1e-3 * np.max(mu.ac_density)
    assert np.max(np.abs(np.abs(g.gradient_apply(sol.u.values)[on, 0]) - 1.0)) <= 1e-9


def _sigma_over_g(problem, sol):
    # reference: |sigma| / t from a flux and magnitude built afresh from the
    # problem; D-c* of the solution's gradient where either vanishes, and
    # the flux that no gradient carries booked as an atom
    sigma, _g, t = mo.feasible_flux_1d(problem)
    vabs = np.abs(sigma[:, 0])
    a = problem.conj_dminus(0.5 * problem.grid.gradient_apply(sol.u.values)[:, 0] ** 2)
    carried = (vabs > 0.0) & (t > 0.0)
    a[carried] = vabs[carried] / t[carried]
    excess = vabs - t * a
    atoms = [(problem.grid.cell_centers[i],
              float(excess[i] * problem.grid.widths[0][i] / max(problem.cell_caps[i], 1e-300)))
             for i in np.nonzero(excess > 1e-8 * (1.0 + vabs))[0]]
    return a, atoms


def _radial_center_atom():
    g = mo.radial_grid(1.0, 512, 2)
    return mo.build_problem(g, mo.linear_cost(0.5),
                            mo.SourceTerm(g, atoms=[(np.array([0.0]), 1.0)]))


@pytest.mark.parametrize("make_problem", [
    lambda: mo.fixture("mk_interval_uniform").build(1024),
    lambda: mo.fixture("reciprocal_interval").build(1024),
    _radial_center_atom,
], ids=["mk-interval-uniform", "reciprocal-interval", "radial-center-atom"])
def test_l_recovery_inverts_the_solver_flux(make_problem):
    prob = make_problem()
    sol = mo.solve_auxiliary(prob)
    mu = mo.recover_measure(sol, prob)
    a, atoms = _sigma_over_g(prob, sol)
    assert np.array_equal(mu.ac_density, a)
    assert len(mu.atoms) == len(atoms)
    for (loc, mass), (loc_ref, mass_ref) in zip(mu.atoms, atoms):
        assert np.array_equal(loc, loc_ref) and mass == mass_ref


def test_l_recovery_zero_source_minimal_selection():
    # zero flux: density falls back to the cost-minimal subgradient at 0,
    # which is 1 for the reciprocal cost (its pointwise minimum sits at t=1)
    g = mo.interval_grid(-1.0, 1.0, 64)
    prob = mo.build_problem(g, mo.reciprocal_cost(), mo.SourceTerm.constant(g, 0.0))
    sol = mo.solve_auxiliary(prob)
    mu = mo.recover_measure(sol, prob)
    assert np.allclose(mu.ac_density, 1.0, atol=1e-12)
    assert not mu.atoms


def test_l_recovery_regime_and_grid_guards():
    # the grid picks the recovery, not the regime: the 1-d recovery takes a
    # superlinear problem, the 2-d one takes a superlinear rectangle
    _fix, prob, sol = solve_fixture("quadratic_ball_uniform", 2)
    mu = mo.recover_measure(sol, prob)
    assert np.array_equal(mu.ac_density, _sigma_over_g(prob, sol)[0])
    prob2, sol2 = _rectangle_solution(mo.quadratic_cost())
    mu2 = mo.recover_measure(sol2, prob2)
    g2 = prob2.grid.gradient_apply(sol2.u.values)
    assert np.allclose(mu2.ac_density, 0.5 * np.sum(g2 ** 2, axis=1), rtol=0.0, atol=1e-15)


# -- regularization continuation ---------------------------------------------

def test_regularization_converges_to_flux_construction():
    fix, prob, sol = solve_fixture("mk_interval_uniform", resolution=1024)
    mu_1d = mo.recover_measure(sol, prob)
    mu_eps, diag = mo.recover_via_regularization(prob)
    assert diag.settled
    vol = prob.grid.cell_volumes
    err = np.dot(vol, np.abs(mu_eps.ac_density - mu_1d.ac_density)) / \
        np.dot(vol, mu_1d.ac_density)
    assert err <= 0.03
    assert all(not flags for flags in diag.concentration_flags)


def test_regularization_keeps_cell_weights():
    # each level is built on the problem's own cell weights
    g = mo.interval_grid(-1.0, 1.0, 1024)
    w = lambda x: 1.0 + 0.5 * float(x[0]) ** 2
    prob = mo.build_problem(g, mo.linear_cost(0.5), mo.SourceTerm.constant(g, 1.0),
                            cell_weights=[w(x) for x in g.cell_centers])
    mu = mo.recover_measure(mo.solve_auxiliary(prob), prob)
    mu_eps, diag = mo.recover_via_regularization(prob)
    assert diag.settled
    vol = g.cell_volumes
    err = np.dot(vol, np.abs(mu_eps.ac_density - mu.ac_density)) / np.dot(vol, mu.ac_density)
    assert err <= 0.03


def test_regularization_rectangle_settles():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 10, 10)
    prob = mo.build_problem(g, mo.linear_cost(0.5), mo.SourceTerm.constant(g, 1.0))
    params = mo.SolverParams(max_iterations=4000)
    mu, diag = mo.recover_via_regularization(
        prob, epsilon_schedule=(1e-1, 3e-2, 1e-2), solver_params=params,
        cauchy_tol=0.1)
    assert diag.settled
    assert mu.ac_density.shape == (g.n_cells,)
    assert np.all(mu.ac_density >= 0.0)


def test_regularization_rejects_superlinear():
    _fix, prob, _sol = solve_fixture("quadratic_ball_uniform", 1, resolution=64)
    with pytest.raises(mo.RegimeMismatch):
        mo.recover_via_regularization(prob)


def test_regularization_zero_source_no_flags():
    g = mo.interval_grid(-1.0, 1.0, 128)
    prob = mo.build_problem(g, mo.reciprocal_cost(), mo.SourceTerm.constant(g, 0.0))
    mu, diag = mo.recover_via_regularization(prob)
    assert diag.settled
    assert all(not flags for flags in diag.concentration_flags)
    # cost-minimal density of t + 1/t + eps t^2 stays near 1
    assert np.allclose(mu.ac_density, 1.0, atol=1e-3)


def test_regularization_needs_schedule():
    _fix, prob, _sol = solve_fixture("mk_interval_uniform", resolution=64)
    with pytest.raises(mo.ScheduleTooShort):
        mo.recover_via_regularization(prob, epsilon_schedule=(1e-2,))


# -- energies -----------------------------------------------------------------

def test_energy_lebesgue_unit_source():
    # -u'' = 1 on (-1,1): u = (1-x^2)/2, E = 1/3 - 2/3 = -1/3
    g = mo.interval_grid(-1.0, 1.0, 1024)
    res = mo.energy_eval(mo.DiscreteMeasure(g, np.ones(g.n_cells)), mo.SourceTerm.constant(g, 1.0))
    assert res.energy == pytest.approx(-1.0 / 3.0, abs=1e-5)


def test_energy_zero_source():
    g = mo.interval_grid(-1.0, 1.0, 64)
    res = mo.energy_eval(mo.DiscreteMeasure(g, np.ones(g.n_cells)), mo.SourceTerm.constant(g, 0.0))
    assert res.energy == 0.0


def test_energy_inverse_scaling():
    g = mo.interval_grid(-1.0, 1.0, 128)
    f = mo.SourceTerm.constant(g, 1.0)
    e1 = mo.energy_eval(mo.DiscreteMeasure(g, np.ones(g.n_cells)), f).energy
    lam = 2.5
    e2 = mo.energy_eval(mo.DiscreteMeasure(g, lam * np.ones(g.n_cells)), f).energy
    assert e2 == pytest.approx(e1 / lam, rel=1e-10)


def test_energy_with_atoms_in_stiffness():
    g = mo.interval_grid(-1.0, 1.0, 64)
    mu = mo.DiscreteMeasure(g, np.ones(g.n_cells), atoms=[(np.array([0.0]), 5.0)])
    f = mo.SourceTerm.constant(g, 1.0)
    stiffer = mo.energy_eval(mu, f).energy
    plain = mo.energy_eval(mo.DiscreteMeasure(g, np.ones(g.n_cells)), f).energy
    assert stiffer > plain  # extra stiffness raises the infimal energy


@pytest.mark.parametrize("grid,loc", [
    (mo.interval_grid(-1.0, 1.0, 8), [0.5]),
    (mo.radial_grid(1.0, 8, 2), [0.5]),
    (mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8), [0.5, 0.3]),
    (mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8), [0.5, 0.5]),
], ids=["interval-node", "radial-node", "square-face", "square-node"])
def test_pde_residual_reads_atoms_as_the_energy_does(grid, loc):
    # the energy's minimiser solves -div(mu grad u) = f for the residual too
    # when the atom is shared by several cells: both read its mass through
    # the carrying cells' shares
    mu = mo.DiscreteMeasure(grid, np.ones(grid.n_cells), atoms=[(np.array(loc), 2.0)])
    f = mo.SourceTerm.constant(grid, 1.0)
    prob = mo.build_problem(grid, mo.builtin_cost("quadratic"), f)
    result = mo.energy_eval(mu, f)
    assert result.residual <= 1e-12
    assert mo.verify_conditions(mu, result.u, prob).pde_residual <= 1e-12


def test_energy_unbounded_detection():
    g = mo.interval_grid(-1.0, 1.0, 32)
    mu = mo.DiscreteMeasure(g, np.zeros(g.n_cells))
    with pytest.raises(mo.Unbounded):
        mo.energy_eval(mu, mo.SourceTerm.constant(g, 1.0))


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("grid", [mo.interval_grid(-1.0, 1.0, 16),
                                  mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 4, 3)],
                         ids=["interval", "rectangle"])
def test_energy_refuses_a_density_that_is_not_finite(grid, bad):
    density = np.ones(grid.n_cells)
    density[3] = bad
    mu = mo.DiscreteMeasure(grid, density)  # the measure itself accepts it
    with pytest.raises(ValueError, match="finite"):
        mo.energy_eval(mu, mo.SourceTerm.constant(grid, 1.0))


def _no_graph_search(*_args, **_kwargs):
    raise AssertionError("the stiffness graph was searched")


def test_energy_numerically_singular_stiffness_is_unbounded(monkeypatch):
    # in 1-d the flux recursion scores alternating 1e-16 / 1 densities
    # exactly, about -1.7e15, below the admissibility floor
    g = mo.interval_grid(-1.0, 1.0, 64)
    mu = mo.DiscreteMeasure(g, np.where(np.arange(g.n_cells) % 2 == 0, 1e-16, 1.0))
    f = mo.SourceTerm.constant(g, 1.0)
    monkeypatch.setattr(recovery, "_floating_pins", _no_graph_search)
    with pytest.raises(mo.Unbounded, match="admissibility floor"):
        mo.energy_eval(mu, f)
    prob = mo.build_problem(g, mo.quadratic_cost(), f)
    report = mo.verify_conditions(mu, mo.solve_auxiliary(prob).u, prob)
    assert report.energy_e_f == -math.inf
    assert report.duality_identity_error == math.inf
    # a rectangle's band with no stiffness meets a zero pivot: no finite
    # energy can be trusted
    layout = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 6, 5).stiffness_layout
    with pytest.raises(mo.Unbounded, match="singular to working precision"):
        layout.factor(layout.band(np.zeros(30)))


@pytest.mark.parametrize("make_grid, atoms", [
    (lambda: mo.interval_grid(-1.0, 1.0, 64), [(np.array([0.3]), 2.0)]),
    (lambda: mo.radial_grid(1.2, 48, 3), []),
    (lambda: mo.rectangle_grid(0.0, 1.5, 0.0, 1.0, 12, 8), []),  # square cells
    (lambda: mo.rectangle_grid(0.0, 1.0, -0.5, 1.0, 11, 7), [(np.array([0.4, 0.2]), 1.5)]),
], ids=["interval-atom", "radial", "square-cells", "wide-atom"])
def test_energy_positive_density_skips_graph_search(monkeypatch, make_grid, atoms):
    # every cell carries density, so no node floats: the graph search would
    # pin nothing, and a rectangle's energy is the unpinned solve's, bit for
    # bit; a 1-d energy is the flux recursion, which agrees with a dense solve
    g = make_grid()
    rng = np.random.default_rng(3)
    mu = mo.DiscreteMeasure(g, rng.uniform(0.5, 2.0, g.n_cells), atoms=atoms)
    f = mo.SourceTerm(g, density=rng.standard_normal(g.n_nodes))
    idx = g.interior_idx
    Fin = f.load_vector()[idx]
    w = mo.grids.with_atoms(g, g.cell_volumes * mu.ac_density, mu.atoms)
    if g.dim == 1:
        u = np.linalg.solve(_dense_stiffness(g, w), Fin)
        monkeypatch.setattr(recovery, "_floating_pins", _no_graph_search)
        res = mo.energy_eval(mu, f)
        assert res.energy == pytest.approx(-0.5 * float(Fin @ u), rel=1e-12)
        assert res.residual <= 1e-12
        return
    assert recovery._floating_pins(g, w, Fin).size == 0
    layout = g.stiffness_layout
    u = np.zeros(g.n_nodes)
    u[idx] = layout.factor(layout.band(w)).solve(Fin)
    grad = g.gradient_apply(u)
    energy = 0.5 * float(np.sum(w * np.sum(grad * grad, axis=1))) - float(Fin @ u[idx])
    resid = Fin - g.gradient_adjoint(grad * w[:, None])[idx]

    monkeypatch.setattr(recovery, "_floating_pins", _no_graph_search)
    res = mo.energy_eval(mu, f)
    assert res.energy == energy
    assert res.residual == float(np.linalg.norm(resid)) / float(np.linalg.norm(Fin))
    assert np.array_equal(res.u.values, u)


def island_measure():
    # zero density on cells 20 and 40 cuts nodes 21..40 off the boundary
    g = mo.interval_grid(-1.0, 1.0, 64)
    a = np.ones(g.n_cells)
    a[[20, 40]] = 0.0
    island = (np.arange(g.n_nodes) >= 22) & (np.arange(g.n_nodes) <= 39)
    return mo.DiscreteMeasure(g, a), island


def test_energy_loaded_island_is_unbounded():
    mu, island = island_measure()
    f = mo.SourceTerm(mu.grid, density=np.where(island, 1.0, 0.0))
    with pytest.raises(mo.Unbounded):
        mo.energy_eval(mu, f)


def test_energy_island_without_net_load_is_finite():
    # a full sine period over the island carries no net load, so the energy
    # does not depend on the island's free constant
    mu, island = island_measure()
    x = mu.grid.axes[0]
    dens = np.sin(2.0 * np.pi * (x - x[21]) / (x[40] - x[21]))
    res = mo.energy_eval(mu, mo.SourceTerm(mu.grid, density=np.where(island, dens, 0.0)))
    assert res.energy == pytest.approx(-0.003940563848416746, rel=1e-10)
    assert res.residual <= 1e-12


def _dense_stiffness(g, w):
    # G^T diag(w) G on the interior nodes, G read off the gradient stencil
    # one unit vector at a time
    G = np.stack([g.gradient_apply(e) for e in np.eye(g.n_nodes)[g.interior_idx]], axis=-1)
    G = G.transpose(1, 0, 2).reshape(g.dim * g.n_cells, -1)
    return G.T @ (np.tile(w, g.dim)[:, None] * G)


def test_energy_radial_centre_run_floats():
    # a cell without weight cuts the ball's centre off its boundary: a load
    # on the centre run has no finite energy, a load outside it has the
    # dense least-squares energy of the singular system
    g = mo.radial_grid(1.0, 40, 3)
    a = np.random.default_rng(7).uniform(0.5, 2.0, g.n_cells)
    a[12] = 0.0
    mu = mo.DiscreteMeasure(g, a)
    x = g.axes[0]
    with pytest.raises(mo.Unbounded):
        mo.energy_eval(mu, mo.SourceTerm(g, density=np.where(x < x[12], 1.0, 0.0)))
    f = mo.SourceTerm(g, density=np.where(x > x[13], 1.0 + x, 0.0))
    res = mo.energy_eval(mu, f)
    F = f.load_vector()[g.interior_idx]
    u = np.linalg.lstsq(_dense_stiffness(g, g.cell_volumes * a), F, rcond=None)[0]
    assert res.energy == pytest.approx(-0.5 * float(F @ u), rel=1e-12)
    assert res.residual <= 1e-12


def rectangle_island(nx, bx):
    # zero density on a ring of cells cuts the 15 nodes inside it off the
    # boundary of an nx x 8 grid on [0, bx] x [0, 1]
    g = mo.rectangle_grid(0.0, bx, 0.0, 1.0, nx, 8)
    iy, ix = np.divmod(np.arange(g.n_cells), nx)
    ring = (((ix == 2) | (ix == 7)) & (iy >= 2) & (iy <= 5)) | (
        ((iy == 2) | (iy == 5)) & (ix >= 2) & (ix <= 7))
    j, i = np.divmod(np.arange(g.n_nodes), nx + 1)
    island = (i >= 3) & (i <= 7) & (j >= 3) & (j <= 5)
    return mo.DiscreteMeasure(g, np.where(ring, 0.0, 1.0 + 0.1 * ix)), island, i


# on oblong cells the stiffness couples the island's checkerboard colours,
# on square cells it does not; either way the cells' diagonals tie each
# colour only to itself, and on a grid wider than tall, numbered column by
# column, a pinned node has coupled nodes before it
@pytest.mark.parametrize("nx, bx", [(10, 0.8), (12, 1.5)], ids=["oblong", "square"])
def test_energy_rectangle_island_is_pinned_or_unbounded(nx, bx):
    mu, island, i = rectangle_island(nx, bx)
    g = mu.grid
    colour = (i + np.arange(g.n_nodes) // (nx + 1)) % 2
    with pytest.raises(mo.Unbounded):
        mo.energy_eval(mu, mo.SourceTerm(g, density=np.where(island, 1.0, 0.0)))
    # no net load, but a nonzero alternating sum: the checkerboard, which
    # carries no gradient, lowers the energy without bound
    even, odd = island & (colour == 0), island & (colour == 1)
    alternating = np.where(even, 1.0 / np.sum(even), np.where(odd, -1.0 / np.sum(odd), 0.0))
    with pytest.raises(mo.Unbounded):
        mo.energy_eval(mu, mo.SourceTerm(g, density=alternating))
    # a load on the island without net mass (on each colour) leaves the
    # energy finite
    f = mo.SourceTerm(g, density=np.where(island, i - 5.0, 1.0))
    res = mo.energy_eval(mu, f)
    # dense reference: the least-squares solution of the singular system;
    # the island's free fields change neither u elsewhere nor the energy
    idx = g.interior_idx
    K = _dense_stiffness(g, g.cell_volumes * mu.ac_density)
    F = f.load_vector()[idx]
    u = np.linalg.lstsq(K, F, rcond=None)[0]
    assert res.energy == pytest.approx(-0.5 * float(F @ u), rel=1e-12)
    uf = np.zeros(g.n_nodes)
    uf[idx] = u
    scale = np.max(np.abs(u))
    assert np.allclose(res.u.values[~island], uf[~island], rtol=0.0, atol=1e-12 * scale)
    # the island may differ by fields without gradient on the cells that
    # carry density: a constant and the checkerboard that the cell-averaged
    # gradient does not see
    dense = mu.ac_density > 0.0
    assert np.allclose(g.gradient_apply(res.u.values)[dense], g.gradient_apply(uf)[dense],
                       rtol=0.0, atol=1e-10 * scale)
    # u differs from it by one constant on each colour of the island, and
    # holds a pinned node of each colour
    for part in (even, odd):
        diff = (res.u.values - uf)[part]
        assert np.ptp(diff) <= 1e-12 * scale
        assert np.min(np.abs(res.u.values[part])) == 0.0
    assert res.residual <= 1e-12


@pytest.mark.parametrize("n", [1000, 3484])
def test_interval_recovery_divides_by_certificate_magnitude(n):
    # the gradient of the integrated u carries rounding where the flux is
    # small; the certificate's own magnitude does not
    fix = mo.fixture("reciprocal_interval")
    prob = fix.build(n)
    sol = mo.solve_auxiliary(prob)
    sigma, _g, t = mo.feasible_flux_1d(prob)
    vabs = np.abs(sigma[:, 0])
    carried = (vabs > 0.0) & (t > 0.0)
    assert np.count_nonzero(carried) >= n - 1
    assert np.array_equal(sol.density[carried], vabs[carried] / t[carried])
    _u_err, a_err = mo.fixture_errors(fix, prob.grid, sol.u.values,
                                      mo.recover_measure(sol, prob))
    assert a_err <= 2e-14


def test_energy_rectangle_with_atom_matches_dense_solve():
    # dense reference: stiffness columns from the matrix-free gradient, the
    # atom's point stiffness from the gradients on the cell that carries it
    g = mo.rectangle_grid(0.0, 1.5, 0.0, 1.0, 7, 5)
    x, y = g.cell_centers[:, 0], g.cell_centers[:, 1]
    a = 1.0 + x * x + 0.5 * np.sin(3.0 * y)
    loc, mass = np.array([0.8, 0.45]), 2.5
    mu = mo.DiscreteMeasure(g, a, atoms=[(loc, mass)])
    f = mo.SourceTerm(g, density=1.0 + g.node_coords[:, 0] * g.node_coords[:, 1])

    cols = [g.gradient_apply(e) for e in np.eye(g.n_nodes)]
    D = np.stack([c.ravel() for c in cols], axis=1)  # (cells * 2, nodes)
    K = D.T @ np.diag(np.repeat(g.cell_volumes * a, 2)) @ D
    (cell, _w), = g.cell_weights_at(loc)
    Dc = np.stack([c[cell] for c in cols], axis=1)  # (2, nodes)
    K += mass * Dc.T @ Dc
    idx = g.interior_idx
    F = f.load_vector()[idx]
    u = np.linalg.solve(K[np.ix_(idx, idx)], F)
    expected = -0.5 * float(F @ u)

    res = mo.energy_eval(mu, f)
    assert res.energy == pytest.approx(expected, rel=1e-10)
    assert np.allclose(res.u.values[idx], u, rtol=1e-10, atol=1e-12)


# -- cost functional -----------------------------------------------------------

def test_cost_eval_values():
    g = mo.interval_grid(-1.0, 1.0, 64)
    lin = mo.linear_cost(0.5)
    assert mo.cost_eval(mo.DiscreteMeasure(g, np.ones(g.n_cells)), lin) == pytest.approx(1.0)
    atom = mo.DiscreteMeasure(g, np.zeros(g.n_cells), atoms=[(np.array([0.0]), 1.0)])
    assert mo.cost_eval(atom, lin) == pytest.approx(0.5)
    assert mo.cost_eval(atom, mo.quadratic_cost()) == INF
    # with a cell-weight table an atom costs slope * mass * w, w the mean of
    # the weights of the cells that carry it: two on a face, four at a corner
    g8 = mo.interval_grid(-1.0, 1.0, 8)
    for x, cost in ((0.0, 4.5), (0.1, 5.0)):
        atom = mo.DiscreteMeasure(g8, np.zeros(8), atoms=[(np.array([x]), 2.0)])
        assert mo.cost_eval(atom, lin, np.arange(1.0, 9.0)) == pytest.approx(cost)
    sq = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8)
    atom = mo.DiscreteMeasure(sq, np.zeros(64), atoms=[(np.array([0.5, 0.5]), 2.0)])
    assert mo.cost_eval(atom, lin, np.arange(1.0, 65.0)) == pytest.approx(32.5)


def test_cost_additivity_disjoint_supports():
    g = mo.interval_grid(-1.0, 1.0, 64)
    left = np.where(g.cell_centers[:, 0] < 0.0, 1.5, 0.0)
    right = np.where(g.cell_centers[:, 0] > 0.0, 0.7, 0.0)
    # absolutely continuous parts on disjoint supports: exact additivity
    quad = mo.quadratic_cost()
    assert mo.cost_eval(mo.DiscreteMeasure(g, left + right), quad) == pytest.approx(
        mo.cost_eval(mo.DiscreteMeasure(g, left), quad)
        + mo.cost_eval(mo.DiscreteMeasure(g, right), quad), rel=1e-14)
    # singular parts: one-homogeneity makes the atom cost recession * mass
    lin = mo.linear_cost(0.5)
    m_left = mo.DiscreteMeasure(g, left, atoms=[(np.array([-0.5]), 1.0)])
    m_right = mo.DiscreteMeasure(g, right, atoms=[(np.array([0.5]), 2.0)])
    both = mo.DiscreteMeasure(g, left + right, atoms=m_left.atoms + m_right.atoms)
    assert mo.cost_eval(both, lin) == pytest.approx(
        mo.cost_eval(m_left, lin) + mo.cost_eval(m_right, lin), rel=1e-14)
    assert mo.cost_eval(both, lin) == pytest.approx(
        float(np.dot(g.cell_volumes, 0.5 * (left + right))) + 0.5 * 3.0, rel=1e-14)


# -- verification ---------------------------------------------------------------

def test_verify_pipeline_all_small():
    for name, dim, n in [("quadratic_ball_uniform", 2, 512),
                         ("mk_interval_uniform", None, 512),
                         ("reciprocal_interval", None, 512)]:
        fix, prob, sol = solve_fixture(name, dim, resolution=n)
        mu = mo.recover_measure(sol, prob)
        rep = mo.verify_conditions(mu, sol.u, prob)
        for field, value in rep.residuals().items():
            assert value <= 1e-3, (name, field, value)


def test_verify_detects_perturbed_density():
    _fix, prob, sol = solve_fixture("quadratic_ball_uniform", 2, resolution=256)
    mu = mo.recover_measure(sol, prob)
    bad = mo.DiscreteMeasure(prob.grid, 1.1 * mu.ac_density)
    rep = mo.verify_conditions(bad, sol.u, prob)
    assert rep.inclusion_violation > 1e-4
    assert rep.pde_residual > 1e-3


def test_verify_inclusion_iff_interval_membership():
    _fix, prob, sol = solve_fixture("quadratic_ball_uniform", 1, resolution=128)
    mu = mo.recover_measure(sol, prob)
    rep = mo.verify_conditions(mu, sol.u, prob)
    s = 0.5 * np.sum(prob.grid.gradient_apply(sol.u.values) ** 2, axis=1)
    lo = prob.conj_dminus(s)
    hi = prob.level(s)[1]
    inside = np.all((mu.ac_density >= lo - 1e-9 * (1 + np.abs(lo)))
                    & (mu.ac_density <= hi + 1e-9 * (1 + np.abs(hi))))
    assert inside == (rep.inclusion_violation <= 1e-9)


def test_verify_saturation_at_atoms():
    # a hand-built measure with an atom: saturation compares |grad|^2/2
    # against the recession slope at the atom
    fix, prob, sol = solve_fixture("mk_interval_uniform", resolution=128)
    base = mo.recover_measure(sol, prob)
    mu = mo.DiscreteMeasure(prob.grid, base.ac_density,
                            atoms=[(np.array([0.5]), 1e-6)])
    rep = mo.verify_conditions(mu, sol.u, prob)
    # |grad| = 1 there and recession = 1/2: |1/2 - 1/2| = 0
    assert rep.singular_saturation_error <= 1e-9


def test_verify_measures_the_boundary_mass():
    # the linear cost t/2 on [-1, 1] with a 5.0 atom at x = 1: the verifier
    # scores the atom's mass, and the recovered measure's boundary mass is 0
    _fix, prob, sol = solve_fixture("mk_interval_uniform", resolution=128)
    base = mo.recover_measure(sol, prob)
    assert mo.verify_conditions(base, sol.u, prob).boundary_mass == 0.0
    mu = mo.DiscreteMeasure(prob.grid, base.ac_density, atoms=[(np.array([1.0]), 5.0)])
    assert mo.verify_conditions(mu, sol.u, prob).boundary_mass == 5.0


def test_weak_duality_sandwich():
    # objective(u) >= E_f(mu) - C(mu) for arbitrary candidates
    g = mo.interval_grid(-1.0, 1.0, 96)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    rng = np.random.default_rng(17)
    x = g.node_coords[:, 0]
    for _ in range(8):
        u = sum(c * np.sin((k + 1) * math.pi * (x + 1) / 2)
                for k, c in enumerate(rng.standard_normal(3)))
        obj = mo.objective_eval(prob, u)
        a = rng.random(g.n_cells) + 0.05
        mu = mo.DiscreteMeasure(g, a)
        lower = mo.energy_eval(mu, prob.source).energy - mo.cost_eval(mu, prob.cost)
        assert obj >= lower - 1e-9 * (1.0 + abs(obj) + abs(lower))


def test_exact_pairs_pass_verification():
    # closed-form pairs sampled on the grid, validity windows applied
    cases = [("quadratic_ball_uniform", 1, 2048), ("quadratic_ball_uniform", 2, 2048),
             ("quadratic_ball_uniform", 3, 2048), ("mk_interval_uniform", None, 1024),
             ("reciprocal_interval", None, 1024)]
    for name, dim, n in cases:
        fix = mo.fixture(name, dim)
        prob = fix.build(n)
        grid = prob.grid
        u_ex = fix.u_exact(grid.node_coords[:, 0])
        mu_ex = mo.DiscreteMeasure(grid, fix.a_exact(grid.cell_centers[:, 0]))
        rep = mo.verify_conditions(mu_ex, u_ex, prob)
        for field, value in rep.residuals().items():
            assert value <= 1e-3, (name, field, value)


def test_exact_dirac_pairs_pass_with_exclusion():
    # the exact density is unbounded at the origin; per the fixture rule the
    # ball r < 0.1 is excluded: discrete-consistent values fill it so that
    # the global duality identity is meaningful
    for n in (2, 3):
        fix = mo.fixture("quadratic_ball_dirac", n)
        prob = fix.build(2048)
        grid = prob.grid
        sol = mo.solve_auxiliary(prob)
        mu_d = mo.recover_measure(sol, prob)
        cm, nm = fix.masks(grid)
        u_b = np.where(nm, fix.u_exact(grid.node_coords[:, 0]), sol.u.values)
        a_b = np.where(cm, fix.a_exact(grid.cell_centers[:, 0]), mu_d.ac_density)
        rep = mo.verify_conditions(mo.DiscreteMeasure(grid, a_b),
                                   u_b, prob,
                                   cell_mask=cm, node_mask=nm)
        for field, value in rep.residuals().items():
            assert value <= 1e-3, (n, field, value)


_TS = np.linspace(0.0, 8.0, 257)
_GRIDS = {"interval": lambda: mo.interval_grid(-1.0, 1.0, 64),
          "radial": lambda: mo.radial_grid(1.0, 64, 2),
          "square": lambda: mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8),
          "rectangle": lambda: mo.rectangle_grid(0.0, 1.5, 0.0, 1.0, 12, 8)}
_COSTS = {"quadratic": mo.quadratic_cost, "power": lambda: mo.power_cost(1.5),
          "linear": mo.linear_cost, "reciprocal": mo.reciprocal_cost,
          "expression": lambda: mo.expression_cost("t + t^2/2"),
          "table": lambda: mo.tabulated_cost(_TS, 0.5 * _TS * _TS)}


@pytest.mark.parametrize("cost", sorted(_COSTS))
@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_verifier_objective_is_the_solver_objective(grid, cost):
    # report.json's objective_i_fc is the verifier's I(u), computed from u
    # alone; it must be the solve's objective to the bit
    g = _GRIDS[grid]()
    prob = mo.build_problem(g, _COSTS[cost](), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob, mo.SolverParams(max_iterations=40))
    rep = mo.verify_conditions(mo.recover_measure(sol, prob), sol.u, prob)
    assert math.isfinite(sol.objective)
    assert rep.objective_i_fc == sol.objective == mo.objective_eval(prob, sol.u)


def test_report_json_fields():
    _fix, prob, sol = solve_fixture("mk_interval_uniform", resolution=128)
    mu = mo.recover_measure(sol, prob)
    rep = mo.verify_conditions(mu, sol.u, prob)
    data = recovery.json_safe(rep.to_dict())
    for field in mo.OptimalityReport.FIELDS:
        assert field in data
    assert "objective_i_fc" in data and "j_value" in data
    assert rep.passes({"pde_residual": 1e-3})
    # twice the optimal measure halves the energy and doubles the linear
    # cost, so its duality identity misses by construction
    double = mo.DiscreteMeasure(prob.grid, 2.0 * mu.ac_density,
                                atoms=[(loc, 2.0 * m) for loc, m in mu.atoms])
    rep2 = mo.verify_conditions(double, sol.u, prob)
    assert rep2.duality_identity_error > 1e-3
    assert not rep2.passes({"duality_identity_error": 1e-3})


def test_report_json_writes_non_finite_values_as_strings():
    rep = mo.OptimalityReport(0.0, 0.0, 0.0, 0.0, INF, 1.0, -INF, math.nan,
                              assumptions=("a",))
    data = recovery.json_safe(rep.to_dict())
    assert data["energy_e_f"] == "-inf" and data["duality_identity_error"] == "inf"
    assert data["cost_c"] == "nan" and data["assumptions"] == ["a"]
    assert recovery.json_safe({"x": [(1.0, -INF)], "y": {"z": math.nan}}) == {
        "x": [[1.0, "-inf"]], "y": {"z": "nan"}}


@pytest.mark.parametrize("make_grid, cost", [
    (lambda: mo.interval_grid(-1.0, 1.0, 64), mo.quadratic_cost),
    (lambda: mo.interval_grid(-1.0, 1.0, 64), lambda: mo.expression_cost("t + t^2/2")),
    (lambda: mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8), mo.quadratic_cost),
], ids=["interval", "interval-expression", "rectangle"])
def test_verify_scores_non_finite_density_as_unbounded(make_grid, cost):
    # energy_eval refuses the density, and an expression cost raises on nan;
    # the verifier scores it without evaluating it, and does not raise
    g = make_grid()
    prob = mo.build_problem(g, cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob)
    a = mo.recover_measure(sol, prob).ac_density.copy()
    for bad in (math.nan, math.inf):
        a[g.n_cells // 2] = bad
        rep = mo.verify_conditions(mo.DiscreteMeasure(g, a), sol.u, prob)
        assert rep.pde_residual == INF and rep.inclusion_violation == INF
        assert rep.energy_e_f == -INF and rep.duality_identity_error == INF
        assert math.isnan(rep.cost_c)
        assert not rep.passes({"duality_identity_error": 1e-3})


def test_energy_corner_joined_islands_are_pinned():
    # two unloaded cells meeting at one corner node float apart from the
    # grounded strip along the bottom; on oblong cells their four nodes off
    # the shared corner are coupled to it, yet each cell's gradient vanishes
    # only when the nodes on each of its diagonals agree: three free fields
    g = mo.rectangle_grid(0.0, 1.5, 0.0, 1.0, 8, 6)
    iy, ix = np.divmod(np.arange(g.n_cells), 8)
    strip = iy == 0
    islands = [(iy == 2) & (ix == 3), (iy == 3) & (ix == 4)]
    mu = mo.DiscreteMeasure(g, np.where(strip | islands[0] | islands[1], 1.0, 0.0))
    j, i = np.divmod(np.arange(g.n_nodes), 9)
    f = mo.SourceTerm(g, density=np.where(j == 1, 1.0 + 0.1 * i, 0.0))
    res = mo.energy_eval(mu, f)
    strip_only = mo.energy_eval(mo.DiscreteMeasure(g, np.where(strip, 1.0, 0.0)), f)
    assert math.isfinite(res.energy) and res.energy < 0.0
    assert res.energy == pytest.approx(strip_only.energy, rel=1e-12)
    assert res.residual <= 1e-12
    # one pinned node in each class of nodes that the cells' diagonals tie
    w = g.cell_volumes * mu.ac_density
    pins = set(g.interior_idx[recovery._floating_pins(g, w, f.load_vector()[g.interior_idx])])
    for tied in ({21, 31, 41}, {22, 30}, {32, 40}):
        assert len(pins & tied) == 1
    for cells in islands:
        corners = np.zeros(g.n_nodes)
        for k in np.nonzero(cells)[0]:
            corners[[k + k // 8, k + k // 8 + 1, k + k // 8 + 9, k + k // 8 + 10]] = 1.0
        with pytest.raises(mo.Unbounded):
            mo.energy_eval(mu, mo.SourceTerm(g, density=corners))
