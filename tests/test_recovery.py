"""Conductivity recovery, energies, and the optimality verifier."""

import json
import math

import numpy as np
import pytest

import massopt as mo

INF = math.inf


def solve_fixture(name, dim=None, resolution=512):
    fix = mo.fixture(name, dim)
    prob = fix.build(resolution)
    sol = mo.solve_auxiliary(prob)
    return fix, prob, sol


# -- superlinear recovery ----------------------------------------------------

def test_sl_density_is_half_gradient_squared():
    _fix, prob, sol = solve_fixture("quadratic_ball_uniform", 2)
    mu = mo.recover_density_sl(sol, prob)
    s = 0.5 * np.sum(sol.grad.values ** 2, axis=1)
    assert np.allclose(mu.ac_density, s, atol=1e-13)
    assert not mu.atoms


def test_sl_density_zero_gradient_cell():
    g = mo.interval_grid(-1.0, 1.0, 64)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 0.0))
    sol = mo.solve_auxiliary(prob)
    mu = mo.recover_density_sl(sol, prob)
    assert np.all(mu.ac_density == 0.0)


def test_sl_radial_density_matches_closed_form():
    fix, prob, sol = solve_fixture("quadratic_ball_uniform", 3, resolution=1024)
    mu = mo.recover_density_sl(sol, prob)
    a_ex = fix.a_exact(prob.grid.cell_centers[:, 0])
    vol = prob.grid.cell_volumes
    err = np.dot(vol, np.abs(mu.ac_density - a_ex)) / np.dot(vol, a_ex)
    assert err <= 0.005


def test_sl_dirac_density_window():
    fix, prob, sol = solve_fixture("quadratic_ball_dirac", 2, resolution=1024)
    mu = mo.recover_density_sl(sol, prob)
    cm, _ = fix.masks(prob.grid)
    a_ex = fix.a_exact(prob.grid.cell_centers[:, 0])
    rel = np.abs(mu.ac_density - a_ex)[cm] / a_ex[cm]
    assert np.max(rel) <= 0.05


def test_sl_recovery_rejects_linear_regime():
    _fix, prob, sol = solve_fixture("mk_interval_uniform")
    with pytest.raises(mo.RegimeMismatch):
        mo.recover_density_sl(sol, prob)


# -- linear-regime recovery --------------------------------------------------

def test_mk_flux_inversion():
    fix, prob, sol = solve_fixture("mk_interval_uniform", resolution=1024)
    mu = mo.recover_measure_l_1d(sol, prob)
    assert not mu.atoms
    a_ex = np.abs(prob.grid.cell_centers[:, 0])
    vol = prob.grid.cell_volumes
    err = np.dot(vol, np.abs(mu.ac_density - a_ex)) / np.dot(vol, a_ex)
    assert err <= 0.03
    # gradient saturates where the measure lives
    g = np.abs(sol.grad.values[:, 0])
    on = mu.ac_density > 0.05
    assert np.max(np.abs(g[on] - 1.0)) <= 1e-3


def test_reciprocal_density_lower_bound():
    fix, prob, sol = solve_fixture("reciprocal_interval", resolution=1024)
    mu = mo.recover_measure_l_1d(sol, prob)
    floor = 1e-12 * np.max(mu.ac_density)
    assert np.min(mu.ac_density[mu.ac_density > floor]) >= 1.0 - 1e-6
    a_ex = fix.a_exact(prob.grid.cell_centers[:, 0])
    assert np.max(np.abs(mu.ac_density - a_ex)) <= 1e-10


def test_l_recovery_radial_reciprocal():
    g = mo.radial_grid(1.0, 512, 2)
    prob = mo.build_problem(g, mo.reciprocal_cost(), mo.SourceTerm.constant(g, 1.0))
    sol = mo.solve_auxiliary(prob)
    mu = mo.recover_measure_l_1d(sol, prob)
    rep = mo.verify_conditions(mu, sol, prob)
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
    mu = mo.recover_measure_l_1d(sol, prob)
    rep = mo.verify_conditions(mu, sol, prob)
    assert sol.max_gradient <= 1.0 + 1e-9
    for field, value in rep.residuals().items():
        assert value <= 1e-3, (field, value)
    on = mu.ac_density > 1e-3 * np.max(mu.ac_density)
    assert np.max(np.abs(np.abs(sol.grad.values[on, 0]) - 1.0)) <= 1e-9


def test_l_recovery_zero_source_minimal_selection():
    # zero flux: density falls back to the cost-minimal subgradient at 0,
    # which is 1 for the reciprocal cost (its pointwise minimum sits at t=1)
    g = mo.interval_grid(-1.0, 1.0, 64)
    prob = mo.build_problem(g, mo.reciprocal_cost(), mo.SourceTerm.constant(g, 0.0))
    sol = mo.solve_auxiliary(prob)
    mu = mo.recover_measure_l_1d(sol, prob)
    assert np.allclose(mu.ac_density, 1.0, atol=1e-12)
    assert not mu.atoms


def test_l_recovery_regime_and_grid_guards():
    _fix, prob, sol = solve_fixture("quadratic_ball_uniform", 2)
    with pytest.raises(mo.RegimeMismatch):
        mo.recover_measure_l_1d(sol, prob)
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8)
    prob2 = mo.build_problem(g, mo.linear_cost(0.5), mo.SourceTerm.constant(g, 1.0))
    sol2 = mo.solve_auxiliary(prob2, mo.SolverParams(max_iterations=100,
                                                     gap_tolerance=1e-2))
    with pytest.raises(mo.UnsupportedGrid):
        mo.recover_measure_l_1d(sol2, prob2)


# -- regularization continuation ---------------------------------------------

def test_regularization_converges_to_flux_construction():
    fix, prob, sol = solve_fixture("mk_interval_uniform", resolution=1024)
    mu_1d = mo.recover_measure_l_1d(sol, prob)
    mu_eps, diag = mo.recover_via_regularization(prob)
    assert diag.settled
    vol = prob.grid.cell_volumes
    err = np.dot(vol, np.abs(mu_eps.ac_density - mu_1d.ac_density)) / \
        np.dot(vol, mu_1d.ac_density)
    assert err <= 0.03
    assert all(not flags for flags in diag.concentration_flags)


def test_regularization_rectangle_settles():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 10, 10)
    prob = mo.build_problem(g, mo.linear_cost(0.5), mo.SourceTerm.constant(g, 1.0))
    params = mo.SolverParams(max_iterations=4000, check_every=50)
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
    res = mo.energy_eval(mo.DiscreteMeasure.lebesgue(g), mo.SourceTerm.constant(g, 1.0))
    assert res.energy == pytest.approx(-1.0 / 3.0, abs=1e-5)


def test_energy_zero_source():
    g = mo.interval_grid(-1.0, 1.0, 64)
    res = mo.energy_eval(mo.DiscreteMeasure.lebesgue(g), mo.SourceTerm.constant(g, 0.0))
    assert res.energy == 0.0


def test_energy_inverse_scaling():
    g = mo.interval_grid(-1.0, 1.0, 128)
    f = mo.SourceTerm.constant(g, 1.0)
    e1 = mo.energy_eval(mo.DiscreteMeasure.lebesgue(g), f).energy
    lam = 2.5
    e2 = mo.energy_eval(mo.DiscreteMeasure(g, lam * np.ones(g.n_cells)), f).energy
    assert e2 == pytest.approx(e1 / lam, rel=1e-10)


def test_energy_with_atoms_in_stiffness():
    g = mo.interval_grid(-1.0, 1.0, 64)
    mu = mo.DiscreteMeasure(g, np.ones(g.n_cells), atoms=[(np.array([0.0]), 5.0)])
    f = mo.SourceTerm.constant(g, 1.0)
    stiffer = mo.energy_eval(mu, f).energy
    plain = mo.energy_eval(mo.DiscreteMeasure.lebesgue(g), f).energy
    assert stiffer > plain  # extra stiffness raises the infimal energy


def test_energy_unbounded_detection():
    g = mo.interval_grid(-1.0, 1.0, 32)
    mu = mo.DiscreteMeasure(g, np.zeros(g.n_cells))
    with pytest.raises(mo.Unbounded):
        mo.energy_eval(mu, mo.SourceTerm.constant(g, 1.0))


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
    x = mu.grid.nodes_1d
    dens = np.sin(2.0 * np.pi * (x - x[21]) / (x[40] - x[21]))
    res = mo.energy_eval(mu, mo.SourceTerm(mu.grid, density=np.where(island, dens, 0.0)))
    assert res.energy == pytest.approx(-0.003940563848416746, rel=1e-10)
    assert res.residual <= 1e-12


def test_energy_rectangle_with_atom_matches_dense_solve():
    # dense reference: stiffness columns from the matrix-free gradient, the
    # atom's point stiffness from the gradients on the cell that carries it
    g = mo.rectangle_grid(0.0, 1.5, 0.0, 1.0, 7, 5)
    x, y = g.cell_centers[:, 0], g.cell_centers[:, 1]
    a = 1.0 + x * x + 0.5 * np.sin(3.0 * y)
    loc, mass = np.array([0.8, 0.45]), 2.5
    mu = mo.DiscreteMeasure(g, a, atoms=[(loc, mass)])
    f = mo.SourceTerm.from_function(g, lambda p: 1.0 + p[0] * p[1])

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
    assert mo.cost_eval(mo.DiscreteMeasure.lebesgue(g), lin) == pytest.approx(1.0)
    atom = mo.DiscreteMeasure(g, np.zeros(g.n_cells), atoms=[(np.array([0.0]), 1.0)])
    assert mo.cost_eval(atom, lin) == pytest.approx(0.5)
    assert mo.cost_eval(atom, mo.quadratic_cost()) == INF


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
        if prob.regime == "SL":
            mu = mo.recover_density_sl(sol, prob)
        else:
            mu = mo.recover_measure_l_1d(sol, prob)
        rep = mo.verify_conditions(mu, sol, prob)
        for field, value in rep.residuals().items():
            assert value <= 1e-3, (name, field, value)


def test_verify_detects_perturbed_density():
    _fix, prob, sol = solve_fixture("quadratic_ball_uniform", 2, resolution=256)
    mu = mo.recover_density_sl(sol, prob)
    bad = mo.DiscreteMeasure(prob.grid, 1.1 * mu.ac_density)
    rep = mo.verify_conditions(bad, sol, prob)
    assert rep.inclusion_violation > 1e-4
    assert rep.pde_residual > 1e-3


def test_verify_inclusion_iff_interval_membership():
    _fix, prob, sol = solve_fixture("quadratic_ball_uniform", 1, resolution=128)
    mu = mo.recover_density_sl(sol, prob)
    rep = mo.verify_conditions(mu, sol, prob)
    s = 0.5 * np.sum(sol.grad.values ** 2, axis=1)
    lo = prob.conj_dminus(s)
    hi = prob.conj_dplus(s)
    inside = np.all((mu.ac_density >= lo - 1e-9 * (1 + np.abs(lo)))
                    & (mu.ac_density <= hi + 1e-9 * (1 + np.abs(hi))))
    assert inside == (rep.inclusion_violation <= 1e-9)


def test_verify_saturation_at_atoms():
    # a hand-built measure with an atom: saturation compares |grad|^2/2
    # against the recession slope at the atom
    fix, prob, sol = solve_fixture("mk_interval_uniform", resolution=128)
    base = mo.recover_measure_l_1d(sol, prob)
    mu = mo.DiscreteMeasure(prob.grid, base.ac_density,
                            atoms=[(np.array([0.5]), 1e-6)])
    rep = mo.verify_conditions(mu, sol, prob)
    # |grad| = 1 there and recession = 1/2: |1/2 - 1/2| = 0
    assert rep.singular_saturation_error <= 1e-9


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
        rep = mo.verify_conditions(mu_ex, mo.solution_like(prob, u_ex), prob)
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
        mu_d = mo.recover_density_sl(sol, prob)
        cm, nm = fix.masks(grid)
        u_b = np.where(nm, fix.u_exact(grid.node_coords[:, 0]), sol.u.values)
        a_b = np.where(cm, fix.a_exact(grid.cell_centers[:, 0]), mu_d.ac_density)
        rep = mo.verify_conditions(mo.DiscreteMeasure(grid, a_b),
                                   mo.solution_like(prob, u_b), prob,
                                   cell_mask=cm, node_mask=nm)
        for field, value in rep.residuals().items():
            assert value <= 1e-3, (n, field, value)


def test_report_json_fields():
    _fix, prob, sol = solve_fixture("mk_interval_uniform", resolution=128)
    mu = mo.recover_measure_l_1d(sol, prob)
    rep = mo.verify_conditions(mu, sol, prob)
    data = json.loads(rep.to_json())
    for field in mo.OptimalityReport.FIELDS:
        assert field in data
    assert "objective_i_fc" in data and "j_value" in data
    assert rep.passes({"pde_residual": 1e-3})
    assert not rep.passes({"duality_identity_error": 1e-20})
