"""Acceptance criteria, one test per criterion, pass/fail line printed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

import massopt as mo
from massopt import oracle
from massopt.oracle import _concave_max

INF = math.inf


def _report(num, text):
    print("ACCEPTANCE %-2d PASS: %s" % (num, text))


def _pipeline(name, dim, resolution):
    fix = mo.fixture(name, dim)
    prob = fix.build(resolution)
    sol = mo.solve_auxiliary(prob)
    mu = mo.recover_measure(sol, prob)
    return fix, prob, sol, mu


# -- criterion 1: quadratic ball, uniform source ------------------------------

def test_criterion_1_quadratic_ball_uniform():
    lines = []
    for n in (1, 2, 3):
        t0 = time.monotonic()
        fix, prob, sol, mu = _pipeline("quadratic_ball_uniform", n, 2048)
        elapsed = time.monotonic() - t0
        u_err, a_err = mo.fixture_errors(fix, prob.grid, sol.u.values, mu)
        assert sol.converged
        assert u_err <= 0.01, (n, u_err)
        assert a_err <= 0.02, (n, a_err)
        assert elapsed <= 10.0, (n, elapsed)
        lines.append("n=%d u_sup %.2e a_L1 %.2e %.2fs" % (n, u_err, a_err, elapsed))
    _report(1, "uniform ball: " + "; ".join(lines))


# -- criterion 2: quadratic ball, point source --------------------------------

def test_criterion_2_quadratic_ball_dirac():
    lines = []
    for n in (2, 3):
        fix, prob, sol, mu = _pipeline("quadratic_ball_dirac", n, 2048)
        cell_mask, _ = fix.masks(prob.grid)
        a_ex = fix.a_exact(prob.grid.cell_centers[:, 0])
        rel = np.abs(mu.ac_density - a_ex)[cell_mask] / a_ex[cell_mask]
        assert np.max(rel) <= 0.05, (n, np.max(rel))
        lines.append("n=%d max rel %.2e" % (n, np.max(rel)))
    _report(2, "point-source ball on r in [0.1, 0.9]: " + "; ".join(lines))


# -- criterion 3: conjugate / recession catalog --------------------------------

def test_criterion_3_conjugate_recession_catalog():
    cases = [
        ("t^2/2", lambda s: 0.5 * s * s if s > 0 else 0.0, (-1.0, 3.0), INF),
        ("t + 1/t", lambda s: -2.0 * math.sqrt(1.0 - s), (-2.0, 0.99), 1.0),
        ("t/2", lambda s: 0.0, (-1.0, 0.49), 0.5),
    ]
    builtins = [mo.quadratic_cost(), mo.reciprocal_cost(), mo.linear_cost(0.5)]
    worst = 0.0
    for (text, exact, (lo, hi), rec), builtin in zip(cases, builtins):
        numeric = mo.expression_cost(text)
        for s in np.linspace(lo, hi, 100):
            err = abs(float(numeric.conjugate_value(float(s))) - exact(float(s)))
            worst = max(worst, err)
            assert err <= 1e-8, (text, s, err)
        # classification is exact; builtin recession slopes are the exact values
        assert builtin.recession_slope() == rec
        assert builtin.regime == numeric.regime == ("SL" if math.isinf(rec) else "L")
        if math.isfinite(rec):
            assert abs(numeric.recession_slope() - rec) <= 1e-8
        else:
            assert numeric.recession_slope() == INF
    _report(3, "catalog conjugates at 100 points, worst |err| %.2e; "
               "recession values {inf, 1, 1/2} classified exactly" % worst)


# -- criterion 4: Fenchel-Young and biconjugacy --------------------------------

def test_criterion_4_fenchel_young_and_biconjugacy():
    catalog = [("quadratic", mo.quadratic_cost()), ("linear", mo.linear_cost(0.5)),
               ("reciprocal", mo.reciprocal_cost()), ("power", mo.power_cost(3.0))]
    rng = np.random.default_rng(2024)
    worst_gap = INF
    for name, cost in catalog:
        t = rng.uniform(0.0, 10.0, 10000)
        thr = cost.recession_slope()
        s = rng.uniform(-2.0, thr if math.isfinite(thr) else 6.0, 10000)
        ct = np.asarray(cost.base_value(t), dtype=float)
        cs = np.asarray(cost.conjugate_value(s), dtype=float)
        finite = np.isfinite(ct) & np.isfinite(cs)
        gap = (ct + cs - t * s)[finite]
        worst_gap = min(worst_gap, float(np.min(gap)))
        assert float(np.min(gap)) >= -1e-12, name

        hi = thr if math.isfinite(thr) else INF
        seed = min(1.0, 0.5 * thr) if math.isfinite(thr) else 1.0
        for tt in np.linspace(1e-3, 8.0, 256):
            exact = float(np.asarray(cost.base_value(tt)))
            if not math.isfinite(exact):
                continue
            val, _ = _concave_max(
                lambda s_: tt * s_ - float(np.asarray(cost.conjugate_value(s_))),
                seed=seed, lo=-INF, hi=hi)
            assert abs(val - exact) <= 1e-7, (name, tt, val, exact)
    _report(4, "Fenchel-Young >= -1e-12 on 4x10^4 pairs (worst %.1e); "
               "biconjugacy within 1e-7 at 256 points per cost" % worst_gap)


# -- criterion 5: optimality verification on fixtures ---------------------------

def test_criterion_5_verification_on_fixtures():
    cases = [("quadratic_ball_uniform", 1, 2048), ("quadratic_ball_uniform", 2, 2048),
             ("quadratic_ball_uniform", 3, 2048), ("quadratic_ball_dirac", 2, 2048),
             ("quadratic_ball_dirac", 3, 2048), ("mk_interval_uniform", None, 1024),
             ("reciprocal_interval", None, 1024)]
    worst = 0.0
    for name, dim, resolution in cases:
        fix, prob, sol, mu = _pipeline(name, dim, resolution)
        rep = mo.verify_conditions(mu, sol.u, prob)
        for field, value in rep.residuals().items():
            worst = max(worst, value)
            assert value <= 1e-3, (name, dim, field, value)
    _report(5, "all optimality residuals <= 1e-3 on 7 fixture pipelines "
               "(worst %.2e)" % worst)


# -- criterion 6: linear-regime Lipschitz bound ---------------------------------

def test_criterion_6_lipschitz_bound():
    runs = []
    # one-dimensional linear-regime solves
    for name, resolution in [("mk_interval_uniform", 1024),
                             ("reciprocal_interval", 1024)]:
        fix, prob, sol, _mu = _pipeline(name, None, resolution)
        assert sol.max_gradient <= np.max(prob.cell_caps) + 1e-9
        runs.append((name, sol.max_gradient, np.max(prob.cell_caps)))
    # the catalog case c = t/2 has bound exactly 1
    assert runs[0][2] == pytest.approx(1.0)
    assert runs[0][1] <= 1.0 + 1e-9
    # point source in the linear regime
    g = mo.interval_grid(-1.0, 1.0, 512)
    prob = mo.build_problem(g, mo.linear_cost(0.5),
                            mo.SourceTerm(g, atoms=[(np.array([0.2]), 1.0)]))
    sol = mo.solve_auxiliary(prob)
    assert sol.max_gradient <= 1.0 + 1e-9
    # two dimensions
    g2 = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 16, 16)
    prob2 = mo.build_problem(g2, mo.linear_cost(0.5), mo.SourceTerm.constant(g2, 1.0))
    sol2 = mo.solve_auxiliary(prob2, mo.SolverParams(max_iterations=2000,
                                                     gap_tolerance=1e-3))
    assert sol2.max_gradient <= 1.0 + 1e-9
    # heterogeneous linear cost: per-cell bound sqrt(2 w(x) cinf)
    w = lambda x: 1.0 + 0.5 * float(np.atleast_1d(x)[0]) ** 2
    probh = mo.build_problem(g, mo.linear_cost(0.5), mo.SourceTerm.constant(g, 1.0),
                             cell_weights=[w(x) for x in g.cell_centers])
    solh = mo.solve_auxiliary(probh)
    assert np.all(np.abs(g.gradient_apply(solh.u.values)[:, 0]) <= probh.cell_caps + 1e-9)
    _report(6, "max |grad u| <= bound + 1e-9 on 5 linear-regime solves "
               "(c = t/2 bound = 1: got %.12f)" % runs[0][1])


# -- criterion 7: oracle equivalence ---------------------------------------------

def _criterion_7_instances():
    """The 20 random small problems of criterion 7, as ``(trial, kind, n, problem)``."""
    rng = np.random.default_rng(777)
    for trial in range(20):
        kind = trial % 4
        if kind == 0:
            cost = mo.quadratic_cost()
            n = int(rng.integers(4, 10))
        elif kind == 1:
            cost = mo.power_cost(2.5)
            n = int(rng.integers(4, 10))
        elif kind == 2:
            cost = mo.reciprocal_cost()
            n = int(rng.integers(4, 7))
        else:
            cost = mo.linear_cost(0.5)
            n = int(rng.integers(4, 10))
        g = mo.interval_grid(-1.0, 1.0, n)
        if kind == 3:
            density = rng.random(g.n_nodes) + 0.1  # one-signed for the pure indicator
        else:
            density = rng.standard_normal(g.n_nodes)
        yield trial, kind, n, mo.build_problem(g, cost, mo.SourceTerm(g, density=density))


def test_criterion_7_oracle_equivalence():
    worst = 0.0
    for trial, kind, n, prob in _criterion_7_instances():
        sol = mo.solve_auxiliary(prob, mo.SolverParams(gap_tolerance=1e-12))
        val, _u = mo.brute_force_min(prob)
        diff = abs(sol.objective - val)
        worst = max(worst, diff)
        assert diff <= 1e-6, (trial, kind, n, diff)
    _report(7, "20 random small instances: worst |solver - oracle| = %.2e" % worst)


def test_criterion_7_oracle_stops_before_its_pass_cap(monkeypatch):
    # A pass that runs no golden section leaves the iterate as it is and
    # ends the descent, so fewer line searches than the cap minus one
    # means the descent stopped on its own, before the cap.
    calls = [0]
    golden_min = oracle._golden_min

    def counted(*args, **kwargs):
        calls[0] += 1
        return golden_min(*args, **kwargs)

    monkeypatch.setattr(oracle, "_golden_min", counted)
    for trial, kind, n, prob in _criterion_7_instances():
        calls[0] = 0
        mo.brute_force_min(prob)
        assert calls[0] < oracle._MAX_PASSES - 1, (trial, kind, n, calls[0])


# -- criterion 8: one-dimensional mass-transfer reduction -------------------------

def test_criterion_8_mk_reduction():
    fix, prob, sol, mu = _pipeline("mk_interval_uniform", None, 1024)
    grid = prob.grid
    vol = grid.cell_volumes
    # independent oracle: the flux antiderivative v(x) = -x gives a = |x|
    a_oracle = np.abs(grid.cell_centers[:, 0])
    l1 = np.dot(vol, np.abs(mu.ac_density - a_oracle)) / np.dot(vol, a_oracle)
    assert l1 <= 0.03, l1
    on = mu.ac_density > 0.05
    g = np.abs(grid.gradient_apply(sol.u.values)[:, 0])
    sat = np.max(np.abs(g[on] - 1.0))
    assert sat <= 1e-3, sat
    mu_eps, diag = mo.recover_via_regularization(
        prob, epsilon_schedule=(1e-2, 1e-3, 1e-4))
    assert diag.settled
    l1_eps = np.dot(vol, np.abs(mu_eps.ac_density - mu.ac_density)) / \
        np.dot(vol, mu.ac_density)
    assert l1_eps <= 0.03, l1_eps
    _report(8, "density vs |x| L1 %.2e; | |grad|-1 | %.1e on support; "
               "regularization path L1 %.2e" % (l1, sat, l1_eps))


# -- criterion 9: reciprocal cost lower bound --------------------------------------

def test_criterion_9_reciprocal_lower_bound():
    fix, prob, sol, mu = _pipeline("reciprocal_interval", None, 1024)
    floor = 1e-12 * float(np.max(mu.ac_density))
    live = mu.ac_density > floor
    low = float(np.min(mu.ac_density[live]))
    assert low >= 1.0 - 1e-6, low
    _report(9, "recovered density >= 1 - 1e-6 above the floor (min %.9f)" % low)


# -- criterion 10: first variation vs finite differences ---------------------------

def test_criterion_10_gradient_check():
    g = mo.interval_grid(-1.0, 1.0, 64)
    prob = mo.build_problem(g, mo.quadratic_cost(), mo.SourceTerm.constant(g, 1.0))
    rng = np.random.default_rng(5150)
    x = g.node_coords[:, 0]
    worst = 0.0
    for _ in range(50):
        u = sum(c * np.sin((k + 1) * math.pi * x)
                for k, c in enumerate(rng.standard_normal(5)))
        d = sum(c * np.sin((k + 1) * math.pi * x)
                for k, c in enumerate(rng.standard_normal(5)))
        grad = mo.objective_gradient(prob, u)
        eps = 1e-5
        fd = (mo.objective_eval(prob, u + eps * d)
              - mo.objective_eval(prob, u - eps * d)) / (2.0 * eps)
        an = float(grad @ d)
        rel = abs(an - fd) / max(1.0, abs(fd))
        worst = max(worst, rel)
        assert rel <= 1e-5, rel
    _report(10, "first variation vs central differences at 50 random smooth "
                "points: worst rel err %.2e" % worst)
