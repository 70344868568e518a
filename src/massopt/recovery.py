"""Conductivity recovery from the auxiliary solution, and verification.

Superlinear regime: the optimal density is a cellwise selection from the
subdifferential interval of the conjugate at ``|grad u|^2 / 2``; when the
interval is nondegenerate the selection minimizing the local divergence
residual against the source is taken (exact flux matching in one dimension,
least-squares projection in two).

Linear regime, one dimension: the measure is reconstructed from the flux.
The scalar flux ``v`` with ``-v' = f`` (atom jumps included) is the
antiderivative of ``-f``; on interval grids its integration constant is
fixed by requiring the recovered gradient to integrate to zero across the
domain.  Inverting the monotone gradient-to-flux map ``m(g) = g *
dc*(g^2/2)`` then yields the gradient and the density ``a = v / g``.

The verifier scores every optimality condition numerically:  the weak PDE
residual, the pointwise Fenchel-equality error (equivalent to membership of
the density in the subdifferential interval), the saturation of the gradient
magnitude at atoms against the recession slope, the boundary mass, and the
duality identity tying the energy/cost pair to the auxiliary value.  The
gradient entering atom conditions is the interpolated grid gradient, a
documented surrogate for the tangential gradient.
"""

import json
import math

import numpy as np
from scipy.sparse.csgraph import connected_components

from .costs import regularized_cost
from .errors import RegimeMismatch, ScheduleTooShort, Unbounded, UnsupportedGrid
from .grids import DiscreteMeasure, ScalarField, divergence_weighted, spd_solve, stiffness
from .solver import (SolverParams, build_problem, feasible_flux_1d, objective_eval,
                     solve_auxiliary)

INF = math.inf


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def recover_density_sl(solution, problem):
    """Optimal density in the superlinear regime (atom-free measure)."""
    if problem.regime != "SL":
        raise RegimeMismatch("superlinear recovery called on a linear-regime problem")
    g = solution.grad.values
    s = 0.5 * np.sum(g * g, axis=1)
    lo = problem.conj_dminus(s)
    hi = problem.conj_dplus(s)
    a = 0.5 * (lo + np.where(np.isfinite(hi), hi, lo))
    wide = (hi - lo) > 1e-9 * (1.0 + np.abs(lo))
    if np.any(wide):
        sigma = solution.flux.values
        g2 = np.sum(g * g, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            fit = np.where(g2 > 0.0, np.sum(g * sigma, axis=1) / np.where(g2 > 0.0, g2, 1.0), lo)
        a = np.where(wide, np.clip(fit, lo, hi), a)
    return DiscreteMeasure(problem.grid, np.maximum(a, 0.0))


def recover_measure_l_1d(solution, problem):
    """Linear-regime measure on an interval or radial grid via flux inversion."""
    if problem.regime != "L":
        raise RegimeMismatch("flux construction requires the linear regime")
    if problem.grid.kind == "rectangle":
        raise UnsupportedGrid("use recover_via_regularization on rectangles")
    sigma, g = feasible_flux_1d(problem)
    vabs = np.abs(sigma[:, 0])
    t, a = problem.invert_flux(vabs)
    atoms = []
    # the attainable flux range of the density part is unbounded for any
    # valid linear-regime conjugate; this guard only catches numerical
    # inversion failures and books the excess as singular mass
    matched = t * a
    excess = vabs - matched
    bad = excess > 1e-8 * (1.0 + vabs)
    if np.any(bad):
        caps = problem.cell_caps
        for i in np.nonzero(bad)[0]:
            mass = float(excess[i] * problem.grid.cell_h[i] / max(caps[i], 1e-300))
            atoms.append((problem.grid.cell_centers[i], mass))
    return DiscreteMeasure(problem.grid, a, atoms=atoms)


class RegularizationDiagnostics:
    """Continuation record: L1 increments, concentration flags, settling."""

    def __init__(self, epsilons, l1_changes, concentration_flags, settled):
        self.epsilons = list(epsilons)
        self.l1_changes = list(l1_changes)
        self.concentration_flags = list(concentration_flags)
        self.settled = settled

    def __repr__(self):
        return ("RegularizationDiagnostics(eps=%s, changes=%s, settled=%s)"
                % (self.epsilons, ["%.3g" % c for c in self.l1_changes], self.settled))


def recover_via_regularization(problem, epsilon_schedule=(1e-2, 1e-3, 1e-4),
                               solver_params=None, cauchy_tol=0.05,
                               concentration_fraction=0.05):
    """Approximate a linear-regime measure through superlinear continuation.

    Solves the problem for ``c_eps = c + eps * t^2`` over a decreasing
    schedule, recovers the superlinear density each time, and reports the
    weak-star settling of the iterates.  Cells concentrating more than
    ``concentration_fraction`` of the total mass are flagged as emergent
    singular parts.  This is an approximation path, not an exact
    construction; the verifier is the arbiter.
    """
    if problem.regime != "L":
        raise RegimeMismatch("regularization continuation applies to the linear regime")
    if problem.cell_weights is not None:
        raise UnsupportedGrid("regularization supports homogeneous costs only")
    if len(epsilon_schedule) < 2:
        raise ScheduleTooShort("need at least two regularization levels")
    params = solver_params or SolverParams()
    vol = problem.grid.cell_volumes
    prev = None
    changes = []
    flags = []
    measure = None
    for eps in epsilon_schedule:
        ceps = regularized_cost(problem.cost, eps)
        prob_eps = build_problem(problem.grid, ceps, problem.source)
        # the recovered density rescales gradient errors by 1/eps, so the
        # certified gap must shrink with eps^2 for the iterates to settle
        params_eps = SolverParams(
            max_iterations=params.max_iterations,
            gap_tolerance=max(min(params.gap_tolerance, 0.1 * eps * eps), 1e-10),
            check_every=params.check_every,
            power_iterations=params.power_iterations,
            step_scale=params.step_scale,
            warm_restart=params.warm_restart)
        sol = solve_auxiliary(prob_eps, params_eps)
        measure = recover_density_sl(sol, prob_eps)
        a = measure.ac_density
        total = float(np.dot(vol, a))
        cell_mass = vol * a
        flags.append([int(i) for i in np.nonzero(cell_mass > concentration_fraction
                                                 * max(total, 1e-300))[0]])
        if prev is not None:
            diff = float(np.dot(vol, np.abs(a - prev)))
            changes.append(diff / max(total, 1e-300))
        prev = a
    settled = bool(changes and changes[-1] <= cauchy_tol
                   and all(x >= y - 1e-12 for x, y in zip(changes, changes[1:])))
    diag = RegularizationDiagnostics(epsilon_schedule, changes, flags, settled)
    if not settled:
        raise ScheduleTooShort("regularization iterates not settled: changes=%s"
                               % ["%.3g" % c for c in changes])
    return measure, diag


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

class EnergyResult:
    def __init__(self, energy, u, residual):
        self.energy = energy
        self.compliance = -energy
        self.u = u
        self.residual = residual

    def __repr__(self):
        return "EnergyResult(energy=%.12g, residual=%.3g)" % (self.energy, self.residual)


def _floating_pins(K, F):
    """One node of each floating component of the stiffness graph.

    A component is floating when none of its rows couples to the boundary,
    i.e. its row sums vanish: its field is then fixed only up to a
    constant.  Raises :class:`Unbounded` when the source puts net load on
    a floating component, which includes a loaded node with no stiffness.
    """
    # scipy's sparse products and sums drop exact zeros, so the graph of K
    # has an edge exactly where two nodes are coupled
    n_comp, labels = connected_components(K, directed=False)
    # the sums of a floating row cancel only to rounding
    grounded = np.abs(K @ np.ones(K.shape[0])) > 1e-12 * K.diagonal()
    floating = np.ones(n_comp, dtype=bool)
    floating[labels[grounded]] = False
    net = np.bincount(labels, weights=F, minlength=n_comp)
    scale = np.bincount(labels, weights=np.abs(F), minlength=n_comp)
    if np.any(floating & (np.abs(net) > 1e-10 * scale)):
        raise Unbounded("source loads a part of the domain that the measure "
                        "does not connect to the boundary")
    _, first = np.unique(labels, return_index=True)
    return first[floating]


def energy_eval(mu, source):
    """Infimal weighted Dirichlet energy ``E_f(mu)`` by one direct solve.

    Solves the weak form of ``-div(a grad u) = f`` on the interior nodes
    (atoms of ``mu`` contribute point stiffness) with one sparse SPD
    factorisation, :func:`massopt.grids.spd_solve`.  Interior nodes that
    the measure does not connect to the boundary form floating components;
    one node of each is pinned, which leaves the energy unchanged when the
    component carries no net load.  Raises :class:`Unbounded` when the
    energy is unbounded below: the source loads a floating component (for
    instance a node with no stiffness), or the energy falls below the
    admissibility floor.
    """
    grid = mu.grid
    K = stiffness(grid, grid.cell_volumes * mu.ac_density, mu.atoms)
    Fin = source.load_vector()[grid.interior_idx]
    fnorm = float(np.linalg.norm(Fin))
    if fnorm == 0.0:
        return EnergyResult(0.0, ScalarField.zeros(grid), 0.0)

    free = np.ones(Fin.size, dtype=bool)
    free[_floating_pins(K, Fin)] = False
    u = np.zeros(Fin.size)
    u[free] = spd_solve(K[free][:, free], Fin[free])
    energy = 0.5 * float(u @ (K @ u)) - float(Fin @ u)
    if energy < -1e13 * (1.0 + fnorm) ** 2:
        raise Unbounded("weighted energy diverges below the admissibility floor")
    resid = float(np.linalg.norm(Fin - K @ u))
    uf = np.zeros(grid.n_nodes)
    uf[grid.interior_idx] = u
    return EnergyResult(energy, ScalarField(grid, uf), resid / fnorm)


def cost_eval(mu, cost, cell_weights=None):
    """Total cost ``C(mu)``: density integral plus recession-weighted atoms.

    ``cell_weights`` carries per-cell heterogeneity tables; separable
    callable weights are resolved from the cost itself.
    """
    grid = mu.grid
    weights = cell_weights if cell_weights is not None \
        else cost.weights_on(grid.cell_centers)
    vals = np.asarray(cost.value(mu.ac_density, weight=weights), dtype=float)
    if np.any(np.isinf(vals)):
        return INF
    total = float(np.dot(grid.cell_volumes, vals))
    for loc, mass in mu.atoms:
        if cell_weights is not None:
            w_at = sum(w * cell_weights[i] for i, w in grid.cell_weights_at(loc))
        else:
            w_at = cost.weight_at(loc)
        rec = cost.recession_slope() * w_at
        if math.isinf(rec):
            return INF
        total += rec * mass
    return total


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class OptimalityReport:
    """Numeric score of every optimality condition; JSON-serializable."""

    FIELDS = ("pde_residual", "inclusion_violation", "singular_saturation_error",
              "boundary_mass", "duality_identity_error")

    def __init__(self, pde_residual, inclusion_violation, singular_saturation_error,
                 boundary_mass, duality_identity_error, objective_i_fc,
                 energy_e_f, cost_c, duality_gap, assumptions=()):
        self.pde_residual = pde_residual
        self.inclusion_violation = inclusion_violation
        self.singular_saturation_error = singular_saturation_error
        self.boundary_mass = boundary_mass
        self.duality_identity_error = duality_identity_error
        self.objective_i_fc = objective_i_fc
        self.energy_e_f = energy_e_f
        self.cost_c = cost_c
        self.j_value = -energy_e_f + cost_c
        self.duality_gap = duality_gap
        self.assumptions = list(assumptions)

    def residuals(self):
        return {name: getattr(self, name) for name in self.FIELDS}

    def passes(self, thresholds):
        return all(getattr(self, name) <= thresholds[name]
                   for name in self.FIELDS if name in thresholds)

    def to_dict(self):
        d = self.residuals()
        d.update({"objective_i_fc": self.objective_i_fc,
                  "energy_e_f": self.energy_e_f,
                  "cost_c": self.cost_c,
                  "j_value": self.j_value,
                  "duality_gap": self.duality_gap,
                  "assumptions": self.assumptions})
        return d

    def to_json(self):
        def clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return repr(v)
            return v

        return json.dumps({k: clean(v) for k, v in self.to_dict().items()},
                          indent=2, sort_keys=True)

    def __repr__(self):
        body = ", ".join("%s=%.3g" % (k, v) for k, v in self.residuals().items())
        return "OptimalityReport(%s)" % body


def solution_like(problem, u_values):
    """Wrap nodal values as a minimal solution object for verification."""
    from .solver import AuxiliarySolution

    vals = u_values.values if isinstance(u_values, ScalarField) else np.asarray(u_values)
    obj = objective_eval(problem, vals)
    sigma = np.zeros((problem.grid.n_cells, problem.grid.dim))
    return AuxiliarySolution(problem, np.asarray(vals, dtype=float), sigma, obj,
                             -INF, INF, INF, 0, False, INF, [],
                             notes=["verification wrapper; no dual certificate"])


def verify_conditions(mu, solution, problem, cell_mask=None, node_mask=None,
                      density_floor_rel=1e-12):
    """Score every optimality condition for a candidate pair ``(mu, u)``.

    ``cell_mask`` / ``node_mask`` restrict the metrics (used e.g. to excise
    a ball around a source singularity where exact fields are unbounded).
    The report carries numbers; it never raises.
    """
    grid = problem.grid
    F = problem.load
    g = solution.grad.values
    s = 0.5 * np.sum(g * g, axis=1)
    a = mu.ac_density

    if cell_mask is None:
        cell_mask = np.ones(grid.n_cells, dtype=bool)
    if node_mask is None:
        node_mask = np.ones(grid.n_nodes, dtype=bool)
    interior = node_mask & ~grid.boundary_mask

    # 1) weak residual of -div(mu grad u) = f
    div = divergence_weighted(mu, solution.grad)
    resid = -div - F
    denom = float(np.sum(np.abs(F[~grid.boundary_mask])))
    pde_residual = float(np.sum(np.abs(resid[interior]))) / max(denom, 1e-300)

    # 2) Fenchel-equality error on cells carrying density
    floor = density_floor_rel * max(float(np.max(a)), 1e-300)
    active = cell_mask & (a > floor)
    if np.any(active):
        conj_v = np.asarray(problem.conj_value(s), dtype=float)
        cost_v = np.asarray(problem.cost_value(a), dtype=float)
        err = np.abs(a * s - conj_v - cost_v)
        inclusion = float(np.max(err[active]))
    else:
        inclusion = 0.0

    # 3) gradient saturation at atoms (interpolated-gradient surrogate)
    saturation = 0.0
    for loc, _mass in mu.atoms:
        s_at = 0.5 * float(np.sum(solution.grad.at_point(loc) ** 2))
        if problem.cell_weights is not None:
            w_at = sum(w * problem.cell_weights[i]
                       for i, w in grid.cell_weights_at(loc))
        else:
            w_at = problem.cost.weight_at(loc)
        rec = problem.cost.recession_slope() * w_at
        saturation = max(saturation, abs(s_at - rec))

    # 4) boundary mass
    boundary_mass = mu.boundary_mass

    # 5) duality identity  E_f(mu) - C(mu) = I_{f,c}
    try:
        energy = energy_eval(mu, problem.source).energy
    except Unbounded:
        energy = -INF
    total_cost = cost_eval(mu, problem.cost, cell_weights=problem.cell_weights)
    if math.isfinite(energy) and math.isfinite(total_cost):
        duality_err = abs(energy - total_cost - solution.objective)
    else:
        duality_err = INF

    assumptions = list(problem.assumptions)
    if mu.atoms:
        assumptions.append("atom gradient magnitudes use the interpolated grid "
                           "gradient as a surrogate for the tangential gradient")

    return OptimalityReport(pde_residual, inclusion, saturation, boundary_mass,
                            duality_err, solution.objective, energy, total_cost,
                            solution.gap, assumptions)
