"""Conductivity recovery from the auxiliary solution, and verification.

One rule, :func:`recover_measure`, serves every grid and both regimes: the
conductivity is the density the solver's flux carries,
``AuxiliarySolution.density``, projected onto ``dom c``.  In one dimension
the field is integrated from the exact flux and the density is
``|sigma| / t``, with ``D-c*`` where the flux or ``t`` vanishes.  On
rectangles it is Newton's conjugate derivative ``c*'(s)`` at its last
iterate, smoothed where the cost needs it: for the log barrier the
central-path multiplier.
:func:`recover_via_regularization` approximates a linear-regime measure
through the continuation ``c + eps t^2`` instead.

The verifier scores a pair ``(mu, u)``, a measure and a nodal field, and
reads nothing of the solve that produced them; a closed-form pair is
checked the same way as a solved one.  It scores every optimality
condition numerically:  the weak PDE residual, the pointwise
Fenchel-equality error (equivalent to membership of the density in the
subdifferential interval), the saturation of the gradient magnitude at
atoms against the recession slope, the boundary mass, and the duality
identity tying the energy/cost pair to the auxiliary value ``I_{f,c}(u)``,
computed from ``u`` with the conjugate values of the Fenchel check.  The
energy is the flux recursion on 1-d grids, on numpy alone, and a banded
Cholesky solve on rectangles, which alone import scipy.  The gradient
entering atom conditions is the interpolated grid gradient, a documented
surrogate for the tangential gradient.
"""

import math

import numpy as np

from .costs import regularized_cost
from .errors import RegimeMismatch, ScheduleTooShort, Unbounded
from .grids import (DiscreteMeasure, ScalarField, VectorField, divergence_weighted,
                    stiffness_factor)
from .solver import (SolverParams, _half_square, _primal_from_gradient, build_problem,
                     resolve_cell_weights, solve_auxiliary, telescoped_load)

INF = math.inf

# the Fenchel equality is scored on cells whose density exceeds this
# fraction of the largest density
DENSITY_FLOOR_REL = 1e-12
# the regularization path flags a cell holding more than this fraction of
# the total mass as an emergent singular part
CONCENTRATION_FRACTION = 0.05


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def recover_measure(solution, problem):
    """Optimal measure: ``solution.density`` projected onto the cost's domain.

    The one clip into ``dom c``, on every grid and in both regimes (no
    atoms): a saturated table cell can end a rounding or a level's ``mu``
    past the last sample.
    """
    return DiscreteMeasure(problem.grid, np.clip(solution.density, *problem.cost.domain))


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
                               solver_params=None, cauchy_tol=0.05):
    """Approximate a linear-regime measure through superlinear continuation.

    Solves the problem for ``c_eps = c + eps * t^2`` over a decreasing
    schedule, recovers the density each time, and reports the
    weak-star settling of the iterates.  Cells concentrating more than
    ``CONCENTRATION_FRACTION`` of the total mass are flagged as emergent
    singular parts.  This is an approximation path, not an exact
    construction: the verifier decides whether its measure is optimal.
    ``massopt run`` does not use it; this function is a library call.
    Each level reuses the problem's cell weights, so a heterogeneous cost
    is continued as ``w(x) * c_eps(t)``.
    """
    if problem.regime != "L":
        raise RegimeMismatch("regularization continuation applies to the linear regime")
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
        prob_eps = build_problem(problem.grid, ceps, problem.source, problem.cell_weights)
        # the recovered density rescales gradient errors by 1/eps, so the
        # certified gap must shrink with eps^2 for the iterates to settle
        params_eps = SolverParams(
            max_iterations=params.max_iterations,
            gap_tolerance=max(min(params.gap_tolerance, 0.1 * eps * eps), 1e-10))
        sol = solve_auxiliary(prob_eps, params_eps)
        measure = recover_measure(sol, prob_eps)
        a = measure.ac_density
        total = float(np.dot(vol, a))
        cell_mass = vol * a
        flags.append([int(i) for i in np.nonzero(cell_mass > CONCENTRATION_FRACTION
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
        self.u = u
        self.residual = residual

    def __repr__(self):
        return "EnergyResult(energy=%.12g, residual=%.3g)" % (self.energy, self.residual)


def _floating_pins(grid, w, F):
    """One interior node of each floating component of a rectangle's cell weights ``w``.

    A cell's averaged gradient vanishes exactly when the nodes on each of
    its diagonals (:attr:`massopt.grids.CellCorners.opposite`) agree, so the
    fields of zero energy are constant on each component of the graph whose
    edges are the diagonals of the cells with ``w > 0``.  A component without a boundary node floats.  Raises
    :class:`Unbounded` when the interior load ``F`` puts net load on one,
    which includes a loaded node with no stiffness.
    """
    # imported here, so that importing the package loads no scipy.sparse
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    corners = grid.corners
    index = np.arange(grid.n_nodes).reshape(corners.node_shape)
    ends = [np.concatenate([index[pair[i]].ravel() for _o, *pair in corners.opposite])
            for i in (0, 1)]
    tied = np.tile(w > 0.0, len(corners.opposite))  # the diagonals of each cell
    graph = coo_matrix((np.ones(np.count_nonzero(tied)), (ends[0][tied], ends[1][tied])),
                       shape=(grid.n_nodes, grid.n_nodes))
    n_comp, labels = connected_components(graph, directed=False)
    floating = np.ones(n_comp, dtype=bool)
    floating[labels[grid.boundary_mask]] = False
    labels = labels[grid.interior_idx]
    net = np.bincount(labels, weights=F, minlength=n_comp)
    scale = np.bincount(labels, weights=np.abs(F), minlength=n_comp)
    _refuse_loaded(floating, net, scale)
    present, first = np.unique(labels, return_index=True)
    return first[floating[present]]


def _refuse_loaded(floating, net, scale):
    """Raise :class:`Unbounded` if a floating part's net load exceeds 1e-10 of its absolute load."""
    if np.any(floating & (np.abs(net) > 1e-10 * scale)):
        raise Unbounded("source loads a part of the domain that the measure "
                        "does not connect to the boundary")


def _telescoped_field(grid, w, F):
    """The field of least energy ``0.5 * sum(w g^2) - <F, u>`` on a 1-d grid.

    Cell ``i`` carries the flux ``q0 - cum_i`` (:func:`telescoped_load`), so
    its gradient is ``(q0 - cum_i) h_i / w_i``; ``q0 = sum(h^2/w * cum) /
    sum(h^2/w)`` closes ``u`` on an interval.  A cell of zero weight is a
    cut that carries no flux, and the flux restarts after it.  On an
    interval the first cut fixes ``q0`` and takes the gradient that closes
    ``u``.  The runs of nodes between two cuts, and on a radial grid the
    run from the centre to the first cut, float, and must carry no net load
    (:func:`_refuse_loaded`).
    """
    h = grid.widths[0]
    cum, free = telescoped_load(grid, F)
    cut = w == 0.0
    cuts = np.flatnonzero(cut)
    w = np.where(cut, 1.0, w)
    q0 = 0.0
    if free:  # the first cut carries no flux; with none, q0 closes u
        q0 = cum[cuts[0]] if cuts.size else float(np.dot(h * h / w, cum) / np.sum(h * h / w))
    if cuts.size:
        # the load of the run of nodes that ends at each cut; an interval's
        # first run reaches its left end
        load = np.where(grid.boundary_mask, 0.0, F)[:cuts[-1] + 1]
        starts = np.concatenate([[0], cuts[:-1] + 1])
        _refuse_loaded(np.arange(cuts.size) >= free, np.add.reduceat(load, starts),
                       np.add.reduceat(np.abs(load), starts))
    last = np.maximum.accumulate(np.where(cut, np.arange(grid.n_cells), -1))
    g = np.where(cut, 0.0, (np.where(last >= 0, cum[last], q0) - cum) * h / w)
    if free and cuts.size:
        g[cuts[0]] = -float(np.dot(h, g)) / h[cuts[0]]
    return _primal_from_gradient(grid, g)


def energy_eval(mu, source):
    """Infimal weighted Dirichlet energy ``E_f(mu)`` by one direct solve.

    Minimises ``0.5 * sum(w |G u|^2) - <F, u>`` over the interior nodes for
    the cell masses ``w = vol * a`` of ``mu``, atoms folded in
    (:attr:`massopt.grids.DiscreteMeasure.cell_mass`): on an interval or radial grid by the
    flux recursion (:func:`_telescoped_field`), on a rectangle by banded
    Cholesky of the stiffness, with one node of each floating component
    (:func:`_floating_pins`) pinned as a unit row with a zero load, which
    leaves the energy unchanged when the component carries no net load.
    The energy and residual ``F - G^T (w G u)`` are scored by the gradient
    stencils.  Raises :class:`Unbounded` when the energy is unbounded below:
    the source loads a floating part of the domain, the factorisation meets
    a pivot that is not positive (a stiffness singular to working
    precision), or the energy falls below the admissibility floor.  Raises
    ``ValueError`` when a density of ``mu`` is not finite.
    """
    if not np.all(np.isfinite(mu.ac_density)):
        raise ValueError("density must be finite")
    grid = mu.grid
    idx = grid.interior_idx
    F = source.load_vector()
    Fin = F[idx]
    fnorm = float(np.linalg.norm(Fin))
    if fnorm == 0.0:
        return EnergyResult(0.0, ScalarField.zeros(grid), 0.0)

    w = mu.cell_mass
    if grid.dim == 1:
        uf = _telescoped_field(grid, w, F)
    else:
        pins = _floating_pins(grid, w, Fin) if np.any(w == 0.0) else []  # else none floats
        rhs = Fin.copy()
        rhs[pins] = 0.0
        uf = np.zeros(grid.n_nodes)
        uf[idx] = stiffness_factor(grid, w, pins).solve(rhs)
    g = grid.gradient_apply(uf)
    energy = float(np.sum(w * _half_square(g))) - float(Fin @ uf[idx])
    if energy < -1e13 * (1.0 + fnorm) ** 2:
        raise Unbounded("weighted energy diverges below the admissibility floor")
    resid = float(np.linalg.norm(Fin - grid.gradient_adjoint(g * w[:, None])[idx]))
    return EnergyResult(energy, ScalarField(grid, uf), resid / fnorm)


def _atom_weight(grid, cell_weights, loc):
    """Weight at an atom: the average of the cell weights around it."""
    if cell_weights is None:
        return 1.0
    return sum(w * cell_weights[i] for i, w in grid.cell_weights_at(loc))


def cost_eval(mu, cost, cell_weights=None):
    """Total cost ``C(mu)``: density integral plus recession-weighted atoms.

    ``cell_weights`` are the per-cell weights of the problem, ``None`` for
    a homogeneous cost.  An atom is weighted by the cells around it.
    """
    weights = resolve_cell_weights(mu.grid, cell_weights)
    return _total_cost(mu, cost, weights,
                       cost.value(mu.ac_density, weight=1.0 if weights is None else weights))


def _total_cost(mu, cost, weights, values):
    """``C(mu)`` from the per-cell cost values ``values`` of its density.

    ``weights`` is the checked weight table, ``None`` when homogeneous.
    """
    vals = np.asarray(values, dtype=float)
    if np.any(np.isinf(vals)):
        return INF
    total = float(np.dot(mu.grid.cell_volumes, vals))
    for loc, mass in mu.atoms:
        rec = cost.recession_slope() * _atom_weight(mu.grid, weights, loc)
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
                 energy_e_f, cost_c, assumptions=()):
        self.pde_residual = pde_residual
        self.inclusion_violation = inclusion_violation
        self.singular_saturation_error = singular_saturation_error
        self.boundary_mass = boundary_mass
        self.duality_identity_error = duality_identity_error
        self.objective_i_fc = objective_i_fc
        self.energy_e_f = energy_e_f
        self.cost_c = cost_c
        self.j_value = -energy_e_f + cost_c
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
                  "assumptions": self.assumptions})
        return d

    def __repr__(self):
        body = ", ".join("%s=%.3g" % (k, v) for k, v in self.residuals().items())
        return "OptimalityReport(%s)" % body


def json_safe(obj):
    """``obj`` with every float that is not finite, at any depth, as its ``repr`` string."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def verify_conditions(mu, u, problem, cell_mask=None, node_mask=None):
    """Score every optimality condition of the pair ``(mu, u)``.

    ``u`` is the nodal field, an array or a :class:`ScalarField`; the
    verifier reads nothing else of a solve.  Its objective ``I_{f,c}(u)``
    (:func:`massopt.solver.objective_eval`) is taken from the conjugate
    values of the inclusion check (at ``s`` from ``solver._half_square``),
    and its total cost ``C(mu)``
    (:func:`cost_eval`) from that check's cost values.
    ``cell_mask`` / ``node_mask`` restrict the metrics (used e.g. to excise
    a ball around a source singularity where exact fields are unbounded).
    The report carries numbers; it never raises.  An energy that is
    unbounded below scores ``-inf``, and the duality identity error
    ``inf``; so does a density that is not finite, whose cost is ``nan``
    and whose PDE residual and inclusion violation are ``inf``.
    """
    grid = problem.grid
    F = problem.load
    values = u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)
    grad = VectorField(grid, grid.gradient_apply(values))
    s = _half_square(grad.values)
    conj_v = np.asarray(problem.level(s)[0], dtype=float)
    objective = float(np.dot(grid.cell_volumes, conj_v) - np.dot(F, values))
    a = mu.ac_density

    if cell_mask is None:
        cell_mask = np.ones(grid.n_cells, dtype=bool)
    if node_mask is None:
        node_mask = np.ones(grid.n_nodes, dtype=bool)
    interior = node_mask & ~grid.boundary_mask

    # 1) weak residual of -div(mu grad u) = f, and 2) the Fenchel-equality
    # error on cells carrying density; a density that is not finite has
    # neither, and scores inf on both
    finite = bool(np.all(np.isfinite(a)))
    pde_residual = inclusion = INF
    if finite:
        cost_v = np.asarray(problem.cost_value(a), dtype=float)
        resid = -divergence_weighted(mu, grad) - F
        denom = float(np.sum(np.abs(F[~grid.boundary_mask])))
        pde_residual = float(np.sum(np.abs(resid[interior]))) / max(denom, 1e-300)
        floor = DENSITY_FLOOR_REL * max(float(np.max(a)), 1e-300)
        active = cell_mask & (a > floor)
        inclusion = 0.0
        if np.any(active):
            inclusion = float(np.max(np.abs(a * s - conj_v - cost_v)[active]))

    # 3) gradient saturation at atoms (interpolated-gradient surrogate)
    saturation = 0.0
    for loc, _mass in mu.atoms:
        s_at = 0.5 * float(np.sum(grad.at_point(loc) ** 2))
        rec = problem.cost.recession_slope() * _atom_weight(grid, problem.cell_weights, loc)
        saturation = max(saturation, abs(s_at - rec))

    # 4) the boundary mass is mu.boundary_mass; 5) the duality identity
    # E_f(mu) - C(mu) = I_{f,c}: neither side is defined for a density that
    # is not finite, which energy_eval refuses
    energy, total_cost = -INF, math.nan
    if finite:
        try:
            energy = energy_eval(mu, problem.source).energy
        except Unbounded:
            pass
        total_cost = _total_cost(mu, problem.cost, problem.cell_weights, cost_v)
    if math.isfinite(energy) and math.isfinite(total_cost):
        duality_err = abs(energy - total_cost - objective)
    else:
        duality_err = INF

    assumptions = list(problem.assumptions)
    if mu.atoms:
        assumptions.append("atom conditions read |grad u| from the interpolated grid "
                           "gradient, a surrogate for the tangential gradient")

    return OptimalityReport(pde_residual, inclusion, saturation, mu.boundary_mass,
                            duality_err, objective, energy, total_cost, assumptions)
