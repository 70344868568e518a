"""Certified solver for the discretized auxiliary variational problem.

The discrete problem is

    minimize  sum_i vol_i * c*(x_i, |g_i|^2 / 2)  -  <F, u>
    over nodal u vanishing on the boundary,  g = Du the per-cell gradient.

The integrand is convex in ``g`` (a nondecreasing convex function of
``|g|^2/2``).  Every solve ends in an honest certificate: a
divergence-feasible flux whose dual value bounds the optimum from below,
so ``gap = objective - dual`` is a true optimality gap.  The solution
names the method that closed it (``AuxiliarySolution.method``):

* ``"certificate"``: in one dimension the feasible set of fluxes is a point
  or a one-parameter family, so the exact flux depends on the problem
  alone.  Inverting the gradient-to-flux map along it
  (:meth:`AuxiliaryProblem.invert_flux`) gives the gradient of every cell
  that carries flux; a cell of zero flux may take any gradient up to the
  cost's dead-zone edge (:meth:`massopt.costs.CostFunction.zero_flux_edge`).
  Integrating that gradient yields a primal candidate that typically lands
  on the discrete minimizer to machine precision.  This certificate is the
  whole 1-d solve: it takes no iteration, and it is converged exactly when
  its gap meets the tolerance.
* ``"newton"``: in two dimensions, for power-law conjugates
  ``c0*(s) = s^q / q`` (quadratic and power costs), the objective is C^2
  and convex.  Damped Newton starts from the unit-weight Poisson solution
  scaled along its ray, takes one direct solve of the tensor stiffness
  ``G^T H G`` per step (per-cell 2x2 Hessian blocks, see
  :func:`_hessian_blocks`), backtracks on the objective, and certifies
  every step by projecting its flux.
* ``"splitting"``: every other 2-d case runs a Chambolle-Pock primal-dual
  splitting whose dual update reduces to a scalar monotone root-find per
  cell, by bisection on the upper conjugate derivative ``D+c*``
  (:func:`massopt.costs.bisect`): its map is strictly increasing and
  ``D-c* <= D+c*``, so a test on the lower derivative could never move a
  bracket end.  In the linear regime the bracket starts at the cap, so the
  pointwise bound ``|g| <= sqrt(2 * cinf(x))`` holds exactly, never by
  penalty.  Each check projects the iterate's flux once, scores it as the
  dual certificate, and builds a Picard candidate from it.  The solver
  keeps whichever iterate has the best merit, so the reported gap is
  monotone along accepted iterates.

In two dimensions the flux projection, the Newton step and the Picard
candidate are each one direct solve of an interior stiffness
(:func:`massopt.grids.stiffness`, :func:`massopt.grids.spd_factor`), exact
up to rounding.  The projection's unit-weight stiffness depends on the grid
only, so each solve factors it once and reuses the factor at every check.
"""

import math

import numpy as np

from .costs import bisect, validate_cost
from .errors import InadmissibleSource, InvalidCost, NotConverged, RegimeMismatch
from .grids import ScalarField, VectorField, spd_factor, stiffness

INF = math.inf

# both splitting steps are this fraction of 1 / ||D||
STEP_SCALE = 0.95


class SolverParams:
    """Iteration budget and tolerances for :func:`solve_auxiliary`.

    ``max_iterations`` and ``check_every`` apply in two dimensions only: a
    1-d solve is its exact certificate and takes no iteration.
    Both are at least 1.  ``max_iterations`` bounds the splitting iterations,
    or the Newton steps of a power-law solve.  The splitting builds a
    certificate every ``check_every`` iterations, and an improving
    candidate always restarts it; Newton certifies every step, so
    ``check_every`` does not apply to it.  ``log_path``, when set, receives
    the iteration log as CSV.
    """

    def __init__(self, max_iterations=20000, gap_tolerance=1e-8, check_every=25,
                 log_path=None):
        if not gap_tolerance > 0.0:
            raise ValueError("gap_tolerance must be positive")
        if int(max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")
        if int(check_every) < 1:
            raise ValueError("check_every must be >= 1")
        self.max_iterations = int(max_iterations)
        self.gap_tolerance = float(gap_tolerance)
        self.check_every = int(check_every)
        self.log_path = log_path


class AuxiliaryProblem:
    """Assembled instance: grid + cost (with conjugate) + source.

    ``cell_weights`` holds the separable weight of every cell, ``None`` for
    a homogeneous cost; every weighted map of the problem is the cost's
    homogeneous map rescaled by it.
    """

    def __init__(self, grid, cost, source, cell_weights=None, assumptions=()):
        self.grid = grid
        self.cost = cost
        self.source = source
        self.cell_weights = cell_weights
        self._w = 1.0 if cell_weights is None else cell_weights
        self.load = source.load_vector()
        self.regime = cost.regime
        self.cell_thresholds = np.full(grid.n_cells, self._w * cost.recession_slope())
        with np.errstate(over="ignore"):
            self.cell_caps = np.where(np.isinf(self.cell_thresholds), INF,
                                      np.sqrt(2.0 * np.minimum(self.cell_thresholds, 1e300)))
        self.lip_bound = float(np.max(self.cell_caps)) if self.regime == "L" else INF
        self.assumptions = list(assumptions)

    # weighted conjugate shortcuts -------------------------------------------------

    def conj_value(self, s):
        return self.cost.conjugate_value(s, weight=self._w)

    def conj_dminus(self, s):
        return self.cost.conjugate_dminus(s, weight=self._w)

    def conj_dplus(self, s):
        return self.cost.conjugate_dplus(s, weight=self._w)

    def invert_flux(self, vabs):
        return self.cost.invert_flux(vabs, weight=self._w)

    def cost_value(self, a):
        return self.cost.value(a, weight=self._w)


def resolve_cell_weights(grid, cost, cell_weights=None):
    """Per-cell weights: the table given, else the cost's callable weight.

    The callable ``cost.spatial_weight`` is evaluated once per cell center.
    Returns ``None`` for a homogeneous cost (no table, no callable).  Raises
    :class:`InvalidCost` unless there is one weight per cell and every
    weight is finite and positive.
    """
    if cell_weights is None:
        if cost.spatial_weight is None:
            return None
        cell_weights = [float(cost.spatial_weight(x)) for x in grid.cell_centers]
    cell_weights = np.asarray(cell_weights, dtype=float)
    if cell_weights.shape != (grid.n_cells,):
        raise InvalidCost("cell weight table needs %d entries" % grid.n_cells)
    if not np.all(np.isfinite(cell_weights) & (cell_weights > 0.0)):
        raise InvalidCost("cell weights must be finite and positive")
    return cell_weights


def build_problem(grid, cost, source, cell_weights=None):
    """Validate and assemble an :class:`AuxiliaryProblem`.

    The weights come from ``cell_weights`` when given, else from the cost's
    callable (:func:`resolve_cell_weights`).  Dirac parts of the source are
    admitted in the linear regime always, and in the superlinear regime
    only for quadratic-type growth (the quadratic catalog cost and its
    regularized continuations) in dimension <= 3.
    """
    assumptions = []
    cell_weights = resolve_cell_weights(grid, cost, cell_weights)
    if cell_weights is not None:
        assumptions.append("heterogeneous cost: absence of the Lavrentiev "
                           "phenomenon is assumed, not verified")
        if cost.spatial_weight is None:
            assumptions.append("per-cell weight table: upper semicontinuity "
                               "of the conjugate in x is assumed")

    report = validate_cost(cost, sample_budget=64)
    if not report.passed:
        raise InvalidCost("cost failed validation: %s" % "; ".join(report.failures))

    if source.atoms and cost.regime == "SL":
        quadratic_like = cost.name in ("quadratic", "regularized")
        if not (quadratic_like and grid.ball_dim <= 3):
            raise InadmissibleSource(
                "Dirac source parts in the superlinear regime are supported "
                "only for quadratic-type costs in dimension <= 3 "
                "(cost=%s, dimension=%d)" % (cost.name, grid.ball_dim))

    return AuxiliaryProblem(grid, cost, source, cell_weights, assumptions)


# ---------------------------------------------------------------------------
# objective and first variation
# ---------------------------------------------------------------------------

def objective_eval(problem, u):
    """Discrete objective; ``+inf`` when a cell violates the gradient bound."""
    values = u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)
    g = problem.grid.gradient_apply(values)
    s = 0.5 * np.sum(g * g, axis=1)
    integrand = problem.conj_value(s)
    if np.any(np.isinf(integrand)):
        return INF
    return float(np.dot(problem.grid.cell_volumes, integrand)
                 - np.dot(problem.load, values))


def objective_gradient(problem, u):
    """First variation of the objective (superlinear, differentiable case)."""
    values = u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)
    grid = problem.grid
    g = grid.gradient_apply(values)
    s = 0.5 * np.sum(g * g, axis=1)
    d = problem.conj_dplus(s)
    flux = g * (grid.cell_volumes * d)[:, None]
    out = grid.gradient_adjoint(flux) - problem.load
    out[grid.boundary_mask] = 0.0
    return out


# ---------------------------------------------------------------------------
# per-cell scalar solves
# ---------------------------------------------------------------------------

def _prox_bisect(problem, r, lam):
    """Solve ``r in t + lam * t * dc*(t^2/2)`` per cell by bisection on ``D+c*``.

    The bracket starts at the cap, so the linear-regime bound holds exactly.
    """
    r = np.asarray(r, dtype=float)

    def below(t):
        with np.errstate(invalid="ignore", over="ignore"):
            return t + lam * t * problem.conj_dplus(0.5 * t * t) < r

    return bisect(below, np.zeros_like(r), np.minimum(r, problem.cell_caps), 70)


def _dual_value(problem, sigma, t=None):
    """Dual objective of a divergence-feasible flux density ``sigma``.

    ``t`` is the inverted gradient magnitude of ``|sigma|`` when the caller
    already has it.
    """
    absw = np.sqrt(np.sum(np.asarray(sigma, dtype=float) ** 2, axis=1))
    if t is None:
        t, _ = problem.invert_flux(absw)
    psi = problem.conj_value(0.5 * t * t)
    phi_star = t * absw - psi
    return -float(np.dot(problem.grid.cell_volumes, phi_star))


# ---------------------------------------------------------------------------
# one-dimensional certificates (exact flux construction)
# ---------------------------------------------------------------------------

def feasible_flux_1d(problem):
    """Divergence-feasible cell fluxes on an interval or radial grid.

    The nodal constraints ``(D^T y)_j = F_j`` telescope in one dimension:
    with ``q_i = y_i / h_i`` they read ``q_{j-1} - q_j = F_j``.  On radial
    grids the center node is free, so ``q`` is fully determined; on interval
    grids one constant remains and is fixed by the zero-mean condition on
    the recovered gradient (monotone in the constant, solved by bisection
    between ``min(cum) - 1`` and ``max(cum) + 1``, where every flux has one
    sign).

    Returns ``(sigma, g, t)``: per-cell flux densities, a matching gradient
    selection, and the inverted magnitude ``t`` of ``|sigma|`` that scores
    the flux's dual value.  ``g = t * sign(sigma)`` wherever the flux is
    nonzero; on interval grids the zero-flux cells absorb the mean of ``g``
    within the dead-zone edge, so ``sum(h * g) = 0`` up to rounding where
    they can.
    """
    grid = problem.grid
    if grid.dim != 1:
        raise RegimeMismatch("1-d flux construction needs an interval or radial grid")
    F = problem.load
    h = grid.cell_h
    vol = grid.cell_volumes
    n = grid.n_cells

    if grid.kind == "radial":
        q = -np.cumsum(F[:n])
        sigma = q * h / vol
        t, _ = problem.invert_flux(np.abs(sigma))
        return sigma[:, None], t * np.sign(sigma), t

    cum = np.concatenate([[0.0], np.cumsum(F[1:n])])

    def mean_grad(q0):
        sigma = (q0 - cum) * h / vol
        t, _ = problem.invert_flux(np.abs(sigma))
        return float(np.dot(h, t * np.sign(sigma)))

    # every flux is negative below min(cum) and positive above max(cum),
    # so the mean gradient changes sign inside this bracket
    q0 = float(bisect(lambda q: mean_grad(q) < 0.0, float(np.min(cum)) - 1.0,
                      float(np.max(cum)) + 1.0, 120))

    sigma = (q0 - cum) * h / vol
    # the bisection leaves the flux of the sign-change cell at rounding
    # level; a nonzero sign there would pin that cell's gradient to the
    # dead-zone edge and the zero-mean selection below could not close
    sigma[np.abs(sigma) <= 1e-12 * np.max(np.abs(sigma))] = 0.0
    t, _ = problem.invert_flux(np.abs(sigma))
    # a nonzero flux fixes its gradient; a zero flux admits any gradient up
    # to the dead-zone edge
    slack = np.where(sigma == 0.0, np.sqrt(problem._w) * problem.cost.zero_flux_edge(), 0.0)
    g = _zero_mean_selection(h, t * np.sign(sigma), slack)
    return sigma[:, None], g, t


def _zero_mean_selection(h, g, slack):
    """Move ``g`` by at most ``slack`` per cell so that ``sum(h * g)`` vanishes.

    The cells absorb the deficit in order, each up to its slack.  A residue
    the slack cannot absorb is left in place; :func:`_primal_from_gradient`
    spreads it as a uniform ramp.
    """
    need = -float(np.dot(h, g))
    room = h * slack
    take = np.minimum(room, np.maximum(abs(need) - (np.cumsum(room) - room), 0.0))
    return g + np.sign(need) * take / h


def _primal_from_gradient(grid, g):
    """Integrate a per-cell gradient into a zero-boundary nodal field."""
    u = np.zeros(grid.n_nodes)
    if grid.kind == "radial":
        u[:-1] = -np.cumsum((grid.cell_h * g)[::-1])[::-1]
        u[-1] = 0.0
    else:
        u[1:] = np.cumsum(grid.cell_h * g)
        # spread the rounding residue as a uniform ramp so both endpoints
        # vanish exactly without bumping a single cell's gradient
        span = grid.nodes_1d[-1] - grid.nodes_1d[0]
        u -= u[-1] * (grid.nodes_1d - grid.nodes_1d[0]) / span
        u[-1] = 0.0
    return u


def _project_flux(problem, y_cells, unit_factor):
    """Project vol-weighted cell fluxes onto the divergence constraint.

    The correction ``G z`` solves ``(G^T G) z = F - G^T y`` on the interior
    nodes by one direct solve with ``unit_factor``, the factor of the
    unit-weight stiffness ``G^T G``, so the returned residual is rounding
    level.
    """
    grid = problem.grid
    idx = grid.interior_idx
    Gi = grid.interior_gradient()
    y_flat = y_cells.T.ravel()
    resid = problem.load[idx] - Gi.T @ y_flat
    y_hat = y_flat + Gi @ unit_factor.solve(resid)
    sigma = y_hat.reshape(grid.dim, grid.n_cells).T / grid.cell_volumes[:, None]
    res = float(np.linalg.norm(Gi.T @ y_hat - problem.load[idx]))
    return sigma, res


def _picard_candidate(problem, sigma):
    """Primal candidate: density from flux inversion, one weighted solve.

    Inverting the gradient-to-flux map along a feasible flux gives a
    density field; minimizing the quadratic energy for that frozen density
    (a Picard step for the nonlinear optimality system) produces a primal
    iterate that typically tightens the certificate far faster than the
    splitting alone.
    """
    grid = problem.grid
    absw = np.sqrt(np.sum(sigma * sigma, axis=1))
    _t, a = problem.invert_flux(absw)
    a = np.maximum(a, 1e-12 * max(float(np.max(a)), 1.0))
    idx = grid.interior_idx
    u = np.zeros(grid.n_nodes)
    u[idx] = spd_factor(stiffness(grid, grid.cell_volumes * a)).solve(problem.load[idx])
    return u


def _rescale_feasible(problem, u):
    """Shrink a field onto the linear-regime gradient bound (no-op in SL)."""
    if problem.regime != "L":
        return u
    g = problem.grid.gradient_apply(u)
    mags = np.sqrt(np.sum(g * g, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = problem.cell_caps / np.where(mags > 0.0, mags, 1.0)
    scale = min(1.0, float(np.min(np.where(mags > 0.0, ratio, INF))))
    return u * scale


# ---------------------------------------------------------------------------
# two-dimensional Newton for power-law conjugates
# ---------------------------------------------------------------------------

def _hessian_blocks(problem, g, d, q):
    """Per-cell 2x2 Hessian blocks of the objective for ``c0*(s) = s^q / q``.

    The Hessian of ``vol * c*(|g|^2/2)`` in ``g`` is
    ``vol * (c*'(s) I + c*''(s) g g^T)``; with ``2s c*''(s) = 2(q-1) c*'(s)``
    it is ``vol * c*'(s) * (I + 2(q-1) e e^T)``, ``e = g / |g|``, which needs
    no second derivative and stays finite at ``g = 0``.  ``d`` holds
    ``c*'(s)`` per cell.
    """
    mag = np.sqrt(np.sum(g * g, axis=1))
    e = g / np.where(mag > 0.0, mag, 1.0)[:, None]
    H = 2.0 * (q - 1.0) * e[:, :, None] * e[:, None, :]
    H[:, 0, 0] += 1.0
    H[:, 1, 1] += 1.0
    return H * (problem.grid.cell_volumes * d)[:, None, None]


def _newton_2d(problem, params, q, unit_factor):
    """Damped Newton on a rectangle for a conjugate ``c0*(s) = s^q / q``.

    The start is the unit-weight Poisson solution ``u0`` scaled along its
    ray: the objective ``lam^(2q) A - lam <F, u0>`` is 2q-homogeneous there,
    with ``A = sum vol * c*(|grad u0|^2/2)``.  Each step factors the tensor
    stiffness of the Hessian (``c*'`` floored at ``1e-12`` of its maximum,
    where it vanishes with the gradient) and backtracks on the objective
    (Armijo).  Each iterate's flux ``vol * c*'(s) * g`` is projected with
    ``unit_factor`` and scored as a dual certificate, one log row per
    iterate.  The steps count against ``max_iterations``; the loop also
    stops when the gradient falls to ``1e-12 |F|`` or a step gives no
    decrease.
    """
    grid = problem.grid
    idx = grid.interior_idx
    vol = grid.cell_volumes
    F = problem.load
    u = np.zeros(grid.n_nodes)
    u[idx] = unit_factor.solve(F[idx])
    g = grid.gradient_apply(u)
    A = float(np.dot(vol, problem.conj_value(0.5 * np.sum(g * g, axis=1))))
    b = float(np.dot(F, u))
    u *= (b / (2.0 * q * A)) ** (1.0 / (2.0 * q - 1.0)) if A > 0.0 and b > 0.0 else 0.0
    obj = objective_eval(problem, u)
    grad_floor = 1e-12 * float(np.linalg.norm(F[idx]))

    best_dual, best_sigma, dual_residual = -INF, np.zeros((grid.n_cells, 2)), INF
    log = []
    steps = 0
    factorisations = 1  # unit_factor
    while True:
        g = grid.gradient_apply(u)
        d = problem.conj_dplus(0.5 * np.sum(g * g, axis=1))
        flux = g * (vol * d)[:, None]
        sigma, res = _project_flux(problem, flux, unit_factor)
        dual = _dual_value(problem, sigma)
        if dual > best_dual:
            best_dual, best_sigma, dual_residual = dual, sigma, res
        gap, rel_gap = _relative_gap(obj, best_dual)
        log.append((steps, obj, best_dual, gap))
        grad = (grid.gradient_adjoint(flux) - F)[idx]
        if steps == params.max_iterations or np.linalg.norm(grad) <= grad_floor:
            break
        d = np.maximum(d, 1e-12 * float(np.max(d)))
        factorisations += 1
        step = -spd_factor(stiffness(grid, _hessian_blocks(problem, g, d, q))).solve(grad)
        slope = float(np.dot(grad, step))
        t = 1.0
        for _ in range(40):
            trial = u.copy()
            trial[idx] += t * step
            obj_trial = objective_eval(problem, trial)
            if obj_trial <= obj + 1e-4 * t * slope:
                break
            t *= 0.5
        if not obj_trial < obj:
            break  # no decrease left: the objective is flat at rounding level
        u, obj = trial, obj_trial
        steps += 1

    return _finish(problem, params, u, best_sigma, obj, best_dual, steps,
                   rel_gap <= params.gap_tolerance, dual_residual, log, "newton",
                   factorisations)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def operator_norm(grid, iterations=50, seed=0):
    """Norm of the discrete gradient on the zero-boundary subspace."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.n_nodes)
    v[grid.boundary_mask] = 0.0
    nrm = np.linalg.norm(v)
    if nrm == 0.0:  # no interior nodes: the operator is trivial
        return 1.0
    v /= nrm
    lam = 1.0
    for _ in range(iterations):
        w = grid.gradient_apply(v)
        v2 = grid.gradient_adjoint(w)
        v2[grid.boundary_mask] = 0.0
        lam = np.linalg.norm(v2)
        if lam == 0.0:
            return 1.0
        v = v2 / lam
    return math.sqrt(lam)


class AuxiliarySolution:
    """Solver output: minimizer, feasible dual flux, certified gap.

    ``method`` names how the gap was sought: ``"certificate"`` (the exact
    flux, every interval and radial grid), ``"newton"`` (2-d power-law
    conjugates) or ``"splitting"`` (2-d Chambolle-Pock); ``None`` for a
    wrapper that ran no solve.  ``factorisations`` counts the stiffness
    factorisations (:func:`massopt.grids.spd_factor`) the solve made: none
    for the 1-d certificate; for Newton the projection's unit-weight factor
    plus one per step attempted; for the splitting that factor plus one
    Picard factor per check.
    """

    def __init__(self, problem, u_values, sigma, objective, dual_value, gap,
                 rel_gap, iterations, converged, dual_residual, log, method=None,
                 notes=(), factorisations=0):
        grid = problem.grid
        self.problem = problem
        self.u = ScalarField(grid, u_values)
        self.grad = VectorField(grid, grid.gradient_apply(u_values))
        self.flux = VectorField(grid, sigma)
        self.objective = objective
        self.dual_value = dual_value
        self.gap = gap
        self.rel_gap = rel_gap
        self.iterations = iterations
        self.method = method  # "certificate", "newton" or "splitting"
        self.factorisations = factorisations
        self.converged = converged
        self.dual_residual = dual_residual
        self.regime = problem.regime
        self.lip_bound = problem.lip_bound
        self.log = log
        self.notes = list(notes)

    @property
    def max_gradient(self):
        return float(np.max(self.grad.magnitudes())) if self.grad.values.size else 0.0

    def __repr__(self):
        return ("AuxiliarySolution(objective=%.12g, gap=%.3g, iterations=%d, "
                "converged=%s)" % (self.objective, self.gap, self.iterations,
                                   self.converged))


def require_converged(solution):
    """Raise :class:`NotConverged` unless the gap tolerance was certified."""
    if not solution.converged:
        raise NotConverged(
            "solver stopped with relative gap %.3g" % solution.rel_gap, solution)
    return solution


def _relative_gap(obj, dual):
    gap = obj - dual
    return gap, gap / max(1.0, abs(obj), abs(dual))


def solve_auxiliary(problem, params=None):
    """Minimize the discrete auxiliary objective with a certified gap.

    Returns the best primal iterate together with a divergence-feasible dual
    flux; ``gap = objective - dual_value`` is a true optimality certificate.
    On non-convergence the best iterate is returned with ``converged=False``.

    Three methods, by grid and cost: the exact certificate on interval and
    radial grids (:func:`_certificate_1d`; ``iterations = 0`` and one log
    row, so a gap above the tolerance returns not converged), damped Newton
    on rectangles with quadratic and power costs (:func:`_newton_2d`; one
    log row per iterate, the start included), and the splitting on every
    other rectangle (:func:`_splitting_2d`).
    """
    params = params or SolverParams()
    grid = problem.grid
    if grid.dim == 1:
        return _certificate_1d(problem, params)
    # the 2-d flux projection's stiffness depends on the grid only
    unit_factor = spd_factor(stiffness(grid, np.ones(grid.n_cells)))
    q = problem.cost.conj_exponent
    if q is not None:
        return _newton_2d(problem, params, q, unit_factor)
    return _splitting_2d(problem, params, unit_factor)


def _certificate_1d(problem, params):
    """Score the exact 1-d flux and the primal field integrated from it.

    The flux fixes the dual value.  Its primal candidate competes with
    ``u = 0``, and the better of the two is returned.
    """
    grid = problem.grid
    sigma, g, t = feasible_flux_1d(problem)
    u = np.zeros(grid.n_nodes)
    obj = objective_eval(problem, u)
    u_cand = _primal_from_gradient(grid, g)
    obj_cand = objective_eval(problem, u_cand)
    if obj_cand < obj:
        u, obj = u_cand, obj_cand
    dual = _dual_value(problem, sigma, t)
    gap, rel_gap = _relative_gap(obj, dual)
    return _finish(problem, params, u, sigma, obj, dual, 0, rel_gap <= params.gap_tolerance,
                   0.0, [(0, obj, dual, gap)], "certificate", 0)


def _splitting_2d(problem, params, unit_factor):
    """Chambolle-Pock on a rectangle, certified every ``check_every`` steps.

    A check projects the dual iterate's flux (:func:`_project_flux`) and
    scores it as the certificate.  The Picard candidate of that flux,
    shrunk onto the gradient bound, competes with the primal iterate, and
    an improving candidate restarts the splitting from it.
    """
    grid = problem.grid
    F = problem.load

    best_u = np.zeros(grid.n_nodes)
    best_obj = objective_eval(problem, best_u)
    best_dual = -INF
    best_sigma = np.zeros((grid.n_cells, grid.dim))
    dual_residual = INF
    log = []
    iterations = 0

    norm_D = operator_norm(grid)
    tau = STEP_SCALE / norm_D
    sig = STEP_SCALE / norm_D

    u = np.zeros(grid.n_nodes)
    ubar = u.copy()
    y = np.zeros((grid.n_cells, grid.dim))
    lam = grid.cell_volumes / sig
    converged = False

    for k in range(1, params.max_iterations + 1):
        iterations = k
        # dual ascent: prox of the conjugate integrand via per-cell root-find
        ytil = y + sig * grid.gradient_apply(ubar)
        r = np.sqrt(np.sum(ytil * ytil, axis=1)) / sig
        t = _prox_bisect(problem, r, lam)
        with np.errstate(invalid="ignore", divide="ignore"):
            shrink = np.where(r > 0.0, t / np.where(r > 0.0, r, 1.0), 0.0)
        y = ytil * (1.0 - shrink)[:, None]
        # primal descent with exact boundary handling
        u_new = u - tau * grid.gradient_adjoint(y) + tau * F
        u_new[grid.boundary_mask] = 0.0
        ubar = 2.0 * u_new - u
        u = u_new

        if k % params.check_every == 0 or k == params.max_iterations:
            u_eval = _rescale_feasible(problem, u)
            obj_iter = objective_eval(problem, u_eval)
            if obj_iter < best_obj:
                best_obj, best_u = obj_iter, u_eval.copy()
            sigma, dual_residual = _project_flux(problem, y, unit_factor)
            dual = _dual_value(problem, sigma)
            u_cand = _rescale_feasible(problem, _picard_candidate(problem, sigma))
            obj_cand = objective_eval(problem, u_cand)
            if obj_cand < best_obj:
                best_obj, best_u = obj_cand, u_cand.copy()
                # restart the splitting from the polished iterate
                u = u_cand.copy()
                ubar = u.copy()
                y = sigma * grid.cell_volumes[:, None]
            if dual > best_dual:
                best_dual, best_sigma = dual, sigma
            gap, rel_gap = _relative_gap(best_obj, best_dual)
            log.append((k, best_obj, best_dual, gap))
            if rel_gap <= params.gap_tolerance:
                converged = True
                break

    # unit_factor, and one Picard factor per check
    return _finish(problem, params, best_u, best_sigma, best_obj, best_dual,
                   iterations, converged, dual_residual, log, "splitting", 1 + len(log))


def _finish(problem, params, u, sigma, obj, dual, iterations, converged,
            dual_residual, log, method, factorisations):
    """Assemble the solution and write the iteration log."""
    gap, rel_gap = _relative_gap(obj, dual)
    notes = []
    if not math.isfinite(dual_residual):
        notes.append("no divergence-feasible flux was constructed")
    else:
        dual_residual = dual_residual / max(1.0, float(np.linalg.norm(problem.load)))
    solution = AuxiliarySolution(problem, u, sigma, obj, dual, gap, rel_gap,
                                 iterations, converged, dual_residual, log, method,
                                 notes, factorisations)
    if params.log_path:
        write_iteration_log(params.log_path, log)
    return solution


def write_iteration_log(path, log):
    with open(path, "w") as fh:
        fh.write("iteration,primal,dual,gap\n")
        for k, p, d, g in log:
            fh.write("%d,%.17g,%.17g,%.17g\n" % (k, p, d, g))
