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
  alone.  On an interval the family's parameter is found by a binary search
  over the breakpoints of the mean gradient and a safeguarded secant
  between two of them (:func:`feasible_flux_1d`), a few dozen flux
  inversions at most.  Inverting the gradient-to-flux map along the flux
  (:meth:`AuxiliaryProblem.invert_flux`) gives the gradient of every cell
  that carries flux; a cell of zero flux may take any gradient up to the
  cost's dead-zone edge (:meth:`massopt.costs.CostFunction.zero_flux_edge`).
  Integrating that gradient yields a primal candidate that typically lands
  on the discrete minimizer to machine precision.  This certificate is the
  whole 1-d solve: it takes no iteration, and it is converged exactly when
  its gap meets the tolerance.  The density its flux carries is
  ``|sigma| / t``.
* ``"newton"``: every rectangle.  Damped Newton takes one direct solve of
  the tensor stiffness ``G^T H G`` per step (per-cell 2x2 Hessian blocks
  ``vol * c*' (I + rho e e^T)`` with the cost's radial curvature
  ``rho = 2s c*'' / c*'``, see :func:`_hessian_blocks`), backtracks on the
  objective, and certifies every iterate with the flux its step predicts.
  For quadratic and power costs the objective is C^2 and convex and is
  minimised as it is.  Its start reads the optimality condition
  ``-div(a grad u) = f``, ``a in dc*(|grad u|^2/2)``: the unit-weight
  Poisson solution's flux is divergence-feasible, the cost's flux inverse
  turns it into a gradient per cell, and one more solve with the same
  factor projects those gradients back onto a nodal field, which is
  scaled along its ray.  Every other cost needs a smoothing: a log
  barrier on the gradient bound ``|g| < sqrt(2 * cinf(x))`` in the
  linear regime, a density floor where ``c*'`` vanishes in a dead zone,
  and the log-sum-exp of a table's piecewise-linear conjugate.  Their
  level ``mu`` starts at 1 and shrinks by 10 each time Newton has centred
  the level, until the certified gap meets the tolerance or a level fails
  to lower it.  Newton reads the cost through one pair of evaluators at
  every level, the exact one (``mu = None``) included:
  :meth:`AuxiliaryProblem.level_value` and
  :meth:`AuxiliaryProblem.level_derivatives` (``c*'`` and ``rho``).  The
  certificate always scores the exact conjugate, so the smoothing sets only
  how fast the gap closes.  The solve returns its last iterate, and the
  (smoothed) ``c*'`` there as the density its flux carries.

In two dimensions the Newton step is one direct solve of an interior
stiffness, exact up to rounding, and the same solve corrects the
iterate's flux onto the divergence constraint:
:func:`massopt.grids.stiffness_factor` sums the per-cell blocks straight
into the band of the grid's :class:`massopt.grids.StiffnessLayout` (built
once per grid; one slice-add per pair of a cell's nodes) and factors it by
banded Cholesky.  One band is alive at a time, and it is the only matrix
built: ``G`` and ``G^T`` are always the grid's gradient stencils.
"""

import math

import numpy as np

# perfbench/tracing.py looks this name up in this module to time cost
# validation, and cannot install when it is missing; every cost runs the
# check itself, where it is built
from .costs import validate_cost  # noqa: F401
from .errors import InadmissibleSource, InvalidCost, NotConverged, RegimeMismatch, Unbounded
from .grids import ScalarField, VectorField, stiffness_factor

INF = math.inf

# a Newton decrement below this fraction of |objective| is rounding level
NEWTON_FLAT = 16.0 * np.finfo(float).eps


class SolverParams:
    """Iteration budget and tolerances for :func:`solve_auxiliary`.

    ``max_iterations`` (at least 1) bounds the Newton steps of a rectangle,
    over every smoothing level; a 1-d solve is its exact certificate and
    takes no iteration.
    """

    def __init__(self, max_iterations=20000, gap_tolerance=1e-8):
        if not 0.0 < gap_tolerance < INF:
            raise ValueError("gap_tolerance must be positive and finite")
        if int(max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")
        self.max_iterations = int(max_iterations)
        self.gap_tolerance = float(gap_tolerance)


class AuxiliaryProblem:
    """Assembled instance: grid + cost (with conjugate) + source.

    ``cell_weights`` holds the separable weight of every cell, ``None`` for
    a homogeneous cost; every weighted map of the problem is the cost's
    homogeneous map rescaled by it.  The regime and the per-cell gradient
    caps come from the cost's recession slope, which is positive for every
    cost.
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

    def conj_curvature(self, s):
        return self.cost.conjugate_curvature(s, weight=self._w)

    def level_value(self, s, mu=None):
        """Per-cell conjugate at smoothing level ``mu``, exact when None.

        See :meth:`massopt.costs.CostFunction.level_value`.
        """
        return self.cost.level_value(s, mu, weight=self._w)

    def level_derivatives(self, s, mu=None):
        """Per-cell ``(c*', rho)`` of :meth:`level_value`.

        See :meth:`massopt.costs.CostFunction.level_derivatives`.
        """
        return self.cost.level_derivatives(s, mu, weight=self._w)

    def zero_flux_edge(self):
        """Per-cell zero-flux edge: the cost's edge scaled by ``sqrt(w)``."""
        return np.sqrt(self._w) * self.cost.zero_flux_edge()

    def invert_flux(self, vabs):
        """Gradient magnitude ``t`` of each cell's flux magnitude ``vabs`` (density ``vabs / t``)."""
        return self.cost.invert_flux(vabs, weight=self._w)

    def cost_value(self, a):
        return self.cost.value(a, weight=self._w)


def resolve_cell_weights(grid, cell_weights=None):
    """Per-cell weight table as a float array; ``None`` when homogeneous.

    Raises :class:`InvalidCost` unless there is one weight per cell and
    every weight is finite and positive.
    """
    if cell_weights is None:
        return None
    cell_weights = np.asarray(cell_weights, dtype=float)
    if cell_weights.shape != (grid.n_cells,):
        raise InvalidCost("cell weight table needs %d entries" % grid.n_cells)
    if not np.all(np.isfinite(cell_weights) & (cell_weights > 0.0)):
        raise InvalidCost("cell weights must be finite and positive")
    return cell_weights


def build_problem(grid, cost, source, cell_weights=None):
    """Assemble an :class:`AuxiliaryProblem`.

    The cost needs no check here: a :class:`massopt.costs.CostFunction`
    that exists is convex and grows at least linearly.  ``cell_weights``
    holds one separable weight per cell, ``None`` for a homogeneous cost
    (:func:`resolve_cell_weights`).  Dirac parts of the source are
    admitted in the linear regime always, and in the superlinear regime
    only for quadratic-type growth (the quadratic cost, which
    ``power_cost(2)`` also is, and its regularized continuations) in
    dimension <= 3.
    """
    assumptions = []
    cell_weights = resolve_cell_weights(grid, cell_weights)
    if cell_weights is not None:
        assumptions.append("heterogeneous cost: absence of the Lavrentiev "
                           "phenomenon is assumed, not verified")
        assumptions.append("per-cell weight table: upper semicontinuity "
                           "of the conjugate in x is assumed")

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
    return _level_objective(problem, values, 0.5 * np.sum(g * g, axis=1), None)


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


def _dual_value(problem, sigma, t=None):
    """Dual objective of a divergence-feasible flux density ``sigma``.

    ``t`` is the inverted gradient magnitude of ``|sigma|`` when the caller
    already has it.
    """
    absw = np.sqrt(np.sum(np.asarray(sigma, dtype=float) ** 2, axis=1))
    if t is None:
        t = problem.invert_flux(absw)
    psi = problem.conj_value(0.5 * t * t)
    phi_star = t * absw - psi
    return -float(np.dot(problem.grid.cell_volumes, phi_star))


# ---------------------------------------------------------------------------
# one-dimensional certificates (exact flux construction)
# ---------------------------------------------------------------------------

def telescoped_load(grid, F):
    """Partial sums ``cum`` of a 1-d grid's interior load, and whether ``q0`` is free.

    ``(D^T y)_j = F_j`` telescopes in 1-d: cell ``i`` carries the flux
    ``q_i = y_i / h_i = q0 - cum_i``.  ``q0`` is free on an interval, whose
    first node is on the boundary, and 0 on a radial grid, whose centre is
    an interior node with no cell before it.
    """
    cum = np.cumsum(np.where(grid.boundary_mask, 0.0, F)[:-1])
    return cum, grid.kind == "interval"


def feasible_flux_1d(problem):
    """Divergence-feasible cell fluxes on an interval or radial grid.

    The fluxes are ``q0 - cum`` (:func:`telescoped_load`).  On radial
    grids ``q0 = 0``, so ``q`` is fully determined; on interval grids
    ``q0`` is fixed by the zero-mean condition on the recovered gradient.
    The mean gradient is nondecreasing in ``q0`` and jumps or kinks only at
    the breakpoints ``cum``, so a binary search over them (about
    ``log2(n)`` flux inversions) brackets the root between two neighbours,
    and :func:`_first_nonnegative` finds it there to adjacent floats:
    exactly at the breakpoint when the mean gradient jumps over zero there,
    as for a cost with a dead zone.

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
    h = grid.cell_h
    vol = grid.cell_volumes
    cum, free = telescoped_load(grid, problem.load)
    if not free:
        sigma = -cum * h / vol
        t = problem.invert_flux(np.abs(sigma))
        return sigma[:, None], t * np.sign(sigma), t

    def mean_grad(q0):
        sigma = (q0 - cum) * h / vol
        t = problem.invert_flux(np.abs(sigma))
        return float(np.dot(h, t * np.sign(sigma)))

    # every flux is negative below min(cum) and positive above max(cum), and
    # the mean gradient is nondecreasing in q0, continuous between the
    # breakpoints cum; binary search finds the two neighbours where it turns
    # nonnegative
    knots = np.unique(cum)
    knots = np.concatenate([[knots[0] - 1.0], knots, [knots[-1] + 1.0]])
    lo, hi = 0, knots.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mean_grad(knots[mid]) < 0.0:
            lo = mid
        else:
            hi = mid
    q0 = _first_nonnegative(mean_grad, float(knots[lo]), float(knots[hi]))

    sigma = (q0 - cum) * h / vol
    # a root next to a breakpoint leaves the flux of the sign-change cell at
    # rounding level; a nonzero sign there would pin that cell's gradient to
    # the dead-zone edge and the zero-mean selection below could not close
    sigma[np.abs(sigma) <= 1e-12 * np.max(np.abs(sigma))] = 0.0
    t = problem.invert_flux(np.abs(sigma))
    # a nonzero flux fixes its gradient; a zero flux admits any gradient up
    # to the dead-zone edge
    slack = np.where(sigma == 0.0, problem.zero_flux_edge(), 0.0)
    g = _zero_mean_selection(h, t * np.sign(sigma), slack)
    return sigma[:, None], g, t


def _first_nonnegative(f, a, b):
    """Smallest float in ``(a, b]`` where a nondecreasing ``f`` is ``>= 0``.

    Needs ``f(a) < 0 <= f(b)``, with ``f`` continuous strictly between
    them.  A jump at either end is settled by the floats next to it.
    Inside, a regula falsi with the Illinois modification (when the same
    end moves twice in a row, the value kept at the other end is halved)
    shrinks the bracket to adjacent floats; a step that rounds onto an end
    probes the float next to it instead.  After 100 steps it returns the
    upper end.
    """
    inner_b = math.nextafter(b, a)
    if inner_b == a:
        return b
    fb = f(inner_b)
    if fb < 0.0:
        return b
    a = math.nextafter(a, b)
    if a == inner_b:
        return a
    fa = f(a)
    if fa >= 0.0:
        return a
    b = inner_b
    side = 0
    for _ in range(100):
        below_b, above_a = math.nextafter(b, a), math.nextafter(a, b)
        if above_a >= b:
            break
        x = min(max(b - fb * ((b - a) / (fb - fa)), above_a), below_b)
        fx = f(x)
        if fx < 0.0:
            a, fa = x, fx
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side > 0:
                fa *= 0.5
            side = 1
    return b


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


# ---------------------------------------------------------------------------
# two-dimensional Newton
# ---------------------------------------------------------------------------

def _half_square(g):
    """``|g|^2 / 2`` per cell of a rectangle's gradient ``g``, shape ``(n_cells, 2)``."""
    gx, gy = g[:, 0], g[:, 1]
    return 0.5 * (gx * gx + gy * gy)


def _hessian_blocks(problem, g, d, rho):
    """Per-cell 2x2 Hessian blocks ``vol * d * (I + rho e e^T)``, ``e = g / |g|``.

    This is the Hessian ``vol * (c*'(s) I + c*''(s) g g^T)`` of
    ``vol * c*(|g|^2/2)`` in ``g``, with ``d = c*'(s)`` and the radial
    curvature ``rho = 2s c*''(s) / c*'(s)``
    (:meth:`massopt.costs.CostFunction.conjugate_curvature`), finite at
    ``g = 0``.  Returns the three parts ``(H_xx, H_xy, H_yy)`` of the
    blocks, each one value per cell.
    """
    gx, gy = g[:, 0], g[:, 1]
    mag = np.sqrt(gx * gx + gy * gy)
    mag = np.where(mag > 0.0, mag, 1.0)
    ex, ey = gx / mag, gy / mag
    vd = problem.grid.cell_volumes * d
    rx = rho * ex
    return (rx * ex + 1.0) * vd, rx * ey * vd, (rho * ey * ey + 1.0) * vd


def _level_objective(problem, u, s, mu):
    """The objective at ``u`` with the conjugate smoothed at level ``mu`` (exact when None).

    ``s`` is ``|grad u|^2 / 2`` per cell.  The value is ``+inf`` where a
    cell violates the gradient bound, or lies past a barrier, where the
    line search must not step.
    """
    value = problem.level_value(s, mu)
    return float(np.dot(problem.grid.cell_volumes, value) - np.dot(problem.load, u))


def _newton_2d(problem, params):
    """Damped Newton on a rectangle, along a smoothing path where the cost needs one.

    A quadratic or power cost starts from the optimality condition.  The
    unit-weight Poisson solution ``u0 = K0^-1 F`` has the flux density
    ``sigma0 = G u0``, which meets ``G^T (vol sigma0) = F``; each cell takes
    the gradient ``g1 = invert_flux(|sigma0|) sigma0 / |sigma0|`` that would
    carry it (0 where ``sigma0 = 0``), and the same factor projects it back,
    ``u1 = K0^-1 G^T (vol g1)``.  That ``u1`` is scaled along its ray to
    where the objective ``lam^(2q) A - lam <F, u1>`` is least
    (``A = sum vol * c*(|grad u1|^2/2)``; ``q = 1 + rho / 2`` at the
    steepest cell, which is exact for a power law).
    Every other cost starts from 0 at the smoothing level ``mu = 1``
    (:meth:`massopt.costs.CostFunction.level_value`).  Each step
    factors the stiffness ``H = G^T B G`` of the Hessian blocks ``B``
    (:func:`_hessian_blocks`, ``c*'`` floored at ``1e-12`` of its maximum),
    which go to :func:`massopt.grids.stiffness_factor` as their three parts
    per cell, solves ``H z = -grad J`` and backtracks along ``z`` on the
    level's objective (Armijo).  The gradient ``g`` and ``s = |g|^2/2`` of
    the accepted trial point carry over to the next iterate, so each
    iterate's gradient is taken once.  The same solve certifies the iterate:
    ``G^T (flux + B G z) = F`` for the flux ``vol * c*'(s) * g``.  An iterate
    that takes no step is certified with the newest factor in hand (any
    positive definite ``B`` gives a feasible flux), or before any factor by
    its flux alone (a zero load's start); one whose Hessian is singular goes
    uncertified.  A certificate scores the exact conjugate; each iterate logs
    its exact objective and the best dual so far.  A level is centred when
    the gradient falls to ``1e-12 |F|``, when a step gives no decrease, or
    after a full step whose decrement ``-slope / 2`` was at most
    ``NEWTON_FLAT * |obj|``.  Then the solve stops, unless ``mu`` shrinks by
    10 to a next level: the certified gap is still above the tolerance and
    this level lowered it.  The steps of every level count against
    ``max_iterations``.

    The solve returns its last iterate with that iterate's ``c*'`` (the
    smoothed one at the last level) as the density its flux carries.  For
    a power law Newton decreases the objective at every step, so the last
    iterate is the best; for a smoothed cost it is the final centred point,
    whose exact objective is what the gap certifies.
    """
    grid = problem.grid
    idx = grid.interior_idx
    vol = grid.cell_volumes
    F = problem.load
    mu = 1.0 if problem.cost.smoothing else None
    u = np.zeros(grid.n_nodes)
    # the newest factor in hand and its blocks B: the unit ones at the start
    factor, blocks, factorisations = None, (1.0, 0.0, 1.0), 0
    if mu is None:
        factor, factorisations = stiffness_factor(grid, np.ones(grid.n_cells)), 1
        u[idx] = factor.solve(F[idx])
        # the Poisson flux meets G^T (vol sigma) = F; each cell takes the
        # cost's gradient along it, projected back with the same factor
        sigma = grid.gradient_apply(u)
        mag = np.sqrt(2.0 * _half_square(sigma))
        live = mag > 0.0
        scale = np.where(live, problem.invert_flux(mag) / np.where(live, mag, 1.0), 0.0)
        u[idx] = factor.solve(grid.gradient_adjoint(sigma * (vol * scale)[:, None])[idx])
        s = _half_square(grid.gradient_apply(u))
        A = float(np.dot(vol, problem.conj_value(s)))
        b = float(np.dot(F, u))
        q = 1.0 + 0.5 * float(problem.conj_curvature(s)[np.argmax(s)])
        u *= (b / (2.0 * q * A)) ** (1.0 / (2.0 * q - 1.0)) if A > 0.0 and b > 0.0 else 0.0
    g = grid.gradient_apply(u)
    s = _half_square(g)
    obj = _level_objective(problem, u, s, None)
    obj_mu = obj if mu is None else _level_objective(problem, u, s, mu)
    grad_floor = 1e-12 * float(np.linalg.norm(F[idx]))

    best_dual, best_sigma = -INF, np.zeros((grid.n_cells, 2))
    log, steps = [], 0
    levels = 0 if mu is None else 1
    level_gap = INF  # the gap when the level was entered
    flat = False  # the last step was full and its decrement rounding level
    z = np.zeros(grid.n_nodes)
    while True:
        d, rho = problem.level_derivatives(s, mu)
        flux = g * (vol * d)[:, None]
        grad = (grid.gradient_adjoint(flux) - F)[idx]
        centred = flat or np.linalg.norm(grad) <= grad_floor
        stepping = steps < params.max_iterations and not centred
        if stepping:
            factorisations += 1
            blocks = _hessian_blocks(problem, g, np.maximum(d, 1e-12 * float(np.max(d))), rho)
            factor = None  # one band alive at a time
            try:
                factor = stiffness_factor(grid, blocks)
            except Unbounded:
                pass  # the Hessian is singular to working precision: no step is left
        if factor is not None:
            z[idx] = step = -factor.solve(grad)
        if factor is not None or not stepping:  # z = 0 before any factor
            gx, gy = grid.gradient_apply(z).T
            hxx, hxy, hyy = blocks
            corr = np.column_stack([hxx * gx + hxy * gy, hxy * gx + hyy * gy])
            sigma = (flux + corr) / vol[:, None]
            dual = _dual_value(problem, sigma)
            if dual > best_dual:
                best_dual, best_sigma = dual, sigma
        gap, rel_gap = _relative_gap(obj, best_dual)
        log.append((steps, obj, best_dual, gap))
        if steps == params.max_iterations or (stepping and factor is None):
            break
        if stepping:
            slope = float(np.dot(grad, step))
            t = 1.0
            for _ in range(40):
                trial = u.copy()
                trial[idx] += t * step
                g_trial = grid.gradient_apply(trial)
                s_trial = _half_square(g_trial)
                obj_trial = _level_objective(problem, trial, s_trial, mu)
                if obj_trial <= obj_mu + 1e-4 * t * slope:
                    break
                t *= 0.5
            # no decrease left: the level's objective is flat at rounding level
            centred = not obj_trial < obj_mu
        if centred:
            if mu is None or rel_gap <= params.gap_tolerance or not gap < level_gap:
                break
            level_gap, mu, levels, flat = gap, 0.1 * mu, levels + 1, False
            obj_mu = _level_objective(problem, u, s, mu)
            continue
        # a full step that predicted a rounding-level decrease has left
        # nothing for a further factorisation to find
        flat = t == 1.0 and -0.5 * slope <= NEWTON_FLAT * abs(obj_mu)
        u, g, s, obj_mu = trial, g_trial, s_trial, obj_trial
        obj = obj_mu if mu is None else _level_objective(problem, u, s, None)
        steps += 1

    miss = (grid.gradient_adjoint(best_sigma * vol[:, None]) - F)[idx]
    return _finish(problem, u, best_sigma, obj, best_dual, steps,
                   rel_gap <= params.gap_tolerance, float(np.linalg.norm(miss)), log, "newton",
                   factorisations, d, levels)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

class AuxiliarySolution:
    """Solver output: minimizer, feasible dual flux, certified gap.

    ``method`` names how the gap was sought: ``"certificate"`` (the exact
    flux, every interval and radial grid) or ``"newton"`` (every
    rectangle); ``None`` for a wrapper that ran no solve.
    ``factorisations`` counts the banded Cholesky factorisations of a
    stiffness (:meth:`massopt.grids.StiffnessLayout.factor`) the solve
    made: none for the 1-d certificate; for Newton one per step attempted
    (a level ends without a further factorisation after a full step whose
    decrement was rounding level), plus the unit-weight factor that a
    power law's start solves with twice.  ``mu_levels`` counts the
    smoothing levels a Newton solve entered: 0 for quadratic and power
    costs and in 1-d.
    ``density`` holds the conductivity per cell that the solve's flux
    carries along ``grad`` (:func:`massopt.recovery.recover_measure` wraps
    it in the measure): the 1-d certificate's ``|sigma| / t``, and Newton's
    (smoothed) conjugate derivative ``c*'(s)`` at its last iterate, for
    the log barrier the central-path multiplier ``c*'(s) + mu / (cinf - s)``;
    ``None`` for a wrapper that ran no solve.
    """

    def __init__(self, problem, u_values, sigma, objective, dual_value, gap,
                 rel_gap, iterations, converged, dual_residual, log, method=None,
                 factorisations=0, density=None, mu_levels=0):
        grid = problem.grid
        self.u = ScalarField(grid, u_values)
        self.grad = VectorField(grid, grid.gradient_apply(u_values))
        self.density = density
        self.flux = VectorField(grid, sigma)
        self.objective = objective
        self.dual_value = dual_value
        self.gap = gap
        self.rel_gap = rel_gap
        self.iterations = iterations
        self.method = method  # "certificate" or "newton"
        self.factorisations = factorisations
        self.mu_levels = mu_levels
        self.converged = converged
        self.dual_residual = dual_residual
        self.regime = problem.regime
        self.lip_bound = problem.lip_bound
        self.log = log

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
    """``(gap, relative gap)``; an infinite gap is infinite relative to anything."""
    gap = obj - dual
    return gap, gap if math.isinf(gap) else gap / max(1.0, abs(obj), abs(dual))


def solve_auxiliary(problem, params=None):
    """Minimize the discrete auxiliary objective with a certified gap.

    Returns the primal field together with a divergence-feasible dual
    flux and the density that flux carries; ``gap = objective -
    dual_value`` is a true optimality certificate.  On non-convergence the
    last iterate is returned with ``converged=False``.

    Two methods, by grid: the exact certificate on interval and radial
    grids (:func:`_certificate_1d`; ``iterations = 0`` and one log row, so
    a gap above the tolerance returns not converged), and damped Newton on
    rectangles (:func:`_newton_2d`; one log row per certificate, the start
    included).
    """
    params = params or SolverParams()
    if problem.grid.dim == 1:
        return _certificate_1d(problem, params)
    return _newton_2d(problem, params)


def _certificate_1d(problem, params):
    """Score the exact 1-d flux and the primal field integrated from it.

    The flux fixes the dual value.  Its primal candidate competes with
    ``u = 0``, and the better of the two is returned.  The density is
    ``|sigma| / t`` where the candidate is returned and the flux and its
    inverted magnitude ``t`` are nonzero (``t``, not the integrated
    ``u``'s gradient, which carries rounding where the flux is small), and
    ``D-c*(|g|^2/2)`` at the returned ``u``'s gradient elsewhere.
    """
    grid = problem.grid
    sigma, g, t = feasible_flux_1d(problem)
    u = np.zeros(grid.n_nodes)
    obj = objective_eval(problem, u)
    mag = np.zeros(grid.n_cells)
    u_cand = _primal_from_gradient(grid, g)
    obj_cand = objective_eval(problem, u_cand)
    if obj_cand < obj:
        u, obj, mag = u_cand, obj_cand, t
    dual = _dual_value(problem, sigma, t)
    gap, rel_gap = _relative_gap(obj, dual)
    vabs = np.abs(sigma[:, 0])
    carried = (vabs > 0.0) & (mag > 0.0)
    g_u = grid.gradient_apply(u)[:, 0]
    density = np.where(carried, vabs / np.where(carried, mag, 1.0),
                       problem.conj_dminus(0.5 * g_u * g_u))
    return _finish(problem, u, sigma, obj, dual, 0, rel_gap <= params.gap_tolerance,
                   0.0, [(0, obj, dual, gap)], "certificate", 0, density)


def _finish(problem, u, sigma, obj, dual, iterations, converged,
            dual_residual, log, method, factorisations, density, mu_levels=0):
    """The solution, with its gap and its dual residual relative to the load."""
    gap, rel_gap = _relative_gap(obj, dual)
    dual_residual = dual_residual / max(1.0, float(np.linalg.norm(problem.load)))
    return AuxiliarySolution(problem, u, sigma, obj, dual, gap, rel_gap, iterations,
                             converged, dual_residual, log, method, factorisations,
                             density, mu_levels)
