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
  alone (:func:`feasible_flux_1d`).  Integrating the gradient that carries
  it yields a primal candidate that typically lands on the discrete
  minimizer to machine precision.  This certificate is the whole 1-d
  solve: it takes no iteration, and it is converged exactly when its gap
  meets the tolerance.  The density its flux carries is ``|sigma| / t``.
* ``"newton"``: every rectangle, by damped Newton on the stiffness
  ``G^T B G`` of per-cell 2x2 Hessian blocks ``B``, along a smoothing path
  where the cost needs one (:attr:`massopt.costs.CostFunction.smoothing`).
  :func:`_power_start` starts an unsmoothed cost from the optimality
  condition, :func:`_factor_step` factors a step's stiffness (which chord
  steps reuse while the gradient contracts), :func:`_line_search` damps
  the step, :func:`_certify` turns its solve into a feasible flux, and
  :func:`_newton_2d` runs the levels of ``mu``, one step rule at every
  level and the stop rule.  Every level, the exact one
  (``mu = None``) included, reads the cost through one evaluation per
  point, :class:`_Point`: one call of :meth:`AuxiliaryProblem.level` gives
  the level's objective, ``c*'`` and its radial curvature, and the start,
  every line-search trial and every level change each make one; the
  iterate steps on from its accepted trial's.  The certificate always
  scores the exact conjugate, so the smoothing sets only how fast the gap
  closes.
"""

import functools
import math

import numpy as np

# perfbench/tracing.py looks this name up in this module to time cost
# validation, and cannot install when it is missing; every cost runs the
# check itself, where it is built
from .costs import validate_cost  # noqa: F401
from .errors import InadmissibleSource, InvalidCost, RegimeMismatch, Unbounded
from .grids import ScalarField, VectorField, integral, stiffness_factor

INF = math.inf

# a Newton decrement below this fraction of |objective| is rounding level
NEWTON_FLAT = 16.0 * np.finfo(float).eps
# a step reuses the newest factor (a chord step) after a full step that cut
# |grad J| to at most CHORD_RATIO of its size, at most CHORD_STEPS times in
# a row
CHORD_RATIO = 0.1
CHORD_STEPS = 3


class SolverParams:
    """Iteration budget and tolerances for :func:`solve_auxiliary`.

    ``max_iterations`` (at least 1) bounds the Newton steps of a rectangle,
    over every smoothing level; a 1-d solve is its exact certificate and
    takes no iteration.
    """

    def __init__(self, max_iterations=20000, gap_tolerance=1e-8):
        if not 0.0 < gap_tolerance < INF:
            raise ValueError("gap_tolerance must be positive and finite")
        self.max_iterations = integral(max_iterations)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
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
        self.grid, self.cost, self.source = grid, cost, source
        self.cell_weights = cell_weights
        self._w = 1.0 if cell_weights is None else cell_weights
        self.load = source.load_vector()
        self.regime = cost.regime
        thresholds = np.full(grid.n_cells, self._w * cost.recession_slope())
        with np.errstate(over="ignore"):
            self.cell_caps = np.where(np.isinf(thresholds), INF,
                                      np.sqrt(2.0 * np.minimum(thresholds, 1e300)))
        self.assumptions = list(assumptions)

    # weighted conjugate maps ------------------------------------------------------

    def conj_dminus(self, s):
        return self.cost.conjugate_dminus(s, weight=self._w)

    def level(self, s, mu=None):
        """Per-cell ``(c*, c*', rho)`` at smoothing level ``mu``, exact when None.

        See :meth:`massopt.costs.CostFunction.level`.
        """
        return self.cost.level(s, mu, weight=self._w)

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
    cell_weights = resolve_cell_weights(grid, cell_weights)
    assumptions = [] if cell_weights is None else [
        "heterogeneous cost: absence of the Lavrentiev phenomenon is assumed, not verified",
        "per-cell weight table: upper semicontinuity of the conjugate in x is assumed"]

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
    return _Point(problem, values, None).obj


def objective_gradient(problem, u):
    """First variation of the objective (superlinear, differentiable case), 0 on the boundary."""
    values = u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)
    return np.where(problem.grid.boundary_mask, 0.0, _Point(problem, values, None).variation[1])


def _half_square(g):
    """``|g|^2 / 2`` per cell of ``g``, shape ``(n_cells, dim)``: the package's one per-cell square."""
    return 0.5 * sum(c * c for c in g.T)


class _Point:
    """One evaluation of the objective at a nodal field ``u`` and smoothing level ``mu``.

    It holds the per-cell gradient ``g``, ``s = |g|^2 / 2``, and from one
    call of :meth:`massopt.costs.CostFunction.level` (exact when ``mu`` is
    None) the level's objective ``obj = conj_sum - work``, with
    ``conj_sum = sum vol * c*(s)`` and ``work = <F, u>``, and per cell
    ``d = c*'(s)`` and the radial curvature ``rho``.  ``obj`` is ``+inf``
    where a cell violates the gradient bound, or lies past a barrier, where
    no step may go.  The first variation and its interior norm are formed
    on demand, at most once.
    """

    def __init__(self, problem, u, mu, g=None):
        self.problem, self.u, self.mu = problem, u, mu
        self.g = problem.grid.gradient_apply(u) if g is None else g
        self.s = _half_square(self.g)
        value, self.d, self.rho = problem.level(self.s, mu)
        self.conj_sum = float(np.dot(problem.grid.cell_volumes, value))
        self.work = float(np.dot(problem.load, u))
        self.obj = self.conj_sum - self.work

    def at(self, mu):
        """The same field evaluated at level ``mu``."""
        return _Point(self.problem, self.u, mu, self.g)

    @functools.cached_property
    def variation(self):
        """``(flux, G^T flux - F)``: the flux ``vol * d * g`` per cell, and the first variation.

        ``G^T flux - F`` is the first variation of the objective on every
        node, the map Newton steps on.
        """
        flux = self.g * (self.problem.grid.cell_volumes * self.d)[:, None]
        return flux, self.problem.grid.gradient_adjoint(flux) - self.problem.load

    @functools.cached_property
    def norm(self):
        """``|grad J|`` on the interior."""
        return float(np.linalg.norm(self.variation[1][self.problem.grid.interior_idx]))


def _dual_value(problem, sigma, t=None):
    """Dual objective of a divergence-feasible flux density ``sigma``.

    ``t`` is the inverted gradient magnitude of ``|sigma|`` when the caller
    already has it.
    """
    absw = np.sqrt(2.0 * _half_square(sigma))
    if t is None:
        t = problem.invert_flux(absw)
    psi = problem.level(0.5 * t * t)[0]
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
    h, vol = grid.widths[0], grid.cell_volumes
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
    # a root next to a breakpoint leaves the sign-change cell's flux within
    # the rounding of q0 - cum, where its sign would pin the gradient to the
    # dead-zone edge and the zero-mean selection could not close; a zero
    # load leaves every flux subnormal, where |sigma| / t has lost its bits
    vabs, scale = np.abs(sigma), (abs(q0) + np.abs(cum)) * h / vol
    sigma[(vabs <= 4.0 * np.finfo(float).eps * scale) | (vabs < np.finfo(float).tiny)] = 0.0
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
    end nearer zero: on a plateau where ``f`` rounds below 0, the lower.
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
    side, va, vb = 0, fa, fb  # f at a and b; the Illinois steps halve fa and fb
    for _ in range(100):
        below_b, above_a = math.nextafter(b, a), math.nextafter(a, b)
        if above_a >= b:
            return b
        x = min(max(b - fb * ((b - a) / (fb - fa)), above_a), below_b)
        fx = f(x)
        if fx < 0.0:
            a, fa, va = x, fx, fx
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb, vb = x, fx, fx
            if side > 0:
                fa *= 0.5
            side = 1
    return a if -va < vb else b


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
    u, h = np.zeros(grid.n_nodes), grid.widths[0]
    if grid.kind == "radial":
        u[:-1] = 0.0 - np.cumsum((h * g)[::-1])[::-1]  # a zero field stays +0
    else:
        u[1:] = np.cumsum(h * g)
        # spread the rounding residue as a uniform ramp so both endpoints
        # vanish exactly without bumping a single cell's gradient
        x = grid.axes[0]
        u -= u[-1] * (x - x[0]) / (x[-1] - x[0])
        u[-1] = 0.0
    return u


# ---------------------------------------------------------------------------
# two-dimensional Newton
# ---------------------------------------------------------------------------

def _hessian_blocks(problem, g, d, rho):
    """Per-cell 2x2 Hessian blocks ``vol * d * (I + rho e e^T)``, ``e = g / |g|``.

    This is the Hessian ``vol * (c*'(s) I + c*''(s) g g^T)`` of
    ``vol * c*(|g|^2/2)`` in ``g``, with ``d = c*'(s)`` and the radial
    curvature ``rho = 2s c*''(s) / c*'(s)``
    (:meth:`massopt.costs.CostFunction.level`), finite at
    ``g = 0``.  Returns the three parts ``(H_xx, H_xy, H_yy)`` of the
    blocks, each one value per cell.
    """
    mag = np.sqrt(2.0 * _half_square(g))
    ex, ey = g.T / np.where(mag > 0.0, mag, 1.0)
    vd = problem.grid.cell_volumes * d
    rx = rho * ex
    return (rx * ex + 1.0) * vd, rx * ey * vd, (rho * ey * ey + 1.0) * vd


def _power_start(problem):
    """The flux-inverse start of an unsmoothed cost, and the unit-weight solve it used.

    It reads the optimality condition ``-div(a grad u) = f``,
    ``a in dc*(|grad u|^2/2)``.  The unit-weight Poisson solution
    ``u0 = K0^-1 F`` (``K0 = G^T G``, solved by sine transforms,
    :class:`massopt.grids.UnitStiffness`) has the flux density
    ``sigma0 = G u0``, which meets ``G^T (vol sigma0) = F``; each cell takes
    the gradient ``g1 = invert_flux(|sigma0|) sigma0 / |sigma0|`` that would
    carry it (0 where ``sigma0 = 0``), and the same solve projects it back,
    ``u1 = K0^-1 G^T (vol g1)``.  That ``u1`` is scaled along its ray to
    where the objective ``lam^(2q) A - lam <F, u1>`` is least
    (``A = sum vol * c*(|grad u1|^2/2)``; ``q = 1 + rho / 2`` at the
    steepest cell, which is exact for a power law).
    """
    grid, F = problem.grid, problem.load
    idx, vol = grid.interior_idx, grid.cell_volumes
    u = np.zeros(grid.n_nodes)
    factor = grid.unit_stiffness
    u[idx] = factor.solve(F[idx])
    sigma = grid.gradient_apply(u)
    mag = np.sqrt(2.0 * _half_square(sigma))
    live = mag > 0.0
    scale = np.where(live, problem.invert_flux(mag) / np.where(live, mag, 1.0), 0.0)
    u[idx] = factor.solve(grid.gradient_adjoint(sigma * (vol * scale)[:, None])[idx])
    point = _Point(problem, u, None)
    A, b = point.conj_sum, point.work
    q = 1.0 + 0.5 * float(point.rho[np.argmax(point.s)])
    u *= (b / (2.0 * q * A)) ** (1.0 / (2.0 * q - 1.0)) if A > 0.0 and b > 0.0 else 0.0
    return u, factor


def _certify(problem, flux, blocks, z):
    """``(dual value, sigma)`` of the flux density ``sigma = (flux + B G z) / vol``.

    ``blocks`` holds the three parts per cell of any positive definite 2x2
    blocks ``B`` (as from :func:`_hessian_blocks`), and ``z``, 0 on the
    boundary, solves ``G^T B G z = F - G^T flux`` on the interior.  Then
    ``G^T (vol sigma) = F`` there: ``sigma`` is feasible, and ``z = 0``
    certifies a flux that already meets ``F`` as it is.  Each column of
    ``sigma`` is built in place as ``flux + (B G z)``, that grouping kept.
    """
    gx, gy = problem.grid.gradient_apply(z).T
    hxx, hxy, hyy = blocks
    sigma = flux.copy()
    sigma[:, 0] += hxx * gx + hxy * gy
    sigma[:, 1] += hxy * gx + hyy * gy
    sigma /= problem.grid.cell_volumes[:, None]
    return _dual_value(problem, sigma), sigma


def _factor_step(problem, g, d, rho):
    """``(B, factor)``: the Hessian blocks at gradients ``g`` and the factor of ``G^T B G``.

    ``d = c*'`` is floored at ``1e-12`` of its maximum.  The blocks go
    straight into the grid's band (:func:`massopt.grids.stiffness_factor`,
    banded Cholesky).  The factor is ``None`` when the stiffness is
    singular to working precision: no step is left.
    """
    blocks = _hessian_blocks(problem, g, np.maximum(d, 1e-12 * float(np.max(d))), rho)
    try:
        return blocks, stiffness_factor(problem.grid, blocks)
    except Unbounded:
        return blocks, None


def _line_search(problem, point, z, slope, rounding):
    """Armijo backtracking from ``point`` along the nodal step ``z`` on its level's objective.

    The step length halves from 1 until the objective falls to
    ``obj + 1e-4 * t * slope``, at most 40 times.  When ``rounding``, the
    objective cannot resolve the step: only the full step is tried, and it
    makes progress when it lowers ``|grad J|``.  Returns whether the full
    step was taken, whether the step made progress (otherwise: whether the
    objective fell), and the last trial's :class:`_Point`, which carries
    over to the next iterate.  A trial judged by its objective forms no
    first variation.
    """
    t = 1.0
    for _ in range(40):
        trial = _Point(problem, point.u + t * z, point.mu)
        if rounding:
            return True, trial.norm < point.norm, trial
        if trial.obj <= point.obj + 1e-4 * t * slope:
            break
        t *= 0.5
    return t == 1.0, trial.obj < point.obj, trial


def _newton_2d(problem, params):
    """Damped Newton on a rectangle, along a smoothing path where the cost needs one.

    An unsmoothed cost (``mu = None``) starts at :func:`_power_start`, a
    smoothed one from 0 at ``mu = 1``; every level then takes the same
    step rule, on the objective and gradient of that level.  A zero load
    is centred at ``u = 0`` at the exact level, so every cost takes the
    power start there and enters no smoothing level.  A step factors the
    Hessian (:func:`_factor_step`), solves ``H z = -grad J`` with it and
    backtracks along ``z`` (:func:`_line_search`); the same solve
    certifies the iterate (:func:`_certify`).  A step instead reuses
    the newest factor and its blocks, which keeps the certificate exact,
    after a full step that cut ``|grad J|`` to at most ``CHORD_RATIO`` of
    its size, at most ``CHORD_STEPS`` times in a row: the chord
    (Shamanskii) variant of Newton's method (Kelley, *Iterative Methods for
    Linear and Nonlinear Equations*, SIAM 1995, ch. 5); the first step of
    a level is measured against the last step of the level before.  A step
    whose decrement ``-slope / 2`` is at most ``NEWTON_FLAT * |obj|``
    changes the objective below its rounding but still reduces the
    gradient, so it is taken in full exactly when it lowers ``|grad J|``
    (Boyd and Vandenberghe, *Convex Optimization*, section 9.5).  An
    iterate that takes no step is certified with the newest factor in
    hand; one whose Hessian is singular goes uncertified and ends the solve.
    Each iterate logs its exact objective and the best dual so far.  A
    level is centred when the gradient falls to ``1e-12 |F|``, when a step
    makes no progress, or after a full step whose decrement was at most
    ``NEWTON_FLAT * |obj|`` unless a chord step is due.  Then the solve
    stops, unless ``mu`` shrinks by 10 to a next level: the certified gap
    is still above the tolerance and this level lowered it.  The steps of
    every level count against ``max_iterations``.

    The solve returns its last iterate and, as the density its flux
    carries, that iterate's ``c*'`` (the smoothed one at the last level):
    for a power law the best iterate up to the objective's rounding, for a
    smoothed cost the final centred point, whose exact objective is what
    the gap certifies.
    """
    grid = problem.grid
    idx = grid.interior_idx
    grad_floor = 1e-12 * float(np.linalg.norm(problem.load[idx]))
    mu = 1.0 if problem.cost.smoothing and grad_floor > 0.0 else None
    u, factor = _power_start(problem) if mu is None else (np.zeros(grid.n_nodes), None)
    # the newest factor in hand has the blocks B, the unit ones at the start
    # (whose solve factors nothing); a smoothed start counts its first level
    blocks, factorisations, levels = (1.0, 0.0, 1.0), 0, int(mu is not None)
    # the iterate at the current level, and its exact objective
    point = _Point(problem, u, mu)
    obj = point.obj if mu is None else point.at(None).obj

    best_dual, best_sigma = -INF, np.zeros((grid.n_cells, 2))
    log, steps, chord_steps = [], 0, 0
    # the gap when the level was entered, and whether the last step was full
    # with a rounding-level decrement
    level_gap, flat = INF, False
    # whether the next step may reuse the newest factor, the chord steps in
    # a row, and |grad J| before the last step
    reuse, run, last_norm = False, 0, INF
    z = np.zeros(grid.n_nodes)
    while True:
        flux, grad = point.variation
        grad = grad[idx]
        chord = reuse and point.norm <= CHORD_RATIO * last_norm
        centred = point.norm <= grad_floor or flat and not chord
        stepping = steps < params.max_iterations and not centred
        chord = chord and stepping
        if stepping and not chord:
            factor = None  # one band alive at a time
            blocks, factor = _factor_step(problem, point.g, point.d, point.rho)
            factorisations += 1
        run = run + 1 if chord else 0
        chord_steps += chord
        if factor is not None:
            z[idx] = -factor.solve(grad)
            dual, sigma = _certify(problem, flux, blocks, z)
            if dual > best_dual:
                best_dual, best_sigma = dual, sigma
        gap, rel_gap = _relative_gap(obj, best_dual)
        log.append((steps, obj, best_dual, gap))
        if steps == params.max_iterations or (stepping and factor is None):
            break
        if stepping:
            slope = float(np.dot(grad, z[idx]))
            rounding = -0.5 * slope <= NEWTON_FLAT * abs(point.obj)
            # the gradient judges a step the objective cannot resolve
            full, progress, trial = _line_search(problem, point, z, slope, rounding)
            # no progress left: the level is flat at rounding level
            centred = not progress
        if centred:
            if mu is None or rel_gap <= params.gap_tolerance or not gap < level_gap:
                break
            level_gap, mu, levels, flat = gap, 0.1 * mu, levels + 1, False
            point = point.at(mu)
            continue
        # a full step that predicted a rounding-level decrease has left
        # nothing for a further factorisation to find; only a due chord
        # step goes on
        flat = full and rounding
        reuse, last_norm = full and run < CHORD_STEPS, point.norm
        point = trial
        obj = point.obj if mu is None else point.at(None).obj
        steps += 1

    return AuxiliarySolution(problem=problem, u=point.u, flux=best_sigma, objective=obj,
                             dual_value=best_dual, converged=rel_gap <= params.gap_tolerance,
                             log=log, method="newton", density=point.d, iterations=steps,
                             factorisations=factorisations, chord_steps=chord_steps,
                             mu_levels=levels)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

class AuxiliarySolution:
    """Solver output, built by keyword: minimizer, feasible dual flux, certified gap.

    ``u`` holds the nodal minimizer and ``flux`` the divergence-feasible
    flux density whose dual value ``dual_value`` bounds the ``objective``
    from below.  The record computes, for every method, ``gap = objective -
    dual_value``, ``rel_gap`` and ``dual_residual``: the flux's miss
    ``|G^T (vol flux) - F|`` of the load on the interior, relative to
    ``max(1, |F|)``.
    ``method`` names how the gap was sought: ``"certificate"`` (the exact
    flux, every interval and radial grid) or ``"newton"`` (every
    rectangle).
    ``factorisations`` counts the banded Cholesky factorisations of a
    stiffness (:meth:`massopt.grids.StiffnessLayout.factor`) the solve
    made: none for the 1-d certificate; for Newton one per step attempted
    that is not a chord step (a level ends without a further factorisation
    after a full step whose decrement was rounding level).  A power law's
    start solves with the unit-weight stiffness by sine transforms and
    factors nothing.  ``chord_steps`` counts the Newton steps attempted
    with the newest factor reused: none in 1-d.  ``mu_levels`` counts the
    smoothing levels a Newton solve entered: 0 for quadratic and power
    costs and in 1-d.  Every step attempted factors or reuses, and each
    level ends on at most one step that made no progress (or a singular
    Hessian), so a Newton solve has ``0 <= factorisations + chord_steps
    - iterations <= max(mu_levels, 1)``.
    ``density`` holds the conductivity per cell that the solve's flux
    carries along the gradient of ``u``
    (:func:`massopt.recovery.recover_measure` projects it onto ``dom c``): the
    1-d certificate's ``|sigma| / t``, and Newton's (smoothed) conjugate
    derivative ``c*'(s)`` at its last iterate, for the log barrier the
    central-path multiplier ``c*'(s) + mu / (cinf - s)``.
    """

    def __init__(self, *, problem, u, flux, objective, dual_value, converged, log,
                 method, density, iterations=0, factorisations=0, chord_steps=0,
                 mu_levels=0):
        grid, load = problem.grid, problem.load
        self.u = ScalarField(grid, u)
        self.flux = VectorField(grid, flux)
        self.density = density
        self.objective = objective
        self.dual_value = dual_value
        self.gap, self.rel_gap = _relative_gap(objective, dual_value)
        self.iterations = iterations
        self.method = method
        self.factorisations = factorisations
        self.chord_steps = chord_steps
        self.mu_levels = mu_levels
        self.converged = converged
        miss = grid.gradient_adjoint(self.flux.values * grid.cell_volumes[:, None]) - load
        self.dual_residual = (float(np.linalg.norm(miss[grid.interior_idx]))
                              / max(1.0, float(np.linalg.norm(load))))
        self.log = log

    @property
    def max_gradient(self):
        s = _half_square(self.u.grid.gradient_apply(self.u.values))
        return float(np.max(np.sqrt(2.0 * s), initial=0.0))


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

    The flux fixes the dual value, and the field integrated from its
    gradient selection ``g`` is returned.  The density reads the
    certificate alone, not the field's gradient, which carries rounding:
    ``|sigma| / t`` where the flux and its inverted magnitude ``t`` are
    nonzero, and ``D-c*(g^2/2)`` elsewhere.
    """
    sigma, g, t = feasible_flux_1d(problem)
    u = _primal_from_gradient(problem.grid, g)
    obj = objective_eval(problem, u)
    dual = _dual_value(problem, sigma, t)
    gap, rel_gap = _relative_gap(obj, dual)
    vabs = np.abs(sigma[:, 0])
    carried = (vabs > 0.0) & (t > 0.0)
    density = np.where(carried, vabs / np.where(carried, t, 1.0), problem.conj_dminus(0.5 * g * g))
    return AuxiliarySolution(problem=problem, u=u, flux=sigma, objective=obj, dual_value=dual,
                             converged=rel_gap <= params.gap_tolerance,
                             log=[(0, obj, dual, gap)], method="certificate", density=density)
