"""First-order solver for the discretized auxiliary variational problem.

The discrete problem is

    minimize  sum_i vol_i * c*(x_i, |g_i|^2 / 2)  -  <F, u>
    over nodal u vanishing on the boundary,  g = Du the per-cell gradient.

The integrand is convex in ``g`` (a nondecreasing convex function of
``|g|^2/2``), so the problem is a convex composite and is solved by a
Chambolle-Pock primal-dual splitting whose dual update reduces to a scalar
monotone root-find per cell (safeguarded bisection on the gradient
magnitude).  In the linear regime the root-find also enforces the pointwise
bound ``|g| <= sqrt(2 * cinf(x))`` exactly, never by penalty.

The convergence certificate is honest: a divergence-feasible flux is
constructed (exactly, in one dimension, where the feasible set is a point or
a one-parameter family; by a projection solve in two dimensions) and the
certified gap is primal objective minus the dual value of that flux.  In one
dimension the certificate also yields a primal candidate by inverting the
gradient-to-flux map, which typically lands on the discrete minimizer to
machine precision; the solver keeps whichever iterate has the best merit, so
the reported gap is monotone along accepted iterates.  In two dimensions the
flux projection and the Picard candidate are each one direct solve of an
interior stiffness (:func:`massopt.grids.stiffness`,
:func:`massopt.grids.spd_solve`), exact up to rounding.
"""

import math

import numpy as np

from .costs import validate_cost
from .errors import InadmissibleSource, InvalidCost, NotConverged, RegimeMismatch
from .grids import ScalarField, VectorField, spd_solve, stiffness

INF = math.inf


class SolverParams:
    """Iteration budget and tolerances for :func:`solve_auxiliary`."""

    def __init__(self, max_iterations=20000, gap_tolerance=1e-8, check_every=25,
                 power_iterations=50, step_scale=0.95, warm_restart=True,
                 log_path=None):
        if not gap_tolerance > 0.0:
            raise ValueError("gap_tolerance must be positive")
        self.max_iterations = int(max_iterations)
        self.gap_tolerance = float(gap_tolerance)
        self.check_every = max(int(check_every), 1)
        self.power_iterations = int(power_iterations)
        self.step_scale = float(step_scale)
        self.warm_restart = bool(warm_restart)
        self.log_path = log_path


class AuxiliaryProblem:
    """Assembled instance: grid + cost (with conjugate) + source."""

    def __init__(self, grid, cost, source, cell_weights=None, assumptions=()):
        self.grid = grid
        self.cost = cost
        self.source = source
        self.cell_weights = cell_weights  # None for homogeneous costs
        self.load = source.load_vector()
        self.regime = cost.regime
        base = cost.recession_slope()
        if cell_weights is None:
            self.cell_thresholds = np.full(grid.n_cells, base)
        else:
            self.cell_thresholds = np.asarray(cell_weights, dtype=float) * base
        with np.errstate(over="ignore"):
            self.cell_caps = np.where(np.isinf(self.cell_thresholds), INF,
                                      np.sqrt(2.0 * np.minimum(self.cell_thresholds, 1e300)))
        self.lip_bound = float(np.max(self.cell_caps)) if self.regime == "L" else INF
        self.assumptions = list(assumptions)

    # weighted conjugate shortcuts -------------------------------------------------

    def conj_value(self, s):
        return self.cost.conjugate_value(s, weight=self.cell_weights)

    def conj_dminus(self, s):
        return self.cost.conjugate_dminus(s, weight=self.cell_weights)

    def conj_dplus(self, s):
        return self.cost.conjugate_dplus(s, weight=self.cell_weights)

    def invert_flux(self, vabs):
        return self.cost.invert_flux(vabs, weight=self.cell_weights)

    def cost_value(self, a):
        return self.cost.value(a, weight=self.cell_weights)


def build_problem(grid, cost, source, cell_weights=None):
    """Validate and assemble an :class:`AuxiliaryProblem`.

    Dirac parts of the source are admitted in the linear regime always, and
    in the superlinear regime only for quadratic-type growth (the quadratic
    catalog cost and its regularized continuations) in dimension <= 3.
    """
    assumptions = []
    separable = cost.spatial_weight is not None
    if cell_weights is None and separable:
        cell_weights = cost.weights_on(grid.cell_centers)
    if cell_weights is not None:
        cell_weights = np.asarray(cell_weights, dtype=float)
        if cell_weights.shape != (grid.n_cells,):
            raise InvalidCost("cell weight table needs %d entries" % grid.n_cells)
        if np.any(cell_weights <= 0.0):
            raise InvalidCost("cell weights must be strictly positive")
        assumptions.append("heterogeneous cost: absence of the Lavrentiev "
                           "phenomenon is assumed, not verified")
        if not separable:
            assumptions.append("per-cell weight table: upper semicontinuity "
                               "of the conjugate in x is assumed")

    x_samples = grid.cell_centers if separable else None
    report = validate_cost(cost, sample_budget=64, x_samples=x_samples)
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
# per-cell scalar solves (vectorized bisection)
# ---------------------------------------------------------------------------

def _prox_magnitude(problem, r, lam, iters=70):
    """Solve ``r in t + lam * t * dc*(t^2/2)`` per cell; exact cap handling."""
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


def _minverse_bounds(problem, vabs, iters=90):
    """Smallest/largest gradient magnitude matching each flux magnitude.

    Returns ``(t_lo, t_hi)`` with ``m(t) = t * dc*(t^2/2)`` satisfying
    ``m-(t) <= v <= m+(t)`` exactly on the returned interval ends.
    """
    vabs = np.asarray(vabs, dtype=float)
    caps = problem.cell_caps

    def m_lo(t):
        s = 0.5 * t * t
        with np.errstate(invalid="ignore", over="ignore"):
            out = t * problem.conj_dminus(s)
        return np.where(t > 0.0, out, 0.0)

    def m_hi(t):
        s = 0.5 * t * t
        with np.errstate(invalid="ignore", over="ignore"):
            out = t * problem.conj_dplus(s)
        return np.where(t > 0.0, out, 0.0)

    hi0 = np.where(np.isinf(caps), np.maximum(vabs, 1.0), caps)
    if np.any(np.isinf(caps)):
        for _ in range(80):
            grow = np.isinf(caps) & (m_lo(hi0) <= vabs)
            if not np.any(grow):
                break
            hi0 = np.where(grow, hi0 * 2.0, hi0)

    # t_lo = inf{t : m+(t) >= v}
    lo, hi = np.zeros_like(vabs), hi0.copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        right = m_hi(mid) < vabs
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    t_min = 0.5 * (lo + hi)

    # t_hi = sup{t : m-(t) <= v}
    lo, hi = np.zeros_like(vabs), hi0.copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        right = m_lo(mid) <= vabs
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    t_max = 0.5 * (lo + hi)
    return np.minimum(t_min, t_max), t_max


def _dual_value(problem, sigma):
    """Dual objective of a divergence-feasible flux density ``sigma``."""
    absw = np.sqrt(np.sum(np.asarray(sigma, dtype=float) ** 2, axis=1))
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
    the recovered gradient (monotone in the constant, solved by bisection).

    Returns ``(sigma, g)``: per-cell flux densities and a matching gradient
    selection with ``sum(h * g) = 0`` on interval grids.
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
        g = t * np.sign(sigma)
        return sigma[:, None], g

    cum = np.concatenate([[0.0], np.cumsum(F[1:n])])

    def mean_grad(q0):
        sigma = (q0 - cum) * h / vol
        t, _ = problem.invert_flux(np.abs(sigma))
        return float(np.dot(h, t * np.sign(sigma)))

    lo, hi = float(np.min(cum)) - 1.0, float(np.max(cum)) + 1.0
    span = max(hi - lo, 1.0)
    for _ in range(80):
        if mean_grad(lo) <= 0.0:
            break
        lo -= span
        span *= 2.0
    span = max(hi - lo, 1.0)
    for _ in range(80):
        if mean_grad(hi) >= 0.0:
            break
        hi += span
        span *= 2.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mean_grad(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    q0 = 0.5 * (lo + hi)

    sigma = (q0 - cum) * h / vol
    # the bisection leaves the flux of the sign-change cell at rounding
    # level; a nonzero sign there would pin that cell's gradient to the cap
    # and the zero-mean selection below could not close
    sigma[np.abs(sigma) <= 1e-12 * np.max(np.abs(sigma))] = 0.0
    t, _ = problem.invert_flux(np.abs(sigma))
    g = t * np.sign(sigma)
    t_lo, t_hi = _minverse_bounds(problem, np.abs(sigma))
    g_lo = np.where(sigma > 0.0, t_lo, -t_hi)
    g_hi = np.where(sigma < 0.0, -t_lo, t_hi)
    g = _zero_mean_selection(h, np.clip(g, g_lo, g_hi), g_lo, g_hi)
    return sigma[:, None], g


def _zero_mean_selection(h, g, g_lo, g_hi):
    """Adjust g within per-cell bounds so that sum(h * g) vanishes."""
    g = g.copy()
    deficit = -float(np.dot(h, g))
    for _ in range(2):
        if deficit > 0.0:
            room = h * np.maximum(g_hi - g, 0.0)
        else:
            room = h * np.maximum(g - g_lo, 0.0)
        total = np.cumsum(room)
        need = abs(deficit)
        take = np.minimum(room, np.maximum(need - (total - room), 0.0))
        g = g + np.sign(deficit) * take / np.where(h > 0.0, h, 1.0)
        deficit = -float(np.dot(h, g))
        if abs(deficit) <= 1e-13 * (1.0 + float(np.dot(h, np.abs(g)))):
            break
    if deficit != 0.0:
        # rounding residue: spread uniformly (stays within the 1e-9 slack)
        g = g + deficit / float(np.sum(h)) * np.ones_like(g)
    return g


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


def _certificate_1d(problem):
    sigma, g = feasible_flux_1d(problem)
    u = _primal_from_gradient(problem.grid, g)
    dual = _dual_value(problem, sigma)
    return sigma, u, dual


def _project_flux(problem, y_cells):
    """Project vol-weighted cell fluxes onto the divergence constraint.

    The correction ``G z`` solves ``(G^T G) z = F - G^T y`` on the interior
    nodes by one direct solve, so the returned residual is rounding level.
    """
    grid = problem.grid
    idx = grid.interior_idx
    Gi = grid.gradient_sparse()[:, idx]
    y_flat = y_cells.T.ravel()
    resid = problem.load[idx] - Gi.T @ y_flat
    y_hat = y_flat + Gi @ spd_solve(stiffness(grid, np.ones(grid.n_cells)), resid)
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
    u[idx] = spd_solve(stiffness(grid, grid.cell_volumes * a), problem.load[idx])
    return u, a


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


def _certificate_2d(problem, y, u_iter):
    """Feasible flux, dual value, and a polished primal candidate."""
    grid = problem.grid
    sigma, res = _project_flux(problem, y)
    dual = _dual_value(problem, sigma)
    u_cand, a = _picard_candidate(problem, sigma)
    u_cand = _rescale_feasible(problem, u_cand)
    # re-project the candidate's own flux for a second dual bound
    g = grid.gradient_apply(u_cand)
    s = 0.5 * np.sum(g * g, axis=1)
    d = problem.conj_dplus(s)
    y_cand = g * (grid.cell_volumes * np.where(np.isfinite(d), d, 0.0))[:, None]
    sigma2, res2 = _project_flux(problem, y_cand)
    dual2 = _dual_value(problem, sigma2)
    if dual2 > dual:
        sigma, res, dual = sigma2, res2, dual2
    return sigma, dual, res, u_cand


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
    """Solver output: minimizer, feasible dual flux, certified gap."""

    def __init__(self, problem, u_values, sigma, objective, dual_value, gap,
                 rel_gap, iterations, converged, dual_residual, log, notes=()):
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


def solve_auxiliary(problem, params=None):
    """Minimize the discrete auxiliary objective with a certified gap.

    Returns the best primal iterate together with a divergence-feasible dual
    flux; ``gap = objective - dual_value`` is a true optimality certificate.
    On non-convergence the best iterate is returned with ``converged=False``.
    """
    params = params or SolverParams()
    grid = problem.grid
    F = problem.load
    norm_D = operator_norm(grid, params.power_iterations)
    tau = params.step_scale / norm_D
    sig = params.step_scale / norm_D

    u = np.zeros(grid.n_nodes)
    ubar = u.copy()
    y = np.zeros((grid.n_cells, grid.dim))
    lam = grid.cell_volumes / sig

    best_u = u.copy()
    best_obj = objective_eval(problem, u)
    best_dual = -INF
    best_sigma = np.zeros_like(y)
    dual_residual = INF
    log = []
    notes = []
    converged = False
    iterations = 0

    scale = max(1.0, float(np.linalg.norm(F)))

    for k in range(1, params.max_iterations + 1):
        iterations = k
        # dual ascent: prox of the conjugate integrand via per-cell root-find
        ytil = y + sig * grid.gradient_apply(ubar)
        r = np.sqrt(np.sum(ytil * ytil, axis=1)) / sig
        t = _prox_magnitude(problem, r, lam)
        with np.errstate(invalid="ignore", divide="ignore"):
            shrink = np.where(r > 0.0, t / np.where(r > 0.0, r, 1.0), 0.0)
        y = ytil * (1.0 - shrink)[:, None]
        # primal descent with exact boundary handling
        u_new = u - tau * grid.gradient_adjoint(y) + tau * F
        u_new[grid.boundary_mask] = 0.0
        ubar = 2.0 * u_new - u
        u = u_new

        if k % params.check_every == 0 or k == params.max_iterations:
            u_eval = u if grid.dim == 1 else _rescale_feasible(problem, u)
            obj_iter = objective_eval(problem, u_eval)
            if obj_iter < best_obj:
                best_obj, best_u = obj_iter, u_eval.copy()
            if grid.dim == 1:
                sigma, u_cand, dual = _certificate_1d(problem)
                dual_residual = 0.0
                obj_cand = objective_eval(problem, u_cand)
                if obj_cand < best_obj:
                    best_obj, best_u = obj_cand, u_cand
            else:
                sigma, dual, dual_residual, u_cand = _certificate_2d(problem, y, u)
                obj_cand = objective_eval(problem, u_cand)
                if obj_cand < best_obj:
                    best_obj, best_u = obj_cand, u_cand.copy()
                    if params.warm_restart:
                        # restart the splitting from the polished iterate
                        u = u_cand.copy()
                        ubar = u.copy()
                        y = sigma * grid.cell_volumes[:, None]
            if dual > best_dual:
                best_dual, best_sigma = dual, sigma
            gap = best_obj - best_dual
            rel_gap = gap / max(1.0, abs(best_obj), abs(best_dual))
            log.append((k, best_obj, best_dual, gap))
            if rel_gap <= params.gap_tolerance:
                converged = True
                break

    gap = best_obj - best_dual
    rel_gap = gap / max(1.0, abs(best_obj), abs(best_dual))
    if not math.isfinite(dual_residual):
        notes.append("no divergence-feasible flux was constructed")
    else:
        dual_residual = dual_residual / scale

    solution = AuxiliarySolution(problem, best_u, best_sigma, best_obj, best_dual,
                                 gap, rel_gap, iterations, converged,
                                 dual_residual, log, notes)
    if params.log_path:
        write_iteration_log(params.log_path, log)
    return solution


def write_iteration_log(path, log):
    with open(path, "w") as fh:
        fh.write("iteration,primal,dual,gap\n")
        for k, p, d, g in log:
            fh.write("%d,%.17g,%.17g,%.17g\n" % (k, p, d, g))
