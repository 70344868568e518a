"""Closed-form fixtures and an independent brute-force minimizer.

Fixture catalog (unit ball / unit interval, names take the ball dimension
where applicable):

* ``quadratic_ball_uniform(n)``: quadratic cost, unit source on the unit
  ball.  ``u(r) = (3/4)(2/n)^(1/3) (1 - r^(4/3))``,
  ``a(r) = (1/2)(2/n)^(2/3) r^(2/3)``.
* ``quadratic_ball_dirac(n <= 3)``: quadratic cost, point source at the
  origin.  ``u(r) = 3*2^(1/3)/(4-n) (1 - r^((4-n)/3))``,
  ``a(r) = 2^(-1/3) r^(2(1-n)/3)``.  Flux balance through spheres shows the
  pair solves ``-div(a grad u) = m * delta_0`` with ``m = omega_{n-1}`` (the
  unit-sphere surface measure), so the fixture carries that atom mass.  The
  density is unbounded at the origin; error metrics exclude ``r < 0.1``.
* ``mk_interval_uniform``: cost ``t/2``, unit source on (-1, 1).  The flux
  ``v`` with ``-v' = 1`` and even symmetry is ``v(x) = -x``; inverting the
  gradient-to-flux map of the indicator conjugate gives ``|u'| = 1`` where
  ``v != 0`` and ``a = |v| = |x|``, i.e. ``u = 1 - |x|``.
* ``reciprocal_interval``: cost ``t + 1/t``, unit source on (-1, 1).  With
  ``v(x) = -x`` and ``a = (1 - g^2/2)^(-1/2)``, solving ``g a = v`` gives
  ``g(x) = -x / sqrt(1 + x^2/2)``, ``a(x) = sqrt(1 + x^2/2)`` and
  ``u(x) = sqrt(2) (sqrt(3) - sqrt(2 + x^2))``.

The brute-force minimizer is deliberately independent of the solver: cyclic
coordinate descent with an exact golden-section line search per node,
restricted to the per-coordinate feasible interval in the linear regime.
``_concave_max``, a scalar golden-section maximization of a concave
function, is likewise independent of the conjugate code: the acceptance
suite takes it as the biconjugacy reference.
"""

import math

import numpy as np

from .costs import _OVERFLOW_CAP, linear_cost, quadratic_cost, reciprocal_cost
from .errors import InvalidCost, NumericOverflow, TooLarge, UnknownFixture
from .grids import SourceTerm, interval_grid, radial_grid, sphere_surface
from .solver import build_problem, objective_eval

INF = math.inf


class ClosedFormFixture:
    """Exact (u, a) pair with the data needed to rebuild the problem."""

    def __init__(self, name, ball_dim, cost, source_kind, u_exact, a_exact,
                 validity=None):
        self.name = name
        self.ball_dim = ball_dim
        self.cost = cost
        self.source_kind = source_kind
        self.u_exact = u_exact
        self.a_exact = a_exact
        self.validity = validity  # (r_min, r_max) window for error metrics

    def grid(self, resolution):
        if self.source_kind in ("uniform_ball", "dirac_ball"):
            return radial_grid(1.0, resolution, self.ball_dim)
        return interval_grid(-1.0, 1.0, resolution)

    def source(self, grid):
        if self.source_kind == "dirac_ball":
            mass = sphere_surface(self.ball_dim)
            return SourceTerm(grid, atoms=[(np.array([0.0]), mass)])
        return SourceTerm.constant(grid, 1.0)

    def build(self, resolution):
        grid = self.grid(resolution)
        return build_problem(grid, self.cost, self.source(grid))

    def masks(self, grid):
        """Cell/node inclusion masks for the validity window."""
        if self.validity is None:
            return None, None
        lo, hi = self.validity
        r_c = np.abs(grid.cell_centers[:, 0])
        r_n = np.abs(grid.node_coords[:, 0])
        return (r_c >= lo) & (r_c <= hi), (r_n >= lo) & (r_n <= hi)

    def __repr__(self):
        return "ClosedFormFixture(%s, n=%d)" % (self.name, self.ball_dim)


def _quadratic_ball_uniform(n):
    cu = 0.75 * (2.0 / n) ** (1.0 / 3.0)
    ca = 0.5 * (2.0 / n) ** (2.0 / 3.0)
    return ClosedFormFixture(
        "quadratic_ball_uniform", n, quadratic_cost(), "uniform_ball",
        u_exact=lambda r: cu * (1.0 - np.abs(r) ** (4.0 / 3.0)),
        a_exact=lambda r: ca * np.abs(r) ** (2.0 / 3.0))


def _quadratic_ball_dirac(n):
    if n > 3:
        raise UnknownFixture("dirac fixture requires dimension <= 3")
    cu = 3.0 * 2.0 ** (1.0 / 3.0) / (4.0 - n)
    ca = 2.0 ** (-1.0 / 3.0)
    return ClosedFormFixture(
        "quadratic_ball_dirac", n, quadratic_cost(), "dirac_ball",
        u_exact=lambda r: cu * (1.0 - np.abs(r) ** ((4.0 - n) / 3.0)),
        a_exact=lambda r: ca * np.abs(r) ** (2.0 * (1.0 - n) / 3.0),
        validity=(0.1, 0.9))


def _mk_interval_uniform():
    return ClosedFormFixture(
        "mk_interval_uniform", 1, linear_cost(0.5), "uniform_interval",
        u_exact=lambda x: 1.0 - np.abs(x),
        a_exact=lambda x: np.abs(x))


def _reciprocal_interval():
    return ClosedFormFixture(
        "reciprocal_interval", 1, reciprocal_cost(1.0, 1.0), "uniform_interval",
        u_exact=lambda x: math.sqrt(2.0) * (math.sqrt(3.0) - np.sqrt(2.0 + x * x)),
        a_exact=lambda x: np.sqrt(1.0 + 0.5 * x * x))


_CATALOG = {
    "quadratic_ball_uniform": (_quadratic_ball_uniform, True),
    "quadratic_ball_dirac": (_quadratic_ball_dirac, True),
    "mk_interval_uniform": (_mk_interval_uniform, False),
    "reciprocal_interval": (_reciprocal_interval, False),
}


def fixture(name, dimension=None):
    """Fixture lookup; names taking a dimension require ``dimension``."""
    try:
        factory, needs_dim = _CATALOG[name]
    except KeyError:
        raise UnknownFixture("unknown fixture %r (have: %s)"
                             % (name, ", ".join(sorted(_CATALOG)))) from None
    if needs_dim:
        if dimension is None or int(dimension) < 1:
            raise UnknownFixture("fixture %r needs a dimension >= 1" % name)
        return factory(int(dimension))
    return factory()


def fixture_names():
    return sorted(_CATALOG)


def fixture_errors(fix, grid, u_values, measure):
    """(relative sup error of u, relative L1 error of the density).

    Both errors are restricted to the fixture's validity window.
    """
    cell_mask, node_mask = fix.masks(grid)
    if cell_mask is None:
        cell_mask = np.ones(grid.n_cells, dtype=bool)
        node_mask = np.ones(grid.n_nodes, dtype=bool)
    u_ex = np.asarray(fix.u_exact(grid.node_coords[:, 0]), dtype=float)
    scale = max(float(np.max(np.abs(u_ex))), 1e-300)
    u_err = float(np.max(np.abs(np.asarray(u_values) - u_ex)[node_mask])) / scale
    a_ex = np.asarray(fix.a_exact(grid.cell_centers[:, 0]), dtype=float)
    vol = grid.cell_volumes
    num = float(np.dot(vol[cell_mask], np.abs(measure.ac_density - a_ex)[cell_mask]))
    den = max(float(np.dot(vol[cell_mask], np.abs(a_ex)[cell_mask])), 1e-300)
    return u_err, num / den


# ---------------------------------------------------------------------------
# brute-force minimizer
# ---------------------------------------------------------------------------

# the coordinate descent of brute_force_min: golden-section tolerance per
# node, the objective decrease of a pass that counts as rounding (relative
# to max(1, |objective|)), and the pass cap that bounds its time
_LINE_TOL = 1e-12
_FLAT_PASS = 4.0 * np.finfo(float).eps
_MAX_PASSES = 20000


def _golden_min(fn, a, b, tol=1e-12, iters=200):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if b - a <= tol:
            break
        if f1 > f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
    return x1 if f1 <= f2 else x2


def _golden_max(fn, a, b, iters=200, tol=1e-13):
    """Golden-section maximization of a quasi-concave fn on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
    if f1 >= f2:
        return f1, x1
    return f2, x2


def _concave_max(fn, seed, lo=0.0, hi=INF, cap=_OVERFLOW_CAP):
    """Maximize a concave extended-real function over [lo, hi].

    Returns ``(value, argmax)``.  A supremum that climbs past ``cap`` while
    the maximizer runs off to an unbounded edge is reported as
    ``(inf, inf)``.  Hitting the cap with a bounded maximizer signals an
    internal bug (:class:`NumericOverflow`).
    """
    f_seed = fn(seed)
    if not f_seed > -INF:
        # walk toward the interior of the domain to find a finite value
        for cand in (seed * 0.5, seed * 2.0, seed + 1.0, lo + 1e-8, 1.0):
            if lo <= cand <= hi and fn(cand) > -INF:
                seed = cand
                f_seed = fn(seed)
                break
        else:
            raise InvalidCost("no finite value found for numeric supremum")

    # expand to the right
    right = seed
    f_right = f_seed
    step = max(1.0, abs(seed))
    increasing = False
    while right < hi:
        nxt = min(right + step, hi, 1e13)
        f_nxt = fn(nxt)
        if f_nxt > cap:
            if math.isinf(hi):
                return INF, INF
            raise NumericOverflow("overflow cap hit with bounded maximizer")
        if f_nxt <= f_right:
            right = nxt
            increasing = False
            break
        right, f_right = nxt, f_nxt
        increasing = True
        if nxt >= min(hi, 1e13):
            break
        step *= 2.0
    if increasing and math.isinf(hi) and right >= 1e13 \
            and f_right > 1e3 * (1.0 + abs(f_seed)):
        # still climbing at the expansion limit: unbounded maximizer
        return INF, INF

    # expand to the left
    left = seed
    f_left = f_seed
    step = max(1.0, abs(seed))
    increasing = False
    while left > lo:
        nxt = max(left - step, lo, -1e13)
        f_nxt = fn(nxt)
        if f_nxt > cap:
            if math.isinf(lo):
                return INF, -INF
            raise NumericOverflow("overflow cap hit with bounded maximizer")
        if f_nxt <= f_left:
            left = nxt
            increasing = False
            break
        left, f_left = nxt, f_nxt
        increasing = True
        if nxt <= max(lo, -1e13):
            break
        step *= 2.0
    if increasing and math.isinf(lo) and left <= -1e13 \
            and f_left > 1e3 * (1.0 + abs(f_seed)):
        return INF, -INF

    value, arg = _golden_max(fn, left, right)
    value = max(value, f_seed)
    if value > cap:
        raise NumericOverflow("overflow cap hit with bounded maximizer")
    return value, arg


def _scalar_conjugate(cost):
    """Fast scalar conjugate evaluator for the builtin profiles.

    Falls back to the vectorized machinery for numeric cost kinds; the
    closed forms keep the line searches of the coordinate-descent oracle
    cheap without changing any value.
    """
    prof = cost._profile
    name = getattr(prof, "name", "")
    if name in ("quadratic", "power"):
        q = prof.q
        return lambda s: s ** q / q if s > 0.0 else 0.0
    if name == "linear":
        k = prof.slope
        edge = k + 1e-12 * (1.0 + k)
        return lambda s: 0.0 if s <= edge else INF
    if name == "reciprocal":
        a, b = prof.a, prof.b
        edge = a + 1e-12 * (1.0 + a)
        return lambda s: (-2.0 * math.sqrt(b * max(a - s, 0.0))
                          if s <= edge else INF)
    return lambda s: float(np.asarray(cost.conjugate_value(s)))


def brute_force_min(problem):
    """Global minimum of the discrete objective on a tiny interval grid.

    Cyclic coordinate descent; each nodal value is minimized by golden
    section over its feasible interval (the linear-regime gradient bound is
    respected by construction, so feasibility of the output is exact).  A
    move is kept only if it does not raise that node's local value, so the
    objective never increases.  The descent stops after a full pass that
    lowers the objective by no more than rounding, ``4 eps max(1, |obj|)``,
    or after ``_MAX_PASSES`` passes.  Convexity of the objective makes the
    point where it stalls global up to rounding.  Limited to <= 8 interior
    nodes.
    """
    grid = problem.grid
    if grid.kind != "interval":
        raise TooLarge("brute force minimizer handles interval grids only")
    n_int = grid.n_nodes - 2
    if n_int > 8:
        raise TooLarge("brute force minimizer allows at most 8 interior nodes")

    vol = grid.cell_volumes
    h = grid.widths[0]
    F = problem.load
    caps = problem.cell_caps
    u = np.zeros(grid.n_nodes)
    conj = _scalar_conjugate(problem.cost)
    weights = problem.cell_weights

    def local(j, val):
        gl = (val - u[j - 1]) / h[j - 1]
        gr = (u[j + 1] - val) / h[j]
        if weights is None:
            terms = vol[j - 1] * conj(0.5 * gl * gl) + vol[j] * conj(0.5 * gr * gr)
        else:
            wl, wr = weights[j - 1], weights[j]
            terms = (vol[j - 1] * wl * conj(0.5 * gl * gl / wl)
                     + vol[j] * wr * conj(0.5 * gr * gr / wr))
        return terms - F[j] * val

    radii = np.ones(grid.n_nodes)  # warm-started bracket widths
    obj = objective_eval(problem, u)
    for _ in range(_MAX_PASSES):
        for j in range(1, grid.n_nodes - 1):
            if math.isinf(caps[j - 1]) and math.isinf(caps[j]):
                box_lo, box_hi = -INF, INF
            else:
                box_lo = max(u[j - 1] - h[j - 1] * caps[j - 1],
                             u[j + 1] - h[j] * caps[j])
                box_hi = min(u[j - 1] + h[j - 1] * caps[j - 1],
                             u[j + 1] + h[j] * caps[j])
                if box_hi < box_lo:  # numerically empty: keep the current value
                    continue
            radius = max(4.0 * radii[j], 64.0 * _LINE_TOL)
            x = u[j]
            for _ in range(80):
                lo = max(u[j] - radius, box_lo)
                hi = min(u[j] + radius, box_hi)
                x = _golden_min(lambda v: local(j, v), lo, hi, tol=_LINE_TOL)
                pad = 0.02 * (hi - lo)
                at_lo = (x - lo) <= pad and lo > box_lo
                at_hi = (hi - x) <= pad and hi < box_hi
                if not (at_lo or at_hi):
                    break
                radius *= 4.0
            radii[j] = max(abs(x - u[j]), _LINE_TOL)
            if local(j, x) <= local(j, u[j]):
                u[j] = x
        prev, obj = obj, objective_eval(problem, u)
        if prev - obj <= _FLAT_PASS * max(1.0, abs(obj)):
            break
    return obj, u
