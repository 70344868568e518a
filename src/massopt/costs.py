"""Convex cost functions, Fenchel conjugates, recession slopes.

A cost is a proper convex lower-semicontinuous function ``c : R -> [0, +inf]``
with ``c(t) = +inf`` for ``t < 0`` and at-least-linear growth
``c(t) >= alpha*t + beta`` for some ``alpha > 0``.  For a convex ``c`` that
holds exactly when the recession slope ``cinf = lim c(t0 + s) / s`` is
positive.  Both hypotheses are decided once, where a :class:`CostFunction`
is built, so a cost that exists is convex: a table is refused when its
slopes fall, and every cost when its recession slope is not positive or the
secant check :func:`validate_cost` finds it concave.  Every conjugate
evaluator relies on it: a table's searches its nondecreasing slopes, an
expression's bisects its nondecreasing ``D+c``.

A cost is homogeneous.  Heterogeneity is separable,
``c(x, t) = w(x) * c0(t)`` with a finite positive weight ``w`` that a
problem holds per cell (:class:`massopt.solver.AuxiliaryProblem`); then
``c*(x, s) = w(x) * c0*(s / w(x))`` and the recession slope scales by
``w(x)``.  Every evaluator takes the weight as an argument (1 when
homogeneous) and rescales the homogeneous map.

Costs are classified by the recession slope:

* superlinear (SL): ``cinf = +inf``; the conjugate is finite everywhere;
* linear (L): ``cinf < +inf``; the conjugate is ``+inf`` beyond ``cinf``.

The builtin costs (the quadratic cost is the power law ``p = 2``) and the
tables evaluate their conjugates and flux inverses in closed form.
Expression and regularized costs give their value and their upper
derivative ``D+c`` (an expression by forward-mode differentiation of its
syntax tree), and every conjugate map is one vectorized bisection on
``D+c`` (:class:`_SubgradientProfile`) of at most 100 steps, 120 for a
flux inverse, that stops once a step moves no end of any bracket
(:func:`bisect`).  A flux inverse returns the gradient magnitude alone.  A
2-d Newton solve reads the conjugate through one evaluator,
:meth:`CostFunction.level`: ``c*``, ``c*'`` and its radial curvature at a
point, from one call of the profile's ``conj``, at a smoothing level ``mu``
where the cost needs one and exactly at ``mu = None``, which also gives
``massopt conjugate`` its ``c*`` and ``D+c*``.

All evaluators are numpy-vectorized.  :class:`CostFunction` alone turns
inputs into float arrays; a profile takes and returns them and converts
nothing.  ``+inf`` is IEEE infinity; arithmetic with it saturates.
Objects are immutable after construction and safe to share between threads.
"""

import math

import numpy as np

from .errors import ExprError, InvalidCost, NonMonotoneQuotient, OutsideDomain
from .exprlang import Expression

INF = math.inf

_OVERFLOW_CAP = 1e12
_EPS = float(np.finfo(float).eps)
_THRESHOLD_SLACK = 1e-12  # relative rounding slack at the conjugate threshold
_SECANT_SAMPLES = 64  # log-spaced samples of the secant convexity check


# ---------------------------------------------------------------------------
# numeric machinery
# ---------------------------------------------------------------------------

def bisect(below, lo, hi, iters):
    """Vectorized bisection of a monotone predicate; returns the midpoints.

    ``below(t)`` must hold up to a root and fail past it, elementwise.  Each
    step halves ``[lo, hi]`` toward where it turns false, so after ``k``
    steps the midpoint sits within ``(hi - lo) / 2**(k + 1)`` of it.  The
    search stops after ``iters`` steps, or at the first step that moves no
    end of any bracket: every later step would repeat it, so the midpoints
    are those of all ``iters`` steps, bit for bit.
    """
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        right = below(mid)
        if np.all(np.where(right, mid == lo, mid == hi)):
            break
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def grow_bracket(below, hi, limit=80):
    """Double ``hi`` until ``below(hi)`` fails."""
    for _ in range(limit):
        grow = below(hi)
        if not np.any(grow):
            break
        hi = np.where(grow, hi * 2.0, hi)
    return hi


def _numeric_recession(subgrad_hi, t0, cap=_OVERFLOW_CAP):
    """Recession slope ``lim D+c(t)``, read along the doubling sequence ``t = max(t0, 1) 2^k``.

    ``subgrad_hi`` is the exact upper derivative ``D+c``.  The slope is the
    first value that agrees with the one before it to ``4 eps`` relative;
    ``+inf`` once a value passes ``cap``, or when ``t`` overflows first.
    A falling ``D+c`` is not convex.
    """
    t = max(float(t0), 1.0)
    prev = None
    while t < INF:
        q = float(subgrad_hi(t))
        if q > cap:
            return INF
        if prev is not None:
            if q < prev - 1e-9 * (1.0 + abs(prev)):
                raise NonMonotoneQuotient("D+c decreased (%.17g -> %.17g)" % (prev, q))
            if abs(q - prev) <= 4.0 * _EPS * abs(prev):
                return q
        prev = q
        t *= 2.0
    return INF


# ---------------------------------------------------------------------------
# cost profiles (homogeneous base c0)
# ---------------------------------------------------------------------------

class _PowerProfile:
    domain = (0.0, INF)

    def __init__(self, p):
        if not p > 1.0:
            raise InvalidCost("power cost needs exponent p > 1")
        self.p = float(p)
        self.q = self.p / (self.p - 1.0)
        self.name = "quadratic" if self.p == 2.0 else "power"

    def value(self, t):
        return np.where(t < 0.0, INF, np.abs(t) ** self.p / self.p)

    def conj(self, s):
        sp = np.maximum(s, 0.0)
        return sp ** self.q / self.q, sp ** (self.q - 1.0), np.full_like(sp, 2.0 * (self.q - 1.0))

    def conj_dminus(self, s):
        return np.maximum(s, 0.0) ** (self.q - 1.0)

    def recession(self):
        return INF

    def subgrad_hi(self, t):
        return np.where(t > 0.0, np.abs(t) ** (self.p - 1.0), 0.0)

    def invert_flux(self, vabs):
        # t * (t^2/2)^(q-1) = v; in logs where 2^(q-1) v overflows, as for p near 1
        e = 1.0 / (2.0 * self.q - 1.0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = np.float64(2.0) ** (self.q - 1.0) * vabs
            if np.all(np.isfinite(x)):
                return x ** e
            return np.exp(e * ((self.q - 1.0) * math.log(2.0) + np.log(vabs)))


class _LinearProfile:
    name = "linear"
    domain = (0.0, INF)

    def __init__(self, slope):
        if not slope > 0.0:
            raise InvalidCost("linear cost needs slope > 0")
        self.slope = float(slope)

    def value(self, t):
        return np.where(t < 0.0, INF, self.slope * t)

    def conj(self, s):
        # c0* is 0 up to the slope and +inf past it; its right derivative is
        # +inf from the slope on
        d = np.where(s < self.slope, 0.0, INF)
        return np.where(s <= self.slope, 0.0, INF), d, d

    def conj_dminus(self, s):
        return np.where(s <= self.slope, 0.0, INF)

    def recession(self):
        return self.slope

    def subgrad_hi(self, t):
        return np.full(np.shape(t), self.slope)

    def invert_flux(self, vabs):
        return np.where(vabs > 0.0, math.sqrt(2.0 * self.slope), 0.0)


class _ReciprocalProfile:
    name = "reciprocal"
    domain = (0.0, INF)  # open at 0: c(0) = +inf

    def __init__(self, a=1.0, b=1.0):
        if not (a > 0.0 and b > 0.0):
            raise InvalidCost("reciprocal cost needs positive coefficients")
        self.a = float(a)
        self.b = float(b)

    def value(self, t):
        with np.errstate(divide="ignore"):
            v = self.a * t + self.b / np.where(t > 0.0, t, 1.0)
        return np.where(t > 0.0, v, INF)

    def conj(self, s):
        # c0* = -2 sqrt(b (a - s)), c0*' = sqrt(b / (a - s)) and
        # 2s c0*'' = s sqrt(b) (a - s)^(-3/2)
        value = np.where(s <= self.a, -2.0 * np.sqrt(self.b * np.maximum(self.a - s, 0.0)), INF)
        sp = np.maximum(s, 0.0)
        gap = self.a - sp
        rho = np.where(gap > 0.0, sp / np.where(gap > 0.0, gap, 1.0), INF)
        return value, self.conj_dminus(s), rho

    def conj_dminus(self, s):
        gap = self.a - s  # negative exactly where s > a
        return np.where(gap > 0.0, np.sqrt(self.b / np.where(gap > 0.0, gap, 1.0)), INF)

    def recession(self):
        return self.a

    def subgrad_hi(self, t):
        with np.errstate(divide="ignore"):
            d = self.a - self.b / np.where(t > 0.0, t * t, 1.0)
        return np.where(t > 0.0, d, -INF)

    def invert_flux(self, vabs):
        return vabs * np.sqrt(self.a / (self.b + 0.5 * vabs * vabs))


class _SubgradientProfile:
    """Conjugate machinery of a cost known by its value and upper derivative.

    A subclass gives ``value``, the upper derivative ``subgrad_hi`` (``D+c``,
    nondecreasing; ``-inf`` left of the domain and ``+inf`` right of it),
    ``domain`` and ``recession``.  Every evaluation is one vectorized
    :func:`bisect` of at most 100 steps on a monotone predicate, with
    :func:`grow_bracket` for its upper end:

    * ``D-c*(s) = inf{t : D+c(t) >= s}``;
    * ``D+c*(s) = sup{t : D+c(t) <= s}``, ``+inf`` where ``D+c`` never
      exceeds ``s`` (at or past the recession slope);
    * ``c*(s) = s t - c(t)`` at ``t = D+c*(s)``, which like every point of
      ``[D-c*(s), D+c*(s)]`` maximizes ``s t - c(t)``; at the recession
      slope, where ``D+c*`` is ``+inf``, at ``t = D-c*(s)``, and past it
      ``c*`` is ``+inf``;
    * ``2s c*''(s) / c*'(s) = 2s / (t c''(t))`` at ``t = D+c*(s)``, with
      ``c''`` a central difference of ``D+c``.

    :meth:`conj` reads the last three from one search, and a second one
    only at the recession slope.
    """

    def _first_false(self, below, shape):
        """Where ``below`` (true, then false, in ``t``) turns false on the domain.

        Returns ``(t, never)``: ``t`` is the midpoint of a bisection of at
        most 100 steps, on the one-point bracket at the domain's left end
        where ``below`` fails there already; ``never`` holds where ``below``
        still holds at the end of the grown bracket.
        """
        lo = np.full(shape, float(self.domain[0]))
        hi = grow_bracket(below, np.where(below(lo), lo + 1.0, lo))
        return np.clip(bisect(below, lo, hi, 100), *self.domain), below(hi)

    def conj_dminus(self, s):
        t, never = self._first_false(lambda t: self.subgrad_hi(t) < s, s.shape)
        return np.where(never, INF, t)

    def conj(self, s):
        # the difference spans a jump of D+c where s sits inside one (a flat
        # stretch of D+c*, which has no curvature), and t = 0 in a dead zone
        t, never = self._first_false(lambda t: self.subgrad_hi(t) <= s, s.shape)
        tv = t
        if np.any(never):
            # at the recession slope a linear tail from a finite t0 maximizes
            # s t - c(t) on all of [t0, inf); the D-c* search finds t0, where
            # the grown bracket's end would cancel s t - c(t) to rounding
            tv = np.where(never, self._first_false(lambda t: self.subgrad_hi(t) < s, s.shape)[0], t)
        value = np.where(s > self.recession(), INF, s * tv - self.value(tv))
        d = np.where(never, INF, t)
        finite = np.isfinite(d)
        t = np.where(finite, d, 0.0)
        h = 1e-5 * t
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = (self.subgrad_hi(t + h) - self.subgrad_hi(t - h)) / (2.0 * h)
            rho = 2.0 * s / (t * curv)
        return value, d, np.where(finite, np.where(t > 0.0, rho, 0.0), INF)

    def invert_flux(self, vabs):
        """Gradient magnitude ``t`` of the flux ``v = t a`` with ``t^2/2`` in ``dc(a)``.

        ``D+c(a) - v^2 / (2 a^2)`` is strictly increasing in the density
        ``a``, so its sign change, found by a bisection of at most 120
        steps, is the density and ``t = v / a``; ``t = 0`` where the flux
        vanishes.
        """
        pos = vabs > 0.0
        v = np.where(pos, vabs, 1.0)

        def below(a):
            return self.subgrad_hi(a) - 0.5 * v * v / (a * a) < 0.0

        hi = grow_bracket(below, np.ones_like(v), limit=200)
        a = bisect(below, np.full_like(v, 1e-300), hi, 120)
        return np.where(pos, v / a, 0.0)


class _ExpressionProfile(_SubgradientProfile):
    name = "expression"
    domain = (0.0, INF)

    def __init__(self, text, seed_t=1.0):
        self.expr = Expression(text, variables=("t",))
        self.seed_t = float(seed_t)
        self._recession = None

    def value(self, t):
        # evaluate on the clamped domain; t < 0 is +inf by definition
        out = self.expr(t=np.maximum(t, 0.0))
        return np.where(t < 0.0, INF, out)

    def subgrad_hi(self, t):
        value, slope = self.expr.derivative("t", t=np.maximum(t, 0.0))
        # off the domain, which holds the witness seed_t, D+c is -inf to its
        # left and +inf to its right
        inside = (t >= 0.0) & (value < INF)
        return np.where(inside, slope, np.where(t < self.seed_t, -INF, INF))

    def recession(self):
        if self._recession is None:
            self._recession = _numeric_recession(self.subgrad_hi, self.seed_t)
        return self._recession


class _TabulatedProfile:
    """Piecewise-linear cost through samples; +inf outside the sample range."""

    name = "tabulated"

    def __init__(self, ts, cs):
        ts = np.asarray(ts, dtype=float)
        cs = np.asarray(cs, dtype=float)
        if ts.ndim != 1 or ts.shape != cs.shape or ts.size < 2:
            raise InvalidCost("tabulated cost needs matching 1-d sample arrays")
        if np.any(np.diff(ts) <= 0.0):
            raise InvalidCost("tabulated sample grid must be strictly increasing")
        if ts[0] < 0.0:
            raise InvalidCost("tabulated samples must satisfy t >= 0")
        if not np.all(np.isfinite(cs)):
            raise InvalidCost("tabulated cost values must be finite")
        self.ts = ts
        self.cs = cs
        dt = np.diff(ts)
        self.slopes = np.diff(cs) / dt
        # convex exactly when the slopes never fall, up to the rounding of
        # each slope's two samples (ts >= 0) and of its quotient
        slack = 4.0 * np.finfo(float).eps / dt * (
            np.abs(cs[:-1]) + np.abs(cs[1:]) + np.abs(self.slopes) * (ts[:-1] + ts[1:]))
        fall = np.nonzero(np.diff(self.slopes) < -(slack[:-1] + slack[1:]))[0]
        if fall.size:
            raise InvalidCost("tabulated cost is not convex: its slope falls at t=%g"
                              % ts[fall[0] + 1])
        self.domain = (float(ts[0]), float(ts[-1]))
        self.seed_t = float(ts[ts.size // 2])
        # the flux map t * D+c0*(t^2/2) is ts[j] * t between the kinks
        # kinks[j] and kinks[j+1] (kinks[j+1] = sqrt(2 * slopes[j]), kinks[0]
        # = 0, the last segment unbounded), and jumps at each kink from
        # kinks[j+1] * ts[j] to kinks[j+1] * ts[j+1]; flux_edges holds the
        # flux at both ends of every segment, in increasing order
        self._kinks = np.concatenate([[0.0], np.sqrt(2.0 * np.maximum(self.slopes, 0.0))])
        self._flux_edges = np.full(2 * ts.size, INF)
        self._flux_edges[0::2] = self._kinks * ts
        self._flux_edges[1:-1:2] = self._kinks[1:] * ts[:-1]

    def value(self, t):
        out = np.interp(t, self.ts, self.cs)
        return np.where((t < self.ts[0]) | (t > self.ts[-1]), INF, out)

    # the conjugate of a piecewise-linear function peaks at a sample node,
    # found by binary search on the sorted slopes; c0* is piecewise linear
    def conj(self, s):
        j = np.searchsorted(self.slopes, s, side="left")
        d = self.ts[np.searchsorted(self.slopes, s, side="right")] + np.zeros_like(s)
        return self.ts[j] * s - self.cs[j], d, np.zeros_like(s)

    def conj_dminus(self, s):
        return self.ts[np.searchsorted(self.slopes, s, side="left")] + np.zeros_like(s)

    def log_sum_exp(self, s, mu):
        """Log-sum-exp smoothing ``mu log sum_j exp((ts_j s - cs_j) / mu)`` of ``c0*``.

        Returns its value, its derivative and ``2s`` times its second
        derivative.  It lies within ``mu log(#samples)`` above ``c0*``, and
        its derivative is the mean of the samples ``ts`` under the softmax
        weights (Nesterov, Math. Prog. 103, 2005).
        """
        z = s[..., None] * self.ts - self.cs
        top = np.max(z, axis=-1)
        p = np.exp((z - top[..., None]) / mu)
        total = np.sum(p, axis=-1)
        p /= total[..., None]
        d = p @ self.ts
        var = np.sum(p * (self.ts - d[..., None]) ** 2, axis=-1)
        return top + mu * np.log(total), d, 2.0 * s * var / mu

    def subgrad_hi(self, t):
        return np.concatenate([[-INF], self.slopes, [INF]])[np.searchsorted(self.ts, t, side="right")]

    def recession(self):
        # the table is +inf beyond its last sample, hence superlinear
        return INF

    def invert_flux(self, vabs):
        """Exact inverse of the flux map by one search over its segment ends.

        ``k`` counts the segment ends below ``v``: odd ``k`` falls on the
        slope of segment ``k // 2`` (``t = v / ts[k // 2]``), even ``k`` on
        the jump at ``kinks[k // 2]`` (``t = 0`` at ``k = 0``, zero flux).
        """
        k = np.searchsorted(self._flux_edges, vabs)
        j = k // 2
        on_slope = k % 2 == 1
        return np.where(on_slope, vabs / np.where(on_slope, self.ts[j], 1.0), self._kinks[j])


class _RegularizedProfile(_SubgradientProfile):
    """Base cost plus ``eps * t**2``; always superlinear.

    The strictly convex quadratic term makes the conjugate differentiable,
    with derivative equal to the unique maximizer of ``t*s - c_eps(t)``.
    Its upper derivative is the base's plus ``2 eps t``.
    """

    name = "regularized"

    def __init__(self, base_profile, eps):
        if not eps > 0.0:
            raise InvalidCost("regularization needs eps > 0")
        self.base = base_profile
        self.eps = float(eps)
        self.domain = base_profile.domain

    def value(self, t):
        return self.base.value(t) + np.where(t < 0.0, INF, self.eps * t * t)

    def subgrad_hi(self, t):
        return self.base.subgrad_hi(t) + 2.0 * self.eps * t

    def recession(self):
        return INF


# ---------------------------------------------------------------------------
# the public cost object
# ---------------------------------------------------------------------------

class CostFunction:
    """Homogeneous convex cost ``c0(t)`` with conjugate machinery.

    Every evaluator takes an optional weight ``w`` (a scalar or an array
    that broadcasts) and returns the map of the separable cost ``w * c0``:
    the homogeneous map at ``s / w`` (:meth:`_scaled`), rescaled.  Inputs
    become float arrays here, and only here.

    A cost that exists is convex and grows at least linearly, which for a
    convex ``c0`` holds exactly when its recession slope is positive
    (Rockafellar, *Convex Analysis*, Sec. 8).  Both are decided here, by
    that slope and :func:`validate_cost`; construction raises
    :class:`InvalidCost` otherwise.

    Parameters
    ----------
    profile
        Internal evaluation strategy (builtin closed forms, parsed
        expression, tabulated samples, ...).  Use the module-level
        constructors rather than building profiles directly.
    t0
        Finiteness witness, ``c0(t0) < +inf``.
    """

    def __init__(self, profile, t0=None):
        self._profile = profile
        # dom c0 as (lo, hi); a weight does not change it
        self.domain = profile.domain
        self.t0 = float(t0) if t0 is not None else getattr(profile, "seed_t", 1.0)
        v0 = float(self.base_value(self.t0))
        if not math.isfinite(v0):
            raise InvalidCost("cost is not finite at the witness t0=%g" % self.t0)
        self._recession = float(profile.recession())
        if not self._recession > 0.0:
            raise InvalidCost("cost needs at-least-linear growth, a positive recession "
                              "slope (got %g)" % self._recession)
        validate_cost(self)
        level = max(float(profile.subgrad_hi(0.0)), 0.0)
        edge = math.sqrt(2.0 * level)
        while 0.5 * edge * edge > level:
            edge = math.nextafter(edge, 0.0)
        self._zero_flux_edge = edge
        # the smoothing of a 2-d Newton solve (level): a table's
        # log-sum-exp conjugate, and the term a finite recession slope (a
        # barrier) or a superlinear dead zone (a density floor) adds
        self._smoothing = (getattr(profile, "log_sum_exp", None),
                           "barrier" if math.isfinite(self._recession)
                           else "floor" if edge > 0.0 else None)
        # True when a 2-d Newton solve smooths the cost at a level mu: a cost
        # with a finite recession slope, a dead zone or a table; quadratic
        # and power costs take none
        self.smoothing = self._smoothing != (None, None)

    # -- representation ----------------------------------------------------

    @property
    def name(self):
        return self._profile.name

    def __repr__(self):
        return "CostFunction(%s)" % self.name

    # -- core evaluators (vectorized; weight arrays broadcast) --------------

    def base_value(self, t):
        return self._profile.value(np.asarray(t, dtype=float))

    def value(self, t, weight=1.0):
        """Cost value ``w * c0(t)`` (``+inf`` allowed)."""
        return np.asarray(weight, dtype=float) * self.base_value(t)

    def recession_slope(self):
        """Recession slope ``c0_inf(1) > 0`` of the base; ``+inf`` in the superlinear case.

        A weight ``w`` scales it to ``w * c0_inf(1)``.
        """
        return self._recession

    @property
    def regime(self):
        """``"SL"`` when the recession slope is infinite, else ``"L"``."""
        return "SL" if math.isinf(self.recession_slope()) else "L"

    def threshold_pad(self):
        """Rounding slack past the recession slope within which ``c0*`` stays finite.

        ``s`` up to ``cinf + pad`` is treated as the threshold ``cinf``
        itself; the pad is 0 in the superlinear case.
        """
        thr = self.recession_slope()
        return _THRESHOLD_SLACK * (1.0 + abs(thr)) if math.isfinite(thr) else 0.0

    def _scaled(self, s, weight):
        """The weight ``w`` as an array, and ``s / w`` with the threshold guarded.

        A quotient past the recession slope by at most :meth:`threshold_pad`
        is set onto the slope.
        """
        w = np.asarray(weight, dtype=float)
        sig = np.asarray(s, dtype=float) / w
        thr = self._recession
        if math.isfinite(thr):
            sig = np.where((sig > thr) & (sig <= thr + self.threshold_pad()), thr, sig)
        return w, sig

    def conjugate_value(self, s, weight=1.0):
        """Fenchel conjugate ``c*(x, s) = w * c0*(s / w)``."""
        return self.level(s, None, weight)[0]

    def conjugate_dminus(self, s, weight=1.0):
        return self._profile.conj_dminus(self._scaled(s, weight)[1])

    def conjugate_dplus(self, s, weight=1.0):
        return self.level(s, None, weight)[1]

    def level(self, s, mu=None, weight=1.0):
        """``(c*, c*', rho)``: the conjugate at smoothing level ``mu``, its slope and curvature.

        The value is ``w * phi(s / w)``, and ``mu = None`` is the exact
        conjugate ``phi = c0*``.  At a level ``mu > 0``, ``phi`` is ``c0*``
        changed only where a 2-d Newton solve needs it (:attr:`smoothing`),
        each change vanishing with ``mu``: a table's conjugate is its
        log-sum-exp smoothing; a finite recession slope ``cinf`` adds the
        log barrier ``-mu * log(cinf - sigma)`` (``+inf`` from ``cinf`` on),
        which also keeps ``phi'`` positive in a dead zone; a superlinear dead
        zone, where ``c0*'`` vanishes, adds the density floor ``mu * sigma``.
        Each term adds its value, slope and curvature here, and nowhere else.

        The slope ``c*'(x, s) = phi'(s / w)`` is :meth:`conjugate_dplus` at
        ``mu = None``.  The radial curvature is
        ``rho = 2s * c*''(x, s) / c*'(x, s)``, 0 where ``c*'`` vanishes: the
        Hessian of ``c*(|g|^2/2)`` in ``g`` is ``c*'(s) (I + rho e e^T)``,
        ``e = g / |g|``.  ``rho`` is ``+inf`` where ``c*`` is, and a weight
        leaves it unchanged, ``rho_w(s) = rho0(s / w)``.  At ``mu = None`` it
        is ``2(q - 1)`` for a power law ``c0*(s) = s^q / q``, ``s / (a - s)``
        for the reciprocal cost, and 0 for a table and below the linear
        slope; an expression or regularized cost takes a difference of
        ``D+c``, whose accuracy sets only the Newton steps, never the
        certificate.  Its value, slope and curvature come from one search.
        """
        w, sig = self._scaled(s, weight)
        lse, term = self._smoothing if mu is not None else (None, None)
        if lse is not None:
            value, d, r = lse(sig, mu)
        else:
            value, d, rho = self._profile.conj(sig)
            if mu is None:
                return w * value, d, rho
            r = d * rho
        if term == "barrier":
            room = self._recession - sig
            inside = room > 0.0
            room = np.where(inside, room, 1.0)
            value = np.where(inside, value - mu * np.log(room), INF)
            d = np.where(inside, d + mu / room, INF)
            r = np.where(inside, r + 2.0 * mu * sig / (room * room), INF)
        elif term == "floor":
            value = value + mu * sig
            d = d + mu
        live = np.isfinite(d) & (d > 0.0)
        return w * value, d, np.where(live, r / np.where(live, d, 1.0),
                                      np.where(d > 0.0, INF, 0.0))

    def invert_flux(self, vabs, weight=1.0):
        """Invert the gradient-to-flux map ``m(t) = t * dc*(t^2/2)``.

        Returns the gradient magnitude ``t >= 0`` of every flux magnitude
        ``v``; the density that flux carries is ``v / t``.  The homogeneous
        inverse ``t0`` is the profile's own: a closed form for the builtin
        costs, one search over the segment ends for a table, and a
        vectorized bisection in the density for expression and regularized
        costs.  A weight rescales it: ``m_w(t) = sqrt(w) * m0(t / sqrt(w))``,
        so ``t = sqrt(w) * t0(v / sqrt(w))``.
        """
        root = np.sqrt(np.asarray(weight, dtype=float))
        return root * self._profile.invert_flux(np.asarray(vabs, dtype=float) / root)

    def zero_flux_edge(self):
        """Largest gradient magnitude of zero flux, ``sup{t : t * D-c0*(t^2/2) = 0}``.

        Where the flux vanishes, every gradient up to this edge carries it.
        The edge is ``sqrt(2 * s0)`` for the dead zone
        ``s0 = sup{s : D-c0*(s) = 0} = max(D+c0(0), 0)``, read once from the
        profile's upper derivative: ``slope`` for the linear cost,
        ``slopes[0]`` for a table that starts at 0, and 0 where
        ``D+c0(0) <= 0`` (``-inf`` where ``c0(0) = +inf``).  The edge is
        then rounded down until ``t^2 / 2 <= s0``, so the flux still
        vanishes there.  A weight ``w`` scales it by ``sqrt(w)``.
        """
        return self._zero_flux_edge


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def subdiff_interval(cost, s, dplus=None):
    """Subdifferential interval ``[D- c0*(s), D+ c0*(s)]``, elementwise in ``s``.

    At the finiteness threshold, the recession slope, the upper end is
    ``+inf`` (the conjugate is ``+inf`` beyond, so the normal cone opens
    up).  Raises :class:`OutsideDomain` for ``s`` past the threshold.
    ``dplus`` is the slope ``c0*'(s)`` when the caller already has it.
    """
    s = np.asarray(s, dtype=float)
    thr = cost.recession_slope()
    pad = cost.threshold_pad()
    if np.any(s > thr + pad):
        raise OutsideDomain("s=%g exceeds the conjugate threshold %g" % (np.max(s), thr))
    lo = cost.conjugate_dminus(s)
    hi = np.where(s >= thr - pad, INF, cost.conjugate_dplus(s) if dplus is None else dplus)
    return lo[()], hi[()]


def validate_cost(cost):
    """Secant convexity check of the base cost ``c0``; raises :class:`InvalidCost`.

    Every :class:`CostFunction` runs it once, where it is built.  Each
    three consecutive finite samples of ``t = 0`` and a log grid from
    ``1e-6 max(t0, 1)`` to ``1e6 max(t0, 1)`` must lie on or below their
    chord, at a relative slack of 1e-9.  A table is refused before that by
    its falling slopes, which is exact; ``c0 = +inf`` on ``t < 0`` holds
    for every profile by construction.
    """
    scale = max(cost.t0, 1.0)
    grid = np.concatenate([[0.0], np.geomspace(1e-6 * scale, 1e6 * scale, _SECANT_SAMPLES)])
    with np.errstate(over="ignore"):
        vals = cost.base_value(grid)
    f_idx = np.nonzero(np.isfinite(vals))[0]
    t1, t2, t3 = grid[f_idx[:-2]], grid[f_idx[1:-1]], grid[f_idx[2:]]
    v1, v2, v3 = vals[f_idx[:-2]], vals[f_idx[1:-1]], vals[f_idx[2:]]
    lam = (t2 - t1) / (t3 - t1)
    chord = (1.0 - lam) * v1 + lam * v3
    viol = v2 > chord + 1e-9 * (1.0 + np.abs(chord))
    if np.any(viol):
        raise InvalidCost("cost is not convex: secant check violated at t=%g" % t2[viol][0])


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def quadratic_cost():
    """``c(t) = t^2 / 2`` on ``t >= 0``, the power law ``p = 2``; ``c*(s) = (s+)^2 / 2``."""
    return CostFunction(_PowerProfile(2.0))


def power_cost(p):
    """``c(t) = t^p / p`` with ``p > 1``; superlinear, ``c*(s) = (s+)^q / q``.

    ``p = 2`` is the quadratic cost and carries its name.
    """
    return CostFunction(_PowerProfile(p))


def linear_cost(slope=0.5):
    """``c(t) = slope * t`` on ``t >= 0``; linear regime, indicator conjugate."""
    return CostFunction(_LinearProfile(slope))


def reciprocal_cost(a=1.0, b=1.0):
    """``c(t) = a*t + b/t`` on ``t > 0``; linear regime with slope ``a``."""
    return CostFunction(_ReciprocalProfile(a, b), t0=math.sqrt(b / a))


def expression_cost(text, t0=1.0):
    """Cost from a mini-language expression in ``t``; its conjugate by bisection on ``D+c``."""
    try:
        return CostFunction(_ExpressionProfile(text, seed_t=t0))
    except ExprError as exc:
        raise InvalidCost("bad cost expression: %s" % exc) from exc


def tabulated_cost(ts, cs):
    """Piecewise-linear cost through samples ``(ts, cs)``; +inf off the table."""
    return CostFunction(_TabulatedProfile(ts, cs))


def regularized_cost(base, eps):
    """``c_eps(t) = c(t) + eps * t^2``: superlinear continuation of ``base``."""
    return CostFunction(_RegularizedProfile(base._profile, eps), t0=base.t0)


_BUILTINS = {
    "quadratic": quadratic_cost,
    "power": power_cost,
    "linear": linear_cost,
    "reciprocal": reciprocal_cost,
}


def builtin_cost(name, **params):
    """Look up a builtin cost by name (for configuration files)."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise InvalidCost("unknown builtin cost %r (have: %s)"
                          % (name, ", ".join(sorted(_BUILTINS)))) from None
    return factory(**params)
