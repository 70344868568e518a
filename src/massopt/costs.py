"""Convex cost functions, Fenchel conjugates, recession slopes.

A cost is a proper convex lower-semicontinuous function ``c : R -> [0, +inf]``
with ``c(t) = +inf`` for ``t < 0`` and at-least-linear growth
``c(t) >= alpha*t + beta`` for some ``alpha > 0``.  Heterogeneous costs are
separable, ``c(x, t) = w(x) * c0(t)`` with a finite positive weight ``w``;
then ``c*(x, s) = w(x) * c0*(s / w(x))`` and the recession slope scales by
``w(x)``.  Every evaluator takes the weight as an argument (1 when
homogeneous) and rescales the homogeneous map.

Costs are classified by the recession slope ``cinf = lim c(t0 + s) / s``:

* superlinear (SL): ``cinf = +inf``; the conjugate is finite everywhere;
* linear (L): ``cinf < +inf``; the conjugate is ``+inf`` beyond ``cinf``.

All evaluators are numpy-vectorized.  ``+inf`` is IEEE infinity; arithmetic
with it saturates.  Objects are immutable after construction and safe to
share between threads.
"""

import math

import numpy as np

from .errors import ExprError, InvalidCost, NonMonotoneQuotient, NumericOverflow, OutsideDomain
from .exprlang import Expression

INF = math.inf

_OVERFLOW_CAP = 1e12
_THRESHOLD_SLACK = 1e-12  # relative rounding slack at the conjugate threshold


# ---------------------------------------------------------------------------
# numeric machinery
# ---------------------------------------------------------------------------

def bisect(below, lo, hi, iters):
    """Vectorized bisection of a monotone predicate; returns the midpoints.

    ``below(t)`` must hold up to a root and fail past it, elementwise.  Each
    step halves ``[lo, hi]`` toward where it turns false, so after ``iters``
    steps the midpoint sits within ``(hi - lo) / 2**(iters + 1)`` of it.
    """
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        right = below(mid)
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def grow_bracket(below, hi, limit=80, where=True):
    """Double ``hi`` (only where ``where`` holds) until ``below(hi)`` fails.

    ``below`` is not evaluated at all when ``where`` holds nowhere.
    """
    if not np.any(where):
        return hi
    for _ in range(limit):
        grow = where & below(hi)
        if not np.any(grow):
            break
        hi = np.where(grow, hi * 2.0, hi)
    return hi


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


def _numeric_recession(value_fn, t0, tol=1e-9, cap=_OVERFLOW_CAP):
    """Recession slope via difference quotients along a doubling sequence."""
    c0 = float(value_fn(t0))
    if not math.isfinite(c0):
        raise InvalidCost("finiteness witness t0 has infinite cost")
    step = 1.0
    prev = None
    for _ in range(80):
        q = (float(value_fn(t0 + step)) - c0) / step
        if q > cap:
            return INF
        if prev is not None:
            if q < prev - 1e-9 * (1.0 + abs(prev)):
                raise NonMonotoneQuotient(
                    "difference quotients decreased (%.17g -> %.17g)" % (prev, q))
            if abs(q - prev) <= tol:
                return q
        prev = q
        step *= 2.0
    return prev


# ---------------------------------------------------------------------------
# cost profiles (homogeneous base c0)
# ---------------------------------------------------------------------------

class _QuadraticProfile:
    kind = "builtin"
    name = "quadratic"
    domain = (0.0, INF)
    conj_exponent = 2.0  # c0*(s) = s^2 / 2

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, INF, 0.5 * t * t)

    def conj_value(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s > 0.0, 0.5 * s * s, 0.0)

    def conj_dminus(self, s):
        return np.maximum(np.asarray(s, dtype=float), 0.0)

    conj_dplus = conj_dminus

    def recession(self):
        return INF

    def subgrad_hi(self, t):
        return np.maximum(np.asarray(t, dtype=float), 0.0)

    def invert_flux(self, vabs):
        t = np.cbrt(2.0 * np.asarray(vabs, dtype=float))
        return t, 0.5 * t * t

    def regularized_maximizer(self, s, eps):
        # argmax of a*s - a^2/2 - eps*a^2 over a >= 0
        return np.maximum(np.asarray(s, dtype=float), 0.0) / (1.0 + 2.0 * eps)

    def describe(self):
        return {}


class _PowerProfile:
    kind = "builtin"
    name = "power"
    domain = (0.0, INF)

    def __init__(self, p):
        if not p > 1.0:
            raise InvalidCost("power cost needs exponent p > 1")
        self.p = float(p)
        self.q = self.p / (self.p - 1.0)
        self.conj_exponent = self.q  # c0*(s) = s^q / q

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, INF, np.abs(t) ** self.p / self.p)

    def conj_value(self, s):
        s = np.asarray(s, dtype=float)
        sp = np.maximum(s, 0.0)
        return sp ** self.q / self.q

    def conj_dminus(self, s):
        s = np.asarray(s, dtype=float)
        return np.maximum(s, 0.0) ** (self.q - 1.0)

    conj_dplus = conj_dminus

    def recession(self):
        return INF

    def subgrad_hi(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, np.abs(t) ** (self.p - 1.0), 0.0)

    def invert_flux(self, vabs):
        # t * (t^2/2)^(q-1) = v
        vabs = np.asarray(vabs, dtype=float)
        t = (2.0 ** (self.q - 1.0) * vabs) ** (1.0 / (2.0 * self.q - 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(t > 0.0, vabs / np.where(t > 0.0, t, 1.0), 0.0)
        return t, a

    def describe(self):
        return {"p": self.p}


class _LinearProfile:
    kind = "builtin"
    name = "linear"
    domain = (0.0, INF)

    def __init__(self, slope):
        if not slope > 0.0:
            raise InvalidCost("linear cost needs slope > 0")
        self.slope = float(slope)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, INF, self.slope * t)

    def conj_value(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= self.slope, 0.0, INF)

    def conj_dminus(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= self.slope, 0.0, INF)

    def conj_dplus(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s < self.slope, 0.0, INF)

    def recession(self):
        return self.slope

    def subgrad_hi(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.slope)

    def invert_flux(self, vabs):
        vabs = np.asarray(vabs, dtype=float)
        cmax = math.sqrt(2.0 * self.slope)
        t = np.where(vabs > 0.0, cmax, 0.0)
        return t, vabs / cmax

    def regularized_maximizer(self, s, eps):
        # argmax of a*s - slope*a - eps*a^2 over a >= 0
        return np.maximum(np.asarray(s, dtype=float) - self.slope, 0.0) / (2.0 * eps)

    def describe(self):
        return {"slope": self.slope}


class _ReciprocalProfile:
    kind = "builtin"
    name = "reciprocal"
    domain = (0.0, INF)  # open at 0: c(0) = +inf

    def __init__(self, a=1.0, b=1.0):
        if not (a > 0.0 and b > 0.0):
            raise InvalidCost("reciprocal cost needs positive coefficients")
        self.a = float(a)
        self.b = float(b)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            v = self.a * t + self.b / np.where(t > 0.0, t, 1.0)
        return np.where(t > 0.0, v, INF)

    def conj_value(self, s):
        s = np.asarray(s, dtype=float)
        gap = np.maximum(self.a - s, 0.0)
        return np.where(s <= self.a, -2.0 * np.sqrt(self.b * gap), INF)

    def conj_dminus(self, s):
        s = np.asarray(s, dtype=float)
        gap = self.a - s
        with np.errstate(divide="ignore"):
            d = np.sqrt(self.b / np.where(gap > 0.0, gap, 1.0))
        return np.where(s > self.a, INF, np.where(gap > 0.0, d, INF))

    conj_dplus = conj_dminus

    def recession(self):
        return self.a

    def subgrad_hi(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            d = self.a - self.b / np.where(t > 0.0, t * t, 1.0)
        return np.where(t > 0.0, d, -INF)

    def invert_flux(self, vabs):
        vabs = np.asarray(vabs, dtype=float)
        t = vabs * np.sqrt(self.a / (self.b + 0.5 * vabs * vabs))
        a = np.sqrt((self.b + 0.5 * vabs * vabs) / self.a)
        return t, a

    def describe(self):
        return {"a": self.a, "b": self.b}


class _NumericConjugateMixin:
    """Conjugate / recession via generic numeric machinery.

    One-sided conjugate derivatives use the envelope relation: the slope of
    ``c*`` at ``s`` is the maximizer of ``t*s - c(t)``.  The maximizer is
    available for free from the numeric supremum, so a Richardson-style
    extrapolation of maximizers at ``s -/+ delta`` is both cheaper and more
    accurate than differencing conjugate values.
    """

    _fd_step = 1e-6

    def _conj_scalar(self, s):
        lo = self.domain[0]
        val, arg = _concave_max(lambda t: s * t - float(self.value(t)), self.seed_t, lo=lo)
        return val, arg

    def conj_value(self, s):
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape, dtype=float)
        for idx in np.ndindex(s.shape):
            out[idx] = self._conj_scalar(float(s[idx]))[0]
        return out if out.shape else float(out)

    def _maximizer(self, s):
        val, arg = self._conj_scalar(s)
        if math.isinf(val):
            return INF
        return arg

    def _onesided(self, s, sign):
        d = self._fd_step
        m1 = self._maximizer(s + sign * d)
        m2 = self._maximizer(s + sign * d / 2.0)
        if math.isinf(m1) or math.isinf(m2):
            return INF
        return max(2.0 * m2 - m1, 0.0)

    def conj_dminus(self, s):
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape, dtype=float)
        for idx in np.ndindex(s.shape):
            out[idx] = self._onesided(float(s[idx]), -1.0)
        return out if out.shape else float(out)

    def conj_dplus(self, s):
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape, dtype=float)
        for idx in np.ndindex(s.shape):
            out[idx] = self._onesided(float(s[idx]), +1.0)
        return out if out.shape else float(out)

    def recession(self):
        return _numeric_recession(lambda t: float(self.value(t)), self.seed_t)


class _ExpressionProfile(_NumericConjugateMixin):
    kind = "expression"
    name = "expression"
    domain = (0.0, INF)

    def __init__(self, text, seed_t=1.0):
        self.expr = Expression(text, variables=("t",))
        self.seed_t = float(seed_t)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        # evaluate on the clamped domain; t < 0 is +inf by definition
        out = np.asarray(self.expr(t=np.maximum(t, 0.0)), dtype=float)
        return np.where(t < 0.0, INF, out)

    def describe(self):
        return {"expression": self.expr.text}


class _TabulatedProfile:
    """Piecewise-linear cost through samples; +inf outside the sample range."""

    kind = "tabulated"
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
        self.slopes = np.diff(cs) / np.diff(ts)
        self.domain = (float(ts[0]), float(ts[-1]))
        self.seed_t = float(ts[ts.size // 2])

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.ts, self.cs)
        return np.where((t < self.ts[0]) | (t > self.ts[-1]), INF, out)

    def _argmax_nodes(self, s):
        # conjugate of a piecewise-linear function peaks at a sample node;
        # the active node index is located by bisection on the sorted slopes
        s = np.asarray(s, dtype=float)
        jl = np.searchsorted(self.slopes, s, side="left")
        jr = np.searchsorted(self.slopes, s, side="right")
        return jl, jr

    def conj_value(self, s):
        s = np.asarray(s, dtype=float)
        jl, _ = self._argmax_nodes(s)
        return self.ts[jl] * s - self.cs[jl]

    def conj_dminus(self, s):
        jl, _ = self._argmax_nodes(s)
        return self.ts[jl] + np.zeros_like(np.asarray(s, dtype=float))

    def conj_dplus(self, s):
        _, jr = self._argmax_nodes(s)
        return self.ts[jr] + np.zeros_like(np.asarray(s, dtype=float))

    def recession(self):
        # the table is +inf beyond its last sample, hence superlinear
        return INF

    def describe(self):
        return {"samples": int(self.ts.size),
                "t_min": float(self.ts[0]), "t_max": float(self.ts[-1])}


class _PiecewisePolyProfile(_NumericConjugateMixin):
    """Polynomial segments between breakpoints; last segment may extend."""

    kind = "piecewise_polynomial"
    name = "piecewise_polynomial"

    def __init__(self, breakpoints, coefficients, extend_last=True):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or np.any(np.diff(bp) <= 0.0):
            raise InvalidCost("breakpoints must be strictly increasing")
        if bp[0] < 0.0:
            raise InvalidCost("breakpoints must satisfy t >= 0")
        if len(coefficients) != bp.size - 1:
            raise InvalidCost("need one coefficient row per segment")
        self.bp = bp
        self.coeffs = [np.asarray(c, dtype=float) for c in coefficients]
        self.extend_last = bool(extend_last)
        self.domain = (float(bp[0]), INF if extend_last else float(bp[-1]))
        self.seed_t = float(0.5 * (bp[0] + bp[1]))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.bp, t, side="right") - 1, 0, len(self.coeffs) - 1)
        out = np.empty(t.shape, dtype=float)
        for k, c in enumerate(self.coeffs):
            mask = seg == k
            if np.any(mask):
                out[mask] = np.polynomial.polynomial.polyval(t[mask], c)
        below = t < self.bp[0]
        above = t > self.bp[-1]
        if not self.extend_last:
            out = np.where(above, INF, out)
        return np.where(below | (t < 0.0), INF, out)

    def describe(self):
        return {"breakpoints": [float(b) for b in self.bp]}


class _RegularizedProfile:
    """Base cost plus ``eps * t**2``; always superlinear.

    The strictly convex quadratic term makes the conjugate differentiable,
    with derivative equal to the unique maximizer of ``t*s - c_eps(t)``.
    All evaluations reduce to :func:`bisect` on the monotone map
    ``t -> subgrad(c)(t) + 2*eps*t`` when the base exposes its upper
    subgradient in closed form (``subgrad_hi``); otherwise the generic
    numeric path is used per element.  The map is strictly monotone, so
    ``subgrad_hi(t) + 2*eps*t < s`` holds exactly below the root and the
    upper subgradient alone locates it.
    """

    kind = "regularized"
    name = "regularized"

    def __init__(self, base_profile, eps, seed_t=1.0):
        if not eps > 0.0:
            raise InvalidCost("regularization needs eps > 0")
        self.base = base_profile
        self.eps = float(eps)
        self.domain = (base_profile.domain[0], base_profile.domain[1])
        self.seed_t = float(seed_t)
        self._fast = hasattr(base_profile, "subgrad_hi")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return self.base.value(t) + np.where(t < 0.0, INF, self.eps * t * t)

    def _sub_hi(self, t):
        return self.base.subgrad_hi(t) + 2.0 * self.eps * t

    def _maximizer(self, s):
        """Solve s in subgrad(c_eps)(t) by bisection; vectorized."""
        if hasattr(self.base, "regularized_maximizer"):
            return self.base.regularized_maximizer(s, self.eps)
        s = np.asarray(s, dtype=float)

        def below(t):
            return self._sub_hi(t) < s

        hi = grow_bracket(below, np.full_like(s, max(1.0, self.domain[0] + 1.0)))
        return bisect(below, np.zeros_like(s), hi, 100)

    def conj_value(self, s):
        if not self._fast:
            return _NumericConjugateMixin.conj_value(self, s)
        s = np.asarray(s, dtype=float)
        t = self._maximizer(s)
        val = s * t - self.value(t)
        # t may sit at the open edge of the base domain (value +inf there);
        # nudge inward for the evaluation
        bad = ~np.isfinite(val)
        if np.any(bad):
            tb = np.maximum(t, 1e-300) * (1.0 + 1e-12) + 1e-300
            val = np.where(bad, s * tb - self.value(tb), val)
        return val

    def conj_dminus(self, s):
        if not self._fast:
            return _NumericConjugateMixin.conj_dminus(self, s)
        return self._maximizer(s)

    def conj_dplus(self, s):
        if not self._fast:
            return _NumericConjugateMixin.conj_dplus(self, s)
        return self._maximizer(s)

    def recession(self):
        return INF

    def invert_flux(self, vabs):
        """Joint solve of v = g*a, g^2/2 in subgrad(c_eps)(a), vectorized in a."""
        if not self._fast:
            return None
        vabs = np.asarray(vabs, dtype=float)
        pos = vabs > 0.0
        v = np.where(pos, vabs, 1.0)

        def below(a):
            return self._sub_hi(a) - 0.5 * v * v / (a * a) < 0.0

        hi = grow_bracket(below, np.ones_like(v), limit=200)
        a = bisect(below, np.full_like(v, 1e-300), hi, 120)
        t = v / a
        a0 = self._maximizer(np.zeros_like(v))  # cost-minimal density at zero flux
        return np.where(pos, t, 0.0), np.where(pos, a, a0)

    def describe(self):
        d = dict(self.base.describe())
        d["base"] = self.base.name
        d["eps"] = self.eps
        return d


# ---------------------------------------------------------------------------
# the public cost object
# ---------------------------------------------------------------------------

class CostFunction:
    """Convex cost ``c(x, t) = w(x) * c0(t)`` with conjugate machinery.

    Parameters
    ----------
    profile
        Internal evaluation strategy (builtin closed forms, parsed
        expression, tabulated samples, ...).  Use the module-level
        constructors rather than building profiles directly.
    alpha, beta
        Growth witnesses: ``c0(t) >= alpha * t + beta`` with ``alpha > 0``.
        Estimated by sampling when omitted.
    t0
        Finiteness witness, ``c0(t0) < +inf``.
    spatial_weight
        Optional callable ``w(x) > 0`` making the cost heterogeneous in the
        separable form; ``None`` means homogeneous.
    """

    def __init__(self, profile, alpha=None, beta=None, t0=None, spatial_weight=None):
        self._profile = profile
        self.spatial_weight = spatial_weight
        self.t0 = float(t0) if t0 is not None else getattr(profile, "seed_t", 1.0)
        v0 = float(np.asarray(profile.value(self.t0)))
        if not math.isfinite(v0):
            raise InvalidCost("cost is not finite at the witness t0=%g" % self.t0)
        if alpha is None or beta is None:
            est_a, est_b = self._estimate_growth()
            alpha = est_a if alpha is None else alpha
            beta = est_b if beta is None else beta
            self.growth_estimated = True
        else:
            self.growth_estimated = False
        if not alpha > 0.0:
            raise InvalidCost("growth slope alpha must be positive")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._recession = None
        self._dead_zone = None

    # -- representation ----------------------------------------------------

    @property
    def kind(self):
        return self._profile.kind

    @property
    def name(self):
        return self._profile.name

    @property
    def effective_domain(self):
        return self._profile.domain

    @property
    def conj_exponent(self):
        """``q`` when the conjugate is the power law ``c0*(s) = s^q / q``, else None.

        Then ``2s * c0*''(s) = 2(q - 1) * c0*'(s)``, also with a spatial weight,
        so the conjugate's second derivative needs no evaluator of its own.
        """
        return getattr(self._profile, "conj_exponent", None)

    def describe(self):
        d = {"kind": self.kind, "name": self.name}
        d.update(self._profile.describe())
        return d

    def __repr__(self):
        return "CostFunction(%s)" % (self.describe(),)

    # -- growth estimation ---------------------------------------------------

    def _estimate_growth(self):
        val = lambda t: float(np.asarray(self._profile.value(t)))
        t = max(self.t0, 1.0)
        slope = -INF
        for _ in range(80):
            hi = val(2.0 * t)
            lo = val(t)
            if math.isfinite(hi) and math.isfinite(lo):
                slope = (hi - lo) / t
                if slope > 0.0:
                    break
            elif math.isinf(hi) and math.isfinite(lo):
                slope = 1.0  # bounded domain: any positive slope works
                break
            t *= 2.0
        if not slope > 0.0:
            raise InvalidCost("could not find a positive growth slope")
        alpha = 0.5 * slope
        grid = np.geomspace(max(self._profile.domain[0], 1e-9) + 1e-12, 2.0 * t, 128)
        # c - alpha*t of a piecewise-linear table is least at one of its nodes
        grid = np.concatenate([grid, getattr(self._profile, "ts", ())])
        vals = np.asarray(self._profile.value(grid), dtype=float)
        finite = np.isfinite(vals)
        beta = float(np.min(vals[finite] - alpha * grid[finite])) if np.any(finite) else 0.0
        return alpha, beta - 1e-12 * (1.0 + abs(beta))

    # -- core evaluators (vectorized; weight arrays broadcast) --------------

    def base_value(self, t):
        return self._profile.value(np.asarray(t, dtype=float))

    def value(self, t, weight=1.0):
        """Cost value ``w * c0(t)`` (``+inf`` allowed)."""
        return np.asarray(weight, dtype=float) * self.base_value(t)

    def recession_slope(self):
        """Recession slope ``c0_inf(1)`` of the base; ``+inf`` in the superlinear case.

        A weight ``w`` scales it to ``w * c0_inf(1)``.
        """
        if self._recession is None:
            self._recession = float(self._profile.recession())
        return self._recession

    @property
    def regime(self):
        """``"SL"`` when the recession slope is infinite, else ``"L"``."""
        return "SL" if math.isinf(self.recession_slope()) else "L"

    def _guard_threshold(self, s):
        thr = self.recession_slope()
        if math.isinf(thr):
            return s
        pad = _THRESHOLD_SLACK * (1.0 + abs(thr))
        return np.where((s > thr) & (s <= thr + pad), thr, s)

    def conjugate_value(self, s, weight=1.0):
        """Fenchel conjugate ``c*(x, s) = w * c0*(s / w)``."""
        w = np.asarray(weight, dtype=float)
        return w * self._profile.conj_value(self._guard_threshold(np.asarray(s, dtype=float) / w))

    def conjugate_dminus(self, s, weight=1.0):
        w = np.asarray(weight, dtype=float)
        return self._profile.conj_dminus(self._guard_threshold(np.asarray(s, dtype=float) / w))

    def conjugate_dplus(self, s, weight=1.0):
        w = np.asarray(weight, dtype=float)
        return self._profile.conj_dplus(self._guard_threshold(np.asarray(s, dtype=float) / w))

    def invert_flux(self, vabs, weight=1.0):
        """Invert the gradient-to-flux map ``m(t) = t * dc*(t^2/2)``.

        Returns ``(t, a)`` with ``t >= 0`` the gradient magnitude and
        ``a = v / t`` the matching density (cost-minimal density where the
        flux vanishes).  The homogeneous inverse ``(t0, a0)`` is the
        profile's closed form, else :func:`bisect` on the upper conjugate
        derivative.  A weight rescales it: ``m_w(t) = sqrt(w) * m0(t / sqrt(w))``,
        so ``t = sqrt(w) * t0(v / sqrt(w))`` and ``a = a0(v / sqrt(w))``.
        """
        root = np.sqrt(np.asarray(weight, dtype=float))
        vabs = np.asarray(vabs, dtype=float) / root
        out = self._profile.invert_flux(vabs) if hasattr(self._profile, "invert_flux") else None
        t, a = self._invert_flux_bisect(vabs) if out is None else out
        return root * t, a

    def _invert_flux_bisect(self, vabs):
        vabs = np.asarray(vabs, dtype=float).ravel()
        cap = math.sqrt(2.0 * self.recession_slope())  # +inf in the superlinear case
        hi = np.maximum(vabs, 1.0) if math.isinf(cap) else np.full_like(vabs, cap)

        def below(t):
            with np.errstate(invalid="ignore"):
                return t * self.conjugate_dplus(0.5 * t * t) < vabs

        hi = grow_bracket(below, hi, where=math.isinf(cap))
        t = bisect(below, np.zeros_like(vabs), hi, 100)
        pos = vabs > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(pos & (t > 0.0), vabs / np.where(t > 0.0, t, 1.0), 0.0)
        a0 = self.conjugate_dminus(np.zeros_like(vabs))
        a = np.where(pos, a, a0)
        t = np.where(pos, t, 0.0)
        return t, a

    def zero_flux_edge(self):
        """Largest gradient magnitude of zero flux, ``sup{t : t * D-c0*(t^2/2) = 0}``.

        Where the flux vanishes, every gradient up to this edge carries it.
        The edge is ``sqrt(2 * D+c0(0))`` when ``c0`` rises from 0 with a
        positive slope (``sqrt(2 * slope)`` for the linear cost,
        ``sqrt(2 * slopes[0])`` for a table that starts at 0) and 0
        otherwise.  A weight ``w`` scales it by ``sqrt(w)``.  It is found once, by
        :func:`bisect`, as the lower end of the last bracket: there the flux
        still vanishes, and it is exactly 0 for a cost without a dead zone.
        """
        if self._dead_zone is None:
            def below(t):
                with np.errstate(invalid="ignore", over="ignore"):
                    return t * self.conjugate_dminus(0.5 * t * t) <= 0.0

            cap = math.sqrt(2.0 * self.recession_slope())  # +inf in the superlinear case
            hi = float(grow_bracket(below, 1.0)) if math.isinf(cap) else cap
            self._dead_zone = max(float(bisect(below, 0.0, hi, 90)) - hi * 2.0 ** -91, 0.0)
        return self._dead_zone

    # -- heterogeneity -------------------------------------------------------

    def weight_at(self, x):
        """Separable weight ``w(x)``; 1 for homogeneous costs."""
        if self.spatial_weight is None:
            return 1.0
        w = float(self.spatial_weight(np.asarray(x, dtype=float)))
        if not 0.0 < w < INF:
            raise InvalidCost("spatial weight must be finite and positive, got %g" % w)
        return w

    def conjugate(self):
        return Conjugate(self)


class Conjugate:
    """Evaluable view of ``c*(x, s)`` with one-sided derivatives."""

    def __init__(self, cost):
        self.cost = cost

    def _w(self, x):
        return 1.0 if x is None else self.cost.weight_at(x)

    def value(self, s, x=None):
        return self.cost.conjugate_value(s, weight=self._w(x))

    def dminus(self, s, x=None):
        return self.cost.conjugate_dminus(s, weight=self._w(x))

    def dplus(self, s, x=None):
        return self.cost.conjugate_dplus(s, weight=self._w(x))

    def finiteness_threshold(self, x=None):
        return self.cost.recession_slope() * self._w(x)


class RecessionValue:
    """Recession slope at a point together with the growth regime flag."""

    __slots__ = ("value", "regime")

    def __init__(self, value, regime):
        self.value = float(value)
        self.regime = regime

    @property
    def is_superlinear(self):
        return self.regime == "SL"

    def __repr__(self):
        return "RecessionValue(value=%r, regime=%r)" % (self.value, self.regime)


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def conjugate_eval(cost, x, s):
    """Conjugate value ``c*(x, s)`` at a spatial point (extended real)."""
    return float(np.asarray(cost.conjugate_value(float(s), weight=cost.weight_at(x))))


def recession_eval(cost, x=None):
    """Recession slope ``c_inf(x, 1)`` with its SL/L classification."""
    w = 1.0 if x is None else cost.weight_at(x)
    return RecessionValue(w * cost.recession_slope(), cost.regime)


def subdiff_interval(conj, x, s):
    """Subdifferential interval ``[D- c*(x,s), D+ c*(x,s)]``.

    At the finiteness threshold the upper end is ``+inf`` (the conjugate is
    ``+inf`` beyond, so the normal cone opens up).  Raises
    :class:`OutsideDomain` for ``s`` past the threshold.
    """
    s = float(s)
    thr = conj.finiteness_threshold(x)
    pad = _THRESHOLD_SLACK * (1.0 + abs(thr)) if math.isfinite(thr) else 0.0
    if s > thr + pad:
        raise OutsideDomain("s=%g exceeds the conjugate threshold %g" % (s, thr))
    lo = float(np.asarray(conj.dminus(s, x)))
    hi = float(np.asarray(conj.dplus(s, x)))
    if math.isfinite(thr) and s >= thr - pad:
        hi = INF
    return lo, hi


class CostValidation:
    """Structured result of :func:`validate_cost`; never raises."""

    def __init__(self, passed, regime, checks, failures, notes):
        self.passed = passed
        self.regime = regime
        self.checks = checks
        self.failures = failures
        self.notes = notes

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return "CostValidation(%s, regime=%s, failures=%r)" % (status, self.regime, self.failures)


def validate_cost(cost, sample_budget=256):
    """Sample-based check of the structural hypotheses of the base cost ``c0``.

    Growth ``c >= alpha*t + beta``, the finiteness witness, convexity by
    three-point secants on a log grid, and ``c = +inf`` on ``t < 0`` are all
    checked by sampling.  A spatial weight is not sampled here: it is
    resolved into per-cell weights and checked once, by
    :func:`massopt.solver.build_problem`.
    """
    checks = {}
    failures = []
    notes = []

    t0 = cost.t0
    grid = np.unique(np.concatenate([
        [0.0], np.geomspace(1e-6 * max(t0, 1.0), 1e6 * max(t0, 1.0), sample_budget)]))
    with np.errstate(over="ignore"):
        vals = np.asarray(cost.base_value(grid), dtype=float)

    # (negative domain) c(t) = +inf for t < 0
    neg = np.asarray(cost.base_value(np.array([-1.0, -1e-3, -1e3])), dtype=float)
    checks["negative_domain"] = bool(np.all(np.isinf(neg) & (neg > 0)))
    if not checks["negative_domain"]:
        failures.append("c(t) is not +inf for some t < 0")

    # (P2-style witness) finite value at t0
    checks["finite_witness"] = bool(math.isfinite(float(np.asarray(cost.base_value(t0)))))
    if not checks["finite_witness"]:
        failures.append("c(t0) is not finite at t0=%g" % t0)

    # (P1-style growth) c(t) >= alpha*t + beta on samples
    bound = cost.alpha * grid + cost.beta
    finite = np.isfinite(vals)
    slack = 1e-9 * (1.0 + np.abs(bound))
    bad = finite & (vals < bound - slack)
    checks["growth"] = not bool(np.any(bad))
    if not checks["growth"]:
        t_bad = grid[bad][0]
        failures.append("growth violated at t=%g: c=%g < %g"
                        % (t_bad, vals[bad][0], bound[bad][0]))

    # convexity via three-point secants on consecutive finite samples
    ok = True
    f_idx = np.nonzero(finite)[0]
    if f_idx.size >= 3:
        t1, t2, t3 = grid[f_idx[:-2]], grid[f_idx[1:-1]], grid[f_idx[2:]]
        v1, v2, v3 = vals[f_idx[:-2]], vals[f_idx[1:-1]], vals[f_idx[2:]]
        lam = (t2 - t1) / (t3 - t1)
        chord = (1.0 - lam) * v1 + lam * v3
        tol = 1e-9 * (1.0 + np.abs(chord))
        viol = v2 > chord + tol
        ok = not bool(np.any(viol))
        if not ok:
            failures.append("secant convexity violated at t=%g" % t2[viol][0])
    checks["convexity"] = ok

    if cost.growth_estimated:
        notes.append("growth constants alpha/beta estimated by sampling")

    try:
        regime = cost.regime
        checks["recession"] = True
    except (NonMonotoneQuotient, InvalidCost, NumericOverflow) as exc:
        regime = "unknown"
        checks["recession"] = False
        failures.append("recession slope: %s" % exc)

    return CostValidation(len(failures) == 0, regime, checks, failures, notes)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def quadratic_cost(spatial_weight=None):
    """``c(t) = t^2 / 2`` on ``t >= 0``; superlinear, ``c*(s) = (s+)^2 / 2``."""
    return CostFunction(_QuadraticProfile(), alpha=1.0, beta=-0.5, t0=1.0,
                        spatial_weight=spatial_weight)


def power_cost(p, spatial_weight=None):
    """``c(t) = t^p / p`` with ``p > 1``; superlinear, ``c*(s) = (s+)^q / q``."""
    prof = _PowerProfile(p)
    return CostFunction(prof, alpha=1.0, beta=-1.0 / prof.q, t0=1.0,
                        spatial_weight=spatial_weight)


def linear_cost(slope=0.5, spatial_weight=None):
    """``c(t) = slope * t`` on ``t >= 0``; linear regime, indicator conjugate."""
    return CostFunction(_LinearProfile(slope), alpha=slope, beta=0.0, t0=1.0,
                        spatial_weight=spatial_weight)


def reciprocal_cost(a=1.0, b=1.0, spatial_weight=None):
    """``c(t) = a*t + b/t`` on ``t > 0``; linear regime with slope ``a``."""
    return CostFunction(_ReciprocalProfile(a, b), alpha=a, beta=0.0,
                        t0=math.sqrt(b / a), spatial_weight=spatial_weight)


def expression_cost(text, alpha=None, beta=None, t0=1.0, spatial_weight=None):
    """Cost from a mini-language expression in ``t`` (numeric conjugate)."""
    try:
        prof = _ExpressionProfile(text, seed_t=t0)
        float(np.asarray(prof.value(t0)))
    except ExprError as exc:
        raise InvalidCost("bad cost expression: %s" % exc) from exc
    return CostFunction(prof, alpha=alpha, beta=beta, t0=t0, spatial_weight=spatial_weight)


def tabulated_cost(ts, cs, alpha=None, beta=None, spatial_weight=None):
    """Piecewise-linear cost through samples ``(ts, cs)``; +inf off the table."""
    prof = _TabulatedProfile(ts, cs)
    return CostFunction(prof, alpha=alpha, beta=beta, t0=prof.seed_t,
                        spatial_weight=spatial_weight)


def piecewise_polynomial_cost(breakpoints, coefficients, extend_last=True,
                              alpha=None, beta=None, spatial_weight=None):
    """Cost given by polynomial segments between breakpoints."""
    prof = _PiecewisePolyProfile(breakpoints, coefficients, extend_last)
    return CostFunction(prof, alpha=alpha, beta=beta, t0=prof.seed_t,
                        spatial_weight=spatial_weight)


def regularized_cost(base, eps):
    """``c_eps(t) = c(t) + eps * t^2``: superlinear continuation of ``base``."""
    prof = _RegularizedProfile(base._profile, eps, seed_t=base.t0)
    return CostFunction(prof, alpha=base.alpha, beta=base.beta, t0=base.t0,
                        spatial_weight=base.spatial_weight)


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
