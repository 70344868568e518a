"""Conjugates, recession slopes, subdifferentials, validation."""

import math

import numpy as np
import pytest

import massopt as mo

INF = math.inf

CATALOG = [
    ("quadratic", mo.quadratic_cost),
    ("linear", lambda: mo.linear_cost(0.5)),
    ("reciprocal", mo.reciprocal_cost),
    ("power3", lambda: mo.power_cost(3.0)),
]


def exact_conjugate(name, s):
    if name == "quadratic":
        return 0.5 * s * s if s > 0 else 0.0
    if name == "linear":
        return 0.0 if s <= 0.5 else INF
    if name == "reciprocal":
        return -2.0 * math.sqrt(1.0 - s) if s <= 1.0 else INF
    q = 1.5  # conjugate exponent of p = 3
    return max(s, 0.0) ** q / q


# -- closed forms -----------------------------------------------------------

def test_quadratic_conjugate_values():
    c = mo.quadratic_cost()
    assert float(c.conjugate_value(3.0)) == pytest.approx(4.5, abs=1e-15)
    assert float(c.conjugate_value(-1.0)) == 0.0


def test_reciprocal_conjugate_value():
    c = mo.reciprocal_cost()
    assert float(c.conjugate_value(0.0)) == pytest.approx(-2.0, abs=1e-15)
    assert float(c.conjugate_value(0.75)) == pytest.approx(-1.0, abs=1e-15)
    assert float(c.conjugate_value(1.5)) == INF


def test_linear_conjugate_indicator():
    c = mo.linear_cost(0.5)
    assert float(c.conjugate_value(0.4)) == 0.0
    assert float(c.conjugate_value(0.6)) == INF


def test_recession_values():
    assert mo.quadratic_cost().recession_slope() == INF
    assert mo.quadratic_cost().regime == "SL"
    r = mo.reciprocal_cost()
    assert r.recession_slope() == 1.0 and r.regime == "L"
    l = mo.linear_cost(0.5)
    assert l.recession_slope() == 0.5 and l.regime == "L"


def test_recession_one_homogeneity():
    # c_inf(lam * t) = lam * c_inf(t): scale the witness through the slope
    for cost in (mo.reciprocal_cost(), mo.linear_cost(0.5)):
        base = cost.recession_slope()
        for lam in (0.5, 2.0, 7.0):
            assert lam * base == pytest.approx(lam * cost.recession_slope())


# -- numeric paths ----------------------------------------------------------

@pytest.mark.parametrize("text,name", [
    ("t^2/2", "quadratic"), ("t/2", "linear"), ("t + 1/t", "reciprocal")])
def test_numeric_conjugate_matches_closed_form(text, name):
    cost = mo.expression_cost(text)
    rng = np.random.default_rng(3)
    if name == "quadratic":
        samples = rng.uniform(-1.0, 4.0, 40)
    elif name == "linear":
        samples = rng.uniform(-1.0, 0.499, 40)
    else:
        samples = rng.uniform(-2.0, 0.999, 40)
    for s in samples:
        exact = exact_conjugate(name, float(s))
        got = float(cost.conjugate_value(float(s)))
        assert got == pytest.approx(exact, abs=1e-8)


def test_numeric_conjugate_divergence_detected():
    cost = mo.expression_cost("t/2")
    assert float(cost.conjugate_value(0.6)) == INF


def test_tabulated_conjugate():
    ts = np.linspace(0.0, 10.0, 100001)
    tab = mo.tabulated_cost(ts, 0.5 * ts * ts)
    assert float(tab.conjugate_value(3.0)) == pytest.approx(4.5, abs=1e-8)
    # bounded table: +inf beyond the last sample, hence superlinear
    assert tab.regime == "SL"


EPS = np.finfo(float).eps


def test_numeric_recession_values():
    # the exact D+c along a doubling sequence, to a few units of rounding
    assert mo.expression_cost("t^2/2").recession_slope() == INF
    assert mo.expression_cost("t/2").recession_slope() == 0.5
    assert mo.expression_cost("t + 1/t").recession_slope() == pytest.approx(1.0, abs=4 * EPS)
    # large witnesses start the sequence there
    for t0 in (1e17, 1e100):
        cost = mo.expression_cost("t + 1/t", t0=t0)
        assert cost.recession_slope() == pytest.approx(1.0, abs=4 * EPS)


@pytest.mark.parametrize("text", ["t^1.5", "t^1.1"])
def test_numeric_recession_of_slow_superlinear_growth(text):
    # D+c = p t^(p-1) passes the 1e12 cap only far out: 4e23 for p = 1.5,
    # 1e110 for p = 1.1; difference quotients stopped before either
    cost = mo.expression_cost(text)
    assert cost.recession_slope() == INF and cost.regime == "SL"


def test_numeric_conjugate_at_the_recession_slope():
    # just below c_inf = 1, t + 1/t has the conjugate -2 sqrt(1 - s) of the
    # reciprocal cost; a slope read short of 1 would cut it off as +inf
    s = np.array([0.9999999995, 0.99999999975, 0.9999999999])
    got = np.asarray(mo.expression_cost("t + 1/t").conjugate_value(s), dtype=float)
    exact = np.asarray(mo.reciprocal_cost().conjugate_value(s), dtype=float)
    assert np.all(np.abs(got - exact) <= 1e-8), got - exact


@pytest.mark.parametrize("text, value", [("t - 0.5 if t >= 1 else t^2/2", 0.5), ("t + 1", -1.0)],
                         ids=["huber", "shifted-linear"])
def test_numeric_conjugate_of_a_linear_tail_at_the_recession_slope(text, value):
    # s t - c(t) is maximal on the whole linear tail [t0, inf) at s = c_inf;
    # read far out on the tail it would cancel to 0
    cost = mo.expression_cost(text)
    assert cost.recession_slope() == 1.0
    got = np.asarray(cost.conjugate_value(np.array([1.0, 1.0])), dtype=float)
    assert float(cost.conjugate_value(1.0)) == value and np.all(got == value)


def _fixed_count_bisect(below, lo, hi, iters):
    """Bisection that always takes ``iters`` steps, the reference for :func:`costs.bisect`."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        right = below(mid)
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("strict", [True, False], ids=["lt", "le"])
@pytest.mark.parametrize("root", [0.0, 3e-310, 1.0, 2.0 ** 80],
                         ids=["zero", "subnormal", "one", "two-to-80"])
def test_bisect_stops_early_with_the_bits_of_every_step(root, strict):
    # a step that moves no end of any bracket repeats itself from then on,
    # so stopping there keeps the midpoints of the full count bit for bit
    rng = np.random.default_rng(7)
    calls = []

    def below(t):
        calls.append(t.size)
        return t < root if strict else t <= root

    scale = max(root, 1e-300)
    for iters in (100, 1200):
        # widths from far below the root's spacing to far above its size;
        # some brackets miss the root on either side
        lo = root - scale * 10.0 ** rng.uniform(-20.0, 3.0, 500) * rng.uniform(-0.1, 1.0, 500)
        hi = root + scale * 10.0 ** rng.uniform(-20.0, 3.0, 500) * rng.uniform(-0.1, 1.0, 500)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        calls.clear()
        got = mo.costs.bisect(below, lo, hi, iters)
        # every bracket has closed within 1100 steps
        assert len(calls) <= min(iters, 1100)
        expect = _fixed_count_bisect(below, lo, hi, iters)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    # a bracket that is already two adjacent floats around the root
    lo, hi = (np.nextafter(root, -INF), root) if strict else (root, np.nextafter(root, INF))
    calls.clear()
    got = mo.costs.bisect(below, np.full(3, lo), np.full(3, hi), 100)
    assert len(calls) == 1
    assert np.array_equal(got, _fixed_count_bisect(below, np.full(3, lo), np.full(3, hi), 100))


@pytest.mark.parametrize("text, s", [("t + 1/t", np.linspace(-1.0, 0.99, 201)),
                                     ("t + t^2/2", np.linspace(-1.0, 0.99, 201))],
                         ids=["reciprocal", "dead-zone"])
def test_numeric_conjugate_maps_stop_their_bisections_early(monkeypatch, text, s):
    # every search stops once its brackets stop moving, and a point of the
    # dead zone s < 1 of t + t^2/2 holds none open; 100 or 120 fixed steps
    # took 103-123 evaluations of D+c per map at these 201 points
    cost = mo.expression_cost(text)
    calls = []
    subgrad_hi = mo.costs._ExpressionProfile.subgrad_hi

    def counted(self, t):
        calls.append(np.size(t))
        return subgrad_hi(self, t)

    monkeypatch.setattr(mo.costs._ExpressionProfile, "subgrad_hi", counted)
    for evaluate, x in [(cost.conjugate_value, s), (cost.conjugate_dminus, s),
                        (cost.invert_flux, np.linspace(0.0, 4.0, 201))]:
        calls.clear()
        evaluate(x)
        assert len(calls) <= 70, (evaluate.__name__, len(calls))


def test_nonconvex_cost_recession_raises():
    # the recession slope is taken where the cost is built
    with pytest.raises(mo.NonMonotoneQuotient):
        mo.expression_cost("t^0.5")


@pytest.mark.parametrize("text", ["1/(1+t)", "-t", "1"])
def test_cost_without_positive_recession_slope_is_refused(text):
    # a convex cost grows at least linearly exactly when its recession slope
    # is positive
    with pytest.raises(mo.InvalidCost, match="positive recession slope"):
        mo.expression_cost(text)


@pytest.mark.parametrize("slope", [1e-10, 2e-9])
def test_small_positive_recession_slope_is_resolved(slope):
    # successive difference quotients are compared relative to their size,
    # so a slope far below 1e-9 is found, not taken for zero or a negative
    cost = mo.expression_cost("%r*t + 1/(1+t)" % slope)
    assert cost.recession_slope() == pytest.approx(slope, rel=1e-8, abs=0.0)


def test_quadratic_is_power_two_bit_for_bit():
    # the quadratic cost is the power law p = 2: its closed forms are those
    # of t^2/2, exactly
    quad, power = mo.quadratic_cost(), mo.power_cost(2.0)
    assert quad.name == power.name == "quadratic"
    s = np.random.default_rng(5).uniform(-3.0, 3.0, 100000)
    for cost in (quad, power):
        assert np.array_equal(cost.base_value(s), np.where(s < 0.0, INF, 0.5 * s * s))
        assert np.array_equal(cost.conjugate_value(s), np.where(s > 0.0, 0.5 * s * s, 0.0))
        assert np.array_equal(cost.conjugate_dminus(s), np.maximum(s, 0.0))
        assert np.array_equal(cost.conjugate_dplus(s), np.maximum(s, 0.0))
        assert np.array_equal(cost.level(s)[2], np.full_like(s, 2.0))
        v = np.abs(s)
        np.testing.assert_allclose(cost.invert_flux(v), np.cbrt(2.0 * v), rtol=4e-16, atol=0.0)


# -- subdifferentials -------------------------------------------------------

def test_subdiff_smooth_quadratic():
    lo, hi = mo.subdiff_interval(mo.quadratic_cost(), 2.0)
    assert lo == hi == pytest.approx(2.0)


def test_subdiff_indicator_normal_cone():
    cost = mo.linear_cost(0.5)
    assert mo.subdiff_interval(cost, 0.3) == (0.0, 0.0)
    lo, hi = mo.subdiff_interval(cost, 0.5)
    assert lo == 0.0 and hi == INF
    with pytest.raises(mo.OutsideDomain):
        mo.subdiff_interval(cost, 0.6)


def test_subdiff_reciprocal_closed_form_and_fd():
    cost = mo.reciprocal_cost()
    lo, hi = mo.subdiff_interval(cost, 0.0)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    # cross-check by central differences of the conjugate value
    d = 1e-6
    fd = (cost.conjugate_value(d) - cost.conjugate_value(-d)) / (2 * d)
    assert fd == pytest.approx(1.0, abs=1e-5)


def test_subdiff_upper_end_inf_at_threshold():
    _lo, hi = mo.subdiff_interval(mo.linear_cost(0.5), 0.5)
    assert hi == INF


@pytest.mark.parametrize("name,factory", CATALOG)
def test_monotone_subdifferential(name, factory):
    cost = factory()
    thr = cost.recession_slope()
    top = min(thr, 3.0) if math.isfinite(thr) else 3.0
    ss = np.linspace(-1.0, top, 60)
    for s1, s2 in zip(ss[:-1], ss[1:]):
        _, hi1 = mo.subdiff_interval(cost, float(s1))
        lo2, _ = mo.subdiff_interval(cost, float(s2))
        if math.isfinite(hi1):
            assert hi1 <= lo2 + 1e-9


@pytest.mark.parametrize("name,factory", CATALOG)
def test_fenchel_equality_characterizes_interval(name, factory):
    cost = factory()
    thr = cost.recession_slope()
    ss = [0.25, min(thr, 2.0) * 0.8] if math.isfinite(thr) else [0.25, 2.0]
    for s in ss:
        lo, hi = mo.subdiff_interval(cost, s)
        members = [lo] if not math.isfinite(hi) else [lo, 0.5 * (lo + hi), hi]
        for a in members:
            if not math.isfinite(a):
                continue
            gap = float(np.asarray(cost.base_value(a))) + cost.conjugate_value(s) - a * s
            assert abs(gap) <= 1e-9 * (1.0 + abs(a))
        outsider = (hi if math.isfinite(hi) else lo) + 0.5 + 0.1 * abs(lo)
        gap = float(np.asarray(cost.base_value(outsider))) + cost.conjugate_value(s) - outsider * s
        assert gap > 1e-6


@pytest.mark.parametrize("name,factory", CATALOG)
def test_conjugate_monotone_and_convex_in_s(name, factory):
    cost = factory()
    thr = cost.recession_slope()
    top = thr if math.isfinite(thr) else 4.0
    ss = np.linspace(-2.0, top, 120)
    vals = np.asarray(cost.conjugate_value(ss), dtype=float)
    finite = np.isfinite(vals)
    dv = np.diff(vals[finite])
    assert np.all(dv >= -1e-12)
    s1, s2, s3 = ss[finite][:-2], ss[finite][1:-1], ss[finite][2:]
    v1, v2, v3 = vals[finite][:-2], vals[finite][1:-1], vals[finite][2:]
    lam = (s2 - s1) / (s3 - s1)
    chord = (1.0 - lam) * v1 + lam * v3
    assert np.all(v2 <= chord + 1e-12 * (1.0 + np.abs(chord)))


# -- global properties ------------------------------------------------------

@pytest.mark.parametrize("name,factory", CATALOG)
def test_fenchel_young(name, factory):
    cost = factory()
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 10.0, 10000)
    thr = cost.recession_slope()
    top = thr if math.isfinite(thr) else 5.0
    s = rng.uniform(-2.0, top, 10000)
    ct = np.asarray(cost.base_value(t), dtype=float)
    cs = np.asarray(cost.conjugate_value(s), dtype=float)
    finite = np.isfinite(ct) & np.isfinite(cs)
    viol = (ct + cs - t * s)[finite]
    assert float(np.min(viol)) >= -1e-12


@pytest.mark.parametrize("name,factory", CATALOG)
def test_biconjugacy(name, factory):
    from massopt.oracle import _concave_max

    cost = factory()
    thr = cost.recession_slope()
    hi = thr if math.isfinite(thr) else INF
    seed = min(1.0, 0.5 * thr) if math.isfinite(thr) else 1.0
    for t in np.geomspace(0.05, 8.0, 24):
        exact = float(np.asarray(cost.base_value(t)))
        if not math.isfinite(exact):
            continue
        val, _ = _concave_max(lambda s: t * s - float(np.asarray(cost.conjugate_value(s))),
                              seed=seed, lo=-INF, hi=hi)
        assert val == pytest.approx(exact, abs=1e-7)


@pytest.mark.parametrize("name,factory", CATALOG)
def test_recession_matches_conjugate_threshold(name, factory):
    cost = factory()
    thr = cost.recession_slope()
    if math.isinf(thr):
        for s in (1.0, 10.0, 1e4):
            assert math.isfinite(float(np.asarray(cost.conjugate_value(s))))
    else:
        assert math.isfinite(float(np.asarray(cost.conjugate_value(thr - 1e-6))))
        assert float(np.asarray(cost.conjugate_value(thr + 1e-3))) == INF


# -- heterogeneity ----------------------------------------------------------

def _weighted(cost, w):
    g = mo.interval_grid(-1.0, 1.0, 4)
    return mo.build_problem(g, cost, mo.SourceTerm.constant(g, 1.0),
                            cell_weights=np.full(g.n_cells, w))


def test_separable_weight_scaling():
    c = mo.quadratic_cost()
    # c*(x, s) = w * c0*(s / w)
    assert float(c.conjugate_value(3.0, weight=2.0)) == pytest.approx(2.0 * 0.5 * 1.5 ** 2)
    assert np.all(_weighted(c, 2.0).cell_caps == INF)
    # the gradient cap sqrt(2 * w * c0_inf(1)) of a weighted linear-regime cost
    r = mo.reciprocal_cost()
    assert _weighted(r, 2.0).cell_caps == pytest.approx(2.0)


def test_weight_must_be_positive():
    for bad in (-1.0, INF, math.nan):
        with pytest.raises(mo.InvalidCost):
            _weighted(mo.quadratic_cost(), bad)


def _tabulated_square():
    ts = np.linspace(0.0, 4.0, 17)
    return mo.tabulated_cost(ts, 0.5 * ts * ts)


FLUX_PROFILES = [
    ("quadratic", mo.quadratic_cost),
    ("power1.5", lambda: mo.power_cost(1.5)),
    ("power3", lambda: mo.power_cost(3.0)),
    ("linear", lambda: mo.linear_cost(0.5)),
    ("reciprocal", mo.reciprocal_cost),
    ("tabulated", _tabulated_square),
    ("regularized-linear", lambda: mo.regularized_cost(mo.linear_cost(0.5), 1e-3)),
]


def _weighted_bisection_inverse(cost, vabs, w):
    """Weighted flux inverse ``t`` by 100-step bisection on ``t * D+c*_w(t^2/2)``."""
    thr = w * cost.recession_slope()
    cap = np.where(np.isinf(thr), INF, np.sqrt(2.0 * np.where(np.isinf(thr), 1.0, thr)))
    hi = np.where(np.isinf(cap), np.maximum(vabs, 1.0), cap)

    def below(t):
        with np.errstate(invalid="ignore"):
            return t * cost.conjugate_dplus(0.5 * t * t, w) < vabs

    hi = mo.costs.grow_bracket(lambda t: np.isinf(cap) & below(t), hi)
    t = mo.costs.bisect(below, np.zeros_like(vabs), hi, 100)
    return np.where(vabs > 0.0, t, 0.0)


def _assert_inverts_flux_map(cost, t, vabs, w=1.0, rtol=1e-13):
    """``vabs = t * c*_w'(t^2/2)``, the flux map at ``t``, to ``rtol`` in ``t``.

    The map is nondecreasing and jumps where ``c*`` has a kink, so ``vabs``
    lies between its lower one-sided value just below ``t`` and its upper
    one-sided value just above.
    """
    lo, hi = t * (1.0 - rtol), t * (1.0 + rtol)
    m_lo = lo * cost.conjugate_dminus(0.5 * lo * lo, w)
    m_hi = hi * cost.conjugate_dplus(0.5 * hi * hi, w)
    assert np.all((m_lo <= vabs) & (vabs <= m_hi))


@pytest.mark.parametrize("p", [1.0005, 1.00001, 1.0000001])
def test_power_invert_flux_near_one(p):
    # 2^(q-1) overflows a double once p < 1 + 1/1024; the inverse is then
    # taken in logs
    cost = mo.power_cost(p)
    v = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 25)])
    t = cost.invert_flux(v)
    assert t[0] == 0.0 and np.all(np.isfinite(t))
    _assert_inverts_flux_map(cost, t[1:], v[1:])


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.7])
def test_power_invert_flux_closed_form_bits(p):
    # where 2^(q-1) v stays finite the inverse is the closed form, bit for bit
    cost = mo.power_cost(p)
    q = p / (p - 1.0)
    v = np.random.default_rng(8).uniform(0.0, 10.0, 1000)
    assert np.array_equal(cost.invert_flux(v), (2.0 ** (q - 1.0) * v) ** (1.0 / (2.0 * q - 1.0)))


@pytest.mark.parametrize("factory", [f for _, f in FLUX_PROFILES],
                         ids=[name for name, _ in FLUX_PROFILES])
def test_weighted_invert_flux_is_rescaled_homogeneous_inverse(factory):
    # m_w(t) = sqrt(w) * m0(t / sqrt(w)): rescaling the homogeneous inverse
    # lands where a bisection on the weighted map does
    cost = factory()
    v = np.concatenate([[0.0], np.geomspace(1e-10, 1e3, 4095)])
    w = np.geomspace(0.2, 5.0, v.size)[::-1]
    t = cost.invert_flux(v, weight=w)
    assert t.shape == v.shape
    np.testing.assert_allclose(t, _weighted_bisection_inverse(cost, v, w), rtol=1e-14, atol=0.0)
    _assert_inverts_flux_map(cost, t, v, w)


@pytest.mark.parametrize("factory", [mo.quadratic_cost, lambda: mo.power_cost(1.5),
                                     lambda: mo.linear_cost(0.5), mo.reciprocal_cost,
                                     _tabulated_square],
                         ids=["quadratic", "power1.5", "linear", "reciprocal", "tabulated"])
def test_weighted_closed_form_inverse_takes_no_bisection(monkeypatch, factory):
    def fail(*_args, **_kwargs):
        raise AssertionError("flux inversion fell back to bisection")

    monkeypatch.setattr(mo.costs, "bisect", fail)
    v = np.linspace(0.0, 3.0, 64)
    w = np.linspace(0.5, 2.0, 64)
    cost = factory()
    _assert_inverts_flux_map(cost, cost.invert_flux(v, weight=w), v, w)


def _table(ts, fn):
    ts = np.asarray(ts, dtype=float)
    return mo.tabulated_cost(ts, fn(ts))


# the three tables of t^2/2 the benchmark runs, a table with a dead zone, and
# one that starts above 0
INVERSE_TABLES = [
    ("square-10-201", lambda: _table(np.linspace(0.0, 10.0, 201), lambda t: 0.5 * t * t)),
    ("square-8-20001", lambda: _table(np.linspace(0.0, 8.0, 20001), lambda t: 0.5 * t * t)),
    ("square-4-401", lambda: _table(np.linspace(0.0, 4.0, 401), lambda t: 0.5 * t * t)),
    ("dead-zone", lambda: _table(np.linspace(0.0, 8.0, 257), lambda t: t + 0.5 * t * t)),
    ("positive-start", lambda: _table(np.linspace(0.5, 6.0, 40), lambda t: 0.5 * t * t + 1.0 / t)),
]


@pytest.mark.parametrize("factory", [f for _, f in INVERSE_TABLES],
                         ids=[name for name, _ in INVERSE_TABLES])
def test_table_flux_inverse_is_exact(factory):
    # one search over the segment ends lands where the bisection on
    # t * D+c*(t^2/2) does, also at the ends themselves and on the jumps
    cost = factory()
    prof = cost._profile
    edges = prof._flux_edges[np.isfinite(prof._flux_edges)]
    v = np.concatenate([[0.0], np.geomspace(1e-10, 1e3, 4095), edges,
                        0.5 * (edges[1:] + edges[:-1])])
    t = prof.invert_flux(v)
    np.testing.assert_allclose(t, _weighted_bisection_inverse(cost, v, 1.0), rtol=1e-14, atol=0.0)
    _assert_inverts_flux_map(cost, t, v)


# -- regularization ---------------------------------------------------------

def test_regularized_cost_conjugate_consistency():
    base = mo.linear_cost(0.5)
    ceps = mo.regularized_cost(base, 1e-2)
    assert ceps.regime == "SL"
    # derivative of the conjugate equals the maximizer: check Fenchel equality
    for s in (0.1, 0.5, 1.0, 3.0):
        a = float(np.asarray(ceps.conjugate_dplus(s)))
        gap = float(np.asarray(ceps.base_value(a))) + \
            float(np.asarray(ceps.conjugate_value(s))) - a * s
        assert abs(gap) <= 1e-9 * (1.0 + abs(a))


def test_regularized_invert_flux():
    base = mo.linear_cost(0.5)
    ceps = mo.regularized_cost(base, 1e-3)
    v = np.array([0.0, 0.3, 1.0])
    t = ceps.invert_flux(v)
    assert t[0] == 0.0
    assert np.all(t[1:] > 0.0)
    _assert_inverts_flux_map(ceps, t, v, rtol=1e-10)


def test_regularized_expression_matches_builtin():
    # the regularized expression and the regularized builtin run the same
    # bisection, on the forward-mode and the closed-form derivative
    expr = mo.regularized_cost(mo.expression_cost("t + 1/t"), 1e-3)
    builtin = mo.regularized_cost(mo.reciprocal_cost(), 1e-3)
    s = np.linspace(-3.0, 5.0, 161)
    for method in ("conjugate_value", "conjugate_dplus"):
        np.testing.assert_allclose(getattr(expr, method)(s), getattr(builtin, method)(s),
                                   rtol=0.0, atol=1e-10)
    v = np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 200)])
    np.testing.assert_allclose(expr.invert_flux(v), builtin.invert_flux(v), rtol=0.0, atol=1e-10)


def test_regularized_table_evaluates():
    ts = np.linspace(0.0, 4.0, 17)
    ceps = mo.regularized_cost(mo.tabulated_cost(ts, 0.5 * ts * ts), 1e-3)
    s = np.array([-1.0, 0.0, 1.0, 3.0, 10.0])
    # the maximizers sit at the table's kinks, and at its last node past it
    t = ceps.conjugate_dplus(s)
    np.testing.assert_allclose(t, [0.0, 0.0, 1.0, 3.0, 4.0], rtol=1e-12)
    gap = ceps.base_value(t) + ceps.conjugate_value(s) - t * s
    assert np.all(np.abs(gap) <= 1e-9 * (1.0 + t))
    v = np.array([0.0, 0.5, 2.0])
    _assert_inverts_flux_map(ceps, ceps.invert_flux(v), v, rtol=1e-12)


# -- validation -------------------------------------------------------------

def test_validate_quadratic_growth():
    cost = mo.quadratic_cost()
    assert cost.regime == "SL"
    assert mo.validate_cost(cost) is None


def test_validate_linear_regime():
    cost = mo.linear_cost(1.0)
    assert cost.regime == "L"
    assert mo.validate_cost(cost) is None


def test_growth_estimate_takes_table_nodes():
    # t^2/2 tabulated to t = 8 is superlinear (+inf past its last node) and
    # convex, so it is built
    ts = np.linspace(0.0, 8.0, 257)
    c = mo.tabulated_cost(ts, 0.5 * ts * ts)
    assert c.recession_slope() == INF
    assert mo.validate_cost(c) is None


def test_validate_sqrt_fails_growth():
    # sqrt(t) grows sublinearly and is refused where it is built;
    # t^2 + sqrt(t) grows superlinearly, but the secant check finds it
    # concave near 0, so it is refused where it is built too
    with pytest.raises(mo.NonMonotoneQuotient):
        mo.expression_cost("t^0.5")
    with pytest.raises(mo.InvalidCost, match="secant check violated at t=1e-06"):
        mo.expression_cost("t^2 + t^0.5")


def test_nonconvex_costs_are_refused_at_construction():
    # no non-convex cost object exists to evaluate.  A table's falling slope
    # (slopes 1, 1, 2, 1) is found exactly, at the node t = 2.5, which a
    # log-spaced secant sample can miss; an expression with a concave kink
    # away from 0 is found by the secant check
    with pytest.raises(mo.InvalidCost, match=r"not convex: its slope falls at t=2\.5$"):
        mo.tabulated_cost([0.0, 1.0, 2.0, 2.5, 3.0], [0.0, 1.0, 2.0, 3.0, 3.5])
    with pytest.raises(mo.InvalidCost, match="not convex"):
        mo.expression_cost("t^2/2 + 2*(1 if t >= 1 else t)")


@pytest.mark.parametrize("ts", [np.linspace(0.0, 10.0, 100001),
                                np.array([0.0, 0.1, 0.2, 0.3, 0.7, 1.1, 3.3])],
                         ids=["dense", "decimal"])
def test_collinear_table_builds_at_rounding(ts):
    # equal slopes differ only by the rounding of their samples, which the
    # convexity test allows
    for k in (0.3, 1.7e3):
        cost = mo.tabulated_cost(ts, k * ts)
        assert cost.zero_flux_edge() == pytest.approx(math.sqrt(2.0 * k), rel=1e-9)


@pytest.mark.parametrize("make_cost, s, weight", [
    (mo.quadratic_cost, [0.05, 0.4, 1.3], 1.0),
    (lambda: mo.power_cost(1.5), [0.05, 0.4, 1.3], 1.0),
    (lambda: mo.power_cost(3.0), [0.05, 0.4, 1.3], 1.0),
    (mo.reciprocal_cost, [0.05, 0.4, 0.9], 1.0),
    # off the kink at the slope, on both sides of it
    (lambda: mo.regularized_cost(mo.linear_cost(0.5), 1e-2), [0.1, 0.3, 0.6, 2.0], 1.0),
    (lambda: mo.expression_cost("t + t^2/2"), [0.4, 1.3, 2.5], 1.0),
    (mo.reciprocal_cost, [0.05, 0.4, 1.5], 1.7),
], ids=["quadratic", "power-1.5", "power-3", "reciprocal", "regularized-linear",
        "expression", "weighted-reciprocal"])
def test_conjugate_curvature_matches_derivative_differences(make_cost, s, weight):
    # rho * c*'(s) = 2s c*''(s), from the exact level's (c*', rho), against
    # central differences of D+c*
    cost = make_cost()
    s = np.asarray(s)
    h = 1e-6 * s
    fd = 2.0 * s * (cost.conjugate_dplus(s + h, weight=weight)
                    - cost.conjugate_dplus(s - h, weight=weight)) / (2.0 * h)
    _value, d, rho = cost.level(s, weight=weight)
    np.testing.assert_allclose(rho * d, fd, rtol=1e-7, atol=0.0)
    # a dead zone has no curvature
    if cost.zero_flux_edge() > 0.0:
        assert np.all(cost.level(s[s < 0.5], weight=weight)[2] == 0.0)


# the smoothings a 2-d Newton solve minimises (CostFunction.level), as
# (log-sum-exp, added term): a table's log-sum-exp, with the density floor of
# its dead zone, the log barrier of a finite recession slope, and the floor
# of a superlinear dead zone
@pytest.mark.parametrize("mu", [1.0, 1e-2])
@pytest.mark.parametrize("weighted", [False, True], ids=["homogeneous", "weighted"])
@pytest.mark.parametrize("make_cost, smoothing, s", [
    (lambda: _table(np.linspace(0.5, 6.0, 40), lambda t: 0.5 * t * t + 1.0 / t),
     (True, None), [0.2, 1.0, 3.0, 5.5]),
    (lambda: _table(np.linspace(0.0, 8.0, 257), lambda t: t + 0.5 * t * t),
     (True, "floor"), [0.4, 1.3, 4.0, 7.5]),
    (lambda: mo.linear_cost(0.5), (False, "barrier"), [0.05, 0.2, 0.45]),
    (mo.reciprocal_cost, (False, "barrier"), [0.05, 0.4, 0.9]),
    (lambda: mo.expression_cost("t + t^2/2"), (False, "floor"), [0.4, 1.3, 2.5]),
    (lambda: mo.regularized_cost(mo.linear_cost(0.5), 1e-2), (False, "floor"),
     [0.1, 0.3, 0.6, 2.0]),
], ids=["table", "table-dead-zone", "barrier-linear", "barrier-reciprocal",
        "floor-expression", "floor-regularized-linear"])
def test_level_derivatives_match_value_differences(make_cost, smoothing, s, weighted, mu):
    # c*' and rho * c*' = 2s c*'' of the smoothed conjugate against central
    # differences of its value and of c*'; the weights keep s / w on the
    # listed points
    cost = make_cost()
    lse, term = cost._smoothing
    assert (lse is not None, term) == smoothing
    s = np.asarray(s)
    weight = np.linspace(0.7, 1.6, s.size) if weighted else 1.0
    s = s * weight
    h = 1e-6 * s
    _value, d, rho = cost.level(s, mu, weight)
    (above, d_above, _), (below, d_below, _) = (cost.level(s + h, mu, weight),
                                                cost.level(s - h, mu, weight))
    np.testing.assert_allclose(d, (above - below) / (2.0 * h), rtol=1e-8, atol=0.0)
    fd2 = 2.0 * s * (d_above - d_below) / (2.0 * h)
    # a log-sum-exp far from a kink has curvature below rounding
    np.testing.assert_allclose(rho * d, fd2, rtol=1e-7, atol=1e-8 * np.max(d))


def test_unknown_builtin():
    with pytest.raises(mo.InvalidCost):
        mo.builtin_cost("nope")


def test_bad_parameters():
    with pytest.raises(mo.InvalidCost):
        mo.power_cost(1.0)
    with pytest.raises(mo.InvalidCost):
        mo.linear_cost(0.0)
    with pytest.raises(mo.InvalidCost):
        mo.reciprocal_cost(a=-1.0)
