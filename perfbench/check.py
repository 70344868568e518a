"""Correctness checks for benchmark ops.

Every op is judged from outside the program: its exit code, the files it
wrote (read back through ``massopt.grids``), and closed forms computed
here.  A check returns ``None`` when the op verified, or a one-line reason.
"""

import configparser
import json
import math
import os

import numpy as np

from massopt import grids
from massopt.errors import MassOptError

# the program's default verification thresholds, restated independently
THRESHOLDS = {
    "pde_residual": 1e-3,
    "inclusion_violation": 1e-3,
    "singular_saturation_error": 1e-3,
    "boundary_mass": 1e-9,
    "duality_identity_error": 1e-3,
}
FIXTURE_ERROR_LIMIT = 0.05      # closed-form field and density errors
CLOSED_FORM_U_LIMIT = 1e-2      # relative sup error against the ball solution
CONJ_VALUE_TOL = 1e-8           # acceptance criterion 3; relative above 1
CONJ_SLOPE_TOL = 1e-6
CONJ_SLOPE_WINDOW = 1e-5        # subgradients are checked over [s - w, s + w]


def _expected_grid(cfg_path):
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cfg.read(cfg_path)
    dom = cfg["domain"]
    kind = dom["kind"]
    if kind == "rectangle":
        nx, ny = int(dom["nx"]), int(dom["ny"])
        return kind, (nx + 1) * (ny + 1), nx * ny
    n = int(dom["n"])
    return kind, n + 1, n


def ball_solution(r, dimension, radius, value):
    """Quadratic-cost optimum on a ball with constant source ``value``.

    ``u(r) = (f R^4)^(1/3) * 3/4 * (2/d)^(1/3) * (1 - (r/R)^(4/3))`` solves
    ``-div(|u'|^2/2 u') = f`` with ``u(R) = 0``.
    """
    scale = (value * radius ** 4) ** (1.0 / 3.0) * 0.75 * (2.0 / dimension) ** (1.0 / 3.0)
    return scale * (1.0 - (np.abs(r) / radius) ** (4.0 / 3.0))


def check_run(op, rc, opdir):
    if rc != 0:
        return "exit code %d" % rc
    out = os.path.join(opdir, "out")
    try:
        u = grids.read_field_csv(os.path.join(out, "u.csv"))
        mu = grids.read_measure(os.path.join(out, "measure.csv"),
                                os.path.join(out, "measure.json"))
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError, KeyError, IndexError, MassOptError) as exc:
        return "unreadable output: %s: %s" % (type(exc).__name__, exc)
    kind, n_nodes, n_cells = _expected_grid(os.path.join(opdir, "case.cfg"))
    if u.grid.kind != kind or u.values.shape != (n_nodes,):
        return "u.csv has grid %s with %d nodes, expected %s with %d" % (
            u.grid.kind, u.values.size, kind, n_nodes)
    if mu.ac_density.shape != (n_cells,):
        return "measure.csv has %d cells, expected %d" % (mu.ac_density.size, n_cells)
    if not np.all(np.isfinite(u.values)):
        return "u.csv holds non-finite values"
    scale = float(np.max(np.abs(u.values)))
    if not scale > 0.0:
        return "u vanishes although the source is positive"
    if float(np.max(np.abs(u.values[u.grid.boundary_mask]))) > 1e-12 * scale:
        return "u does not vanish on the boundary"
    if not np.all(np.isfinite(mu.ac_density)) or np.any(mu.ac_density < 0.0):
        return "density is negative or non-finite"
    if any(not (math.isfinite(m) and m > 0.0) for _loc, m in mu.atoms):
        return "atom mass is not positive and finite"
    if report.get("passed") is not True or report.get("converged") is not True:
        return "report.json does not record a converged, passing run"
    for name, limit in THRESHOLDS.items():
        value = report.get(name)
        if not isinstance(value, (int, float)) or not value <= limit:
            return "report.json %s = %r exceeds %g" % (name, value, limit)
    cf = op.check.get("closed_form")
    if cf is not None:
        r = u.grid.node_coords[:, 0]
        exact = ball_solution(r, cf["dimension"], cf["radius"], cf["value"])
        err = float(np.max(np.abs(u.values - exact))) / float(np.max(np.abs(exact)))
        if not err <= CLOSED_FORM_U_LIMIT:
            return "u differs from the closed form by %.3g (relative sup)" % err
    return None


def check_fixture(op, rc, stdout):
    if rc != 0:
        return "exit code %d" % rc
    values = {}
    for line in stdout.splitlines()[1:]:   # after the "fixture <name> (...)" title
        key, sep, raw = line.partition(",")
        try:
            values[key] = float(raw)
        except ValueError:
            return "unreadable fixture line %r" % line
        if not sep:
            return "unreadable fixture line %r" % line
    limits = dict(THRESHOLDS, u_rel_sup_error=FIXTURE_ERROR_LIMIT,
                  a_rel_l1_error=FIXTURE_ERROR_LIMIT)
    for name, limit in limits.items():
        if name not in values:
            return "fixture output lacks %s" % name
        if not values[name] <= limit:
            return "fixture %s = %.3g exceeds %g" % (name, values[name], limit)
    return None


# ---------------------------------------------------------------------------
# conjugate tables
# ---------------------------------------------------------------------------

def conjugate_closed_form(form, s, table=None):
    """``(value, slope_lo, slope_hi)`` of the exact conjugate at ``s``.

    ``table`` holds the ``(t, c)`` samples of a tabulated cost.
    """
    kind = form["form"]
    if kind == "power":        # c(t) = a t + b t^p
        a, b, p = form["a"], form["b"], form["p"]
        if s <= a:
            return 0.0, 0.0, 0.0
        t = ((s - a) / (b * p)) ** (1.0 / (p - 1.0))
        return (p - 1.0) * b * t ** p, t, t
    if kind == "reciprocal":   # c(t) = a t + b / t
        a, b = form["a"], form["b"]
        if s >= a:
            return math.inf, math.nan, math.nan
        t = math.sqrt(b / (a - s))
        return -2.0 * math.sqrt(b * (a - s)), t, t
    if kind == "linear":       # c(t) = k t
        k = form["k"]
        if s > k:
            return math.inf, math.nan, math.nan
        return 0.0, 0.0, (0.0 if s < k else math.inf)
    if kind == "table":        # piecewise linear: maximum over the sample nodes
        vals = table[:, 0] * s - table[:, 1]
        best = float(np.max(vals))
        hit = np.nonzero(vals >= best - 1e-12 * (1.0 + abs(best)))[0]
        return best, float(table[hit[0], 0]), float(table[hit[-1], 0])
    raise ValueError("unknown closed form %r" % kind)


def check_conjugate(op, rc, opdir):
    if rc != 0:
        return "exit code %d" % rc
    try:
        with open(os.path.join(opdir, "table.out.csv")) as fh:
            header = fh.readline().strip()
            rows = np.array([[float(x) for x in line.split(",")]
                             for line in fh if line.strip()])
    except (OSError, ValueError) as exc:
        return "unreadable output: %s: %s" % (type(exc).__name__, exc)
    spec = op.check
    if header != "s,value,subdiff_lo,subdiff_hi" or rows.shape != (spec["rows"], 4):
        return "conjugate table has header %r and shape %s" % (header, rows.shape)
    grid = np.linspace(spec["s_lo"], spec["s_hi"], spec["rows"])
    if not np.allclose(rows[:, 0], grid, rtol=1e-12, atol=1e-15):
        return "conjugate table rows are not at the requested s values"
    form = spec["closed_form"]
    table = None
    if form["form"] == "table":
        table = np.loadtxt(os.path.join(opdir, form["file"]), delimiter=",", ndmin=2)
    for s, value, lo, hi in rows.tolist():
        exact, dlo, dhi = conjugate_closed_form(form, s, table)
        if math.isinf(exact):
            if value != exact:
                return "c*(%r) = %r, expected +inf" % (s, value)
            continue
        if not abs(value - exact) <= CONJ_VALUE_TOL * max(1.0, abs(exact)):
            return "c*(%r) = %r, closed form %r" % (s, value, exact)
        if form["form"] == "table":
            # node ties are resolved within rounding: the reported interval
            # must lie inside the closed-form argmax range
            inside = dlo - 1e-12 <= lo <= hi <= dhi + 1e-12
        else:
            w = CONJ_SLOPE_WINDOW
            span_lo = conjugate_closed_form(form, s - w)[1]
            span_hi = conjugate_closed_form(form, s + w)[2]
            if not math.isfinite(span_hi):
                span_hi = dhi
            tol = CONJ_SLOPE_TOL * (1.0 + abs(dhi))
            # numeric one-sided slopes carry rounding of either sign, so
            # each end is checked on its own
            inside = all(span_lo - tol <= x <= span_hi + tol for x in (lo, hi))
        if not inside:
            return "subdifferential at s=%r is [%r, %r], closed form [%r, %r]" % (
                s, lo, hi, dlo, dhi)
    return None
