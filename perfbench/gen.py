"""Seeded input generator for the massopt benchmark.

Every run is a fixed list of operations (ops).  An op is one
``massopt`` command-line invocation together with the files it reads: a
configuration, and for table costs a CSV of samples.  The list depends
only on the workload name, the seed and the run length, so the same seed
always yields byte-identical inputs.

Each workload cycles through a fixed list of families, one op per family
per round, so every run sees the same mix of families.  Inside a family,
parameters are stratified across the rounds of a run (see ``_Draws``), so
every run also sees the same mix of sizes; the seed moves every value inside
its stratum.  This keeps the run-to-run spread of the aggregate figures
small without fixing any input.

Some generated ops fail on the current program; they are part of the
workload on purpose and are counted, never re-drawn:

* ``ball-1d`` / ``table``: tabulated ``t^2/2`` on [0, 10] with 201 samples
  and on [0, 8] with 20001 samples are rejected by the growth check; on
  [0, 4] with 401 samples the run converges and then fails its PDE
  residual and duality checks.
* ``rect-2d`` / ``quadratic-const``: the PDE residual exceeds 1e-3 from
  about 48x48 cells on the unit square.
* ``rect-2d`` / ``power-const``: p = 1.5 on 48x48 cells does not converge
  (20000 iterations at the program's default budget; here the fixed budget
  ends it).  The first power-const op of every run is this case.

Found while building the benchmark, and kept for the same reason:

* ``ball-1d`` / ``linear``: on interval grids with a constant source the
  one-dimensional certificate fails to close for some draws (relative gap
  stays 1 until the iteration budget runs out).
* ``ball-1d`` / ``fixture``: ``mk_interval_uniform`` at some resolutions
  (3761 and 2653, for two) does not converge within 90 s; ``massopt fixtures`` has no iteration
  budget, so the runner's per-op time limit ends it.
* ``rect-2d`` / ``quadratic-atoms``: some draws (57x56 cells with one
  atom, for one) do not converge within the iteration budget.
"""

import random
import zlib

WORKLOADS = ("ball-1d", "rect-2d", "conjugate-tables")

# iteration budgets written into every configuration, so an op that does not
# converge still has a bounded run time; 1-d certificates are exact at the
# first check (iteration 25) whenever they close at all
BALL_MAX_ITERATIONS = 200
RECT_MAX_ITERATIONS = 400

# 1-d grid sizes: verification CG grows as cells^2, so this range keeps an
# op near 1 s and puts 35 ops in a 40 s run
BALL_CELLS = (2048, 4096)

CONJ_ROWS = 201

# share of its stratum that a drawn value may move in.  Every parameter
# (size, exponent, coefficient, atom position) can decide whether an op
# converges and how long it runs.  Over seeds 11-15 the median op time of
# ball-1d spread by 16% with a fifth of each stratum and by 8% with a
# twentieth.  Which linear-cost ops fail still changes with the seed.
JITTER = 0.05

# known-failing tables (t_max, samples) of t^2/2; see the module docstring
KNOWN_TABLES = ((10.0, 201), (8.0, 20001), (4.0, 401))
# known-failing power cost (p, nx, ny): the first power-const op of a run
KNOWN_POWER = (1.5, 48, 48)

FIXTURES = (("quadratic_ball_uniform", 1), ("quadratic_ball_uniform", 2),
            ("quadratic_ball_uniform", 3), ("quadratic_ball_dirac", 1),
            ("quadratic_ball_dirac", 2), ("quadratic_ball_dirac", 3),
            ("mk_interval_uniform", None), ("reciprocal_interval", None))


class Op:
    """One command-line invocation with its input files.

    ``argv`` is relative to the op's own directory, which the runner makes
    the working directory.  ``check`` carries what the correctness check
    needs to know beyond the files (expected shapes, closed forms).
    """

    def __init__(self, index, family, params, argv, files, check):
        self.index = index
        self.family = family
        self.params = params
        self.argv = argv
        self.files = files
        self.check = check

    def record(self):
        return {"index": self.index, "family": self.family, "params": self.params}


class _Draws:
    """Parameter draws of one family, stratified across rounds.

    Each continuous parameter's range is cut into ``strata`` equal parts,
    one per round of the run.  Round ``r`` draws from part
    ``(r + k) % strata``, where ``k`` is a fixed offset per family and
    parameter name, so a run covers each range once in a fixed pattern;
    the seed places the value within the middle ``JITTER`` of its part, so
    runs of every seed do nearly equal work.  Categorical choices rotate
    through their options, starting at a seeded position.
    """

    def __init__(self, rng, strata, salt):
        self.rng = rng
        self.strata = strata
        self.salt = salt
        self.rnd = 0
        self._starts = {}

    def _u(self, key):
        part = (self.rnd + self.salt + zlib.crc32(key.encode())) % self.strata
        return (part + 0.5 + JITTER * (self.rng.random() - 0.5)) / self.strata

    def uniform(self, key, lo, hi, digits=6):
        return round(lo + (hi - lo) * self._u(key), digits)

    def integer(self, key, lo, hi):
        return lo + min(int(self._u(key) * (hi - lo + 1)), hi - lo)

    def choice(self, key, options):
        start = self._starts.get(key)
        if start is None:
            start = self._starts[key] = self.rng.randrange(len(options))
        return options[(start + self.rnd) % len(options)]


def _cfg(sections):
    lines = []
    for name, items in sections:
        lines.append("[%s]" % name)
        lines.extend("%s = %s" % (k, v) for k, v in items)
        lines.append("")
    return "\n".join(lines)


def _num(x):
    return repr(float(x))


def _run_op(index, family, params, domain, cost, source, check, files=None):
    budget = RECT_MAX_ITERATIONS if params["grid"] == "rectangle" else BALL_MAX_ITERATIONS
    params["max_iterations"] = budget
    sections = [("domain", domain), ("cost", cost), ("source", source),
                ("solver", [("max_iterations", budget)]), ("output", [("dir", "out")])]
    files = dict(files or {})
    files["case.cfg"] = _cfg(sections)
    check = dict(check, kind="run")
    return Op(index, family, params, ["run", "case.cfg"], files, check)


# ---------------------------------------------------------------------------
# ball-1d
# ---------------------------------------------------------------------------

def _cells(d):
    return d.integer("cells", BALL_CELLS[0], BALL_CELLS[1])


def _radial_domain(d):
    radius = d.uniform("radius", 0.5, 2.0, 4)
    dim = d.choice("dim", (1, 2, 3))
    n = _cells(d)
    return radius, dim, n, [("kind", "radial"), ("radius", _num(radius)),
                            ("n", n), ("dimension", dim)]


def _interval_domain(d):
    a = d.uniform("a", -1.5, -0.5, 4)
    b = d.uniform("b", 0.5, 1.5, 4)
    n = _cells(d)
    return a, b, n, [("kind", "interval"), ("a", _num(a)), ("b", _num(b)), ("n", n)]


def _ball_fixture(i, d):
    name, dim = d.choice("fixture", FIXTURES)
    res = _cells(d)
    argv = ["fixtures", "--name", name, "--resolution", str(res)]
    if dim is not None:
        argv += ["--dimension", str(dim)]
    params = {"command": "fixtures", "grid": "radial" if dim else "interval",
              "cells": res, "fixture": name, "dimension": dim}
    return Op(i, "fixture", params, argv, {}, {"kind": "fixture"})


def _ball_quadratic(i, d):
    # constant source on a ball: closed form u = (f R^4)^(1/3) U(r / R)
    radius, dim, n, domain = _radial_domain(d)
    value = d.uniform("value", 0.5, 2.0, 4)
    params = {"command": "run", "grid": "radial", "cells": n,
              "dimension": dim, "cost": "quadratic", "source": "constant",
              "atoms": 0}
    check = {"closed_form": {"dimension": dim, "center": 0.0, "radius": radius,
                             "value": value}}
    return _run_op(i, "quadratic-const", params, domain,
                   [("builtin", "quadratic")], [("value", _num(value))], check)


def _ball_power(i, d):
    p = d.uniform("p", 1.5, 4.0, 4)
    c0 = d.uniform("c0", 0.5, 1.5, 4)
    c1 = d.uniform("c1", 0.0, 1.0, 4)
    if d.choice("grid", ("radial", "interval")) == "radial":
        _r, dim, n, domain = _radial_domain(d)
        expr, grid = "%s + %s*r^2" % (c0, c1), "radial"
    else:
        _a, _b, n, domain = _interval_domain(d)
        expr, grid, dim = "%s + %s*x^2" % (c0, c1), "interval", 1
    params = {"command": "run", "grid": grid, "cells": n,
              "dimension": dim, "cost": "power", "p": p, "source": "expression",
              "atoms": 0}
    return _run_op(i, "power", params, domain, [("builtin", "power"), ("p", _num(p))],
                   [("expression", expr)], {})


def _atoms_1d(d, a, b, count):
    out = []
    for k in range(count):
        x = round(a + (b - a) * d.uniform("atom%d" % k, 0.2, 0.8, 4), 4)
        out.append("%s:%s" % (_num(x), _num(d.uniform("mass%d" % k, 0.2, 1.0, 4))))
    return ", ".join(out)


def _ball_linear(i, d):
    a, b, n, domain = _interval_domain(d)
    slope = d.uniform("slope", 0.25, 1.0, 4)
    value = d.uniform("value", 0.5, 2.0, 4)
    n_atoms = d.choice("atoms", (0, 1, 2))
    source = [("value", _num(value))]
    if n_atoms:
        source.append(("atoms", _atoms_1d(d, a, b, n_atoms)))
    params = {"command": "run", "grid": "interval", "cells": n,
              "dimension": 1, "cost": "linear", "slope": slope,
              "source": "constant", "atoms": n_atoms}
    return _run_op(i, "linear", params, domain,
                   [("builtin", "linear"), ("slope", _num(slope))], source, {})


def _ball_reciprocal(i, d):
    a, b, n, domain = _interval_domain(d)
    ca = d.uniform("ca", 0.5, 2.0, 4)
    cb = d.uniform("cb", 0.5, 2.0, 4)
    c0 = d.uniform("c0", 0.5, 1.5, 4)
    c1 = d.uniform("c1", 0.0, 1.0, 4)
    params = {"command": "run", "grid": "interval", "cells": n,
              "dimension": 1, "cost": "reciprocal", "source": "expression",
              "atoms": 0}
    return _run_op(i, "reciprocal", params, domain,
                   [("builtin", "reciprocal"), ("a", _num(ca)), ("b", _num(cb))],
                   [("expression", "%s + %s*x^2" % (c0, c1))], {})


def _ball_quadratic_atoms(i, d):
    a, b, n, domain = _interval_domain(d)
    value = d.uniform("value", 0.5, 2.0, 4)
    n_atoms = d.choice("atoms", (1, 2))
    params = {"command": "run", "grid": "interval", "cells": n,
              "dimension": 1, "cost": "quadratic", "source": "constant",
              "atoms": n_atoms}
    return _run_op(i, "quadratic-atoms", params, domain, [("builtin", "quadratic")],
                   [("value", _num(value)), ("atoms", _atoms_1d(d, a, b, n_atoms))], {})


def _ball_table(i, d):
    # a fixed rotation: the kinds differ a hundredfold in run time
    t_max, samples = KNOWN_TABLES[d.rnd % len(KNOWN_TABLES)]
    _r, dim, n, domain = _radial_domain(d)
    value = d.uniform("value", 0.5, 2.0, 4)
    rows = []
    for k in range(samples):
        t = t_max * k / (samples - 1)
        rows.append("%s,%s\n" % (_num(t), _num(0.5 * t * t)))
    params = {"command": "run", "grid": "radial", "cells": n,
              "dimension": dim, "cost": "table", "table_t_max": t_max,
              "table_samples": samples, "source": "constant", "atoms": 0}
    return _run_op(i, "table", params, domain, [("table", "table.csv")],
                   [("value", _num(value))], {}, files={"table.csv": "".join(rows)})


# ---------------------------------------------------------------------------
# rect-2d
# ---------------------------------------------------------------------------

def _rect_domain(d, size=None):
    nx = d.integer("nx", 32, 64)
    ny = d.integer("ny", 32, 64)
    if size is not None:
        nx, ny = size
    return nx, ny, [("kind", "rectangle"), ("ax", "0.0"), ("bx", "1.0"),
                    ("ay", "0.0"), ("by", "1.0"), ("nx", nx), ("ny", ny)]


def _rect_op(i, d, family, cost_items, cost_params, source_kind, n_atoms, size=None):
    nx, ny, domain = _rect_domain(d, size)
    if source_kind == "constant":
        source = [("value", _num(d.uniform("value", 0.5, 2.0, 4)))]
    else:
        c0 = d.uniform("c0", 0.5, 1.5, 4)
        c1 = d.uniform("c1", 0.0, 1.0, 4)
        source = [("expression", "%s + %s*x*y" % (c0, c1))]
    if n_atoms:
        atoms = []
        for k in range(n_atoms):
            x = d.uniform("ax%d" % k, 0.25, 0.75, 4)
            y = d.uniform("ay%d" % k, 0.25, 0.75, 4)
            atoms.append("%s %s:%s" % (_num(x), _num(y),
                                       _num(d.uniform("mass%d" % k, 0.2, 1.0, 4))))
        source.append(("atoms", ", ".join(atoms)))
    params = {"command": "run", "grid": "rectangle", "cells": nx * ny, "nx": nx,
              "ny": ny, "source": source_kind, "atoms": n_atoms}
    params.update(cost_params)
    return _run_op(i, family, params, domain, cost_items, source, {})


def _rect_quadratic_const(i, d):
    return _rect_op(i, d, "quadratic-const", [("builtin", "quadratic")],
                    {"cost": "quadratic"}, "constant", 0)


def _rect_quadratic_expr(i, d):
    return _rect_op(i, d, "quadratic-expr", [("builtin", "quadratic")],
                    {"cost": "quadratic"}, "expression", d.choice("atoms", (0, 1)))


def _rect_quadratic_atoms(i, d):
    return _rect_op(i, d, "quadratic-atoms", [("builtin", "quadratic")],
                    {"cost": "quadratic"}, "constant", d.choice("atoms", (1, 2)))


def _rect_power(i, d, family, source_kind, known=False):
    p = d.uniform("p", 1.5, 4.0, 4)
    size = None
    if known:
        p, size = KNOWN_POWER[0], KNOWN_POWER[1:]
    return _rect_op(i, d, family, [("builtin", "power"), ("p", _num(p))],
                    {"cost": "power", "p": p}, source_kind, 0, size)


def _rect_power_const(i, d):
    # strata centres never reach p = 1.5, so the known case has a fixed slot
    return _rect_power(i, d, "power-const", "constant", known=d.rnd == 0)


def _rect_power_expr(i, d):
    return _rect_power(i, d, "power-expr", "expression")


# ---------------------------------------------------------------------------
# conjugate-tables
# ---------------------------------------------------------------------------

def _conj_op(i, family, params, cost_items, s_lo, s_hi, closed_form, files=None,
             rows=CONJ_ROWS):
    files = dict(files or {})
    files["cost.cfg"] = _cfg([("cost", cost_items)])
    argv = ["conjugate", "cost.cfg", "--range", _num(s_lo), _num(s_hi),
            "--count", str(rows), "--output", "table.out.csv"]
    params = dict(params, command="conjugate", rows=rows, s_lo=s_lo, s_hi=s_hi)
    check = {"kind": "conjugate", "closed_form": closed_form, "s_lo": s_lo,
             "s_hi": s_hi, "rows": rows}
    return Op(i, family, params, argv, files, check)


def _conj_power(i, d):
    a = d.uniform("a", 0.0, 1.5, 4)
    b = d.uniform("b", 0.25, 2.0, 4)
    p = d.uniform("p", 1.5, 4.0, 4)
    cf = {"form": "power", "a": a, "b": b, "p": p}
    return _conj_op(i, "expr-power", {"cost": "expression", "a": a, "b": b, "p": p},
                    [("expression", "%s*t + %s*t^%s" % (a, b, p))],
                    d.uniform("s_lo", -2.0, 0.0, 4), d.uniform("s_hi", 1.0, 3.0, 4), cf)


def _conj_reciprocal(i, d):
    a = d.uniform("a", 0.5, 2.0, 4)
    b = d.uniform("b", 0.25, 2.0, 4)
    cf = {"form": "reciprocal", "a": a, "b": b}
    # the conjugate is finite below the recession slope a
    return _conj_op(i, "expr-reciprocal", {"cost": "expression", "a": a, "b": b},
                    [("expression", "%s*t + %s/t" % (a, b))],
                    d.uniform("s_lo", -2.0, -0.5, 4),
                    round(a - d.uniform("gap", 0.01, 0.4, 4), 4), cf)


def _conj_linear(i, d):
    k = d.uniform("k", 0.25, 1.5, 4)
    cf = {"form": "linear", "k": k}
    return _conj_op(i, "expr-linear", {"cost": "expression", "k": k},
                    [("expression", "%s*t" % k)],
                    d.uniform("s_lo", -2.0, 0.0, 4),
                    round(k * d.uniform("frac", 0.5, 0.98, 4), 4), cf)


def _conj_table(i, d, family, shapes):
    shape = d.choice("shape", shapes)
    samples = d.integer("samples", 101, 2001)
    t_max = d.uniform("t_max", 2.0, 8.0, 4)
    t_min = 0.0 if shape != "reciprocal" else d.uniform("t_min", 0.1, 0.5, 4)
    p = d.uniform("p", 1.5, 4.0, 4)
    rows = []
    for k in range(samples):
        t = t_min + (t_max - t_min) * k / (samples - 1)
        if shape == "quadratic":
            c = 0.5 * t * t
        elif shape == "power":
            c = t ** p / p
        else:
            c = t + 1.0 / t
        rows.append("%s,%s\n" % (_num(t), _num(c)))
    params = {"cost": "table", "shape": shape, "samples": samples, "t_max": t_max}
    if shape == "power":
        params["p"] = p
    # closed form of a piecewise-linear cost: the maximum over sample nodes
    return _conj_op(i, family, params, [("table", "table.csv")],
                    d.uniform("s_lo", -2.0, 0.0, 4), d.uniform("s_hi", 1.0, 4.0, 4),
                    {"form": "table", "file": "table.csv"},
                    files={"table.csv": "".join(rows)})


def _conj_table_power(i, d):
    return _conj_table(i, d, "table-power", ("quadratic", "power"))


def _conj_table_reciprocal(i, d):
    return _conj_table(i, d, "table-reciprocal", ("reciprocal",))


# Five families per 2-d and conjugate round: with an odd count the median op
# time falls inside one family's cluster, not on the edge between two.
FAMILIES = {
    "ball-1d": (_ball_fixture, _ball_quadratic, _ball_power, _ball_linear,
                _ball_reciprocal, _ball_quadratic_atoms, _ball_table),
    "rect-2d": (_rect_quadratic_const, _rect_quadratic_expr, _rect_power_const,
                _rect_quadratic_atoms, _rect_power_expr),
    "conjugate-tables": (_conj_power, _conj_table_power, _conj_reciprocal,
                         _conj_table_reciprocal, _conj_linear),
}

# one small op per workload, run once during set-up and never measured
WARMUP = {
    "ball-1d": Op(-1, "warmup", {}, ["run", "case.cfg"], {"case.cfg": _cfg([
        ("domain", [("kind", "radial"), ("radius", "1.0"), ("n", 512), ("dimension", 2)]),
        ("cost", [("builtin", "quadratic")]), ("source", [("value", "1.0")]),
        ("solver", [("max_iterations", BALL_MAX_ITERATIONS)]),
        ("output", [("dir", "out")])])}, {"kind": "run"}),
    "rect-2d": Op(-1, "warmup", {}, ["run", "case.cfg"], {"case.cfg": _cfg([
        ("domain", [("kind", "rectangle"), ("ax", "0.0"), ("bx", "1.0"), ("ay", "0.0"),
                    ("by", "1.0"), ("nx", 16), ("ny", 16)]),
        ("cost", [("builtin", "quadratic")]), ("source", [("value", "1.0")]),
        ("solver", [("max_iterations", RECT_MAX_ITERATIONS)]),
        ("output", [("dir", "out")])])}, {"kind": "run"}),
    "conjugate-tables": _conj_op(-1, "warmup", {}, [("expression", "t + t^2")], -1.0, 1.0,
                                 {"form": "power", "a": 1.0, "b": 1.0, "p": 2.0}, rows=11),
}


# nominal wall time of one round (one op per family) on a 2-core x86-64
# host; a run of ``seconds`` holds ``rounds(workload, seconds)`` rounds
ROUND_S = {"ball-1d": 8.0, "rect-2d": 6.5, "conjugate-tables": 7.0}


def rounds(workload, seconds):
    """Rounds in a run of ``seconds``: fixed by the arguments, not by timing.

    A run executes a fixed op list, so its attempted and failed counts
    depend only on the workload, the seed and ``seconds``.
    """
    return max(1, int(round(seconds / ROUND_S[workload])))


def ops(workload, seed, n_rounds):
    """Op list of ``workload`` for ``seed``: ``n_rounds`` rounds, one op per family.

    Every parameter range is cut into ``n_rounds`` strata, so each run
    covers each stratum once and runs of any seed do nearly equal work.
    """
    if workload not in FAMILIES:
        raise ValueError("unknown workload %r" % workload)
    families = FAMILIES[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    draws = [_Draws(random.Random(rng.random()), n_rounds, salt)
             for salt in range(len(families))]
    out = []
    for rnd in range(n_rounds):
        for make, d in zip(families, draws):
            d.rnd = rnd
            out.append(make(len(out), d))
    return out
