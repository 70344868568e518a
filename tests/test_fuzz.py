"""Seeded config fuzzer: every config the parser accepts ends with an honest exit code.

Each draw is a complete ``massopt run`` config: a grid, a cost (a builtin,
an expression or a random convex table), a source and, on some draws,
per-cell weights.  Every op must return one of the documented exit codes
0-4 from ``cli.main`` without an exception escaping it, and finish within
``OP_BOUND_S``.  A refusal (exit 2) prints exactly one stderr line, the
``config error:`` one.  A verdict other than 0 or 2 must fall in a named
slot of ``KNOWN`` with its reason; the draws are never narrowed to avoid
one.  A slot closes when its defect is mended.

``python tests/test_fuzz.py SEED COUNT`` runs a larger tally from the
command line, prints the failures and the verdicts by slot, and exits 1
when a draw fails.
"""

import contextlib
import io
import json
import random
import sys
import time

import numpy as np

from massopt import cli

SEED = 2026
N_CONFIGS = 100
# wall-clock bound on one op; the slowest draws, expression rectangles,
# take up to about 2 s on a 2-core x86-64 host
OP_BOUND_S = 5.0

EXPRESSIONS = ("t^1.5", "t + 1/t", "t + t^2/2")
BUILTINS = ("quadratic", "power", "linear", "reciprocal")
# Draw weights.  A 1-d op, or a builtin or table rectangle, takes 2-40 ms;
# an expression rectangle takes 0.1-2 s, since its conjugate bisects with
# dual-number derivatives (ROADMAP item 6).  So rectangles and expressions
# are drawn less often, to keep the tier-1 set near 2 s; none is left out.
GRIDS = {"interval": 2, "radial": 2, "rectangle": 1}
COSTS = {"builtin": 10, "table": 9, "expression": 1}

# Verdicts other than 0 and 2 that are known, by slot: which draws they
# hit, read from the draw (its grid kind, cost and source form), the exit
# code and the report, and why.  A verdict outside every slot fails.
KNOWN = {
    "table-rectangle-exit-3": (
        lambda case, code, report: case["grid"] == "rectangle"
        and case["cost"].startswith("table") and code == 3,
        "a table's smoothed Newton path stops when a level no longer lowers "
        "the certified gap, above the tolerance (ROADMAP items 7 and 13)"),
    "dead-zone-table-rectangle-exit-1": (
        lambda case, code, report: case["grid"] == "rectangle"
        and case["cost"] == "table from 0" and code == 1 and report["pde_residual"] > 1e-3,
        "a table from t = 0 has a dead zone, and cells that carry flux are "
        "handed the density floor, so the PDE fails (ROADMAP items 7 and 13)"),
    "smoothed-rectangle-load-scale-exit-1": (
        lambda case, code, report: case["grid"] == "rectangle" and code == 1
        and report["mu_levels"] > 0 and report["pde_residual"] <= 1e-3,
        "the stop rule's gap is relative to max(1, |objective|), so a small or "
        "large load stops at a smoothing level whose mu the verifier's absolute "
        "Fenchel and duality errors exceed (ROADMAP item 2)"),
    "barrier-rectangle-atom-exit-1": (
        lambda case, code, report: case["grid"] == "rectangle" and case["source"] == "atoms"
        and code == 1 and report["regime"] == "L" and report["pde_residual"] > 1e-3,
        "at an atom the log barrier's density is badly centred, and the PDE "
        "residual stays above 1e-3 (ROADMAP item 7, off-node atom)"),
}


def _grid(rng):
    """A grid kind, its keys, and each axis' extent ``(lo, hi)``."""
    kind, = rng.choices(list(GRIDS), list(GRIDS.values()))
    if kind == "interval":
        a = rng.uniform(-2.0, 0.0)
        b = a + rng.uniform(0.5, 3.0)
        return kind, {"a": a, "b": b, "n": rng.randint(8, 64)}, [(a, b)]
    if kind == "radial":
        radius = rng.uniform(0.5, 2.0)
        keys = {"radius": radius, "n": rng.randint(8, 64), "dimension": rng.randint(1, 3)}
        return kind, keys, [(0.0, radius)]
    bx, by = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    keys = {"ax": 0.0, "bx": bx, "ay": 0.0, "by": by,
            "nx": rng.randint(8, 12), "ny": rng.randint(8, 12)}
    return kind, keys, [(0.0, bx), (0.0, by)]


def _table(rng):
    """A convex table: increasing slopes on random knots, half of them from ``t = 0``."""
    n = rng.randint(3, 12)
    t0 = 0.0 if rng.random() < 0.5 else rng.uniform(0.1, 1.0)
    ts = t0 + np.cumsum([0.0] + [rng.uniform(0.1, 1.0) for _ in range(n - 1)])
    slopes = np.cumsum([rng.uniform(0.05, 1.0) for _ in range(n - 1)])
    cs = rng.uniform(0.0, 1.0) + np.concatenate([[0.0], np.cumsum(slopes * np.diff(ts))])
    return np.column_stack([ts, cs])


def _cost(rng, path):
    """The ``[cost]`` lines, and the cost's name in a draw's record."""
    form, = rng.choices(list(COSTS), list(COSTS.values()))
    if form == "expression":
        text = rng.choice(EXPRESSIONS)
        return "expression = " + text, text
    if form == "table":
        table = _table(rng)
        np.savetxt(path, table, delimiter=",", fmt="%.17g")
        return "table = %s" % path, "table from 0" if table[0, 0] == 0.0 else "table"
    name = rng.choice(BUILTINS)
    params = {"power": "\np = %r" % rng.uniform(1.2, 4.0),
              "linear": "\nslope = %r" % rng.uniform(0.1, 2.0),
              "reciprocal": "\na = %r\nb = %r" % (rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))}
    return "builtin = " + name + params.get(name, ""), name


def _source(rng, kind, extents):
    """The ``[source]`` lines, and their form."""
    form = rng.choice(("value", "expression", "atoms"))
    if form == "value":
        value = rng.choice((0.0, -rng.uniform(0.1, 10.0), 10.0 ** rng.uniform(-2.0, 3.0)))
        return "value = %r" % value, form
    if form == "expression":
        variable = {"interval": "x", "radial": "r", "rectangle": "x*y"}[kind]
        return "expression = " + rng.choice(("1", "2.5", "1 + " + variable,
                                             "1 - " + variable)), form
    atoms = ", ".join(
        " ".join("%r" % rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
                 for lo, hi in extents) + ":%r" % rng.uniform(-1.0, 2.0)
        for _ in range(rng.randint(1, 2)))
    return "atoms = " + atoms + ("\nvalue = 1.0" if rng.random() < 0.5 else ""), form


def draw(rng, tmp_path, index):
    """A ``massopt run`` config file, a record of what it draws, and its report's path."""
    kind, keys, extents = _grid(rng)
    cost, cost_name = _cost(rng, tmp_path / ("table%d.csv" % index))
    if rng.random() < 0.25:
        weights = tmp_path / ("weights%d.csv" % index)
        n_cells = keys["nx"] * keys["ny"] if kind == "rectangle" else keys["n"]
        np.savetxt(weights, [rng.uniform(0.2, 5.0) for _ in range(n_cells)])
        cost += "\nweight_table = %s" % weights
    source, source_form = _source(rng, kind, extents)
    domain = "".join("%s = %r\n" % item for item in keys.items())
    cfg = tmp_path / ("case%d.cfg" % index)
    out = tmp_path / ("out%d" % index)
    cfg.write_text("[domain]\nkind = %s\n%s\n[cost]\n%s\n\n[source]\n%s\n\n[output]\ndir = %s\n"
                   % (kind, domain, cost, source, out))
    return str(cfg), {"grid": kind, "cost": cost_name, "source": source_form}, out / "report.json"


def run_case(cfg):
    """``(exit code, stderr, seconds)`` of ``massopt run cfg`` in this process.

    An exception that escapes ``cli.main`` is returned as its text in place
    of the code.
    """
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["run", cfg])
        except Exception as exc:
            code = "%s: %s" % (type(exc).__name__, exc)
    return code, err.getvalue(), time.perf_counter() - start


def fuzz(tmp_path, seed, count):
    """Run ``count`` drawn configs; return the failures and the tally by slot."""
    rng = random.Random(seed)
    failures, tally = [], {}
    for index in range(count):
        cfg, case, report = draw(rng, tmp_path, index)
        code, err, seconds = run_case(cfg)
        report = json.loads(report.read_text()) if code in (0, 1, 3) else None
        slot = ("exit %d" % code if code in (0, 2) else
                next((name for name, (hits, _why) in KNOWN.items()
                      if hits(case, code, report)), None))
        tally[slot] = tally.get(slot, 0) + 1
        one_line = err.startswith("config error: ") and err.count("\n") == 1
        if slot is None or seconds > OP_BOUND_S or (code == 2 and not one_line):
            failures.append((cfg, case, code, err, seconds))
    return failures, tally


def test_every_drawn_config_ends_honestly(tmp_path):
    failures, tally = fuzz(tmp_path, SEED, N_CONFIGS)
    assert not failures, failures
    assert tally.get("exit 0", 0) >= N_CONFIGS // 2, tally


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        bad, counts = fuzz(pathlib.Path(scratch), int(sys.argv[1]), int(sys.argv[2]))
    for failure in bad:
        print("FAIL", failure)
    print(counts)
    sys.exit(1 if bad else 0)
