"""Command-line interface: configs, artifacts, determinism, exit codes."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import massopt as mo
from massopt import cli


def write(path, text):
    path.write_text(text)
    return str(path)


MK_CONFIG = """
[domain]
kind = interval
a = -1.0
b = 1.0
n = 256

[cost]
builtin = linear
slope = 0.5

[source]
value = 1.0

[solver]
max_iterations = 5000
gap_tolerance = 1e-8

[output]
dir = {out}
"""


def test_run_expression_cost_with_estimated_growth(tmp_path, capsys):
    # t + t^2 has an infinite recession slope, estimated from its values
    cfg = write(tmp_path / "run.cfg", """
[domain]
kind = interval
a = -1.0
b = 1.0
n = 64

[cost]
expression = t + t^2

[source]
value = 1.0

[output]
dir = {out}
""".format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True


INTERVAL_COST_CONFIG = """
[domain]
kind = interval
a = -1.0
b = 1.0
n = 64

[cost]
{cost}

[source]
value = 1.0

[output]
dir = {out}
"""


def test_run_cost_without_positive_recession_slope_is_config_error(tmp_path, capsys):
    # 1/(1+t) has recession slope 0; it is refused where the cost is built,
    # before any regime is taken
    cfg = write(tmp_path / "run.cfg", INTERVAL_COST_CONFIG.format(
        cost="expression = 1/(1+t)", out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cost.expression: ")
    assert "positive recession slope" in err
    assert not (tmp_path / "out").exists()


def test_run_cost_with_small_recession_slope_verifies(tmp_path):
    # the recession slope 1e-10 is resolved, so the cost is built and its
    # linear regime verifies
    cfg = write(tmp_path / "run.cfg", INTERVAL_COST_CONFIG.format(
        cost="expression = 1e-10*t + 1/(1+t)", out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] and report["regime"] == "L"


def _kinked_table(tmp_path):
    # slopes 1, 1, 2, 1: not convex, and a 64-point secant sample misses it
    table = tmp_path / "kinked.csv"
    table.write_text("0,0\n1,1\n2,2\n2.5,3\n3,3.5\n")
    return table


@pytest.mark.parametrize("domain", [
    "kind = interval\na = -1.0\nb = 1.0\nn = 64",
    "kind = rectangle\nax = 0.0\nbx = 1.0\nay = 0.0\nby = 1.0\nnx = 16\nny = 16",
], ids=["interval", "rectangle"])
def test_run_nonconvex_table_is_config_error(tmp_path, capsys, domain):
    cfg = write(tmp_path / "run.cfg", "[domain]\n%s\n\n[cost]\ntable = %s\n\n"
                "[source]\nvalue = 1.0\n\n[output]\ndir = %s\n"
                % (domain, _kinked_table(tmp_path), tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cost.table: ")
    assert "not convex" in err
    assert not (tmp_path / "out").exists()


def test_run_pipeline_exit_zero(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", MK_CONFIG.format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0
    out = tmp_path / "out"
    for name in ("u.csv", "measure.csv", "measure.json", "report.json",
                 "iterations.csv"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["regime"] == "L"
    assert report["pde_residual"] <= 1e-3
    # the exact 1-d certificate closes the gap with no iteration
    assert report["iterations"] == 0
    assert report["checks"] == 1
    assert report["method"] == "certificate"
    assert (out / "iterations.csv").read_text().splitlines()[1].startswith("0,")


def test_open_1d_certificate_exit_code(tmp_path, capsys):
    # no tolerance below the certificate's rounding-level gap can be met,
    # and a 1-d solve has nothing to iterate on
    text = MK_CONFIG.format(out=tmp_path / "out").replace(
        "builtin = linear\nslope = 0.5", "builtin = quadratic").replace(
        "gap_tolerance = 1e-8", "gap_tolerance = 1e-300")
    cfg = write(tmp_path / "open.cfg", text)
    assert cli.main(["run", cfg]) == 3
    assert "solver did not converge" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is False
    assert (report["method"], report["iterations"], report["checks"]) == ("certificate", 0, 1)


@pytest.mark.parametrize("expression", ["t + t^2/2", "t + 1/t", "t + 1/t\nt0 = 1e17"])
def test_interval_expression_cost_run(tmp_path, expression):
    # an expression cost's conjugate maps and flux inverse are vectorized
    # bisections, so an interval solve of it finishes like a builtin one; a
    # witness where a step of 1 rounds away still finds the recession slope
    text = MK_CONFIG.format(out=tmp_path / "out").replace(
        "builtin = linear\nslope = 0.5", "expression = " + expression).replace(
        "n = 256", "n = 1024")
    cfg = write(tmp_path / "expr.cfg", text)
    start = time.monotonic()
    assert cli.main(["run", cfg]) == 0
    assert time.monotonic() - start <= 10.0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"] is True


def test_run_is_deterministic(tmp_path):
    cfg1 = write(tmp_path / "a.cfg", MK_CONFIG.format(out=tmp_path / "o1"))
    cfg2 = write(tmp_path / "b.cfg", MK_CONFIG.format(out=tmp_path / "o2"))
    assert cli.main(["run", cfg1]) == 0
    assert cli.main(["run", cfg2]) == 0
    for name in ("u.csv", "measure.csv", "measure.json", "iterations.csv"):
        b1 = (tmp_path / "o1" / name).read_bytes()
        b2 = (tmp_path / "o2" / name).read_bytes()
        assert b1 == b2, name


def test_measure_reimport_scores_identically(tmp_path):
    cfg = write(tmp_path / "run.cfg", MK_CONFIG.format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0
    config = cli.parse_config(cfg)
    problem = mo.build_problem(config.grid, config.cost, config.source)
    solution = mo.solve_auxiliary(problem, config.solver_params)
    mu = mo.recover_measure(solution, problem)
    back = mo.read_measure(tmp_path / "out" / "measure.csv",
                           tmp_path / "out" / "measure.json")
    r1 = mo.verify_conditions(mu, solution, problem)
    r2 = mo.verify_conditions(back, solution, problem)
    for field in mo.OptimalityReport.FIELDS:
        assert abs(getattr(r1, field) - getattr(r2, field)) <= 1e-12


def test_bad_resolution_is_config_error(tmp_path, capsys):
    text = MK_CONFIG.format(out=tmp_path / "out").replace("n = 256", "n = -4")
    cfg = write(tmp_path / "bad.cfg", text)
    assert cli.main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_two_cost_forms_rejected(tmp_path):
    text = MK_CONFIG.format(out=tmp_path / "out").replace(
        "builtin = linear", "builtin = linear\nexpression = t/2")
    cfg = write(tmp_path / "two.cfg", text)
    assert cli.main(["run", cfg]) == 2


def test_missing_section_rejected(tmp_path):
    cfg = write(tmp_path / "nosrc.cfg", """
[domain]
kind = interval
a = -1
b = 1
n = 64

[cost]
builtin = quadratic
""")
    assert cli.main(["run", cfg]) == 2


def test_not_converged_exit_code(tmp_path):
    cfg = write(tmp_path / "hard.cfg", """
[domain]
kind = rectangle
ax = 0.0
bx = 1.0
ay = 0.0
by = 1.0
nx = 10
ny = 10

[cost]
builtin = quadratic

[source]
value = 1.0

[solver]
max_iterations = 2
gap_tolerance = 1e-14

[output]
dir = {out}
""".format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 3


def test_expression_cost_config_conjugate_spot_check(tmp_path, capsys):
    cfg = write(tmp_path / "recip.cfg", """
[cost]
expression = t + 1/t
""")
    assert cli.main(["conjugate", cfg, "--range", "0", "0", "--count", "2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    s, value, lo, hi = (float(tok) for tok in rows[1].split(","))
    assert value == pytest.approx(-2.0, abs=1e-6)
    assert lo == pytest.approx(1.0, abs=1e-4)
    assert hi == pytest.approx(1.0, abs=1e-4)


def test_conjugate_table_quadratic(tmp_path, capsys):
    cfg = write(tmp_path / "quad.cfg", "[cost]\nbuiltin = quadratic\n")
    assert cli.main(["conjugate", cfg, "--range", "-1", "3", "--count", "5"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "s,value,subdiff_lo,subdiff_hi"
    last = [float(tok) for tok in rows[-1].split(",")]
    assert last == pytest.approx([3.0, 4.5, 3.0, 3.0])


def test_conjugate_table_indicator_boundary(tmp_path, capsys):
    cfg = write(tmp_path / "lin.cfg", "[cost]\nbuiltin = linear\nslope = 0.5\n")
    assert cli.main(["conjugate", cfg, "--range", "0.5", "0.5", "--count", "2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    s, value, lo, hi = (float(tok) for tok in rows[1].split(","))
    assert (s, value, lo) == (0.5, 0.0, 0.0)
    assert math.isinf(hi)


def test_conjugate_table_row_within_threshold_slack(tmp_path, capsys):
    # the row mask and the subdifferential share one rounding slack, so a
    # row of finite value has both subdifferential ends
    cfg = write(tmp_path / "lin.cfg", "[cost]\nbuiltin = linear\nslope = 0.5\n")
    s = "%.17g" % (0.5 + 1e-12)
    assert cli.main(["conjugate", cfg, "--range", s, s, "--count", "2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    s_row, value, lo, hi = (float(tok) for tok in rows[1].split(","))
    assert s_row > 0.5
    assert (value, lo) == (0.0, 0.0)
    assert math.isinf(hi)


@pytest.mark.parametrize("expression", ["1/(1+t)", "-t"])
def test_conjugate_refuses_cost_without_linear_growth(tmp_path, capsys, expression):
    cfg = write(tmp_path / "bad.cfg", "[cost]\nexpression = %s\n" % expression)
    assert cli.main(["conjugate", cfg, "--range", "0", "1", "--count", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive recession slope" in captured.err


@pytest.mark.parametrize("cost", ["table = {table}", "expression = t^2 + t^0.5"],
                         ids=["kinked-table", "concave-near-zero"])
def test_conjugate_refuses_nonconvex_cost(tmp_path, capsys, cost):
    # a non-convex cost has no conjugate table to print: exit 2, as in run
    cfg = write(tmp_path / "bad.cfg",
                "[cost]\n%s\n" % cost.format(table=_kinked_table(tmp_path)))
    assert cli.main(["conjugate", cfg, "--range", "1", "3", "--count", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cost.")
    assert "not convex" in captured.err


def test_conjugate_output_that_cannot_be_opened_exit_code(tmp_path, capsys):
    # like run's write failures: exit 4 and one line on stderr, no traceback
    cfg = write(tmp_path / "quad.cfg", "[cost]\nbuiltin = quadratic\n")
    out = tmp_path / "missing" / "table.csv"
    assert cli.main(["conjugate", cfg, "--range", "0", "1", "--count", "3",
                     "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("ends", [("nan", "1"), ("0", "inf")], ids=["nan", "inf"])
def test_conjugate_non_finite_range_is_config_error(tmp_path, capsys, ends):
    cfg = write(tmp_path / "c.cfg", "[cost]\nbuiltin = quadratic\n")
    assert cli.main(["conjugate", cfg, "--range", *ends, "--count", "3"]) == 2
    captured = capsys.readouterr()
    assert "config error: --range" in captured.err
    assert captured.out == ""


def test_conjugate_table_outside_domain_rows(tmp_path, capsys):
    cfg = write(tmp_path / "lin.cfg", "[cost]\nbuiltin = linear\nslope = 0.5\n")
    assert cli.main(["conjugate", cfg, "--range", "1.0", "1.0", "--count", "2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    toks = rows[1].split(",")
    assert float(toks[1]) == math.inf
    assert math.isnan(float(toks[2])) and math.isnan(float(toks[3]))


def test_atoms_config(tmp_path):
    cfg = write(tmp_path / "atom.cfg", """
[domain]
kind = interval
a = -1.0
b = 1.0
n = 128

[cost]
builtin = linear
slope = 0.5

[source]
atoms = 0.0:1.0

[output]
dir = {out}
""".format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0


RECT_ATOM_CONFIG = """
[domain]
kind = rectangle
ax = 0.0
bx = 1.0
ay = 0.0
by = 1.0
nx = 8
ny = 8

[cost]
builtin = quadratic

[source]
atoms = {atoms}

[output]
dir = {out}
"""


@pytest.mark.parametrize("atoms", ["0.5:1.0", "0.5 0.5 0.5:1.0"], ids=["one", "three"])
def test_atom_with_wrong_coordinate_count_is_config_error(tmp_path, capsys, atoms):
    # a rectangle atom needs exactly two coordinates
    cfg = write(tmp_path / "atom.cfg",
                RECT_ATOM_CONFIG.format(atoms=atoms, out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error: source.atoms: " in err and "needs 2 coordinate" in err


_RECT_16 = "kind = rectangle\nax = 0.0\nbx = 1.0\nay = 0.0\nby = 1.0\nnx = 16\nny = 16"
_INTERVAL_64 = "kind = interval\na = -1.0\nb = 1.0\nn = 64"


@pytest.mark.parametrize("domain, source, key", [
    (_RECT_16, "value = nan", "value"),
    (_INTERVAL_64, "value = inf", "value"),
    (_INTERVAL_64, "expression = 1/x", "expression"),  # +inf at the node x = 0
    (_INTERVAL_64, "value = 1.0\natoms = 0.5:nan", "atoms"),
    (_RECT_16, "value = 1.0\natoms = 0.5 0.5:inf", "atoms"),
], ids=["rectangle-value-nan", "interval-value-inf", "interval-expression-pole",
        "interval-atom-nan", "rectangle-atom-inf"])
def test_non_finite_source_is_config_error(tmp_path, capsys, domain, source, key):
    # a source that is not finite is refused where it is parsed, naming its key
    cfg = write(tmp_path / "run.cfg", "[domain]\n%s\n\n[cost]\nbuiltin = quadratic\n\n"
                "[source]\n%s\n\n[output]\ndir = %s\n" % (domain, source, tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: source.%s: " % key) and "not finite" in err
    assert not (tmp_path / "out").exists()


def test_output_dir_that_is_a_file_is_config_error(tmp_path, capsys):
    (tmp_path / "out").write_text("not a directory\n")
    cfg = write(tmp_path / "run.cfg", MK_CONFIG.format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: output.dir: ")


@pytest.mark.parametrize("name", ["iterations.csv", "u.csv", "measure.csv", "measure.json",
                                  "report.json"])
def test_output_write_failure_exit_code(tmp_path, capsys, name):
    # a directory in the way of an output file fails its open(); the run
    # reports it and exits 4, not with a traceback
    (tmp_path / "out" / name).mkdir(parents=True)
    cfg = write(tmp_path / "run.cfg", MK_CONFIG.format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 4
    assert "error: IsADirectoryError: " in capsys.readouterr().err


def test_source_expression_config(tmp_path):
    cfg = write(tmp_path / "expr.cfg", """
[domain]
kind = interval
a = -1.0
b = 1.0
n = 128

[cost]
builtin = quadratic

[source]
expression = 1 - x^2

[output]
dir = {out}
""".format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0


def test_rectangle_pipeline(tmp_path):
    cfg = write(tmp_path / "rect.cfg", """
[domain]
kind = rectangle
ax = 0.0
bx = 1.0
ay = 0.0
by = 1.0
nx = 12
ny = 12

[cost]
builtin = quadratic

[source]
value = 1.0

[solver]
max_iterations = 3000
gap_tolerance = 1e-6

[verify]
pde_residual = 0.05
duality_identity_error = 0.001

[output]
dir = {out}
""".format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["regime"] == "SL"
    # Newton certifies every step: one log row per step plus the start
    assert report["method"] == "newton"
    assert report["checks"] == report["iterations"] + 1


RECT_CONFIG = """
[domain]
kind = rectangle
ax = 0.0
bx = 1.0
ay = 0.0
by = 1.0
nx = {n}
ny = {n}

[cost]
{cost}

[source]
value = 1.0

[solver]
max_iterations = {budget}

[output]
dir = {out}
"""


def test_rectangle_power_known_case(tmp_path):
    # p = 1.5 at 48x48: the splitting stalled at a PDE residual above 1e-3
    cfg = write(tmp_path / "p15.cfg", RECT_CONFIG.format(
        n=48, cost="builtin = power\np = 1.5", budget=400, out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["method"] == "newton"
    assert report["iterations"] <= 12
    assert report["pde_residual"] <= 1e-8


@pytest.mark.parametrize("domain", [
    "kind = radial\nradius = 1.0\nn = 256\ndimension = 2",
    "kind = rectangle\nax = 0.0\nbx = 1.0\nay = 0.0\nby = 1.0\nnx = 16\nny = 16",
], ids=["radial", "rectangle"])
def test_report_counts_factorisations(tmp_path, domain):
    cfg = write(tmp_path / "f.cfg", "[domain]\n%s\n\n[cost]\nbuiltin = quadratic\n\n"
                "[source]\nvalue = 1.0\n\n[output]\ndir = %s\n"
                % (domain, tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["mu_levels"] == 0
    if report["method"] == "certificate":
        assert report["factorisations"] == 0
    else:
        # the Poisson start's unit factor, one per Newton step taken, and
        # one for a last step that gave no decrease
        assert report["method"] == "newton"
        assert report["factorisations"] - report["iterations"] in (1, 2)


def test_rectangle_tabulated_cost_reports_newton(tmp_path):
    ts = np.linspace(0.0, 4.0, 17)
    table = tmp_path / "cost.csv"
    np.savetxt(table, np.column_stack([ts, 0.5 * ts * ts]), delimiter=",")
    cfg = write(tmp_path / "tab.cfg", RECT_CONFIG.format(
        n=8, cost="table = %s" % table, budget=50, out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["method"] == "newton"
    # the budget ends the seventh smoothing level; one factor per step, and
    # one for each of three levels that ended on a step that gave no decrease
    assert (report["iterations"], report["mu_levels"], report["factorisations"]) == (50, 7, 53)
    # a certificate per iterate, and one more at each level entered after the first
    assert report["checks"] == report["iterations"] + report["mu_levels"]


@pytest.mark.parametrize("cost", [
    "builtin = linear\nslope = 0.5", "builtin = reciprocal",
    "builtin = linear\nslope = 0.5\nweight_table = {w}",
], ids=["linear", "reciprocal", "weighted-linear"])
def test_rectangle_linear_growth_costs_pass(tmp_path, cost):
    # the barrier's central-path multiplier is the measure in the linear regime
    weights = tmp_path / "w.csv"
    np.savetxt(weights, np.geomspace(0.2, 5.0, 32 * 32), delimiter=",")
    cfg = write(tmp_path / "lin.cfg", RECT_CONFIG.format(
        n=32, cost=cost.format(w=weights), budget=400, out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] and report["regime"] == "L" and report["mu_levels"] > 0


def test_table_cost_config(tmp_path, capsys):
    ts = np.linspace(0.0, 8.0, 20001)
    table = tmp_path / "cost.csv"
    np.savetxt(table, np.column_stack([ts, 0.5 * ts * ts]), delimiter=",")
    cfg = write(tmp_path / "tab.cfg", "[cost]\ntable = %s\n" % table)
    assert cli.main(["conjugate", cfg, "--range", "3", "3", "--count", "2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    value = float(rows[1].split(",")[1])
    assert value == pytest.approx(4.5, abs=1e-5)


def test_radial_table_cost_run(tmp_path):
    # t^2/2 tabulated to t = 8: the growth estimate sees the table nodes, and
    # the 1-d recovery reads the density off the certificate's flux
    ts = np.linspace(0.0, 8.0, 257)
    table = tmp_path / "cost.csv"
    np.savetxt(table, np.column_stack([ts, 0.5 * ts * ts]), delimiter=",")
    cfg = write(tmp_path / "tab.cfg", """
[domain]
kind = radial
radius = 1.0
n = 512
dimension = 2

[cost]
table = {t}

[source]
value = 1.0

[output]
dir = {out}
""".format(t=table, out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["method"] == "certificate"
    assert report["pde_residual"] <= 1e-10


def test_conjugate_weight_table_needs_domain(tmp_path, capsys):
    weights = tmp_path / "w.csv"
    np.savetxt(weights, np.ones(8), delimiter=",")
    cfg = write(tmp_path / "w.cfg", "[cost]\nbuiltin = quadratic\nweight_table = %s\n"
                % weights)
    assert cli.main(["conjugate", cfg, "--range", "0", "1", "--count", "2"]) == 2
    assert "cost.weight_table needs a [domain] section" in capsys.readouterr().err


def test_weight_table_config(tmp_path):
    g_cells = 128
    weights = tmp_path / "w.csv"
    np.savetxt(weights, 1.0 + 0.25 * np.linspace(0, 1, g_cells), delimiter=",")
    cfg = write(tmp_path / "het.cfg", """
[domain]
kind = interval
a = -1.0
b = 1.0
n = 128

[cost]
builtin = quadratic
weight_table = {w}

[source]
value = 1.0

[output]
dir = {out}
""".format(w=weights, out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert any("Lavrentiev" in a for a in report["assumptions"])


def test_non_finite_weight_table_is_config_error(tmp_path, capsys):
    weights = tmp_path / "w.csv"
    table = np.ones(256)
    table[17] = np.nan
    np.savetxt(weights, table, delimiter=",")
    text = MK_CONFIG.format(out=tmp_path / "out").replace(
        "slope = 0.5\n", "slope = 0.5\nweight_table = %s\n" % weights)
    cfg = write(tmp_path / "nan.cfg", text)
    assert cli.main(["run", cfg]) == 2
    assert "config error: cell weights must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("domain", [
    "kind = interval\na = 1.0\nb = 1.0\nn = 256\n",
    "kind = radial\nradius = -1\ndimension = 2\nn = 256\n",
    "kind = radial\nradius = 1\ndimension = 0\nn = 256\n",
    "kind = rectangle\nax = 1.0\nbx = 0.0\nay = 0.0\nby = 1.0\nnx = 16\nny = 16\n",
    "kind = interval\na = -1.0\nb = inf\nn = 256\n",
    "kind = radial\nradius = inf\ndimension = 2\nn = 256\n",
    "kind = rectangle\nax = 0.0\nbx = inf\nay = 0.0\nby = 1.0\nnx = 16\nny = 16\n",
], ids=["interval-b<=a", "radial-radius<0", "radial-dimension<1", "rectangle-bx<=ax",
        "interval-b=inf", "radial-radius=inf", "rectangle-bx=inf"])
def test_bad_grid_is_config_error(tmp_path, capsys, domain):
    text = MK_CONFIG.format(out=tmp_path / "out").replace(
        "kind = interval\na = -1.0\nb = 1.0\nn = 256\n", domain)
    cfg = write(tmp_path / "grid.cfg", text)
    assert cli.main(["run", cfg]) == 2
    assert "config error: domain: " in capsys.readouterr().err
    assert cli.main(["conjugate", cfg, "--range", "0", "1", "--count", "2"]) == 2
    assert "config error: domain: " in capsys.readouterr().err


@pytest.mark.parametrize("domain", [
    "kind = radial\nradius = 1.0\nn = 64\ndimension = 400",
    "kind = radial\nradius = 1.0\nn = 64\ndimension = 200",
    "kind = radial\nradius = 1e200\nn = 64\ndimension = 3",
    "kind = interval\na = -1e308\nb = 1e308\nn = 64",
    "kind = rectangle\nax = 0.0\nbx = 1e-300\nay = 0.0\nby = 1e-300\nnx = 8\nny = 8",
], ids=["radial-dimension-400", "radial-dimension-200", "radial-radius-1e200",
        "interval-length-overflows", "rectangle-cells-underflow"])
def test_grid_cells_outside_float_range_are_config_error(tmp_path, capsys, domain):
    # cell volumes that overflow, underflow or cannot be computed are refused
    cfg = write(tmp_path / "g.cfg", "[domain]\n%s\n\n[cost]\nbuiltin = quadratic\n\n"
                "[source]\nvalue = 1.0\n\n[output]\ndir = %s\n" % (domain, tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: domain: ")


@pytest.mark.parametrize("dimension", ["0", "-1", "4000"])
def test_fixture_dimension_outside_range_is_config_error(capsys, dimension):
    assert cli.main(["fixtures", "--name", "quadratic_ball_uniform",
                     "--dimension", dimension, "--resolution", "64"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("p", ["1.0005", "1.00001", "1.0000001"])
@pytest.mark.parametrize("domain", [
    "kind = interval\na = -1.0\nb = 1.0\nn = 256",
    "kind = radial\nradius = 1.0\nn = 256\ndimension = 3",
], ids=["interval", "radial"])
def test_power_cost_near_one_runs_in_1d(tmp_path, domain, p):
    # 2^(q-1) overflows a double once p < 1 + 1/1024
    cfg = write(tmp_path / "p.cfg", "[domain]\n%s\n\n[cost]\nbuiltin = power\np = %s\n\n"
                "[source]\nvalue = 1.0\n\n[output]\ndir = %s\n" % (domain, p, tmp_path / "out"))
    assert cli.main(["run", cfg]) == 0


def test_infinite_gap_is_reported_as_infinite(tmp_path, capsys):
    # p = 1.01 at 16x16: no iterate is certified, so the gap is infinite
    out = tmp_path / "out"
    cfg = write(tmp_path / "p.cfg", RECT_CONFIG.format(
        n=16, cost="builtin = power\np = 1.01", budget=20000, out=out))
    assert cli.main(["run", cfg]) == 3
    assert "relative gap inf" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["relative_gap"] == "inf" and report["converged"] is False


def test_iteration_log_kept_when_recovery_fails(tmp_path, capsys, monkeypatch):
    # the log is written as soon as the solve returns
    def fail(solution, problem):
        raise mo.Unbounded("no measure")

    monkeypatch.setattr(cli, "recover_measure", fail)
    out = tmp_path / "out"
    cfg = write(tmp_path / "run.cfg", MK_CONFIG.format(out=out))
    assert cli.main(["run", cfg]) == 4
    assert "error: Unbounded: no measure" in capsys.readouterr().err
    lines = (out / "iterations.csv").read_text().splitlines()
    assert lines[0] == "iteration,primal,dual,gap" and lines[1].startswith("0,")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("setting, message", [
    ("max_iterations = -3", "max_iterations must be >= 1"),
    ("max_iterations = 5000\ncheck_every = -5", "unknown solver key 'check_every'"),
], ids=["max_iterations", "check_every"])
def test_budget_below_one_is_config_error(tmp_path, capsys, setting, message):
    text = MK_CONFIG.format(out=tmp_path / "out").replace("max_iterations = 5000", setting)
    cfg = write(tmp_path / "budget.cfg", text)
    assert cli.main(["run", cfg]) == 2
    assert message in capsys.readouterr().err


def test_post_build_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a failure after the problem is built gets its own code, not a traceback
    # whose exit code 1 would read as "thresholds failed"
    def fail(problem, params):
        raise mo.ScheduleTooShort("regularization iterates not settled")

    monkeypatch.setattr(cli, "solve_auxiliary", fail)
    cfg = write(tmp_path / "run.cfg", MK_CONFIG.format(out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 4
    err = capsys.readouterr().err
    assert "error: ScheduleTooShort: regularization iterates not settled" in err


def test_fixtures_post_build_failure_exit_code(capsys, monkeypatch):
    def fail(problem, params):
        raise mo.ScheduleTooShort("regularization iterates not settled")

    monkeypatch.setattr(cli, "solve_auxiliary", fail)
    assert cli.main(["fixtures", "--name", "quadratic_ball_uniform",
                     "--dimension", "2", "--resolution", "64"]) == 4
    err = capsys.readouterr().err
    assert "error: ScheduleTooShort: regularization iterates not settled" in err
    assert "config error" not in err


def test_threshold_failure_exit_code(tmp_path):
    # the run's pde_residual is at rounding level, about 1e-16
    text = MK_CONFIG.format(out=tmp_path / "out") + "\n[verify]\npde_residual = 1e-30\n"
    cfg = write(tmp_path / "tight.cfg", text)
    assert cli.main(["run", cfg]) == 1


def test_non_finite_gap_tolerance_is_config_error(tmp_path, capsys):
    # an infinite tolerance would call any certificate converged
    cfg = write(tmp_path / "inf.cfg", RECT_CONFIG.format(
        n=16, cost="builtin = linear\nslope = 0.5", budget="50\ngap_tolerance = inf",
        out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    assert "config error: section [solver]: gap_tolerance" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_flag_paths(tmp_path):
    cfg = write(tmp_path / "run.cfg", MK_CONFIG.format(out=tmp_path / "out"))
    log = tmp_path / "custom_log.csv"
    rep = tmp_path / "custom_report.json"
    assert cli.main(["run", cfg, "--log", str(log), "--json-report", str(rep)]) == 0
    assert log.exists() and rep.exists()
    assert "pde_residual" in json.loads(rep.read_text())


def test_fixtures_command(capsys):
    assert cli.main(["fixtures", "--name", "quadratic_ball_uniform",
                     "--dimension", "2", "--resolution", "256"]) == 0
    out = capsys.readouterr().out
    assert "u_rel_sup_error" in out


def test_missing_config_file():
    assert cli.main(["run", "/nonexistent/path.cfg"]) == 2


def test_readme_lists_every_config_key():
    # the README's ini block and the reader's table name the same keys,
    # section by section
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    listed, section = {}, None
    for line in block.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        key = re.match(r"#?\s*(\w+)\s*=", line)
        if header:
            section = listed.setdefault(header.group(1), set())
        elif key:
            section.add(key.group(1))
    declared = {name: set(keys) for name, keys in cli.SECTIONS.items()}
    declared["domain"].update(*cli.GRID_KEYS.values())
    declared["cost"].update(*cli.COST_FORMS.values(), *cli.BUILTIN_PARAMS.values())
    assert listed == declared


def test_percent_in_a_value_is_literal(tmp_path):
    # values are read without interpolation
    cfg = write(tmp_path / "run.cfg", MK_CONFIG.format(out=tmp_path / "out%1"))
    assert cli.main(["run", cfg]) == 0
    assert (tmp_path / "out%1" / "report.json").exists()


INTERVAL = "kind = interval\na = -1.0\nb = 1.0\nn = 256"
RUN = ["run", "{cfg}"]
CONJUGATE = ["conjugate", "{cfg}", "--range", "0", "1", "--count", "3"]


# Files that every command refuses, since each reads the whole file
# against one table of sections and keys: (id, edits, message).
FILE_REFUSALS = [
    ("unknown-domain-key", [("n = 256", "n = 256\nnx = 16")],
     "config error: domain: interval takes no key 'nx'"),
    ("unknown-source-key", [("value = 1.0", "value = 1.0\nvalu = 2.0")],
     "config error: unknown source key 'valu'"),
    ("unknown-output-key", [("dir = {out}", "dir = {out}\nformat = csv")],
     "config error: unknown output key 'format'"),
    ("unknown-solver-key", [("max_iterations = 5000", "max_iterations = 5000\ntol = 1e-9")],
     "config error: unknown solver key 'tol'"),
    ("expression-with-slope", [("builtin = linear", "expression = t/2")],
     "config error: cost.expression takes no key 'slope'"),
    ("linear-with-p", [("slope = 0.5", "slope = 0.5\np = 2.0")],
     "config error: cost.builtin: linear takes no key 'p'"),
    ("builtin-with-t0", [("slope = 0.5", "slope = 0.5\nt0 = 2.0")],
     "config error: cost.builtin: linear takes no key 't0'"),
    ("unknown-section", [("[solver]", "[sovler]")], "config error: unknown section [sovler]"),
    ("default-section", [("[solver]", "[DEFAULT]")], "config error: unknown section [DEFAULT]"),
    ("power-without-p", [("builtin = linear\nslope = 0.5", "builtin = power")],
     "config error: missing key 'p' in section [cost]"),
    ("duplicate-section", [("[output]", "[source]\nvalue = 2.0\n\n[output]")],
     "section 'source' already exists"),
    ("duplicate-key", [("n = 256", "n = 256\nn = 128")],
     "option 'n' in section 'domain' already exists"),
    ("line-before-header", [("[domain]", "n = 256\n[domain]")],
     "File contains no section headers."),
    ("non-utf8-byte", [("value = 1.0", "value = 1.0  # \udcff")],
     "'utf-8' codec can't decode byte 0xff"),
]


@pytest.mark.parametrize("argv, edits, message", [
    (RUN, [(INTERVAL, "kind = radial\nradius = 1.0\nn = 4\ndimension = 2")],
     "domain.n must be >= 8"),
    (RUN, [(INTERVAL, "kind = rectangle\nax = 0\nbx = 1\nay = 0\nby = 1\nnx = 4\nny = 16")],
     "domain.nx/ny must be >= 8"),
    (RUN, [(INTERVAL, "kind = rectangle\nax = 0\nbx = 1\nay = 0\nby = 1\nnx = 16\nny = 4")],
     "domain.nx/ny must be >= 8"),
    (RUN, [("kind = interval", "kind = sphere")],
     "domain.kind must be interval|radial|rectangle, got 'sphere'"),
    (RUN, [("[domain]", "[grid]")], "missing section [domain]"),
    (RUN, [("[cost]", "[costs]")], "missing section [cost]"),
    (RUN, [("n = 256", "n = many")], "bad value 'many' for key 'n' in section [domain]"),
    (RUN, [("slope = 0.5", "slope = 0.5\np = 2.0")], "cost.builtin: "),
    (RUN, [("slope = 0.5", "slope = 0.5\nweight_table = {tmp}/missing.csv")],
     "cost.weight_table: "),
    (RUN, [("slope = 0.5", "slope = 0.5\nweight_table = {tmp}/three.csv")],
     "cost.weight_table needs 256 per-cell values"),
    (RUN, [("value = 1.0", "value = 1.0\nexpression = 1 + x")],
     "section [source] takes value or expression, not both"),
    (RUN, [("value = 1.0", "")], "section [source] needs value, expression or atoms"),
    (RUN, [("value = 1.0", "atoms = 0.5")], "source.atoms entry '0.5' is not"),
    (RUN, [("[output]", "[verify]\nresidual = 1e-3\n\n[output]")],
     "unknown verify threshold 'residual'"),
    (RUN, [("[output]", "[verify]\npde_residual = 0\n\n[output]")],
     "verify.pde_residual must be positive"),
    (["conjugate", "{tmp}/missing.cfg", "--range", "0", "1"], [], "cannot read config file"),
    (CONJUGATE, [("[cost]", "[costs]")], "missing section [cost]"),
    (CONJUGATE[:-1] + ["1"], [], "--count must be >= 2"),
] + [(argv, edits, message) for _id, edits, message in FILE_REFUSALS
     for argv in (RUN, CONJUGATE)],
    ids=["radial-n", "rectangle-nx", "rectangle-ny", "unknown-kind", "no-domain", "no-cost",
         "bad-value", "unknown-builtin-parameter", "unreadable-weight-table",
         "weight-table-size", "value-and-expression", "empty-source", "malformed-atom",
         "unknown-verify-key", "non-positive-threshold", "conjugate-unreadable-config",
         "conjugate-no-cost", "conjugate-count-1"]
    + [prefix + case for case, _edits, _message in FILE_REFUSALS
       for prefix in ("", "conjugate-")])
def test_config_refusal_exit_code(tmp_path, capsys, argv, edits, message):
    (tmp_path / "three.csv").write_text("1.0\n2.0\n3.0\n")
    text = MK_CONFIG
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "case.cfg"
    # a lone surrogate in the text stands for the byte it escapes
    cfg.write_bytes(text.format(out=tmp_path / "out", tmp=tmp_path).encode(
        "utf-8", "surrogateescape"))
    assert cli.main([arg.format(cfg=cfg, tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert message in captured.err
    assert captured.out == ""


DEEP = {"parentheses": "(" * 300 + "t" + ")" * 300, "sum": "+".join(["t"] * 1500),
        "minus": "-" * 1200 + "t"}


@pytest.mark.parametrize("expression", list(DEEP.values()), ids=list(DEEP))
def test_deep_expression_is_config_error(tmp_path, capsys, expression):
    # each used to escape as a RecursionError, whose exit code 1 reads as
    # "thresholds failed"
    text = MK_CONFIG.format(out=tmp_path / "out").replace("n = 256", "n = 16")
    cost = write(tmp_path / "cost.cfg", text.replace("builtin = linear\nslope = 0.5",
                                                     "expression = " + expression))
    for argv in (RUN, CONJUGATE):
        argv = [arg.format(cfg=cost) for arg in argv]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: cost.expression: ")
    source = write(tmp_path / "source.cfg", text.replace(
        "value = 1.0", "expression = " + expression.replace("t", "x")))
    assert cli.main(["run", source]) == 2
    assert capsys.readouterr().err.startswith("config error: source.expression: ")
    assert not (tmp_path / "out").exists()


_NO_OPTIMIZE = """
import sys
from massopt import cli
codes = [cli.main(["run", path]) for path in sys.argv[1:]]
assert codes == [0] * len(codes), codes
assert "scipy.optimize" not in sys.modules, "scipy.optimize was imported"
"""


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule fails
import massopt
from massopt import cli
codes = [cli.main(["run", path]) for path in sys.argv[1:]]
codes.append(cli.main(["fixtures", "--name", "quadratic_ball_uniform",
                       "--dimension", "2", "--resolution", "512"]))
assert codes == [0] * len(codes), codes
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
assert not loaded, loaded
"""


def test_one_dimensional_pipeline_runs_without_scipy(tmp_path):
    # every 1-d energy is the flux recursion, and only a rectangle's band
    # and island search import scipy
    interval = write(tmp_path / "interval.cfg", MK_CONFIG.format(out=tmp_path / "interval"))
    radial = write(tmp_path / "radial.cfg", """
[domain]
kind = radial
radius = 1.0
n = 512
dimension = 3

[cost]
builtin = quadratic

[source]
value = 1.0

[output]
dir = {out}
""".format(out=tmp_path / "radial"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(mo.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, interval, radial], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_run_does_not_import_scipy_optimize(tmp_path):
    # importing scipy.optimize after massopt's own imports takes about 0.2 s,
    # which would be paid inside the first op of a process that reaches it
    interval = write(tmp_path / "interval.cfg", MK_CONFIG.format(out=tmp_path / "interval"))
    rect = write(tmp_path / "rect.cfg", """
[domain]
kind = rectangle
ax = 0.0
bx = 1.0
ay = 0.0
by = 1.0
nx = 12
ny = 12

[cost]
builtin = quadratic

[source]
value = 1.0

[output]
dir = {out}
""".format(out=tmp_path / "rect"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(mo.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _NO_OPTIMIZE, interval, rect], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
