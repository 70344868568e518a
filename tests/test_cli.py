"""Command-line interface: configs, artifacts, determinism, exit codes."""

import json
import math

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
    # the exact 1-d certificate closes the gap before any splitting step
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
max_iterations = 3
gap_tolerance = 1e-14
check_every = 2

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
check_every = 50

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
    if report["method"] == "certificate":
        assert report["factorisations"] == 0
    else:
        # the projection's unit factor, one per Newton step taken, and one
        # for a last step that gave no decrease
        assert report["method"] == "newton"
        assert report["factorisations"] - report["iterations"] in (1, 2)


def test_rectangle_tabulated_cost_reports_splitting(tmp_path):
    ts = np.linspace(0.0, 4.0, 17)
    table = tmp_path / "cost.csv"
    np.savetxt(table, np.column_stack([ts, 0.5 * ts * ts]), delimiter=",")
    cfg = write(tmp_path / "tab.cfg", RECT_CONFIG.format(
        n=8, cost="table = %s" % table, budget=50, out=tmp_path / "out"))
    cli.main(["run", cfg])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["method"] == "splitting"
    assert report["checks"] == 2  # check_every = 25
    assert report["factorisations"] == 3  # the unit factor and one per check


def test_rectangle_linear_regime_refused(tmp_path, capsys):
    cfg = write(tmp_path / "lin.cfg", RECT_CONFIG.format(
        n=16, cost="builtin = linear\nslope = 0.5", budget=400, out=tmp_path / "out"))
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "linear regime" in err and "2-d grid" in err
    assert not (tmp_path / "out" / "report.json").exists()


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
    "kind = interval\na = 1.0\nb = 1.0\n",
    "kind = radial\nradius = -1\ndimension = 2\n",
    "kind = radial\nradius = 1\ndimension = 0\n",
    "kind = rectangle\nax = 1.0\nbx = 0.0\nay = 0.0\nby = 1.0\nnx = 16\nny = 16\n",
    "kind = interval\na = -1.0\nb = inf\n",
    "kind = radial\nradius = inf\ndimension = 2\n",
    "kind = rectangle\nax = 0.0\nbx = inf\nay = 0.0\nby = 1.0\nnx = 16\nny = 16\n",
], ids=["interval-b<=a", "radial-radius<0", "radial-dimension<1", "rectangle-bx<=ax",
        "interval-b=inf", "radial-radius=inf", "rectangle-bx=inf"])
def test_bad_grid_is_config_error(tmp_path, capsys, domain):
    text = MK_CONFIG.format(out=tmp_path / "out").replace(
        "kind = interval\na = -1.0\nb = 1.0\n", domain)
    cfg = write(tmp_path / "grid.cfg", text)
    assert cli.main(["run", cfg]) == 2
    assert "config error: domain: " in capsys.readouterr().err
    assert cli.main(["conjugate", cfg, "--range", "0", "1", "--count", "2"]) == 2
    assert "config error: domain: " in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("max_iterations = -3", "max_iterations must be >= 1"),
    ("max_iterations = 5000\ncheck_every = -5", "check_every must be >= 1"),
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
    text = MK_CONFIG.format(out=tmp_path / "out") + \
        "\n[verify]\nduality_identity_error = 1e-30\n"
    cfg = write(tmp_path / "tight.cfg", text)
    assert cli.main(["run", cfg]) == 1


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
