"""Tests of the benchmark itself: generator, metric names and checks.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
from massopt import cli  # noqa: E402


def _inputs(workload, seed, n_rounds):
    return [(op.argv, sorted(op.files.items()), op.record())
            for op in gen.ops(workload, seed, n_rounds)]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = json.dumps(_inputs(workload, 7, 2)).encode()
    second = json.dumps(_inputs(workload, 7, 2)).encode()
    assert first == second
    assert first != json.dumps(_inputs(workload, 8, 2)).encode()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_run_length_fixes_the_op_list(workload):
    n_rounds = gen.rounds(workload, 40)
    assert n_rounds == gen.rounds(workload, 40) >= 1
    families = gen.FAMILIES[workload]
    for seed in (1, 2):
        assert len(gen.ops(workload, seed, n_rounds)) == n_rounds * len(families)


def test_each_run_covers_every_stratum_once():
    lo, hi = gen.BALL_CELLS
    for seed in (1, 2, 3):
        cells = [op.params["cells"] for op in gen.ops("ball-1d", seed, 5)
                 if op.family == "quadratic-const"]
        strata = sorted((c - lo) * 5 // (hi - lo + 1) for c in cells)
        assert strata == [0, 1, 2, 3, 4]


def test_rounds_cycle_through_every_family():
    for workload, families in gen.FAMILIES.items():
        ops = gen.ops(workload, 3, 2)
        names = [op.family for op in ops]
        assert names[:len(families)] == names[len(families):]
        assert len(set(names)) == len(families)


def test_metric_names_and_units_are_well_formed():
    unit_re = metrics.re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m[0] for m in metrics.END_TO_END] + [m[0] for m in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.match(name), name
    for m in metrics.END_TO_END + metrics.PER_LAYER:
        assert unit_re.match(m[1]), m
        assert m[2] in ("lower", "higher")


def test_manifest_matches_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert manifest["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END]
    assert manifest["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _how, _moves in metrics.PER_LAYER]
    assert manifest["workloads"] == [
        {"name": w, "why": metrics.WORKLOAD_WHY[w]} for w in metrics.BENCHMARK_WORKLOADS]


def _run(op, where, monkeypatch):
    """Write the op's inputs under ``where`` and run it in-process."""
    where.mkdir()
    for name, text in op.files.items():
        (where / name).write_text(text)
    monkeypatch.chdir(where)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(op.argv))
    return rc, out.getvalue()


def _first(workload, family):
    return next(op for op in gen.ops(workload, 1, 2) if op.family == family)


def test_check_flags_corrupted_u_csv(tmp_path, monkeypatch):
    op = gen.WARMUP["ball-1d"]
    rc, _ = _run(op, tmp_path / "op", monkeypatch)
    opdir = str(tmp_path / "op")
    assert check.check_run(op, rc, opdir) is None
    path = tmp_path / "op" / "out" / "u.csv"
    lines = path.read_text().splitlines(keepends=True)
    # move the boundary node (last row) off zero
    x, _value = lines[-1].rsplit(",", 1)
    path.write_text("".join(lines[:-1]) + x + ",0.5\n")
    assert "boundary" in check.check_run(op, rc, opdir)
    # drop a row: the grid no longer matches the configuration
    path.write_text("".join(lines[:-2]))
    assert check.check_run(op, rc, opdir) is not None
    path.write_text("garbage\n")
    assert check.check_run(op, rc, opdir).startswith("unreadable output")


def test_check_flags_closed_form_mismatch(tmp_path, monkeypatch):
    op = _first("ball-1d", "quadratic-const")
    op.files["case.cfg"] = op.files["case.cfg"].replace(
        "n = %d" % op.params["cells"], "n = 256")
    rc, _ = _run(op, tmp_path / "op", monkeypatch)
    assert check.check_run(op, rc, str(tmp_path / "op")) is None
    op.check["closed_form"] = dict(op.check["closed_form"],
                                   value=1.1 * op.check["closed_form"]["value"])
    assert "closed form" in check.check_run(op, rc, str(tmp_path / "op"))


def test_check_flags_wrong_conjugate_row(tmp_path, monkeypatch):
    op = _first("conjugate-tables", "table-power")
    rc, _ = _run(op, tmp_path / "op", monkeypatch)
    opdir = str(tmp_path / "op")
    assert check.check_conjugate(op, rc, opdir) is None
    path = tmp_path / "op" / "table.out.csv"
    lines = path.read_text().splitlines(keepends=True)
    s, value, lo, hi = lines[100].strip().split(",")
    lines[100] = ",".join([s, repr(float(value) + 1e-6), lo, hi]) + "\n"
    path.write_text("".join(lines))
    assert check.check_conjugate(op, rc, opdir).startswith("c*(")
    assert check.check_conjugate(op, 1, opdir) == "exit code 1"


def test_check_rejects_failed_fixture_output():
    op = _first("ball-1d", "fixture")
    good = "fixture %s (n=1, resolution=2048)\n" % op.params["fixture"]
    good += "".join("%s,0\n" % k for k in check.THRESHOLDS)
    good += "u_rel_sup_error,0.001\na_rel_l1_error,0.002\n"
    assert check.check_fixture(op, 0, good) is None
    assert "u_rel_sup_error" in check.check_fixture(
        op, 0, good.replace("u_rel_sup_error,0.001", "u_rel_sup_error,0.2"))


@pytest.mark.parametrize("form,s,expected", [
    ({"form": "power", "a": 0.5, "b": 0.5, "p": 2.0}, 1.5, 0.5),   # (s-a)^2 / (4b)
    ({"form": "reciprocal", "a": 1.0, "b": 1.0}, 0.0, -2.0),
    ({"form": "linear", "k": 0.5}, 0.25, 0.0),
])
def test_conjugate_closed_forms(form, s, expected):
    assert check.conjugate_closed_form(form, s)[0] == pytest.approx(expected, abs=1e-15)
