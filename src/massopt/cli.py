"""Batch command-line interface.

``massopt run <config>`` drives the full pipeline (validate -> solve ->
recover -> verify) from a flat key=value configuration file and writes the
solution field, the recovered measure, the optimality report and the
iteration log to the output directory.  ``massopt conjugate`` tabulates a
cost's conjugate and subdifferential.  ``massopt fixtures`` runs the
closed-form comparison for one catalog fixture.

Exit codes: 0 all verification thresholds met; 1 thresholds failed;
2 configuration error (including an output directory that cannot be
made); 3 solver did not converge (on an interval or radial grid: the
exact certificate's gap stayed above the tolerance); 4 ``run`` or
``fixtures`` failed after the problem was built (a
:class:`~massopt.errors.MassOptError` from solve, recover or verify, or
an ``OSError`` writing ``iterations.csv``, ``u.csv``, the measure or
``report.json``), or ``conjugate`` could not write its ``--output``
file; both are reported as ``error: <Class>: <message>`` on stderr.
"""

import argparse
import configparser
import functools
import inspect
import json
import math
import os
import sys
import types

import numpy as np

from . import costs as costs_mod
from .errors import ConfigError, MassOptError, UnsupportedGrid
from .exprlang import Expression
from .formatting import FMT, write_rows
from .grids import Grid, SourceTerm, write_field_csv, write_iteration_log, write_measure
from .oracle import fixture, fixture_errors, fixture_names
from .recovery import json_safe, recover_measure, verify_conditions
from .solver import SolverParams, build_problem, solve_auxiliary

# perfbench/tracing.py looks these two names up in this module to time
# recovery, and cannot install when either is missing; the pipeline itself
# calls recover_measure
recover_density_sl = recover_measure_l_1d = recover_measure

DEFAULT_THRESHOLDS = {
    "pde_residual": 1e-3,
    "inclusion_violation": 1e-3,
    "singular_saturation_error": 1e-3,
    "boundary_mass": 1e-9,
    "duality_identity_error": 1e-3,
}

# Every key a config file may hold, by section, with the conversion of its
# value.  A [domain] also needs every key of its kind; a [cost] takes the
# keys of its one form, a builtin's being its factory's parameters (needed
# where the factory gives no default).
SECTIONS = {
    "domain": {"kind": str},
    "cost": {"weight_table": str},
    "source": {"value": float, "expression": str, "atoms": str},
    "solver": {"max_iterations": int, "gap_tolerance": float},
    "verify": dict.fromkeys(DEFAULT_THRESHOLDS, float),
    "output": {"dir": str},
}
GRID_KEYS = {
    "interval": {"a": float, "b": float, "n": int},
    "radial": {"radius": float, "n": int, "dimension": int},
    "rectangle": {"ax": float, "bx": float, "ay": float, "by": float, "nx": int, "ny": int},
}
COST_FORMS = {"builtin": {"builtin": str}, "expression": {"expression": str, "t0": float},
              "table": {"table": str}}
BUILTIN_PARAMS = {name: inspect.signature(factory).parameters
                  for name, factory in costs_mod._BUILTINS.items()}


def _declared(name, sec):
    """The keys section ``name`` takes with their converters, the keys it
    needs, and how a key it does not take is refused."""
    keys = dict(SECTIONS[name])
    if name == "domain":
        kind = sec.get("kind")
        if kind is not None and kind not in GRID_KEYS:
            raise ConfigError("domain.kind must be interval|radial|rectangle, got %r" % kind)
        grid_keys = GRID_KEYS.get(kind, {})  # no kind: its missing key is refused first
        keys.update(grid_keys)
        return keys, ["kind", *grid_keys], "domain: %s takes no key" % kind
    if name == "cost":
        forms = [form for form in COST_FORMS if form in sec]
        if len(forms) != 1:
            raise ConfigError("section [cost] needs exactly one of builtin|expression|table")
        keys.update(COST_FORMS[forms[0]])
        if forms != ["builtin"]:
            return keys, forms, "cost.%s takes no key" % forms[0]
        builtin = sec["builtin"]
        if builtin not in BUILTIN_PARAMS:
            raise ConfigError("cost.builtin: unknown builtin cost %r (have: %s)"
                              % (builtin, ", ".join(sorted(BUILTIN_PARAMS))))
        params = BUILTIN_PARAMS[builtin]
        keys.update(dict.fromkeys(params, float))
        needed = [key for key, p in params.items() if p.default is p.empty]
        return keys, forms + needed, "cost.builtin: %s takes no key" % builtin
    return keys, [], "unknown %s %s" % (name, "threshold" if name == "verify" else "key")


def read_config(path, needed):
    """``{section: {key: value}}`` of the config file at ``path``.

    Every section in ``needed`` must be there, and every section and key
    must be declared in :data:`SECTIONS`; each value is converted.  A
    ``%`` is literal, ``#`` starts a comment, and ``[DEFAULT]`` is an
    unknown section like any other.
    """
    cfg = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",),
                                    default_section="")
    try:
        if not cfg.read(path, encoding="utf-8"):
            raise ConfigError("cannot read config file %r" % path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError("cannot parse config file %r: %s"
                          % (path, " ".join(str(exc).split()))) from None
    for name in needed:
        if not cfg.has_section(name):
            raise ConfigError("missing section [%s]" % name)
    out = {}
    for name in cfg.sections():
        if name not in SECTIONS:
            raise ConfigError("unknown section [%s]" % name)
        sec = cfg[name]
        keys, needs, refusal = _declared(name, sec)
        for key in needs:
            if key not in sec:
                raise ConfigError("missing key %r in section [%s]" % (key, name))
        values = out[name] = {}
        for key, raw in sec.items():
            if key not in keys:
                raise ConfigError("%s %r" % (refusal, key))
            try:
                values[key] = keys[key](raw)
            except ValueError:
                raise ConfigError("bad value %r for key %r in section [%s]"
                                  % (raw, key, name)) from None
    return out


def _parse_domain(sec):
    params = dict(sec)
    kind = params.pop("kind")
    if min(params.get(key, 8) for key in ("n", "nx", "ny")) < 8:
        raise ConfigError("domain.%s must be >= 8" % ("nx/ny" if kind == "rectangle" else "n"))
    try:
        return Grid(kind, params)
    except UnsupportedGrid as exc:
        raise ConfigError("domain: %s" % exc) from None


def _parse_cost(cfg, grid):
    sec = cfg["cost"]
    form = next(form for form in COST_FORMS if form in sec)
    try:
        if form == "builtin":
            params = {key: sec[key] for key in BUILTIN_PARAMS[sec["builtin"]] if key in sec}
            cost = costs_mod.builtin_cost(sec["builtin"], **params)
        elif form == "expression":
            cost = costs_mod.expression_cost(sec["expression"], t0=sec.get("t0", 1.0))
        else:
            data = np.loadtxt(sec["table"], delimiter=",", comments="#")
            cost = costs_mod.tabulated_cost(data[:, 0], data[:, 1])
    except (OSError, MassOptError, IndexError, ValueError) as exc:
        raise ConfigError("cost.%s: %s" % (form, exc)) from None

    cell_weights = None
    if "weight_table" in sec:
        if grid is None:
            raise ConfigError("cost.weight_table needs a [domain] section")
        try:
            cell_weights = np.loadtxt(sec["weight_table"], delimiter=",", comments="#")
        except (OSError, ValueError) as exc:
            raise ConfigError("cost.weight_table: %s" % exc) from None
        if cell_weights.ndim != 1 or cell_weights.size != grid.n_cells:
            raise ConfigError("cost.weight_table needs %d per-cell values" % grid.n_cells)
    return cost, cell_weights


def _source_variables(grid):
    if grid.kind == "radial":
        return ("r",)
    if grid.kind == "interval":
        return ("x",)
    return ("x", "y")


def _parse_atoms(raw, grid):
    atoms = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            loc_txt, mass_txt = item.rsplit(":", 1)
            loc = np.asarray([float(tok) for tok in loc_txt.split()], dtype=float)
            atoms.append((loc, float(mass_txt)))
        except ValueError:
            raise ConfigError("source.atoms entry %r is not 'loc[:space loc]:mass'"
                              % item) from None
    return atoms


def _parse_source(sec, grid):
    key, density = "atoms", None
    if "value" in sec:
        key, density = "value", np.full(grid.n_nodes, sec["value"])
    if "expression" in sec:
        if density is not None:
            raise ConfigError("section [source] takes value or expression, not both")
        key, variables = "expression", _source_variables(grid)
        try:
            expr = Expression(sec["expression"], variables=variables)
            kw = {v: grid.node_coords[:, i] for i, v in enumerate(variables)}
            density = np.asarray(expr(**kw), dtype=float)
        except MassOptError as exc:
            raise ConfigError("source.expression: %s" % exc) from None
    atoms = _parse_atoms(sec["atoms"], grid) if "atoms" in sec else []
    if density is None and not atoms:
        raise ConfigError("section [source] needs value, expression or atoms")
    try:
        SourceTerm(grid, density=density)  # the density alone, so that its error names its key
        key = "atoms"
        return SourceTerm(grid, density=density, atoms=atoms)
    except MassOptError as exc:
        raise ConfigError("source.%s: %s" % (key, exc)) from None


def parse_config(path):
    """The problem, budget, thresholds and output directory a run config declares."""
    cfg = read_config(path, ("domain", "cost", "source"))
    grid = _parse_domain(cfg["domain"])
    cost, cell_weights = _parse_cost(cfg, grid)
    source = _parse_source(cfg["source"], grid)
    try:
        params = SolverParams(**cfg.get("solver", {}))
    except ValueError as exc:
        raise ConfigError("section [solver]: %s" % exc) from None
    thresholds = dict(DEFAULT_THRESHOLDS, **cfg.get("verify", {}))
    for key, val in thresholds.items():
        if not val > 0.0:
            raise ConfigError("verify.%s must be positive" % key)
    return types.SimpleNamespace(grid=grid, cost=cost, source=source,
                                 cell_weights=cell_weights, solver_params=params,
                                 thresholds=thresholds,
                                 output_dir=cfg.get("output", {}).get("dir", "."))


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def run(config_path, log_path=None, json_report_path=None):
    """Execute a configured pipeline; returns the process exit code."""
    try:
        config = parse_config(config_path)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    out = config.output_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print("config error: output.dir: %s" % exc, file=sys.stderr)
        return 2

    try:
        problem = build_problem(config.grid, config.cost, config.source,
                                cell_weights=config.cell_weights)
    except MassOptError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    try:
        solution = solve_auxiliary(problem, config.solver_params)
        write_iteration_log(log_path or os.path.join(out, "iterations.csv"), solution.log)
        measure = recover_measure(solution, problem)
        report = verify_conditions(measure, solution, problem)
        write_field_csv(os.path.join(out, "u.csv"), solution.u)
        write_measure(os.path.join(out, "measure.csv"), os.path.join(out, "measure.json"),
                      measure)
        payload = report.to_dict()
        payload.update({
            "converged": solution.converged,
            "relative_gap": solution.rel_gap,
            "iterations": solution.iterations,
            "checks": len(solution.log),
            "factorisations": solution.factorisations,
            "mu_levels": solution.mu_levels,
            "method": solution.method,
            "regime": solution.regime,
            "thresholds": config.thresholds,
            "passed": report.passes(config.thresholds),
        })
        report_path = json_report_path or os.path.join(out, "report.json")
        with open(report_path, "w") as fh:
            json.dump(json_safe(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except (MassOptError, OSError) as exc:
        return _post_build_error(exc)

    for name, value in sorted(report.residuals().items()):
        ok = value <= config.thresholds[name]
        print("%-28s %12.5g  [%s]" % (name, value, "ok" if ok else "FAIL"))
    if not solution.converged:
        print("solver did not converge: relative gap %.3g" % solution.rel_gap,
              file=sys.stderr)
        return 3
    return 0 if payload["passed"] else 1


def cmd_conjugate_table(cost, s_lo, s_hi, count, stream):
    """Deterministic (s, c*(s), subdiff lo, hi) table for plotting."""
    s = np.linspace(s_lo, s_hi, count)
    value = np.asarray(cost.conjugate_value(s), dtype=float)
    inside = s <= cost.recession_slope() + cost.threshold_pad()
    lo = np.full(count, math.nan)
    hi = np.full(count, math.nan)
    lo[inside], hi[inside] = costs_mod.subdiff_interval(cost, s[inside])
    stream.write("s,value,subdiff_lo,subdiff_hi\n")
    write_rows(stream, np.column_stack((s, value, lo, hi)))


def _post_build_error(exc):
    """Report a failure after the configuration was read; exit code 4."""
    print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
    return 4


def cmd_fixtures(name, dimension, resolution, stream=None):
    stream = stream if stream is not None else sys.stdout
    try:
        fix = fixture(name, dimension)
        problem = fix.build(resolution)
    except MassOptError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        solution = solve_auxiliary(problem, SolverParams())
        measure = recover_measure(solution, problem)
        cell_mask, node_mask = fix.masks(problem.grid)
        report = verify_conditions(measure, solution, problem,
                                   cell_mask=cell_mask, node_mask=node_mask)
        u_err, a_err = fixture_errors(fix, problem.grid, solution.u.values, measure)
    except MassOptError as exc:
        return _post_build_error(exc)
    stream.write("fixture %s (n=%d, resolution=%d)\n" % (fix.name, fix.ball_dim, resolution))
    stream.write("u_rel_sup_error,%s\n" % (FMT % u_err))
    stream.write("a_rel_l1_error,%s\n" % (FMT % a_err))
    for key, value in sorted(report.residuals().items()):
        stream.write("%s,%s\n" % (key, FMT % value))
    ok = (u_err <= 0.05 and a_err <= 0.05
          and report.passes(DEFAULT_THRESHOLDS) and solution.converged)
    return 0 if ok else 1


@functools.lru_cache(maxsize=None)
def _parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="massopt",
                                     description="mass optimization with convex costs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured pipeline")
    p_run.add_argument("config")
    p_run.add_argument("--log", default=None, help="iteration log path")
    p_run.add_argument("--json-report", default=None, help="report path")

    p_conj = sub.add_parser("conjugate", help="tabulate a cost conjugate")
    p_conj.add_argument("config")
    p_conj.add_argument("--range", nargs=2, type=float, required=True,
                        metavar=("A", "B"))
    p_conj.add_argument("--count", type=int, default=21)
    p_conj.add_argument("--output", default=None)

    p_fix = sub.add_parser("fixtures", help="run a closed-form comparison")
    p_fix.add_argument("--name", required=True, choices=fixture_names())
    p_fix.add_argument("--dimension", type=int, default=None)
    p_fix.add_argument("--resolution", type=int, default=2048)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    if args.command == "run":
        return run(args.config, log_path=args.log, json_report_path=args.json_report)

    if args.command == "conjugate":
        try:
            cfg = read_config(args.config, ("cost",))
            grid = _parse_domain(cfg["domain"]) if "domain" in cfg else None
            cost, _w = _parse_cost(cfg, grid)
            if args.count < 2:
                raise ConfigError("--count must be >= 2")
            if not all(map(math.isfinite, args.range)):
                raise ConfigError("--range needs two finite ends")
        except ConfigError as exc:
            print("config error: %s" % exc, file=sys.stderr)
            return 2
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    cmd_conjugate_table(cost, args.range[0], args.range[1], args.count, fh)
            except OSError as exc:
                return _post_build_error(exc)
        else:
            cmd_conjugate_table(cost, args.range[0], args.range[1], args.count,
                                sys.stdout)
        return 0

    return cmd_fixtures(args.name, args.dimension, args.resolution)


if __name__ == "__main__":
    sys.exit(main())
