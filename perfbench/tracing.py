"""In-memory tracing installed from outside the program.

The tracer replaces public functions where the program looks them up
(module globals, class attributes, ``scipy.sparse.linalg.cg``) with timing
wrappers, and restores them afterwards; nothing in ``massopt`` knows about
it.  Spans nest on a stack: a span's self time is its duration minus the
time its child spans cover, and a name's total counts only its outermost
span, so recursion through the same layer is not counted twice.
"""

import functools
import os
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

import massopt.cli
import massopt.costs
import massopt.exprlang
import massopt.grids
import massopt.oracle
import massopt.recovery
import massopt.solver


class Tracer:
    def __init__(self):
        self.stack = []                 # [name, start, child seconds]
        self.depth = defaultdict(int)   # open spans per name
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._patches = []

    # -- spans -----------------------------------------------------------

    def push(self, name):
        self.depth[name] += 1
        self.stack.append([name, time.perf_counter(), 0.0])

    def pop(self):
        end = time.perf_counter()
        name, start, child = self.stack.pop()
        dur = end - start
        self.depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += dur - child
        if self.depth[name] == 0:
            self.total[name] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def inside(self, name):
        return self.depth[name] > 0

    def count(self, key, amount):
        self.counts[key] += amount

    def wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.pop()
            if after is not None:
                after(self, args, out)
            return out
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, after=None):
        self._patch(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        cli, costs, grids = massopt.cli, massopt.costs, massopt.grids
        for attr in ("parse_config", "_parse_cost"):
            self._span(cli, attr, "cli.parse")
        self._span(massopt.exprlang.Expression, "__call__", "exprlang.eval")
        self._span(massopt.solver, "validate_cost", "costs.validate")
        for attr in ("conjugate_value", "conjugate_dminus", "conjugate_dplus"):
            self._span(costs.CostFunction, attr, "costs.conj", _count_elems)
        self._span(costs.CostFunction, "invert_flux", "costs.invert_flux")
        for attr in ("gradient_apply", "gradient_adjoint"):
            self._span(grids.Grid, attr, "grids.grad")
        self._span(cli, "write_field_csv", "grids.io", _count_bytes(1))
        self._span(cli, "write_measure", "grids.io", _count_bytes(2))
        self._span(grids, "read_field_csv", "grids.io", _count_bytes(1))
        self._span(grids, "read_measure", "grids.io", _count_bytes(2))
        self._span(cli, "build_problem", "solver.build")
        self._span(massopt.oracle, "build_problem", "solver.build")
        self._span(cli, "solve_auxiliary", "solver.solve", _count_solve)
        self._patch(spla, "cg", self._traced_cg(spla.cg))
        for attr in ("recover_density_sl", "recover_measure_l_1d"):
            self._span(cli, attr, "recovery.recover")
        self._span(cli, "verify_conditions", "recovery.verify")
        self._span(massopt.recovery, "energy_eval", "recovery.energy")
        for attr in ("fixture", "fixture_errors"):
            self._span(cli, attr, "oracle")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # an op cut short by its time limit can leave spans open
        self.stack.clear()
        self.depth.clear()

    def _traced_cg(self, cg):
        """CG with its iterations counted and its time given to the caller.

        Inside ``solve_auxiliary`` each call is a ``solver.cg`` span; inside
        ``energy_eval`` only the iterations are counted, so the CG time
        stays in ``recovery.energy``.
        """
        @functools.wraps(cg)
        def traced(A, b, *args, callback=None, **kwargs):
            in_energy = self.inside("recovery.energy")
            span = not in_energy and self.inside("solver.solve")
            n = [0]

            def counted(xk):
                n[0] += 1
                if callback is not None:
                    callback(xk)

            if span:
                self.push("solver.cg")
            try:
                return cg(A, b, *args, callback=counted, **kwargs)
            finally:
                if span:
                    self.pop()
                    self.count("solver.cg_iters", n[0])
                elif in_energy:
                    self.count("recovery.energy_cg_iters", n[0])
        return traced

    # -- results -----------------------------------------------------------

    def value(self, how, name):
        if how == "total":
            return self.total.get(name, 0.0)
        if how == "self":
            return self.self_time.get(name, 0.0)
        if how == "calls":
            return float(self.calls.get(name, 0))
        return self.counts.get(name, 0.0)

    def self_times(self):
        """``[name, seconds]`` pairs, largest self time first."""
        return sorted(([k, v] for k, v in self.self_time.items()), key=lambda kv: -kv[1])


def _count_elems(tracer, args, _out):
    tracer.count("costs.conj_elems", np.size(args[1]))


def _count_bytes(n_paths):
    def after(tracer, args, _out):
        tracer.count("grids.io_bytes", sum(os.path.getsize(p) for p in args[:n_paths]))
    return after


def _count_solve(tracer, _args, solution):
    tracer.count("solver.iterations", solution.iterations)
    tracer.count("solver.checks", len(solution.log))
