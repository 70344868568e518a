"""Metric definitions shared by the runner, the tests and BENCHMARK.json.

End-to-end metrics come from the untraced run (``--trace 0``); per-layer
metrics from the traced run (``--trace 1``).  Per-layer values are totals
over the run's ops divided by the number of ops, so runs of different
length compare.  ``moves`` records, before any measurement, which
end-to-end metric a per-layer metric should move and on which workload.
"""

import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# name, unit, better, bound.  Times are normalised to the speed probe (see
# probe.py).  Even so, the seed moves each op's iteration count, and which
# linear-cost ops fail, so runs of different seeds still differ by about
# 10%; the timing bounds are the widest allowed.
END_TO_END = (
    ("verified_ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("verified_share", "ratio", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better, how it is measured, what it should move
PER_LAYER = (
    ("cli.parse_s", "s/op", "lower", ("total", "cli.parse"),
     "op_p50_s on all workloads (small)"),
    ("exprlang.eval_calls", "count/op", "lower", ("calls", "exprlang.eval"),
     "verified_ops_per_s on conjugate-tables (by hand); small elsewhere"),
    ("exprlang.eval_s", "s/op", "lower", ("total", "exprlang.eval"),
     "verified_ops_per_s on conjugate-tables (by hand); small elsewhere"),
    ("costs.validate_s", "s/op", "lower", ("total", "costs.validate"),
     "op_p50_s on all workloads (small)"),
    ("costs.conj_calls", "count/op", "lower", ("calls", "costs.conj"),
     "verified_ops_per_s on rect-2d and conjugate-tables"),
    ("costs.conj_elems", "count/op", "lower", ("count", "costs.conj_elems"),
     "verified_ops_per_s on rect-2d and conjugate-tables"),
    ("costs.conj_s", "s/op", "lower", ("total", "costs.conj"),
     "verified_ops_per_s on rect-2d and conjugate-tables"),
    ("costs.conj_self_s", "s/op", "lower", ("self", "costs.conj"),
     "verified_ops_per_s on rect-2d and conjugate-tables"),
    ("costs.invert_flux_calls", "count/op", "lower", ("calls", "costs.invert_flux"),
     "verified_ops_per_s on ball-1d"),
    ("costs.invert_flux_s", "s/op", "lower", ("total", "costs.invert_flux"),
     "verified_ops_per_s on ball-1d"),
    ("grids.grad_calls", "count/op", "lower", ("calls", "grids.grad"),
     "verified_ops_per_s on rect-2d"),
    ("grids.grad_s", "s/op", "lower", ("total", "grids.grad"),
     "verified_ops_per_s on rect-2d"),
    ("grids.io_s", "s/op", "lower", ("total", "grids.io"),
     "op_p50_s on ball-1d"),
    ("grids.io_bytes", "B/op", "lower", ("count", "grids.io_bytes"),
     "op_p50_s on ball-1d"),
    ("solver.build_s", "s/op", "lower", ("total", "solver.build"),
     "op_p50_s on all workloads"),
    ("solver.solve_s", "s/op", "lower", ("total", "solver.solve"),
     "verified_ops_per_s on rect-2d"),
    ("solver.self_s", "s/op", "lower", ("self", "solver.solve"),
     "verified_ops_per_s on rect-2d"),
    ("solver.iterations", "count/op", "lower", ("count", "solver.iterations"),
     "verified_ops_per_s on rect-2d"),
    ("solver.checks", "count/op", "lower", ("count", "solver.checks"),
     "verified_ops_per_s on rect-2d"),
    ("solver.cg_calls", "count/op", "lower", ("calls", "solver.cg"),
     "verified_ops_per_s on rect-2d; 0 on ball-1d"),
    ("solver.cg_iters", "count/op", "lower", ("count", "solver.cg_iters"),
     "verified_ops_per_s on rect-2d; 0 on ball-1d"),
    ("solver.cg_s", "s/op", "lower", ("total", "solver.cg"),
     "verified_ops_per_s on rect-2d; 0 on ball-1d"),
    ("recovery.recover_s", "s/op", "lower", ("total", "recovery.recover"),
     "op_p50_s on ball-1d (small)"),
    ("recovery.verify_s", "s/op", "lower", ("total", "recovery.verify"),
     "verified_ops_per_s and op_p50_s on ball-1d; at most 3% on rect-2d"),
    ("recovery.energy_s", "s/op", "lower", ("total", "recovery.energy"),
     "verified_ops_per_s and op_p50_s on ball-1d; at most 3% on rect-2d"),
    ("recovery.energy_cg_iters", "count/op", "lower",
     ("count", "recovery.energy_cg_iters"),
     "verified_ops_per_s and op_p50_s on ball-1d"),
    ("oracle.s", "s/op", "lower", ("total", "oracle"), "op_p50_s on ball-1d (small)"),
    ("trace_overhead", "ratio", "lower", ("overhead", None),
     "nothing: checks the tracing itself"),
)

# Workloads in BENCHMARK.json.  conjugate-tables (the scalar numeric
# conjugate, where exprlang dominates) is generated and checked like the
# others and runs by hand; it is left out because the run budget of the
# benchmark holds two workloads at 40 s per run, and ball-1d and rect-2d
# between them still reach every layer (exprlang through expression sources).
BENCHMARK_WORKLOADS = ("ball-1d", "rect-2d")

WORKLOAD_WHY = {
    "ball-1d": "1-d radial and interval runs plus closed-form fixtures at 2048-4096 "
               "cells; time sits in recovery.energy_eval (verification CG)",
    "rect-2d": "2-d rectangle runs at 32x32-64x64 with a fixed iteration budget; "
               "time sits in solver.solve_auxiliary (prox bisection and CG)",
    "conjugate-tables": "201-row conjugate tables of expression and table costs; "
                        "time sits in the scalar numeric conjugate (exprlang)",
}
