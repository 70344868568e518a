"""massopt benchmark: verified-solve throughput, traced per module.

    python3 perfbench/run.py --workload ball-1d --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory, nothing is installed.  The workloads are defined in
``gen.py`` and the checks in ``check.py``.  A run executes a fixed list
of ops, set by the workload, the seed and ``--seconds`` (see
``gen.rounds``), so its attempted and failed counts never depend on how
fast the host happens to be.  Ops run one after another in this process
(a closed loop with one client) through ``massopt.cli.main``, exactly as
``massopt run``, ``massopt fixtures`` and ``massopt conjugate`` run them;
each op's wall time includes reading its outputs back for the check.

Times in the end-to-end metrics are normalised to the speed of a fixed
probe kernel timed between ops (see ``probe.py``), because the shared
hosts this runs on drift in speed; the summary line also gives them in
plain wall seconds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and traced in alternating order, and prints the per-layer
metrics of the traced copies and the tracing overhead.  Every line before
the last describes the environment, each op and a summary; the last line
is the result object.  Scratch files live under ``.perfbench/`` in the
checkout and are removed on exit.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()

THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# before numpy is first imported, here by the probe
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

import gen  # noqa: E402
import metrics  # noqa: E402
import probe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
# an op that runs longer fails; some ops (for example ``massopt fixtures``,
# which has no iteration budget) can otherwise run for many minutes
OP_TIME_LIMIT_S = 15.0


class OpTimeout(BaseException):
    """Raised by the interval timer inside an op that ran out of time.

    A ``BaseException`` so that no handler in the program swallows it.
    """


def _alarm(_signum, _frame):
    raise OpTimeout()


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import massopt from this checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "massopt", "__init__.py")):
        raise SystemExit("massopt sources not found under %s" % SRC)
    sys.path.insert(0, SRC)
    import scipy.sparse.linalg  # noqa: F401  (part of the program's import cost)
    import massopt.cli

    if not os.path.abspath(massopt.__file__).startswith(SRC + os.sep):
        raise SystemExit("massopt was imported from %s, not %s" % (massopt.__file__, SRC))
    return massopt.cli


def environment(workload, seed):
    import numpy as np
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return "%s %s" % (dep.get("name"), dep.get("version"))
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    return {"workload": workload, "seed": seed,
            "nproc": len(os.sched_getaffinity(0)),
            "thread_cap": THREAD_CAP, "thread_vars": list(THREAD_VARS),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np),
            "scipy_blas": blas(scipy), "machine": platform.machine(),
            "loop": "closed, one client"}


class Runner:
    """Executes ops in per-op scratch directories and checks them."""

    def __init__(self, cli, work):
        import check

        self.cli = cli
        self.check = check
        self.work = work

    def execute(self, op, tag="", tracer=None):
        opdir = os.path.join(self.work, "op%d%s" % (op.index, tag))
        os.makedirs(opdir)
        for name, text in op.files.items():
            with open(os.path.join(opdir, name), "w") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(opdir)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            reason, rc = self._run_checked(op, opdir, out, err)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
            os.chdir(cwd)
            shutil.rmtree(opdir, ignore_errors=True)
        result = op.record()
        result.update({"wall_s": wall, "exit_code": rc, "verified": reason is None,
                       "reason": reason,
                       # a wrong answer: the program reported success, the check disagrees
                       "wrong": rc == 0 and reason is not None})
        if reason is not None and rc not in (0, None):
            tail = err.getvalue().strip().splitlines()
            if tail:
                result["reason"] = "%s: %s" % (reason, tail[-1][:200])
        return result

    def _run_checked(self, op, opdir, out, err):
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
                try:
                    rc = self.cli.main(list(op.argv))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
        except OpTimeout:
            return "timeout after %g s" % OP_TIME_LIMIT_S, None
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            return "exception %s: %s" % (type(exc).__name__, exc), None
        kind = op.check["kind"]
        if kind == "fixture":
            return self.check.check_fixture(op, rc, out.getvalue()), rc
        if kind == "conjugate":
            return self.check.check_conjugate(op, rc, opdir), rc
        return self.check.check_run(op, rc, opdir), rc


def _setup_samples(args, own):
    """Set-up time of this process plus fresh processes doing the same."""
    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _end_to_end(results, setup):
    """End-to-end metrics; times are normalised to the probe's speed."""
    times = [r["norm_s"] for r in results]
    verified = sum(r["verified"] for r in results)
    return {
        "verified_ops_per_s": verified / sum(times),
        "op_p50_s": statistics.median(times),
        "verified_share": verified / len(results),
        "setup_s": statistics.median(s["norm_s"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _raw_wall(results, setup):
    """The timing metrics in plain wall seconds, for the summary line."""
    walls = [r["wall_s"] for r in results]
    return {"verified_ops_per_s": sum(r["verified"] for r in results) / sum(walls),
            "op_p50_s": statistics.median(walls),
            "setup_s": statistics.median(s["wall_s"] for s in setup),
            "probe_p50_s": statistics.median(r["probe_s"] for r in results)}


def _per_layer(tracer, n_ops, traced_s, untraced_s):
    out = {}
    for name, _unit, _better, (how, key), _moves in metrics.PER_LAYER:
        if how == "overhead":
            out[name] = traced_s / untraced_s - 1.0
        else:
            out[name] = tracer.value(how, key) / n_ops
    return out


def _measure(args, runner, tracer):
    """Run the workload's op list for this seed; returns checked results.

    The list is fixed by the arguments and sized to take about
    ``--seconds`` (see ``gen.rounds``).  A traced run executes every op
    twice, so it holds half as many rounds.
    """
    seconds = args.seconds if tracer is None else args.seconds / 2.0
    op_list = gen.ops(args.workload, args.seed, gen.rounds(args.workload, seconds))
    if tracer is None:
        return _measure_untraced(runner, op_list), []
    results, untraced = [], []
    for op in op_list:
        # alternate the order so neither copy always runs on warm caches
        if op.index % 2:
            results.append(runner.execute(op, "t", tracer))
            untraced.append(runner.execute(op, "u"))
        else:
            untraced.append(runner.execute(op, "u"))
            results.append(runner.execute(op, "t", tracer))
    return results, untraced


def _measure_untraced(runner, op_list):
    """Run ops with the speed probe timed between them.

    The probe runs once at least ``probe.EVERY_S`` has passed since the
    last one; each op is normalised by the mean of the two probes that
    bracket it.
    """
    results, pending = [], []
    before = probe.measure()
    last = time.perf_counter()
    for k, op in enumerate(op_list):
        pending.append(runner.execute(op))
        if time.perf_counter() - last < probe.EVERY_S and k + 1 < len(op_list):
            continue
        after = probe.measure()
        last = time.perf_counter()
        for result in pending:
            result["probe_s"] = 0.5 * (before + after)
            result["norm_s"] = probe.scale(result["wall_s"], result["probe_s"])
        results.extend(pending)
        pending, before = [], after
    return results


class Terminated(BaseException):
    """Raised on SIGTERM so that the scratch directory is removed.

    Not a ``SystemExit``: ops catch that to read the command's exit code.
    """


def _terminate(_signum, _frame):
    raise Terminated()


def main(argv=None):
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        cli = _import_program()
    except (SystemExit, ImportError) as exc:
        print("perfbench: cannot import the program: %s" % exc, file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench", "%s-%d-%d" % (args.workload, args.seed,
                                                            os.getpid()))
    os.makedirs(work)
    try:
        runner = Runner(cli, work)
        warm = runner.execute(gen.WARMUP[args.workload])
        own_wall = time.perf_counter() - T_START
        own_probe = probe.measure()
        own_setup = {"wall_s": own_wall, "probe_s": own_probe,
                     "norm_s": probe.scale(own_wall, own_probe)}
        if not warm["verified"]:
            print("perfbench: warm-up op failed: %s" % warm["reason"], file=sys.stderr)
            return 1
        if args.setup_probe:
            print(json.dumps(own_setup))
            return 0
        setup = _setup_samples(args, own_setup)
        print("env " + json.dumps(environment(args.workload, args.seed)))

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        results, untraced = _measure(args, runner, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    for r in results:
        print("op " + json.dumps(r, sort_keys=True))
    attempted = len(results)
    failed = sum(not r["verified"] for r in results)
    wrong = [r for r in results if r["wrong"]]
    summary = {"attempted": attempted, "failed": failed,
               "failed_share": failed / attempted, "wrong_answers": len(wrong),
               "op_samples": attempted, "setup_samples": setup,
               "families": sorted({r["family"] for r in results})}
    if tracer is None:
        values = _end_to_end(results, setup)
        summary["raw_wall"] = _raw_wall(results, setup)
        units = {m[0]: m[1] for m in metrics.END_TO_END}
    else:
        traced_s = sum(r["wall_s"] for r in results)
        untraced_s = sum(r["wall_s"] for r in untraced)
        values = _per_layer(tracer, attempted, traced_s, untraced_s)
        units = {m[0]: m[1] for m in metrics.PER_LAYER}
        summary["self_time_s"] = tracer.self_times()
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
