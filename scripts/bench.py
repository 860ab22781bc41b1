#!/usr/bin/env python3
"""How each layer scales: median CPU time per call at fixed sizes.

    python scripts/bench.py --out BENCH_<n>.json --column change
    python scripts/bench.py --out BENCH_<n>.json --column parent --src ../parent/src
    python scripts/bench.py --out /tmp/b.json --column x --sizes 50 --repeat 1

Every layer runs on mobius(2,3,1,2) about 1 (the function 2 - 1/(x+2)),
exact or rounded to 64- and 128-bit floats, at each dimension m in
``--sizes``:
``taylor_coeffs`` expands it to m + 1 coefficients, ``evaluate`` sums
its dimension-m approximant at x = 1/2, and ``estimate_limits`` reads
the limits off its dimension-m convergence table at tolerance 1e-9.
The ``cli`` layers call ``main`` in-process.  ``run_suite`` checks
every identity tuple with m and k up to the size, as
``verify-identities --m-max m --k-max m`` does.  ``cli cold start`` is
a whole ``python -m invpower estimate`` process (exact, ``--m-max m``):
interpreter start-up, imports, parsing and the command.  It is timed by
the child CPU time that ``RUSAGE_CHILDREN`` reports, with the bytecode
cached: the children read and write ``.pyc`` files under a private
``pycache_prefix``, filled by one unmeasured run first.
A cell is the median CPU time per call over ``--repeat``
samples; a sample repeats the call until it has used 0.2 CPU seconds.
A sample that uses more than ``BUDGET_S`` (10) CPU seconds is stopped
by a CPU timer, and that size and every larger one of the layer are
recorded as null.  The series, approximants and tables are built
before the timing starts.

The output file holds one column per ``--column`` name, each with the
Python version and mpmath's arithmetic backend it ran under.  An
existing file keeps its other columns, so the parent and a change
(imported from another checkout's ``src`` with ``--src``) share one
file and compare cell by cell.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
SIZES = (50, 200, 800, 2000)
FLOAT_PRECISIONS = (64, 128)
MIN_SAMPLE_S = 0.2
BUDGET_S = 10.0
COLD_START_BYTECODE = "cached under a private pycache_prefix by one unmeasured run"


class OverBudget(BaseException):
    """Raised by the CPU timer; a BaseException, so no ``except
    Exception`` in the code under test can swallow it."""


def _over_budget(signum, frame):
    raise OverBudget


def child_cpu_s() -> float:
    """CPU seconds used by this process's finished, waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_start(src: Path, pycache: str):
    """f(m) that runs ``python -m invpower estimate`` in a fresh
    interpreter, after one unmeasured run has cached its bytecode."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)

    def call(m):
        argv = [sys.executable, "-X", f"pycache_prefix={pycache}", "-m", "invpower", "estimate",
                "--corpus", "mobius-2-3-1-2", "--m-max", str(m)]
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)

    call(1)
    return call


def layers(sizes, src: Path, pycache: str):
    """Layer name -> (clock, f(m) that makes one call), for m in
    ``sizes``; the series, approximants and tables it reads are built here,
    before any timing."""
    from invpower.approximant import coeffs_closed_form, coeffs_via_matrix, evaluate
    from invpower.asymptotics import convergence_table, estimate_limits
    from invpower.cli import main
    from invpower.corpus import mobius, taylor_coeffs
    from invpower.identities import SuiteRanges, run_suite
    from invpower.scalar import Scalar
    from invpower.transforms import binomial_convolve

    f, center = mobius(2, 3, 1, 2), Scalar.rational(1)
    exact = taylor_coeffs(f, center, max(sizes) + 1)
    floats = {p: exact.to_inexact(p) for p in FLOAT_PRECISIONS}
    approximants = {m: coeffs_closed_form(exact, m) for m in sizes}
    tables = {m: convergence_table(exact, m) for m in sizes}
    point, tol = Scalar.rational(1, 2), Scalar.rational(1, 10 ** 9)

    def cli(*argv):
        def call(m):
            args = [a.format(m=m) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(args)
            if code != 0:
                raise SystemExit(f"{' '.join(args)} exited {code}")
        return call

    calls = {
        "taylor_coeffs exact": lambda m: taylor_coeffs(f, center, m + 1),
        "evaluate exact": lambda m: evaluate(approximants[m], point),
        "convergence_table exact": lambda m: convergence_table(exact, m),
        **{f"convergence_table float{p}": lambda m, s=s: convergence_table(s, m)
           for p, s in floats.items()},
        "estimate_limits exact": lambda m: estimate_limits(tables[m], tol),
        "coeffs_closed_form exact": lambda m: coeffs_closed_form(exact, m),
        **{f"coeffs_closed_form float{p}": lambda m, s=s: coeffs_closed_form(s, m)
           for p, s in floats.items()},
        "coeffs_via_matrix exact": lambda m: coeffs_via_matrix(exact, m),
        "binomial_convolve exact": lambda m: binomial_convolve(exact, m),
        **{f"cli estimate exact {fmt}": cli(
            "estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "{m}", "--format", fmt)
           for fmt in ("csv", "json")},
        **{f"cli estimate float{p}": cli(
            "estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "{m}",
            "--mode", "float", "--precision", str(p)) for p in FLOAT_PRECISIONS},
        "cli approximate exact": cli(
            "approximate", "--corpus", "mobius-2-3-1-2", "--m", "{m}", "--eval", "1/2,3"),
        "run_suite": lambda m: run_suite(SuiteRanges(tuple(range(m + 1)), tuple(range(m + 1)))),
    }
    return {**{name: (time.process_time, call) for name, call in calls.items()},
            "cli cold start": (child_cpu_s, cold_start(src, pycache))}


def cpu_seconds(clock, call, m):
    """CPU seconds per call on ``clock``, over as many calls as fill
    ``MIN_SAMPLE_S`` (the CPU clock may tick in milliseconds), or None
    when the sample runs past ``BUDGET_S`` of this process's CPU.
    Garbage left by earlier layers is collected first, so it is not
    charged to this one."""
    gc.collect()
    signal.setitimer(signal.ITIMER_PROF, BUDGET_S)
    try:
        start = clock()
        calls = 0
        while (elapsed := clock() - start) < MIN_SAMPLE_S:
            call(m)
            calls += 1
        return elapsed / calls
    except OverBudget:
        return None
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)


def measure(sizes, repeat, src: Path):
    signal.signal(signal.SIGPROF, _over_budget)
    cells = {}
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as pycache:
        warnings.simplefilter("ignore")
        for name, (clock, call) in layers(sizes, src, pycache).items():
            row = cells[name] = {}
            for m in sizes:
                times = []
                for _ in range(repeat):
                    t = cpu_seconds(clock, call, m)
                    if t is None:
                        break
                    times.append(t)
                row[str(m)] = statistics.median(times) if len(times) == repeat else None
                print(f"{name:>34} m={m:<5} {row[str(m)]}", file=sys.stderr)
                if row[str(m)] is None:
                    row.update((str(n), None) for n in sizes if n > m)
                    break
    env = {"python": platform.python_version(), "mpmath_backend": mpmath.libmp.BACKEND}
    return env, cells


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write or extend")
    ap.add_argument("--column", required=True, help="column name, e.g. parent or change")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory that holds the invpower package to time")
    ap.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                    default=list(SIZES), help="comma-separated dimensions m")
    ap.add_argument("--repeat", type=int, default=3, help="calls per cell")
    args = ap.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    env, cells = measure(sorted(args.sizes), args.repeat, src)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update(sizes=sorted(args.sizes), repeat=args.repeat, budget_s=BUDGET_S,
               float_precisions=list(FLOAT_PRECISIONS), cold_start_bytecode=COLD_START_BYTECODE)
    doc.setdefault("columns", {})[args.column] = env
    for name, row in cells.items():
        doc.setdefault("layers", {}).setdefault(name, {})[args.column] = row
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
