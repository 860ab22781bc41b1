#!/usr/bin/env python3
"""How each layer scales: median CPU time per call at fixed sizes.

    python scripts/bench.py --out BENCH_<n>.json --column change --against parent=../parent/src
    python scripts/bench.py --out BENCH_<n>.json --column parent --src ../parent/src
    python scripts/bench.py --out /tmp/b.json --column x --sizes 50 --repeat 1

Every layer runs on mobius(2,3,1,2) about 1 (the function 2 - 1/(x+2)),
exact or rounded to 64-, 128- and 256-bit floats, at each dimension m in
``--sizes``:
``taylor_coeffs`` expands it to m + 1 coefficients,
``load_coefficient_file`` reads them back from the exact coefficient
file ``corpus --out`` would write, ``evaluate`` sums
its dimension-m approximant at x = 1/2 (exact, and at 128 bits), and
``estimate_limits`` reads the limits off its dimension-m convergence
table at tolerance 1e-9.  The ``cli`` layers call ``main`` in-process.  ``run_suite`` checks
every identity tuple with m and k up to the size, as
``verify-identities --m-max m --k-max m`` does.  ``cli cold start`` is
a whole ``python -m invpower estimate`` process (exact, ``--m-max m``):
interpreter start-up, imports, parsing and the command.  It is timed by
the child CPU time that ``RUSAGE_CHILDREN`` reports, with the bytecode
cached: the children read and write ``.pyc`` files under a private
``pycache_prefix``, filled by one unmeasured run first.  Its twin ``cli
cold start uncached`` runs the same process with
``PYTHONDONTWRITEBYTECODE=1`` and no ``pycache_prefix``, as perfbench's
set-up probes run where that variable is set: the standard library is
read from its installed cache, and the package, which then has none, is
compiled by every run.

A cell is one layer at one size, and it is the median CPU time per call
of its ``--repeat`` samples.  Each sample runs in a fresh child process,
which builds the series, approximant or table the layer reads before
the timing starts, then repeats the call until it has used 0.2 CPU
seconds, in chunks of at least 0.02 s.  As perfbench does around each
request, the child times perfbench's fixed calibration kernel
(``perfbench/calibration.py``) between chunks and multiplies each
chunk's CPU seconds by ``REFERENCE_CAL_S`` over the mean of the
kernel's times on either side of it, so a host that is slower or busier
for a while is factored out: ``layers`` holds these rescaled seconds,
``raw_layers`` the CPU seconds as measured.  A sample that runs longer
than ``BUDGET_S`` (10) seconds is stopped by a wall-clock timer, and
that size and every larger one of the layer are recorded as null for
that source tree.  The timer is not a CPU timer: on a 2-vCPU Linux VM
(kernel 6.18), an armed ``ITIMER_PROF`` made the process CPU clock tick
in steps of about 4 ms, which read the 0.5 ms calibration kernel as 0.

With ``--against NAME=SRC``, a second source tree is timed in the same
run, as column NAME.  The samples come in pairs, one of each tree, and
which tree goes first alternates from pair to pair, so a swing in the
host's speed lands on both columns alike.  Both columns are written,
and per cell ``ratios`` holds the median of the pairs' ratios of the
first tree to the second, in rescaled seconds.

The output file holds one column per ``--column`` name, each with the
Python version and mpmath's arithmetic backend it ran under.  An
existing file keeps its other columns.
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
from functools import partial
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))  # appended: nothing there shadows a package
from calibration import REFERENCE_CAL_S, calibration_s  # noqa: E402

SIZES = (50, 200, 800, 2000)
FLOAT_PRECISIONS = (64, 128, 256)
MIN_SAMPLE_S = 0.2
CHUNK_S = 0.02
BUDGET_S = 10.0
COLD_START_BYTECODE = ("cli cold start: cached under a private pycache_prefix by one unmeasured "
                       "run; cli cold start uncached: PYTHONDONTWRITEBYTECODE=1 and no "
                       "pycache_prefix, so every run compiles the package")
CELL_PROCESS = ("each sample of a (layer, size) cell in a fresh child process; "
                "--against trees alternate pair by pair")
CALIBRATION = ("layers: CPU seconds of each chunk of a sample times REFERENCE_CAL_S over "
               "the mean of perfbench/calibration.py's kernel timed before and after it; "
               "raw_layers: CPU seconds as measured")


class OverBudget(BaseException):
    """Raised by the budget timer; a BaseException, so no ``except
    Exception`` in the code under test can swallow it."""


def _over_budget(signum, frame):
    raise OverBudget


def child_cpu_s() -> float:
    """CPU seconds used by this process's finished, waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_start(src: Path, pycache: str | None, m: int):
    """A call that runs ``python -m invpower estimate --m-max m`` in a
    fresh interpreter, after one unmeasured run: with ``pycache`` a
    directory, that run caches the bytecode under it; with None, no run
    writes bytecode."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)
    if pycache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    cache = [] if pycache is None else ["-X", f"pycache_prefix={pycache}"]
    argv = [sys.executable, *cache, "-m", "invpower", "estimate",
            "--corpus", "mobius-2-3-1-2", "--m-max", str(m)]
    call = partial(subprocess.run, argv, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=60)
    call()
    return call


def layers(src: Path, workdir: str | None):
    """Layer name -> (clock, prepare): ``prepare(m)`` builds what the
    layer reads at dimension m, in the private directory ``workdir``
    when it is a file, and returns the call to time."""
    from invpower.approximant import coeffs_closed_form, coeffs_via_matrix, evaluate
    from invpower.asymptotics import convergence_table, estimate_limits
    from invpower.cli import main
    from invpower.corpus import (load_coefficient_file, mobius, save_coefficient_file,
                                 taylor_coeffs)
    from invpower.identities import SuiteRanges, run_suite
    from invpower.scalar import Scalar
    from invpower.transforms import binomial_convolve

    f, center = mobius(2, 3, 1, 2), Scalar.rational(1)
    point, tol = Scalar.rational(1, 2), Scalar.rational(1, 10 ** 9)

    def series(m, precision=None):
        exact = taylor_coeffs(f, center, m + 1)
        return exact if precision is None else exact.to_inexact(precision)

    def coefficient_file(m):
        path = os.path.join(workdir, "coeffs.json")
        save_coefficient_file(series(m), path)
        return path

    def run_cli(args):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        if code != 0:
            raise SystemExit(f"{' '.join(args)} exited {code}")

    def cli(*argv):
        return lambda m: partial(run_cli, [a.format(m=m) for a in argv])

    prepares = {
        "taylor_coeffs exact": lambda m: partial(taylor_coeffs, f, center, m + 1),
        "load_coefficient_file exact":
            lambda m: partial(load_coefficient_file, coefficient_file(m)),
        **{f"evaluate {name}": lambda m, p=p: partial(
            evaluate, coeffs_closed_form(series(m, p), m), point)
           for name, p in (("exact", None), ("float128", 128))},
        **{f"convergence_table {name}": lambda m, p=p: partial(convergence_table, series(m, p), m)
           for name, p in (("exact", None), *((f"float{p}", p) for p in FLOAT_PRECISIONS))},
        "estimate_limits exact":
            lambda m: partial(estimate_limits, convergence_table(series(m), m), tol),
        **{f"coeffs_closed_form {name}": lambda m, p=p: partial(coeffs_closed_form, series(m, p), m)
           for name, p in (("exact", None), *((f"float{p}", p) for p in FLOAT_PRECISIONS))},
        "coeffs_via_matrix exact": lambda m: partial(coeffs_via_matrix, series(m), m),
        "binomial_convolve exact": lambda m: partial(binomial_convolve, series(m), m),
        **{f"cli estimate exact {fmt}": cli(
            "estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "{m}", "--format", fmt)
           for fmt in ("csv", "json")},
        **{f"cli estimate float{p}": cli(
            "estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "{m}",
            "--mode", "float", "--precision", str(p)) for p in FLOAT_PRECISIONS},
        "cli approximate exact": cli(
            "approximate", "--corpus", "mobius-2-3-1-2", "--m", "{m}", "--eval", "1/2,3"),
        "cli approximate float128": cli(
            "approximate", "--corpus", "mobius-2-3-1-2", "--m", "{m}", "--mode", "float",
            "--precision", "128", "--eval", "1/2,3", "--format", "json"),
        "run_suite":
            lambda m: partial(run_suite, SuiteRanges(tuple(range(m + 1)), tuple(range(m + 1)))),
    }
    return {**{name: (time.process_time, prepare) for name, prepare in prepares.items()},
            "cli cold start": (child_cpu_s, partial(cold_start, src, workdir)),
            "cli cold start uncached": (child_cpu_s, partial(cold_start, src, None))}


def cpu_seconds(clock, call):
    """CPU seconds per call on ``clock``, rescaled (``s``) and as measured
    (``raw_s``), over as many calls as fill ``MIN_SAMPLE_S`` (the CPU
    clock may tick in milliseconds), or None when the sample runs past
    ``BUDGET_S`` seconds.  The calls run in chunks of at least
    ``CHUNK_S``, and each chunk's seconds are multiplied by
    ``REFERENCE_CAL_S`` over the mean of the calibration kernel's times
    before and after it.  Garbage left by building the inputs is
    collected first, so it is not charged to the call."""
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        raw = scaled = 0.0
        calls = 0
        cal = calibration_s()
        while raw < MIN_SAMPLE_S:
            start = clock()
            while (elapsed := clock() - start) < CHUNK_S:
                call()
                calls += 1
            before, cal = cal, calibration_s()
            raw += elapsed
            scaled += elapsed * REFERENCE_CAL_S / ((before + cal) / 2)
        return {"s": scaled / calls, "raw_s": raw / calls}
    except OverBudget:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure_cell(name: str, m: int, src: Path):
    """One sample of one layer at one size in this process: ``cpu_seconds``
    of its call, or None when it runs over budget."""
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _over_budget)
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as workdir:
        warnings.simplefilter("ignore")
        clock, prepare = layers(src, workdir)[name]
        return cpu_seconds(clock, prepare(m))


def run_cell(name: str, m: int, src: Path):
    """``measure_cell`` in a fresh child process."""
    argv = [sys.executable, __file__, "--cell", name, "--sizes", str(m), "--src", str(src)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"cell {name!r} m={m} under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def measure(sizes, repeat, trees):
    """For ``trees``, a list of (column, source tree): "s" (rescaled) and
    "raw_s" (as measured) -> column name -> layer name -> size -> median
    seconds, and for two trees layer name -> size -> the median of the
    per-pair ratios of the first tree's rescaled seconds to the second's.
    Each cell takes ``repeat`` samples of each tree, in pairs, and the
    tree that goes first alternates pair by pair."""
    sys.path.insert(0, str(trees[0][1]))
    names = list(layers(trees[0][1], workdir=None))
    cells = {key: {column: {name: {} for name in names} for column, _ in trees}
             for key in ("s", "raw_s")}
    ratios = {name: {} for name in names}
    turn = 0
    for name in names:
        stopped = set()
        for m in sizes:
            samples = {column: [] for column, _ in trees}
            for _ in range(repeat):
                order = trees if turn % 2 == 0 else trees[::-1]
                turn += 1
                for column, src in order:
                    t = None if column in stopped else run_cell(name, m, src)
                    if t is None:
                        stopped.add(column)
                    samples[column].append(t)
                    s, raw = (None, None) if t is None else (t["s"], t["raw_s"])
                    print(f"{name:>34} m={m:<5} {column:>10} rescaled {s!r} raw {raw!r}",
                          file=sys.stderr)
            for key, table in cells.items():
                for column, times in samples.items():
                    table[column][name][str(m)] = None if None in times else statistics.median(
                        t[key] for t in times)
            if len(trees) == 2:
                top, base = samples.values()
                ratios[name][str(m)] = None if None in top + base else statistics.median(
                    [a["s"] / b["s"] for a, b in zip(top, base)])
    return cells, ratios


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", type=Path, help="JSON file to write or extend")
    ap.add_argument("--column", help="column name, e.g. parent or change")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory that holds the invpower package to time")
    ap.add_argument("--against", metavar="NAME=SRC",
                    help="column name and package directory of a second tree, timed in turn")
    ap.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                    default=list(SIZES), help="comma-separated dimensions m")
    ap.add_argument("--repeat", type=int, default=3, help="samples per cell")
    ap.add_argument("--cell", metavar="LAYER",
                    help="take one sample of one layer at the one size in --sizes in this "
                         "process, print its seconds")
    args = ap.parse_args()

    src = args.src.resolve()
    if args.cell:
        if len(args.sizes) != 1:
            ap.error("--cell takes one size in --sizes")
        print(json.dumps(measure_cell(args.cell, args.sizes[0], src)))
        return
    if args.out is None or args.column is None:
        ap.error("--out and --column are required")
    trees = [(args.column, src)]
    if args.against:
        against_column, _, against_src = args.against.partition("=")
        if not against_column or not against_src or against_column == args.column:
            ap.error("--against takes NAME=SRC, NAME other than --column")
        trees.append((against_column, Path(against_src).resolve()))
    sizes = sorted(args.sizes)
    cells, ratios = measure(sizes, args.repeat, trees)
    env = {"python": platform.python_version(), "mpmath_backend": mpmath.libmp.BACKEND}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update(sizes=sizes, repeat=args.repeat, budget_s=BUDGET_S,
               float_precisions=list(FLOAT_PRECISIONS), cold_start_bytecode=COLD_START_BYTECODE,
               cell_process=CELL_PROCESS, calibration=CALIBRATION)
    for key, field in (("s", "layers"), ("raw_s", "raw_layers")):
        for column, rows in cells[key].items():
            doc.setdefault("columns", {})[column] = env
            for name, row in rows.items():
                doc.setdefault(field, {}).setdefault(name, {})[column] = row
    if args.against:
        doc.setdefault("ratios", {})["/".join(cells["s"])] = ratios
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
