#!/usr/bin/env python3
"""Benchmark of the invpower command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload, one table

Run from a checkout: the program is imported from ``src/`` beside this
directory.  A run makes its workload's seeded mix of ``MIX_SIZE`` CLI
requests (see ``mix.py``) and sends them to ``invpower.cli.main(argv)`` in
a closed loop with one client: the next request starts when the previous
one returns.  The whole mix is repeated in passes until ``--seconds`` of
wall time have gone (the first pass always completes); later passes must
reproduce the first pass byte for byte, and the first pass is checked
against the independent oracles in ``oracles.py``.

Per-request times are process CPU time (``time.process_time``) rescaled
to a reference machine speed.  On a VM whose host does not report stolen
time, process CPU time still counts the time the host took the vCPU
away, and identical passes differ by up to a third.  So each request is
bracketed by a fixed calibration kernel, and its CPU time is multiplied
by ``REFERENCE_CAL_S`` over the kernel's CPU time measured around it:
the result reads as CPU seconds on a machine where the kernel takes
``REFERENCE_CAL_S``, and a slower or busier moment cancels out.  A
request's latency is the median of its passes.  Raw CPU and wall time
are printed as diagnostics only.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones (``tracer.py``) plus the tracing overhead.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import mix
import oracles
from calibration import REFERENCE_CAL_S, calibration_s
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 20
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
PASS_DEADLINE_S = 120  # no pass starts after this, whatever --seconds says
# a fresh process times its own set-up, then calibrates; nothing else is
# imported before the set-up, so the set-up imports what it needs itself
SETUP_PROBE = ("import sys, time; start = time.process_time(); sys.path.insert(0, sys.argv[1]); "
               "import invpower.cli as cli; cli.build_parser(); setup = time.process_time() - start; "
               "sys.path.insert(0, sys.argv[2]); from calibration import calibration_runs; "
               "print(setup, *calibration_runs(40))")


@dataclass
class Outcome:
    code: object
    out: str
    err: str
    cpu: float  # rescaled to the reference speed
    raw_cpu: float
    wall: float

    def digest(self) -> str:
        return hashlib.sha256(f"{self.code!r}\0{self.out}\0{self.err}".encode()).hexdigest()


class Tally:
    """Requests attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    @property
    def failure_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def load_program():
    """Import invpower from this checkout's sources, or stop."""
    if not (SRC / "invpower" / "cli.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'invpower'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import invpower
    from invpower import (approximant, asymptotics, cli, corpus, identities, scalar, series,
                          transforms)
    if Path(invpower.__file__).resolve().parent != SRC / "invpower":
        sys.exit(f"perfbench: imported invpower from {invpower.__file__}, not {SRC}")
    modules = {"": invpower, "scalar": scalar, "series": series, "transforms": transforms,
               "approximant": approximant, "asymptotics": asymptotics,
               "identities": identities, "corpus": corpus, "cli": cli}
    return cli, modules


def measure_setup() -> float:
    """Median CPU seconds, at the reference speed, that a fresh interpreter
    spends importing the CLI and building its parser, as every invocation
    of the command pays.  The interpreter's own start-up is left out: no
    program change moves it, and it is the noisiest part.  Each probe
    rescales by the median of 40 calibration runs after its set-up.  One
    unmeasured probe first fills the bytecode cache."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        setup, *calibration = map(float, proc.stdout.split())
        if i:
            times.append(setup * REFERENCE_CAL_S / statistics.median(calibration))
    return statistics.median(times)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def call(cli, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    before = calibration_s()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: object = cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    scale = REFERENCE_CAL_S / ((before + calibration_s()) / 2)
    return Outcome(code, out.getvalue(), err.getvalue(), cpu * scale, cpu, wall)


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, the i-th weighted by the
    Beta(q(n+1), (1-q)(n+1)) probability of ((i-1)/n, i/n), q = p/100.  It
    estimates the same quantile as interpolating the one or two nearest
    order statistics, but a request whose cost moves by chance shifts it
    far less: on 40-request mixes it cut the seed-to-seed spread of p50
    and p75 by a third to two thirds.
    """
    xs = sorted(values)
    n, q = len(xs), p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule within each slice; the weights are renormalized
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        points = (i / n + (k + 0.5) * h for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples above it."""
    return next(p for p in TAIL_LADDER if n * (1 - p / 100) >= TAIL_BEYOND or p == 50.0)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import mpmath
    import mpmath.libmp
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(), "git_commit": git_commit(), "platform": platform.platform()}


class Workload:
    """One seeded mix, its files on disk, and the first pass's outputs."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.requests = mix.WORKLOADS[name](seed)
        self.deterministic = mix.WORKLOADS[name](seed) == self.requests
        self.gaps = mix.coverage_gaps(name, self.requests)
        self.fingerprint = mix.fingerprint(self.requests)
        self.work = work
        self.argvs = []
        for r in self.requests:
            names = {fname for fname, _ in r.files}
            for fname, data in r.files:
                (work / fname).write_bytes(data)
            self.argvs.append([str(work / a) if a in names else a for a in r.argv])
        self.digests: list[str] = []
        self.cpu: list[list[float]] = [[] for _ in self.requests]
        self.raw_cpu: list[list[float]] = [[] for _ in self.requests]
        self.wall: list[list[float]] = [[] for _ in self.requests]
        self.repeats: list[list[bool]] = [[] for _ in self.requests]
        self.pass_cpu: list[float] = []
        self.output_bytes = 0

    def run_pass(self, cli, tracer: Tracer | None = None) -> float:
        """One pass over the mix; returns its total request CPU seconds."""
        total = 0.0
        first = not self.digests
        for i, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.request = i
            result = call(cli, argv)
            if tracer is not None:
                tracer.end_request(len(result.out.encode()))
            total += result.cpu
            if first:
                self.digests.append(result.digest())
                self.output_bytes += len(result.out.encode())
                (self.work / f"out-{i:02d}.json").write_text(
                    json.dumps([result.code, result.out, result.err]))
            else:
                self.repeats[i].append(result.digest() == self.digests[i])
            if tracer is None:
                self.cpu[i].append(result.cpu)
                self.raw_cpu[i].append(result.raw_cpu)
                self.wall[i].append(result.wall)
        if tracer is None:
            self.pass_cpu.append(total)
        return total

    def first_output(self, i: int) -> tuple:
        return tuple(json.loads((self.work / f"out-{i:02d}.json").read_text()))

    def check(self) -> tuple[Tally, list[dict]]:
        """Oracle verdicts on the first pass; a later execution passes when
        its output is byte-identical to a first output that passed."""
        tally, facts = Tally(), []
        for i, request in enumerate(self.requests):
            ok, reason, found = oracles.check(request, *self.first_output(i))
            facts.append(found)
            where = f"request {i} ({' '.join(request.argv)[:80]})"
            tally.record(ok, f"{where}: {reason}")
            for same in self.repeats[i]:
                tally.record(ok and same, f"{where}: " + (reason if same else
                                                          "output differs from the first pass"))
        return tally, facts

    def checker_self_test(self) -> tuple[bool, str]:
        """Perturbed copies of real outputs must each count as a failure:
        one digit of a value changed (in the first request of each output
        format, failing the check of that value), a wrong exit code, a
        missing (or spurious) warning."""
        request = self.requests[0]
        code, out, err = self.first_output(0)
        baseline_ok = oracles.check(request, code, out, err)[0]
        hazard = next((i for i, r in enumerate(self.requests)
                       if r.spec.get("mode") == "float"
                       and oracles.is_hazard(r.spec["m_max"], r.spec["precision"])), None)
        if hazard is None:
            warn_case = (self.requests[0], code, out, err + "warning: spurious\n")
        else:
            h_code, h_out, _ = self.first_output(hazard)
            warn_case = (self.requests[hazard], h_code, h_out, "")
        firsts = {}
        for i, r in enumerate(self.requests):
            firsts.setdefault(r.spec["format"], i)
        tally, misses = Tally(), []
        for fmt, i in sorted(firsts.items()):
            r_code, r_out, r_err = self.first_output(i)
            changed, value = oracles.change_one_digit(self.requests[i], r_out)
            ok, reason = oracles.check(self.requests[i], r_code, changed, r_err)[:2]
            tally.record(ok, reason)
            if ok or not oracles.names_value(reason, value):
                misses.append(f"{fmt} with a digit of {value} changed: {reason or 'passed'}")
        for case in ((request, 1 if code == 0 else 0, out, err), warn_case):
            ok, reason = oracles.check(*case)[:2]
            tally.record(ok, reason)
            if ok:
                misses.append(f"{case[0].command} with a wrong exit code or warning passed")
        ok = baseline_ok and not misses
        return ok, (f"{tally.failed} of {tally.attempted} perturbed outputs counted in "
                    f"failure_ratio ({tally.failure_ratio:.3f}), each by the check it targets: "
                    f"{'yes' if not misses else 'no'}; unperturbed output "
                    f"{'passes' if baseline_ok else 'FAILS'}"
                    + "".join(f"; {m[:120]}" for m in misses))


def end_to_end(wl: Workload, setup_s: float, rss_mb: float) -> dict:
    latencies = [statistics.median(c) for c in wl.cpu]
    tail = tail_percentile(len(latencies))
    return {
        "latency_p50_cpu_s": (percentile(latencies, 50), "s",
                              f"Harrell-Davis median of {len(latencies)} per-request medians"),
        "latency_tail_cpu_s": (percentile(latencies, tail), "s",
                               f"p{tail:g}, n={len(latencies)}, "
                               f"{len(latencies) * (1 - tail / 100):g} beyond"),
        "requests_per_cpu_s": (len(latencies) / sum(latencies), "1/s",
                               "mix size / summed per-request medians"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss after the timed passes"),
        "setup_s": (setup_s, "s", f"median of {SETUP_SAMPLES} fresh interpreters"),
    }


def run_workload(args) -> int:
    cli, modules = load_program()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        return measure(args, cli, modules, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, modules, work: Path) -> int:
    t0 = time.perf_counter()
    wl = Workload(args.workload, args.seed, work)
    t1 = time.perf_counter()
    setup_s = measure_setup() if not args.trace else None
    rss_before_mb = max_rss_mb()
    started = time.perf_counter()
    traced: list[tuple[dict, dict, float]] = []
    spans: list[dict] = []
    while True:
        wl.run_pass(cli)
        if args.trace:
            tracer = Tracer(modules)
            tracer.install()
            try:
                cpu = wl.run_pass(cli, tracer)
            finally:
                tracer.uninstall()
            traced.append((tracer.exact_counts(), tracer.self_times(), cpu))
            spans = tracer.span_records()
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds or elapsed >= PASS_DEADLINE_S:
            break
    measured_wall = time.perf_counter() - started
    rss_mb = max_rss_mb()

    t2 = time.perf_counter()
    tally, facts = wl.check()
    self_test_ok, self_test = wl.checker_self_test()
    phases = (f"wall: mix {t1 - t0:.1f} s, set-up probes {started - t1:.1f} s, "
              f"passes {measured_wall:.1f} s, checks {time.perf_counter() - t2:.1f} s")
    problems = [f"coverage gap: {g}" for g in wl.gaps]
    if not wl.deterministic:
        problems.append("the same seed gave two different mixes")
    if not self_test_ok:
        problems.append(f"checker self-test: {self_test}")

    passes = len(wl.pass_cpu)
    lines = [f"perfbench {args.workload} seed={args.seed}: {len(wl.requests)} requests x "
             f"{passes} passes, {tally.attempted} attempted, {tally.failed} failed; {phases}"]
    e2e = end_to_end(wl, setup_s, rss_mb) if not args.trace else None
    if e2e is not None:
        for name, (value, unit, how) in e2e.items():
            lines.append(f"  {name:<22} {value:<12.6g} {unit:<4} {how}")
    lines.append(f"  {'failure_ratio':<22} {tally.failure_ratio:<12.6g} {'':<4} "
                 f"{tally.failed}/{tally.attempted} requests")
    accuracy = [f["accuracy_bits"] for f in facts if f.get("accuracy_bits") is not None]
    if accuracy:
        lines.append(f"  {'accuracy_bits':<22} {min(accuracy):<12.6g} {'bits':<4} "
                     f"min over {len(accuracy)} non-hazard requests of -log2(|q - q_exact| / S)")
    walls = [statistics.median(w) for w in wl.wall]
    raws = [statistics.median(c) for c in wl.raw_cpu]
    lines.append(f"  diagnostics (ungated): unscaled CPU p50 {statistics.median(raws):.6g} s, "
                 f"wall p50 {statistics.median(walls):.6g} s, wall max {max(walls):.6g} s, "
                 f"peak RSS before the passes {rss_before_mb:.6g} MB, "
                 f"scaled CPU per pass {', '.join(f'{c:.3f}' for c in wl.pass_cpu)} s")
    lines.append(f"  checker self-test: {self_test}")
    lines.append(f"  coverage: {'every claimed branch present' if not wl.gaps else wl.gaps}; "
                 f"mix fingerprint {wl.fingerprint}, deterministic={wl.deterministic}")
    for reason in tally.reasons:
        lines.append(f"  FAILED {reason}")

    samples_path = WORK / f"requests-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    samples_path.write_text(json.dumps([
        {"argv": r.argv, "cpu_s": cpu, "unscaled_cpu_s": raw, "wall_s": wall}
        for r, cpu, raw, wall in zip(wl.requests, wl.cpu, wl.raw_cpu, wl.wall)]))
    lines.append(f"  per-request samples: {samples_path.relative_to(ROOT)}")
    if args.trace:
        metrics, trace_problems = layer_metrics(wl, traced, facts)
        problems += trace_problems
        out_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        out_path.write_text(json.dumps({"provenance": provenance(args), "spans": spans}))
        lines.append(f"  spans of the last traced pass: {out_path.relative_to(ROOT)} "
                     f"({len(spans)} spans)")
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in e2e.items()}
    for problem in problems:
        lines.append(f"  PROBLEM {problem}")
    lines.append("provenance: " + json.dumps(provenance(args)))
    print("\n".join(lines))
    result = {"correct": tally.failed == 0 and not problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def layer_metrics(wl: Workload, traced, facts) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, with the invariants that
    tie them to the untraced passes."""
    problems = []
    counts = traced[0][0]
    if any(t[0] != counts for t in traced[1:]):
        problems.append("per-layer counts differ between traced passes")
    untraced_cases = sum(f.get("cases", 0) for f in facts)
    if counts["identities.cases"][0] != untraced_cases:
        problems.append(f"identities.cases traced {counts['identities.cases'][0]} "
                        f"!= untraced {untraced_cases}")
    if counts["cli.output_bytes"][0] != wl.output_bytes:
        problems.append(f"cli.output_bytes traced {counts['cli.output_bytes'][0]} "
                        f"!= untraced {wl.output_bytes}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in counts.items()}
    for name in traced[0][1]:
        metrics[name] = {"value": statistics.median(t[1][name] for t in traced), "unit": "s"}
    overhead = statistics.median(t[2] for t in traced) / statistics.median(wl.pass_cpu) - 1
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics, problems


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, then one table."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in mix.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
    print(f"\n{'workload':<18} {'metric':<40} {'value':>14} unit")
    for name, metric, value, unit in rows:
        print(f"{name:<18} {metric:<40} {value:>14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*mix.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
