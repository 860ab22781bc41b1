"""The experiment scripts and ``python -m invpower`` run from a checkout,
as the README shows them."""

import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

import invpower
from invpower import (approximant, asymptotics, cli, corpus, identities, scalar, series,
                      transforms)
from invpower.cli import main

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of `float_cancellation_study.py --m-max 60`, recorded with the
# literal Scalar row sums that preceded the raw-mpf float loop: the script
# prints float-mode table rows, so a change in float rounding shows here.
FLOAT_STUDY_M60 = "44072b04b9eea3e49ea392b6f84f2f925c05f659e3698b5f229e7b227ed6ab1e"
# SHA-256 of `run_convergence_study.py` at its default --m-max 40, recorded
# while the residual scan still lived in the package: the script prints
# exact table rows and the scan's remainder, so a change in either shows here.
STUDY_M40 = "11afef27209ecef3d47a4a4c5df0fc05bf3b3e902f248ba036dca662b7b7ec27"


def run_python(*argv, text=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=text,
                          env=env, cwd=ROOT, timeout=120)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


@pytest.mark.parametrize("name,args", [
    ("run_convergence_study.py", ["--m-max", "8", "--digits", "6"]),
    ("float_cancellation_study.py", ["--m-max", "20", "--precision", "128"]),
    # one and two table rows: estimate_limits reads them instead of rejecting the table
    ("run_convergence_study.py", ["--m-max", "1"]),
    ("run_convergence_study.py", ["--m-max", "0"]),
])
def test_script_runs(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_float_study_output_unchanged():
    proc = run_script("float_cancellation_study.py", "--m-max", "60")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == FLOAT_STUDY_M60


def test_convergence_study_output_unchanged():
    proc = run_script("run_convergence_study.py")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == STUDY_M40


def test_bench_writes_one_column_per_run(tmp_path):
    """``bench.py`` at a small size, timing two source trees in one run:
    a column each plus their per-cell ratio, every layer timed, the
    interpreter recorded, and a column already in the file kept.  Each
    cell is the median of its samples, rescaled by the calibration kernel
    in ``layers`` and as measured in ``raw_layers``, each ratio the median
    of the per-pair ratios of rescaled samples, and the tree that goes
    first alternates pair by pair."""
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"columns": {"earlier": {}},
                               "layers": {"run_suite": {"earlier": {"20": 1.0}}}}))
    proc = run_script("bench.py", "--out", str(out), "--column", "change",
                      "--against", f"parent={ROOT / 'src'}",
                      "--sizes", "20", "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["sizes"] == [20]
    assert set(doc["columns"]) == {"earlier", "parent", "change"}
    assert all(set(env) == {"python", "mpmath_backend"}
               for column, env in doc["columns"].items() if column != "earlier")
    assert "pycache_prefix" in doc["cold_start_bytecode"]
    assert "fresh child process" in doc["cell_process"]
    assert doc["float_precisions"] == [64, 128, 256]
    assert "perfbench/calibration.py" in doc["calibration"]
    assert doc["layers"]["run_suite"]["earlier"] == {"20": 1.0}
    assert "earlier" not in doc["raw_layers"]["run_suite"]
    # the samples as timed, in order: layer -> [(column, rescaled, raw), ...]
    samples = {}
    for line in proc.stderr.splitlines():
        if " m=20 " in line:
            layer, _, column, _, seconds, _, raw = line.strip().rsplit(None, 6)
            samples.setdefault(layer, []).append((column, float(seconds), float(raw)))
    ratios = doc["ratios"]["change/parent"]
    for layer in ("convergence_table exact", "convergence_table float64",
                  "convergence_table float128", "convergence_table float256",
                  "coeffs_closed_form float64", "coeffs_closed_form float128",
                  "coeffs_closed_form float256", "taylor_coeffs exact",
                  "load_coefficient_file exact", "evaluate exact",
                  "evaluate float128", "binomial_convolve exact", "estimate_limits exact",
                  "cli estimate exact csv", "cli estimate exact json", "cli estimate float64",
                  "cli estimate float128", "cli estimate float256", "cli approximate float128",
                  "run_suite", "cli cold start", "cli cold start uncached"):
        assert [column for column, *_ in samples[layer]] == ["change", "parent", "parent", "change"]
        times = {column: [t for c, t, _ in samples[layer] if c == column]
                 for column in ("parent", "change")}
        row, raw_row = doc["layers"][layer], doc["raw_layers"][layer]
        for column, sampled in times.items():
            assert all(t > 0 for t in sampled)
            assert row[column]["20"] == statistics.median(sampled)
            raw = [r for c, _, r in samples[layer] if c == column]
            assert all(r > 0 for r in raw)
            assert raw_row[column]["20"] == statistics.median(raw)
        assert ratios[layer]["20"] == statistics.median(
            [c / p for c, p in zip(times["change"], times["parent"])])


ESTIMATE = ["estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "12", "--format", "json"]


def test_module_entry_point_prints_what_main_prints(capsys):
    proc = run_python("-m", "invpower", *ESTIMATE, text=False)
    assert proc.returncode == main(ESTIMATE) == 0
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("argv,code", [
    (["estimate", "--corpus", "one-over-x", "--m-max", "3"], 0),
    (["estimate", "--corpus", "one-over-x", "--m-max", "zz"], 1),
    (["estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "1", "--require-converged"], 2),
])
def test_module_entry_point_exit_codes(argv, code):
    assert run_python("-m", "invpower", *argv).returncode == code


# runs ``main`` on its arguments in a fresh interpreter, then prints which of
# mpmath and the identity suite the run imported
IMPORT_PROBE = ("import io, sys\nfrom contextlib import redirect_stdout\nfrom invpower.cli import main\n"
                "with redirect_stdout(io.StringIO()):\n    code = main(sys.argv[1:])\n"
                "print(code, *(m for m in ('mpmath', 'invpower.identities') if m in sys.modules))")


@pytest.mark.parametrize("argv,loaded", [
    (["estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "12"], []),
    (["estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "12", "--format", "json"], []),
    (["approximate", "--corpus", "mobius-2-3-1-2", "--m", "6", "--eval", "1/2,3"], []),
    (["corpus", "--fn", "mobius-2-3-1-2", "--n", "5"], []),
    (["verify-identities", "--m-max", "3", "--k-max", "3"], ["invpower.identities"]),
    # the probe sees mpmath when float mode loads it
    (["estimate", "--corpus", "mobius-2-3-1-2", "--m-max", "12", "--mode", "float"], ["mpmath"]),
])
def test_commands_import_only_what_they_run(argv, loaded):
    """An exact run never imports mpmath, and only verify-identities
    imports the identity suite."""
    proc = run_python("-c", IMPORT_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", *loaded]


@pytest.mark.parametrize("argv", [ESTIMATE, [*ESTIMATE, "--mode", "float", "--precision", "128"]],
                         ids=["exact", "float"])
def test_perfbench_tracer_installs_on_the_package_and_uninstalls(capsys, argv):
    """``perfbench/tracer.py`` wraps package functions by module and name,
    and ``Scalar`` ops on the class, from outside the package: a traced
    name that moves or goes fails here.  The modules are mapped as
    ``perfbench/run.py`` maps them, and the rows of an exact and of a
    float table are read."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {"": invpower, "scalar": scalar, "series": series, "transforms": transforms,
               "approximant": approximant, "asymptotics": asymptotics,
               "identities": identities, "corpus": corpus, "cli": cli}
    owners = [*modules.values(), scalar.Scalar, series.TaylorSeries]
    scalar._bind_mpmath()  # a float run binds ``scalar.libmp``; bind it before the snapshot
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        assert cli.main(argv) == 0
        approximant.coeffs_via_matrix(series.series_from_rationals(1, [1, 2, 3]), 2)
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
    assert json.loads(capsys.readouterr().out)["command"] == "estimate"
    counts = tracer.exact_counts()
    for name in ("cli.main", "approximant.coeffs_via_matrix", "transforms.binomial_convolve"):
        assert counts[f"{name}.calls"] == (1, "count")
    assert counts["scalar.ops.calls"][0] > 0
    assert [len(table.rows) for table in tracer.tables] == [13]


def test_package_binds_only_its_modules():
    """Every name is imported from its own module: ``import invpower``
    binds its submodules, ``__version__`` and module dunders, no alias."""
    for name, value in vars(invpower).items():
        if not (name.startswith("__") and name.endswith("__")):
            assert isinstance(value, types.ModuleType), name
            assert value.__name__ == f"invpower.{name}"


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`:UserWarning")
def test_pyproject_version_is_the_package_version():
    """pyproject.toml takes its version from ``invpower.__version__``."""
    from setuptools.config.pyprojecttoml import read_configuration
    assert read_configuration(ROOT / "pyproject.toml")["project"]["version"] == invpower.__version__
