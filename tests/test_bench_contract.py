"""The benchmark's contract with the package: every perfbench workload
runs one set-up, one untraced round and one traced round in-process, at
seed 1, with every op attempted, none failed and no output wrong.

perfbench/workloads.py, perfbench/tracing.py and run.py's workload
dispatch are imported as they are; a package name or option they call
that goes away fails here, not only when the benchmark runs.  The
committed perfbench/reference.json must regenerate byte for byte.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    with open(PERFBENCH / "reference.json") as fh:
        ref = json.load(fh)
    return run, workloads, tracing, ref


@pytest.mark.parametrize("name", ["sim-small", "sim-large",
                                  "design-certify", "algebra"])
def test_workload_runs_clean(perfbench, name, tmp_path):
    run, wl, tracing, ref = perfbench
    tracer = tracing.Tracer(clock=time.perf_counter)
    ledger = wl.Ledger()
    work = run._make_workload(name, 1, ref, tracer, time.perf_counter,
                              str(tmp_path))
    try:
        with tracer.op_span("setup-0", "setup", False):
            state = work.setup(ledger)
        for r, traced in enumerate((False, True)):
            with tracer.op_span("round-%d" % r, "timed", traced):
                work.round(state, r, ledger)
    finally:
        tracer.uninstall()
    assert ledger.attempted > 0
    assert (ledger.failed, ledger.wrong) == (0, 0), ledger.notes
    # the traced round recorded spans of the package's calls
    assert any(s[4] != "bench" for s in tracer.spans)


def test_reference_regenerates_byte_identically(tmp_path):
    # a change that reorders a floating-point sum must keep every
    # committed reference output: make_reference.py, run on a copy of
    # src/ and perfbench/ with RuntimeWarnings as errors, rewrites the
    # copy's reference.json byte for byte
    for name in ("src", "perfbench"):
        shutil.copytree(PERFBENCH.parent / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    (tmp_path / "perfbench" / "reference.json").unlink()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                    "perfbench/make_reference.py"], cwd=tmp_path, env=env,
                   check=True, capture_output=True)
    assert (tmp_path / "perfbench" / "reference.json").read_bytes() == \
        (PERFBENCH / "reference.json").read_bytes()
