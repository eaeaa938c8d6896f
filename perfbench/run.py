"""stbc-forge benchmark: one workload per run, every output gated.

Run from the repository root:

    python3 perfbench/run.py --workload sim-small --seed 1 --seconds 20

Workloads: sim-small, sim-large, design-certify, algebra (see
BENCHMARK.json and perfbench/README.md).  Set-up is repeated and timed
on its own; then rounds run until --seconds is spent (a round is never
cut, so a round longer than --seconds runs once).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics; --trace 1
alternates traced and untraced rounds and reports the per-layer metrics
and the tracing overhead.  The environment, samples and (when traced)
the span list are written under perfbench/out/.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sim-small", "sim-large", "design-certify", "algebra")
BLAS_THREADS = 1
WARM_UP_S = 0.5


def _args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh
                    if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment():
    import platform
    import numpy as np
    blas = None
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (dep.get("name"), dep.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": _openblas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def _make_workload(name, seed, ref, tracer, clock, workdir):
    import workloads as wl
    if name in wl.SIM_WORKLOADS:
        return wl.SimWorkload(name, seed, ref, tracer, clock)
    if name == "design-certify":
        return wl.DesignCertify(seed, tracer, clock, workdir)
    return wl.Algebra(seed, ref, tracer, clock)


def execute(workload, seconds, trace, tracer, ledger, sampler):
    """Set up, then run rounds; returns the samples of the run.

    Time samples are (raw, scale, traced): raw excludes the calibration
    kernel, and scale comes from the kernel times in the sample's wall
    window.  The kernel runs back to back before set-up and once before
    each set-up, which is too short for the timer to sample.
    """
    sampler.warm_up(WARM_UP_S)
    setups = []
    for i in range(workload.setups):
        traced = bool(trace) and i % 2 == 1
        sampler.sample()
        w0 = time.perf_counter()
        with tracer.op_span("setup-%d" % i, "setup", traced):
            t0 = sampler.clock()
            state = workload.setup(ledger)
            dt = sampler.clock() - t0
        setups.append((dt, w0, time.perf_counter(), traced))
    rss = {"setup": _peak_rss_mb()}
    main, check = [], []
    min_rounds = 2 if trace else 1
    start = time.perf_counter()
    last = 0.0
    r = 0
    while r < min_rounds or time.perf_counter() - start + last <= seconds:
        traced = bool(trace) and r % 2 == 1
        w0 = time.perf_counter()
        with tracer.op_span("round-%d" % r, "timed", traced):
            try:
                m, c = workload.round(state, r, ledger)
            except Exception as exc:  # the program failed: count, go on
                ledger.error("round %d" % r, repr(exc))
                m = c = []
        w1 = time.perf_counter()
        last = w1 - w0
        main += [(v, a, b, traced) for v, a, b in m]
        check += [(v, a, b, traced) for v, a, b in c]
        r += 1
    rss["timed"] = _peak_rss_mb()
    out = {"rounds": r, "rss": rss}
    for key, samples in (("setup_s", setups), ("main_ms", main),
                         ("check_ms", check)):
        out[key] = [(v, sampler.scale(w0, w1), traced)
                    for v, w0, w1, traced in samples]
    return out


def scaled(samples, traced):
    return [raw * scale for raw, scale, tr in samples if tr == traced]


def end_to_end(run, ledger):
    out = {"peak_rss_mb": run["rss"]["timed"],
           "ok_share": 1.0 - ledger.failed / max(ledger.attempted, 1)}
    for key in ("setup_s", "main_ms", "check_ms"):
        vals = scaled(run[key], False)
        if vals:
            out[key] = median(vals)
    return out


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "stbc_forge", "__init__.py")):
        print("error: package source src/stbc_forge not found under %s"
              % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import stbc_forge
    if not os.path.abspath(stbc_forge.__file__).startswith(SRC + os.sep):
        print("error: imported stbc_forge from %s, not from %s"
              % (stbc_forge.__file__, SRC), file=sys.stderr)
        return 2
    import calibrate
    import layers
    import tracing
    import workloads

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(OUT, "work-%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    sampler = calibrate.Sampler()
    tracer = tracing.Tracer(clock=sampler.clock)
    ledger = workloads.Ledger()
    sampler.start()
    try:
        wl = _make_workload(args.workload, args.seed, ref, tracer,
                            sampler.clock, workdir)
        run = execute(wl, args.seconds, args.trace, tracer, ledger, sampler)
    finally:
        sampler.stop()
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        n_setups = sum(1 for _, _, traced in run["setup_s"] if traced)
        n_rounds = run["rounds"] // 2
        metrics = layers.per_layer(
            tracer, n_setups, n_rounds, run["rss"],
            {k: (scaled(run[k], True), scaled(run[k], False))
             for k in ("setup_s", "main_ms", "check_ms")})
        wanted = spec["per_layer"]
        tracer.dump(os.path.join(OUT, "spans-%s.json" % tag))
    else:
        metrics = end_to_end(run, ledger)
        wanted = spec["end_to_end"]
    env = _environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "rounds": run["rounds"], "attempted": ledger.attempted,
              "failed": ledger.failed, "wrong": ledger.wrong,
              "notes": ledger.notes, "metrics": metrics,
              "samples": {k: run[k] for k in ("setup_s", "main_ms",
                                               "check_ms")},
              "calibration": {"nominal_s": calibrate.NOMINAL_S,
                              "kernel_s": sampler.kernel_s}}
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1)
    print("env %s" % json.dumps(env), file=sys.stderr)
    for note in ledger.notes:
        print("failed op: %s" % note, file=sys.stderr)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print("error: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    result = {"correct": ledger.wrong == 0,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
