"""The four benchmark workloads and the reference-output gate.

Every workload has setup(), repeated and timed on its own, and round(),
repeated until the run's time is spent.  Times are taken with the clock
the runner passes in, which leaves out the calibration kernel.  A round
returns the samples of its two end-to-end timings, each as (ms, wall
start, wall end):

  main_ms   sim-*: structured decoding, ms per trial (one trial is one
            (SNR, trial) decode), pooled over the bundles of the round;
            design-certify: build-fd --angles auto; algebra: the
            construction half of the pass
  check_ms  sim-*: oracle decoding, ms per trial, pooled likewise;
            design-certify: one certification (verify --suite all plus
            the two growth runs); algebra: the analysis half

Every op is gated against perfbench/reference.json or an independent
recomputation; the Ledger counts attempted and failed ops.
"""

import importlib
import io
import itertools
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np

SNR_DB = (0.0, 10.0)
N_RX = 2
M = 4
DET_TOL = 1e-8


def api():
    """The package; its public names are looked up at call time, so the
    wrappers a traced round installs see every call."""
    return importlib.import_module("stbc_forge")


def pkg(name):
    """A package module, for names the package does not export."""
    return importlib.import_module("stbc_forge." + name)


class Ledger:
    """Ops attempted and failed; wrong counts failed ops whose output was
    checked and did not match (as opposed to ops that raised or returned
    an error status)."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.notes = []

    def _note(self, msg):
        if len(self.notes) < 20:
            self.notes.append(msg)

    def done(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += 1
            self._note("%s: %s" % (label, "; ".join(problems)))
        return not problems

    def verify(self, label, problems):
        """Set-up check: a mismatch makes the run incorrect but is not an
        op, so the failed share does not depend on how often set-up runs."""
        if problems:
            self.wrong += 1
            self._note("%s: %s" % (label, "; ".join(problems)))

    def error(self, label, msg):
        self.attempted += 1
        self.failed += 1
        self._note("%s: %s" % (label, msg))


def _timed(clock, fn, *args):
    """(fn(*args), calibrated seconds, wall start, wall end); the wall
    window tells the runner which calibration samples apply."""
    w0 = time.perf_counter()
    t0 = clock()
    out = fn(*args)
    dt = clock() - t0
    return out, dt, w0, time.perf_counter()


def _cli(argv):
    """In-process stbc-forge CLI call: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = pkg("cli").main(list(argv))
    return rc, out.getvalue() + err.getvalue()


# ---------------------------------------------------------------------------
# simulation

def _family(R, angles):
    sf = api()
    base = sf.build_base(2)
    R = Fraction(R)
    fd = (sf.puncture(base, R) if R < Fraction(5, 4) else
          sf.extend(base, R) if R > Fraction(5, 4) else base)
    return sf.assemble_stbc(fd, [angles] * (fd.K // 2), M)


BUNDLES = {
    "ala": lambda: pkg("bundles").alamouti_stbc(M),
    "qod4": lambda: pkg("bundles").qod4_stbc(Q=2),
    "silver": lambda: api().silver_stbc(M),
    "fam-r1": lambda: _family(1, 0.5),
    "fam-r5_4": lambda: _family("5/4", 0.5),
    "fam-r2": lambda: _family(2, 0.5),
}

# bundles per workload, and (oracle ops, structured ops) per bundle and round
SIM_WORKLOADS = {
    "sim-small": (("ala", "qod4", "silver", "fam-r1", "fam-r5_4"), 1, 1),
    "sim-large": (("fam-r2",), 1, 16),
}


class SimWorkload:
    """simulate() calls drawn from a pool of configurations whose error
    counts are committed; the seed picks the order of the pool."""

    setups = 11

    def __init__(self, name, seed, ref, tracer, clock):
        self.bundles, self.n_oracle, self.n_structured = SIM_WORKLOADS[name]
        self.clock = clock
        self.ref = {b: ref["sim"][b] for b in self.bundles}
        self.tracer = tracer
        rng = np.random.default_rng(seed)
        self.order = {b: rng.permutation(len(self.ref[b]["errors"]))
                      for b in self.bundles}

    def setup(self, ledger):
        sf = api()
        state = {}
        for b in self.bundles:
            self.tracer.tag = b
            with self.tracer.span("bench.bundle_build"):
                stbc = BUNDLES[b]()
            stbc.symbol_table
            stbc.average_energy
            evals = sf.plan_complexity(stbc.plan).evaluate(M)
            ledger.verify("setup %s" % b, [] if (
                evals == self.ref[b]["evals"] and
                stbc.count == self.ref[b]["codebook"]) else
                ["plan term sum %d / codebook %d differ from the reference"
                 % (evals, stbc.count)])
            state[b] = (stbc, evals)
        return state

    def _ops(self, b, r):
        pool = self.order[b]
        ops = [("oracle", pool[(r * self.n_oracle + j) % len(pool)])
               for j in range(self.n_oracle)]
        ops += [("structured", pool[(r * self.n_structured + j) % len(pool)])
                for j in range(self.n_structured)]
        return ops if r % 2 == 0 else ops[::-1]

    def round(self, state, r, ledger):
        sf = api()
        # per decoder: seconds, trials, first and last wall time
        spent = {d: [0.0, 0, float("inf"), 0.0]
                 for d in ("oracle", "structured")}
        for b in self.bundles:
            stbc, evals = state[b]
            ref = self.ref[b]
            for decoder, k in self._ops(b, r):
                cfg = sf.SimConfig(n_rx=N_RX, snr_db=SNR_DB,
                                   trials=ref["trials"], seed=int(k),
                                   decoder=decoder, workers=1)
                label = "%s %s seed %d" % (b, decoder, k)
                self.tracer.tag = b
                try:
                    res, dt, w0, w1 = _timed(self.clock, sf.simulate, cfg,
                                             stbc)
                except Exception as exc:  # a failed op, not a crash
                    ledger.error(label, repr(exc))
                    continue
                problems = []
                if list(res.errors) != ref["errors"][k]:
                    problems.append("errors %r, reference %r"
                                    % (list(res.errors), ref["errors"][k]))
                if decoder == "structured" and res.structured_evals != evals:
                    problems.append("structured_evals %g != term sum %d"
                                    % (res.structured_evals, evals))
                if decoder == "oracle" and res.oracle_evals != stbc.count:
                    problems.append("oracle_evals %g != codebook %d"
                                    % (res.oracle_evals, stbc.count))
                if ledger.done(label, problems):
                    acc = spent[decoder]
                    acc[0] += dt
                    acc[1] += cfg.trials * len(SNR_DB)
                    acc[2] = min(acc[2], w0)
                    acc[3] = max(acc[3], w1)

        def per_trial(d):
            s, n, w0, w1 = spent[d]
            return [(1000.0 * s / n, w0, w1)] if n else []
        return per_trial("structured"), per_trial("oracle")


def sim_reference(name, pool, trials):
    """Reference errors for a pool of seeds, from decoder='both' runs."""
    sf = api()
    out = {}
    for b in SIM_WORKLOADS[name][0]:
        stbc = BUNDLES[b]()
        errors = []
        for k in range(pool):
            cfg = sf.SimConfig(n_rx=N_RX, snr_db=SNR_DB, trials=trials,
                               seed=k, decoder="both", workers=1)
            errors.append(list(sf.simulate(cfg, stbc).errors))
        out[b] = {"trials": trials, "codebook": stbc.count,
                  "evals": sf.plan_complexity(stbc.plan).evaluate(M),
                  "errors": errors}
    return out


# ---------------------------------------------------------------------------
# design search and certification

def min_abs_det(matrices, point_lists):
    """Independent min |det(C_i - C_j)| over all codeword pairs."""
    combos = np.array(list(itertools.product(*point_lists)), dtype=float)
    C = np.tensordot(combos, matrices, axes=(1, 0))
    i, j = np.triu_indices(C.shape[0], 1)
    return float(np.abs(np.linalg.det(C[i] - C[j])).min())


def _parse_verify(text):
    """{suite: (passed, min_det or None)} from verify's report lines."""
    out = {}
    for line in text.splitlines():
        suite, sep, rest = line.partition(": ")
        if not sep:
            continue
        fields = rest.split()
        det = None
        for f in fields[1:]:
            if f.startswith("min_det="):
                det = float(f[len("min_det="):])
        out[suite] = (fields[0] == "PASS" if fields else False, det)
    return out


class DesignCertify:
    """build-fd with the angle search, certification, growth, cap probe."""

    setups = 11
    certify_passes = 7
    SUITES = ("partition", "shaping", "prop5", "diversity")

    def __init__(self, seed, tracer, clock, workdir):
        self.tracer = tracer
        self.clock = clock
        self.rng = np.random.default_rng(seed)
        self.fd_path = os.path.join(workdir, "fd.txt")
        self.probe_path = os.path.join(workdir, "probe-r2.txt")

    def setup(self, ledger):
        sf = api()
        rc, text = _cli(["build-fd", "--m", "2", "--rate", "2", "--angles",
                         ",".join(["0.5"] * 8), "--M", str(M),
                         "--out", self.probe_path])
        ledger.verify("setup probe file", [] if rc == 0 else
                      ["build-fd exit %d: %s" % (rc, text.strip())])
        ala = sf.to_linear_design(sf.catalog("alamouti").design)
        gg = sf.catalog("ggroup", g=2, a=1)
        e = gg.linear.entries
        ld = sf.LinearDesign(m=gg.design.m, entries=(e[0], e[2], e[1], e[3]))
        return {"ala": ala, "gg": ld, "ala_A": ala.matrices(),
                "gg_A": ld.matrices()}

    def _certify(self, state, ledger):
        sf = api()
        pam = pkg("signalset").pam_points(2)
        s1, s2 = (int(x) for x in self.rng.integers(0, 2 ** 31, size=2))
        self.tracer.tag = "certify"

        def work():
            return (_cli(["verify", "--in", self.fd_path, "--suite", "all"]),
                    sf.grow_constellation(state["ala"], (2, 2, 2, 2),
                                          seed=s1),
                    sf.grow_with_pam_prefix(state["gg"], 2, (pam, pam),
                                            seed=s2))
        ((rc, text), grown, prefixed), dt, w0, w1 = _timed(self.clock, work)
        rep = _parse_verify(text)
        problems = [] if rc == 0 else ["verify exit %d" % rc]
        for suite in self.SUITES:
            if not rep.get(suite, (False,))[0]:
                problems.append("%s did not pass" % suite)
        det = rep.get("diversity", (False, None))[1]
        if det is None or not det > DET_TOL:
            problems.append("min_det %r not above %g" % (det, DET_TOL))
        for label, pts, A, sizes in (
                ("grow_constellation", grown, state["ala_A"], (2,) * 4),
                ("grow_with_pam_prefix", prefixed, state["gg_A"], (2,) * 4)):
            if tuple(len(p) for p in pts) != sizes:
                problems.append("%s sizes %r" % (label, pts))
            elif not min_abs_det(A, pts) > DET_TOL:
                problems.append("%s points not full diversity" % label)
        return (1000.0 * dt, w0, w1), problems

    def round(self, state, r, ledger):
        self.tracer.tag = "build"
        (rc, text), dt, w0, w1 = _timed(
            self.clock, _cli, ["build-fd", "--m", "2", "--rate", "5/4",
                               "--angles", "auto", "--M", str(M),
                               "--out", self.fd_path])
        problems = [] if rc == 0 else ["exit %d: %s" % (rc, text.strip())]
        if rc == 0:
            cli = pkg("cli")
            with open(self.fd_path) as fh:
                written = fh.read()
            d, meta, names = cli.parse_design(written)
            if cli.format_design(d, meta=meta, group_names=names) != written:
                problems.append("design text does not round-trip")
        main = ([(1000.0 * dt, w0, w1)] if ledger.done("build-fd", problems)
                else [])
        check = []
        if rc == 0:
            for _ in range(self.certify_passes):
                sample, problems = self._certify(state, ledger)
                if ledger.done("certify", problems):
                    check.append(sample)
        # cap policy probe: exit 0 (certified) or 3 (infeasible) succeeds,
        # exit 1 is a failed op; its time is a per-layer number only
        self.tracer.tag = "probe"
        rc, text = _cli(["verify", "--in", self.probe_path,
                         "--suite", "diversity"])
        if rc in (0, 3):
            ledger.done("cap probe", [])
        else:
            ledger.error("cap probe",
                         "verify exit %d: %s" % (rc, text.strip()))
        return main, check


# ---------------------------------------------------------------------------
# exact algebra

CATALOG_PARAMS = (
    ("alamouti", {}), ("rate1_2x2", {"l": 1}), ("qod4", {}),
    ("scod", {"m": 3}), ("ciod", {"m": 3}), ("precoded_ciod", {"n": 2}),
    ("dast", {"n": 2}), ("ggroup", {"g": 4, "a": 1}), ("fgd_ren", {}),
    ("pavan2x2", {}), ("bhv", {}), ("silver", {}),
)
FAMILY_M = (2, 3, 4, 5)
PHI_M = 3
PHI_PLAIN = 16    # phi round trips, one vector per stratum of the order
PHI_NEGATED = 8   # phi_signed on negated matrices (exhaustive fallback)


class Algebra:
    """One fixed pass over the exact layers; the seed picks the phi
    inputs, the xi order of construction C and the coordinate permutation."""

    setups = 11

    def __init__(self, seed, ref, tracer, clock):
        self.ref = ref["algebra"]
        self.tracer = tracer
        self.clock = clock
        self.seed = seed

    def setup(self, ledger):
        sf = api()
        rng = np.random.default_rng(self.seed)
        vs = sf.enumerate_all(PHI_M)

        def strata(n):
            w = len(vs) // n
            return [vs[i * w + int(rng.integers(w))] for i in range(n)]
        plain = [(v, sf.phi_inv(v)) for v in strata(PHI_PLAIN)]
        negated = [(v, -sf.phi_inv(v)) for v in strata(PHI_NEGATED)]
        xi = int(rng.integers(len(sf.XI_ORDERS)))
        sigma = tuple(int(s) + 1 for s in rng.permutation(3))
        return {"plain": plain, "negated": negated, "xi": xi, "sigma": sigma}

    def _construct(self, state, ledger):
        sf = api()
        ref = self.ref
        designs = {}
        for name, params in CATALOG_PARAMS:
            d = sf.catalog(name, **params).design
            designs[name] = d
            ledger.done("catalog %s" % name, [] if d.K == ref["K"][name]
                        else ["K=%d" % d.K])
        with self.tracer.span("bench.chains"):
            chains = {}
            d = designs["alamouti"]
            for l in (1, 0, 2):
                d = sf.construct_A(d, l)
            chains["A"] = d
            d = designs["rate1_2x2"]
            for l in (1, 0, 2):
                d = sf.construct_B(d, l)
            chains["B"] = d
            c = sf.construct_C(sf.construct_B(designs["rate1_2x2"], 1),
                               sf.XI_ORDERS[state["xi"]])
            chains["C"] = sf.apply_sigma(c, state["sigma"])
            same = sf.designs_equivalent(c, chains["C"])
        for k, d in chains.items():
            want = ref["chains"][k]
            got = [d.m, d.K, str(sf.rate(d)), len(d.partition)]
            ledger.done("construct %s" % k, [] if got == want else
                        ["got %r, reference %r" % (got, want)])
        ledger.done("designs_equivalent", [] if same else ["not equivalent"])
        family = {}
        for m in FAMILY_M:
            base = sf.build_base(m)
            family["m%d-base" % m] = base
            family["m%d-r1" % m] = sf.puncture(base, 1)
            family["m%d-r2" % m] = sf.extend(base, 2)
        for k, fd in family.items():
            ledger.done("family %s" % k, [] if fd.K == ref["family"][k][0]
                        else ["K=%d" % fd.K])
        return designs, chains, family

    def _analyse(self, state, built, ledger):
        sf, cli, fdfgd = api(), pkg("cli"), pkg("fdfgd")
        designs, chains, family = built
        ref = self.ref
        for k, fd in family.items():
            d = fd.design()
            groups = sf.finest_partition(d).g
            terms = sf.plan_complexity(fdfgd.family_plan(fd)).evaluate(M)
            problems = []
            if d.partition is not None and \
                    not sf.validate_partition(d, d.partition).valid:
                problems.append("family partition invalid")
            if [groups, str(terms)] != ref["family"][k][1:]:
                problems.append("groups %d, terms %d" % (groups, terms))
            ledger.done("analyse %s" % k, problems)
        for name, d in designs.items():
            groups = sf.finest_partition(d).g
            ledger.done("finest %s" % name, [] if groups == ref["finest"][name]
                        else ["groups %d" % groups])
        with self.tracer.span("bench.text_roundtrip"):
            texts = []
            for k, d in list(chains.items()) + [
                    (k, fd.design()) for k, fd in family.items()
                    if k.endswith("base")]:
                t1 = cli.format_design(d, meta={"source": k})
                d2, meta, names = cli.parse_design(t1)
                texts.append((k, t1, cli.format_design(d2, meta=meta,
                                                       group_names=names)))
        for k, t1, t2 in texts:
            ledger.done("text %s" % k, [] if t1 == t2 else ["text differs"])
        for v, A in state["plain"]:
            got = sf.phi(A)
            ledger.done("phi", [] if got == v else ["phi %r != %r" % (got, v)])
        for v, A in state["negated"]:
            got = sf.phi_signed(A)
            ledger.done("phi_signed", [] if got == (v, -1) else
                        ["phi_signed %r != %r" % (got, (v, -1))])

    def round(self, state, r, ledger):
        built, dt1, a0, a1 = _timed(self.clock, self._construct, state,
                                    ledger)
        _, dt2, b0, b1 = _timed(self.clock, self._analyse, state, built,
                                ledger)
        return [(1000.0 * dt1, a0, a1)], [(1000.0 * dt2, b0, b1)]


def algebra_reference():
    """Expected sizes and group counts, from the current program."""
    sf = api()
    ref = {"K": {}, "finest": {}, "chains": {}, "family": {}}
    for name, params in CATALOG_PARAMS:
        d = sf.catalog(name, **params).design
        ref["K"][name] = d.K
        ref["finest"][name] = sf.finest_partition(d).g
    r1 = sf.catalog("rate1_2x2", l=1).design
    d = sf.catalog("alamouti").design
    for l in (1, 0, 2):
        d = sf.construct_A(d, l)
    chains = {"A": d}
    d = r1
    for l in (1, 0, 2):
        d = sf.construct_B(d, l)
    chains["B"] = d
    # every xi order and permutation gives the same shape
    shapes = set()
    for xo in sf.XI_ORDERS:
        c = sf.construct_C(sf.construct_B(r1, 1), xo)
        for sigma in itertools.permutations((1, 2, 3)):
            s = sf.apply_sigma(c, sigma)
            shapes.add((s.m, s.K, str(sf.rate(s)), len(s.partition)))
    if len(shapes) != 1:
        raise RuntimeError("construction C shape depends on its inputs")
    chains["C"] = sf.apply_sigma(c, (1, 2, 3))
    for k, d in chains.items():
        ref["chains"][k] = [d.m, d.K, str(sf.rate(d)), len(d.partition)]
    for m in FAMILY_M:
        base = sf.build_base(m)
        for k, fd in (("base", base), ("r1", sf.puncture(base, 1)),
                      ("r2", sf.extend(base, 2))):
            ref["family"]["m%d-%s" % (m, k)] = [
                fd.K, sf.finest_partition(fd.design()).g,
                str(sf.plan_complexity(
                    pkg("fdfgd").family_plan(fd)).evaluate(M))]
    return ref
