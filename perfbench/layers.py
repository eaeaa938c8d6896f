"""Per-layer metrics from the spans of a traced run.

Timed-phase metrics are per traced round (sim-*: one round over the
workload's bundles; design-certify: one build plus its certifications;
algebra: one pass) or per call; set-up metrics are per traced set-up.
A metric whose layer the workload never reaches reads 0.
"""

from statistics import median

from tracing import LAYERS, Span

ALL_BUNDLES = ("ala", "qod4", "silver", "fam-r1", "fam-r5_4", "fam-r2")
PRIOR_SIZES = (1, 4, 16, 64, 256)


class _Spans:
    def __init__(self, tracer):
        self.rows = [Span(*s) for s in tracer.spans]
        # self time: duration minus the durations of direct children
        child = {}
        for s in self.rows:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + (s.t1 - s.t0)
        self.self_s = [(s.t1 - s.t0) - child.get(s.id, 0.0)
                       for s in self.rows]

    def pick(self, name, phase="timed", tag=None):
        return [(s, self.self_s[i]) for i, s in enumerate(self.rows)
                if s.name == name and s.phase == phase
                and (tag is None or s.tag == tag)]

    def total(self, name, phase="timed", tag=None):
        return sum(s.t1 - s.t0 for s, _ in self.pick(name, phase, tag))

    def mean(self, name, phase="timed", tag=None, scale=1.0, info=None):
        got = [s for s, _ in self.pick(name, phase, tag)
               if info is None or s.info == info]
        if not got:
            return 0.0
        return scale * sum(s.t1 - s.t0 for s in got) / len(got)


def _pct(traced, untraced):
    if not traced or not untraced:
        return 0.0
    return 100.0 * (median(traced) / median(untraced) - 1.0)


def per_layer(tracer, n_setups, n_rounds, rss, samples):
    """{metric: value}; samples maps each end-to-end timing to its
    (traced, untraced) sample lists."""
    sp = _Spans(tracer)
    out = {}
    per_round = 1.0 / max(n_rounds, 1)
    per_setup = 1.0 / max(n_setups, 1)

    for b in ALL_BUNDLES:
        for dec in ("ml_structured", "ml_oracle"):
            got = [s for s, _ in sp.pick("simulate." + dec, tag=b)
                   if isinstance(s.info, int)]
            t = sum(s.t1 - s.t0 for s in got)
            evals = sum(s.info for s in got)
            key = "simulate.%s.%%s.%s" % (dec, b)
            out[key % "us_per_call"] = 1e6 * t / len(got) if got else 0.0
            out[key % "evals_per_trial"] = evals / len(got) if got else 0.0
            if dec == "ml_structured":
                out[key % "ns_per_eval"] = 1e9 * t / evals if evals else 0.0

    out["simulate.channel_step.us_per_call"] = sp.mean(
        "simulate.channel_step", scale=1e6)
    out["simulate.codeword.us_per_call"] = sp.mean(
        "simulate.codeword", scale=1e6)
    trials = len(sp.pick("simulate.channel_step"))
    driver_self = sum(st for _, st in sp.pick("simulate.driver"))
    out["simulate.driver.self_us_per_trial"] = (
        1e6 * driver_self / trials if trials else 0.0)

    out["signalset.symbol_table_s"] = per_setup * sp.total(
        "signalset.symbol_table", "setup")
    out["simulate.average_energy_s"] = per_setup * sp.total(
        "simulate.average_energy", "setup")
    out["fdfgd.assemble_stbc_s"] = per_setup * sp.total(
        "fdfgd.assemble_stbc", "setup")
    out["bundles.build_s"] = per_setup * sp.total("bench.bundle_build",
                                                  "setup")

    rot = [s for s, _ in sp.pick("diversity.rotation_search")
           if isinstance(s.info, int)]
    for n in PRIOR_SIZES:
        out["diversity.rotation_search.s.prior%d" % n] = sp.mean(
            "diversity.rotation_search", info=n)
    builds = len(sp.pick("cli.build_fd"))
    out["diversity.rotation_search.prior_codewords"] = (
        sum(s.info for s in rot) / builds if builds else 0.0)

    cert = [s for s, _ in sp.pick("diversity.full_diversity_check",
                                  tag="certify") if s.info is not None]
    out["diversity.full_diversity_check_s"] = (
        sum(s.t1 - s.t0 for s in cert) / len(cert) if cert else 0.0)
    out["diversity.pairs_checked"] = (
        sum(s.info[0] * (s.info[0] - 1) // 2 for s in cert) / len(cert)
        if cert else 0.0)
    out["diversity.min_det"] = min((s.info[1] for s in cert), default=0.0)
    out["diversity.grow_constellation_s"] = sp.mean(
        "diversity.grow_constellation")
    out["diversity.grow_with_pam_prefix_s"] = sp.mean(
        "diversity.grow_with_pam_prefix")

    out["cli.build_fd_s"] = sp.mean("cli.build_fd")
    out["cli.verify_s"] = sp.mean("cli.verify", tag="certify")
    out["cli.verify_cap_probe_s"] = sp.mean("cli.verify", tag="probe")

    out["constructions.catalog_s"] = per_round * sp.total(
        "constructions.catalog")
    out["constructions.construct_s"] = per_round * sp.total("bench.chains")
    out["fdfgd.family_s"] = per_round * sp.total("fdfgd.family")
    out["design.finest_partition_s"] = per_round * sp.total(
        "design.finest_partition")
    out["design.text_roundtrip_s"] = per_round * sp.total(
        "bench.text_roundtrip")
    out["pauli.phi.us_per_call"] = sp.mean("pauli.phi", scale=1e6)
    out["pauli.phi_signed.us_per_call"] = sp.mean("pauli.phi_signed",
                                                  scale=1e6)

    out["peak_rss_mb.setup"] = rss["setup"]
    out["peak_rss_mb.timed"] = rss["timed"]

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for s, self_s in zip(sp.rows, sp.self_s):
        if s.phase == "timed" and s.layer in self_by_layer:
            self_by_layer[s.layer] += self_s
    for layer in LAYERS:
        out["self_s.%s" % layer] = per_round * self_by_layer[layer]

    for key, (traced, untraced) in samples.items():
        out["trace.overhead_pct.%s" % key] = _pct(traced, untraced)
    return out
