"""Command line interface: catalog, construct, build-fd, verify, simulate.

Design files are plain text ("stbc-design v1"): an m= line, sorted
meta.* lines, then one line per group listing vectors in the canonical
"lam|x1,...,xm" form.  Writing, reading and re-writing a file is
byte-identical.  Simulation results use the "stbc-simresult v1" record
of key=value lines plus a per-SNR table.
"""

import argparse
import os
import sys
from fractions import Fraction

from .f4 import parse_vec, format_vec, O, I, W, W2
from .design import (Design, rate, finest_partition, validate_partition,
                     plan_complexity, to_linear_design)
from .diversity import (generator_matrix, cubic_shaping_check,
                        full_diversity_check, difference_classes,
                        DiversityCapError, DET_TOL)
from .pauli import anticommute_parity, hr_orthogonal_numeric, phi_inv
from .signalset import qam_side
from .simulate import SimConfig, simulate
from . import bundles, fdfgd
from . import constructions as cons

DESIGN_HEADER = "stbc-design v1"


def format_design(design, meta=None, group_names=None):
    lines = [DESIGN_HEADER, "m=%d" % design.m]
    for k in sorted(meta or {}):
        lines.append("meta.%s=%s" % (k, meta[k]))
    groups = design.partition
    if groups is None:
        groups = (tuple(range(design.K)),)
    for gi, grp in enumerate(groups):
        name = group_names[gi] if group_names else "S%d" % (gi + 1)
        lines.append("group %s: %s"
                     % (name, " ".join(format_vec(design.vectors[i])
                                       for i in grp)))
    return "\n".join(lines) + "\n"


def parse_design(text, validate=True):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != DESIGN_HEADER:
        raise ValueError("missing '%s' header" % DESIGN_HEADER)
    m = None
    meta = {}
    groups = []
    for ln in lines[1:]:
        if ln.startswith("m="):
            m = int(ln[2:])
        elif ln.startswith("meta."):
            k, _eq, v = ln[5:].partition("=")
            meta[k] = v
        elif ln.startswith("group "):
            head, _sep, body = ln[6:].partition(":")
            groups.append((head.strip(),
                           tuple(parse_vec(tok) for tok in body.split())))
        else:
            raise ValueError("unrecognized line %r" % ln)
    if m is None:
        raise ValueError("missing m= line")
    vectors, partition, at = [], [], 0
    for _name, vs in groups:
        partition.append(tuple(range(at, at + len(vs))))
        vectors.extend(vs)
        at += len(vs)
    d = Design(m, tuple(vectors), tuple(partition))
    if validate and len(partition) > 1:
        rep = validate_partition(d, d.partition)
        if not rep.valid:
            raise ValueError("invalid partition: even-sum cross pair %r"
                             % (rep.witness,))
    names = tuple(n for n, _vs in groups)
    return d, meta, names


def _read_design(path, validate=True):
    with open(path) as fh:
        return parse_design(fh.read(), validate=validate)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _default_seed():
    return int(os.environ.get("STBC_FORGE_SEED", "0"))


_CATALOG_PARAMS = {"l": int, "m": int, "n": int, "g": int, "a": int}


def cmd_catalog(args):
    if args.action == "list":
        for name in cons.catalog_names():
            print(name)
        return 0
    params = {k: _CATALOG_PARAMS[k](v) for k, v in
              (kv.split("=", 1) for kv in args.params)}
    entry = cons.catalog(args.name, **params)
    d = entry.design
    rep = (validate_partition(d, d.partition) if d.partition
           else finest_partition(d))
    print("name=%s m=%d K=%d rate=%s groups=%d"
          % (entry.name, d.m, d.K, rate(d), rep.g))
    if args.name == "fgd_ren":
        print("complexity=%s" % plan_complexity(bundles.fgd_ren_stbc().plan))
    if args.name == "silver":
        print("complexity=%s" % plan_complexity(bundles.silver_stbc(4).plan))
    text = format_design(d, meta={"name": entry.name})
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_xi_order(s):
    table = {"0": O, "1": I, "w": W, "w2": W2}
    toks = [t.strip() for t in s.split(",")]
    if any(t not in table for t in toks):
        raise ValueError("xi-order tokens must be 0,1,w,w2")
    return tuple(table[t] for t in toks)


def cmd_construct(args):
    d, _meta, _names = _read_design(args.infile)
    print("in: rate=%s groups=%d" % (rate(d), len(d.partition)))
    if args.op == "A":
        out = cons.construct_A(d, args.l)
    elif args.op == "B":
        out = cons.construct_B(d, args.l)
    else:
        out = cons.construct_C(d, _parse_xi_order(args.xi_order))
    if args.sigma:
        sigma = tuple(int(t) for t in args.sigma.split(","))
        out = cons.apply_sigma(out, sigma)
    print("out: rate=%s groups=%d" % (rate(out), len(out.partition)))
    text = format_design(out, meta={"op": args.op})
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_build_fd(args):
    R = Fraction(args.rate)
    m = args.m
    if m == 1:
        stbc = bundles.silver_stbc(args.M, R)
        print("predicted=%s" % fdfgd.predicted_complexity(m, R))
        meta = {"family": "silver-punctured", "rate": str(R),
                "M": str(args.M)}
        d = Design(1, tuple(e.vector for e in stbc.linear.entries))
        text = format_design(d, meta=meta)
    else:
        fd = fdfgd.family(m, R, xi2=W2 if args.xi2 == "w2" else I)
        if R > 1:
            print("predicted=%s" % fdfgd.predicted_complexity(m, R))
        if args.angles == "auto":
            stbc = bundles.assemble_stbc(fd, "auto", args.M)
            thetas = [u.theta for u in stbc.signals.units]
        elif args.angles:
            thetas = [float(t) for t in args.angles.split(",")]
            stbc = bundles.assemble_stbc(fd, thetas, args.M)
        else:
            thetas = [0.0] * (fd.K // 2)
            stbc = bundles.assemble_stbc(fd, thetas, args.M)
        print("plan=%s" % plan_complexity(stbc.plan))
        meta = {"family": "fgd-family", "rate": str(R), "xi2": args.xi2,
                "M": str(args.M),
                "angles": ",".join("%.12f" % t for t in thetas)}
        text = format_design(fd.design(), meta=meta,
                             group_names=("S1", "S2") if not fd.subset("O")
                             else None)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _bundle_from_meta(d, meta, M=4):
    """STBC instance of a design file, or None when the file carries no
    signal set; M is the QAM size for catalog files that carry no meta.M.
    Malformed bundle metadata raises ValueError."""
    fam = meta.get("family")
    if fam is None:
        # catalog files carry only a name; the common ones have a
        # canonical signal set and plan
        name = meta.get("name")
        M = int(meta.get("M", M))
        if name == "alamouti":
            return bundles.alamouti_stbc(M)
        if name == "qod4":
            return bundles.qod4_stbc()
        if name == "fgd_ren":
            return bundles.fgd_ren_stbc()
        if name == "silver":
            return bundles.silver_stbc(M)
        return None
    if "M" not in meta:
        raise ValueError("bundle metadata is missing M")
    M = int(meta["M"])
    R = Fraction(meta["rate"])
    if fam == "silver-punctured":
        return bundles.silver_stbc(M, R)
    if fam == "fgd-family":
        fd = fdfgd.family(d.m, R, xi2=W2 if meta.get("xi2", "w2") == "w2"
                          else I)
        thetas = [float(t) for t in meta["angles"].split(",")]
        return bundles.assemble_stbc(fd, thetas, M)
    raise ValueError("unknown bundle family %r" % fam)


INFEASIBLE = 3


def cmd_verify(args):
    if args.M < 1:
        raise ValueError("--M must be a positive perfect square")
    qam_side(args.M)
    d, meta, _names = _read_design(args.infile, validate=False)
    suites = ([args.suite] if args.suite != "all"
              else ["partition", "shaping", "prop5", "diversity"])
    failed = infeasible = False
    for suite in suites:
        if suite == "partition":
            rep = validate_partition(d, d.partition)
            ok = rep.valid
            note = "" if ok else " witness=%r" % (rep.witness,)
        elif suite == "shaping":
            gm = generator_matrix(to_linear_design(d))
            ok = cubic_shaping_check(gm, tol=1e-9)
            note = ""
        elif suite == "prop5":
            mats = [phi_inv(v) for v in d.vectors]
            ok = all(anticommute_parity(d.vectors[i], d.vectors[j])
                     == hr_orthogonal_numeric(mats[i], mats[j])
                     for i in range(d.K) for j in range(i + 1, d.K))
            note = ""
        else:  # diversity
            stbc = _bundle_from_meta(d, meta, args.M)
            if stbc is None:
                print("diversity: INFEASIBLE (no signal set in file)")
                infeasible = True
                continue
            try:
                mn = full_diversity_check(stbc)
            except DiversityCapError as exc:
                print("diversity: INFEASIBLE (%s)" % exc)
                infeasible = True
                continue
            ok = mn > DET_TOL
            note = " min_det=%.6g classes=%d" % (
                mn, difference_classes(stbc.signals))
        print("%s: %s%s" % (suite, "PASS" if ok else "FAIL", note))
        failed = failed or not ok
    return 1 if failed else (INFEASIBLE if infeasible else 0)


def cmd_simulate(args):
    d, meta, _names = _read_design(args.infile, validate=False)
    stbc = _bundle_from_meta(d, meta)
    if stbc is None:
        raise ValueError("file is not a simulation bundle (no signal set)")
    cfg = SimConfig(n_rx=args.n_rx,
                    snr_db=tuple(float(s) for s in args.snr.split(",")),
                    trials=args.trials, seed=args.seed,
                    decoder=args.decoder, workers=args.workers)
    res = simulate(cfg, stbc)
    text = res.to_text()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="stbc-forge")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("catalog", help="list or show known designs")
    c.add_argument("action", choices=["list", "show"])
    c.add_argument("name", nargs="?")
    c.add_argument("params", nargs="*", help="k=v catalog parameters")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_catalog)

    c = sub.add_parser("construct", help="apply a recursive construction")
    c.add_argument("--op", choices=["A", "B", "C"], required=True)
    c.add_argument("--l", type=int, default=0)
    c.add_argument("--xi-order", dest="xi_order", default="0,1,w,w2")
    c.add_argument("--sigma")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_construct)

    c = sub.add_parser("build-fd", help="build a family design / bundle")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--rate", required=True)
    c.add_argument("--xi2", choices=["1", "w2"], default="w2")
    c.add_argument("--angles", default="")
    c.add_argument("--M", type=int, default=4)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_build_fd)

    c = sub.add_parser("verify", help="run invariant suites on a file")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--suite", default="all",
                   choices=["partition", "shaping", "diversity", "prop5",
                            "all"])
    c.add_argument("--M", type=int, default=4,
                   help="QAM size for catalog files without meta.M")
    c.set_defaults(fn=cmd_verify)

    c = sub.add_parser("simulate", help="Monte Carlo CER run on a bundle")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--snr", required=True)
    c.add_argument("--trials", type=int, required=True)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--decoder", default="both",
                   choices=["oracle", "structured", "both"])
    c.add_argument("--n-rx", type=int, default=2)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_simulate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _default_seed()
    if args.cmd == "catalog" and args.action == "show" and not args.name:
        print("catalog show requires a design name", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
