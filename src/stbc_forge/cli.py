"""Command line interface: catalog, construct, build-fd, verify, simulate.

Design files are plain text ("stbc-design v1"): one m= line, sorted
meta.* lines, then one line per group listing vectors in the canonical
"lam|x1,...,xm" form; parse_design refuses a second m= line and a file
with no vectors.  Writing, reading and re-writing a file is
byte-identical.  Simulation results use the "stbc-simresult v1" record
of key=value lines plus a per-SNR table.

Bundle meta.* lines are written by bundles.family_bundle (build-fd, any
m >= 1) and read by bundles.bundle_from_meta (catalog show, verify and
simulate).
"""

import argparse
import os
import sys

from .f4 import parse_vec, format_vec, O, I, W, W2
from .design import (from_groups, rate, groups_of, validate_partition,
                     plan_complexity, qam_side, to_linear_design, even_table)
from .diversity import (generator_matrix, cubic_shaping_check,
                        full_diversity_check, difference_classes,
                        group_classes, DiversityCapError,
                        DiversityFloorError, DET_TOL)
from .pauli import hr_orthogonal_table, phi_inv
from .simulate import SimConfig, simulate
from . import bundles
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
            if m is not None:
                raise ValueError("second m= line %r" % ln)
            m = bundles.parse_number(ln[2:], "m", int)
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
    if not any(vs for _name, vs in groups):
        raise ValueError("design file lists no vectors")
    d = from_groups(m, [vs for _name, vs in groups])
    if validate:
        groups_of(d)
    names = tuple(n for n, _vs in groups)
    return d, meta, names


def _read_design(path, validate=True):
    with open(path) as fh:
        return parse_design(fh.read(), validate=validate)


def _emit(path, text):
    """Write text to the --out file, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_seed():
    """STBC_FORGE_SEED, or 0 when it is unset; ValueError unless it is a
    non-negative integer."""
    text = os.environ.get("STBC_FORGE_SEED", "0")
    if not text.strip().isdecimal():
        raise ValueError("STBC_FORGE_SEED must be a non-negative integer, "
                         "got %r" % text)
    return int(text)


def _catalog_params(name, tokens):
    """{k: int} of k=v tokens; ValueError naming the first token that is
    not one of the design's parameters set to an integer."""
    takes = cons.catalog_params(name)
    params = {}
    for tok in tokens:
        k, _eq, v = tok.partition("=")
        if k not in takes or not v.strip().lstrip("+-").isdecimal():
            raise ValueError("bad parameter %r for %s, which takes %s"
                             % (tok, name, " ".join("%s=<int>" % p
                                                    for p in takes)
                                or "no parameters"))
        params[k] = int(v)
    return params


def cmd_catalog(args):
    if args.action == "list":
        for name in cons.catalog_names():
            print(name)
        return 0
    entry = cons.catalog(args.name, **_catalog_params(args.name, args.params))
    d = entry.design
    print("name=%s m=%d K=%d rate=%s groups=%d"
          % (entry.name, d.m, d.K, rate(d), len(groups_of(d))))
    meta = {"name": entry.name}
    stbc = bundles.bundle_from_meta(d, meta)
    if stbc is not None:
        print("complexity=%s" % plan_complexity(stbc.plan))
    _emit(args.out, format_design(d, meta=meta))
    return 0


def _parse_xi_order(s):
    table = {"0": O, "1": I, "w": W, "w2": W2}
    toks = [t.strip() for t in s.split(",")]
    if any(t not in table for t in toks):
        raise ValueError("xi-order tokens must be 0,1,w,w2")
    return tuple(table[t] for t in toks)


def cmd_construct(args):
    if args.op == "C" and args.l is not None:
        raise ValueError("--l applies to --op A and B, not C")
    if args.op != "C" and args.xi_order is not None:
        raise ValueError("--xi-order applies to --op C, not %s" % args.op)
    d, _meta, _names = _read_design(args.infile)
    if args.op == "A":
        out = cons.construct_A(d, args.l or 0)
    elif args.op == "B":
        out = cons.construct_B(d, args.l or 0)
    else:
        out = cons.construct_C(d, cons.XI_ORDERS[0] if args.xi_order is None
                               else _parse_xi_order(args.xi_order))
    if args.sigma:
        sigma = tuple(bundles.parse_number(t, "--sigma", int)
                      for t in args.sigma.split(","))
        out = cons.apply_sigma(out, sigma)
    print("in: rate=%s groups=%d" % (rate(d), len(d.partition)))
    print("out: rate=%s groups=%d" % (rate(out), len(out.partition)))
    _emit(args.out, format_design(out, meta={"op": args.op}))
    return 0


def cmd_build_fd(args):
    b = bundles.family_bundle(args.m, args.rate, args.M, args.angles,
                              args.xi2)
    if b.predicted is not None:
        print("predicted=%s" % b.predicted)
    print("plan=%s" % plan_complexity(b.stbc.plan))
    _emit(args.out, format_design(b.design, meta=b.meta))
    return 0


INFEASIBLE = 3


def cmd_verify(args):
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
            ok = cubic_shaping_check(gm)
            note = ""
        elif suite == "prop5":
            # the numeric HR-orthogonality of the realizations against the
            # GF(4) parity of each pair's sum: odd weight, orthogonal
            hr = hr_orthogonal_table([phi_inv(v) for v in d.vectors])
            ok = bool((hr == ~even_table(d)).all())
            note = ""
        else:  # diversity
            stbc = bundles.bundle_from_meta(d, meta, args.M)
            if stbc is None:
                print("diversity: INFEASIBLE (no signal set in file)")
                infeasible = True
                continue
            try:
                mn = full_diversity_check(stbc)
            except (DiversityCapError, DiversityFloorError) as exc:
                print("diversity: INFEASIBLE (%s)" % exc)
                infeasible = True
                continue
            ok = mn > DET_TOL
            note = " min_det=%.6g classes=%d checked=%d" % (
                mn, difference_classes(stbc.signals),
                sum(group_classes(stbc.hr_orthogonal, stbc.signals)))
        print("%s: %s%s" % (suite, "PASS" if ok else "FAIL", note))
        failed = failed or not ok
    return 1 if failed else (INFEASIBLE if infeasible else 0)


def cmd_simulate(args):
    d, meta, _names = _read_design(args.infile, validate=False)
    stbc = bundles.bundle_from_meta(d, meta)
    if stbc is None:
        raise ValueError("file is not a simulation bundle (no signal set)")
    cfg = SimConfig(n_rx=args.n_rx,
                    snr_db=tuple(bundles.parse_number(s, "--snr")
                                 for s in args.snr.split(",")),
                    trials=args.trials, seed=args.seed,
                    decoder=args.decoder, workers=args.workers)
    _emit(args.out, simulate(cfg, stbc).to_text())
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
    c.add_argument("--l", type=int, help="--op A and B (default 0)")
    c.add_argument("--xi-order", dest="xi_order",
                   help="--op C (default 0,1,w,w2)")
    c.add_argument("--sigma")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_construct)

    c = sub.add_parser("build-fd", help="build a family design / bundle")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--rate", required=True)
    c.add_argument("--xi2", choices=["1", "w2"],
                   help="xi2 coordinate of the family (default w2); m >= 2")
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
    if args.cmd == "catalog" and args.action == "show" and not args.name:
        print("catalog show requires a design name", file=sys.stderr)
        return 2
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        msg = exc.args[0] if isinstance(exc, KeyError) else exc
        print("error: %s" % (msg,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
