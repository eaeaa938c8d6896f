"""Ready-to-simulate STBC bundles for the catalog and family designs.

family_bundle is the one dispatcher over the family's m >= 1 and rate,
and writes the metadata of a design file; bundle_from_meta reads it back
and checks that it builds the code on the file's vectors.

Each builder fixes the signal set and decode plan that make the design's
advertised decoding complexity concrete: orthogonal designs hard-limit
every real, multigroup designs scan each group (optionally hard-limiting
the last real), the fast-group-decodable code conditions on the
non-orthogonal part of its big group, the Silver code conditions on its
precoded block, and the rate-R family pairs its symbols into rotated QAM
and follows fdfgd.family_plan.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import product

import numpy as np

from .constructions import catalog, SILVER_U
from .design import (Design, LinearDesign, Leaf, Cond, JOINT, HARD_LAST,
                     HARD_ALL, from_groups, groups_of, qam_side,
                     to_linear_design)
from .diversity import rotation_search, check_class_cap, group_classes
from .f4 import I, W2
from .fdfgd import family, family_pairs, family_plan, predicted_complexity
from .pauli import hr_orthogonal_table
from .signalset import (SignalSet, PairQAM, BlockValues, pam_points,
                        pam_signal_set, qam_signal_set)
from .simulate import STBCInstance


def _pam_instance(linear, Q, plan):
    return STBCInstance(linear=linear, signals=pam_signal_set(linear.K, Q),
                        plan=plan)


def group_stbc(entry, Q=2, kind=JOINT):
    """Generic per-group plan for any validly partitioned catalog design."""
    plan = Cond(conditioning=(), children=tuple(
        Leaf(g, kind) for g in groups_of(entry.design)))
    return _pam_instance(entry.linear, Q, plan)


def alamouti_stbc(M):
    """Four independently hard-limited reals: 4 metric evaluations total."""
    return group_stbc(catalog("alamouti"), qam_side(M), HARD_LAST)


def qod4_stbc(Q=2):
    """Four 2-real groups, each scanned jointly."""
    return group_stbc(catalog("qod4"), Q)


def fgd_ren_stbc(M=4, rate=Fraction(17, 8)):
    """Fast-group-decodable code; rate 2 drops one symbol of S2 \\ O.

    S1 is the zero vector; inside S2 the five mutually HR-orthogonal
    symbols O are decoded one by one for each hypothesis of the rest.
    Only M = 4 is built: the plan conditions on 11 reals.
    """
    if M != 4:
        raise ValueError("the fgd_ren bundle supports M=4 only, got M=%d: "
                         "its plan conditions on 11 reals" % M)
    entry = catalog("fgd_ren")
    rate = Fraction(rate)
    vectors = list(entry.design.vectors)
    ortho = set(entry.notes["ortho_indices"])
    if rate == 2:
        drop = max(i for i in range(1, len(vectors)) if i not in ortho)
        keep = [i for i in range(len(vectors)) if i != drop]
        vectors = [vectors[i] for i in keep]
        ortho = {keep.index(i) for i in ortho}
    elif rate != Fraction(17, 8):
        raise ValueError("supported rates: 17/8 and 2")
    lin = to_linear_design(from_groups(2, [vectors[:1], vectors[1:]]))
    rest = tuple(i for i in range(1, len(vectors)) if i not in ortho)
    plan = Cond(conditioning=(), children=(
        Leaf((0,), JOINT),
        Cond(conditioning=rest,
             children=tuple(Leaf((i,), JOINT) for i in sorted(ortho)))))
    return _pam_instance(lin, qam_side(M), plan)


def silver_stbc(M, R=Fraction(2)):
    """Silver-code STBC, optionally punctured pairwise to R in {1, 3/2, 2}.

    Symbols s1, s2 are QAM pairs; (s3, s4) are jointly precoded QAM.
    Decoding conditions on the precoded block and hard-limits the four
    remaining reals, costing exactly M^{2(R-1)} metric evaluations.
    """
    R = Fraction(R)
    if R not in (Fraction(1), Fraction(3, 2), Fraction(2)):
        raise ValueError("pairwise puncturing allows R in {1, 3/2, 2}")
    entry = catalog("silver")
    keep = int(4 * R)  # real symbol count after puncturing s4 (and s3)
    linear = LinearDesign(m=1, entries=entry.linear.entries[:keep])
    units = [PairQAM((0, 1), M), PairQAM((2, 3), M)]
    hard = Leaf((0, 1, 2, 3), HARD_ALL)
    if R == 2:
        rows = []
        for z3r, z3i, z4r, z4i in product(pam_points(qam_side(M)), repeat=4):
            s3, s4 = SILVER_U @ np.array([z3r + 1j * z3i, z4r + 1j * z4i])
            rows.append((s3.real, s3.imag, s4.real, s4.imag))
        units.append(BlockValues((4, 5, 6, 7), tuple(rows)))
        plan = Cond(conditioning=(4, 5, 6, 7), children=(hard,))
    elif R == Fraction(3, 2):
        units.append(PairQAM((4, 5), M, 0.0))
        plan = Cond(conditioning=(4, 5), children=(hard,))
    else:
        plan = hard
    return STBCInstance(linear=linear, signals=SignalSet(units=tuple(units)),
                        plan=plan)


def assemble_stbc(fd, angles, M):
    """STBC of the family design: paired rotated QAM plus the family plan.

    angles: one theta per pair (in family_pairs order), or "auto" to run
    the rotation search pair by pair, each against the units of the pairs
    searched before it.  "auto" first checks the class count of each
    HR-orthogonal group of the finished code against DIFF_CAP and raises
    DiversityCapError when its certification would be refused, before
    any search.
    """
    pairs = family_pairs(fd)
    linear = to_linear_design(fd.design())
    if isinstance(angles, str) and angles == "auto":
        A = linear.matrices()
        for n in group_classes(hr_orthogonal_table(A),
                               qam_signal_set(pairs, M)):
            check_class_cap(n)
        # angle per pair against the code built so far, so the final
        # code is full diversity, not just each pair in isolation
        units, thetas = [], []
        for pair in pairs:
            thetas.append(rotation_search(A, units, pair, M))
            units.append((pair, PairQAM(pair, M, thetas[-1]).values()))
    else:
        thetas = list(angles)
        if len(thetas) != len(pairs):
            raise ValueError("need %d angles, got %d" % (len(pairs), len(thetas)))
    signals = qam_signal_set(pairs, M, thetas)
    return STBCInstance(linear=linear, signals=signals, plan=family_plan(fd))


Bundle = namedtuple("Bundle", "stbc design meta predicted")


def _family_name(m):
    return "silver-punctured" if m == 1 else "fgd-family"


def family_bundle(m, R, M, angles, xi2):
    """Bundle of the rate-R family member for 2^m antennas, m >= 1: the
    instance, the design and meta a design file stores, and the
    predicted complexity (None for m >= 2 at R = 1).

    m = 1 is the punctured Silver code, which has no angles and no xi2.
    For m >= 2, angles is "" (all 0), "auto" (rotation search) or one
    comma-separated radian per QAM pair, and xi2 is "1", "w2" or None.
    R is a Fraction or its text, such as a design file's meta.rate.
    """
    try:
        R = parse_number(R, "rate", Fraction)
    except ZeroDivisionError:
        raise ValueError("rate %s has a zero denominator" % R) from None
    meta = {"family": _family_name(m), "rate": str(R), "M": str(M)}
    if m == 1:
        if angles:
            raise ValueError("--angles applies to m >= 2; the m = 1 Silver "
                             "code has no rotation angles")
        if xi2 is not None:
            raise ValueError("--xi2 applies to m >= 2; the m = 1 Silver "
                             "code has no xi2 coordinate")
        stbc = silver_stbc(M, R)
        design = Design(1, tuple(e.vector for e in stbc.linear.entries))
        return Bundle(stbc, design, meta, predicted_complexity(m, R))
    if xi2 not in (None, "1", "w2"):
        raise ValueError("xi2 must be 1 or w2, got %r" % xi2)
    meta["xi2"] = xi2 = xi2 or "w2"
    fd = family(m, R, xi2=W2 if xi2 == "w2" else I)
    if angles != "auto":
        angles = ([parse_number(t, "angle") for t in angles.split(",")]
                  if angles else [0.0] * (fd.K // 2))
    stbc = assemble_stbc(fd, angles, M)
    meta["angles"] = ",".join("%.12f" % u.theta for u in stbc.signals.units)
    return Bundle(stbc, fd.design(), meta,
                  predicted_complexity(m, R) if R > 1 else None)


# catalog designs with a canonical signal set and plan, by QAM size M
_CATALOG_BUNDLES = {
    "alamouti": alamouti_stbc,
    "qod4": lambda M: qod4_stbc(qam_side(M)),
    "fgd_ren": fgd_ren_stbc,
    "silver": silver_stbc,
}


def bundle_from_meta(design, meta, M=4):
    """Instance of a design file from its design and meta, or None when
    it carries no signal set: a family file through family_bundle, a
    catalog file by meta.name at its meta.M or else M.  Malformed bundle
    metadata, and metadata that builds a code on other vectors than the
    file's, raise ValueError."""
    fam = meta.get("family")
    if fam is None:
        build = _CATALOG_BUNDLES.get(meta.get("name"))
        if build is None:
            return None
        stbc = build(parse_number(meta.get("M", M), "meta.M", int))
    else:
        for key in ("M", "rate") + (("angles",) if fam == _family_name(2)
                                    else ()):
            if key not in meta:
                raise ValueError("bundle metadata is missing %s" % key)
        M = parse_number(meta["M"], "meta.M", int)
        if fam not in (_family_name(1), _family_name(2)):
            raise ValueError("unknown bundle family %r" % fam)
        if fam != _family_name(design.m):
            raise ValueError("bundle family %s does not apply to m=%d"
                             % (fam, design.m))
        if meta.get("angles") in ("", "auto"):  # a file stores the angles
            raise ValueError("bundle metadata needs explicit angles")
        stbc = family_bundle(design.m, meta["rate"], M, meta.get("angles", ""),
                             meta.get("xi2")).stbc
    built = {e.vector for e in stbc.linear.entries}
    if built != set(design.vectors):
        raise ValueError("bundle metadata builds a code on %d vectors that "
                         "are not the file's %d" % (len(built), design.K))
    return stbc


def parse_number(text, field, kind=float):
    """kind(text); a ValueError naming the field when text is not such a
    number."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError("%s %r is not %s" % (field, text, what)) from None
