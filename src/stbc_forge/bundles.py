"""Ready-to-simulate STBC bundles for the catalog and family designs.

Each builder fixes the signal set and decode plan that make the design's
advertised decoding complexity concrete: orthogonal designs hard-limit
every real, multigroup designs scan each group (optionally hard-limiting
the last real), the fast-group-decodable code conditions on the
non-orthogonal part of its big group, the Silver code conditions on its
precoded block, and the rate-R family pairs its symbols into rotated QAM
and follows fdfgd.family_plan.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from .constructions import catalog, SILVER_U
from .design import (Design, LinearDesign, Leaf, Cond, JOINT, HARD_LAST,
                     HARD_ALL, finest_partition, to_linear_design)
from .diversity import rotation_search
from .fdfgd import family_pairs, family_plan
from .signalset import (SignalSet, PairQAM, RealPoints, BlockValues,
                        pam_points, qam_side, qam_signal_set)
from .simulate import STBCInstance


def _pam_instance(linear, Q, plan):
    sig = SignalSet(units=tuple(RealPoints(i, pam_points(Q))
                                for i in range(linear.K)))
    return STBCInstance(linear=linear, signals=sig, plan=plan)


def alamouti_stbc(M):
    """Four independently hard-limited reals: 4 metric evaluations total."""
    lin = catalog("alamouti").linear
    plan = Cond(conditioning=(),
                children=tuple(Leaf((i,), HARD_LAST) for i in range(4)))
    return _pam_instance(lin, qam_side(M), plan)


def qod4_stbc(Q=2, kind=JOINT):
    """Four 2-real groups scanned jointly (or with the last hard-limited)."""
    entry = catalog("qod4")
    plan = Cond(conditioning=(),
                children=tuple(Leaf(g, kind) for g in entry.design.partition))
    return _pam_instance(entry.linear, Q, plan)


def group_stbc(entry, Q=2, kind=JOINT):
    """Generic per-group plan for any validly partitioned catalog design."""
    d = entry.design
    part = d.partition or finest_partition(d).groups
    plan = Cond(conditioning=(), children=tuple(Leaf(g, kind) for g in part))
    return _pam_instance(entry.linear, Q, plan)


def fgd_ren_stbc(Q=2, rate=Fraction(17, 8)):
    """Fast-group-decodable code; rate 2 drops one symbol of S2 \\ O.

    S1 is the zero vector; inside S2 the five mutually HR-orthogonal
    symbols O are decoded one by one for each hypothesis of the rest.
    """
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
    K = len(vectors)
    d = Design(2, tuple(vectors), ((0,), tuple(range(1, K))))
    lin = to_linear_design(d)
    rest = tuple(i for i in range(1, K) if i not in ortho)
    plan = Cond(conditioning=(), children=(
        Leaf((0,), JOINT),
        Cond(conditioning=rest,
             children=tuple(Leaf((i,), JOINT) for i in sorted(ortho)))))
    return _pam_instance(lin, Q, plan)


def silver_stbc(M, R=Fraction(2), thetas=None):
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
    th = list(thetas) if thetas is not None else [0.0, 0.0]
    units = [PairQAM((0, 1), M, th[0]), PairQAM((2, 3), M, th[1])]
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
    the rotation search pair by pair against the zero-codeword prior.
    """
    pairs = family_pairs(fd)
    linear = to_linear_design(fd.design())
    if isinstance(angles, str) and angles == "auto":
        # angle per pair against the code built so far, so the final
        # code is full diversity, not just each pair in isolation
        pam = pam_points(qam_side(M))
        prior = [np.zeros((linear.N, linear.N), complex)]
        thetas = []
        for iI, iQ in pairs:
            A1, A2 = linear.entries[iI].matrix, linear.entries[iQ].matrix
            th = rotation_search(prior, A1, A2, M, 720)
            thetas.append(th)
            z = np.exp(1j * th) * np.array([a + 1j * b
                                            for a in pam for b in pam])
            prior = [C + zz.real * A1 + zz.imag * A2
                     for C in prior for zz in z]
    else:
        thetas = list(angles)
        if len(thetas) != len(pairs):
            raise ValueError("need %d angles, got %d" % (len(pairs), len(thetas)))
    signals = qam_signal_set(pairs, M, thetas)
    return STBCInstance(linear=linear, signals=signals, plan=family_plan(fd))
