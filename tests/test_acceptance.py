"""Acceptance suite: one test per top-level criterion, one line each.

Run with -s (or read captured output) to see the per-criterion lines;
each test prints exactly one "criterion N: PASS" line on success and
fails loudly otherwise.
"""

import time
from fractions import Fraction

import numpy as np

from stbc_forge.f4 import (I, W2, F4Vec, weight, zero, delta,
                           enumerate_all, parse_vec, f4_pow_w)
from stbc_forge.pauli import (phi_inv, is_hermitian_parity,
                              anticommute_parity, hr_orthogonal_numeric,
                              I2, X, Z, ZX)
from stbc_forge.design import (Design, validate_partition, rate, Leaf,
                               Cond, JOINT, HARD_LAST, plan_complexity,
                               to_linear_design,
                               LinearDesign, LDEntry)
from stbc_forge.constructions import (catalog, construct_A, construct_B,
                                      construct_C, XI_ORDERS)
from stbc_forge.fdfgd import (build_base, puncture, extend, check_prop16,
                              predicted_complexity)
from stbc_forge.diversity import (generator_matrix, cubic_shaping_check,
                                  full_diversity_check, grow_constellation,
                                  grow_with_pam_prefix, DET_TOL,
                                  _min_det_from_points)
from stbc_forge.signalset import pam_points, qam_signal_set
from stbc_forge.simulate import STBCInstance, SimConfig, simulate
from stbc_forge.bundles import (alamouti_stbc, qod4_stbc, assemble_stbc,
                                silver_stbc)


def _vt(*texts):
    return tuple(parse_vec(t) for t in texts)


def test_criterion_1_hr_parity_exhaustive():
    """Parity rule == numeric HR orthogonality for all ordered pairs."""
    t0 = time.monotonic()
    checked = 0
    for m in (1, 2):
        vs = enumerate_all(m)
        mats = [phi_inv(v) for v in vs]
        for i, vi in enumerate(vs):
            for j, vj in enumerate(vs):
                assert (anticommute_parity(vi, vj)
                        == hr_orthogonal_numeric(mats[i], mats[j], tol=1e-9))
                checked += 1
    dt = time.monotonic() - t0
    assert checked == 8 ** 2 + 32 ** 2
    assert dt < 5.0
    print("criterion 1: PASS - HR parity == numeric on %d ordered pairs "
          "(%.2f s)" % (checked, dt))


def test_criterion_2_hermiticity_parity_exhaustive():
    t0 = time.monotonic()
    checked = 0
    for m in (1, 2, 3):
        for v in enumerate_all(m):
            A = phi_inv(v)
            assert is_hermitian_parity(v) == \
                bool(np.abs(A - A.conj().T).max() < 1e-9)
            checked += 1
    dt = time.monotonic() - t0
    assert checked == sum(2 ** (2 * m + 1) for m in (1, 2, 3))
    assert dt < 10.0
    print("criterion 2: PASS - Hermiticity parity == numeric on %d matrices "
          "(%.2f s)" % (checked, dt))


def test_criterion_3_catalog_fidelity():
    # alamouti
    e = catalog("alamouti")
    assert e.design.vectors == _vt("0|0", "0|1", "0|w", "0|w2")
    assert e.design.partition == ((0,), (1,), (2,), (3,))
    assert validate_partition(e.design, e.design.partition).valid
    # rate1_2x2 for all three suffix exponents
    for l in (0, 1, 2):
        e = catalog("rate1_2x2", l=l)
        wl = f4_pow_w(l)
        assert e.design.vectors == (zero(1), F4Vec(1, (wl,)),
                                    F4Vec(0, (wl,)), delta(1))
        assert e.design.partition == ((0, 1), (2, 3))
        assert validate_partition(e.design, e.design.partition).valid
    # quasi-orthogonal 4-antenna design with its printed matrices
    e = catalog("qod4")
    assert e.design.vectors == _vt("0|0,0", "1|w,w", "0|0,w2", "1|w,1",
                                   "0|w2,0", "1|1,w", "0|w2,w2", "1|1,1")
    assert e.design.partition == ((0, 6), (1, 7), (2, 4), (3, 5))
    assert validate_partition(e.design, e.design.partition).valid
    want = (np.kron(I2, I2), np.kron(1j * Z, Z), np.kron(I2, ZX),
            np.kron(1j * Z, X), np.kron(ZX, I2), np.kron(1j * X, Z),
            np.kron(ZX, ZX), np.kron(1j * X, X))
    for ent, A in zip(e.linear.entries, want):
        assert np.abs(ent.matrix - A).max() < 1e-12
    # maximal rate square orthogonal designs
    for m in (1, 2, 3):
        e = catalog("scod", m=m)
        d = e.design
        assert d.K == 2 * m + 2 and rate(d) == Fraction(m + 1, 2 ** m)
        assert d.partition == tuple((i,) for i in range(d.K))
        assert validate_partition(d, d.partition).valid
        mats = [phi_inv(v) for v in d.vectors]
        for i in range(d.K):
            for j in range(i + 1, d.K):
                assert hr_orthogonal_numeric(mats[i], mats[j])
    assert catalog("scod", m=2).design.vectors == _vt(
        "0|0,w2", "1|w2,w", "0|0,1", "1|1,w", "1|w,w", "0|0,0")
    assert set(catalog("scod", m=1).design.vectors) == \
        set(catalog("alamouti").design.vectors)
    # fast-group-decodable rate 17/8 design
    e = catalog("fgd_ren")
    d = e.design
    assert d.K == 17 and rate(d) == Fraction(17, 8)
    assert d.vectors[0] == zero(2)
    assert set(d.vectors[1:]) == {v for v in enumerate_all(2)
                                  if weight(v) % 2 == 1}
    assert validate_partition(d, d.partition).valid
    # silver code with its printed matrices
    e = catalog("silver")
    assert e.design.vectors == _vt("0|0", "0|w", "0|w2", "0|1",
                                   "1|w", "1|0", "1|1", "1|w2")
    want = (I2, 1j * Z, ZX, 1j * X, Z, 1j * I2, X, 1j * ZX)
    for ent, A in zip(e.linear.entries, want):
        assert np.abs(ent.matrix - A).max() < 1e-12
    # bhv: quasi-orthogonal design extended by right multiplication
    e = catalog("bhv")
    qod = catalog("qod4")
    assert e.design.vectors[:8] == qod.design.vectors
    T = np.kron(Z, I2)
    for k in range(8):
        assert np.abs(e.linear.entries[8 + k].matrix
                      - qod.linear.entries[k].matrix @ T).max() < 1e-12
    # pavan2x2 with its printed matrices
    e = catalog("pavan2x2")
    want = (I2, Z, 1j * I2, 1j * Z, X, ZX, 1j * X, 1j * ZX)
    for ent, A in zip(e.linear.entries, want):
        assert np.abs(ent.matrix - A).max() < 1e-12
    print("criterion 3: PASS - catalog designs match their printed "
          "vectors/groups")


def test_criterion_4_cubic_shaping():
    designs = []
    for name, params in (("alamouti", {}), ("rate1_2x2", {"l": 0}),
                         ("rate1_2x2", {"l": 1}), ("rate1_2x2", {"l": 2}),
                         ("qod4", {}), ("scod", {"m": 1}), ("scod", {"m": 2}),
                         ("scod", {"m": 3}), ("ciod", {"m": 2}),
                         ("precoded_ciod", {"n": 1}), ("dast", {"n": 1}),
                         ("ggroup", {"g": 3, "a": 1}), ("fgd_ren", {}),
                         ("pavan2x2", {}), ("bhv", {}), ("silver", {})):
        designs.append(catalog(name, **params).design)
    designs.append(construct_A(catalog("qod4").design, 1))
    designs.append(construct_B(catalog("rate1_2x2", l=1).design, 2))
    designs.append(construct_C(catalog("rate1_2x2", l=1).design,
                               XI_ORDERS[1]))
    designs.append(build_base(3).design())
    rng = np.random.default_rng(2024)
    for d in designs:
        ld = to_linear_design(d)
        gm = generator_matrix(ld)
        want = 2 ** d.m * np.eye(ld.K)
        assert np.abs(gm.gram() - want).max() < 1e-9
        Qr, _ = np.linalg.qr(rng.standard_normal((ld.K, ld.K)))
        gmq = generator_matrix(ld, Q=Qr)
        assert cubic_shaping_check(gmq, tol=1e-9)
    print("criterion 4: PASS - G^T G = 2^m I for %d designs, identity and "
          "random orthogonal Q" % len(designs))


def test_criterion_5_complexity_table():
    table = [
        (1, 2, "M^2"),
        (2, Fraction(5, 4), "3·M^1.5"),
        (2, Fraction(3, 2), "3·M^2.5"),
        (2, 2, "3·M^4.5"),
        (2, Fraction(17, 8), "3·M^5"),
        (2, 3, "3·M^8.5"),
        (2, 4, "3·M^12.5"),
        (3, Fraction(5, 4), "3·M^3.5"),
        (3, 2, "3·M^9.5"),
        (3, Fraction(17, 8), "3·M^10.5"),
        (3, 3, "3·M^17.5"),
        (3, 4, "3·M^25.5"),
        (3, 5, "3·M^33.5"),
        (3, 6, "3·M^41.5"),
    ]
    for m, R, want in table:
        rep = predicted_complexity(m, R)
        assert str(rep) == want, (m, R, str(rep), want)
    # fast-group-decodable catalog design: dominant term 5*M^6
    from stbc_forge.bundles import fgd_ren_stbc
    rep = plan_complexity(fgd_ren_stbc().plan)
    assert rep.coefficient == 5 and rep.exponent == 6
    # generic multigroup plans: g joint groups cost g*M^{NR/g}, and
    # hard-limiting the last real saves sqrt(M) per group
    for g, N, R in ((2, 2, 1), (4, 4, 1), (4, 4, 2), (8, 8, 1)):
        K = int(2 * N * R)
        size = K // g
        groups = tuple(tuple(range(size * i, size * (i + 1)))
                       for i in range(g))
        joint = plan_complexity(Cond((), tuple(Leaf(grp, JOINT)
                                               for grp in groups)))
        assert joint.terms == ((g, Fraction(N * R, g)),)
        hard = plan_complexity(Cond((), tuple(Leaf(grp, HARD_LAST)
                                              for grp in groups)))
        assert hard.terms == ((g, Fraction(N * R, g) - Fraction(1, 2)),)
    print("criterion 5: PASS - all 14 table entries, 5·M^6, and the "
          "g-group formulas reproduced exactly")


def test_criterion_6_family_structure():
    t0 = time.monotonic()
    for m in (2, 3, 4, 5):
        for xi2 in (I, W2):
            fd = build_base(m, xi2=xi2)
            s_a = fd.subset("S_A")
            # rate 5/4 with the 2-group partition {S1, S2}
            d = fd.design()
            assert rate(d) == Fraction(5, 4)
            assert validate_partition(d, d.partition).valid
            # every vector outside S_A has odd weight
            others = [v for name in ("S_B", "S_C", "S_D", "S_E")
                      for v in fd.subset(name)]
            assert all(weight(v) % 2 == 1 for v in others)
            # S_A..S_D alone: 4-group decodable rate-1 design
            vs, part, at = [], [], 0
            for name in ("S_A", "S_B", "S_C", "S_D"):
                sub = fd.subset(name)
                part.append(tuple(range(at, at + len(sub))))
                vs.extend(sub)
                at += len(sub)
            d4 = Design(m, tuple(vs), tuple(part))
            assert rate(d4) == 1
            assert validate_partition(d4, d4.partition).valid
            # S_A is separable from each other subset (2-group claim
            # subset by subset)
            for name in ("S_B", "S_C", "S_D", "S_E"):
                for v in fd.subset(name):
                    assert all(weight(v + a) % 2 == 1 for a in s_a)
    rank_checked = 0
    for m in (2, 3, 4):
        for v in enumerate_all(m):
            assert check_prop16(v)
            rank_checked += 1
    dt = time.monotonic() - t0
    assert dt < 60.0
    print("criterion 6: PASS - family structure for m=2..5, both xi2; "
          "pair-sum full rank on %d vectors (%.1f s)" % (rank_checked, dt))


def test_criterion_7_construction_suite():
    seeds = {
        "alamouti": catalog("alamouti").design,
        "rate1_2x2(1)": catalog("rate1_2x2", l=1).design,
        "qod4": catalog("qod4").design,
    }
    for name, d in seeds.items():
        for l in (0, 1, 2):
            out = construct_A(d, l)
            assert validate_partition(out, out.partition).valid
            assert rate(out) == rate(d)
            assert len(out.partition) == len(d.partition)
    # B and C need 2-group intra-even inputs; of the three seeds only
    # rate1_2x2(1) qualifies, and the others fail with a clear error
    two_group = seeds["rate1_2x2(1)"]
    for l in (0, 1, 2):
        out = construct_B(two_group, l)
        assert validate_partition(out, out.partition).valid
        assert rate(out) == rate(two_group)
        assert len(out.partition) == 2
    for xo in XI_ORDERS:
        out = construct_C(two_group, xo)
        assert validate_partition(out, out.partition).valid
        assert rate(out) == rate(two_group)
        assert len(out.partition) == 4
    for bad in (seeds["alamouti"], seeds["qod4"]):
        for fn in (lambda: construct_B(bad, 0),
                   lambda: construct_C(bad, XI_ORDERS[0])):
            try:
                fn()
            except ValueError:
                pass
            else:
                raise AssertionError("expected a 2-group precondition error")
    # g-group rate formula
    for g in range(2, 9):
        for a in (0, 1, 2):
            d = catalog("ggroup", g=g, a=a).design
            assert rate(d) == Fraction(g, 2 ** ((g + 1) // 2))
            assert len(d.partition) == g
            assert validate_partition(d, d.partition).valid
    print("criterion 7: PASS - constructions A/B/C and ggroup rates over "
          "the full parameter grid")


def test_criterion_8_decoder_oracle_equivalence():
    t0 = time.monotonic()
    base = build_base(2)
    instances = [
        ("alamouti M=4", alamouti_stbc(4), 4),
        ("qod4 2-PAM", qod4_stbc(Q=2), 4),
        ("family m=2 R=1", assemble_stbc(puncture(base, 1),
                                         [0.5] * 4, 4), 4),
        ("family m=2 R=5/4", assemble_stbc(base, [0.5] * 5, 4), 4),
        ("family m=2 R=2", assemble_stbc(extend(base, 2),
                                         [0.5] * 8, 4), 4),
        ("silver M=4", silver_stbc(4), 4),
    ]
    for k, (label, stbc, M) in enumerate(instances):
        # decoder="both" raises on the first trial whose structured
        # codeword index differs from the oracle's
        cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=500, seed=100 + k,
                        decoder="both")
        res = simulate(cfg, stbc)
        want = plan_complexity(stbc.plan).evaluate(M)
        assert res.structured_evals == want, label
    dt = time.monotonic() - t0
    print("criterion 8: PASS - 6 instances x 500 trials, structured == "
          "oracle, counts == term sums (%.1f s)" % dt)


def test_criterion_9_full_diversity():
    t0 = time.monotonic()
    # searched angles give a fully diverse 1024-codeword family code
    stbc = assemble_stbc(build_base(2), "auto", 4)
    mn = full_diversity_check(stbc)
    assert mn > 1e-8
    dt = time.monotonic() - t0
    assert dt < 120.0
    # negative control: the diagonal 2x2 design with unrotated 4-QAM
    E11 = np.diag([1.0, 0.0]).astype(complex)
    E22 = np.diag([0.0, 1.0]).astype(complex)
    entries = tuple(LDEntry(label="x%d" % (k + 1), matrix=A)
                    for k, A in enumerate((E11, E22, 1j * E11, 1j * E22)))
    ciod = STBCInstance(linear=LinearDesign(m=1, entries=entries),
                        signals=qam_signal_set(((0, 1), (2, 3)), 4))
    assert full_diversity_check(ciod) < DET_TOL
    # grown point sets certified exhaustively
    ala = to_linear_design(catalog("alamouti").design)
    pts = grow_constellation(ala, (2, 2, 2, 2), seed=0)
    assert _min_det_from_points(ala.matrices(),
                                [list(p) for p in pts]) > DET_TOL
    gg = catalog("ggroup", g=2, a=1)
    ents = gg.linear.entries
    ld = LinearDesign(m=gg.design.m,
                      entries=(ents[0], ents[2], ents[1], ents[3]))
    pam = pam_points(2)
    pts = grow_with_pam_prefix(ld, 2, (pam, pam), seed=0)
    assert _min_det_from_points(ld.matrices(),
                                [list(p) for p in pts]) > DET_TOL
    print("criterion 9: PASS - searched family code min|det|=%.4g, negative "
          "control and grown sets verified (%.1f s)"
          % (mn, time.monotonic() - t0))


def test_criterion_10_worker_determinism():
    stbc = alamouti_stbc(4)
    texts = []
    for w in (1, 4):
        cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=60, seed=21,
                        workers=w)
        texts.append(simulate(cfg, stbc).to_text())
    assert texts[0] == texts[1]
    print("criterion 10: PASS - SimResult byte-identical for 1 and 4 "
          "workers")
