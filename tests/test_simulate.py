"""Signal sets, exact ML decoders, and the seeded Monte Carlo driver."""

import gc
import importlib
import itertools
import math
import re
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stbc_forge.design import (Leaf, Cond, JOINT, HARD_LAST, HARD_ALL,
                               LDEntry, LinearDesign, plan_complexity,
                               plan_indices, qam_side, to_linear_design)
from stbc_forge.signalset import (pam_points, PairQAM, RealPoints,
                                  SignalSet, qam_signal_set, pam_signal_set,
                                  _LEVEL_ROWS)
from stbc_forge.simulate import STBCInstance, SimConfig, simulate, PlanError
from stbc_forge.constructions import catalog
from stbc_forge.bundles import (alamouti_stbc, qod4_stbc, group_stbc,
                                fgd_ren_stbc, silver_stbc, assemble_stbc)
from stbc_forge.fdfgd import (build_base, puncture, family,
                              family_pairs, family_plan)
from stbc_forge.pauli import hr_orthogonal_table

# the module itself; the package exports the simulate() function by name
sim = importlib.import_module("stbc_forge.simulate")


# ---------------------------------------------------------------------------
# signal sets

def test_pam_points():
    assert pam_points(2) == (-0.5, 0.5)
    assert pam_points(4) == (-1.5, -0.5, 0.5, 1.5)
    assert abs(sum(pam_points(5))) < 1e-12  # zero mean
    with pytest.raises(ValueError):
        pam_points(0)


def test_qam_side():
    assert qam_side(4) == 2
    assert qam_side(16) == 4
    with pytest.raises(ValueError):
        qam_side(8)


def test_pair_qam_values():
    u = PairQAM((0, 1), 4, 0.0)
    V = u.values()
    assert V.shape == (4, 2)
    # a is the outer digit: first two rows share a = -0.5
    assert np.allclose(V[0], [-0.5, -0.5])
    assert np.allclose(V[1], [-0.5, 0.5])
    assert np.allclose(V[2], [0.5, -0.5])
    # rotation preserves energies
    u2 = PairQAM((0, 1), 4, 0.7)
    assert np.allclose(np.sum(u2.values() ** 2, axis=1),
                       np.sum(V ** 2, axis=1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(theta=st.floats(-7.0, 7.0), M=st.sampled_from([4, 16, 64]))
def test_pair_qam_values_are_built_from_its_axes(theta, M):
    # values() equals the closed form (c a - s b, s a + c b) bit for bit,
    # and row a sqrt(M) + b is a e + b d on the axes (e, pam, sqrt(M)),
    # (d, pam, 1)
    u = PairQAM((0, 1), M, theta)
    pam = pam_points(qam_side(M))
    c, s = np.cos(theta), np.sin(theta)
    want = np.array([[c * a - s * b, s * a + c * b] for a in pam for b in pam])
    V = u.values()
    assert V.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    (e, outer, f), (d, inner, g) = u.axes()
    assert (outer, inner, f, g) == (pam, pam, len(pam), 1)
    for a, b in itertools.product(range(len(pam)), repeat=2):
        row = outer[a] * np.asarray(e) + inner[b] * np.asarray(d)
        assert V[a * f + b].view(np.uint64).tolist() == \
            row.view(np.uint64).tolist()


def test_axes_of_real_points():
    assert RealPoints(3, (-1.0, 2.0)).axes() == (((1.0,), (-1.0, 2.0), 1),)


def test_pair_qam_owns_two_reals():
    with pytest.raises(ValueError, match="exactly two real indices"):
        PairQAM((0, 1, 2), 4)


def test_real_points_validation():
    with pytest.raises(ValueError):
        RealPoints(0, ())
    with pytest.raises(ValueError):
        RealPoints(0, (1.0, 1.0))


@pytest.mark.parametrize("points, msg", [
    ((), "real 3: empty point list"),
    ((1.0, 0.0), "real 3: points (1.0, 0.0) are not strictly increasing"),
    ([-0.5, 0.5, 0.5], "real 3: points (-0.5, 0.5, 0.5) are not strictly "
     "increasing")])
def test_real_points_refusals_name_the_real_and_its_points(points, msg):
    with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
        RealPoints(3, points)


@pytest.mark.parametrize("points", [(0.0, np.inf), (np.nan,), (-np.inf, 0.0)])
def test_real_points_refuse_non_finite_points(points):
    # NaN passes the increasing-order check and an infinite point gives
    # an instance of NaN energy: both fail here, naming the real
    with pytest.raises(ValueError, match=r"^real 3: point -?(inf|nan) is "
                                         r"not finite$"):
        RealPoints(3, points)


def test_signal_set_cover():
    with pytest.raises(ValueError):
        SignalSet(units=(RealPoints(0, (0.0, 1.0)), RealPoints(2, (0.0, 1.0))))


def test_symbol_table_order():
    sig = SignalSet(units=(RealPoints(0, (-1.0, 1.0)),
                           RealPoints(1, (-2.0, 2.0))))
    T = sig.symbol_table()
    # first unit is the slowest digit
    assert np.allclose(T, [[-1, -2], [-1, 2], [1, -2], [1, 2]])
    assert sig.count == 4
    assert list(sig.weights.values()) == [2, 1]
    mixed = SignalSet(units=(PairQAM((0, 3), 4, 0.3),
                             RealPoints(1, (-1.0, 0.5, 2.0)),
                             PairQAM((2, 5), 16),
                             RealPoints(4, (0.0, 1.0))))
    assert list(mixed.weights.values()) == [96, 32, 2, 1]
    # every subset of units, the empty one too, as used by the decoder's
    # tables: its rows are the symbol-table rows at the returned indexes
    # on the subset's reals and zero elsewhere, first unit slowest; those
    # symbol-table rows hold the other units at their first value
    for sig in (mixed, silver_stbc(4).signals):
        T = sig.symbol_table()
        for r in range(len(sig.units) + 1):
            for units in itertools.combinations(sig.units, r):
                V, idx = sig.table(units)
                cols = [i for u in units for i in u.indices]
                rest = [i for i in range(sig.K) if i not in cols]
                assert V.shape == (np.prod([u.size for u in units]), sig.K)
                assert np.all(np.diff(idx) > 0) and idx[0] == 0
                assert V[:, cols].tobytes() == T[idx][:, cols].tobytes()
                assert not V[:, rest].any()
                assert (T[idx][:, rest] == T[0, rest]).all()


def test_table_enumerates_one_axis_of_a_unit():
    # one axis of a unit as a conditioning part: its points along its
    # direction, point a setting digit a x the axis digit factor x the
    # unit weight; the symbol-table row at that index adds the unit's
    # other axes, and the other units, at their first points
    pair, real = PairQAM((0, 3), 16, 0.3), RealPoints(1, (-1.0, 0.5, 2.0))
    sig = SignalSet(units=(pair, real, RealPoints(2, (0.0, 1.0))))
    (e, pam, f), (d, _pam, _one) = pair.axes()
    V, idx = sig.table([real, (pair, pair.axes()[0])])
    w = sig.weights
    assert idx.tolist() == [r * w[real] + a * f * w[pair]
                            for r in range(3) for a in range(4)]
    want = np.zeros((12, 4))
    want[:, 1] = np.repeat(real.points, 4)
    want[:, [0, 3]] = np.tile(np.multiply.outer(pam, e), (3, 1))
    assert V.tobytes() == want.tobytes()
    rest = np.zeros(4)
    rest[[0, 3]] = np.multiply(pam[0], d)
    assert np.allclose(sig.symbol_table()[idx] - V, rest, rtol=0,
                       atol=1e-15)


def test_qam_signal_set_pairs_noncontiguous():
    sig = qam_signal_set(((0, 2), (1, 3)), 4)
    T = sig.symbol_table()
    assert T.shape == (16, 4)
    assert sig.K == 4


# ---------------------------------------------------------------------------
# instance validation

def test_instance_requires_matching_k():
    lin = catalog("alamouti").linear
    with pytest.raises(ValueError):
        STBCInstance(linear=lin, signals=pam_signal_set(3, 2))


def test_plan_must_not_split_units():
    lin = catalog("alamouti").linear
    sig = qam_signal_set(((0, 1), (2, 3)), 4)
    plan = Cond((), (Leaf((0,), JOINT), Leaf((1, 2, 3), JOINT)))
    with pytest.raises(PlanError):
        STBCInstance(linear=lin, signals=sig, plan=plan)


def test_hard_all_needs_orthogonality():
    # qod4 groups are not internally HR-orthogonal
    entry = catalog("qod4")
    sig = pam_signal_set(8, 2)
    plan = Cond((), tuple(Leaf(g, HARD_ALL) for g in entry.design.partition))
    with pytest.raises(PlanError):
        STBCInstance(linear=entry.linear, signals=sig, plan=plan)


def test_cond_children_need_orthogonality():
    entry = catalog("qod4")
    sig = pam_signal_set(8, 2)
    # splitting one quasi-orthogonal group across children is invalid
    plan = Cond((), (Leaf((0,), JOINT), Leaf((6,), JOINT),
                     Leaf((1, 7), JOINT), Leaf((2, 4), JOINT),
                     Leaf((3, 5), JOINT)))
    with pytest.raises(PlanError):
        STBCInstance(linear=entry.linear, signals=sig, plan=plan)


def test_silver_hard_limits_its_folded_precoded_symbols():
    # U folds into the weights A'_4..7 of z3, z4, which are pairwise
    # HR-orthogonal: the transposed plan, conditioning on s1, s2 and
    # hard-limiting z3, z4, compiles, costs M^2 and is exact
    stbc = silver_stbc(4, 2)
    orth = hr_orthogonal_table(stbc.matrices[4:])
    assert orth[~np.eye(4, dtype=bool)].all()
    plan = Cond((0, 1, 2, 3), (Leaf((4, 5, 6, 7), HARD_ALL),))
    flipped = STBCInstance(linear=stbc.linear, signals=stbc.signals,
                           plan=plan)
    assert _agree(flipped, 60, seed=19) == plan_complexity(plan).evaluate(4) \
        == 16


def _family_r2():
    return assemble_stbc(family(2, 2), [0.5] * 8, 4)


def _mixed_siblings():
    """Family m=2 R=1 with 16-QAM on two pairs and 4-QAM on the other
    two, each pair at its own angle: sibling leaves that differ."""
    fd = puncture(build_base(2), 1)
    units = tuple(PairQAM(p, M, theta) for p, M, theta in
                  zip(family_pairs(fd), (16, 16, 4, 4), (0.3, 0.4, 0.5, 0.6)))
    return STBCInstance(linear=to_linear_design(fd.design()),
                        signals=SignalSet(units=units), plan=family_plan(fd))


@pytest.mark.parametrize("build", [lambda: alamouti_stbc(4), _family_r2],
                         ids=["alamouti", "family R=2"])
def test_dropped_instance_needs_no_cycle_collector(build):
    # the compiled plan must not tie the instance (and its cached symbol
    # table, 8.4 MB at R=2) into a reference cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        stbc = build()
        assert stbc.symbol_table.shape[0] == stbc.count
        assert stbc.compiled.count > 0
        ref = weakref.ref(stbc)
        del stbc
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _codeword(stbc, i):
    """Codeword i: its reals weighting the design's matrices."""
    return np.tensordot(stbc.symbol_table[i], stbc.matrices, axes=(0, 0))


def test_average_energy_alamouti():
    stbc = alamouti_stbc(4)
    # E||X||^2 = sum_i E[x_i^2] * ||A_i||^2 = 4 * (5/4)/2... direct:
    want = np.mean([np.linalg.norm(_codeword(stbc, i)) ** 2
                    for i in range(stbc.count)])
    assert abs(stbc.average_energy - want) < 1e-12


# ---------------------------------------------------------------------------
# decoders

def _agree(stbc, trials, seed, snr_db=10.0, n_rx=2):
    """Structured == oracle on every trial of a decoder="both" run, which
    raises on the first disagreement; returns the structured count."""
    cfg = SimConfig(n_rx=n_rx, snr_db=(snr_db,), trials=trials, seed=seed,
                    decoder="both")
    res = simulate(cfg, stbc)
    assert res.oracle_evals == stbc.count
    return res.structured_evals


def test_alamouti_decoder_agreement_and_count():
    stbc = alamouti_stbc(4)
    count = _agree(stbc, 60, seed=11)
    assert count == plan_complexity(stbc.plan).evaluate(4) == 4


def test_qod4_decoder_agreement_and_count():
    stbc = qod4_stbc(Q=2)
    count = _agree(stbc, 60, seed=12)
    assert count == plan_complexity(stbc.plan).evaluate(4) == 16


def test_qod4_hard_last_variant():
    stbc = group_stbc(catalog("qod4"), 2, HARD_LAST)
    count = _agree(stbc, 60, seed=13)
    assert count == plan_complexity(stbc.plan).evaluate(4) == 8


def test_group_stbc_scod():
    stbc = group_stbc(catalog("scod", m=2), Q=2)
    count = _agree(stbc, 40, seed=14)
    assert count == plan_complexity(stbc.plan).evaluate(4) == 6 * 2


def _clean_terms(stbc, sent, seed):
    """b and G of the given codewords through drawn channels, no noise."""
    cfg = SimConfig(n_rx=2, snr_db=(0.0,), trials=len(sent), seed=seed)
    _drawn, _Y, H = sim._draw(stbc, cfg, 0.0, 0, range(len(sent)))
    X = np.array([_codeword(stbc, i) for i in sent])
    return sim._metric_terms(stbc, X @ H, H)


def test_fgd_ren_count_and_zero_noise():
    # 2^17 codewords: beyond the oracle cap, so check the structured
    # decoder's instrumentation and exact decoding of clean channels
    stbc = fgd_ren_stbc()
    rep = plan_complexity(stbc.plan)
    assert str(rep) == "5·M^6"
    sent = [0, 31337, stbc.count - 1]
    b, G = _clean_terms(stbc, sent, seed=15)
    assert sim._structured(stbc, b, G)[0].tolist() == sent
    assert stbc.compiled.count == rep.evaluate(4)


def test_fgd_ren_rate2():
    stbc = fgd_ren_stbc(rate=2)
    rep = plan_complexity(stbc.plan)
    assert rep.evaluate(4) == 5 * 4 ** Fraction(11, 2) + 4 ** Fraction(1, 2)
    count = _agree(stbc, 6, seed=16)
    assert count == rep.evaluate(4)
    with pytest.raises(ValueError):
        fgd_ren_stbc(rate=Fraction(3, 2))


@pytest.mark.parametrize("M, R", [(4, 1), (4, Fraction(3, 2)), (4, 2),
                                  (16, 2)], ids=["1", "R1", "2", "2 at M=16"])
def test_silver_decoder_agreement(M, R):
    stbc = silver_stbc(M, R)
    count = _agree(stbc, 60, seed=17)
    assert count == plan_complexity(stbc.plan).evaluate(M)


def test_counts_at_m16():
    stbc = alamouti_stbc(16)
    count = _agree(stbc, 20, seed=18)
    assert count == plan_complexity(stbc.plan).evaluate(16) == 4


def test_zero_noise_decodes_exactly():
    stbc = qod4_stbc(Q=2)
    sent = [0, 5, 200, 255]
    b, G = _clean_terms(stbc, sent, seed=3)
    assert sim._oracle(stbc, b, G)[0].tolist() == sent
    assert sim._structured(stbc, b, G)[0].tolist() == sent


def test_metric_separation_across_groups():
    # for HR-orthogonal groups the ML metric splits per group
    stbc = alamouti_stbc(4)
    cfg = SimConfig(n_rx=2, snr_db=(0.0,), trials=1, seed=4)
    _sent, Y, H = sim._draw(stbc, cfg, 0.3, 0, range(1))
    (b,), (G,) = sim._metric_terms(stbc, Y, H)
    V = stbc.symbol_table
    full = -2.0 * (V @ b) + np.einsum("ni,ij,nj->n", V, G, V)
    split = np.zeros(stbc.count)
    for i in range(4):
        split += -2.0 * V[:, i] * b[i] + G[i, i] * V[:, i] ** 2
    assert np.abs(full - split).max() < 1e-6 * max(1.0, np.abs(full).max())


def test_structured_requires_plan():
    lin = catalog("alamouti").linear
    stbc = STBCInstance(linear=lin, signals=pam_signal_set(4, 2))
    for decoder in ("structured", "both"):
        cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=1, seed=5,
                        decoder=decoder)
        with pytest.raises(ValueError, match="no decode plan"):
            simulate(cfg, stbc)


# ---------------------------------------------------------------------------
# Monte Carlo driver

def _four_call_channel(X, rng, n_rx, noise_std):
    """The channel as one standard_normal call per real block."""
    N = X.shape[0]
    H = (rng.standard_normal((N, n_rx)) +
         1j * rng.standard_normal((N, n_rx))) / np.sqrt(2)
    W = noise_std * (rng.standard_normal((N, n_rx)) +
                     1j * rng.standard_normal((N, n_rx))) / np.sqrt(2)
    return X @ H + W, H


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@lru_cache(maxsize=None)
def _bundle(name):
    return _compile_shape_bundles()[name]()


@pytest.mark.parametrize("name", ["alamouti", "qod4", "silver", "family R=1",
                                  "family R=5/4", "family R=2"])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32, 2 ** 64 + 5])
def test_draw_matches_per_trial_generators(name, seed):
    # each trial from default_rng(SeedSequence([seed, snr_idx, t])): the
    # sent index, four standard_normal blocks and _codeword(sent)
    stbc = _bundle(name)
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=7, seed=seed)
    trials = [0, 1, 2, 3, 4, 1000, 2 ** 32 - 1]
    for snr_idx, sigma in enumerate((0.9, 0.1)):
        sent, Y, H = sim._draw(stbc, cfg, sigma, snr_idx, trials)
        for k, t in enumerate(trials):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, snr_idx, t]))
            want = rng.integers(stbc.count)
            assert sent[k] == want
            want_Y, want_H = _four_call_channel(_codeword(stbc, want), rng,
                                                2, sigma)
            assert _same_bits(Y[k], want_Y) and _same_bits(H[k], want_H)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["alamouti", "qod4", "silver", "family R=1",
                             "family R=5/4", "family R=2"]),
       seed=st.integers(0, 2 ** 96 - 1),  # keys of 3 to 5 words
       n_rx=st.integers(1, 3),
       keys=st.lists(st.tuples(st.integers(0, 3),
                               st.integers(0, sim.MAX_TRIALS - 1)),
                     min_size=1, max_size=8))
def test_draw_over_mixed_keys_matches_per_trial_generators(name, seed, n_rx,
                                                           keys):
    # one _draw over per-key SNR indexes, deviations and trials, against
    # default_rng(SeedSequence([seed, snr_idx, t])) key by key
    stbc = _bundle(name)
    sigmas = np.array([0.9, 0.1, 0.5, 2.0])
    snr_idx, trials = (np.array(c) for c in zip(*keys))
    cfg = SimConfig(n_rx=n_rx, snr_db=(0.0,), trials=1, seed=seed)
    sent, Y, H = sim._draw(stbc, cfg, sigmas[snr_idx], snr_idx, trials)
    for k, (i, t) in enumerate(keys):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i, t]))
        want = rng.integers(stbc.count)
        assert sent[k] == want
        want_Y, want_H = _four_call_channel(_codeword(stbc, want), rng,
                                            n_rx, sigmas[i])
        assert _same_bits(Y[k], want_Y) and _same_bits(H[k], want_H)


def test_seeded_holds_only_pcg64_words():
    words = np.arange(4, dtype=np.uint64)
    seeded = sim._Seeded(words)
    assert seeded.generate_state(4, np.uint64) is words
    for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError):
            seeded.generate_state(n_words, dtype)


def test_pools_are_the_seed_sequence_pools():
    # keys of 1 to 6 words (past the pool's 4 and short of it), zero
    # words, and the 5-word keys [seed, snr_idx, t] of seeds >= 2^64
    rng = np.random.default_rng(31)
    keys = [rng.integers(0, 2 ** 32, size=(40, n), dtype=np.uint32)
            for n in range(1, 7)]
    keys += [np.zeros((3, n), dtype=np.uint32) for n in (1, 4, 6)]
    for block in keys[:6]:
        block[::3, rng.integers(block.shape[1])] = 0
    for block in keys:
        want = np.array([np.random.SeedSequence(key).pool for key in block])
        assert np.array_equal(sim._pools(block), want)
    for seed in (2 ** 64, 2 ** 64 + 5, 2 ** 96 - 1):
        lists = [[seed, i, t] for i in (0, 3) for t in (0, 1, 2 ** 32 - 1)]
        block = np.array([sim._words(seed) + key[1:] for key in lists],
                         dtype=np.uint32)
        assert block.shape == (6, 5)
        want = np.array([np.random.SeedSequence(key).pool for key in lists])
        assert np.array_equal(sim._pools(block), want)


# (count, seeds): 3 * 2^30 and 3 * 2^61 redraw a quarter of their draws
BOUNDED_COUNTS = [(1, 20), (2, 50), (3 * 2 ** 30, 1000), (2 ** 32 - 1, 50),
                  (2 ** 32, 50), (2 ** 32 + 1, 50), (2 ** 36, 50),
                  (3 * 2 ** 61, 1000), (2 ** 63 - 1, 50)]


@pytest.mark.parametrize("count, seeds", BOUNDED_COUNTS)
def test_bounded_is_generator_integers(count, seeds):
    # the same index from the same raw words, so the standard normals
    # that follow are the same block
    words = []
    for seed in range(seeds):
        bits = np.random.PCG64(seed)
        drawn = []

        def raw():
            drawn.append(bits.random_raw())
            return drawn[-1]

        got = sim._bounded(count, raw)
        rng = np.random.default_rng(seed)
        assert got == rng.integers(count)
        assert bits.state["state"] == rng.bit_generator.state["state"]
        assert _same_bits(np.random.Generator(bits).standard_normal(5),
                          rng.standard_normal(5))
        words.append(len(drawn))
    if count == 1:
        assert set(words) == {0}
    elif seeds < 1000:
        assert set(words) == {1}
    else:  # redraws, at 3 * 2^30 also past the buffered high half
        assert max(words) >= 2 and words.count(1) > seeds // 2


def test_draw_matches_per_trial_generators_past_2_32_codewords():
    # family m=2 R=9/4 at 16-QAM: 2^36 codewords, so every sent index
    # takes 64-bit Lemire on the raw PCG64 words
    stbc = assemble_stbc(family(2, Fraction(9, 4)), [0.3] * 9, 16)
    assert stbc.count == 2 ** 36
    snr_idx, trials = np.array([0, 0, 1, 1, 0]), [0, 5, 1, 4, 2 ** 32 - 1]
    sigmas = np.array([0.9, 0.1])
    for seed in (0, 7, 2 ** 64 + 5):
        cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=6, seed=seed)
        sent, Y, H = sim._draw(stbc, cfg, sigmas[snr_idx], snr_idx, trials)
        rngs = [np.random.default_rng(np.random.SeedSequence([seed, i, t]))
                for i, t in zip(snr_idx, trials)]
        want = [rng.integers(stbc.count) for rng in rngs]
        assert sent.tolist() == want
        # codewords from SignalSet.symbols, not the 2^36-row table, each
        # the product of its own reals, bit for bit
        x = stbc.signals.symbols(np.array(want))
        for k, (i, rng) in enumerate(zip(snr_idx, rngs)):
            X = np.tensordot(x[k], stbc.matrices, axes=(0, 0))
            want_Y, want_H = _four_call_channel(X, rng, 2, sigmas[i])
            assert _same_bits(Y[k], want_Y) and _same_bits(H[k], want_H)


@pytest.mark.parametrize("name", ["alamouti", "family R=5/4", "family R=2"])
def test_draw_builds_no_seed_sequence_and_calls_no_integers(name,
                                                            monkeypatch):
    calls = []

    class SpySeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            calls.append("SeedSequence")
            super().__init__(*args, **kwargs)

    class SpyGenerator(np.random.Generator):
        def integers(self, *args, **kwargs):
            calls.append("integers")
            return super().integers(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", SpySeedSequence)
    monkeypatch.setattr(np.random, "Generator", SpyGenerator)
    np.random.Generator(np.random.PCG64(np.random.SeedSequence(1))).integers(3)
    assert calls == ["SeedSequence", "integers"]  # the spies see numpy's own
    calls.clear()
    stbc = _bundle(name)
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=5, seed=3)
    sim._draw(stbc, cfg, 0.5, np.arange(10) % 2, np.arange(10))
    assert not calls


def test_first_trials_do_not_depend_on_the_trial_count(monkeypatch):
    stbc = BATCH_BUNDLES["family R=5/4"]()
    real = {n: getattr(sim, n) for n in ("_draw", "_oracle", "_structured")}

    def run(trials):
        """({(snr index, trial): (sent, oracle, structured codeword)},
        largest decode batch)"""
        log = {name: [] for name in real}

        def draw(stbc, cfg, sigma, snr_idx, ts):
            out = real["_draw"](stbc, cfg, sigma, snr_idx, ts)
            keys = zip(*np.broadcast_arrays(snr_idx, ts))
            log["_draw"].append(([(int(k), int(t)) for k, t in keys],
                                 out[0]))
            return out

        def decoder(name):
            def decode(*args):
                out = real[name](*args)
                log[name].append(out[0])
                return out
            return decode

        monkeypatch.setattr(sim, "_draw", draw)
        for name in ("_oracle", "_structured"):
            monkeypatch.setattr(sim, name, decoder(name))
        simulate(SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=trials,
                           seed=11), stbc)
        # the decode batches hold the drawn keys in stream order
        keys = [key for drawn, _sent in log["_draw"] for key in drawn]
        columns = [np.concatenate([sent for _keys, sent in log["_draw"]])]
        columns += [np.concatenate(log[n]) for n in ("_oracle", "_structured")]
        assert all(len(c) == len(keys) for c in columns)
        return ({key: tuple(int(c[i]) for c in columns)
                 for i, key in enumerate(keys)},
                max(map(len, log["_structured"])))

    k = 5
    short, batch = run(k)
    long, long_batch = run(k + 300)
    assert batch == 2 * k  # the short run decodes both SNRs in one batch
    assert long_batch > 2 * k  # the long run, the first trials in a larger one
    assert len(short) == 2 * k
    assert short == {key: long[key] for key in short}


def test_simulate_text_and_agreement():
    stbc = alamouti_stbc(4)
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=50, seed=7)
    res = simulate(cfg, stbc)
    assert res.codebook == 16
    text = res.to_text()
    assert [line.split("\t")[-1] for line in text.splitlines()[-2:]] == \
        ["50", "50"]
    assert text.startswith("stbc-simresult v1\n")
    assert "oracle_evals=16" in text
    assert "structured_evals=4" in text


def test_simulate_worker_determinism():
    stbc = qod4_stbc(Q=2)
    cfg1 = SimConfig(n_rx=2, snr_db=(6.0,), trials=40, seed=9, workers=1)
    cfg4 = SimConfig(n_rx=2, snr_db=(6.0,), trials=40, seed=9, workers=4)
    r1 = simulate(cfg1, stbc)
    r4 = simulate(cfg4, stbc)
    assert r1.to_text().replace("\n", "\n") == r4.to_text()
    assert r1.errors == r4.errors


def test_simulate_single_decoder_modes():
    stbc = alamouti_stbc(4)
    for dec in ("oracle", "structured"):
        cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=20, seed=2,
                        decoder=dec)
        res = simulate(cfg, stbc)
        assert res.to_text().endswith("\t20\n")
    with pytest.raises(ValueError):
        SimConfig(n_rx=2, snr_db=(10.0,), trials=1, seed=0, decoder="fast")


def test_simulate_high_snr_zero_errors():
    stbc = alamouti_stbc(4)
    cfg = SimConfig(n_rx=2, snr_db=(60.0,), trials=30, seed=1)
    res = simulate(cfg, stbc)
    assert res.errors == (0,)
    assert res.cer(0) == 0.0


def test_simulate_checks_noise_at_the_instance_energy():
    # -3080 dB leaves unit energy per antenna a finite noise deviation,
    # but not qod4's energy of 8 over 4 antennas
    cfg = SimConfig(n_rx=2, snr_db=(10.0, -3080.0), trials=3, seed=1)
    with pytest.raises(ValueError, match="snr_db -3080 gives no finite "
                                         "positive noise deviation"):
        simulate(cfg, qod4_stbc(Q=2))


def test_simulate_disagreement_names_the_case(monkeypatch):
    stbc = qod4_stbc(Q=2)
    V = stbc.symbol_table
    real = sim._oracle
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 7.5), trials=6, seed=3)
    r = cfg.trials + 4  # the batch spans both SNRs: snr index 1, trial 4
    seen = []

    def flipped(stbc, b, G):
        # move snr index 1, trial 4 to the next codeword
        idx, m = real(stbc, b, G)
        seen.append((b, G))
        idx, m = idx.copy(), m.copy()
        idx[r] = (idx[r] + 1) % len(V)
        x = V[idx[r]]
        m[r] = -2.0 * x @ b[r] + x @ G[r] @ x
        return idx, m

    monkeypatch.setattr(sim, "_oracle", flipped)
    with pytest.raises(AssertionError) as exc:
        simulate(cfg, stbc)
    assert len(seen) == 1 and len(seen[0][0]) == 2 * cfg.trials
    got = re.search(r"snr (\S+) dB \(snr index (\d+)\), trial (\d+): "
                    r"oracle codeword (\d+) metric (\S+), structured "
                    r"codeword (\d+) metric (\S+)$", str(exc.value))
    assert got, str(exc.value)
    snr, k, trial, io, mo, is_, ms = got.groups()
    assert (float(snr), int(k), int(trial)) == (7.5, 1, 4)
    b, G = seen[0][0][r], seen[0][1][r]
    want_s, _m = real(stbc, b[None], G[None])
    assert int(is_) == want_s[0]
    assert int(io) == (want_s[0] + 1) % len(V)
    for i, m in ((int(io), float(mo)), (int(is_), float(ms))):
        x = V[i]
        assert m == pytest.approx(-2.0 * x @ b + x @ G @ x, rel=1e-12)


# bundles whose plans cover every node kind; (builder, M)
BATCH_BUNDLES = {
    "alamouti": lambda: alamouti_stbc(4),
    "qod4": lambda: qod4_stbc(Q=2),
    "silver": lambda: silver_stbc(4),
    "family R=1": lambda: assemble_stbc(puncture(build_base(2), 1),
                                        [0.5] * 4, 4),
    "family R=5/4": lambda: assemble_stbc(build_base(2), [0.5] * 5, 4),
}
# the batch bundles, the 1,664-evaluation family R=2 and sibling leaves
# that differ in points and angle
MIXED = "mixed siblings"
ALL_BUNDLES = dict(BATCH_BUNDLES, **{"family R=2": _family_r2,
                                     MIXED: _mixed_siblings})


def _chunked_text(monkeypatch, stbc, cfg, chunk):
    """to_text() with the byte budget set to exactly `chunk` trials."""
    monkeypatch.setattr(sim, "_CHUNK_BYTES",
                        8 * chunk * sim._trial_words(stbc, cfg))
    real, sizes = sim._draw, []

    def draw(stbc, cfg, sigma, snr_idx, trials):
        sizes.append(len(trials))
        return real(stbc, cfg, sigma, snr_idx, trials)

    monkeypatch.setattr(sim, "_draw", draw)
    text = simulate(cfg, stbc).to_text()
    monkeypatch.setattr(sim, "_draw", real)
    assert max(sizes) == min(chunk, len(cfg.snr_db) * cfg.trials)
    return text


@pytest.mark.parametrize("name", sorted(ALL_BUNDLES))
def test_simulate_draws_once_per_chunk_without_hashing_seeds(name,
                                                             monkeypatch):
    hashed = []

    class SpySeedSequence(np.random.SeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            hashed.append(n_words)
            return super().generate_state(n_words, dtype)

    monkeypatch.setattr(np.random, "SeedSequence", SpySeedSequence)
    np.random.PCG64(np.random.SeedSequence([1, 0, 0]))
    assert hashed == [4]  # the spy sees numpy's own seeding
    hashed.clear()
    stbc = _bundle(name)
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=4, seed=3,
                    decoder="structured")
    monkeypatch.setattr(sim, "_CHUNK_BYTES",
                        8 * 3 * sim._trial_words(stbc, cfg))
    calls = {"_draw": 0, "_structured": 0}
    for fn in calls:
        def spy(*args, fn=fn, real=getattr(sim, fn)):
            calls[fn] += 1
            return real(*args)
        monkeypatch.setattr(sim, fn, spy)
    simulate(cfg, stbc)
    assert not hashed
    # chunks of 3, 3 and 2 keys; the second spans both SNRs
    assert calls == {"_draw": 3, "_structured": 3}


@pytest.mark.parametrize("name", sorted(BATCH_BUNDLES) + [MIXED])
def test_simulate_batch_invariance(name, monkeypatch):
    stbc = _bundle(name)
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=20, seed=5)
    want = simulate(cfg, stbc).to_text()
    for chunk in (1, 7, cfg.trials + 3):
        assert _chunked_text(monkeypatch, stbc, cfg, chunk) == want


def test_simulate_batch_invariance_fgd_ren(monkeypatch):
    # the 2,048-hypothesis Cond, decoded over several chunks
    stbc = fgd_ren_stbc()
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=9, seed=4,
                    decoder="structured")
    want = simulate(cfg, stbc).to_text()
    assert "structured_evals=%d" % plan_complexity(stbc.plan).evaluate(4) \
        in want
    for chunk in (1, 7, cfg.trials):
        assert _chunked_text(monkeypatch, stbc, cfg, chunk) == want


def _head_twins(rng):
    """Integer b and G that swapping reals 0 and 1 leaves unchanged:
    equal rows of G and equal b."""
    L = rng.integers(-3, 4, size=(4, 4))
    L[:, 1] = L[:, 0]
    b = rng.integers(-6, 7, size=4).astype(float)
    b[1] = b[0]
    return b, (L.T @ L).astype(float)


def _pair_swap(rng):
    """Integer b and G that swapping reals 0 <-> 1 and 2 <-> 3 at once
    leaves unchanged, and neither swap alone in general."""
    L, b, s = rng.integers(-3, 4, (4, 4)), rng.integers(-6, 7, 4), [1, 0, 3, 2]
    G = L.T @ L + L[:, s].T @ L[:, s]
    return (b + b[s]).astype(float), G.astype(float)


def test_oracle_blocks_keep_lowest_index_ties(monkeypatch):
    # +-1/2 symbols against integer b and G keep every metric exact, so
    # codewords that a symmetry of b and G swaps tie exactly in any
    # summation order; the lowest index must win within a block and
    # across blocks of tail columns.  Reals 0 and 1 are the head's and 2
    # and 3 the tail's: the head twins tie across head rows of one block,
    # and the pair swap also across tail columns, where a later block of
    # columns can hold the lower index of a tie
    stbc = STBCInstance(linear=catalog("alamouti").linear,
                        signals=pam_signal_set(4, 2))
    assert [len(X) for _c, X in stbc.grid] == [4, 4]
    V = stbc.symbol_table
    rng = np.random.default_rng(8)
    for symmetric in (_head_twins, _pair_swap):
        tied = crossed = 0
        cases = []
        for _ in range(20):
            b, G = symmetric(rng)
            m = [-2 * Fraction(x @ b) + Fraction(x @ G @ x) for x in V]
            want = min(range(len(V)), key=lambda i: (m[i], i))
            ties = [i for i in range(len(V)) if m[i] == m[want]]
            tied += len(ties) > 1
            crossed += any(i % 4 < want % 4 for i in ties)
            # every block holds all 4 head rows, so the budgets give
            # tail blocks only: of 1, 1, 1, 2 and 4 columns
            for budget in (8, 24, 48, 96, 192):
                monkeypatch.setattr(sim, "_CHUNK_BYTES", budget)
                got = sim._oracle(stbc, b[None], G[None])[0]
                assert got.tolist() == [want]
            cases.append((b, G, want))
        assert tied and (crossed or symmetric is _head_twins)
        # one tail column and one trial per block
        monkeypatch.setattr(sim, "_CHUNK_BYTES", 8)
        b, G, want = map(np.array, zip(*cases))
        assert sim._oracle(stbc, b, G)[0].tolist() == want.tolist()


def test_oracle_grid_blocks_never_split_the_head():
    # the oracle takes all n_A head rows against each tail block: a block
    # holds at most n_A n_B <= ORACLE_CAP metrics per trial, which must
    # fit the byte budget
    assert 8 * sim.ORACLE_CAP <= sim._CHUNK_BYTES


def _table_argmin(stbc, b, G):
    """The naive reference: -2 x.b + x.G.x for every row x of the
    instance's symbol table, per trial, ties to the lowest index."""
    V = stbc.symbol_table
    return np.array([np.argmin(((V @ G_t) * V).sum(axis=1) - 2.0 * (V @ b_t))
                     for b_t, G_t in zip(b, G)])


@settings(max_examples=240, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(BATCH_BUNDLES) + [MIXED, "qod4 hard_last",
                                                    "m=3 R=1"]),
       seed=st.integers(0, 2 ** 32 - 1),
       snr_db=st.floats(-10.0, 60.0),
       batch=st.integers(1, 12))
def test_structured_equals_oracle_fuzz(name, seed, snr_db, batch):
    stbc = _bundle(name)
    cfg = SimConfig(n_rx=2, snr_db=(snr_db,), trials=batch, seed=seed)
    sigma = np.sqrt(stbc.average_energy / (stbc.N * 10 ** (snr_db / 10.0)))
    _sent, Y, H = sim._draw(stbc, cfg, sigma, 0, range(batch))
    b, G = sim._metric_terms(stbc, Y, H)
    got_o, m_o = sim._oracle(stbc, b, G)
    got_s, m_s = sim._structured(stbc, b, G)
    assert got_s.tolist() == got_o.tolist()
    assert got_o.tolist() == _table_argmin(stbc, b, G).tolist()
    # the mixed siblings hard-limit sqrt(M) values per pair
    assert stbc.compiled.count == (4 + 4 + 2 + 2 if name == MIXED else
                                   plan_complexity(stbc.plan).evaluate(4))
    # a batch of one trial is the same decode as the batch's first row
    for decode, got, m in ((sim._structured, got_s, m_s),
                           (sim._oracle, got_o, m_o)):
        one_i, one_m = decode(stbc, b[:1], G[:1])
        assert one_i[0] == got[0] and _same_bits(one_m, m[:1])


# ---------------------------------------------------------------------------
# compiled kernels: sibling groups, exact ties, batch-invariant bits

def _leaf_groups(node):
    """(kernel class name, sibling leaves) of each child of a compiled
    Cond."""
    return [(type(c).__name__, c.leaves) for c in node.children]


def test_sibling_leaves_share_one_kernel_node():
    assert _leaf_groups(alamouti_stbc(4).compiled) == [("_HardLimit", 4)]
    # joint leaves are Conds without children
    (joint,) = qod4_stbc(Q=2).compiled.children
    assert (type(joint).__name__, joint.leaves, joint.children) == \
        ("_Cond", 4, ())
    # a hard_last pair is a Cond on its outer axis over a hard-limit leaf
    root = _family_r2().compiled
    assert _leaf_groups(root) == [("_Cond", 1), ("_Cond", 1)]
    assert _leaf_groups(root.children[0]) == [("_HardLimit", 1)]
    assert _leaf_groups(root.children[1]) == [("_Cond", 3)]
    assert _leaf_groups(root.children[1].children[0]) == [("_HardLimit", 3)]
    # leaves with other points or another kind do not join a group
    mixed = _mixed_siblings()
    assert mixed.count == 4096
    groups = mixed.compiled.children
    assert _leaf_groups(mixed.compiled) == [("_Cond", 2)] * 2
    assert [_leaf_groups(g) for g in groups] == [[("_HardLimit", 2)]] * 2
    assert [len(g.children[0].points) for g in groups] == [4, 2]
    fgd = fgd_ren_stbc().compiled
    assert _leaf_groups(fgd) == [("_Cond", 1), ("_Cond", 1)]
    (inner,) = fgd.children[1].children
    assert (inner.leaves, inner.children) == (5, ())
    # sibling hard_last prefixes fuse, and so do their hard-limit leaves
    for name in ("qod4 hard_last", "m=3 R=1"):
        (prefix,) = _compile_shape_bundles()[name]().compiled.children
        assert (type(prefix).__name__, prefix.leaves) == ("_Cond", 4)
        assert _leaf_groups(prefix) == [("_HardLimit", 4)]
    inner = _compile_shape_bundles()["m=3 R=5/4"]().compiled.children[1]
    assert _leaf_groups(inner) == [("_Cond", 3)]
    assert _leaf_groups(inner.children[0]) == [("_HardLimit", 3)]


def _support(row):
    return set(np.flatnonzero(row).tolist())


def _units_of(stbc, leaf):
    return [u for u in stbc.signals.units
            if set(u.indices) <= set(leaf.indices)]


def _kernel_leaves(stbc, node):
    """Kernel leaves of a plan node: one, or one per unit axis for a
    hard_all leaf."""
    if isinstance(node, Cond) or node.kind != HARD_ALL:
        return 1
    return sum(len(u.axes()) for u in _units_of(stbc, node))


def _outer_reals(unit):
    """The reals a unit's axes but its inner one move."""
    return {i for direction, _points, _factor in unit.axes()[:-1]
            for i, c in zip(unit.indices, direction) if c}


def _conditioning(stbc, plan):
    """The reals a compiled Cond leaf of a plan node conditions on: a
    Cond's conditioning, a joint leaf's reals, or a hard_last leaf's
    reals but those of its last unit, with the reals its last unit's
    outer axis moves."""
    if isinstance(plan, Cond):
        return set(plan.conditioning)
    if plan.kind == JOINT:
        return set(plan.indices)
    last = _units_of(stbc, plan)[-1]
    return set(plan.indices) - set(last.indices) | _outer_reals(last)


def _under(stbc, plan):
    """The plan nodes of the kernel leaves under a compiled Cond leaf of a
    plan node: a Cond's children, a hard_all leaf once per unit axis; a
    hard_last leaf's last unit; nothing under a joint leaf."""
    if isinstance(plan, Cond):
        return [c for c in plan.children for _ in range(_kernel_leaves(stbc, c))]
    if plan.kind == JOINT:
        return []
    return [Leaf(_units_of(stbc, plan)[-1].indices, HARD_LAST)]


@pytest.mark.parametrize("name", sorted(ALL_BUNDLES) + [
    "fgd_ren", "m=3 R=1", "m=3 R=5/4", "qod4 hard_last", "sibling Conds"])
def test_node_rows_stay_within_their_subtree(name):
    # every compiled node reads the linear terms only through its rows,
    # leaf by leaf, and a leaf's rows must vanish outside the reals of
    # its own plan node; a Cond leaf's rows are its conditioning values
    # scaled by -2, then its rows of each child.  Under each Cond leaf, the child
    # nodes' leaves are the kernel leaves of its plan node's children,
    # each exactly once.  A bare leaf compiles as a Cond without
    # conditioning, a joint leaf as a Cond without children, and a
    # hard_last leaf as a Cond on all but its last unit and on the last
    # unit's outer axis, over the hard-limit leaf of its inner axis (a
    # lone real is that leaf alone).
    stbc = _compile_shape_bundles()[name]()
    K = stbc.linear.K

    def check(node, plans):
        L = node.leaves
        assert len(plans) == L
        for plan, rows in zip(plans, node.rows.reshape(L, -1, K)):
            outside = sorted(set(range(K)) - set(plan_indices(plan)))
            assert not rows[:, outside].any()
        if type(node).__name__ == "_HardLimit":
            return
        own = (np.zeros((L, 0, K)) if node.Vc is None
               else node.Vc.reshape(L, -1, K))
        assert node.grams is node.Vc  # the values face the Gram unscaled
        parts = [c.rows.reshape(L, -1, K) for c in node.children]
        assert _same_bits(node.rows, np.concatenate(
            [-2.0 * own] + parts, 1).reshape(-1, K))
        for plan, V in zip(plans, own):
            assert _support(V.any(axis=0)) == _conditioning(stbc, plan)
        pending = [_under(stbc, plan) for plan in plans]
        for child, rows in zip(node.children, parts):
            owners = []
            for left, leaf_rows in zip(pending, rows.reshape(
                    L, child.leaves // L, -1, K)):
                for r in leaf_rows:
                    reads = _support(r.any(axis=0))
                    (owner, *_) = [p for p in left
                                   if reads <= set(plan_indices(p))]
                    left.remove(owner)
                    owners.append(owner)
            check(child, owners)
        assert not any(pending)

    plan = stbc.plan if isinstance(stbc.plan, Cond) else Cond((), (stbc.plan,))
    check(stbc.compiled, [plan])


def _sibling_conds(kinds=(HARD_LAST, JOINT), other=None):
    """Two uncoupled copies of silver R=3/2 on 4-QAM: diag(1, 0) (x) A and
    diag(0, 1) (x) A for each weight matrix A.  Each copy's plan is a Cond
    on its third pair over leaves of the given kinds on its first two
    pairs (the second copy's kinds `other`, default the same)."""
    A = silver_stbc(4, Fraction(3, 2)).matrices
    entries = tuple(LDEntry(matrix=np.kron(np.diag(e), a))
                    for e, a in itertools.product(((1, 0), (0, 1)), A))
    units = tuple(PairQAM((i, i + 1), 4, 0.0 if i % 6 == 4 else 0.5)
                  for i in range(0, 12, 2))
    plan = Cond((), tuple(
        Cond((c + 4, c + 5), tuple(Leaf((c + 2 * k, c + 2 * k + 1), kind)
                                   for k, kind in enumerate(ks)))
        for c, ks in ((0, kinds), (6, other or kinds))))
    return STBCInstance(linear=LinearDesign(m=2, entries=entries),
                        signals=SignalSet(units=units), plan=plan)


def _compile_shape_bundles():
    return dict(ALL_BUNDLES, **{
        "sibling Conds": _sibling_conds,
        "fgd_ren": lambda: fgd_ren_stbc(),
        "m=3 R=1": lambda: assemble_stbc(family(3, 1), [0.5] * 8, 4),
        "qod4 hard_last": lambda: group_stbc(catalog("qod4"), 2, HARD_LAST),
        "m=3 R=5/4": lambda: assemble_stbc(family(3, Fraction(5, 4)),
                                           [0.5] * 10, 4),
        "silver R=1": lambda: silver_stbc(4, 1),
        "silver R=3/2": lambda: silver_stbc(4, Fraction(3, 2))})


def _chunk_bundle(name):
    """A compile-shape bundle, or family m=2 R=2 or R=9/4 at 16-QAM (2^32
    and 2^36 codewords) at fixed angles."""
    R = {"family R=2 M=16": 2, "family R=9/4 M=16": Fraction(9, 4)}.get(name)
    if R is None:
        return _bundle(name)
    fd = family(2, R)
    return assemble_stbc(fd, [0.3] * (fd.K // 2), 16)


@pytest.mark.parametrize("name", sorted(_compile_shape_bundles()) + [
    "family R=2 M=16", "family R=9/4 M=16"])
def test_draw_bits_do_not_depend_on_the_chunk(name):
    # a key drawn alone, in a 6-key chunk and in a 300-key chunk gives
    # the same sent index, Y and H, bit for bit
    stbc = _chunk_bundle(name)
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=300, seed=9)
    sigmas = np.array([0.9, 0.1])
    snr_idx, trials = np.arange(300) % 2, np.arange(300) * 7919
    whole = sim._draw(stbc, cfg, sigmas[snr_idx], snr_idx, trials)
    for k0 in (0, 147, 294):
        keys = slice(k0, k0 + 6)
        six = sim._draw(stbc, cfg, sigmas[snr_idx[keys]], snr_idx[keys],
                        trials[keys])
        for got, want in zip(six, whole):
            assert _same_bits(got, want[keys])
        for k in range(k0, k0 + 6):
            one = sim._draw(stbc, cfg, sigmas[snr_idx[k]], snr_idx[k:k + 1],
                            trials[k:k + 1])
            for got, want in zip(one, whole):
                assert _same_bits(got, want[k:k + 1]), (name, k)


_nodes = sim._walk


@pytest.mark.parametrize("name", sorted(_compile_shape_bundles()))
def test_plans_compile_onto_three_kernels(name):
    # two kernel classes: a joint scan is a Cond without children, and
    # a QAM pair's outer axis is conditioning
    stbc = _compile_shape_bundles()[name]()
    assert type(stbc.compiled).__name__ == "_Cond"
    kinds = {type(n).__name__ for n in _nodes(stbc.compiled)}
    assert kinds <= {"_HardLimit", "_Cond"}
    # the mixed siblings hard-limit sqrt(M) values per pair
    assert stbc.compiled.count == (4 + 4 + 2 + 2 if name == MIXED else
                                   plan_complexity(stbc.plan).evaluate(4))


def _fusion_signature(node):
    """What sibling nodes share to fuse, read off a compiled node: a
    Cond's conditioning value count and its children's signatures with
    their leaves per leaf of the Cond; a hard-limit node's points."""
    if type(node).__name__ == "_HardLimit":
        return ("_HardLimit", tuple(node.points))
    L = getattr(node, "leaves", 1)
    return ("_Cond", node.cidx.shape[-2]) + tuple(
        (_fusion_signature(c), getattr(c, "leaves", 1) // L)
        for c in node.children)


@pytest.mark.parametrize("name", sorted(_compile_shape_bundles()))
def test_no_cond_has_two_children_that_would_fuse(name):
    # siblings of one signature are one node with a leaf axis; apart,
    # each would make its own small products per trial
    stbc = _compile_shape_bundles()[name]()
    for node in _nodes(stbc.compiled):
        sigs = [_fusion_signature(c) for c in getattr(node, "children", ())]
        assert len(set(sigs)) == len(sigs), sigs


@pytest.mark.parametrize("build", [
    lambda: group_stbc(catalog("qod4"), 2, HARD_LAST),
    lambda: assemble_stbc(family(3, 1), [0.5] * 8, 4)],
    ids=["qod4 hard_last", "m=3 R=1"])
def test_two_unit_hard_last_leaf_conditions_on_its_prefix(build):
    # the four two-unit leaves are one Cond of four leaves, each on its
    # first unit and its last unit's outer axis (none for a real), over
    # one hard-limit node of four leaves, each on its last unit
    stbc = build()
    leaves, K = stbc.plan.children, stbc.linear.K
    assert all(len(_units_of(stbc, leaf)) == 2 for leaf in leaves)
    (node,) = stbc.compiled.children
    (kernel,) = node.children
    assert (type(node).__name__, node.leaves) == ("_Cond", len(leaves))
    assert (type(kernel).__name__, kernel.leaves) == ("_HardLimit",
                                                      len(leaves))
    for leaf, V, rows in zip(leaves, node.Vc.reshape(len(leaves), -1, K),
                             kernel.rows.reshape(len(leaves), -1, K)):
        first, last = _units_of(stbc, leaf)
        assert _support(V.any(axis=0)) == (set(first.indices)
                                           | _outer_reals(last))
        assert _support(rows.any(axis=0)) == set(last.indices)
    # per leaf, a hypothesis per prefix value, times the last unit's
    # outer values
    first, last = _units_of(stbc, leaves[0])
    assert node.count == (len(leaves) * first.size * last.size
                          // len(last.axes()[-1][1]))
    assert stbc.compiled.count == plan_complexity(stbc.plan).evaluate(4)


def test_sibling_conds_fold_each_leaf_into_its_own_children():
    # two Conds whose children match in order are one Cond of two leaves
    # over one node per child position, its leaves running over the
    # Cond's leaves first; each leaf's hypotheses fold into its own
    # children only, so the decoders agree.  Children in another order
    # make another signature, and the Conds stay apart
    two_hard = _sibling_conds((HARD_LAST, HARD_LAST))
    mixed = _sibling_conds()
    apart = _sibling_conds(other=(JOINT, HARD_LAST))
    (outer,) = two_hard.compiled.children[0].children
    assert _leaf_groups(two_hard.compiled.children[0]) == [("_Cond", 4)]
    assert _leaf_groups(outer) == [("_HardLimit", 4)]
    (outer, joint) = mixed.compiled.children[0].children
    assert _leaf_groups(mixed.compiled.children[0]) == [("_Cond", 2)] * 2
    assert (_leaf_groups(outer), joint.children) == ([("_HardLimit", 2)], ())
    assert _leaf_groups(apart.compiled) == [("_Cond", 1)] * 2
    for stbc, count in ((two_hard, 32), (mixed, 48), (apart, 48)):
        assert _agree(stbc, 40, seed=19, snr_db=0.0) == count
        assert _agree(stbc, 40, seed=20, snr_db=20.0) == count
        assert count == plan_complexity(stbc.plan).evaluate(4)


@pytest.mark.parametrize("name", sorted(_compile_shape_bundles()))
def test_cond_folds_each_leaf_into_its_own_child_rows(name, monkeypatch):
    # the projections a Cond hands its children are, leaf by leaf, its
    # own projections of that leaf's child rows minus rows_l.G.v for each
    # value v of the leaf's conditioning table: hypothesis c * H + h for
    # value c under parent hypothesis h
    stbc = _compile_shape_bundles()[name]()
    K = stbc.linear.K
    cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=6, seed=23,
                    decoder="structured")
    _sent, Y, H = sim._draw(stbc, cfg, 0.3, 0, range(6))
    b, G = sim._metric_terms(stbc, Y, H)
    seen = {}
    for node in _nodes(stbc.compiled):
        def spy(P, QG, forms, node=node, decode=node.decode):
            seen[id(node)] = P.copy()
            return decode(P, QG, forms)
        monkeypatch.setattr(node, "decode", spy)
    sim._structured(stbc, b, G)
    folds = [n for n in _nodes(stbc.compiled) if type(n).__name__ == "_Cond"
             and n.Vc is not None and n.children]
    assert bool(folds) == (name not in ("alamouti", "qod4", "silver R=1"))
    for node in folds:
        L, n_c = node.cidx.shape[:2]
        T, _r, n_h = seen[id(node)].shape
        P = seen[id(node)].reshape(T, L, -1, n_h)[:, :, n_c:]
        got = np.concatenate([seen[id(c)].reshape(T, L, -1, n_c, n_h)
                              for c in node.children], 2)
        rows = node.rows.reshape(L, -1, K)[:, n_c:]
        for leaf, (r, V) in enumerate(zip(rows, node.Vc.reshape(L, n_c, K))):
            want = P[:, leaf, :, None] - (r @ G @ V.T)[..., None]
            assert np.abs(got[:, leaf] - want).max() <= 1e-12


def test_hard_all_axes_fuse_and_are_charged_once():
    # silver's hard_all leaf is four one-axis kernel leaves in one node,
    # charged one evaluation per hypothesis
    for R, hyps in ((1, 1), (Fraction(3, 2), 4), (2, 16)):
        stbc = silver_stbc(4, R)
        (node,) = [n for n in _nodes(stbc.compiled)
                   if type(n).__name__ == "_HardLimit"]
        assert (node.leaves, node.count) == (4, 1)
        assert stbc.compiled.count == hyps


@pytest.mark.parametrize("name", sorted(_compile_shape_bundles()))
def test_hard_limit_nodes_read_one_row_per_leaf(name):
    # a hard-limit node limits one axis per leaf: it reads one row per
    # leaf, on one unit, and has no outer values to enumerate or pick
    stbc = _compile_shape_bundles()[name]()
    units = [set(u.indices) for u in stbc.signals.units]
    for node in _nodes(stbc.compiled):
        if type(node).__name__ != "_Cond":
            assert node.rows.shape == (node.leaves, stbc.linear.K)
            assert all(any(_support(r) <= u for u in units)
                       for r in node.rows)


def test_hard_last_pair_conditions_on_its_outer_axis():
    # a hard_last leaf on one QAM pair is a Cond on the pair's outer axis,
    # sqrt(M) values a e, value a setting digit a x sqrt(M) x the pair's
    # weight, over the hard-limit leaf of its inner axis d: one row 2d,
    # digit the pair's weight, one evaluation per outer value
    stbc = _mixed_siblings()
    K, weights = stbc.linear.K, stbc.signals.weights
    nodes = stbc.compiled.children
    assert [(type(n).__name__, n.leaves, n.count) for n in nodes] == [
        ("_Cond", 2, 2 * 4), ("_Cond", 2, 2 * 2)]
    for node in nodes:
        (kernel,) = node.children
        assert (type(kernel).__name__, kernel.leaves) == ("_HardLimit", 2)
        for V, idx, row, digit in zip(node.Vc.reshape(2, -1, K),
                                      node.cidx[..., 0], kernel.rows,
                                      kernel.digit[:, 0]):
            (u,) = [u for u in stbc.signals.units
                    if _support(row) <= set(u.indices)]
            (e, pam, f), (d, _pam, one) = u.axes()
            assert f == len(pam) == qam_side(u.M) and one == 1
            want = np.zeros((f, K))
            want[:, list(u.indices)] = np.multiply.outer(pam, e)
            assert V.tobytes() == want.tobytes()
            assert idx.tolist() == [a * f * weights[u] for a in range(f)]
            assert row[list(u.indices)].tolist() == [2.0 * c for c in d]
            assert digit == weights[u]


@pytest.mark.parametrize("name", sorted(ALL_BUNDLES) + ["m=3 R=1",
                                                        "qod4 hard_last"])
def test_structured_metric_bits_do_not_depend_on_the_batch(name):
    stbc = _bundle(name)
    T = 24
    for seed, snr_db in ((1, 0.0), (2, 12.0)):
        cfg = SimConfig(n_rx=2, snr_db=(snr_db,), trials=T, seed=seed)
        sigma = np.sqrt(stbc.average_energy
                        / (stbc.N * 10 ** (snr_db / 10.0)))
        _sent, Y, H = sim._draw(stbc, cfg, sigma, 0, range(T))
        b, G = sim._metric_terms(stbc, Y, H)
        idx, m = sim._structured(stbc, b, G)
        for t in range(T):
            one_i, one_m = sim._structured(stbc, b[t:t + 1].copy(),
                                           G[t:t + 1].copy())
            assert one_i[0] == idx[t]
            assert _same_bits(one_m, m[t:t + 1]), (seed, t)


def test_metric_terms_are_contiguous():
    # b and G are C-contiguous, so the Gram terms of one row against G,
    # as of a Gram table of one row, have the same bits in a batch as
    # for one trial alone
    stbc = _bundle("family R=5/4")
    T, K = 24, stbc.linear.K
    cfg = SimConfig(n_rx=2, snr_db=(6.0,), trials=T, seed=4)
    _sent, Y, H = sim._draw(stbc, cfg, 0.5, 0, range(T))
    b, G = sim._metric_terms(stbc, Y, H)
    assert b.flags.c_contiguous and G.flags.c_contiguous
    for x in np.random.default_rng(6).standard_normal((100, 1, K)):
        batch = sim._gram_terms(x, G)
        for t in range(T):
            one = sim._gram_terms(x, G[t:t + 1].copy())
            for got, want in zip(one, batch):
                assert _same_bits(got, want[t:t + 1])


@pytest.mark.parametrize("name", sorted(_compile_shape_bundles()))
def test_gram_is_exactly_zero_on_hr_orthogonal_pairs(name):
    # G_ij vanishes in exact arithmetic on an HR-orthogonal pair, and the
    # oracle's metric adds it where the structured decoder never reads it
    stbc = _bundle(name)
    hr = hr_orthogonal_table(stbc.matrices)
    assert hr.any()
    cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=50, seed=1)
    _sent, Y, H = sim._draw(stbc, cfg, 0.3, 0, range(50))
    G = sim._metric_terms(stbc, Y, H)[1]
    assert np.all(G[:, hr] == 0)
    assert np.all(G[:, ~hr] != 0)


@pytest.mark.parametrize("name", sorted(_compile_shape_bundles()))
def test_metric_terms_give_the_distance_on_complex_channels(name):
    # -2 x.b + x.G.x = ||Y - XH||^2 - ||Y||^2 for any codeword x, and each
    # trial's terms have the same bits alone as in the batch
    stbc = _bundle(name)
    rng = np.random.default_rng(17)
    T, N, K = 12, stbc.N, stbc.linear.K
    for n_rx in (1, 3):
        H, Y = (rng.standard_normal((2, T, N, n_rx))
                + 1j * rng.standard_normal((2, T, N, n_rx)))
        b, G = sim._metric_terms(stbc, Y, H)
        assert b.shape == (T, K) and G.shape == (T, K, K)
        for t in range(T):
            one_b, one_G = sim._metric_terms(stbc, Y[t:t + 1], H[t:t + 1])
            assert _same_bits(one_b, b[t:t + 1])
            assert _same_bits(one_G, G[t:t + 1])
        x = np.zeros((T, K))
        for u in stbc.signals.units:
            values = u.values()
            x[:, list(u.indices)] = values[rng.integers(len(values), size=T)]
        XH = np.tensordot(x, stbc.matrices, axes=(1, 0)) @ H
        y2, d2 = (np.sum(abs(Z) ** 2, axis=(1, 2)) for Z in (Y, Y - XH))
        f = -2.0 * np.sum(x * b, 1) + np.einsum("ti,tij,tj->t", x, G, x)
        scale = y2 + np.sum(abs(XH) ** 2, axis=(1, 2))
        assert np.all(abs(f - (d2 - y2)) <= 1e-9 * scale)


@pytest.mark.parametrize("name", sorted(_compile_shape_bundles()))
def test_metric_terms_stay_within_the_chunk_budget(name):
    # a full oracle-mode chunk is sized by b, G and the real view of A_i H
    # alone, so forming its metric terms holds no more than _CHUNK_BYTES
    # (and a little for numpy's own bookkeeping)
    stbc = _bundle(name)
    stbc.matrices  # the instance's cached tables, built once
    for n_rx in (1, 2, 3):
        cfg = SimConfig(n_rx=n_rx, snr_db=(10.0,), trials=10 ** 6, seed=3,
                        decoder="oracle")
        chunk = sim._chunk(stbc, cfg)
        _sent, Y, H = sim._draw(stbc, cfg, 0.3, 0, range(chunk))
        tracemalloc.start()
        try:
            sim._metric_terms(stbc, Y, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sim._CHUNK_BYTES + (64 << 10), n_rx


R2_SPLIT = "family R=2, split blocks"


@pytest.mark.parametrize("name", sorted(ALL_BUNDLES) + ["one unit", R2_SPLIT])
def test_oracle_metric_bits_do_not_depend_on_the_batch(name, monkeypatch):
    # at the budget, family R=2's 40 trials make trial blocks of 14 and
    # grid sub-blocks of one trial, and the tail of one 22,500-QAM pair
    # spans two blocks of columns; R2_SPLIT runs family R=2 under a budget
    # whose column blocks split its tail in three, then under one whose
    # trial blocks of 16 hold grid sub-blocks of 2 trials
    budgets = [sim._CHUNK_BYTES]
    if name == "one unit":
        stbc = _one_unit(150 ** 2)
    elif name == R2_SPLIT:
        stbc = _bundle("family R=2")
        budgets = [8 * 18 * 100, 8 * 2 * (256 * 256 + 512 * 18)]
    else:
        stbc = _bundle(name)
    T = 40
    for budget, (seed, snr_db) in itertools.product(
            budgets, ((1, 0.0), (2, 12.0))):
        monkeypatch.setattr(sim, "_CHUNK_BYTES", budget)
        cfg = SimConfig(n_rx=2, snr_db=(snr_db,), trials=T, seed=seed)
        sigma = np.sqrt(stbc.average_energy
                        / (stbc.N * 10 ** (snr_db / 10.0)))
        _sent, Y, H = sim._draw(stbc, cfg, sigma, 0, range(T))
        b, G = sim._metric_terms(stbc, Y, H)
        idx, m = sim._oracle(stbc, b, G)
        for t in range(T):
            one_i, one_m = sim._oracle(stbc, b[t:t + 1].copy(),
                                       G[t:t + 1].copy())
            assert one_i[0] == idx[t]
            assert _same_bits(one_m, m[t:t + 1]), (seed, t)


def _one_unit(M=16):
    """Alamouti's first two reals on one rotated M-QAM pair: a signal set
    of a single unit, so the oracle's grid has no head."""
    lin = catalog("alamouti").linear
    return STBCInstance(linear=LinearDesign(m=1, entries=lin.entries[:2]),
                        signals=SignalSet(units=(PairQAM((0, 1), M, 0.3),)))


@pytest.mark.parametrize("build, shape", [
    (_one_unit, (1, 16)),
    (BATCH_BUNDLES["family R=5/4"], (16, 64)),
    (_mixed_siblings, (16, 256))], ids=["one unit", "family R=5/4", MIXED])
def test_oracle_grid_split_matches_the_symbol_table(build, shape, monkeypatch):
    # the head x tail grid splits at the unit boundary closest to an even
    # split (the smaller head on a tie); the oracle scores it without the
    # symbol table and picks what the table scan picks
    stbc = build()
    T, ((cA, XA), (cB, XB)) = 24, stbc.grid
    assert (len(XA), len(XB)) == shape
    assert sorted(cA.tolist() + cB.tolist()) == list(range(stbc.linear.K))
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 20.0), trials=T, seed=12)
    ref = build()
    for snr_idx, sigma in enumerate((1.0, 0.1)):
        _sent, Y, H = sim._draw(ref, cfg, sigma, snr_idx, range(T))
        b, G = sim._metric_terms(ref, Y, H)
        with monkeypatch.context() as mp:
            mp.setattr(SignalSet, "symbol_table", None)
            got, m = sim._oracle(stbc, b, G)
        assert "symbol_table" not in vars(stbc)
        assert got.tolist() == _table_argmin(ref, b, G).tolist()
        V = ref.symbol_table[got]
        want_m = np.einsum("ti,tij,tj->t", V, G, V) - 2.0 * np.sum(V * b, 1)
        assert np.allclose(m, want_m, rtol=1e-12, atol=1e-12)


def _integer_terms(stbc, Y, H):
    """b and G of Gaussian-integer Y, H (n, N, n_rx) in int64, for weight
    matrices with entries in {0, +-1, +-i}."""
    A = stbc.matrices
    Ar, Ai = np.rint(A.real).astype(np.int64), np.rint(A.imag).astype(np.int64)
    assert np.array_equal(Ar + 1j * Ai, A)
    Yr, Yi = Y.real.astype(np.int64), Y.imag.astype(np.int64)
    Hr, Hi = H.real.astype(np.int64), H.imag.astype(np.int64)
    AHr = (np.einsum("iab,nbc->niac", Ar, Hr)
           - np.einsum("iab,nbc->niac", Ai, Hi))
    AHi = (np.einsum("iab,nbc->niac", Ar, Hi)
           + np.einsum("iab,nbc->niac", Ai, Hr))
    b = (np.einsum("nac,niac->ni", Yr, AHr)
         + np.einsum("nac,niac->ni", Yi, AHi))
    G = (np.einsum("niac,njac->nij", AHr, AHr)
         + np.einsum("niac,njac->nij", AHi, AHi))
    return b, G


TIE_BUNDLES = {
    "alamouti": lambda: alamouti_stbc(4),
    "alamouti M=16": lambda: alamouti_stbc(16),
    "qod4": lambda: qod4_stbc(Q=2),
    "qod4 Q=4": lambda: qod4_stbc(Q=4),
    "qod4 hard_last": lambda: group_stbc(catalog("qod4"), 2, HARD_LAST),
    "family R=1": lambda: assemble_stbc(puncture(build_base(2), 1),
                                        [0.0] * 4, 4),
    "family R=5/4": lambda: assemble_stbc(build_base(2), [0.0] * 5, 4),
    "family R=2": lambda: assemble_stbc(family(2, 2), [0.0] * 8, 4),
}


@pytest.mark.parametrize("name", sorted(TIE_BUNDLES))
def test_decoders_keep_exact_ties_on_integer_channels(name):
    # weight matrices in {0, +-1, +-i}, points +-1/2 (and +-3/2) and
    # Gaussian-integer Y and H make b, G and every metric exact, so many
    # channels tie at the minimum; both decoders must return the lowest
    # tied index
    stbc = TIE_BUNDLES[name]()
    n, N = 300, stbc.N
    rng = np.random.default_rng(31)
    H = rng.integers(-1, 2, (n, N, 2)) + 1j * rng.integers(-1, 2, (n, N, 2))
    H[~H.any(axis=(1, 2))] = 1  # H != 0
    Y = rng.integers(-2, 3, (n, N, 2)) + 1j * rng.integers(-2, 3, (n, N, 2))
    b_int, G_int = _integer_terms(stbc, Y, H)
    b, G = sim._metric_terms(stbc, Y, H)
    assert np.array_equal(b, b_int) and np.array_equal(G, G_int)
    # 4 f(x) for z = 2x: every partial sum is an integer far below 2**53,
    # so float64 products are exact; the minimum is taken in int64
    Z = 2.0 * stbc.symbol_table
    assert np.array_equal(Z, np.rint(Z))
    want, ties = np.empty(n, dtype=np.int64), 0
    for k in range(n):
        m4 = (-4.0 * (Z @ b[k]) + ((Z @ G[k]) * Z).sum(axis=1))
        m4 = m4.astype(np.int64)
        want[k] = np.argmin(m4)
        ties += np.count_nonzero(m4 == m4[want[k]]) > 1
    assert ties >= n // 5
    got_o, _mo = sim._oracle(stbc, b, G)
    got_s = np.concatenate([sim._structured(stbc, b[k:k + 50], G[k:k + 50])[0]
                            for k in range(0, n, 50)])
    assert got_o.tolist() == want.tolist()
    assert got_s.tolist() == want.tolist()
    assert _table_argmin(stbc, b, G).tolist() == want.tolist()


@pytest.mark.parametrize("M, want", [(4, 0), (16, 85), (64, 1755)])
def test_hard_limit_keeps_a_rounded_tie_at_the_lower_point(M, want):
    # b_0 = 1e-17 against G = I moves the metric of either point around
    # real 0's vertex by less than half an ulp, so both round to one
    # double: the hard limit must keep the lower point, the lowest
    # index, as the oracle does, on axes of two points and more
    stbc = alamouti_stbc(M)
    b, G = np.array([[1e-17, 0.0, 0.0, 0.0]]), np.eye(4)[None]
    got_s, m_s = sim._structured(stbc, b, G)
    got_o, m_o = sim._oracle(stbc, b, G)
    assert (got_s.tolist(), m_s.tolist()) == ([want], [1.0])
    assert (got_o.tolist(), m_o.tolist()) == ([want], [1.0])


@pytest.mark.parametrize("M", [4, 16, 64])
def test_hard_limit_picks_the_smallest_metric_near_a_midpoint(M):
    # P within 3 ulp of 2 g mid puts the vertex P / (2g) on a midpoint,
    # where a rounded quotient may land on either side; each leaf must
    # keep a point whose metric (p g - P) p is the smallest on its axis,
    # ties going to the lower point (at M = 4 the midpoint is 0, and
    # every such P rounds away next to p g)
    stbc = alamouti_stbc(M)
    (node,) = stbc.compiled.children
    assert node.pam2 == (M == 4)
    pts, L = node.points, node.leaves
    rng = np.random.default_rng(M)
    T = 2000
    g = rng.uniform(0.05, 20.0, (T, L))
    mid = (pts[:-1] + pts[1:])[rng.integers(len(pts) - 1, size=(T, L))] / 2
    P, steps = 2.0 * g * mid, rng.integers(-3, 4, (T, L))
    for k in range(3):
        P = np.where(abs(steps) > k,
                     np.nextafter(P, np.where(steps > 0, np.inf, -np.inf)), P)
    G = np.zeros((T, L, L))
    G[:, np.arange(L), np.arange(L)] = g
    QG, forms = sim._gram_terms(stbc.compiled.Q, G)
    m, i = node.decode(P[..., None], QG, forms)
    g_dd = forms[:, node.q]
    assert np.array_equal(g_dd, g)
    every = (pts * g_dd[..., None] - P[..., None]) * pts  # (T, L, points)
    assert np.array_equal(m[..., 0], every.min(axis=-1))
    assert np.array_equal(i[..., 0] // node.digit.T, every.argmin(axis=-1))
    # a zero Gram leaves every metric 0: the lowest codeword, no warning
    got, m0 = sim._structured(stbc, np.zeros((1, 4)), np.zeros((1, 4, 4)))
    assert (got.tolist(), m0.tolist()) == ([0], [0.0])


def _both_forms(node, P, g, monkeypatch):
    """A two-point hard-limit node's (metrics, indexes) for projections P
    (T, L, H) and Gram forms g (T, L), in its five-pass form and in the
    two-metric form of wider axes."""
    QG, forms = np.zeros((len(g), 0, 0)), np.zeros((len(g), node.q.stop))
    forms[:, node.q] = g
    got = node.decode(P, QG, forms)
    monkeypatch.setattr(node, "pam2", False)
    want = node.decode(P, QG, forms)
    monkeypatch.undo()
    return got, want


def test_two_point_hard_limit_equals_the_two_metric_form(monkeypatch):
    # the five-pass form keeps the two-metric form's bits and indexes:
    # with p0 = -1/2, p0 (a - P) and p0 (a + P) are its two metrics, so
    # the upper point wins where a + P > a - P, and on a rounded tie,
    # |P| below half an ulp of a = p0 g, the lower point wins
    (node,) = alamouti_stbc(4).compiled.children
    assert node.pam2 and node.points.tolist() == [-0.5, 0.5]
    rng = np.random.default_rng(44)
    T, L, H = 400, node.leaves, 3
    g = rng.uniform(0.01, 30.0, (T, L))
    a = (-0.5 * g)[..., None]
    P = rng.standard_normal((T, L, H)) * rng.choice([1e-300, 1e-8, 1.0, 1e3],
                                                    (T, L, H))
    P[:40] = 0.0
    P[40:80] = rng.integers(-3, 4, (40, L, H)) * 5e-324  # a few ulp of 0
    half = np.spacing(a[80:200]) * rng.uniform(-0.49, 0.49, (120, L, H))
    P[80:200] = half
    assert np.array_equal(a[80:200] + half, a[80:200] - half)
    (m, i), (m2, i2) = _both_forms(node, P, g, monkeypatch)
    assert _same_bits(m, m2) and _same_bits(i, i2)
    assert not i[:200].any()  # every tie at the lower point
    assert i[200:].any() and not i[200:].all()


def test_two_point_hard_limit_on_integer_channels(monkeypatch):
    # Gaussian-integer channels give exact metrics, and vertices on a
    # point: the forms agree on every index and metric value; an exact
    # zero metric at the upper point is -0 in the five-pass form
    # (p0 times +0) and +0 in the two-metric form, which no comparison
    # or sum of nonzero terms tells apart
    stbc = alamouti_stbc(4)
    (node,) = stbc.compiled.children
    n, N = 300, stbc.N
    rng = np.random.default_rng(45)
    H = rng.integers(-1, 2, (n, N, 2)) + 1j * rng.integers(-1, 2, (n, N, 2))
    H[~H.any(axis=(1, 2))] = 1
    Y = rng.integers(-2, 3, (n, N, 2)) + 1j * rng.integers(-2, 3, (n, N, 2))
    b, G = sim._metric_terms(stbc, Y, H)
    _QG, forms = sim._gram_terms(stbc.compiled.Q, G)
    P = (node.rows @ b[..., None])
    (m, i), (m2, i2) = _both_forms(node, P, forms[:, node.q], monkeypatch)
    assert _same_bits(i, i2) and np.array_equal(m, m2)
    upper_zero = (m == 0) & (i > 0)
    assert upper_zero.any() and ((m == 0) & (i == 0)).any()
    assert np.array_equal(np.signbit(m) != np.signbit(m2), upper_zero)
    assert _same_bits(m[~upper_zero], m2[~upper_zero])


def test_gram_table_stacks_every_nodes_gram_rows():
    # the root's Q holds each node's Gram-facing rows once, in walk
    # order: each fold's values and each hard-limit leaf's direction
    for name, build in sorted(_compile_shape_bundles().items()):
        root = build().compiled
        owners = [n for n in sim._walk(root) if n.grams is not None]
        assert [n.q.start for n in owners] == [0] + [n.q.stop
                                                    for n in owners[:-1]]
        assert owners[-1].q.stop == len(root.Q), name
        for node in owners:
            assert _same_bits(root.Q[node.q], node.grams)
            if type(node).__name__ == "_HardLimit":  # rows 2d, Gram rows d
                assert _same_bits(node.rows, 2.0 * node.grams)
            else:
                assert node.grams is node.Vc


@pytest.mark.parametrize("name", ["family R=5/4", "family R=2"])
def test_gram_pass_bits_do_not_depend_on_the_chunk(name):
    # one full structured chunk against each of its trials alone: the
    # shared Gram terms and every decoded index and metric, bit for bit
    stbc = _bundle(name)
    root = stbc.compiled
    cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=10 ** 6, seed=8,
                    decoder="structured")
    T = sim._chunk(stbc, cfg)
    assert T > 1
    _sent, Y, H = sim._draw(stbc, cfg, 0.4, 0, range(T))
    b, G = sim._metric_terms(stbc, Y, H)
    QG, forms = sim._gram_terms(root.Q, G)
    idx, m = sim._structured(stbc, b, G)
    for t in range(T):
        one_QG, one_forms = sim._gram_terms(root.Q, G[t:t + 1].copy())
        assert _same_bits(one_QG, QG[t:t + 1])
        assert _same_bits(one_forms, forms[t:t + 1])
        one_i, one_m = sim._structured(stbc, b[t:t + 1].copy(),
                                       G[t:t + 1].copy())
        assert one_i[0] == idx[t] and _same_bits(one_m, m[t:t + 1]), t


@pytest.mark.parametrize("name", sorted(BATCH_BUNDLES) + ["family R=2"])
def test_decode_working_set_stays_within_the_chunk_budget(name):
    stbc = _bundle(name)
    cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=10 ** 6, seed=3,
                    decoder="structured")
    chunk = sim._chunk(stbc, cfg)
    _sent, Y, H = sim._draw(stbc, cfg, 0.3, 0, range(chunk))
    tracemalloc.start()
    try:
        b, G = sim._metric_terms(stbc, Y, H)
        sim._structured(stbc, b, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sim._CHUNK_BYTES


HARD_LIMIT_M16 = {
    "silver R=2 M=16": lambda: silver_stbc(16),
    "silver R=3/2 M=16": lambda: silver_stbc(16, Fraction(3, 2))}


@pytest.mark.parametrize("name", sorted(_compile_shape_bundles())
                         + sorted(HARD_LIMIT_M16))
def test_node_widths_bound_the_structured_working_set(name):
    # each node's width bounds the float64 words one trial of its subtree
    # holds, so one _structured call on a full chunk of T trials holds at
    # most T times the root's projections and width; silver at 16-QAM
    # spends most of it hard-limiting four-point axes
    stbc = dict(_compile_shape_bundles(), **HARD_LIMIT_M16)[name]()
    cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=10 ** 6, seed=3,
                    decoder="structured")
    T = sim._chunk(stbc, cfg)
    _sent, Y, H = sim._draw(stbc, cfg, 0.3, 0, range(T))
    b, G = sim._metric_terms(stbc, Y, H)
    tracemalloc.start()
    try:
        sim._structured(stbc, b, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * T * sim._decode_words(stbc.compiled)


@pytest.mark.parametrize("name", ["alamouti", "silver", "family R=2"])
def test_oracle_working_set_stays_within_twice_the_chunk_budget(name):
    # a decode batch is sized by its metric terms; the oracle's grid
    # blocks are sized to the same budget on top of them
    stbc = _bundle(name)
    cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=10 ** 6, seed=3,
                    decoder="oracle")
    chunk = sim._chunk(stbc, cfg)
    _sent, Y, H = sim._draw(stbc, cfg, 0.3, 0, range(chunk))
    stbc.grid  # the instance's cached tables, built once
    tracemalloc.start()
    try:
        b, G = sim._metric_terms(stbc, Y, H)
        sim._oracle(stbc, b, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sim._CHUNK_BYTES


def test_oracle_bounds_the_tail_tables_of_one_large_unit():
    # one 22,500-QAM pair makes a 1 x 22,500 grid, past one block of
    # tail columns: only those blocks keep its tail tables within the
    # budget
    stbc = _one_unit(150 ** 2)
    (_cA, XA), (_cB, XB) = stbc.grid
    assert (len(XA), len(XB)) == (1, 22500)
    assert len(XB) > sim._CHUNK_BYTES // (8 * (2 * XB.shape[1] + 2))
    cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=10 ** 6, seed=3,
                    decoder="oracle")
    chunk = sim._chunk(stbc, cfg)
    _sent, Y, H = sim._draw(stbc, cfg, 0.3, 0, range(chunk))
    tracemalloc.start()
    try:
        b, G = sim._metric_terms(stbc, Y, H)
        got, _m = sim._oracle(stbc, b, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sim._CHUNK_BYTES
    assert got[:8].tolist() == _table_argmin(stbc, b[:8], G[:8]).tolist()


def test_family_r2_decodes_both_snrs_in_one_batch(monkeypatch):
    # the decode stream crosses the SNR boundary, and the narrower
    # projected kernels fit 8 family R=2 trials in one batch
    stbc = _bundle("family R=2")
    real_terms, real_decode = sim._metric_terms, sim._structured
    sizes, peaks = [], []

    def terms(*args):
        tracemalloc.start()
        return real_terms(*args)

    def structured(stbc, b, G):
        try:
            out = real_decode(stbc, b, G)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(len(b))
        return out

    monkeypatch.setattr(sim, "_metric_terms", terms)
    monkeypatch.setattr(sim, "_structured", structured)
    simulate(SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=4, seed=5,
                       decoder="structured"), stbc)
    assert sizes == [8]
    assert peaks[0] <= sim._CHUNK_BYTES


def test_oracle_decodes_several_trials_per_call(monkeypatch):
    # the oracle's working set is its own grid blocks, so a batch of
    # the 65,536-codeword family R=2 holds more than one trial
    stbc = _family_r2()
    real, sizes = sim._oracle, []

    def oracle(stbc, b, G):
        sizes.append(b.shape[0])
        return real(stbc, b, G)

    monkeypatch.setattr(sim, "_oracle", oracle)
    for decoder in ("oracle", "both"):
        cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=4, seed=1,
                        decoder=decoder)
        simulate(cfg, stbc)
    assert sizes == [4, 4]


def test_oracle_builds_its_half_tables_once_per_trial_block(monkeypatch):
    # 8 family R=2 trials on the 256 x 256 grid are one trial block: its
    # head rows and its one block of tail columns are each formed once,
    # for all 8 trials, and only the grid is formed trial by trial
    stbc = _bundle("family R=2")
    real, calls = sim._half_metric, []

    def half_metric(X, cols, b, G):
        calls.append((len(X), len(b)))
        return real(X, cols, b, G)

    cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=8, seed=1)
    _sent, Y, H = sim._draw(stbc, cfg, 0.3, 0, range(8))
    b, G = sim._metric_terms(stbc, Y, H)
    monkeypatch.setattr(sim, "_half_metric", half_metric)
    sim._oracle(stbc, b, G)
    assert calls == [(256, 8), (256, 8)]


def test_hard_all_limits_units_of_every_kind():
    # alamouti's four reals are pairwise HR-orthogonal, so one hard_all
    # leaf decodes them whatever units carry them; axes with point sets
    # of different sizes are limited in separate hard-limit nodes
    lin = catalog("alamouti").linear
    signals = SignalSet(units=(RealPoints(0, pam_points(2)),
                               RealPoints(1, pam_points(4)),
                               PairQAM((2, 3), 16, 0.3)))
    stbc = STBCInstance(linear=lin, signals=signals,
                        plan=Leaf((0, 1, 2, 3), HARD_ALL))
    assert stbc.compiled.count == 1
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 20.0), trials=40, seed=6)
    for snr_idx, sigma in enumerate((1.0, 0.1)):
        _sent, Y, H = sim._draw(stbc, cfg, sigma, snr_idx, range(40))
        b, G = sim._metric_terms(stbc, Y, H)
        got_s, m_s = sim._structured(stbc, b, G)
        got_o, m_o = sim._oracle(stbc, b, G)
        assert got_s.tolist() == got_o.tolist()
        assert np.allclose(m_s, m_o, rtol=1e-12, atol=1e-12)


def _alamouti_a3_doubled(theta):
    """Alamouti's design with A_3 doubled, reals 0 and 1 on 2-PAM and the
    pair (2, 3) on 4-QAM at theta, all under one hard_all leaf.  Every
    two reals stay HR-orthogonal, but A_2^H A_2 != A_3^H A_3, so the
    pair's rotated axes couple unless theta = 0."""
    lin = catalog("alamouti").linear
    entries = list(lin.entries)
    entries[3] = replace(entries[3], matrix=2 * entries[3].matrix)
    signals = SignalSet(units=(RealPoints(0, pam_points(2)),
                               RealPoints(1, pam_points(2)),
                               PairQAM((2, 3), 4, theta)))
    return STBCInstance(linear=LinearDesign(m=lin.m, entries=tuple(entries)),
                        signals=signals, plan=Leaf((0, 1, 2, 3), HARD_ALL))


def test_hard_all_is_proved_separable_when_the_plan_compiles():
    # the axes' weight matrices must be pairwise HR-orthogonal, which is
    # checked when the instance is built, never during a decode
    with pytest.raises(PlanError, match="HR-orthogonal axes"):
        _alamouti_a3_doubled(0.3)
    stbc = _alamouti_a3_doubled(0.0)
    assert stbc.compiled.count == 1
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0, 20.0), trials=60, seed=4,
                    decoder="both")
    res = simulate(cfg, stbc)  # raises on any decoder disagreement
    assert [line.split("\t")[-1]
            for line in res.to_text().splitlines()[-3:]] == ["60"] * 3


# ---------------------------------------------------------------------------
# simulation without the codebook table

# the perfbench bundles, family R=2, mixed siblings and larger QAM
TABLE_BUNDLES = dict(ALL_BUNDLES, **{
    "alamouti M=16": lambda: alamouti_stbc(16),
    "alamouti M=64": lambda: alamouti_stbc(64),
    "silver M=16": lambda: silver_stbc(16)})


def _refuse_the_table(self):
    raise AssertionError("the codebook's symbol table was built")


@pytest.mark.parametrize("name", sorted(TABLE_BUNDLES))
def test_symbols_are_the_symbol_table_rows(name):
    # each real gathered from its own unit at the unit's digit of the
    # index is the table's entry bit for bit, in any index order
    sig = TABLE_BUNDLES[name]().signals
    idx = np.random.default_rng(3).permutation(sig.count)
    assert _same_bits(sig.symbols(idx), sig.symbol_table()[idx])


def test_symbols_keep_the_tables_signed_zeros():
    # the table adds the other units' zeros, which turns -0.0 into +0.0;
    # a single unit's table adds nothing and keeps it
    one = SignalSet(units=(RealPoints(0, (-1.0, -0.0, 1.0)),))
    two = SignalSet(units=(RealPoints(0, (-1.0, -0.0, 1.0)),
                           RealPoints(1, (-0.0, 2.0))))
    for sig, signed in ((one, True), (two, False)):
        idx = np.arange(sig.count)[::-1]
        got = sig.symbols(idx)
        assert _same_bits(got, sig.symbol_table()[idx])
        assert np.signbit(got[got == 0]).all() == signed


def test_symbols_sum_levels_of_at_most_the_row_cap():
    # runs of units from the last, each within _LEVEL_ROWS values, and a
    # larger unit alone; a one-unit level's -0.0 meets the other levels'
    # +0.0 and becomes the table's +0.0
    cap = _LEVEL_ROWS
    zero = (-1.0, -0.0) + tuple(float(k) for k in range(1, 39))
    big = tuple(float(k) for k in range(cap + 1))
    cases = [(_family_r2().signals, [cap, 64]),
             (alamouti_stbc(64).signals, [512, 8]),
             (SignalSet(units=(RealPoints(0, zero), RealPoints(1, zero))),
              [40, 40]),
             (SignalSet(units=(RealPoints(0, (-0.0, 1.0)), RealPoints(1, big),
                               RealPoints(2, zero))), [40, cap + 1, 2])]
    for sig, sizes in cases:
        assert [size for size, _rows in sig._levels] == sizes
        idx = np.random.default_rng(5).permutation(sig.count)[:3000]
        got = sig.symbols(idx)
        assert _same_bits(got, sig.symbol_table()[idx])
        assert not np.signbit(got[got == 0]).any()


def _ulps(a, b):
    return abs(int(np.float64(a).view(np.int64))
               - int(np.float64(b).view(np.int64)))


def _real_gram(stbc):
    A = stbc.matrices.view(np.float64).reshape(stbc.linear.K, -1)
    return A @ A.T


@pytest.mark.parametrize("M", [4, 16])
@pytest.mark.parametrize("m, R", [(2, 1), (2, Fraction(5, 4)), (2, 2),
                                  (3, 1)])
def test_pauli_family_energy_is_n_times_the_real_moments(m, R, M):
    # Gamma = N I on phased Paulis, so E||X||^2 = N sum_i E[x_i^2] with
    # no cross term, and exact sums leave no rounding to differ in; at
    # M = 16 and R = 2 the codebook has 2^32 codewords and no table
    fd = family(m, R)
    stbc = assemble_stbc(fd, [0.3 + 0.1 * k for k in range(fd.K // 2)], M)
    K = stbc.linear.K
    assert np.array_equal(_real_gram(stbc), stbc.N * np.eye(K))
    second = [math.fsum(c * c) / u.size
              for u in stbc.signals.units for c in u.values().T]
    assert len(second) == K
    assert stbc.average_energy == stbc.N * math.fsum(second)


def _coupled():
    """Five random complex weight matrices (a full Gamma) over units of
    nonzero mean, so every cross term E[x_i] E[x_j] counts."""
    rng = np.random.default_rng(43)
    A = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    points = np.sort(rng.standard_normal((2, 6)) + 1.0).tolist()
    signals = SignalSet(units=(RealPoints(0, (0.5, 1.0, 3.0)),
                               PairQAM((1, 3), 16, 0.2),
                               RealPoints(2, tuple(points[0])),
                               RealPoints(4, tuple(points[1]))))
    entries = tuple(LDEntry(A[k]) for k in range(5))
    return STBCInstance(linear=LinearDesign(m=1, entries=entries),
                        signals=signals)


@pytest.mark.parametrize("name", sorted(TABLE_BUNDLES) + ["coupled",
                                                          "one unit"])
def test_average_energy_is_the_table_mean_within_4_ulp(name):
    build = {"coupled": _coupled, "one unit": _one_unit}.get(name)
    stbc = (build or TABLE_BUNDLES[name])()
    V = stbc.symbol_table
    want = float(np.mean(np.einsum("ni,ij,nj->n", V, _real_gram(stbc), V)))
    assert _ulps(stbc.average_energy, want) <= 4


def test_simulate_reads_no_codebook_table(monkeypatch):
    # the draw and the energy read the signal set's units: family R=2 at
    # 16-QAM (2^32 codewords, a 32 GiB table) simulates, and no run of
    # the sim-small bundles builds or caches a table
    monkeypatch.setattr(SignalSet, "symbol_table", _refuse_the_table)
    big = assemble_stbc(family(2, 2), [0.5] * 8, 16)
    cfg = SimConfig(n_rx=2, snr_db=(10.0,), trials=4, seed=1,
                    decoder="structured")
    res = simulate(cfg, big)
    assert (res.codebook, "%.12g" % res.energy, res.structured_evals) == \
        (2 ** 32, "80", 802816)
    assert "symbol_table" not in vars(big)
    for name, build in sorted(BATCH_BUNDLES.items()):
        stbc = build()
        simulate(replace(cfg, snr_db=(0.0, 10.0), decoder="both"), stbc)
        assert "symbol_table" not in vars(stbc), name
