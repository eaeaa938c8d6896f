"""Signal sets, exact ML decoders, and the seeded Monte Carlo driver."""

import importlib
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stbc_forge.design import (Leaf, Cond, JOINT, HARD_LAST, HARD_ALL,
                               plan_complexity)
from stbc_forge.signalset import (pam_points, qam_side, PairQAM, RealPoints,
                                  BlockValues, SignalSet, qam_signal_set,
                                  pam_signal_set)
from stbc_forge.simulate import (STBCInstance, SimConfig,
                                 channel_step, ml_oracle, ml_structured,
                                 hard_limit_pam, simulate, PlanError)
from stbc_forge.constructions import catalog
from stbc_forge.bundles import (alamouti_stbc, qod4_stbc, group_stbc,
                                fgd_ren_stbc, silver_stbc, assemble_stbc)
from stbc_forge.fdfgd import build_base, puncture

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


def test_real_points_validation():
    with pytest.raises(ValueError):
        RealPoints(0, ())
    with pytest.raises(ValueError):
        RealPoints(0, (1.0, 1.0))


def test_block_values_validation():
    with pytest.raises(ValueError):
        BlockValues((0, 1), ())
    with pytest.raises(ValueError):
        BlockValues((0, 1), ((1.0,),))


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


def test_qam_signal_set_pairs_noncontiguous():
    sig = qam_signal_set(((0, 2), (1, 3)), 4)
    T = sig.symbol_table()
    assert T.shape == (16, 4)
    assert sig.K == 4


# ---------------------------------------------------------------------------
# hard limiting

def test_hard_limit_pam():
    pts = (-1.5, -0.5, 0.5, 1.5)
    assert hard_limit_pam(-9.0, pts) == 0
    assert hard_limit_pam(9.0, pts) == 3
    assert hard_limit_pam(0.3, pts) == 2
    # exact midpoint goes to the lower point
    assert hard_limit_pam(0.0, pts) == 1
    assert hard_limit_pam(-1.0, pts) == 0
    assert list(hard_limit_pam([-1.0, 1.0], pts)) == [0, 2]
    assert list(hard_limit_pam([-2.0, 1.4], pts)) == [0, 3]
    with pytest.raises(ValueError):
        hard_limit_pam(0.0, ())


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


def test_hard_last_rejects_block_unit():
    stbc = silver_stbc(4, 2)
    bad = Cond((0, 1, 2, 3), (Leaf((4, 5, 6, 7), HARD_LAST),))
    with pytest.raises(PlanError):
        STBCInstance(linear=stbc.linear, signals=stbc.signals, plan=bad)


def test_average_energy_alamouti():
    stbc = alamouti_stbc(4)
    # E||X||^2 = sum_i E[x_i^2] * ||A_i||^2 = 4 * (5/4)/2... direct:
    want = np.mean([np.linalg.norm(stbc.codeword(i)) ** 2
                    for i in range(stbc.count)])
    assert abs(stbc.average_energy - want) < 1e-12


# ---------------------------------------------------------------------------
# decoders

def _agree(stbc, trials, seed, snr_db=10.0, n_rx=2):
    rng_master = np.random.default_rng(seed)
    sigma = np.sqrt(stbc.average_energy / (stbc.N * 10 ** (snr_db / 10.0)))
    counts = set()
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        sent = int(rng.integers(stbc.count))
        Y, H = channel_step(stbc.codeword(sent), rng, n_rx, sigma)
        io, _eo = ml_oracle(Y, H, stbc)
        is_, es = ml_structured(Y, H, stbc)
        assert io == is_
        counts.add(es)
    assert len(counts) == 1  # deterministic instrumentation
    return counts.pop()


def test_alamouti_decoder_agreement_and_count():
    stbc = alamouti_stbc(4)
    count = _agree(stbc, 60, seed=11)
    assert count == plan_complexity(stbc.plan).evaluate(4) == 4


def test_qod4_decoder_agreement_and_count():
    stbc = qod4_stbc(Q=2)
    count = _agree(stbc, 60, seed=12)
    assert count == plan_complexity(stbc.plan).evaluate(4) == 16


def test_qod4_hard_last_variant():
    stbc = qod4_stbc(Q=2, kind=HARD_LAST)
    count = _agree(stbc, 60, seed=13)
    assert count == plan_complexity(stbc.plan).evaluate(4) == 8


def test_group_stbc_scod():
    stbc = group_stbc(catalog("scod", m=2), Q=2)
    count = _agree(stbc, 40, seed=14)
    assert count == plan_complexity(stbc.plan).evaluate(4) == 6 * 2


def test_fgd_ren_count_and_zero_noise():
    # 2^17 codewords: beyond the oracle cap, so check the structured
    # decoder's instrumentation and exact decoding of clean channels
    stbc = fgd_ren_stbc(Q=2)
    rep = plan_complexity(stbc.plan)
    assert str(rep) == "5·M^6"
    rng = np.random.default_rng(15)
    for sent in (0, 31337, stbc.count - 1):
        Y, H = channel_step(stbc.codeword(sent), rng, 2, 0.0)
        got, count = ml_structured(Y, H, stbc)
        assert got == sent
        assert count == rep.evaluate(4)


def test_fgd_ren_rate2():
    stbc = fgd_ren_stbc(Q=2, rate=2)
    rep = plan_complexity(stbc.plan)
    assert rep.evaluate(4) == 5 * 4 ** Fraction(11, 2) + 4 ** Fraction(1, 2)
    count = _agree(stbc, 6, seed=16)
    assert count == rep.evaluate(4)
    with pytest.raises(ValueError):
        fgd_ren_stbc(rate=Fraction(3, 2))


@pytest.mark.parametrize("R", (1, Fraction(3, 2), 2))
def test_silver_decoder_agreement(R):
    stbc = silver_stbc(4, R)
    count = _agree(stbc, 60, seed=17)
    assert count == plan_complexity(stbc.plan).evaluate(4)


def test_counts_at_m16():
    stbc = alamouti_stbc(16)
    count = _agree(stbc, 20, seed=18)
    assert count == plan_complexity(stbc.plan).evaluate(16) == 4


def test_zero_noise_decodes_exactly():
    stbc = qod4_stbc(Q=2)
    rng = np.random.default_rng(3)
    for sent in (0, 5, 200, 255):
        Y, H = channel_step(stbc.codeword(sent), rng, 2, 0.0)
        assert ml_oracle(Y, H, stbc)[0] == sent
        assert ml_structured(Y, H, stbc)[0] == sent


def test_metric_separation_across_groups():
    # for HR-orthogonal groups the ML metric splits per group
    stbc = alamouti_stbc(4)
    rng = np.random.default_rng(4)
    Y, H = channel_step(stbc.codeword(7), rng, 2, 0.3)
    from stbc_forge.simulate import _metric_terms
    b, G = _metric_terms(stbc, Y, H)
    V = stbc.symbol_table
    full = -2.0 * (V @ b) + np.einsum("ni,ij,nj->n", V, G, V)
    split = np.zeros(stbc.count)
    for i in range(4):
        split += -2.0 * V[:, i] * b[i] + G[i, i] * V[:, i] ** 2
    assert np.abs(full - split).max() < 1e-6 * max(1.0, np.abs(full).max())


def test_structured_requires_plan():
    lin = catalog("alamouti").linear
    stbc = STBCInstance(linear=lin, signals=pam_signal_set(4, 2))
    rng = np.random.default_rng(5)
    Y, H = channel_step(stbc.codeword(0), rng, 2, 0.1)
    with pytest.raises(ValueError):
        ml_structured(Y, H, stbc)


# ---------------------------------------------------------------------------
# Monte Carlo driver

def test_simulate_text_and_agreement():
    stbc = alamouti_stbc(4)
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=50, seed=7)
    res = simulate(cfg, stbc)
    assert res.agreements == (50, 50)
    assert res.codebook == 16
    text = res.to_text()
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
        assert res.agreements == (20,)
    with pytest.raises(ValueError):
        SimConfig(n_rx=2, snr_db=(10.0,), trials=1, seed=0, decoder="fast")


def test_simulate_high_snr_zero_errors():
    stbc = alamouti_stbc(4)
    cfg = SimConfig(n_rx=2, snr_db=(60.0,), trials=30, seed=1)
    res = simulate(cfg, stbc)
    assert res.errors == (0,)
    assert res.cer(0) == 0.0


def test_simulate_disagreement_names_the_case(monkeypatch):
    stbc = qod4_stbc(Q=2)
    V = stbc.symbol_table
    real = sim._oracle
    seen = []

    def flipped(V, b, G):
        # second call = second SNR; move trial 4 to the next codeword
        idx, m = real(V, b, G)
        seen.append((b, G))
        if len(seen) == 2:
            idx, m = idx.copy(), m.copy()
            idx[4] = (idx[4] + 1) % len(V)
            x = V[idx[4]]
            m[4] = -2.0 * x @ b[4] + x @ G[4] @ x
        return idx, m

    monkeypatch.setattr(sim, "_oracle", flipped)
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 7.5), trials=6, seed=3)
    with pytest.raises(AssertionError) as exc:
        simulate(cfg, stbc)
    got = re.search(r"snr (\S+) dB \(snr index (\d+)\), trial (\d+): "
                    r"oracle codeword (\d+) metric (\S+), structured "
                    r"codeword (\d+) metric (\S+)$", str(exc.value))
    assert got, str(exc.value)
    snr, k, trial, io, mo, is_, ms = got.groups()
    assert (float(snr), int(k), int(trial)) == (7.5, 1, 4)
    b, G = seen[1][0][4], seen[1][1][4]
    want_s, _m = real(V, b[None], G[None])
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
    assert max(sizes) == min(chunk, cfg.trials)
    return text


@pytest.mark.parametrize("name", sorted(BATCH_BUNDLES))
def test_simulate_batch_invariance(name, monkeypatch):
    stbc = BATCH_BUNDLES[name]()
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=20, seed=5)
    want = simulate(cfg, stbc).to_text()
    for chunk in (1, 7, cfg.trials + 3):
        assert _chunked_text(monkeypatch, stbc, cfg, chunk) == want


def test_simulate_batch_invariance_fgd_ren(monkeypatch):
    # the 2,048-hypothesis Cond, decoded over several chunks
    stbc = fgd_ren_stbc(Q=2)
    cfg = SimConfig(n_rx=2, snr_db=(0.0, 10.0), trials=9, seed=4,
                    decoder="structured")
    want = simulate(cfg, stbc).to_text()
    assert "structured_evals=%d" % plan_complexity(stbc.plan).evaluate(4) \
        in want
    for chunk in (1, 7, cfg.trials):
        assert _chunked_text(monkeypatch, stbc, cfg, chunk) == want


def test_oracle_blocks_keep_lowest_index_ties(monkeypatch):
    # +-1/2 symbols against integer b and G keep every metric exact, so
    # symbols 0 and 1 with equal rows of G tie exactly in any summation
    # order; the lowest index must win across codebook blocks too
    V = pam_signal_set(4, 2).symbol_table()
    rng = np.random.default_rng(8)
    tied = 0
    for _ in range(20):
        L = rng.integers(-3, 4, size=(4, 4))
        L[:, 1] = L[:, 0]
        G = (L.T @ L).astype(float)
        b = rng.integers(-6, 7, size=4).astype(float)
        b[1] = b[0]
        m = [-2 * Fraction(x @ b) + Fraction(x @ G @ x) for x in V]
        want = min(range(len(V)), key=lambda i: (m[i], i))
        tied += m.count(m[want]) > 1
        for step in (1, 5, len(V)):
            monkeypatch.setattr(sim, "_CHUNK_BYTES", 8 * (4 + 2) * step)
            assert sim._oracle(V, b[None], G[None])[0].tolist() == [want]
    assert tied


@lru_cache(maxsize=None)
def _fuzz_bundle(name):
    return BATCH_BUNDLES[name]()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(BATCH_BUNDLES)),
       seed=st.integers(0, 2 ** 32 - 1),
       snr_db=st.floats(-10.0, 60.0),
       batch=st.integers(1, 12))
def test_structured_equals_oracle_fuzz(name, seed, snr_db, batch):
    stbc = _fuzz_bundle(name)
    cfg = SimConfig(n_rx=2, snr_db=(snr_db,), trials=batch, seed=seed)
    sigma = np.sqrt(stbc.average_energy / (stbc.N * 10 ** (snr_db / 10.0)))
    _sent, Y, H = sim._draw(stbc, cfg, sigma, 0, range(batch))
    b, G = sim._metric_terms(stbc, Y, H)
    got_o, _mo = sim._oracle(stbc.symbol_table, b, G)
    got_s, _ms, count = sim._structured(stbc, b, G)
    assert got_s.tolist() == got_o.tolist()
    assert count == plan_complexity(stbc.plan).evaluate(4)
    # the one-trial API is the same decode
    assert ml_structured(Y[0], H[0], stbc) == (got_s[0], count)
    assert ml_oracle(Y[0], H[0], stbc) == (got_o[0], stbc.count)
