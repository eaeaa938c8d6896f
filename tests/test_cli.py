"""Command line surface: file formats, exit codes, determinism."""

import pytest

from stbc_forge.cli import (main, format_design, parse_design, DESIGN_HEADER,
                            INFEASIBLE)
from stbc_forge.constructions import catalog
from stbc_forge.simulate import SimConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _err = run(capsys, "catalog", "list")
    assert code == 0
    names = out.split()
    assert "alamouti" in names and "silver" in names


def test_catalog_show(capsys):
    code, out, _err = run(capsys, "catalog", "show", "alamouti")
    assert code == 0
    assert "rate=1" in out and "groups=4" in out
    assert DESIGN_HEADER in out


def test_catalog_show_with_params(capsys, tmp_path):
    p = tmp_path / "gg.txt"
    code, out, _err = run(capsys, "catalog", "show", "ggroup", "g=3", "a=1",
                          "--out", str(p))
    assert code == 0
    d, meta, _names = parse_design(p.read_text())
    assert meta["name"] == "ggroup"
    assert len(d.partition) == 3


def test_catalog_complexity_lines(capsys):
    code, out, _err = run(capsys, "catalog", "show", "fgd_ren")
    assert code == 0
    assert "complexity=5·M^6" in out
    code, out, _err = run(capsys, "catalog", "show", "silver")
    assert "complexity=M^2" in out


def test_catalog_errors(capsys):
    code, _out, err = run(capsys, "catalog", "show", "nosuch")
    assert code == 1 and "nosuch" in err
    code, _out, err = run(capsys, "catalog", "show")
    assert code == 2


def test_design_file_round_trip(tmp_path, capsys):
    p = tmp_path / "qod4.txt"
    run(capsys, "catalog", "show", "qod4", "--out", str(p))
    text = p.read_text()
    d, meta, names = parse_design(text)
    assert format_design(d, meta=meta, group_names=names) == text


def test_parse_design_errors():
    with pytest.raises(ValueError):
        parse_design("not a design\n")
    with pytest.raises(ValueError):
        parse_design(DESIGN_HEADER + "\ngroup S1: 0|0\n")  # missing m=
    with pytest.raises(ValueError):
        parse_design(DESIGN_HEADER + "\nm=1\nbogus line\n")
    # invalid partition is rejected on load: [1|0] + [0|w] is even weight
    bad = DESIGN_HEADER + "\nm=1\ngroup S1: 1|0\ngroup S2: 0|w 0|0\n"
    d, _m, _n = parse_design(bad, validate=False)
    assert d.K == 3
    with pytest.raises(ValueError, match="even-sum"):
        parse_design(bad)


def test_construct_pipeline(tmp_path, capsys):
    src = tmp_path / "ala.txt"
    out = tmp_path / "a4.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(src))
    code, stdout, _err = run(capsys, "construct", "--op", "A", "--l", "1",
                             "--in", str(src), "--out", str(out))
    assert code == 0
    assert "in: rate=1 groups=4" in stdout
    assert "out: rate=1 groups=4" in stdout
    d, meta, _names = parse_design(out.read_text())
    assert d.m == 2 and d.K == 8
    assert meta["op"] == "A"


def test_construct_with_sigma(tmp_path, capsys):
    src = tmp_path / "r1.txt"
    run(capsys, "catalog", "show", "rate1_2x2", "l=1", "--out", str(src))
    code, _out, _err = run(capsys, "construct", "--op", "C",
                           "--xi-order", "w,w2,0,1",
                           "--sigma", "2,1", "--in", str(src))
    assert code == 0


def test_construct_intra_odd_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(DESIGN_HEADER +
                   "\nm=2\ngroup S1: 0|0,0 0|w,0\ngroup S2: 0|1,0\n")
    code, _out, err = run(capsys, "construct", "--op", "B", "--in", str(bad))
    assert code == 1
    assert "(0,1)" in err  # names the violating pair


def test_build_fd_m2_rate2(tmp_path, capsys):
    p = tmp_path / "fd.txt"
    code, out, _err = run(capsys, "build-fd", "--m", "2", "--rate", "2",
                          "--out", str(p))
    assert code == 0
    assert "predicted=3·M^4.5" in out
    assert "plan=3·M^4.5" in out
    d, meta, _names = parse_design(p.read_text(), validate=False)
    assert meta["family"] == "fgd-family" and meta["rate"] == "2"
    assert d.K == 16


def test_build_fd_granularity_error(capsys):
    code, out, err = run(capsys, "build-fd", "--m", "2", "--rate", "13/10")
    assert code == 1
    assert "even integer" in err
    assert "predicted" not in out  # error surfaces before any prediction


def test_build_fd_silver_path(capsys):
    code, out, _err = run(capsys, "build-fd", "--m", "1", "--rate", "3/2")
    assert code == 0
    assert "predicted=M^1" in out


def test_build_fd_rate1_no_prediction(capsys):
    code, out, _err = run(capsys, "build-fd", "--m", "2", "--rate", "1")
    assert code == 0
    assert "predicted" not in out
    assert "plan=4·M^0.5" in out


def test_build_fd_auto_angles_pinned(tmp_path, capsys):
    p = tmp_path / "fd.txt"
    code, _out, _err = run(capsys, "build-fd", "--m", "2", "--rate", "5/4",
                           "--angles", "auto", "--M", "4", "--out", str(p))
    assert code == 0
    _d, meta, _names = parse_design(p.read_text())
    # smallest of the tied grid angles: 3pi/40 on four pairs, pi/5 last
    assert meta["angles"] == ",".join(["0.235619449019"] * 4
                                      + ["0.628318530718"])
    code, out, _err = run(capsys, "verify", "--in", str(p),
                          "--suite", "diversity")
    assert code == 0
    assert "diversity: PASS min_det=0.0840693 classes=29524" in out


def test_verify_diversity_cap_infeasible(tmp_path, capsys):
    # 65,536 codewords, 9^8 differences: over the 10^7-class cap
    p = tmp_path / "r2.txt"
    run(capsys, "build-fd", "--m", "2", "--rate", "2",
        "--angles", ",".join(["0.5"] * 8), "--out", str(p))
    code, out, _err = run(capsys, "verify", "--in", str(p),
                          "--suite", "diversity")
    assert code == INFEASIBLE
    assert ("diversity: INFEASIBLE (21523360 difference classes exceed "
            "the cap of 10000000)") in out


def test_verify_M_sets_catalog_signal_set(tmp_path, capsys):
    p = tmp_path / "ala.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(p))
    code, out, _err = run(capsys, "verify", "--in", str(p),
                          "--suite", "diversity")
    assert code == 0 and "classes=40" in out  # 4-QAM: 9 differences
    code, out, _err = run(capsys, "verify", "--in", str(p),
                          "--suite", "diversity", "--M", "16")
    assert code == 0 and "classes=1200" in out  # 16-QAM: 49 differences
    # the file's own meta.M wins over --M
    text = p.read_text().replace("m=1\n", "m=1\nmeta.M=16\n")
    p.write_text(text)
    code, out, _err = run(capsys, "verify", "--in", str(p),
                          "--suite", "diversity", "--M", "4")
    assert code == 0 and "classes=1200" in out
    code, _out, err = run(capsys, "verify", "--in", str(p), "--M", "5")
    assert code == 1 and "perfect square" in err


def test_verify_alamouti_all(tmp_path, capsys):
    p = tmp_path / "ala.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(p))
    code, out, _err = run(capsys, "verify", "--in", str(p))
    assert code == 0
    for suite in ("partition", "shaping", "prop5", "diversity"):
        assert "%s: PASS" % suite in out


def test_verify_duplicate_vector_rejected(tmp_path, capsys):
    p = tmp_path / "dup.txt"
    p.write_text(DESIGN_HEADER + "\nm=1\ngroup S1: 0|0 0|0\n")
    code, _out, err = run(capsys, "verify", "--in", str(p))
    assert code == 1
    assert "distinct" in err


def test_verify_partition_failure(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text(DESIGN_HEADER + "\nm=1\ngroup S1: 1|0\ngroup S2: 0|w 0|0\n")
    code, out, _err = run(capsys, "verify", "--in", str(p),
                          "--suite", "partition")
    assert code == 1
    assert "partition: FAIL" in out


def test_verify_diversity_infeasible_without_bundle(tmp_path, capsys):
    src = tmp_path / "ala.txt"
    out = tmp_path / "a4.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(src))
    run(capsys, "construct", "--op", "A", "--l", "1", "--in", str(src),
        "--out", str(out))
    code, stdout, _err = run(capsys, "verify", "--in", str(out),
                             "--suite", "diversity")
    assert code == INFEASIBLE
    assert "INFEASIBLE" in stdout


def test_verify_malformed_bundle_is_an_error(tmp_path, capsys):
    p = tmp_path / "fd.txt"
    run(capsys, "build-fd", "--m", "2", "--rate", "5/4",
        "--angles", ",".join(["0.5"] * 5), "--out", str(p))
    lines = [("meta.angles=0.5,0.5" if ln.startswith("meta.angles=")
              else ln) for ln in p.read_text().splitlines()]
    p.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", "--in", str(p),
                         "--suite", "diversity")
    assert code == 1
    assert "error: need 5 angles, got 2" in err
    assert "INFEASIBLE" not in out


def test_simulate_determinism(tmp_path, capsys):
    src = tmp_path / "ala.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(src))
    outs = []
    for name in ("r1.txt", "r2.txt"):
        p = tmp_path / name
        code, _out, _err = run(capsys, "simulate", "--in", str(src),
                               "--snr", "10", "--trials", "25",
                               "--seed", "5", "--out", str(p))
        assert code == 0
        outs.append(p.read_text())
    assert outs[0] == outs[1]
    assert "agree" in outs[0]


def test_simulate_worker_independence(tmp_path, capsys):
    src = tmp_path / "ala.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(src))
    texts = []
    for w in ("1", "3"):
        p = tmp_path / ("w%s.txt" % w)
        run(capsys, "simulate", "--in", str(src), "--snr", "8",
            "--trials", "20", "--seed", "3", "--workers", w,
            "--out", str(p))
        texts.append(p.read_text())
    assert texts[0] == texts[1]


def test_simulate_missing_signal_set(tmp_path, capsys):
    src = tmp_path / "ala.txt"
    out = tmp_path / "a4.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(src))
    run(capsys, "construct", "--op", "A", "--l", "0", "--in", str(src),
        "--out", str(out))
    code, _out, err = run(capsys, "simulate", "--in", str(out),
                          "--snr", "10", "--trials", "5")
    assert code == 1
    assert "signal set" in err


@pytest.mark.parametrize("field, value, flag, message", [
    ("trials", 0, ("--trials", "0"), "trials must be at least 1, got 0"),
    ("n_rx", 0, ("--n-rx", "0"), "n_rx must be at least 1, got 0"),
    ("workers", 0, ("--workers", "0"), "workers must be at least 1, got 0"),
    ("snr_db", (), None, "snr_db must be a non-empty list of finite values"),
    ("snr_db", (float("nan"),), ("--snr", "nan"), "finite values"),
    ("snr_db", (10.0, float("inf")), ("--snr", "10,inf"), "finite values"),
])
def test_simulate_rejects_bad_config(tmp_path, capsys, field, value, flag,
                                     message):
    cfg = dict(n_rx=2, snr_db=(10.0,), trials=5, seed=0)
    cfg[field] = value
    with pytest.raises(ValueError, match=message):
        SimConfig(**cfg)
    if flag is None:
        return
    src = tmp_path / "ala.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(src))
    # the last occurrence of a flag wins
    code, out, err = run(capsys, "simulate", "--in", str(src), "--snr", "10",
                         "--trials", "5", *flag)
    assert code == 1
    assert message in err and not out


def test_simulate_oracle_cap_points_to_structured(tmp_path, capsys):
    src = tmp_path / "fgd.txt"
    run(capsys, "catalog", "show", "fgd_ren", "--out", str(src))
    code, out, err = run(capsys, "simulate", "--in", str(src),
                         "--snr", "10", "--trials", "3")
    assert code == 1 and not out
    for part in ("131072 codewords", "cap of 100000",
                 "--decoder structured"):
        assert part in err
    code, out, _err = run(capsys, "simulate", "--in", str(src),
                          "--snr", "10", "--trials", "3",
                          "--decoder", "structured")
    assert code == 0
    assert "codebook=131072" in out


def test_simulate_build_fd_bundle(tmp_path, capsys):
    p = tmp_path / "fd.txt"
    run(capsys, "build-fd", "--m", "2", "--rate", "1",
        "--angles", "0.5,0.6,0.7,0.8", "--out", str(p))
    code, out, _err = run(capsys, "simulate", "--in", str(p),
                          "--snr", "12", "--trials", "10", "--seed", "1")
    assert code == 0
    assert "stbc-simresult v1" in out


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    src = tmp_path / "ala.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(src))
    monkeypatch.setenv("STBC_FORGE_SEED", "5")
    _code, out_env, _err = run(capsys, "simulate", "--in", str(src),
                               "--snr", "10", "--trials", "25")
    _code, out_arg, _err = run(capsys, "simulate", "--in", str(src),
                               "--snr", "10", "--trials", "25",
                               "--seed", "5")
    assert out_env == out_arg
