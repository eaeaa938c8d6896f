"""Command line surface: file formats, exit codes, determinism."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from stbc_forge import cli
from stbc_forge.bundles import family_bundle
from stbc_forge.cli import (main, format_design, parse_design, DESIGN_HEADER,
                            INFEASIBLE)
from stbc_forge.diversity import cubic_shaping_check, generator_matrix
from stbc_forge.signalset import SignalSet
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


def test_python_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "stbc_forge", "catalog",
                           "list"], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert "qod4" in done.stdout.split()


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


@pytest.mark.parametrize("argv, message", [
    (("qod4", "foo"), "bad parameter 'foo' for qod4, which takes no "
                      "parameters"),
    (("scod", "q=1"), "bad parameter 'q=1' for scod, which takes m=<int>"),
    (("scod", "m=two"), "bad parameter 'm=two' for scod, which takes "
                        "m=<int>"),
    (("ggroup", "g=3", "a"), "bad parameter 'a' for ggroup, which takes "
                             "g=<int> a=<int>"),
    (("scod", "m=+-5"), "bad parameter 'm=+-5' for scod, which takes "
                        "m=<int>"),
    (("ggroup", "g=2", "a=--1"), "bad parameter 'a=--1' for ggroup, which "
                                 "takes g=<int> a=<int>"),
    (("scod", "m=2", "m=3"), "bad parameter 'm=3' for scod: m= is given "
                             "twice"),
], ids=["no-parameters", "unknown-key", "not-an-integer", "no-value",
        "two-signs", "doubled-sign", "repeated"])
def test_catalog_show_names_a_bad_parameter(argv, message, capsys):
    code, out, err = run(capsys, "catalog", "show", *argv)
    assert code == 1 and not out
    assert err == "error: %s\n" % message


def test_key_errors_print_their_message_unquoted(capsys):
    code, out, err = run(capsys, "catalog", "show", "nosuch")
    assert (code, out, err) == (1, "", "error: unknown catalog design "
                                       "'nosuch'\n")


@pytest.mark.parametrize("M", ["1", "0", "-4"])
def test_qam_sizes_below_4_fail_at_the_boundary(M, tmp_path, capsys):
    # build-fd --M, verify --M and a file's meta.M all reach one check
    message = "error: QAM size M=%s is not a perfect square of at least 4\n"
    code, out, err = run(capsys, "build-fd", "--m", "2", "--rate", "5/4",
                         "--M", M, "--angles", "auto")
    assert (code, out, err) == (1, "", message % M)
    p = tmp_path / "ala.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(p))
    code, out, err = run(capsys, "verify", "--in", str(p), "--M", M)
    assert (code, out, err) == (1, "", message % M)
    p.write_text(p.read_text().replace("m=1\n", "m=1\nmeta.M=%s\n" % M))
    code, out, err = run(capsys, "verify", "--in", str(p),
                         "--suite", "diversity")
    assert (code, out, err) == (1, "", message % M)


def test_catalog_complexity_lines(capsys):
    # every catalog design with a bundle reports its plan's complexity
    for name, complexity in (("fgd_ren", "5·M^6"), ("silver", "M^2"),
                             ("alamouti", "4·M^0"), ("qod4", "4·M^1")):
        code, out, _err = run(capsys, "catalog", "show", name)
        assert code == 0
        assert out.splitlines()[1] == "complexity=%s" % complexity
    code, out, _err = run(capsys, "catalog", "show", "scod", "m=2")
    assert code == 0 and "complexity=" not in out


@pytest.mark.parametrize("argv, message", [
    (("dast", "n=8"), "dast n=8 gives m=9; weight matrices are realized up "
                      "to m=8"),
    (("precoded_ciod", "n=8"), "precoded_ciod n=8 gives m=9; weight "
                               "matrices are realized up to m=8"),
    (("rate1_2x2", "l=5"), "l must be in {0,1,2}"),
    (("rate1_2x2", "l=-1"), "l must be in {0,1,2}"),
])
def test_catalog_show_refuses_designs_it_cannot_realize(argv, message,
                                                        capsys, monkeypatch):
    # refused before any construction step runs, with exit 1
    calls = []
    monkeypatch.setattr(cli.cons, "construct_A",
                        lambda *args: calls.append(args))
    code, out, err = run(capsys, "catalog", "show", *argv)
    assert (code, out, err) == (1, "", "error: %s\n" % message)
    assert not calls


@pytest.mark.parametrize("argv, message", [
    (("ciod", "m=0"), "ciod needs m >= 1"),
    (("scod", "m=0"), "scod needs m >= 1"),
    (("precoded_ciod", "n=-1"), "precoded_ciod needs n >= 0"),
    (("dast", "n=-1"), "dast needs n >= 0"),
    (("ggroup", "g=1", "a=0"), "need g >= 2 and a >= 0"),
])
def test_catalog_show_refuses_parameters_out_of_range(argv, message, capsys):
    code, out, err = run(capsys, "catalog", "show", *argv)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_one_antenna_design_file_reads_back(tmp_path, capsys):
    # ggroup a=0 is an m=0 design, written as "0|" and "1|"
    p = tmp_path / "gg.txt"
    code, _out, _err = run(capsys, "catalog", "show", "ggroup", "g=2", "a=0",
                           "--out", str(p))
    assert code == 0
    text = p.read_text()
    assert "group S1: 0|\ngroup S2: 1|\n" in text
    d, meta, names = parse_design(text)
    assert (d.m, d.K) == (0, 2)
    assert format_design(d, meta, names) == text
    code, out, err = run(capsys, "verify", "--in", str(p))
    assert (code, err) == (3, "")
    assert out == ("partition: PASS\nshaping: PASS\nprop5: PASS\n"
                   "diversity: INFEASIBLE (no signal set in file)\n")
    q = tmp_path / "a.txt"
    code, _out, _err = run(capsys, "construct", "--op", "A", "--in", str(p),
                           "--out", str(q))
    assert code == 0
    assert parse_design(q.read_text())[0].m == 1


def test_catalog_errors(capsys):
    code, _out, err = run(capsys, "catalog", "show", "nosuch")
    assert code == 1 and "nosuch" in err
    code, _out, err = run(capsys, "catalog", "show")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify",),
    ("simulate", "--snr", "10", "--trials", "4"),
    ("construct", "--op", "A"),
], ids=["verify", "simulate", "construct"])
def test_missing_input_file_exits_1(argv, tmp_path, capsys):
    missing = tmp_path / "nosuch.txt"
    code, out, err = run(capsys, *argv, "--in", str(missing))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "nosuch.txt" in err
    assert "Traceback" not in err


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
    # one message for an invalid partition, on load and in a construction
    message = r"^invalid partition: even-sum cross pair \(0, 1\)$"
    with pytest.raises(ValueError, match=message):
        cli.cons.construct_A(d, 0)


@pytest.mark.parametrize("body, message", [
    ("m=2\n", "design file lists no vectors"),
    ("m=2\nmeta.name=x\n", "design file lists no vectors"),
    ("m=1\nm=2\ngroup S1: 0|0,0\n", "second m= line 'm=2'"),
    ("m=2\ngroup S1: 0|0,0\nm=2\n", "second m= line 'm=2'")])
def test_design_file_needs_one_m_line_and_a_vector(body, message, tmp_path,
                                                   capsys):
    # refused on load, before a suite or a construction reads the design
    p = tmp_path / "bad.txt"
    p.write_text(DESIGN_HEADER + "\n" + body)
    for argv in (("verify", "--in", str(p), "--suite", "shaping"),
                 ("verify", "--in", str(p), "--suite", "prop5"),
                 ("construct", "--op", "A", "--in", str(p))):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("lines, message", [
    (("meta.M=16", "meta.M=4"), "second meta.M= line 'meta.M=4'"),
    (("meta.=4",), "meta line 'meta.=4' names no key")],
    ids=["repeated", "empty"])
def test_design_file_refuses_an_empty_or_repeated_meta_key(lines, message,
                                                           tmp_path, capsys):
    # a repeated key would keep its last value: refused on load, as a
    # second m= line is, before a suite or a simulation reads the file
    p = tmp_path / "ala.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(p))
    p.write_text(p.read_text() + "".join(ln + "\n" for ln in lines))
    for argv in (("verify", "--in", str(p), "--suite", "diversity"),
                 ("simulate", "--in", str(p), "--snr", "0", "--trials", "1")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("m", [32, 40])
def test_partition_suite_reads_any_m(m, tmp_path, capsys):
    # the parity table needs no packed code, which would not fit an int64
    # word past m = 31; the realizations stop at MAX_M
    p = tmp_path / "wide.txt"
    p.write_text("%s\nm=%d\ngroup S1: 0|%s 1|%s\n"
                 % (DESIGN_HEADER, m, ",".join("0" * m), ",".join("w" * m)))
    assert run(capsys, "verify", "--in", str(p), "--suite",
               "partition") == (0, "partition: PASS\n", "")
    assert run(capsys, "verify", "--in", str(p), "--suite",
               "shaping") == (1, "", "error: m > 8 unsupported\n")
    code, out, _err = run(capsys, "construct", "--op", "A", "--in", str(p))
    assert code == 0 and "out: rate=" in out


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


def test_construct_refuses_a_bad_xi_order_token(tmp_path, capsys):
    src = tmp_path / "r1.txt"
    run(capsys, "catalog", "show", "rate1_2x2", "l=1", "--out", str(src))
    code, out, err = run(capsys, "construct", "--op", "C", "--xi-order",
                         "0,1,w,x", "--in", str(src))
    assert (code, out, err) == (1, "", "error: xi-order tokens must be "
                                       "0,1,w,w2\n")


@pytest.mark.parametrize("op, option, value", [
    ("C", "--l", "0"), ("C", "--l", "1"),
    ("A", "--xi-order", "0,1,w,w2"), ("B", "--xi-order", "w,w2,0,1")])
def test_construct_refuses_an_option_its_op_does_not_read(op, option, value,
                                                          tmp_path, capsys):
    # A and B read --l, C reads --xi-order; the other is refused, even at
    # its default value, before the design file is read
    code, out, err = run(capsys, "construct", "--op", op, option, value,
                         "--in", str(tmp_path / "missing.txt"))
    assert (code, out) == (1, "")
    assert err.startswith("error: %s applies to --op " % option)


def test_construct_defaults_stand_for_l_0_and_the_first_xi_order(tmp_path,
                                                                  capsys):
    src = tmp_path / "r1.txt"
    run(capsys, "catalog", "show", "rate1_2x2", "l=1", "--out", str(src))
    for op, option, value in (("A", "--l", "0"), ("B", "--l", "0"),
                              ("C", "--xi-order", "0,1,w,w2")):
        texts = []
        for extra in ((), (option, value)):
            f = tmp_path / ("%s%d.txt" % (op, len(extra)))
            code, _out, _err = run(capsys, "construct", "--op", op, *extra,
                                   "--in", str(src), "--out", str(f))
            assert code == 0
            texts.append(f.read_text())
        assert texts[0] == texts[1]


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


GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


def test_golden_build_fd_and_simulate_outputs(tmp_path, capsys):
    # design files, stdout and simulate results pinned from the CLI
    # before build-fd took its bundles from bundles.family_bundle; the
    # one change is that m = 1 now also prints plan=, equal to predicted=
    files = {}
    for name, case in GOLDEN["build-fd"].items():
        argv = case["args"].split()
        files[name] = tmp_path / (name + ".txt")
        code, out, _err = run(capsys, "build-fd", *argv,
                              "--out", str(files[name]))
        want = case["stdout"]
        if argv[:2] == ["--m", "1"]:
            want += want.replace("predicted=", "plan=")
        assert code == 0 and out == want, name
        assert files[name].read_text() == case["file"], name
    files["qod4"] = tmp_path / "qod4.txt"
    run(capsys, "catalog", "show", "qod4", "--out", str(files["qod4"]))
    for name, text in GOLDEN["simulate"].items():
        code, out, _err = run(capsys, "simulate", "--in", str(files[name]),
                              "--snr", "6,12", "--trials", "20", "--seed",
                              "1", "--decoder", "structured")
        assert code == 0 and out == text, name


def test_build_fd_codebook_beyond_int64_is_an_error(capsys):
    # m=3 R=8: 64 4-QAM pairs, 4^64 codewords; indexes are int64
    code, out, err = run(capsys, "build-fd", "--m", "3", "--rate", "8",
                         "--angles", ",".join(["0.5"] * 64))
    assert code == 1 and "plan=" not in out
    assert err == ("error: codebook of %d codewords exceeds the int64 range "
                   "of codeword indexes\n" % 4 ** 64)


def test_build_fd_granularity_error(capsys):
    code, out, err = run(capsys, "build-fd", "--m", "2", "--rate", "13/10")
    assert code == 1
    assert "even integer" in err
    assert "predicted" not in out  # error surfaces before any prediction


def test_build_fd_refuses_a_fractional_s_e_size(capsys):
    code, out, err = run(capsys, "build-fd", "--m", "2", "--rate", "17/16")
    assert (code, out, err) == (1, "", "error: rate 17/16 leaves a "
                                       "fractional S_E size\n")


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_non_finite_angles_are_errors(angle, tmp_path, capsys):
    # refused by build-fd, and by verify and simulate in a file
    p = tmp_path / "fd.txt"
    code, out, err = run(capsys, "build-fd", "--m", "2", "--rate", "5/4",
                         "--angles", "0.5,%s,0.5,0.5,0.5" % angle,
                         "--out", str(p))
    message = "error: QAM pair (2, 3): rotation angle %s is not finite\n" % (
        float(angle),)
    assert code == 1 and not out and err == message
    assert not p.exists()
    run(capsys, "build-fd", "--m", "2", "--rate", "5/4",
        "--angles", ",".join(["0.5"] * 5), "--out", str(p))
    p.write_text(re.sub("angles=0.500000000000,",
                        "angles=%s," % angle, p.read_text()))
    for argv in (("verify", "--in", str(p), "--suite", "diversity"),
                 ("simulate", "--in", str(p), "--snr", "10",
                  "--trials", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err == message.replace("(2, 3)", "(0, 1)")


@pytest.mark.parametrize("m, rate", [(1, "2"), (2, "5/4")])
def test_zero_denominator_rate_is_an_error(m, rate, tmp_path, capsys):
    message = "error: rate 1/0 has a zero denominator\n"
    code, out, err = run(capsys, "build-fd", "--m", str(m), "--rate", "1/0")
    assert code == 1 and not out and err == message
    p = tmp_path / "fd.txt"
    run(capsys, "build-fd", "--m", str(m), "--rate", rate, "--out", str(p))
    p.write_text(p.read_text().replace("meta.rate=%s\n" % rate,
                                       "meta.rate=1/0\n"))
    for argv in (("verify", "--in", str(p), "--suite", "diversity"),
                 ("simulate", "--in", str(p), "--snr", "10",
                  "--trials", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out and err == message


def _family_file(tmp_path, capsys, name="fd.txt"):
    p = tmp_path / name
    run(capsys, "build-fd", "--m", "2", "--rate", "2", "--out", str(p))
    return p


def _file_commands(p):
    return (("verify", "--in", str(p), "--suite", "diversity"),
            ("simulate", "--in", str(p), "--snr", "10", "--trials", "2"))


def test_bundle_file_must_describe_the_code_it_builds(tmp_path, capsys):
    # an m=1 file whose meta names qod4, and a one-vector m=2 file with
    # family meta, would otherwise certify or simulate another code
    ala = tmp_path / "ala.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(ala))
    ala.write_text(ala.read_text().replace("meta.name=alamouti",
                                           "meta.name=qod4"))
    one = _family_file(tmp_path, capsys)
    lines = one.read_text().splitlines()
    group = next(ln for ln in lines if ln.startswith("group "))
    one.write_text("\n".join([ln for ln in lines if ln != group]
                             + [" ".join(group.split()[:3])]) + "\n")
    for p, message in ((ala, "8 vectors that are not the file's 4"),
                       (one, "16 vectors that are not the file's 1")):
        for argv in _file_commands(p):
            code, out, err = run(capsys, *argv)
            assert code == 1 and not out
            assert err == ("error: bundle metadata builds a code on %s\n"
                           % message)


def test_bundle_xi2_must_be_1_or_w2(tmp_path, capsys):
    p = _family_file(tmp_path, capsys)
    p.write_text(p.read_text().replace("meta.xi2=w2", "meta.xi2=zz"))
    for argv in _file_commands(p):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err == "error: xi2 must be 1 or w2, got 'zz'\n"


@pytest.mark.parametrize("argv, edit, message", [
    (("simulate", "--snr", "0,x", "--trials", "2"), None,
     "--snr 'x' is not a number"),
    (("build-fd", "--m", "2", "--rate", "5/4", "--angles", "a,b,c,d"), None,
     "angle 'a' is not a number"),
    (("build-fd", "--m", "2", "--rate", "abc"), None,
     "rate 'abc' is not a number"),
    (("construct", "--op", "A", "--l", "1", "--sigma", "x"), None,
     "--sigma 'x' is not an integer"),
    (("simulate", "--snr", "10", "--trials", "2"), ("m=2", "m=abc"),
     "m 'abc' is not an integer"),
    (("verify", "--suite", "diversity"), ("meta.M=4", "meta.M=abc"),
     "meta.M 'abc' is not an integer"),
    (("construct", "--op", "A", "--l", "5"), None, "l must be in {0,1,2}"),
    (("construct", "--op", "A", "--l", "1", "--sigma", "1,1"), None,
     "sigma must be a permutation of 1..2"),
], ids=["snr", "angles", "rate", "sigma", "m", "meta.M", "l", "sigma perm"])
def test_malformed_options_name_their_field(argv, edit, message, tmp_path,
                                            capsys):
    # every message names the option or field, and nothing is printed
    # before the error
    p = _family_file(tmp_path, capsys)
    if argv[0] == "construct":
        p = tmp_path / "ala.txt"
        run(capsys, "catalog", "show", "alamouti", "--out", str(p))
    if edit:
        p.write_text(p.read_text().replace(*edit, 1))
    if argv[0] != "build-fd":
        argv += ("--in", str(p))
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err == "error: %s\n" % message


def test_build_fd_silver_path(capsys):
    code, out, _err = run(capsys, "build-fd", "--m", "1", "--rate", "3/2")
    assert code == 0
    assert "predicted=M^1" in out


@pytest.mark.parametrize("rate, M, line", [
    ("1", 4, "min_det=1 classes=40 checked=8"),
    ("1", 16, "min_det=1 classes=1200 checked=48"),
    ("3/2", 4, "min_det=0.755929 classes=364 checked=364"),
    ("3/2", 16, "min_det=0.755929 classes=58824 checked=58824"),
    ("2", 4, "min_det=0.755929 classes=3280 checked=3280"),
    ("2", 16, "min_det=0.755929 classes=2882400 checked=2882400")],
    ids=["r1-M4", "r1-M16", "r3_2-M4", "r3_2-M16", "r2-M4", "r2-M16"])
def test_every_silver_rate_is_full_diversity(rate, M, line, tmp_path, capsys):
    # puncturing drops the information symbol z4 (then z3), never the
    # precoded s4: each member keeps the folded weights of its z symbols,
    # so it is full diversity and its linear design has cubic shaping
    p = tmp_path / "silver.txt"
    assert run(capsys, "build-fd", "--m", "1", "--rate", rate, "--M", str(M),
               "--out", str(p))[0] == 0
    code, out, _err = run(capsys, "verify", "--in", str(p), "--suite", "all")
    assert code == 0
    assert out.splitlines() == ["partition: PASS", "shaping: PASS",
                                "prop5: PASS", "diversity: PASS " + line]
    stbc = family_bundle(1, rate, M, "", None).stbc
    assert cubic_shaping_check(generator_matrix(stbc.linear))


@pytest.mark.parametrize("angles", ["auto", "0.5,0.5"])
def test_build_fd_silver_rejects_angles(angles, capsys):
    # the m = 1 Silver code has no rotation angles to search or set
    code, out, err = run(capsys, "build-fd", "--m", "1", "--rate", "2",
                         "--angles", angles)
    assert code == 1 and not out
    assert "--angles applies to m >= 2" in err


def test_build_fd_rate1_no_prediction(capsys):
    code, out, _err = run(capsys, "build-fd", "--m", "2", "--rate", "1")
    assert code == 0
    assert "predicted" not in out
    assert "plan=4·M^0.5" in out


def test_build_fd_auto_angles_pinned(tmp_path, capsys):
    # smallest of the tied grid angles: 3pi/40 on every pair, at R = 5/4
    # pi/5 on the last, at R = 3/2 pi/5 and 23pi/90 on the last two, at
    # 16-QAM R = 1 3pi/40 again; checked= counts the determinants of the
    # HR-orthogonal groups
    cases = (("5/4", "4", ["0.235619449019"] * 4 + ["0.628318530718"],
              "min_det=0.0840693 classes=29524 checked=3284"),
             ("1", "4", ["0.235619449019"] * 4,
              "min_det=0.793893 classes=3280 checked=16"),
             ("3/2", "4", ["0.235619449019"] * 4 + ["0.628318530718",
                                                    "0.401425727959"],
              "min_det=0.0385526 classes=265720 checked=265720"),
             ("1", "16", ["0.235619449019"] * 4,
              "min_det=0.734548 classes=2882400 checked=96"))
    for rate, M, angles, certified in cases:
        p = tmp_path / "fd.txt"
        code, _out, _err = run(capsys, "build-fd", "--m", "2", "--rate",
                               rate, "--angles", "auto", "--M", M,
                               "--out", str(p))
        assert code == 0
        _d, meta, _names = parse_design(p.read_text())
        assert meta["angles"] == ",".join(angles)
        code, out, _err = run(capsys, "verify", "--in", str(p),
                              "--suite", "diversity")
        assert code == 0
        assert "diversity: PASS %s" % certified in out


@pytest.mark.parametrize("m,rate,classes", [
    ("2", "2", 21523360), ("3", "5/4", 21523360)])
def test_build_fd_auto_refused_over_the_cap(m, rate, classes, capsys,
                                            monkeypatch):
    # the finished code could never be certified, so the rotation search
    # refuses it before its grid pass reaches any pair: m=2 R=2 is one
    # group, m=3 R=5/4 has groups of 40 and 21523360 classes
    def no_search(*_args):
        raise AssertionError("a pair was searched above the cap")
    monkeypatch.setattr("stbc_forge.diversity._laurent_coefficients",
                        no_search)
    code, _out, err = run(capsys, "build-fd", "--m", m, "--rate", rate,
                          "--angles", "auto", "--M", "4")
    assert code == 1
    assert ("%d difference classes exceed the cap of 10000000" % classes
            in err)


@pytest.mark.parametrize("m", ["9", "12"])
def test_build_fd_refuses_m_past_max_m_before_building(m, capsys,
                                                       monkeypatch):
    # extend's complement set has 2 * 4^m codes, so m is checked first
    def no_build(*_args, **_kwargs):
        raise AssertionError("build_base ran at m=%s" % m)
    monkeypatch.setattr("stbc_forge.fdfgd.build_base", no_build)
    code, out, err = run(capsys, "build-fd", "--m", m, "--rate", "2")
    assert (code, out, err) == (1, "", "error: family m=%s: weight matrices "
                                "are realized up to m=8\n" % m)


def test_build_fd_auto_m3_rate1_certifies(tmp_path, capsys):
    # 21523360 classes in all, but four groups of 40: under the cap; each
    # group's second pair merges it with its first
    p = tmp_path / "m3.txt"
    code, _out, _err = run(capsys, "build-fd", "--m", "3", "--rate", "1",
                           "--angles", "auto", "--out", str(p))
    assert code == 0
    _d, meta, _names = parse_design(p.read_text())
    assert meta["angles"] == ("0.235619449019,0.558505360638,0.113446401380,"
                              "0.366519142919,0.113446401380,0.366519142919,"
                              "0.113446401380,0.366519142919")
    code, out, _err = run(capsys, "verify", "--in", str(p))
    assert code == 0
    assert ("diversity: PASS min_det=0.036929 classes=21523360 checked=160"
            in out)


def test_verify_n16_under_the_error_floor_infeasible(tmp_path, capsys):
    # N = 16: a group's computed |det|s are not trusted below
    # 16 eps beta^16, far above any minimum of m=4 R=1
    p = tmp_path / "m4.txt"
    code, _out, _err = run(capsys, "build-fd", "--m", "4", "--rate", "1",
                           "--angles", ",".join(["0.5"] * 16),
                           "--out", str(p))
    assert code == 0
    code, out, _err = run(capsys, "verify", "--in", str(p),
                          "--suite", "diversity")
    assert code == INFEASIBLE
    assert "diversity: INFEASIBLE (min |det| " in out
    assert "does not clear its LU error floor" in out and "N=16)" in out


def test_build_fd_xi2_only_for_families(capsys):
    # the m = 1 Silver code has no xi2 coordinate to set
    code, out, err = run(capsys, "build-fd", "--m", "1", "--rate", "2",
                         "--xi2", "1")
    assert code == 1 and not out
    assert "--xi2 applies to m >= 2" in err
    texts = []
    for xi2 in ((), ("--xi2", "w2")):
        code, out, _err = run(capsys, "build-fd", "--m", "2", "--rate", "1",
                              *xi2)
        assert code == 0 and "meta.xi2=w2" in out
        texts.append(out)
    assert texts[0] == texts[1]
    code, out, _err = run(capsys, "build-fd", "--m", "2", "--rate", "1",
                          "--xi2", "1")
    assert code == 0 and "meta.xi2=1" in out


def test_verify_diversity_cap_infeasible(tmp_path, capsys):
    # 65,536 codewords, 9^8 differences: over the 10^7-class cap
    p = tmp_path / "r2.txt"
    code, _out, _err = run(capsys, "build-fd", "--m", "2", "--rate", "2",
                           "--angles", ",".join(["0.5"] * 8), "--out", str(p))
    assert code == 0  # explicit angles build any rate
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
    # qod4 takes sqrt(M)-PAM on each real: 3 or 7 differences per real
    q = tmp_path / "qod4.txt"
    run(capsys, "catalog", "show", "qod4", "--out", str(q))
    for M, classes in (("4", "classes=3280 "), ("16", "classes=2882400 ")):
        code, out, _err = run(capsys, "verify", "--in", str(q),
                              "--suite", "diversity", "--M", M)
        assert classes in out  # qod4 is not full diversity on PAM: FAIL
    # fgd_ren's plan conditions on 11 reals: only M = 4 is bundled
    f = tmp_path / "fgd.txt"
    run(capsys, "catalog", "show", "fgd_ren", "--out", str(f))
    code, out, err = run(capsys, "verify", "--in", str(f),
                         "--suite", "diversity", "--M", "16")
    assert code == 1 and not out
    assert ("error: the fgd_ren bundle supports M=4 only, got M=16" in err)


def test_verify_catalog_qod4_is_not_full_diversity(tmp_path, capsys):
    # qod4_stbc puts plain, unrotated PAM on every real; a quasi-orthogonal
    # design reaches full diversity only with rotated constellations
    q = tmp_path / "qod4.txt"
    run(capsys, "catalog", "show", "qod4", "--out", str(q))
    code, out, _err = run(capsys, "verify", "--in", str(q),
                          "--suite", "diversity")
    assert code == 1
    assert "diversity: FAIL min_det=0 classes=3280 checked=16" in (
        out.splitlines())


def test_verify_alamouti_all(tmp_path, capsys):
    p = tmp_path / "ala.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(p))
    code, out, _err = run(capsys, "verify", "--in", str(p))
    assert code == 0
    for suite in ("partition", "shaping", "prop5", "diversity"):
        assert "%s: PASS" % suite in out


def test_verify_all_builds_two_hr_orthogonality_tables(tmp_path, capsys,
                                                     monkeypatch):
    # prop5 tables the file's realizations and the instance its weight
    # matrices; the diversity line's checked= reads the instance's table
    div, sim = (importlib.import_module("stbc_forge." + name)
                for name in ("diversity", "simulate"))
    p = tmp_path / "fd.txt"
    run(capsys, "build-fd", "--m", "2", "--rate", "5/4",
        "--angles", "0.5,0.6,0.7,0.8,0.9", "--out", str(p))
    calls = []
    for mod in (cli, div, sim):
        def spy(A, *args, _real=mod.hr_orthogonal_table, _name=mod.__name__):
            calls.append(_name)
            return _real(A, *args)
        monkeypatch.setattr(mod, "hr_orthogonal_table", spy)
    code, out, _err = run(capsys, "verify", "--in", str(p))
    assert code == 0 and "checked=" in out
    assert sorted(calls) == ["stbc_forge.cli", "stbc_forge.simulate"]


def test_plan_compiles_on_the_first_structured_decode(tmp_path, capsys,
                                                      monkeypatch):
    # build-fd, verify and an oracle-only simulate check the plan but
    # never build its decode tables; a structured run builds them once
    sim = importlib.import_module("stbc_forge.simulate")
    calls, compile_ = [], sim._compile

    def spy(*args):
        calls.append(args)
        return compile_(*args)
    monkeypatch.setattr(sim, "_compile", spy)
    p = tmp_path / "fd.txt"
    sim_args = ("simulate", "--in", str(p), "--snr", "10", "--trials", "4")
    for argv in (("build-fd", "--m", "2", "--rate", "5/4", "--angles",
                  "0.5,0.6,0.7,0.8,0.9", "--out", str(p)),
                 ("verify", "--in", str(p)),
                 sim_args + ("--decoder", "oracle")):
        assert run(capsys, *argv)[0] == 0
    assert calls == []
    assert run(capsys, *sim_args, "--decoder", "structured")[0] == 0
    assert len(calls) == 1


def test_verify_prop5_fails_on_a_mismatch(tmp_path, capsys, monkeypatch):
    # prop5 compares the realizations' numeric HR-orthogonality table with
    # the GF(4) parity table; one flipped pair must fail the suite
    p = tmp_path / "qod4.txt"
    run(capsys, "catalog", "show", "qod4", "--out", str(p))
    real = cli.hr_orthogonal_table

    def flipped(mats):
        table = real(mats)
        table[0, 1] = table[1, 0] = not table[0, 1]
        return table

    monkeypatch.setattr(cli, "hr_orthogonal_table", flipped)
    code, out, _err = run(capsys, "verify", "--in", str(p),
                          "--suite", "prop5")
    assert code == 1 and out == "prop5: FAIL\n"


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


@pytest.mark.parametrize("key", ["M", "rate", "angles"])
def test_bundle_metadata_names_missing_key(key, tmp_path, capsys):
    p = tmp_path / "fd.txt"
    run(capsys, "build-fd", "--m", "2", "--rate", "5/4",
        "--angles", ",".join(["0.5"] * 5), "--out", str(p))
    lines = [ln for ln in p.read_text().splitlines()
             if not ln.startswith("meta.%s=" % key)]
    p.write_text("\n".join(lines) + "\n")
    for argv in (("verify", "--in", str(p), "--suite", "diversity"),
                 ("simulate", "--in", str(p), "--snr", "10",
                  "--trials", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "error: bundle metadata is missing %s" % key in err
        assert "INFEASIBLE" not in out


@pytest.mark.parametrize("argv, edit, message", [
    (("--m", "1", "--rate", "2"),
     ("family=silver-punctured", "angles=0.5\nmeta.family=fgd-family"),
     "bundle family fgd-family does not apply to m=1"),
    (("--m", "2", "--rate", "1"), ("fgd-family", "silver-punctured"),
     "bundle family silver-punctured does not apply to m=2"),
    (("--m", "2", "--rate", "1"), ("fgd-family", "bogus"),
     "unknown bundle family 'bogus'"),
    (("--m", "2", "--rate", "1"), ("angles=.*", "angles=auto"),
     "bundle metadata needs explicit angles"),
])
def test_bundle_metadata_must_match_the_family(argv, edit, message,
                                               tmp_path, capsys):
    p = tmp_path / "fd.txt"
    run(capsys, "build-fd", *argv, "--out", str(p))
    p.write_text(re.sub(*edit, p.read_text()))
    code, out, err = run(capsys, "verify", "--in", str(p),
                         "--suite", "diversity")
    assert code == 1 and not out
    assert err == "error: %s\n" % message


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
    ("seed", -1, ("--seed", "-1"), "seed must be non-negative, got -1"),
    ("trials", 2 ** 32 + 1, ("--trials", str(2 ** 32 + 1)),
     "trials must be at most 4294967296, got 4294967297"),
    # 10^(snr/10) overflows, or underflows to 0: no usable noise level
    ("snr_db", (4000.0,), ("--snr", "4000"),
     "snr_db 4000 gives no finite positive noise deviation"),
    ("snr_db", (10.0, -4000.0), ("--snr", "10,-4000"),
     "snr_db -4000 gives no finite positive noise deviation"),
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


def test_simulate_family_r2_at_16qam(tmp_path, capsys, monkeypatch):
    # 2^32 codewords: the draw and the energy read the signal set's
    # units, never the 32 GiB codebook table, which is refused here
    def refuse(self):
        raise AssertionError("the codebook's symbol table was built")
    monkeypatch.setattr(SignalSet, "symbol_table", refuse)
    p = tmp_path / "fd16.txt"
    code, _out, err = run(capsys, "build-fd", "--m", "2", "--rate", "2",
                          "--M", "16", "--angles", ",".join(["0.5"] * 8),
                          "--out", str(p))
    assert code == 0, err
    code, out, err = run(capsys, "simulate", "--in", str(p), "--decoder",
                         "structured", "--trials", "4", "--snr", "10")
    assert code == 0, err
    lines = out.splitlines()
    for line in ("codebook=4294967296", "energy=80",
                 "structured_evals=802816"):
        assert line in lines


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


@pytest.mark.parametrize("value", ["abc", "-3", "1.5", ""])
def test_bad_seed_env_exits_1(tmp_path, capsys, monkeypatch, value):
    src = tmp_path / "ala.txt"
    run(capsys, "catalog", "show", "alamouti", "--out", str(src))
    monkeypatch.setenv("STBC_FORGE_SEED", value)
    code, out, err = run(capsys, "simulate", "--in", str(src),
                         "--snr", "10", "--trials", "3")
    assert code == 1 and not out
    assert err == ("error: STBC_FORGE_SEED must be a non-negative integer, "
                   "got %r\n" % value)
    # an explicit --seed does not read the variable
    code, out, _err = run(capsys, "simulate", "--in", str(src),
                          "--snr", "10", "--trials", "3", "--seed", "2")
    assert code == 0 and "seed=2" in out
