"""Tests for the command-line driver: parsing, reports, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rayzeta
from rayzeta import cli, family, shintani, verify
from rayzeta.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_INTERNAL,
    EXIT_OK,
    fraction_str,
    main,
    parse_char,
    parse_k_range,
    parse_label,
    parse_poly,
    render_csv,
    render_json,
)
from fractions import Fraction


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_poly():
    assert parse_poly("2,0,1") == (2, 0, 1)
    with pytest.raises(ConfigError):
        parse_poly("2,x")


def test_parse_label_and_k_range():
    lab = parse_label("1,0", 2)
    assert (lab.C, lab.D) == (1, 0)
    with pytest.raises(ConfigError):
        parse_label("3,0", 2)
    assert list(parse_k_range("0:2")) == [0, 1, 2]
    with pytest.raises(ConfigError):
        parse_k_range("5:1")


def test_parse_char():
    chi = parse_char("5:4:2=1", 5)
    assert chi.order == 4
    with pytest.raises(ConfigError):
        parse_char("3:2:2=1", 5)  # modulus mismatch
    assert parse_char("trivial", 7).order == 1


def test_rationals_serialized_as_strings():
    report = {"w": Fraction(-5, 12), "v": [Fraction(1, 6)]}
    assert json.loads(render_json(report)) == {"w": "-5/12", "v": ["1/6"]}
    rows = render_csv({"rows": [report, {"v": {"b": Fraction(1, 2), "a": 1}}]}).splitlines()
    assert rows == ["v,w", '"[""1/6""]",-5/12', '"{""a"": 1, ""b"": ""1/2""}",']


def test_zeta_report_anchor(capsys):
    code, out = run(capsys, ["zeta", "--preset", "rd-n2p2", "--n", "1", "--q", "2"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["Delta"] == 3
    assert {row["value"] for row in report["rows"]} == {"1/6"}
    assert {(row["C"], row["D"]) for row in report["rows"]} == {(1, 0), (0, 1)}


def test_zeta_skips_non_squarefree(capsys):
    code, out = run(capsys, ["zeta", "--preset", "rd-n2p2", "--n", "5", "--q", "2"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["rows"] == []
    assert len(report["skipped"]) == 1


def test_zeta_q1_is_config_error(capsys):
    code, _ = run(capsys, ["zeta", "--preset", "rd-n2p2", "--n", "1", "--q", "1"])
    assert code == EXIT_CONFIG


def test_unknown_preset_is_config_error(capsys):
    code, _ = run(capsys, ["zeta", "--preset", "nope", "--n", "1"])
    assert code == EXIT_CONFIG


def test_family_report_oracle_ok(capsys):
    code, out = run(capsys, ["family", "--preset", "rd-n2p2", "--q", "2"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["degree"] == 1
    assert report["rows"]
    assert all(row["oracle_ok"] for row in report["rows"])
    assert all(row["denominator_bounds_ok"] for row in report["rows"])


def test_family_csv_format(capsys):
    code, out = run(capsys, ["family", "--preset", "rd-n2p2", "--q", "2",
                             "--format", "csv"])
    assert code == EXIT_OK
    header = out.splitlines()[0].split(",")
    assert "k_coeffs" in header and "oracle_ok" in header


def test_uncertifiable_inline_family_exits_with_hypothesis_code(capsys):
    code, out = run(capsys, ["family", "--f-poly", "4,8,4",
                             "--a-polys", "0,2;0,1", "--q", "2"])
    assert code == EXIT_HYPOTHESIS
    report = json.loads(out)
    assert report["failures"]
    assert report["rows"] == []


UNDECIDED = "trace and norm of delta(n) are not both in Z[n]: norm invariance is undecided"


def test_undecided_family_is_a_hypothesis_violation(capsys, monkeypatch):
    # [[n, 2n]] with f = n^2 + 2: N delta(n) = n + 1/2, so delta(n) is not
    # integral; each residue fails with the reason, and no field is built
    def no_field(spec, n):
        raise AssertionError("a field was built")

    monkeypatch.setattr(family, "instantiate", no_field)
    argv = ["--f-poly", "2,0,1", "--a-polys", "0,1;0,2", "--q", "3"]
    code, out = run(capsys, ["family", *argv])
    assert code == EXIT_HYPOTHESIS
    report = json.loads(out)
    assert report["rows"] == []
    assert report["failures"] == [{"r": r, "error": UNDECIDED} for r in range(3)]
    assert main(["lfunc", *argv]) == EXIT_HYPOTHESIS
    assert capsys.readouterr().err == f"hypothesis violation: {UNDECIDED}\n"


@pytest.mark.parametrize("q", range(2, 8))
def test_repeated_period_reports_equal_the_primitive_ones(capsys, q):
    # [[2n, n, 2n, n]] is [[2n, n]] spelt twice: the same delta(n)
    outs = []
    for a_polys in ("0,2;0,1;0,2;0,1", "0,2;0,1"):
        for command in ("family", "lfunc"):
            code = main([command, "--f-poly", "2,0,1", "--a-polys", a_polys, "--q", str(q)])
            outs.append((command, code, *capsys.readouterr()))
    assert outs[:2] == outs[2:]


small_polys = st.lists(st.integers(-1, 3), min_size=1, max_size=3).map(
    lambda cs: ",".join(map(str, cs)))


@settings(max_examples=100, deadline=None)
@given(small_polys, st.lists(small_polys, min_size=1, max_size=3), st.integers(2, 5))
def test_family_on_random_inline_families_exits_with_a_code(f_poly, a_polys, q):
    argv = ["family", "--f-poly", f_poly, "--a-polys", ";".join(a_polys),
            "--q", str(q), "--k-range", "0:4", "--out", os.devnull]
    assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_INTERNAL)


# sha256 of the stdout of each command; any change to a report shows here.
PINNED_REPORTS = {
    "zeta --preset rd-n2p2 --q 3 --n 3":
        "6bea52482e7ebd8d43dabe93f7e0a539870bb198930c5765a09c6fcce6e6e93d",
    "zeta --preset rd-n2p2 --q 3 --n 4":  # f(4) = 18: the skip path
        "6ea6d685707d0bb06295eb2401ae3db6698da1635817da6100900e4634d005ad",
    "zeta --preset quartic-16n4 --q 2 --n 3":
        "81513111b61dc7198e25a17bdd42d6450122c1567181b2171c9a97e0896eb46d",
    "family --preset rd-n2p2 --q 3":
        "7ceffa34c1f3b3346081ec4b3fe7469f8126c85345c01a10bcb8830cbe902fdb",
    "family --preset quartic-16n4 --q 2 --format csv":
        "6a356e59591c6375259b2e6d4bb185d4e7e3c6ef479f96e02124954cf8bf10bf",
    "lfunc --preset rd-n2p2 --q 5 --char 5:4:2=1":
        "e3f8c9c8a37e5794ee7fc47d2390c4bde4c08016d9a85c3e4f21d33df99c7e34",
    "lfunc --preset quartic-16n4 --q 3 --char 3:2:2=1":
        "422597041ad8cd7ec4c750f0981eeedafd37ef9e8d681566373e6135eb5a9ab0",
    # the reports whose orbit walks the shared label space changed most
    "lfunc --preset rd-n2p2 --q 11":
        "39d280084c7566772f860a4db7346bae98f446af768edb52df4e0ee68824ff14",
    "lfunc --preset quartic-16n4 --q 7 --char 7:6:3=1":
        "be8b3d250c177bae653540ebe8f8f5317f1e6ab78d16941733dc4acc917dd1f8",
    # CSV writes each coeff through json.dumps, JSON through _json_text
    "lfunc --preset rd-n2p2 --q 5 --char 5:4:2=1 --format csv":
        "b73b90816541742945041c2e6a594dcf477b257d4d8ae6cd45cba42d2f6f553d",
    "lfunc --preset quartic-16n4 --q 7 --char 7:6:3=1 --format csv":
        "319e1828b45cce01d95a8c0e8b38ce0eef6bb29d3d344643019c47e2e9f4cde8",
    # long walks: lambda = 10 and 11 periods per label, and runs of 2s
    # across the period ends of m = 601 with lambda = 4
    "zeta --preset rd-n2p2 --q 11 --n 45":
        "6820cc93f4ca5c7915dd6d0aee13225a5e56c21615ac86d106b6257f73f356de",
    "zeta --preset rd-n2p2 --q 23 --n 45":
        "587a488037960d2917632197fbb80fca1e16e2c7a8f894f330895cce6a13bc57",
    "zeta --preset quartic-16n4 --q 7 --n 300":
        "0e266f10f77f61c1a34ecddb2c015c4832cfbe2ffbf2c4de755fc5d33c31d0e1",
    # degree 2 at q = 5: k^2 terms in every n-form and norm-class sum
    "lfunc --preset quartic-16n4 --q 5":
        "dcb1faa4ff4eec17bf2b9a063ac56b4d8cff4d6f6d5c6cc0f7c72001da9b79dc",
    "family --preset quartic-16n4 --q 5 --format csv":
        "78138272fbaf132ae7376037436ae23b37a91e946a963798ad1afa756af281fa",
}


@pytest.mark.parametrize("command", sorted(PINNED_REPORTS),
                         ids=lambda command: command.replace(" ", "_"))
def test_reports_are_byte_stable(capsys, command):
    code, out = run(capsys, command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_REPORTS[command]


def test_family_residues_without_fields_are_failures(capsys):
    # 9 | n^2 + 2 for n = 4, 5 mod 9: those residues hold no field of the
    # family, so neither holds the two witnesses its residue context needs
    code, out = run(capsys, ["family", "--preset", "rd-n2p2", "--q", "9", "--label", "1,0"])
    assert code == EXIT_HYPOTHESIS
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "dca5f6841ba7b788782c5eaccf07b285cbfda702f4221f30c66dabbdfdf1c077")
    report = json.loads(out)
    assert report["failures"] == [
        {"r": r, "error": f"could not find 2 squarefree instances for residue {r}"}
        for r in (4, 5)]
    assert sorted(row["r"] for row in report["rows"]) == [0, 1, 2, 3, 6, 7, 8]


def test_lfunc_trivial_matches_family_totals(capsys):
    code, out = run(capsys, ["lfunc", "--preset", "rd-n2p2", "--q", "2"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["character"]["order"] == 1
    _, fam_out = run(capsys, ["family", "--preset", "rd-n2p2", "--q", "2"])
    fam = json.loads(fam_out)
    # zeta is constant on orbits and hecke_L0 sums one representative per
    # orbit, so the family column is lambda times the L coefficient
    lams = {}
    for r, n in ((0, 2), (1, 1)):
        _, zeta_out = run(capsys, ["zeta", "--preset", "rd-n2p2",
                                   "--n", str(n), "--q", "2"])
        lams[r] = json.loads(zeta_out)["lambda"]
    for row in report["rows"]:
        total = sum(
            Fraction(frow["k_coeffs"][row["power"]])
            for frow in fam["rows"] if frow["r"] == row["r"]
        )
        got = sum(Fraction(v) for v in row["coeff"].values())
        assert got * lams[row["r"]] == total


def test_lfunc_order4_symbols(capsys):
    code, out = run(capsys, ["lfunc", "--preset", "rd-n2p2", "--q", "5",
                             "--char", "5:4:2=1"])
    assert code == EXIT_OK
    report = json.loads(out)
    keys = set()
    for row in report["rows"]:
        keys.update(row["coeff"])
        assert row["approx_precision"].endswith("(approximate)")
    assert keys <= {"chi(1)", "chi(2)", "chi(3)", "chi(4)"}


def test_lfunc_exact_columns_do_not_depend_on_the_character(capsys):
    # the character enters only the approx columns: the r, power and coeff
    # columns are the norm-class sums, the same for every character mod q
    columns = []
    for char in ("trivial", "5:4:2=1", "5:4:2=3", "5:2:2=1"):
        code, out = run(capsys, ["lfunc", "--preset", "rd-n2p2", "--q", "5",
                                 "--char", char])
        assert code == EXIT_OK
        report = json.loads(out)
        columns.append([(row["r"], row["power"], row["coeff"]) for row in report["rows"]])
    assert all(rows == columns[0] for rows in columns)
    assert len(columns[0]) == 5 * (report["degree"] + 1)


def test_lfunc_zero_rows_have_no_symbols(capsys):
    code, out = run(capsys, ["lfunc", "--preset", "rd-n2p2", "--q", "5",
                             "--char", "5:4:2=1"])
    assert code == EXIT_OK
    report = json.loads(out)
    rows = [row for row in report["rows"] if row["r"] == 0]
    assert [row["power"] for row in rows] == list(range(report["degree"] + 1))
    assert rows[0]["coeff"] == {}
    assert (rows[0]["approx_re"], rows[0]["approx_im"]) == ("0.0", "0.0")
    assert all(row["coeff"] for row in rows[1:])


def test_malformed_char_is_config_error(capsys):
    code, _ = run(capsys, ["lfunc", "--preset", "rd-n2p2", "--q", "5",
                           "--char", "5:4:4=1"])
    assert code == EXIT_CONFIG


def test_config_file_merging_and_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "rd-n2p2", "q": 2, "n": 1}))
    code, out = run(capsys, ["zeta", "--config", str(cfg)])
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "rd-n2p2", "wat": 1}))
    code, _ = run(capsys, ["zeta", "--config", str(bad), "--n", "1"])
    assert code == EXIT_CONFIG


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "rd-n2p2", "q": 2, "n": 1}))
    code, out = run(capsys, ["zeta", "--config", str(cfg), "--n", "3"])
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 3


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, ["zeta", "--preset", "rd-n2p2", "--n", "1", "--q", "2",
                             "--out", str(target)])
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["Delta"] == 3


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_cuts_a_longer_report_to_the_new_length(tmp_path, capsys, fmt):
    # the short report is written over the start of the long one; what is
    # left of the long one past its end must go
    target = tmp_path / "report"
    long = ["zeta", "--preset", "quartic-16n4", "--q", "7", "--n", "300", "--out", str(target)]
    short = ["zeta", "--preset", "rd-n2p2", "--q", "3", "--n", "3", "--format", fmt]
    assert run(capsys, long) == (EXIT_OK, "")
    assert run(capsys, [*short, "--out", str(target)]) == (EXIT_OK, "")
    code, out = run(capsys, short)
    assert code == EXIT_OK and target.read_bytes() == out.encode("utf-8")
    if fmt == "json":
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            PINNED_REPORTS["zeta --preset rd-n2p2 --q 3 --n 3"])


def test_out_is_never_truncated_to_zero_on_open(tmp_path, capsys, monkeypatch):
    # a file cut to zero and refilled is flushed to disk on close (ext4),
    # which made the write the largest single cost of a zeta job
    flags = []
    os_open = os.open

    def recording(path, flag, *mode):
        flags.append(flag)
        return os_open(path, flag, *mode)

    monkeypatch.setattr(os, "open", recording)
    argv = ["zeta", "--preset", "rd-n2p2", "--q", "3", "--n", "3", "--out", str(tmp_path / "r")]
    assert run(capsys, argv) == (EXIT_OK, "")
    assert flags and not any(flag & os.O_TRUNC for flag in flags)


def test_out_to_the_null_device_exits_0(capsys):
    argv = ["zeta", "--preset", "rd-n2p2", "--q", "3", "--n", "3", "--out", os.devnull]
    assert run(capsys, argv) == (EXIT_OK, "")


def test_out_to_a_fifo_receives_the_stdout_bytes(tmp_path, capsys):
    # a FIFO cannot be truncated (EINVAL): it is written as it is
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    argv = ["lfunc", "--preset", "rd-n2p2", "--q", "3"]
    code = main([*argv, "--out", str(fifo)])
    reader.join(timeout=30)
    if reader.is_alive():  # the FIFO was never opened: let the reader see EOF
        open(fifo, "wb").close()
        reader.join()
    assert (code, capsys.readouterr().out) == (EXIT_OK, "")
    assert received == [run(capsys, argv)[1].encode("utf-8")]


def test_render_json_sorted_keys():
    text = render_json({"b": Fraction(1, 2), "a": 1})
    assert text.index('"a"') < text.index('"b"')


def json_dumps_report(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=fraction_str) + "\n"


# str keys with non-ASCII letters, quotes, backslashes and control characters
report_keys = st.text(alphabet=st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f", "\u00e9\u03b4", "\U0001d400"])
report_scalars = (
    st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | st.fractions()
    | report_keys
)
report_trees = st.recursive(
    report_scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.lists(st.integers(-3, 3), max_size=8)  # the all-int join
        | st.lists(st.integers(-3, 3) | st.booleans(), max_size=8)  # ints mixed with bools
        | st.dictionaries(report_keys, inner, max_size=5)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(report_trees)
def test_render_json_equals_json_dumps(tree):
    assert render_json(tree) == json_dumps_report(tree)


@pytest.mark.parametrize("argv", [
    "zeta --preset rd-n2p2 --q 2 --n 777",
    "zeta --preset quartic-16n4 --q 5 --n 3",
    "zeta --preset rd-n2p2 --q 3 --n 4",  # the skip path
    "family --preset rd-n2p2 --q 3",
    "lfunc --preset rd-n2p2 --q 5 --char 5:4:2=1",
    "verify --criterion A7",
])
def test_json_report_equals_json_dumps_of_its_dict(capsys, monkeypatch, argv):
    reports = []

    def recording(report):
        reports.append(report)
        return render_json(report)

    monkeypatch.setattr(cli, "render_json", recording)
    code, out = run(capsys, argv.split())
    assert code == EXIT_OK
    assert len(reports) == 1
    assert out == json_dumps_report(reports[0])


def test_verify_single_criterion(capsys):
    code, out = run(capsys, ["verify", "--criterion", "A7"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"] is True
    assert [row["criterion"] for row in report["rows"]] == ["A7"]


def test_verify_unknown_criterion(capsys):
    code, _ = run(capsys, ["verify", "--criterion", "A99"])
    assert code == EXIT_CONFIG


def test_verify_reports_a_mismatch_as_failed(capsys, monkeypatch):
    def broken():
        raise verify.Mismatch("unit wrong at n=1")

    monkeypatch.setitem(verify.CRITERIA, "A1", ("broken on purpose", broken))
    code, out = run(capsys, ["verify", "--criterion", "A1"])
    assert code == EXIT_INTERNAL
    row = json.loads(out)["rows"][0]
    assert (row["passed"], row["detail"]) == (False, "unit wrong at n=1")
    assert "checked" not in row


def run_err(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1, err
    return code


@pytest.mark.parametrize("q", ["1", "0"])
def test_verify_bad_q_is_config_error(capsys, q):
    assert run_err(capsys, ["verify", "--criterion", "A5", "--q", q]) == EXIT_CONFIG


@pytest.mark.parametrize("cap", ["abc", "1"])
def test_max_terms_limit_is_config_error(capsys, monkeypatch, cap):
    monkeypatch.setenv("RAYZETA_MAX_TERMS", cap)
    assert run_err(capsys, ["zeta", "--preset", "rd-n2p2", "--n", "3"]) == EXIT_CONFIG


@pytest.mark.parametrize("doc", [
    {"preset": "rd-n2p2", "q": "5", "n": 1},
    {"preset": "rd-n2p2", "n": True},
    {"f_poly": [2, 0, 1], "a_polys": "0,2;0,1", "n": 1},
    {"f_poly": "2,0,1", "a_polys": [[0, 2], [0, 1]], "n": 1},
    {"preset": "rd-n2p2", "n": 1, "label": [1, 0]},
])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert run_err(capsys, ["zeta", "--config", str(cfg)]) == EXIT_CONFIG


def test_out_into_missing_directory_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    argv = ["zeta", "--preset", "rd-n2p2", "--n", "1", "--out", str(target)]
    assert run_err(capsys, argv) == EXIT_CONFIG


def test_family_label_outside_every_f_delta_is_config_error(capsys, monkeypatch):
    # N(2 + 0*delta(n)) = 4 is prime to q = 4 at no residue; that is decided
    # from tr and N of delta at each r, before any residue context
    def no_context(spec, r):
        raise AssertionError("a residue context was built")

    monkeypatch.setattr(cli, "ResidueContext", no_context)
    code = main(["family", "--preset", "rd-n2p2", "--q", "4", "--label", "2,0"])
    assert (code, *capsys.readouterr()) == (
        EXIT_CONFIG, "", "error: label 2,0 is not in F_delta at any residue\n")


def test_undecided_family_with_a_label_keeps_its_failure_rows(capsys):
    argv = ["family", "--f-poly", "2,0,1", "--a-polys", "0,1;0,2", "--q", "3", "--label", "2,0"]
    code, out = run(capsys, argv)
    assert code == EXIT_HYPOTHESIS
    assert json.loads(out)["failures"] == [{"r": r, "error": UNDECIDED} for r in range(3)]


# the contexts whose unit acts in each command: lfunc sums a residue's
# closed forms label by label, so it walks no residue orbit
ACTING_CONTEXTS = {
    "lfunc --preset rd-n2p2 --q 11": {shintani.ConeContext},
    "family --preset quartic-16n4 --q 7": {shintani.ConeContext, family.ResidueContext},
}


@pytest.mark.parametrize("command", list(ACTING_CONTEXTS))
def test_no_context_acts_on_a_label_twice(capsys, monkeypatch, command):
    # each command walks each unit cycle once per context, field or residue,
    # so a context makes at most |F_delta| unit actions
    acts = Counter()
    for cls in (shintani.LabelSpace, shintani.ConeContext):
        def counted(ctx, label, act=vars(cls)["act"]):
            acts[ctx, label] += 1
            return act(ctx, label)

        monkeypatch.setattr(cls, "act", counted)
    code, _ = run(capsys, command.split())
    assert code == EXIT_OK
    assert {type(ctx) for ctx, _ in acts} == ACTING_CONTEXTS[command]
    assert max(acts.values()) == 1
    for ctx, count in Counter(ctx for ctx, _ in acts).items():
        assert count <= len(shintani.f_delta(ctx))


IMPORT_PROBE = """
import os, sys
src = sys.argv[1]
sys.path.insert(0, src)
package = os.path.join(src, "rayzeta")
generated = set()

def hook(event, args):
    # source compiled from a string is generated code; the innermost module
    # body on the stack is the module that generated it
    if event == "compile" and args[1] == "<string>":
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "<module>":
            frame = frame.f_back
        if frame is not None and frame.f_code.co_filename.startswith(package):
            generated.add(frame.f_code.co_filename)

sys.addaudithook(hook)
import rayzeta, rayzeta.cli
print(sorted({"csv", "dataclasses", "inspect", "rayzeta.oracle", "rayzeta.verify"}
             & sys.modules.keys()))
print(sorted(generated))
"""


def test_import_generates_no_code_and_leaves_verify_unloaded():
    # a fresh isolated interpreter (no site packages, no PYTHONPATH) that
    # writes no bytecode into the source tree
    src = str(Path(rayzeta.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-I", "-B", "-c", IMPORT_PROBE, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n[]\n"


COMMAND_PROBE = """
import os, sys
sys.path.insert(0, sys.argv[1])
from rayzeta.cli import main
code = main(sys.argv[2:] + ["--out", os.devnull])
print(code, sorted({"csv", "rayzeta.oracle"} & sys.modules.keys()))
"""


@pytest.mark.parametrize("command, loaded", [
    ("zeta --preset rd-n2p2 --q 3 --n 3", []),
    ("family --preset rd-n2p2 --q 3", []),
    ("lfunc --preset rd-n2p2 --q 5", []),
    ("zeta --preset rd-n2p2 --q 3 --n 3 --format csv", ["csv"]),
    ("verify --criterion A3 --q 2 --n-max 3", ["rayzeta.oracle"]),
], ids=["zeta", "family", "lfunc", "zeta-csv", "verify"])
def test_a_command_loads_only_what_it_runs(command, loaded):
    # the reference layer is verify's alone, and csv only CSV reports load
    src = str(Path(rayzeta.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-I", "-B", "-c", COMMAND_PROBE, src, *command.split()],
                         capture_output=True, text=True, check=True)
    assert out.stdout == f"0 {loaded}\n"


def test_zeta_on_a_non_integral_delta_is_hypothesis_error(capsys):
    # delta(n) - 1 = [[n, 2n]] has norm n + 1/2: refused before any context
    argv = ["zeta", "--f-poly", "2,0,1", "--a-polys", "0,1;0,2", "--q", "2", "--n", "3"]
    assert main(argv) == EXIT_HYPOTHESIS
    assert capsys.readouterr().err == (
        "hypothesis violation: delta(3) has trace 5 and norm 7/2, not both integers\n")


@pytest.mark.parametrize("n", [
    "10000000000",  # the minus-CF period m = n is past max_period
    "2000000000",  # the minus-CF period is past max_period
    "999999",  # lambda*m = 2*999999 is past RAYZETA_MAX_TERMS
])
def test_size_limits_are_config_errors(capsys, n):
    assert run_err(capsys, ["zeta", "--preset", "rd-n2p2", "--n", n]) == EXIT_CONFIG


def test_period_limit_comes_before_the_squarefree_test(capsys):
    # f(1000003) = 9 * 111112000001: refused for its period, not skipped
    argv = ["zeta", "--preset", "rd-n2p2", "--n", "1000003"]
    assert run_err(capsys, argv) == EXIT_CONFIG
    main(argv)
    assert capsys.readouterr().err == "error: minus CF period not found within 1000000 terms\n"


def test_squarefree_bound_is_config_error(capsys):
    # f = (10^9 + 7)(10^9 + 9) > 10^18 has no prime factor up to the bound
    argv = ["zeta", "--f-poly", "1000000016000000063", "--a-polys", "1;1", "--n", "1"]
    assert run_err(capsys, argv) == EXIT_CONFIG
    main(argv)
    assert capsys.readouterr().err == (
        "error: cannot certify squarefreeness beyond bound 1000000\n")


def test_config_format_is_applied(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "rd-n2p2", "n": 1, "format": "csv"}))
    code, out = run(capsys, ["zeta", "--config", str(cfg)])
    assert code == EXIT_OK
    assert out.splitlines()[0] == "C,D,lambda,m,norm_mod_q,orbit,value"
    code, out = run(capsys, ["zeta", "--config", str(cfg), "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["command"] == "zeta"


def test_config_unknown_format_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "rd-n2p2", "n": 1, "format": "xml"}))
    assert run_err(capsys, ["zeta", "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("name", ["rd-n2p2", "quartic-16n4"])
def test_family_q4_rows_pass_both_checks(capsys, name):
    # A5 covers q in {2, 3, 5}; q = 4 is the first composite modulus
    code, out = run(capsys, ["family", "--preset", name, "--q", "4"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["rows"] and not report["failures"]
    assert all(row["oracle_ok"] and row["denominator_bounds_ok"] for row in report["rows"])


@pytest.mark.parametrize("spec", [
    "5:0:2=1",  # order 0
    "5:2:2=1,2=0",  # contradictory exponents for one generator
])
def test_bad_char_spec_is_config_error(capsys, spec):
    argv = ["lfunc", "--preset", "rd-n2p2", "--q", "5", "--char", spec]
    assert run_err(capsys, argv) == EXIT_CONFIG


def test_parser_is_built_on_first_use_only():
    src = str(Path(rayzeta.__file__).resolve().parents[1])
    probe = ("import rayzeta.cli as c; n0 = c.build_parser.cache_info().currsize; "
             "argv = ['zeta', '--preset', 'rd-n2p2', '--n', '1']; c.main(argv); c.main(argv); "
             "info = c.build_parser.cache_info(); print(n0, info.misses, info.hits)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1].split() == ["0", "1", "1"]


@pytest.mark.parametrize("n", ["1", "5"])  # f(5) = 27 is not squarefree
@pytest.mark.parametrize("label", ["0,0", "9,9"])
def test_zeta_bad_label_is_config_error_before_the_field(capsys, n, label):
    argv = ["zeta", "--preset", "rd-n2p2", "--n", n, "--q", "3", "--label", label]
    assert run_err(capsys, argv) == EXIT_CONFIG


@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_verify_n_max_below_one_is_config_error(capsys, n_max):
    argv = ["verify", "--criterion", "A1", "--n-max", n_max]
    assert run_err(capsys, argv) == EXIT_CONFIG


def test_verify_check_that_compared_nothing_fails():
    row = verify.run_criterion("A1", n_max=0)
    assert (row["passed"], row["checked"]) == (False, 0)
    assert row["detail"] == "nothing was compared"


def test_verify_flag_that_no_selected_criterion_takes_is_config_error(capsys):
    argv = ["verify", "--criterion", "A7,A9", "--q", "3", "--n-max", "5"]
    assert run_err(capsys, argv) == EXIT_CONFIG
    main(argv)
    assert capsys.readouterr().err == (
        "error: --q, --n-max: taken by none of the selected criteria (A7, A9)\n")


def test_verify_q_over_all_criteria(capsys):
    code, out = run(capsys, ["verify", "--q", "3"])
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [row["criterion"] for row in rows] == sorted(verify.CRITERIA)
    assert all(row["passed"] for row in rows)


def test_verify_checks_take_only_what_a_flag_sets():
    params = {name: verify.check_params(name) for name in sorted(verify.CRITERIA)}
    assert params == {
        "A1": {"n_max"}, "A2": {"n_max"}, "A3": {"n_max", "qs"}, "A4": {"n_max", "qs"},
        "A5": {"qs"}, "A6": {"qs"}, "A7": set(), "A8": set(), "A9": set(),
    }


def test_verify_a5_names_the_residue_whose_fit_is_inconsistent(monkeypatch):
    # A5 reads oracle_ok from the rows `rayzeta family` prints
    fit_oracle = cli.fit_oracle

    def faulty(rctx, *args):
        fit = fit_oracle(rctx, *args)
        return family.FitResult(fit.coeffs, rctx.r != 2, fit.used_ks, fit.skipped_ks)

    monkeypatch.setattr(cli, "fit_oracle", faulty)
    row = verify.run_criterion("A5", qs=(3,))
    lab = shintani.f_delta(family.ResidueContext(family.PRESETS["quartic-16n4"].with_q(3), 2))[0]
    assert (row["passed"], row["detail"]) == (False, f"quartic-16n4 q=3 r=2 ({lab.C},{lab.D})")


def test_verify_a6_fails_on_a_broken_denominator_bound(monkeypatch):
    # A6 reads denominator_bounds_ok from the same rows
    monkeypatch.setattr(cli, "denom_bounds_ok", lambda q, k_coeffs, n_coeffs: False)
    row = verify.run_criterion("A6", qs=(2,))
    lab = shintani.f_delta(family.ResidueContext(family.PRESETS["quartic-16n4"].with_q(2), 0))[0]
    assert (row["passed"], row["detail"]) == (False, f"quartic-16n4 q=2 r=0 ({lab.C},{lab.D})")


def test_verify_a5_and_a6_skip_refused_residues(capsys):
    # rd-n2p2 at q = 9 refuses residues 4 and 5 (9 | n^2 + 2), which compare
    # nothing; the other rows are counted as before
    spec = family.PRESETS["rd-n2p2"].with_q(9)
    report, _ = cli.family_report(spec, range(7), None, family.delta_trace_norm(spec))
    assert [failure["r"] for failure in report["failures"]] == [4, 5]
    code, out = run(capsys, ["verify", "--q", "9", "--criterion", "A5,A6"])
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [(row["criterion"], row["passed"], row["checked"]) for row in rows] == [
        ("A5", True, 919), ("A6", True, 918)]


def test_zeta_computes_each_orbit_once(capsys, monkeypatch):
    from collections import Counter

    from rayzeta import shintani

    calls = Counter()
    orbit = shintani.orbit

    def counted_orbit(label, ctx):
        calls[label.C, label.D] += 1
        return orbit(label, ctx)

    monkeypatch.setattr(shintani, "orbit", counted_orbit)
    code, out = run(capsys, ["zeta", "--preset", "quartic-16n4", "--q", "5", "--n", "3"])
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    lam = rows[0]["lambda"]
    # one walk per cycle: the walked labels start disjoint orbits covering F_delta
    assert len(rows) == 20 and lam > 1 and sum(calls.values()) == len(rows) // lam
    walked = [tuple(m) for row in rows if (row["C"], row["D"]) in calls for m in row["orbit"]]
    assert sorted(walked) == sorted((row["C"], row["D"]) for row in rows)


def test_lambda_and_label_norms_take_the_integer_route(capsys, monkeypatch):
    # the residue data is built once per residue context, and no context,
    # residue or cone, reads lambda or a label norm off Fraction arithmetic
    from collections import Counter

    from rayzeta import contfrac, oracle, quadfield

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    modules = [m for k, m in sys.modules.items() if k.startswith("rayzeta")]
    for name in ("mult_matrix", "norm"):
        original = getattr(oracle, name)
        for module in modules:  # every binding, as bench/spans.py patches
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    monkeypatch.setattr(quadfield.QuadElem, "inverse",
                        counted("inverse", quadfield.QuadElem.inverse))
    monkeypatch.setattr(family, "plus_to_minus", counted("plus_to_minus", contfrac.plus_to_minus))
    monkeypatch.setattr(family.ResidueContext, "__init__",
                        counted("residue_context", family.ResidueContext.__init__))
    monkeypatch.setattr(shintani.ConeContext, "__post_init__",
                        counted("cone_context", shintani.ConeContext.__post_init__))
    code, out = run(capsys, ["family", "--preset", "quartic-16n4", "--q", "5"])
    assert code == EXIT_OK and json.loads(out)["rows"]
    assert calls["plus_to_minus"] == calls["residue_context"] == 5
    assert calls["cone_context"] > 0
    assert (calls["mult_matrix"], calls["norm"], calls["inverse"]) == (0, 0, 0)


@pytest.mark.parametrize("argv", [
    ["zeta", "--preset", "rd-n2p2", "--q", "5", "--n", "45"],
    ["zeta", "--preset", "quartic-16n4", "--q", "3", "--n", "7"],
    ["family", "--preset", "rd-n2p2", "--q", "3"],
    ["family", "--preset", "quartic-16n4", "--q", "3"],
    ["lfunc", "--preset", "rd-n2p2", "--q", "5", "--char", "5:4:2=1"],
    ["lfunc", "--preset", "quartic-16n4", "--q", "3", "--char", "3:2:2=1"],
], ids=lambda argv: "-".join(argv[:3:2]))
def test_the_ceiling_algorithm_is_only_an_oracle(capsys, monkeypatch, argv):
    # every field's minus CF comes from the index rule: no command calls the
    # ceiling algorithm through any binding, as bench/spans.py patches them,
    # while verify's structure check still does
    from collections import Counter

    from rayzeta import contfrac

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for k, m in sys.modules.items() if k.startswith("rayzeta")]
    for name in ("minus_cf", "_surd_state"):
        original = getattr(contfrac, name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    code, _ = run(capsys, argv)
    assert code == EXIT_OK and not calls
    assert verify.check_structure("rd-n2p2", 3) == 3
    assert calls == {"minus_cf": 3, "_surd_state": 3}


@settings(max_examples=300, deadline=None)
@given(small_polys, st.lists(small_polys, min_size=1, max_size=3), st.integers(2, 7),
       st.integers(-3, 40))
def test_zeta_on_random_inline_families_exits_with_a_code(f_poly, a_polys, q, n):
    argv = ["zeta", "--f-poly", f_poly, "--a-polys", ";".join(a_polys), "--q", str(q),
            "--n", str(n), "--out", os.devnull]
    assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_INTERNAL)


@pytest.mark.parametrize("argv", [
    ["family", "--preset", "rd-n2p2", "--q", "5", "--label", "1,0", "--k-range", "0:6"],
    ["lfunc", "--preset", "rd-n2p2", "--q", "5", "--char", "5:4:2=1"],
])
def test_each_field_is_built_once_per_command(capsys, monkeypatch, argv):
    # the witnesses, the oracle's samples and the direct L-values share the
    # field table of their residue context
    from collections import Counter

    built = Counter()
    instantiate = family.instantiate

    def counted(spec, n, *checked):
        built[n] += 1
        return instantiate(spec, n, *checked)

    monkeypatch.setattr(family, "instantiate", counted)
    code, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert built and max(built.values()) == 1


@pytest.mark.parametrize("argv", [
    ["family", "--preset", "quartic-16n4", "--q", "5"],
    ["lfunc", "--preset", "rd-n2p2", "--q", "5", "--char", "5:4:2=1"],
])
def test_each_n_is_decided_once_per_command(capsys, monkeypatch, argv):
    # each residue's field table is the only place that decides an n: its
    # witnesses, the oracle's samples and the direct L-values all read it,
    # and the norm-invariance check, verify's, is not run again per label
    from collections import Counter

    calls = Counter()

    def counted(name, fn):
        def wrapper(spec, n, *args):
            calls[name, n] += 1
            return fn(spec, n, *args)
        return wrapper

    for name in ("checked_terms", "norm_invariance_check"):
        monkeypatch.setattr(family, name, counted(name, getattr(family, name)))
    code, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert calls and max(calls.values()) == 1
    assert {name for name, _ in calls} == {"checked_terms"}


@pytest.mark.parametrize("argv", [
    "family --preset rd-n2p2 --q 5 --label 1,0",
    "family --preset quartic-16n4 --q 3",
    "lfunc --preset rd-n2p2 --q 5 --char 5:4:2=1",
])
def test_trace_and_norm_are_decided_once_per_command(capsys, monkeypatch, argv):
    # the residue contexts and the label check share one decision
    calls = []
    delta_trace_norm = family.delta_trace_norm

    def counted(spec):
        calls.append(spec)
        return delta_trace_norm(spec)

    monkeypatch.setattr(family, "delta_trace_norm", counted)
    monkeypatch.setattr(cli, "delta_trace_norm", counted)
    code, _ = run(capsys, argv.split())
    assert code == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("faults", [("mismatch", "refusal"), ("refusal", "mismatch")])
def test_an_oracle_mismatch_outranks_a_refusal(capsys, monkeypatch, faults):
    # exit 4 (internal verification failure) is kept over exit 3 (hypothesis
    # violation), whichever of r = 0 and r = 1 has which fault: the refused
    # residue is one failure row, the mismatched one rows with oracle_ok false
    fit_oracle = cli.fit_oracle

    def faulty(rctx, *args):
        fault = faults[rctx.r] if rctx.r < len(faults) else None
        if fault == "refusal":
            raise family.HypothesisError("refused")
        fit = fit_oracle(rctx, *args)
        return family.FitResult(fit.coeffs, fault is None, fit.used_ks, fit.skipped_ks)

    monkeypatch.setattr(cli, "fit_oracle", faulty)
    code, out = run(capsys, ["family", "--preset", "rd-n2p2", "--q", "3"])
    assert code == EXIT_INTERNAL
    report = json.loads(out)
    refused, mismatched = faults.index("refusal"), faults.index("mismatch")
    assert report["failures"] == [{"r": refused, "error": "refused"}]
    oracle_ok = {r: {row["oracle_ok"] for row in report["rows"] if row["r"] == r}
                 for r in range(3)}
    assert oracle_ok == {refused: set(), mismatched: {False}, 2: {True}}


def test_a_residue_is_refused_once_for_all_its_labels(capsys):
    # f = 2 is the radicand of delta(0) = 2 + sqrt(2) but not of delta(3):
    # the residue context checks both witnesses, so r = 0 fails once, as r =
    # 1 and r = 2 do at their first n
    code, out = run(capsys, ["family", "--f-poly", "2", "--a-polys", "2,2", "--q", "3"])
    assert code == EXIT_HYPOTHESIS
    report = json.loads(out)
    assert report["rows"] == []
    assert report["failures"] == [
        {"r": r, "error": f"Q(delta({n})) has radicand {d}, expected f({n}) = 2"}
        for r, n, d in ((0, 3, 17), (1, 1, 5), (2, 2, 10))]


def test_an_oracle_refusal_is_one_failure_row_per_residue(capsys):
    # r = 0 has its two witnesses, n = 0 and 6, but its oracle meets n = 12,
    # whose radicand is not f = 2: one failure row, not one row per label
    code, out = run(capsys, ["family", "--f-poly", "2", "--a-polys", "2,2", "--q", "6"])
    assert code == EXIT_HYPOTHESIS
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "f3b664626bf20ab3f60b38bc0767ca6899652dcbcb902acee4464d938f5a7f3d")
    report = json.loads(out)
    assert report["rows"] == []
    assert report["failures"] == [
        {"r": r, "error": f"Q(delta({n})) has radicand {(n + 1) ** 2 + 1}, expected f({n}) = 2"}
        for r, n in enumerate((12, 1, 2, 3, 4, 5))]


def test_too_few_oracle_samples_is_one_failure_row_per_residue(capsys):
    # k = 0..1 holds fewer than d + 2 = 3 usable k in every residue
    code, out = run(capsys, ["family", "--preset", "rd-n2p2", "--q", "3", "--k-range", "0:1"])
    assert code == EXIT_HYPOTHESIS
    report = json.loads(out)
    assert report["rows"] == []
    assert report["failures"] == [
        {"r": r, "error": "need at least 3 squarefree samples, got 1"} for r in range(3)]


@pytest.mark.parametrize("k_range", ["-9:-1", "-5:3"])
def test_negative_k_range_is_config_error(capsys, k_range):
    # n = qk + r < 0 is never a family member: a bad flag, neither a residue
    # short of samples nor a row that skips k < 0
    argv = ["family", "--preset", "rd-n2p2", "--q", "3", "--label", "1,0",
            f"--k-range={k_range}"]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    lo = k_range.split(":")[0]
    assert (out, err) == ("", f"error: k-range lower bound {lo} is negative: "
                              "n = qk + r is never below 0\n")


def test_no_field_outlives_its_command(capsys, monkeypatch):
    # the second command builds its fields again, under the lowered cap
    argv = ["family", "--preset", "rd-n2p2", "--q", "3"]
    assert run(capsys, argv)[0] == EXIT_OK
    monkeypatch.setenv("RAYZETA_MAX_TERMS", "1")
    assert run_err(capsys, argv) == EXIT_CONFIG


@pytest.mark.parametrize("command, key, message", [
    ("family", "label", "label must be C,D — got ''"),
    ("family", "k_range", "k-range must be lo:hi — got ''"),
    ("lfunc", "char", "character must be modulus:order:g=e[,g=e...] — got ''"),
    ("verify", "criterion", f"unknown criteria ['']; available: {sorted(verify.CRITERIA)}"),
    ("family", "out", "cannot write : [Errno 2] No such file or directory: ''"),
    ("family", "config", "cannot read config : [Errno 2] No such file or directory: ''"),
], ids=["family-label", "family-k-range", "lfunc-char", "verify-criterion", "family-out",
        "family-config"])
def test_empty_flag_value_is_config_error(tmp_path, capsys, command, key, message):
    # an empty value is parsed, not taken for an absent flag, on the command
    # line and in a config document alike (a document cannot name another)
    family_args = [] if command == "verify" else ["--preset", "rd-n2p2", "--q", "3"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: ""}))
    for argv in ([command, *family_args, f"--{key.replace('_', '-')}="],
                 [command, *family_args, "--config", str(cfg)])[: 1 if key == "config" else 2]:
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"


# The flags each subcommand reads, written out by hand: the parser must
# offer exactly these, and a config document exactly their keys.
ACCEPTED_FLAGS = {
    "zeta": {"--config", "--preset", "--f-poly", "--a-polys", "--q", "--label", "--n",
             "--out", "--format"},
    "family": {"--config", "--preset", "--f-poly", "--a-polys", "--q", "--label",
               "--k-range", "--out", "--format"},
    "lfunc": {"--config", "--preset", "--f-poly", "--a-polys", "--q", "--char", "--out",
              "--format"},
    "verify": {"--config", "--q", "--criterion", "--n-max", "--out", "--format"},
}
ALL_FLAGS = set().union(*ACCEPTED_FLAGS.values())
# a value each flag but --config accepts, and a run of each subcommand that exits 0
FLAG_VALUES = {
    "--preset": "rd-n2p2", "--f-poly": "2,0,1", "--a-polys": "0,2;0,1",
    "--q": "2", "--label": "1,0", "--n": "3", "--k-range": "0:6", "--char": "trivial",
    "--criterion": "A7", "--n-max": "3", "--out": os.devnull, "--format": "csv",
}
BASE_ARGS = {
    "zeta": ["--preset", "rd-n2p2", "--q", "3", "--n", "3"],
    "family": ["--preset", "rd-n2p2", "--q", "2", "--label", "1,0"],
    "lfunc": ["--preset", "rd-n2p2", "--q", "2"],
    "verify": ["--criterion", "A7"],
}


def config_value(flag):
    value = FLAG_VALUES[flag]
    return int(value) if flag in ("--q", "--n", "--n-max") else value


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sub.choices.keys() == ACCEPTED_FLAGS.keys()
    for command, parser in sub.choices.items():
        flags = set(parser._option_string_actions) - {"-h", "--help"}
        assert flags == ACCEPTED_FLAGS[command], command
    assert sum(map(len, ACCEPTED_FLAGS.values())) == 32


def test_each_subcommand_reads_the_config_keys_of_its_flags(tmp_path):
    for command, flags in ACCEPTED_FLAGS.items():
        doc = {flag[2:].replace("-", "_"): config_value(flag)
               for flag in flags - {"--config"}}
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(doc))
        assert cli.load_config(str(cfg), command) == doc
    assert sum(len(flags) - 1 for flags in ACCEPTED_FLAGS.values()) == 28


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in ACCEPTED_FLAGS
    for flag in sorted(ALL_FLAGS - ACCEPTED_FLAGS[command])])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, command, flag):
    code = main([command, *BASE_ARGS[command], flag, FLAG_VALUES[flag]])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_CONFIG, "")
    # the subcommand's own parser reports it, naming the subcommand
    assert err.startswith(f"usage: rayzeta {command} ")
    assert err.endswith(
        f"\nrayzeta {command}: error: unrecognized arguments: {flag} {FLAG_VALUES[flag]}\n")


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in ACCEPTED_FLAGS
    for flag in sorted(ALL_FLAGS - ACCEPTED_FLAGS[command])])
def test_a_config_key_the_subcommand_does_not_read_is_refused(tmp_path, capsys, command, flag):
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: config_value(flag)}))
    code = main([command, *BASE_ARGS[command], "--config", str(cfg)])
    assert (code, *capsys.readouterr()) == (
        EXIT_CONFIG, "", f"error: unknown config keys: [{key!r}]\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--crit", "A1", "--n", "3"],
    ["verify", "--criterion", "A1", "--n", "3"],
    ["zeta", "--pre", "rd-n2p2", "--n", "1"],
    ["zeta", "--preset", "rd-n2p2", "--n", "1", "--form", "csv"],
    ["family", "--preset", "rd-n2p2", "--q", "2", "--k", "0:6"],
    ["lfunc", "--preset", "rd-n2p2", "--q", "2", "--ch", "trivial"],
    ["lfunc", "--preset", "rd-n2p2", "--q", "2", "--out=" + os.devnull, "--conf", "x"],
], ids=lambda argv: "_".join(argv[:2]) + "_" + argv[-2])
def test_abbreviated_flags_are_usage_errors(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


# At n = 0 the terms (1, 1, 1) of a_i = (1 + 2n, 1, 1) repeat the period (1,),
# so K_0's unit is a cube root of the unit of the residue context of r = 0:
# n = 0 is skipped, as a non-squarefree f(n) is.
COLLAPSE = ["--f-poly", "5,8,4", "--a-polys", "1,2;1;1"]
COLLAPSE_DIGESTS = {
    2: "d2d5097f525cb1e24b24a8cf4c24c094d83732b92113b42127c2ef124ef5bdf3",
    3: "e82e689b4318f8e97843532c54496ffac953bf8dcf8818d735fd81db84a3b8b3",
    4: "f381129d54c6f2d3c481fc62e4a02e42af03a2dc1754a99b2ccacb479fe05614",
    5: "149125f1b9f93c9347ec4255755e0b447a0716e3409dd38616c5369d18a37ad4",
}


@pytest.mark.parametrize("q", sorted(COLLAPSE_DIGESTS))
def test_a_field_whose_terms_collapse_their_period_is_skipped(capsys, q):
    code, out = run(capsys, ["family", *COLLAPSE, "--q", str(q)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == COLLAPSE_DIGESTS[q]
    report = json.loads(out)
    assert report["failures"] == [] and report["rows"]
    for row in report["rows"]:
        assert row["oracle_ok"]
        assert (0 in row["skipped_ks"]) == (row["r"] == 0)


def test_lfunc_skips_a_field_whose_terms_collapse_their_period(capsys):
    code, out = run(capsys, ["lfunc", *COLLAPSE, "--q", "3"])
    assert code == EXIT_OK
    assert [row["r"] for row in json.loads(out)["rows"]] == [0, 0, 1, 1, 2, 2]


# f = 1 + n^2 with delta(n) = 1 + [[2n]]: f(0) = 1 is no radicand, so n = 0
# lies outside the family and is skipped, as a non-squarefree f(n) is
UNIT_RADICAND = ["--f-poly", "1,0,1", "--a-polys", "0,2", "--q", "3"]


def test_family_skips_an_n_whose_f_is_no_radicand(capsys):
    code, out = run(capsys, ["family", *UNIT_RADICAND])
    assert code == EXIT_OK
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "6f0de241ed9df509524b5a797f6e38d72d3afe89c188b1e00fb0c284929f0bdb")
    report = json.loads(out)
    assert report["failures"] == [] and len(report["rows"]) == 20
    for row in report["rows"]:
        assert row["oracle_ok"]
        assert (0 in row["skipped_ks"]) == (row["r"] == 0)


def test_lfunc_skips_an_n_whose_f_is_no_radicand(capsys):
    code, out = run(capsys, ["lfunc", *UNIT_RADICAND, "--char", "trivial"])
    assert code == EXIT_OK
    assert [row["r"] for row in json.loads(out)["rows"]] == [0, 0, 1, 1, 2, 2]


def test_zeta_at_an_n_whose_f_is_no_radicand_is_refused(capsys):
    code = main(["zeta", *UNIT_RADICAND, "--n", "0"])
    assert (code, *capsys.readouterr()) == (
        EXIT_HYPOTHESIS, "", "hypothesis violation: f(0) = 1 is not a valid radicand\n")


def test_a_residue_whose_f_falls_to_1_or_below_names_it(capsys):
    # f = 5 - n^2 with delta(n) = 1 + [[1]]: only n = 0 and 1 have f(n) > 1, so
    # no residue finds its two witnesses, and the refusal says why
    negative = ["--f-poly", "5,0,-1", "--a-polys", "1", "--q", "3"]
    code, out = run(capsys, ["family", *negative])
    assert code == EXIT_HYPOTHESIS
    assert json.loads(out)["failures"] == [
        {"r": r, "error": f"could not find 2 squarefree instances for residue {r}; "
                          f"f(n) <= 1 for n = {ns}, ..."}
        for r, ns in [(0, "3, 6, 9"), (1, "4, 7, 10"), (2, "2, 5, 8")]
    ]
    code = main(["zeta", *negative, "--n", "3"])
    assert (code, *capsys.readouterr()) == (
        EXIT_HYPOTHESIS, "", "hypothesis violation: f(3) = -4 is not a valid radicand\n")
