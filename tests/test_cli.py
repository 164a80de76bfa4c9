"""Command-line interface: exit codes, output formats."""

import hashlib
import json
import os

import pytest

import isekit as ik
from isekit.cli import main
from isekit.discovery import _config_hash


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_equivalent(tmp_path, capsys):
    a = write(tmp_path, "a.lp", "a :- not a.\n")
    b = write(tmp_path, "b.lp", "")
    assert main(["check", a, b, "--semantics", "lpmln"]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"


def test_check_inequivalent_with_witness(tmp_path, capsys):
    a = write(tmp_path, "a.lp", "a | c.\nb.\n")
    b = write(tmp_path, "b.lp", "a | b | c.\na | c :- b.\nb :- a, c.\n")
    assert main(["check", a, b]) == 1
    out = capsys.readouterr().out
    assert "inequivalent" in out
    assert "witness: ({a}, {a,b})" in out


def test_check_semantics_flag_changes_verdict(tmp_path):
    a = write(tmp_path, "a.lp", "a :- not a.\n")
    b = write(tmp_path, "b.lp", "")
    assert main(["check", a, b, "--semantics", "asp"]) == 1


def test_check_errors(tmp_path, capsys):
    a = write(tmp_path, "a.lp", "a |.\n")
    b = write(tmp_path, "b.lp", "")
    assert main(["check", a, b]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "missing.lp"), b]) == 2
    # the HT scan refuses more than 17 atoms
    wide = write(tmp_path, "wide.lp", "".join(f"x{i}.\n" for i in range(18)))
    capsys.readouterr()
    assert main(["check", wide, b]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "18 atoms" in err and err.count("\n") == 1


def test_check_file_not_utf8(tmp_path, capsys):
    """An undecodable file is an error (exit 2), not the "inequivalent" exit 1."""
    bad = tmp_path / "bad.lp"
    bad.write_bytes(b"a :- b.\n\xff\xfe.\n")
    b = write(tmp_path, "b.lp", "a :- b.\n")
    for argv in (["check", str(bad), b], ["check", b, str(bad)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_discover_json_to_stdout(capsys):
    assert main(["discover", "0", "1", "0"]) == 0
    out, err = capsys.readouterr()
    obj = json.loads(out)
    assert obj["shape"] == [0, 1, 0]
    assert len(obj["mgic"]) == 120
    assert obj["tr"] == 7
    assert "0-1-0:" in err


def test_discover_out_file(tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    assert main(["discover", "0", "1", "0", "--out", out_path]) == 0
    report = ik.SearchReport.from_json(json.loads(open(out_path).read()))
    assert report.max_nse == 1


def test_discover_out_file_replaces_whole(tmp_path, capsys):
    assert main(["discover", "0", "1", "1"]) == 0
    stdout = capsys.readouterr().out
    out_path = tmp_path / "report.json"
    out_path.write_text("an older report\n")
    assert main(["discover", "0", "1", "1", "--out", str(out_path)]) == 0
    assert out_path.read_text() == stdout
    assert os.listdir(tmp_path) == ["report.json"]   # no temp file left behind
    # an unwritable target is one error line, and leaves no temp file either
    missing = tmp_path / "missing" / "report.json"
    capsys.readouterr()
    assert main(["discover", "0", "1", "1", "--out", str(missing)]) == 2
    assert_one_error_line(capsys)
    assert os.listdir(tmp_path) == ["report.json"]


def test_discover_rejects_huge_shape(capsys):
    assert main(["discover", "4", "4", "4"]) == 2


def test_discover_rejects_negative_rule_count(capsys):
    for counts in (["1", "-1", "1"], ["0", "-1", "0"]):
        assert main(["discover", *counts]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (out, err)


def test_simplify_report(tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    main(["discover", "0", "1", "0", "--out", out_path])
    capsys.readouterr()
    assert main(["simplify", out_path]) == 0
    out, err = capsys.readouterr()
    obj = json.loads(out)
    assert set(obj) == {"disjuncts", "residual"}
    assert all(set(d) == {"nonempty", "empty", "at_most_one"} for d in obj["disjuncts"])
    assert err.strip()  # human-readable formulas on stderr


def test_simplify_bad_report(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{\"nope\": 1}")
    assert main(["simplify", bad]) == 2
    assert_one_error_line(capsys)
    report = ik.SearchReport(shape=(0, 1, 0), mgic=[ik.make_condition((0, 1, 0), {1})],
                             mnse=[], tr=1, max_nse=0, stats={}).to_json()
    report["mgic"][0]["nis"] = [1, 8]  # 8 is no set name of a one-rule shape
    out_of_range = write(tmp_path, "range.json", json.dumps(report))
    assert main(["simplify", out_of_range]) == 2
    assert_one_error_line(capsys)
    # two conditions with one nis: simplify would drop one of them
    report = ik.SearchReport(shape=(0, 1, 1),
                             mgic=[ik.make_condition((0, 1, 1), {1}, set()),
                                   ik.make_condition((0, 1, 1), {1}, {1})],
                             mnse=[], tr=1, max_nse=0, stats={})
    repeated = write(tmp_path, "repeated.json", report.dumps())
    assert main(["simplify", repeated]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: bad report: two conditions share a nis\n", (out, err)


def test_transform(tmp_path, capsys):
    # the second program keeps its weights and rule order; I_256 = {a}
    for text, iset, atom, want in [
            ("a | b | d :- b, c, not c.\n", "3", "c", "a | b | d :- b, x, not x.\n"),
            ("2 : a | c :- b.\nb :- c.\n0.5 : d.\n", "256", "a",
             "2 : c | x :- b.\nb :- c.\n0.5 : d.\n")]:
        prog = write(tmp_path, "p.lp", text)
        assert main(["transform", prog, "--op", "s-rp", "--iset", iset,
                     "--atom", atom, "--fresh", "x"]) == 0
        assert capsys.readouterr().out == want


def test_transform_guard_error(tmp_path, capsys):
    prog = write(tmp_path, "p.lp", "a | b | d :- b, c, not c.\n")
    # a guard that refuses the size, then set names outside a one-rule tuple
    for args in (["--op", "s-dl", "--iset", "4", "--atom", "a"],
                 *(["--op", "s-ex", "--iset", iset, "--fresh", "x"] for iset in ("99", "0", "-1"))):
        assert main(["transform", prog, *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (args, err)


def test_regress_single_shape(capsys):
    assert main(["regress", "--shapes", "0-1-0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS 0-1-0")


def test_regress_has_no_suite_flag(capsys):
    # regress runs every known shape unless --shapes names some
    for suite in ("fast", "slow"):
        with pytest.raises(SystemExit) as exc:
            main(["regress", "--suite", suite])
        assert exc.value.code == 2
        assert "--suite" in capsys.readouterr().err


def test_regress_rejects_bad_shapes(capsys):
    # no known counts, too few counts, a count that is no integer
    for shapes in ("0-2-2", "0-1", "x-1-1", "0-1-0,1-1"):
        assert main(["regress", "--shapes", shapes]) == 2
        out, err = capsys.readouterr()
        assert out == "", shapes
        assert err.startswith("error: ") and err.count("\n") == 1, (shapes, err)


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_discover_checkpoint_of_other_shape(tmp_path, capsys):
    ck = str(tmp_path / "ck.jsonl")
    assert main(["discover", "0", "1", "1", "--checkpoint", ck]) == 0
    capsys.readouterr()
    assert main(["discover", "1", "1", "0", "--checkpoint", ck]) == 2
    assert_one_error_line(capsys)


# the base record of a 0-1-1 run: IS'' has 16 names, so a layer mask is below 2^16
BASE_011 = '{"kind":"base","is2":[1,2,5,8,9,10,13,16,17,18,21,36,40,41,42,45]}'
# its first two layer records; the first verdict of layer 2 says "not SE"
LAYERS_011 = ('{"kind":"layer","i":1,"results":[[16,0]]}\n'
              '{"kind":"layer","i":2,"results":[[32784,null],[16400,null],[8208,null],[4112,null],'
              '[2064,0],[1040,null],[528,0],[272,null],[144,null],[80,0],[48,null],[24,null],'
              '[20,0],[18,null],[17,0]]}')


@pytest.mark.parametrize("case, bad_line", [
    *(pytest.param(case, line, id=case) for case, line in [
        ("missing directory", None), ("a directory", None), ("[1]", 2), ("3", 2),
        ('{"foo":1}', 2), ('{"kind":"layer"}', 2), ('{"kind":', 2)]),
    pytest.param(BASE_011.replace("[1,2,", "[1,2,3,"), 2, id="is2 names 3, not in IS'"),
    pytest.param(BASE_011.replace("[1,2,", "[2,1,"), 2, id="is2 not ascending"),
    pytest.param(BASE_011 + '\n{"kind":"layer","i":1,"results":[[65536,0]]}', 3,
                 id="a name past IS''"),
    pytest.param(BASE_011 + '\n{"kind":"layer","i":1,"results":[[0,null]]}', 3, id="an empty mask"),
    pytest.param(BASE_011 + '\n{"kind":"layer","i":1,"results":[[17,0]]}', 3,
                 id="two names in layer 1"),
    pytest.param(BASE_011 + '\n{"kind":"layer","i":1,"results":[[16,1]]}', 3,
                 id="kept outside its mask"),
    pytest.param('{"kind":"layer","i":1,"results":[[16,0]]}\n' + BASE_011, 2,
                 id="a layer before the base"),
    pytest.param(BASE_011 + '\n{"kind":"layer","i":1,"results":[[16,0]]}' * 2, 4,
                 id="a layer twice"),
    pytest.param(BASE_011 + "\n" + LAYERS_011.replace("[32784,null]", "[32784,0]"), 4,
                 id="a verdict that the border does not give"),
])
def test_discover_bad_checkpoint_is_an_error(case, bad_line, tmp_path, capsys):
    """A checkpoint that cannot be opened, or a complete line after the
    header that is not a valid record of its kind, comes out of order or
    logs a verdict that the border does not give, exits 2 with one error
    line naming that line."""
    ck = tmp_path / "ck.jsonl"
    if case == "missing directory":
        ck = tmp_path / "missing" / "ck.jsonl"
    elif case == "a directory":
        ck = tmp_path
    else:
        header = {"kind": "header", "shape": [0, 1, 1], "config": _config_hash((0, 1, 1), ik.RunConfig())}
        ck.write_text(json.dumps(header) + "\n" + case + "\n")
    assert main(["discover", "0", "1", "1", "--checkpoint", str(ck)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    if bad_line is not None:
        assert f"{ck} line {bad_line}:" in err, err


def test_discover_resumes_the_logged_layers(tmp_path, capsys):
    """The unedited log of the bad-verdict case resumes after layer 2 to the
    report of a run without a checkpoint."""
    assert main(["discover", "0", "1", "1"]) == 0
    want = capsys.readouterr().out
    ck = tmp_path / "ck.jsonl"
    header = {"kind": "header", "shape": [0, 1, 1], "config": _config_hash((0, 1, 1), ik.RunConfig())}
    ck.write_text(json.dumps(header) + "\n" + BASE_011 + "\n" + LAYERS_011 + "\n")
    assert main(["discover", "0", "1", "1", "--checkpoint", str(ck)]) == 0
    assert capsys.readouterr().out == want


def test_discover_max_layer_below_one(capsys):
    for value in ("0", "-1"):
        assert main(["discover", "0", "1", "1", "--max-layer", value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: max_layer must be >= 1\n", (out, err)


def test_discover_one_rule_shape_takes_no_layer_options(tmp_path, capsys):
    ck = tmp_path / "run.jsonl"
    for argv in (["discover", "0", "0", "1", "--max-layer", "2"],
                 ["discover", "0", "1", "0", "--checkpoint", str(ck)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert not ck.exists()


def test_bad_job_counts(capsys):
    # discovery runs in one process: no --jobs flag, and RunConfig takes jobs=1 only
    for argv in (["discover", "0", "1", "0", "--jobs", "1"],
                 ["regress", "--shapes", "0-1-0", "--jobs", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    for jobs in (0, 2, 8, -1):
        with pytest.raises(ValueError, match="jobs"):
            ik.RunConfig(jobs=jobs)
    assert ik.RunConfig(jobs=1).jobs == 1


def test_simplify_fifteen_name_condition(tmp_path, capsys):
    shape = (1, 1, 1)
    report = ik.SearchReport(shape=shape, mgic=[ik.make_condition(shape, range(1, 16))],
                             mnse=[], tr=15, max_nse=0, stats={})
    path = write(tmp_path, "big.json", report.dumps())
    assert main(["simplify", path]) == 0
    out, err = capsys.readouterr()
    assert len(json.loads(out)["disjuncts"]) == 1
    assert err.count("\n") == 1


# sha256 prefixes of the bytes `isekit simplify` writes to stdout for the
# sound MGIC of each reference shape, trailing newline included
SIMPLIFY_DIGESTS = {
    (0, 1, 0): "e61dbde2af1ade44",
    (0, 1, 1): "7fdfd0bdde82fbb7",
    (1, 1, 0): "0a97852b285866b9",
    (0, 2, 1): "94b1d398ed33eac3",
    (1, 2, 0): "ed61b80adcdeae7c",
    (1, 1, 1): "0843e1dae42b8d93",
}


@pytest.mark.parametrize("shape", list(SIMPLIFY_DIGESTS), ids="{0[0]}-{0[1]}-{0[2]}".format)
def test_simplify_bytes_are_pinned(shape, simplify_stdout):
    out = simplify_stdout(shape)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == SIMPLIFY_DIGESTS[shape]
