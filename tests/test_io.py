"""Mesh documents, report documents, CLI exit codes, fixture replay."""

import gc
import json
import os
import stat

from fractions import Fraction as F

import pytest
from tmeshdim import OverlapError, bounds
from tmeshdim.cli import main
from tmeshdim.meshfile import (ParseError, dump_machine, parse_mesh_dict,
                               parse_mesh_file, render_machine,
                               report_to_dict, write_text_atomic)

from .helpers import FIXTURES, fixture_path

REPLAY = [("test1", "3,3"), ("test2", "4,4"), ("test3", "6,6"),
          ("new_relations_a", "3,3"), ("new_relations_b", "4,4"),
          ("counterexample", "5,5"), ("nested", "4,4")]

def test_floats_are_rejected():
    with pytest.raises(ParseError, match="exact rational"):
        parse_mesh_dict({"faces": [{"rect": [0, 0, 0.5, 1]}]})


def test_coordinate_strings_are_ascii_integers_or_ratios():
    # Fraction itself reads the first six, as 10, 3, 1/2, 10, 1/2 and 3/2
    ok = {"faces": [{"rect": [0, 0, 1, 1]}, {"rect": [1, 0, 2, 1]}],
          "smoothness": {"default": 0, "overrides": [
              {"orientation": "v", "line": 1, "span": [0, 1], "r": 1}]}}
    parse_mesh_dict(ok)
    for bad in ("1_0", "\u0663", "\u0661/\u0662", "1e1", " 1/2", "1.5",
                "1/-2", ""):
        cases = [
            (r"faces\[1\]\.rect\[2\]",
             dict(ok, faces=[ok["faces"][0], {"rect": [1, 0, bad, 1]}])),
            (r"smoothness\.overrides\[0\]\.line",
             dict(ok, smoothness={"overrides": [
                 dict(ok["smoothness"]["overrides"][0], line=bad)]})),
            (r"smoothness\.overrides\[0\]\.span\[1\]",
             dict(ok, smoothness={"overrides": [
                 dict(ok["smoothness"]["overrides"][0], span=[0, bad])]})),
        ]
        for where, doc in cases:
            with pytest.raises(ParseError, match=where + ": expected an "
                               "integer or 'p/q' string"):
                parse_mesh_dict(doc)
    # the strings it does take: signs, and ratios that need no reduction
    doc = {"faces": [{"rect": ["-2/4", "+0", "1", "3/3"]}]}
    (face,) = parse_mesh_dict(doc)[0].faces
    assert (face.x0, face.y0, face.x1, face.y1) == (-F(1, 2), 0, 1, 1)


def test_malformed_documents_name_the_member():
    with pytest.raises(ParseError, match="faces"):
        parse_mesh_dict({})
    with pytest.raises(ParseError, match=r"faces\[0\]\.rect"):
        parse_mesh_dict({"faces": [{"rect": [0, 0, 1]}]})
    with pytest.raises(ParseError, match=r"faces\[1\]\.deficit"):
        parse_mesh_dict({"faces": [{"rect": [0, 0, 1, 1]},
                                   {"rect": [1, 0, 2, 1],
                                    "deficit": [1]}]})
    with pytest.raises(ParseError, match="orientation"):
        parse_mesh_dict({"faces": [{"rect": [0, 0, 1, 1]}],
                         "smoothness": {"default": 0, "overrides": [
                             {"orientation": "x", "line": 1,
                              "span": [0, 1], "r": 1}]}})
    with pytest.raises(ParseError,
                       match=r"^smoothness\.overrides: expected a list$"):
        parse_mesh_dict({"faces": [{"rect": [0, 0, 1, 1]}],
                         "smoothness": {"overrides": 5}})


def test_overlap_error_names_both_faces():
    doc = {"faces": [{"rect": [0, 0, 2, 2]}, {"rect": [1, 1, 3, 3]}]}
    with pytest.raises(OverlapError, match=r"faces\[0\] and faces\[1\]"):
        parse_mesh_dict(doc)


def test_atomic_write(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(str(target), "payload\n")
    assert target.read_text() == "payload\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


def test_atomic_write_leaves_the_mode_of_a_plain_write(tmp_path):
    # mkstemp makes its file 0600; the written file must get the mode that
    # open(path, "w") leaves, on a new file under each umask and on a file
    # that is already there
    def write_both(name, text):
        write_text_atomic(str(tmp_path / ("atomic-" + name)), text)
        with open(tmp_path / ("plain-" + name), "w") as f:
            f.write(text)
        return tuple(stat.S_IMODE((tmp_path / (side + name)).stat().st_mode)
                     for side in ("atomic-", "plain-"))

    saved = os.umask(0o022)
    try:
        for umask in (0o022, 0o027, 0o002):
            os.umask(umask)
            assert write_both(f"new{umask:o}", "new\n") \
                == (0o666 & ~umask,) * 2
        for mode in (0o640, 0o600, 0o664):
            for side in ("atomic-", "plain-"):
                old = tmp_path / f"{side}old{mode:o}"
                old.write_text("old\n")
                old.chmod(mode)
            assert write_both(f"old{mode:o}", "new\n") == (mode, mode)
    finally:
        os.umask(saved)
    assert all((tmp_path / p).read_text() == "new\n"
               for p in os.listdir(tmp_path))


def test_cli_bounds_exit_zero(tmp_path, capsys):
    rc = main(["bounds", fixture_path("test1"), "--degrees", "3,3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "chi=37" in out and "certified" in out


def test_cli_degree_ranges_sweep_colex(capsys):
    rc = main(["oracle", fixture_path("new_relations_a"),
               "--degrees", "3,3:4,4"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [line.split()[0] for line in out] == [
        "m=(3,3)", "m=(4,3)", "m=(3,4)", "m=(4,4)"]


def test_cli_input_errors_exit_one(tmp_path, capsys):
    assert main(["bounds", str(tmp_path / "missing.json"),
                 "--degrees", "3,3"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bounds", str(bad), "--degrees", "3,3"]) == 1
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"faces": "\u00e9"}'.encode("latin-1"))
    assert main(["analyze", str(latin1)]) == 1
    assert main(["bounds", str(latin1), "--degrees", "3,3"]) == 1
    assert f"{latin1}: not UTF-8" in capsys.readouterr().err
    assert main(["bounds", fixture_path("test1"), "--degrees", "3"]) == 1
    # an empty upper end, a digit separator and a non-ASCII digit
    for spec in ("3,3:", "1_0,2", "\u0663,3"):
        capsys.readouterr()
        assert main(["bounds", fixture_path("test1"), "--degrees", spec]) == 1
        assert "bad degree pair" in capsys.readouterr().err, spec
    assert main(["bounds", fixture_path("test1"), "--degrees", "5,5:3,3"]) == 1
    assert main(["certify", fixture_path("test1"), "--degrees", "3,3",
                 "--ordering", "typo"]) == 1
    capsys.readouterr()


def test_cli_assumption_violation_exits_two(tmp_path, capsys):
    # a 5x5 grid whose level-one region is an 8-cell annulus
    doc = {"faces": [{"rect": [i, j, i + 1, j + 1],
                      "deficit": [0, 0] if 1 <= i <= 3 and 1 <= j <= 3
                      and (i, j) != (2, 2) else [1, 1]}
                     for j in range(5) for i in range(5)],
           "smoothness": {"default": 1}}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    assert main(["bounds", str(path), "--degrees", "3,3"]) == 2
    assert main(["analyze", str(path)]) == 2
    out = capsys.readouterr().out
    assert "relative cycles" in out or "violated" in out


def test_cli_internal_inconsistency_exits_three(monkeypatch, capsys):
    from tmeshdim import cli
    from tmeshdim.bounds import DecompositionMismatch

    def boom(*a, **k):
        raise DecompositionMismatch("forced for the exit-code contract")

    monkeypatch.setattr(cli, "bounds", boom)
    rc = main(["bounds", fixture_path("test1"), "--degrees", "3,3"])
    capsys.readouterr()
    assert rc == 3


def test_cli_certify_text(capsys):
    assert main(["certify", fixture_path("test3"), "--degrees", "6,6"]) == 0
    out = capsys.readouterr().out
    assert "not certified" in out
    assert "slack" in out and "143" in out and "146" in out


def test_cli_analyze_machine_document(capsys):
    rc = main(["analyze", fixture_path("new_relations_b"),
               "--report", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["command"] == "analyze"
    assert doc["assumption_ok"] is True
    assert [lv["i"] for lv in doc["levels"]] == [1, 2]
    assert doc["levels"][0]["islands"] == [1]


def test_cli_svg_renders_one_file_per_level(tmp_path, capsys):
    rc = main(["svg", fixture_path("nested"), "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    files = sorted(os.listdir(tmp_path))
    assert files == ["nested-level-1.svg", "nested-level-2.svg",
                     "nested-level-3.svg"]
    head = (tmp_path / files[0]).read_text()
    assert head.lstrip().startswith("<svg")


def test_reports_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["bounds", fixture_path("test2"), "--degrees", "4,4",
            "--report", "machine"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_machine_text_is_json_dumps_text():
    report = bounds(*parse_mesh_file(fixture_path("test3")), (4, 4))
    docs = [{"command": "bounds", "rows": [report_to_dict(report)]},
            {"b": [], "a": {},
             "c": [None, True, False, -3, 0.5, "\u00e9\"/"],
             "d": ({"z": [[1, 2], []], "y": {"x": "s"}},)},
            [], {}, "x", 7]
    for doc in docs:
        assert dump_machine(doc) == \
            json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_machine_text_leaves_no_cyclic_garbage():
    report = bounds(*parse_mesh_file(fixture_path("test3")), (4, 4))
    gc.collect()
    gc.disable()
    try:
        render_machine([report])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fixture_replay_matches_shipped_reports(tmp_path):
    """Every bundled fixture reproduces its expected report byte for byte."""
    for name, degrees in REPLAY:
        got = tmp_path / (name + ".json")
        rc = main(["bounds", fixture_path(name), "--degrees", degrees,
                   "--with-oracle", "--report", "machine",
                   "--out", str(got)])
        assert rc == 0, name
        with open(os.path.join(FIXTURES, "expected", name + ".json"),
                  "rb") as f:
            assert got.read_bytes() == f.read(), name
