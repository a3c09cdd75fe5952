import json
import os
import re
import subprocess
import sys

import jsonschema
import pytest

import epivariants
from epivariants.cli import main
from epivariants.corpus import corpus_text, parse_semigroup
from epivariants.epigroup import pseudoinverse_map

from test_acceptance import PAPER_DETAILS

try:
    from importlib.resources import files
except ImportError:  # pragma: no cover
    files = None

SCHEMA = json.loads(files("epivariants").joinpath("report.schema.json").read_text())
# terms nested past the parser's bound, one by x^k and one by parentheses
DEEP_TERMS = ["x^3000", "(" * 3000 + "x" + ")" * 3000]
# the start of the message for a term past the size bound
WIDE = "term expands to more than 10000 variable occurrences and primes"
# an order-4 semigroup on which primary conjugacy is not transitive
NONTRANSITIVE = "4\n0 0 0 0\n0 0 0 0\n0 0 0 0\n0 1 2 3\n"


@pytest.fixture
def corpus_file(tmp_path):
    def write(name):
        path = tmp_path / name
        path.write_text(corpus_text(name))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_validate_ok(corpus_file, capsys):
    assert main(["validate", corpus_file("z3.sgp")]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_failure(tmp_path, capsys):
    path = tmp_path / "bad.sgp"
    path.write_text("2\n0 1\n0 0\n")
    code, report = run_json(capsys, ["validate", str(path), "--json"])
    assert code == 1
    assert report["checks"][0]["status"] == "fail"


def test_validate_failure_with_a_unary_map(tmp_path, capsys):
    # a unary line does not hide the failing triple from validate; every
    # other subcommand still refuses the table as input
    path = tmp_path / "bad.sgp"
    path.write_text("2\n0 0\n1 0\nunary: 0 1\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "(1*0)*1 != 1*(0*1)\n"
    code, report = run_json(capsys, ["validate", str(path), "--json"])
    assert code == 1
    assert report["checks"] == [
        {"name": "associativity", "status": "fail", "detail": "(1*0)*1 != 1*(0*1)"}
    ]
    assert main(["epi", str(path)]) == 2
    assert capsys.readouterr().err == "error: (1*0)*1 != 1*(0*1)\n"


def test_validate_malformed_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "trailing.sgp"
    path.write_text("1\n0\nunary: 0\nunary: 0\n")
    assert main(["validate", str(path)]) == 2
    assert "unexpected line after the unary map" in capsys.readouterr().err
    # a short row is refused by the parser, before any associativity test
    path.write_text("2\n0 0\n0\n")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: row 1 has 1 entries, expected 2\n")


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent.sgp"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_green_json(corpus_file, capsys):
    code, report = run_json(capsys, ["green", corpus_file("w_not_v1.sgp"), "--json"])
    assert code == 0
    data = report["data"]
    assert data["idempotents"] == [1, 2, 3]
    assert len(set(data["h_class"])) == 4


def test_green_eggbox_text(corpus_file, capsys):
    assert main(["green", corpus_file("left_zero2.sgp")]) == 0
    out = capsys.readouterr().out
    assert "D-class" in out and "0*" in out and "1*" in out


def test_epi_json(corpus_file, capsys):
    code, report = run_json(capsys, ["epi", corpus_file("w_not_v1.sgp"), "--json"])
    assert code == 0
    assert report["data"]["pseudoinverse"] == [2, 1, 2, 3]
    assert report["data"]["index"] == [2, 1, 1, 1]
    assert all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize("argv, stdout", [
    (["green", "right_zero2.sgp"],
     "D-class 0:\n  | 0* | 1* |\nidempotents: [0, 1]\ngroup H-classes: [0, 1]\n"),
    (["epi", "w_not_v1.sgp"],
     "index: [2, 1, 1, 1]\npseudoinverse: [2, 1, 2, 3]\n"
     "pass  x'*x*x' = x'\npass  x*x' = x'*x\npass  x''' = x'\npass  x*x'*x = x''\n"
     "pass  (x*y)'*x = x*(y*x)'\npass  (x*x)' = x'*x'\npass  (x*x*x)' = x'*x'*x'\n"),
    (["conjugacy", "s3.sgp"],
     "1 0 0 0 0 0\n0 1 0 1 1 0\n0 0 1 0 0 1\n0 1 0 1 1 0\n0 1 0 1 1 0\n0 0 1 0 0 1\n"
     "transitive: True\nclasses: [[0], [1, 3, 4], [2, 5]]\n"),
    (["conjugacy", "nontransitive.sgp"],
     "1 1 1 0\n1 1 0 0\n1 0 1 0\n0 0 0 1\n"
     "transitive: False\nwitness: (1, 0, 2)\nclasses: [[0, 1, 2], [3]]\n"),
    (["variant", "z3.sgp", "--at", "1", "--unary"], "3\n1 2 0\n2 0 1\n0 1 2\nunary: 1 0 2\n"),
    # each model, then a blank line
    (["enumerate", "--order", "2"],
     "2\n0 0\n0 0\nunary: 0 0\n\n2\n0 0\n0 1\nunary: 0 1\n\n2\n0 0\n1 1\nunary: 0 1\n\n"
     "2\n0 1\n0 1\nunary: 0 1\n\n2\n0 1\n1 0\nunary: 0 1\n\n"),
    (["enumerate", "--order", "2", "--free-unary", "--count-only"], "18\n"),
    # one line a check, its seconds masked
    (["verify-paper"], "".join(f"PASS {name}: {detail} (…s)\n" for name, _, detail in PAPER_DETAILS)),
    (["variant", "z3.sgp", "--at", "1"], "3\n1 2 0\n2 0 1\n0 1 2\n"),
])
def test_text_output(corpus_file, tmp_path, capsys, argv, stdout):
    # a file argument names a corpus table, or the non-transitive one above
    nontransitive = tmp_path / "nontransitive.sgp"
    nontransitive.write_text(NONTRANSITIVE)
    files = {nontransitive.name: str(nontransitive)}
    argv = [files.get(a) or corpus_file(a) if a.endswith(".sgp") else a for a in argv]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert re.sub(r" \(\d+\.\ds\)$", " (…s)", out, flags=re.M) == stdout
    assert err == ""


def test_variety_pass_and_fail(corpus_file, capsys):
    path = corpus_file("w_not_v1.sgp")
    code, report = run_json(capsys, ["variety", path, "--test", "E2,W", "--json"])
    assert code == 0
    assert [c["status"] for c in report["checks"]] == ["pass", "pass"]
    code, report = run_json(capsys, ["variety", path, "--test", "V1", "--json"])
    assert code == 1
    check = report["checks"][0]
    assert check["status"] == "fail"
    assert check["counterexample"] == {"x": 0, "y": 1}


def test_variety_adhoc_identity(corpus_file, capsys):
    path = corpus_file("z3.sgp")
    code, report = run_json(capsys, ["variety", path, "--identity", "x*y = y*x", "--json"])
    assert code == 0
    code, _ = run_json(capsys, ["variety", corpus_file("s3.sgp"), "--identity", "x*y = y*x", "--json"])
    assert code == 1
    # a term nested past the parser's bound is an input error
    for term in ["x^995", *DEEP_TERMS]:
        assert main(["variety", path, "--identity", f"{term} = x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: term nested deeper than 500 levels in ")
    # x^300 nests past Python's bound on brackets; the identity compiler
    # binds its subterms to locals and runs it
    assert main(["variety", path, "--identity", "x^300 = x"]) == 1
    assert capsys.readouterr().out.startswith("fail  x*x*x*")


def test_variety_parses_identity_before_any_test(corpus_file, capsys, monkeypatch):
    # an unreadable --identity is refused before any --test variety runs
    from epivariants import varieties

    calls = []
    in_V = varieties.in_V
    monkeypatch.setattr(varieties, "in_V", lambda s, n: calls.append(n) or in_V(s, n))
    path = corpus_file("z3.sgp")
    assert main(["variety", path, "--test", "V1", "--identity", "x^2000 = x"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: term nested deeper than 500 levels in ")
    assert calls == []
    assert main(["variety", path, "--test", "V1", "--identity", "x = x"]) == 0
    assert calls == [1]


def test_variety_unreadable_exponent_is_input_error(corpus_file, capsys):
    # an exponent in other than ASCII digits, or past int()'s limit on digits,
    # and a term whose powers expand past the size bound are input errors
    path = corpus_file("z3.sgp")
    for term, message in [
        ("x^²", "'^' needs a numeric exponent in "),
        ("x^٣", "'^' needs a numeric exponent in "),
        ("x^" + "9" * 5000, "exponent of 5000 digits is too long in "),
        ("(" * 20 + "x" + ")^2" * 20, f"{WIDE} in "),
    ]:
        assert main(["variety", path, "--identity", f"{term} = x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert "int()" not in captured.err


def test_variety_without_a_test_is_usage_error(corpus_file, capsys):
    for argv in ([], ["--json"], ["--test", " , "]):
        assert main(["variety", corpus_file("z3.sgp"), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: variety needs --test or --identity\n"


def test_variety_w_refuses_another_unary_map(tmp_path, capsys):
    # W's basis reads the pseudoinverse map only, so a file with another map
    # is refused before any test runs; the other varieties read its map
    path = tmp_path / "swap.sgp"
    path.write_text("2\n0 0\n0 1\nunary: 1 0\n")
    for names in ("W", "E1,W"):
        assert main(["variety", str(path), "--test", names]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: W reads only the pseudoinverse map, and {path} carries another unary map\n"
        )
    assert main(["variety", str(path), "--test", "E1"]) == 1
    assert capsys.readouterr().out == "fail  E1  (x'*x*x' = x' at {'x': 0})\n"


def test_variety_unknown_name(corpus_file, capsys):
    # the varieties E_n and V_n start at n = 1, written in ASCII digits;
    # enumerate rejects the same names before it enumerates anything
    for name in ("Q7", "E0", "V0", "E²", "E³", "E٣", "V٣"):
        assert main(["variety", corpus_file("z3.sgp"), "--test", name]) == 2
        assert capsys.readouterr().err.endswith(f"error: unknown variety {name!r}\n")
        assert main(["enumerate", "--order", "7", "--filter", name]) == 2
        assert capsys.readouterr().err.endswith(f"error: unknown filter {name!r}\n")
    # leading zeros included, both commands run such names
    assert main(["variety", corpus_file("z3.sgp"), "--test", "E3,E03,V2"]) == 0
    assert capsys.readouterr().out == "pass  E3\npass  E03\npass  V2\n"
    assert main(["enumerate", "--order", "2", "--filter", "E3,E03,V2", "--count-only"]) == 0
    assert capsys.readouterr().out == "5\n"


def test_variety_past_the_parse_depth(corpus_file, capsys):
    # E_n and V_n whose basis, written out, nests past the parser's bound
    # are input errors in both commands, named by the bound
    path = corpus_file("w_not_v1.sgp")
    for name in ("E2000", "V990", "E500", "V499"):
        message = f"error: the basis of {name} nests terms deeper than the bound of 500 levels\n"
        assert main(["variety", path, "--test", name]) == 2
        assert capsys.readouterr() == ("", message)
        assert main(["enumerate", "--order", "2", "--filter", f"not:{name}"]) == 2
        assert capsys.readouterr() == ("", message)
    # the deepest names accepted run as any other
    assert main(["variety", path, "--test", "E499,V498"]) == 0
    assert capsys.readouterr().out == "pass  E499\npass  V498\n"
    assert main(["enumerate", "--order", "2", "--filter", "E499", "--count-only"]) == 0
    assert capsys.readouterr().out == "5\n"


def test_variant_round_trip(corpus_file, capsys):
    assert main(["variant", corpus_file("z3.sgp"), "--at", "1", "--unary"]) == 0
    model = parse_semigroup(capsys.readouterr().out)
    assert model.base.table == tuple(tuple((x + y + 1) % 3 for y in range(3)) for x in range(3))
    assert model.unary == tuple((1 - x) % 3 for x in range(3))


def test_variant_out_of_range(corpus_file, capsys):
    # the variant builders refuse the sandwich element; the CLI reports it
    for at in ("9", "-1", "3"):
        for unary in ([], ["--unary"]):
            assert main(["variant", corpus_file("z3.sgp"), "--at", at, *unary]) == 2
            assert capsys.readouterr() == ("", f"error: sandwich element {at} out of range\n")


def test_conjugacy_json(corpus_file, capsys):
    code, report = run_json(capsys, ["conjugacy", corpus_file("s3.sgp"), "--json"])
    assert code == 0
    assert report["data"]["transitive"] is True
    assert report["data"]["classes"] == [[0], [1, 3, 4], [2, 5]]


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "--order", "4", "--count-only", "--plain"]) == 0
    assert capsys.readouterr().out.strip() == "188"
    assert main(["enumerate", "--order", "3", "--count-only", "--merge-anti", "--plain"]) == 0
    assert capsys.readouterr().out.strip() == "18"


def test_enumerate_free_unary_count_matches_listing(capsys):
    # the count of models, not of the 5 semigroups they sit on
    assert main(["enumerate", "--order", "2", "--free-unary", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "18"
    assert main(["enumerate", "--order", "2", "--free-unary"]) == 0
    assert capsys.readouterr().out.count("unary:") == 18


def test_enumerate_plain_and_free_unary_exclude_each_other(capsys):
    assert main(["enumerate", "--order", "2", "--plain", "--free-unary"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["E1", "not:V2", "W", "variant_of_CR", "canonical_unary", "not:canonical_unary"]
)
def test_enumerate_plain_rejects_unary_filters(capsys, name):
    # order 7 is over the enumeration cap: the filter is rejected first
    assert main(["enumerate", "--order", "7", "--plain", "--filter", name]) == 2
    assert capsys.readouterr().err == f"error: plain tables carry no unary map for {name}\n"


@pytest.mark.parametrize("name", ["W", "not:W"])
def test_enumerate_free_unary_rejects_w(capsys, name):
    # W's test reads the pseudoinverse map alone; order 7 is over the
    # enumeration cap, so the filter is rejected before any search
    assert main(["enumerate", "--order", "7", "--free-unary", "--filter", name]) == 2
    message = f"free unary maps cannot be filtered by {name}: W reads only the pseudoinverse map"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_enumerate_filtered_count(capsys):
    code = main(["enumerate", "--order", "3", "--filter", "not:completely_regular", "--count-only"])
    assert code == 0
    n = int(capsys.readouterr().out.strip())
    code = main(["enumerate", "--order", "3", "--filter", "completely_regular", "--count-only"])
    assert code == 0
    assert n + int(capsys.readouterr().out.strip()) == 24


def test_enumerate_out_manifest(tmp_path, capsys):
    out = tmp_path / "models"
    code = main(["enumerate", "--order", "2", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["order"] == 2 and len(manifest["models"]) == 5
    digests = set()
    for entry in manifest["models"]:
        model = parse_semigroup((out / entry["file"]).read_text())
        assert model.unary == pseudoinverse_map(model.base).unary
        digests.add(entry["canonical_sha256"])
    assert len(digests) == 5


def test_enumerate_out_onto_a_file_is_usage_error(tmp_path, capsys):
    out = tmp_path / "models"
    out.write_text("kept\n")
    assert main(["enumerate", "--order", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 17] File exists")
    assert str(out) in captured.err
    assert out.read_text() == "kept\n"


def test_enumerate_out_refuses_a_previous_run(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["enumerate", "--order", "3", "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main(["enumerate", "--order", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err
    # nothing written, nothing removed: 24 models and their manifest
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["order"] == 3 and len(manifest["models"]) == 24
    assert sorted(path.name for path in out.glob("model_*.sgp")) == [
        entry["file"] for entry in manifest["models"]
    ]


def test_enumerate_out_refuses_a_stray_model_and_keeps_other_files(tmp_path, capsys):
    out = tmp_path / "d"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    assert main(["enumerate", "--order", "2", "--out", str(out)]) == 0
    assert (out / "notes.txt").read_text() == "kept\n"
    (out / "manifest.json").unlink()
    assert main(["enumerate", "--order", "2", "--out", str(out)]) == 2
    assert "model_0000.sgp" in capsys.readouterr().err


def test_enumerate_identities_file(tmp_path, capsys):
    path = tmp_path / "idents.txt"
    path.write_text("# commutativity\n  # an indented comment\nx*y = y*x\n")
    code = main(["enumerate", "--order", "2", "--identities", str(path), "--count-only"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "3"


def test_enumerate_over_cap(capsys):
    assert main(["enumerate", "--order", "7", "--count-only", "--plain"]) == 2


@pytest.mark.parametrize("argv", [["enumerate", "--order", "5"], ["verify-paper"]])
def test_closed_stdout_exits_1_quietly(argv):
    # order 5 prints 134,050 bytes, more than a pipe holds, and verify-paper
    # flushes a line as each check finishes: both still write when the reader
    # has gone. Without PYTHONUNBUFFERED stdout is block-buffered, as in a
    # plain shell pipe.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = os.path.dirname(os.path.dirname(epivariants.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "epivariants.cli", *argv]
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


def test_verify_paper_json(capsys):
    code, report = run_json(capsys, ["verify-paper", "--json"])
    assert code == 0
    assert len(report["checks"]) == 10
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_paper_reports_corpus_build(capsys, monkeypatch):
    from functools import lru_cache

    from epivariants import checks

    monkeypatch.setattr(checks, "_corpus", lru_cache(checks._corpus.__wrapped__))
    code, report = run_json(capsys, ["verify-paper", "--json"])
    assert code == 0
    seconds = report["data"]["corpus_seconds"]
    assert isinstance(seconds, float) and seconds >= 0


def test_verify_paper_reports_broken_check(capsys, monkeypatch):
    from epivariants import checks

    def broken():
        return checks.CheckOutcome("group-sanity", False, "forced failure")

    patched = [broken if fn is checks.check_group_sanity else fn for fn in checks.ALL_CHECKS]
    monkeypatch.setattr(checks, "ALL_CHECKS", patched)
    code, report = run_json(capsys, ["verify-paper", "--json"])
    assert code == 1
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["group-sanity"]


def test_verify_paper_reports_census_failure(capsys, monkeypatch):
    # a census mismatch is one failed check, and the other nine still run
    from epivariants import checks

    refs = checks.V1_CENSUS_REFERENCES
    monkeypatch.setattr(checks, "V1_CENSUS_REFERENCES", (refs[0], refs[0], refs[2]))
    code, report = run_json(capsys, ["verify-paper", "--json"])
    assert code == 1
    assert len(report["checks"]) == 10
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["v1-census"]
    assert failed[0]["detail"].startswith("matching {")
    assert failed[0]["detail"].endswith("is not a bijection")


@pytest.mark.parametrize("text, message", [
    ("x\n0\n", "line 1: order 'x' is not an integer"),
    ("# a comment\n2\n0 1\n1 0.5\n", "line 4: '0.5' is not an integer"),
    ("1\n0\nunary: y\n", "line 3: 'y' is not an integer"),
    ("2\n0 0\n0 0_1\n", "line 3: '0_1' is not an integer"),
    ("2\n0 0\n0 ١\n", "line 3: '١' is not an integer"),
    ("0_2\n0 0\n0 0\n", "line 1: order '0_2' is not an integer"),
    ("2\n0 0\n0 0\nunary: 0 0_1\n", "line 4: '0_1' is not an integer"),
])
def test_validate_non_integer_is_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.sgp"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_enumerate_missing_identities_file(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["enumerate", "--order", "2", "--identities", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory")
    assert str(missing) in err


def test_enumerate_unparsable_identity(tmp_path, capsys):
    path = tmp_path / "idents.txt"
    path.write_text("x*y = y*x\nx =\n")
    assert main(["enumerate", "--order", "2", "--identities", str(path)]) == 2
    message = f"error: {path}, line 2: unexpected end of term in ''\n"
    assert capsys.readouterr().err == message
    # a term nested past the parser's bound is refused before it is built
    for term in DEEP_TERMS:
        path.write_text(f"x*y = y*x\n{term} = x\n")
        assert main(["enumerate", "--order", "2", "--identities", str(path)]) == 2
        prefix = f"error: {path}, line 2: term nested deeper than 500 levels in "
        assert capsys.readouterr().err.startswith(prefix)
    # so is an exponent int() cannot read, or a term past the size bound
    for line, message in [
        ("x^" + "9" * 5000 + " = x", "exponent of 5000 digits is too long in "),
        ("x^² = x", "'^' needs a numeric exponent in "),
        ("(" * 20 + "x" + ")^2" * 20 + " = x", f"{WIDE} in "),
        # the primes that nested powers copy count towards the size too
        ("(" * 13 + "x" + "'" * 470 + ")^2" * 13 + " = x", f"{WIDE} in "),
    ]:
        path.write_text(f"{line}\nx*y = y*x\n")
        assert main(["enumerate", "--order", "2", "--identities", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}, line 1: {message}")


def test_enumerate_undecodable_identities_file(tmp_path, capsys):
    path = tmp_path / "idents.txt"
    path.write_bytes(b"x*y = y*x\n\xff\xfe\n")
    assert main(["enumerate", "--order", "2", "--identities", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
