import hashlib
import json
import os
import re
import shlex

import pytest

from qflag.cli import build_parser, main

try:
    import jsonschema
except ImportError:       # pragma: no cover
    jsonschema = None

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "qflag",
                           "schemas", "qflag-report.schema.json")
README_PATH = os.path.join(os.path.dirname(__file__), "..", "README.md")


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:     # argparse's usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def validate(doc):
    if jsonschema is None:
        return
    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    jsonschema.validate(doc, schema)


def test_catalog(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--max-rank", "4")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    names = {e["name"] for e in doc["entries"]}
    assert {"Gr(2,1)", "Q(5)", "L(2)", "Q(8)", "S(4)"} <= names


def test_rep_dump(capsys):
    code, out, _ = run_cli(capsys, "rep", "--type", "A2", "--weight", "1,0")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["dim"] == 3
    assert doc["weights"][0] == [1, 0]
    assert doc["matrices"]["E_1"]
    assert doc["L"] == 3


def test_rep_usage_errors(capsys):
    code, _, err = run_cli(capsys, "rep", "--type", "A2", "--weight", "1")
    assert code == 2
    assert "--weight '1': needs 2 integers, one per node, got 1" in err
    for text in ("1,x", "1.5,0", "1,,0", "-1,0"):
        code, _, err = run_cli(capsys, "rep", "--type", "A2",
                               f"--weight={text}")
        assert code == 2, text
        assert f"--weight {text!r}: needs 2 non-negative integers" in err
    code, _, err = run_cli(capsys, "rep", "--type", "Z9", "--weight", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "rep", "--type", "A3", "--weight",
                           "2,2,2")
    assert code == 2 and "guard" in err


def test_flag_usage_error(capsys):
    code, _, err = run_cli(capsys, "liouville", "--flag", "B3/2")
    assert code == 2 and "irreducible" in err


def test_e_series_built_within_the_guard(capsys):
    # the dimension guard is the one size gate, for the E series as well
    code, out, _ = run_cli(capsys, "catalog", "--max-rank", "7")
    assert code == 0
    names = {e["name"] for e in json.loads(out)["entries"]}
    assert {"OP2", "F"} <= names
    code, out, _ = run_cli(capsys, "rep", "--type", "E6", "--weight",
                           "1,0,0,0,0,0")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["dim"] == 27
    code, out, _ = run_cli(capsys, "rmatrix", "--flag", "E6/1")
    assert code == 0 and json.loads(out)["ybe"] is True
    # depth 1 asks for V_(0,0,0,0,1,0), dim 351
    code, out, err = run_cli(capsys, "liouville", "--flag", "E6/6",
                             "--depth", "1")
    assert code == 2 and "guard" in err and out == ""


def test_rmatrix(capsys):
    code, out, _ = run_cli(capsys, "rmatrix", "--flag", "A1/1")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["ybe"] is True
    assert len(doc["entries"]) == 5


def test_rmatrix_c3_document_pinned(capsys):
    # sha256 of the document from full Kronecker products on V (x) V (x) V;
    # the check on the columns h (x) V (x) V must give the same bytes
    code, out, _ = run_cli(capsys, "rmatrix", "--flag", "C3/3")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["ybe"] is True and doc["dim"] == 14
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d1a752af10d16e738676439a5a09384438efddceae72bf53e227d09be1aa180f"


@pytest.mark.parametrize("flag,digest", [
    ("A2/1", "059e6fe81a808b43a988c3cae719702c00dcb8a34b469243ff3b7eec786cca7a"),
    ("A3/2", "6f2faac1c754c35d0bf002cd57081448d7df6bc2028fb092c08c400b44d05a61"),
])
def test_relations_document_pinned(capsys, flag, digest):
    # sha256 of the document whose relation vectors came from an RREF kept
    # incrementally by SpanBasis; one eliminate call must give the same bytes
    code, out, _ = run_cli(capsys, "relations", "--flag", flag)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_borel_weil_cli(capsys):
    code, out, _ = run_cli(capsys, "borel-weil", "--flag", "A1/1",
                           "--k", "-2:3", "--depth", "4")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    dims = [r["dim"] for r in doc["rows"]]
    assert dims == [0, 0, 1, 2, 3, 4]


def test_borel_weil_word_check_and_crosscheck(capsys, monkeypatch):
    from qflag import peterweyl
    builds = _count_calls(monkeypatch, peterweyl, "build_irreducible")
    code, out, _ = run_cli(capsys, "borel-weil", "--flag", "A1/1", "--k",
                           "0:1", "--depth", "3", "--crosscheck",
                           "--word-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["word_check"]["agree"]
    assert doc["gamma_crosscheck"]["ok"]
    # the second word and the cross-check reuse the algebra's modules
    lams = [args[2] for args in builds]
    assert len(lams) == len(set(lams))


def test_a_failed_crosscheck_is_a_report(capsys, monkeypatch):
    # with a broken tangent route the two kernels disagree: the command
    # still prints its reports, the cross-check's slices with ok false, and
    # exits 1 (a failed check), not 2 (an error)
    from qflag.calculus import Calculus
    monkeypatch.setattr(Calculus, "dbar_at", lambda self, *args, **kw: {})
    code, out, _ = run_cli(capsys, "borel-weil", "--flag", "A1/1", "--k",
                           "0:1", "--depth", "3", "--crosscheck")
    assert code == 1
    doc = json.loads(out)
    validate(doc)
    cross = doc["gamma_crosscheck"]
    assert cross["ok"] is False and not doc["ok"]
    assert cross["slices"] and not all(s["agree"] for s in cross["slices"])
    code, out, _ = run_cli(capsys, "verify", "--flag", "A1/1", "--suite",
                           "gamma")
    assert code == 1
    [rep] = json.loads(out)["reports"]
    assert rep["ok"] is False and rep["slices"] and "error" not in rep


def test_guard_below_one_is_usage_error(capsys, monkeypatch):
    # every module has dimension >= 1, so such a guard would refuse V_0
    # itself: the option is refused by name before any module is built
    from qflag import cli, peterweyl

    def build(*args, **kwargs):
        raise AssertionError("a module was built")

    monkeypatch.setattr(peterweyl, "build_irreducible", build)
    monkeypatch.setattr(cli, "build_irreducible", build)
    for guard in ("0", "00", "-1"):
        for argv in (["verify", "--flag", "A1/1"],
                     ["rep", "--type", "A1", "--weight", "0"]):
            code, out, err = run_cli(capsys, "--guard", guard, *argv)
            assert code == 2 and out == "", (guard, argv)
            assert "argument --guard: expected a positive integer" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "--guard", "1", "rep", "--type", "A1",
                           "--weight", "0")
    assert code == 0 and json.loads(out)["dim"] == 1


def test_borel_weil_opposite(capsys):
    code, out, _ = run_cli(capsys, "borel-weil", "--flag", "A1/1",
                           "--k", "-2:1", "--depth", "3", "--opposite")
    assert code == 0
    doc = json.loads(out)
    assert [r["dim"] for r in doc["rows"]] == [3, 2, 1, 0]


def test_guard_reaches_module_construction(capsys):
    # depth 4 on B2/1 builds V_(2,2) (dim 81), which the default guard refuses
    args = ["borel-weil", "--flag", "B2/1", "--k", "0:1", "--depth", "4"]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and "guard" in err and out == ""
    code, out, _ = run_cli(capsys, "--guard", "100", *args)
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["ok"] and [r["k"] for r in doc["rows"]] == [0, 1]


def test_jobs_is_not_an_option(capsys):
    # --cache and the cache command are gone as well
    for opt in (["--jobs", "2"], ["--jobs=2"], ["--cache", "DIR"],
                ["--cache=DIR"]):
        code, out, err = run_cli(capsys, *opt, "borel-weil", "--flag",
                                 "A1/1", "--k", "0:1", "--depth", "2")
        assert code == 2 and err.startswith("usage:") and out == ""
        # the message names the option, not its value as a command
        name = opt[0].split("=")[0]
        assert f"unrecognized arguments: {name}" in err
        assert "invalid choice" not in err
    code, out, err = run_cli(capsys, "cache", "info")
    assert code == 2 and out == "" and "invalid choice: 'cache'" in err


def test_command_options_refused_elsewhere(capsys):
    # --word-check and --seed belong to the commands that read them
    for argv in (["--word-check", "coordring", "--flag", "A1/1",
                  "--depth", "2"],
                 ["--word-check", "liouville", "--flag", "A1/1",
                  "--depth", "2"],
                 ["--seed", "5", "verify", "--flag", "A1/1", "--suite",
                  "properties", "--depth", "2"],
                 ["coordring", "--flag", "A1/1", "--depth", "2",
                  "--word-check"],
                 ["borel-weil", "--flag", "A1/1", "--k", "0:1",
                  "--depth", "2", "--seed", "5"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "unrecognized arguments" in err, argv
    # an abbreviated global option still parses
    code, out, _ = run_cli(capsys, "--gua", "100", "liouville", "--flag",
                           "A1/1", "--depth", "2")
    assert code == 0 and json.loads(out)["ok"]


def test_verify_cli_and_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "--flag", "A1/1", "--suite",
                           "liouville,borel-weil,coordring,spherical,"
                           "relations,mixed,central,gamma,audit,properties,"
                           "gamma-operator", "--depth", "4")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["ok"] and len(doc["reports"]) == 11
    code, _, err = run_cli(capsys, "verify", "--flag", "A1/1", "--suite",
                           "nonsense")
    assert code == 2

    # refused before the CLI's own suites run
    from qflag import cli

    def ran(*args):
        raise AssertionError("the properties suite ran")

    monkeypatch.setattr(cli, "_property_samples", ran)
    code, out, err = run_cli(capsys, "verify", "--flag", "A1/1", "--suite",
                             "properties,nonsense")
    assert code == 2 and out == "" and "unknown suite 'nonsense'" in err


def test_verify_lists_every_suite_in_the_order_named(capsys):
    # the CLI's own suites are suites like the others: listed, run in their
    # place and given a flag report's header
    header = ("schema", "schema_version", "L", "mode", "word", "name")
    for suite, kinds in (("properties,liouville", ["properties", "liouville"]),
                         ("gamma-operator,mixed",
                          ["gamma_relation_operator", "mixed_commutation"])):
        code, out, _ = run_cli(capsys, "verify", "--flag", "A1/1", "--suite",
                               suite, "--depth", "2")
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["suites"] == suite.split(",")
        assert [r["kind"] for r in doc["reports"]] == kinds
        for rep in doc["reports"]:
            validate(rep)
            assert all(k in rep for k in header), rep["kind"]
            assert rep["flag"] == "A1/1" and rep["mode"] == "symbolic"


def test_verify_without_a_suite_is_usage_error(capsys):
    # a pass that checked nothing must not read as "ok": true
    for suite in (",", "", " , "):
        code, out, err = run_cli(capsys, "verify", "--flag", "A1/1",
                                 "--suite", suite)
        assert code == 2 and out == "" and "suite" in err


def test_specialized_mode_cli(capsys):
    # q = 81/16 has the exact fourth root 3/2 needed for A3 (L = 4)
    code, out, _ = run_cli(capsys, "--q", "81/16", "liouville", "--flag",
                           "A3/2", "--depth", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["mode"] == "s0=3/2"
    # no exact root: usage error
    code, _, err = run_cli(capsys, "--q", "2", "liouville", "--flag", "A1/1",
                           "--depth", "2")
    assert code == 2 and "--q 2" in err and "q^(1/2)" in err


@pytest.mark.parametrize("q,typ,weight,named", [
    ("2", "A2", "1,0", "s = q^(1/3)"),
    ("-4", "A1", "1", "s = q^(1/2)"),
    ("-1", "A1", "1", "s = q^(1/2)"),
    ("-1", "A2", "1,0", "avoid -1, 0 and 1"),
    ("1", "A2", "1,0", "avoid -1, 0 and 1"),
    ("0", "A1", "1", "avoid -1, 0 and 1"),
])
def test_q_refusals_name_the_option(capsys, q, typ, weight, named):
    code, out, err = run_cli(capsys, "--q", q, "rep", "--type", typ,
                             "--weight", weight)
    assert code == 2 and out == ""
    assert f"--q {q}" in err and named in err and "-th" not in err


def test_guard_flag_unlocks_deeper_truncations(capsys):
    # depth 4 on B2/1 needs blocks beyond the default dimension guard
    args = ["verify", "--flag", "B2/1", "--suite",
            "borel-weil,liouville,spherical", "--depth", "4"]
    code, _, err = run_cli(capsys, *args)
    assert code == 2 and "guard" in err
    code, out, _ = run_cli(capsys, "--guard", "100", *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]
    spherical = [r for r in doc["reports"]
                 if r["kind"] == "spherical_decomposition"][0]
    assert [f["weight"] for f in spherical["found"]] == \
        [[0, 0], [0, 2], [2, 0], [0, 4], [2, 2], [4, 0]]


def test_empty_k_range_is_usage_error(capsys):
    for k, named in (("3:1", "--k '3:1'"), ("a:b", "--k 'a:b'")):
        code, out, err = run_cli(capsys, "borel-weil", "--flag", "A1/1",
                                 "--k", k, "--depth", "3")
        assert code == 2 and out == "" and named in err, k


def test_unwritable_json_path_is_usage_error(capsys, monkeypatch, tmp_path):
    # exit 1 means a verification failed; a path that cannot be written is
    # refused by name before any work, and stdout stays empty
    from qflag import cli

    def catalog(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli.cartan, "catalog", catalog)
    for path in (tmp_path / "missing" / "x.json", tmp_path, ""):
        code, out, err = run_cli(capsys, "--json", str(path), "catalog",
                                 "--max-rank", "1")
        assert code == 2 and out == "", path
        assert "argument --json: cannot write" in err, path
    monkeypatch.undo()
    path = tmp_path / "x.json"
    code, out, _ = run_cli(capsys, "--json", str(path), "catalog",
                           "--max-rank", "1")
    assert code == 0 and path.read_text() == out


def test_q_that_is_not_rational_is_usage_error(capsys):
    # exit 1 means a verification failed; a value of q is a usage error
    for q in ("1/0", "one", "2/x"):
        code, out, err = run_cli(capsys, "--q", q, "liouville", "--flag",
                                 "A1/1", "--depth", "2")
        assert code == 2 and out == "" and "not a rational number" in err, q


def test_negative_counts_are_usage_errors(capsys):
    # a negative truncation or degree gives a report about nothing
    for argv in (["liouville", "--flag", "A2/1", "--depth", "-2"],
                 ["relations", "--flag", "A1/1", "--maxdeg", "-1"],
                 ["catalog", "--max-rank", "-3"],
                 ["verify", "--flag", "A1/1", "--depth", "-1"],
                 ["coordring", "--flag", "A1/1", "--depth", "x"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "expected a non-negative integer" in err, argv
    # depth 0 is a truncation: the trivial block alone
    code, out, _ = run_cli(capsys, "liouville", "--flag", "A1/1",
                           "--depth", "0")
    assert code == 0 and json.loads(out)["ok"]


def test_degree_above_the_depth_is_usage_error(capsys):
    # the predicted module of degree k has sum k, outside a smaller depth
    for argv, named in (
            (["borel-weil", "--flag", "A1/1", "--k", "0:3", "--depth", "2"],
             "k = 3 exceeds the depth 2"),
            (["borel-weil", "--flag", "A1/1", "--k", "-3:0", "--depth", "2",
              "--opposite"], "-k = 3 exceeds the depth 2"),
            (["coordring", "--flag", "A1/1", "--maxdeg", "3", "--depth", "2"],
             "maxdeg = 3 exceeds the depth 2"),
            (["coordring", "--flag", "A1/1", "--depth", "0"],
             "maxdeg = 2 exceeds the depth 0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and named in err, argv
    # vanishing degrees fit any depth
    code, out, _ = run_cli(capsys, "borel-weil", "--flag", "A1/1",
                           "--k", "-3:2", "--depth", "2")
    assert code == 0 and [r["dim"] for r in json.loads(out)["rows"]] == \
        [0, 0, 0, 1, 2, 3]


def test_audit_below_depth_one_is_usage_error(capsys):
    # the audit tests the degree-1 blocks, which a depth-0 truncation lacks:
    # it passed on empty blocks
    code, out, err = run_cli(capsys, "verify", "--flag", "A1/1", "--suite",
                             "liouville,audit", "--depth", "0")
    assert code == 2 and out == ""
    assert "the audit degree = 1 exceeds the depth 0" in err
    code, out, _ = run_cli(capsys, "verify", "--flag", "A1/1", "--suite",
                           "audit", "--depth", "1")
    report = json.loads(out)["reports"][0]
    assert code == 0 and report["ok"] and report["blocks_found"]


def test_properties_suite_seeded(capsys):
    args = ["verify", "--flag", "A1/1", "--suite", "properties",
            "--depth", "2", "--seed", "5"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 5
    code, out3, _ = run_cli(capsys, "verify", "--flag", "A1/1", "--suite",
                            "properties", "--depth", "2", "--seed", "6")
    assert code == 0 and json.loads(out3)["ok"]


def test_relations_cli(capsys):
    code, out, _ = run_cli(capsys, "relations", "--flag", "A2/1",
                           "--maxdeg", "3")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["ok"]
    assert doc["relation_dim"] == 3
    assert [r["abstract"] for r in doc["rows"]] == [1, 3, 6, 10]


def test_spherical_cli(capsys):
    code, out, _ = run_cli(capsys, "spherical", "--flag", "B2/1",
                           "--depth", "3")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["ok"]
    assert doc["monoid"] == [[0, 0], [0, 2], [2, 0]]


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_relations_solves_the_braiding_once(capsys, monkeypatch):
    from qflag import coordring
    calls = _count_calls(monkeypatch, coordring, "braiding")
    code, out, _ = run_cli(capsys, "relations", "--flag", "A1/1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["relation_vectors"]
    assert len(calls) == 1


def test_relations_above_the_abstract_degrees_is_usage_error(capsys,
                                                            monkeypatch):
    # refused before the generators and the braiding are built
    from qflag import cli

    def refuse(*args):
        raise AssertionError("quadratic_relations called")

    monkeypatch.setattr(cli, "quadratic_relations", refuse)
    code, out, err = run_cli(capsys, "relations", "--flag", "A1/1",
                             "--maxdeg", "4")
    assert code == 2 and out == "" and "--maxdeg" in err


def test_verify_word_check_reuses_the_suite_report(capsys, monkeypatch):
    from qflag import verify
    calls = _count_calls(monkeypatch, verify, "borel_weil_report")
    code, out, _ = run_cli(capsys, "verify", "--flag", "A1/1", "--suite",
                           "borel-weil", "--depth", "3", "--word-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["word_check"]["agree"]
    # the suite's own report and the one with the second word, both with
    # the suite's kmax = min(DEFAULT_KMAX, depth) = 3 at depth 3
    assert [c[2:4] for c in calls] == [(3, 3), (3, 3)]


def _readme_section(heading):
    with open(README_PATH) as fh:
        text = fh.read()
    return text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _readme_commands():
    """Every command of README's "Command line" block, one argv each."""
    block = _readme_section("Command line").split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()
            if line.strip()]


def test_readme_commands_run(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) == 9
    for argv in commands:
        assert argv[0] == "qflag"
        argv = [a.strip("[]") for a in argv[1:]]
        argv = [str(tmp_path / "out.json") if a == "out.json" else a
                for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert json.loads(out)["schema"] == "qflag-report"
    assert json.loads((tmp_path / "out.json").read_text())["kind"] == "verify"


def test_readme_names_every_global_option():
    section = _readme_section("Command line")
    paragraph = section[section.index("Global flags"):].split("\n\n", 1)[0]
    named = {m.split()[0] for m in re.findall(r"`(--[^`]*)`", paragraph)}
    parser = build_parser()
    options = {o for a in parser._actions for o in a.option_strings
               if o.startswith("--") and o != "--help"}
    assert named == options
