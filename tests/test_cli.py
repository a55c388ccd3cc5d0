import json
import os

from qflag.cli import main

try:
    import jsonschema
except ImportError:       # pragma: no cover
    jsonschema = None

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "qflag",
                           "schemas", "qflag-report.schema.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
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
    assert code == 2 and "weight" in err
    code, _, err = run_cli(capsys, "rep", "--type", "Z9", "--weight", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "rep", "--type", "A3", "--weight",
                           "2,2,2")
    assert code == 2 and "guard" in err


def test_flag_usage_error(capsys):
    code, _, err = run_cli(capsys, "liouville", "--flag", "B3/2")
    assert code == 2 and "irreducible" in err


def test_e_series_refused_by_default(capsys):
    # catalog lists the E-series flags, module-level operations refuse them
    code, out, _ = run_cli(capsys, "catalog", "--max-rank", "7")
    assert code == 0
    names = {e["name"] for e in json.loads(out)["entries"]}
    assert {"OP2", "F"} <= names
    code, _, err = run_cli(capsys, "rep", "--type", "E6", "--weight",
                           "1,0,0,0,0,0")
    assert code == 2 and "disabled" in err
    code, _, err = run_cli(capsys, "liouville", "--flag", "E6/6",
                           "--depth", "1")
    assert code == 2


def test_rmatrix(capsys):
    code, out, _ = run_cli(capsys, "rmatrix", "--flag", "A1/1")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["ybe"] is True
    assert len(doc["entries"]) == 5


def test_borel_weil_cli(capsys):
    code, out, _ = run_cli(capsys, "borel-weil", "--flag", "A1/1",
                           "--k", "-2:3", "--depth", "4")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    dims = [r["dim"] for r in doc["rows"]]
    assert dims == [0, 0, 1, 2, 3, 4]


def test_borel_weil_word_check_and_crosscheck(capsys):
    code, out, _ = run_cli(capsys, "--word-check", "borel-weil", "--flag",
                           "A1/1", "--k", "0:1", "--depth", "3",
                           "--crosscheck")
    assert code == 0
    doc = json.loads(out)
    assert doc["word_check"]["agree"]
    assert doc["gamma_crosscheck"]["ok"]


def test_borel_weil_opposite(capsys):
    code, out, _ = run_cli(capsys, "borel-weil", "--flag", "A1/1",
                           "--k", "-2:1", "--depth", "3", "--opposite")
    assert code == 0
    doc = json.loads(out)
    assert [r["dim"] for r in doc["rows"]] == [3, 2, 1, 0]


def test_jobs_parallel_rows_match(capsys):
    code, out, _ = run_cli(capsys, "borel-weil", "--flag", "A1/1",
                           "--k", "-1:2", "--depth", "3")
    assert code == 0
    seq = json.loads(out)
    code, out, _ = run_cli(capsys, "--jobs", "2", "borel-weil", "--flag",
                           "A1/1", "--k", "-1:2", "--depth", "3")
    assert code == 0
    par = json.loads(out)
    validate(par)
    assert par == seq
    assert par["ok"]


def test_jobs_parallel_passes_every_option(capsys):
    # depth 4 on B2/1 builds V_(2,2) (dim 81): workers must get --guard too
    args = ["--guard", "100", "borel-weil", "--flag", "B2/1", "--k", "0:1",
            "--depth", "4"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    seq = json.loads(out)
    code, out, _ = run_cli(capsys, "--jobs", "2", *args)
    assert code == 0
    assert json.loads(out) == seq
    assert seq["ok"]


def test_verify_cli_and_exit_codes(capsys):
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
    assert code == 2 and "power" in err


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
    code, _, err = run_cli(capsys, "borel-weil", "--flag", "A1/1",
                           "--k", "3:1", "--depth", "3")
    assert code == 2 and "range" in err


def test_properties_suite_seeded(capsys):
    args = ["--seed", "5", "verify", "--flag", "A1/1", "--suite",
            "properties", "--depth", "2"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 5
    code, out3, _ = run_cli(capsys, "--seed", "6", "verify", "--flag",
                            "A1/1", "--suite", "properties", "--depth", "2")
    assert code == 0 and json.loads(out3)["ok"]


def test_cache_cold_vs_warm_byte_identical(tmp_path, capsys):
    cache = str(tmp_path / "cg")
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    code, stdout1, _ = run_cli(capsys, "--cache", cache, "--json", out1,
                               "verify", "--flag", "A1/1", "--suite",
                               "borel-weil,coordring", "--depth", "3")
    assert code == 0
    assert os.listdir(cache)
    code, stdout2, _ = run_cli(capsys, "--cache", cache, "--json", out2,
                               "verify", "--flag", "A1/1", "--suite",
                               "borel-weil,coordring", "--depth", "3")
    assert code == 0
    assert stdout1 == stdout2
    assert open(out1).read() == open(out2).read() == stdout1


def test_cache_file_without_summands_is_recomputed(tmp_path, capsys):
    cache = str(tmp_path / "cg")
    argv = ("--cache", cache, "borel-weil", "--flag", "A1/1", "--k", "1:2",
            "--depth", "3")
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0
    path = os.path.join(cache, "cg_A1_L2_v1_1_1.json")
    with open(path) as fh:
        doc = json.load(fh)
    del doc["summands"]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want
    with open(path) as fh:
        assert "summands" in json.load(fh)


def test_cache_subcommand(tmp_path, capsys):
    cache = str(tmp_path / "cg")
    run_cli(capsys, "--cache", cache, "coordring", "--flag", "A1/1",
            "--maxdeg", "2", "--depth", "3")
    code, out, _ = run_cli(capsys, "--cache", cache, "cache", "info")
    assert code == 0
    doc = json.loads(out)
    assert doc["files"]
    code, out, _ = run_cli(capsys, "--cache", cache, "cache", "clear")
    assert code == 0
    assert json.loads(out)["cleared"] >= 1
    code, out, _ = run_cli(capsys, "--cache", cache, "cache", "info")
    assert json.loads(out)["files"] == []


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
