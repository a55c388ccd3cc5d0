"""End-to-end CLI matrix: every suite on every default flag, schema-valid."""

import json
import os

import pytest

from qflag.cli import main

try:
    import jsonschema
except ImportError:       # pragma: no cover
    jsonschema = None

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "qflag",
                           "schemas", "qflag-report.schema.json")

SUITES = ("liouville,borel-weil,coordring,spherical,relations,mixed,central,"
          "gamma,audit,properties,gamma-operator")


@pytest.mark.parametrize("name", ["A1/1", "A2/1", "A2/2", "A3/2", "B2/1",
                                  "C2/2"])
def test_full_suite_matrix(name, capsys):
    code = main(["verify", "--flag", name, "--suite", SUITES])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]
    kinds = [r["kind"] for r in doc["reports"]]
    assert len(kinds) == 11
    if jsonschema is not None:
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        jsonschema.validate(doc, schema)
        for rep in doc["reports"]:
            if rep["kind"] == "gamma_crosscheck":
                # the one report without a header: its bytes are pinned by
                # the CI digests and perfbench's reference as they are
                assert "schema" not in rep
                continue
            jsonschema.validate(rep, schema)


def test_specialized_full_suite(capsys):
    # the whole verification pipeline in exact specialized arithmetic
    code = main(["--q", "729/64", "verify", "--flag", "A2/1", "--suite",
                 "liouville,borel-weil,coordring,relations,mixed,central"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]
    assert all(r["mode"] == "s0=9/4" for r in doc["reports"]
               if "mode" in r)
