"""Every output recorded in perfbench/references.json, replayed through
cli.run: stdout must be byte-identical.  The file is only read here."""

import io
import json
from pathlib import Path

import pytest

from chernrep.cli import run

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
CASES = json.loads(REFERENCES.read_text())["cases"]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_reference_stdout(case_id):
    case = CASES[case_id]
    out, err = io.StringIO(), io.StringIO()
    assert run(case["argv"], out=out, err=err) == 0, err.getvalue()
    assert out.getvalue() == case["stdout"]
