"""Every output recorded in perfbench/references.json, replayed through
cli.run: stdout must be byte-identical.  Every case of perfbench/cases.py
that must be refused is replayed too: it must end in its exit code and
`error[<code>]` line, with nothing on stdout.  Both files are only read
here."""

import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

from chernrep.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CASES = json.loads((PERFBENCH / "references.json").read_text())["cases"]


def _benchmark_cases():
    spec = importlib.util.spec_from_file_location("perfbench_cases", PERFBENCH / "cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _benchmark_cases()
REFUSED = [case for case in BENCH.pool() if case.refused]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_reference_stdout(case_id):
    case = CASES[case_id]
    out, err = io.StringIO(), io.StringIO()
    assert run(case["argv"], out=out, err=err) == 0, err.getvalue()
    assert out.getvalue() == case["stdout"]


@pytest.mark.parametrize("case", REFUSED, ids=[case.id for case in REFUSED])
def test_benchmark_refusal(case):
    want_exit, want_code = case.refused
    out, err = io.StringIO(), io.StringIO()
    code = run(list(case.argv), out=out, err=err)
    codes = re.findall(r"^error\[([^\]]+)\]: ", err.getvalue(), re.M)
    assert code in (1, 2) if want_exit == BENCH.ANY else code == want_exit
    assert codes and (want_code == BENCH.ANY or want_code in codes), err.getvalue()
    assert out.getvalue() == ""
