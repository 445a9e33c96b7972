import io
import json
import time

import chernrep.cli as cli
from chernrep.filtration_check import PropEntry, PropReport


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_chern_generators_gl2():
    code, out, err = run_cli(
        ["chern", "GL2", "std", "--max-degree", "2", "--basis", "generators"]
    )
    assert code == 0 and err == ""
    assert out.strip() == "1 + I1 + I2"


def test_chern_generators_sp4():
    code, out, _ = run_cli(
        ["chern", "Sp4", "std", "--max-degree", "4", "--basis", "generators"]
    )
    assert code == 0
    assert out.strip() == "1 + I1 + I2"


def test_chern_monomials_default_degree():
    # default --max-degree is the virtual dimension of the input
    code, out, _ = run_cli(["chern", "GL2", "std"])
    assert code == 0
    assert out.strip() == "1 + x1 + x2 + x1*x2"


def test_chern_so8_ext2_generators():
    code, out, _ = run_cli(
        ["chern", "SO8", "ext(2,std)", "--max-degree", "6", "--basis", "generators"]
    )
    assert code == 0
    assert out.strip() == "1 + 6*I1 + 15*I1^2 + 20*I1^3 + 4*I1*I2 - 24*I3"


def test_chern_huge_max_degree():
    # the product stops at the top Chern class, whatever the truncation
    code, out, _ = run_cli(["chern", "GL2", "std", "--max-degree", "100000000"])
    assert code == 0
    assert out.strip() == "1 + x1 + x2 + x1*x2"


def test_unbounded_degree_is_refused_before_any_work():
    # Each would build every degree up to 10^8: ch always, chern once a
    # multiplicity is negative (the inverse series never stops), and the
    # lambda series of a virtual character, which sym(p, R) builds from -R.
    for argv in (
        ["ch", "GL2", "std", "--max-degree", "100000000"],
        ["chern", "T1", "weights[[0]] - weights[[1]]", "--max-degree", "100000000"],
        ["chern", "GL2", "sym(100000000,std)"],
        ["lambda", "-p", "100000000", "GL2", "std - dual(std)"],
    ):
        start = time.monotonic()
        code, out, err = run_cli(argv)
        assert time.monotonic() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error[model-size]: ")


def test_exterior_power_above_dimension_is_zero_at_once():
    start = time.monotonic()
    code, out, err = run_cli(["lambda", "-p", "100000000", "GL2", "std"])
    assert time.monotonic() - start < 1.0
    assert (code, out, err) == (0, "0\n", "")


def test_ch_output():
    code, out, _ = run_cli(["ch", "GL2", "std", "--max-degree", "2"])
    assert code == 0
    assert out.strip() == "2 + x1 + x2 + 1/2*x1^2 + 1/2*x2^2"


def test_adams_output():
    code, out, _ = run_cli(["adams", "-k", "2", "GL2", "std"])
    assert code == 0
    assert out.strip() == "[2,0] + [0,2]"


def test_lambda_output():
    code, out, _ = run_cli(["lambda", "-p", "2", "GL3", "std"])
    assert code == 0
    assert out.strip() == "[1,1,0] + [1,0,1] + [0,1,1]"


def test_rewrite_output():
    code, out, _ = run_cli(["rewrite", "GL2", "x1^2 + x2^2"])
    assert code == 0
    assert out.strip() == "I1^2 - 2*I2"


def test_check_prop_pass():
    code, out, _ = run_cli(["check-prop", "GL2", "--p-max", "3", "--degree", "3"])
    assert code == 0
    assert "PASS" in out
    assert "p=3" in out


def test_check_prop_json():
    code, out, _ = run_cli(
        ["check-prop", "GL2", "--p-max", "2", "--degree", "2", "--json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["group"] == "GL2"
    assert {e["p"] for e in obj["entries"]} == {0, 1, 2}


def test_check_prop_failure_exit_code(monkeypatch):
    failing = PropReport(
        group="GL2",
        d=2,
        entries=(PropEntry(1, 1, 2, False, ((1, 0, 0),)),),
        passed=False,
    )
    monkeypatch.setattr(cli, "verify_prop", lambda *a, **k: failing)
    code, out, err = run_cli(["check-prop", "GL2", "--p-max", "1", "--degree", "2"])
    assert code == 3
    assert "FAIL" in out
    assert "error[verify-failed]" in err


def test_usage_errors_exit_1():
    code, _, err = run_cli(["chern"])
    assert code == 1 and "error[usage]" in err
    code, _, err = run_cli(["adams", "-k", "0", "GL2", "std"])
    assert code == 1 and "error[usage]" in err
    code, _, err = run_cli(["nosuch", "GL2"])
    assert code == 1
    code, _, err = run_cli(["chern", "GL2", "bogus("])
    assert code == 1 and "error[parse]" in err
    code, _, err = run_cli(["chern", "QQ7", "std"])
    assert code == 1 and "error[parse]" in err


def test_torus_std_is_a_parse_error():
    for argv in (["chern", "T2", "std"], ["lambda", "-p", "1", "T3", "ext(2,std)"]):
        code, out, err = run_cli(argv)
        assert code == 1 and out == ""
        assert err.startswith("error[parse]: ") and "standard representation" in err


def test_computation_errors_exit_2():
    code, _, err = run_cli(
        ["chern", "GL2", "weights[[1,0]]", "--basis", "generators"]
    )
    assert code == 2 and "error[not-invariant]" in err
    code, _, err = run_cli(
        ["chern", "T2", "weights[[1,0]]", "--basis", "generators"]
    )
    assert code == 2 and "error[no-generators]" in err
    code, _, err = run_cli(["rewrite", "GL2", "x1 - x2"])
    assert code == 2 and "error[not-invariant]" in err
    code, _, err = run_cli(["check-prop", "T10", "--p-max", "2", "--degree", "10"])
    assert code == 2 and "error[model-size]" in err


def test_help_exits_zero():
    code, _, _ = run_cli(["--help"])
    assert code == 0
    code, _, _ = run_cli(["chern", "--help"])
    assert code == 0


def test_json_outputs_are_deterministic():
    for argv in (
        ["chern", "GL2", "std", "--json"],
        ["chern", "Sp4", "std", "--basis", "generators", "--json"],
        ["ch", "GL2", "std", "--max-degree", "3", "--json"],
        ["adams", "-k", "3", "GL2", "std", "--json"],
        ["lambda", "-p", "1", "GL2", "std", "--json"],
        ["rewrite", "GL2", "x1*x2", "--json"],
        ["check-prop", "Sp4", "--p-max", "2", "--degree", "2", "--json"],
    ):
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)


def test_chern_json_schema():
    code, out, _ = run_cli(["chern", "GL2", "std", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"group", "rep", "max_degree", "basis", "total_chern"}
    for term in obj["total_chern"]:
        assert set(term) == {"exponents", "numerator", "denominator"}


def test_round_trip_through_parsers():
    from chernrep.parsing import parse_character, parse_polynomial

    _, out, _ = run_cli(["ch", "GL2", "std", "--max-degree", "3"])
    poly = parse_polynomial(out.strip(), 2)
    assert poly.coefficient((0, 0)) == 2
    _, out, _ = run_cli(["adams", "-k", "2", "Sp4", "std"])
    x = parse_character(out.strip(), 2)
    assert len(x.terms) == 4
