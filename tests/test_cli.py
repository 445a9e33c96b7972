import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import chernrep
import chernrep.cli as cli
from chernrep import filtration_check, graded
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
    for rep in ("std", "std "):
        assert run_cli(["chern", "GL2", rep]) == (0, "1 + x1 + x2 + x1*x2\n", "")


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
    assert run_cli(["rewrite", "GL2", "x1+x2 "]) == (0, "I1\n", "")
    assert run_cli(["rewrite", "GL2", "x1*-x2^2 + x1*x2^2"]) == (0, "0\n", "")


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
    monkeypatch.setattr(filtration_check, "verify_prop", lambda *a, **k: failing)
    code, out, err = run_cli(["check-prop", "GL2", "--p-max", "1", "--degree", "2"])
    assert code == 3
    assert "FAIL" in out
    assert "error[verify-failed]" in err


_HUGE = "9" * 5000  # past the interpreter's default limit on int <-> str conversion


def _run_both(argv):
    """run_cli(argv), checked to give the exit code, stdout and stderr of a
    fresh `python -m chernrep`, each run ending within a second."""
    start = time.monotonic()
    result = run_cli(argv)
    middle = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "chernrep", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert middle - start < 1.0 and time.monotonic() - middle < 1.0
    assert result == (proc.returncode, proc.stdout, proc.stderr)
    return result


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
    limit = sys.get_int_max_str_digits()
    for argv, at in [
        (["adams", "-k", "2", "T1", f"weights[[{_HUGE}]]"], " (at position 9)"),
        (["rewrite", "GL1", f"x1^2*{_HUGE}"], " (at position 5)"),
        (["rewrite", "GL1", f"x{_HUGE}"], " (at position 0)"),
        (["chern", f"GL{_HUGE}", "std"], ""),
    ]:
        message = f"integer literal of 5000 digits past the limit of {limit} digits{at}"
        assert _run_both(argv) == (1, "", f"error[parse]: {message}\n")


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
    # 1/1600! has a denominator of 4,434 digits, printed as text or as JSON
    for flags in ([], ["--json"]):
        code, out, err = _run_both(["ch", "GL1", "std", "--max-degree", "1600", *flags])
        assert code == 2 and out == "" and err.startswith("error[model-size]: ")
        assert f"limit of {sys.get_int_max_str_digits()} digits" in err


def test_generator_basis_refusals_come_before_any_work(monkeypatch):
    """The torus and non-invariance refusals of --basis generators are
    made before the total Chern class is formed."""

    def forbidden(x, d):
        raise AssertionError("total_chern called")

    monkeypatch.setattr(graded, "total_chern", forbidden)
    rep = "ext(3,std) + weights[[1,0,0,0,0,0]]"
    argv = ["chern", "GL6", rep, "--max-degree", "10", "--basis", "generators"]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "") and err.startswith("error[not-invariant]: ")
    code, out, err = run_cli(["chern", "T2", "weights[[1,0]]", "--basis", "generators"])
    assert (code, out) == (2, "") and err.startswith("error[no-generators]: ")


def test_help_exits_zero():
    code, out, err = run_cli(["--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: chernrep [-h]") and "check-prop" in out
    code, out, err = run_cli(["chern", "--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: chernrep chern [-h]") and "--basis" in out


def test_help_text_matches_the_command_line(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["--help"], ["check-prop", "--help"]):
        proc = subprocess.run(
            [sys.executable, "-m", "chernrep", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert run_cli(argv) == (0, proc.stdout, "")


def test_one_parser_serves_every_run_of_a_process(monkeypatch):
    """Help, a usage error, a parse error and a valid call, run in one
    process each with its own streams, give the exit code, stdout and
    stderr of a fresh `python -m chernrep`; the parser is built by the
    first run, not at import, and kept."""
    monkeypatch.setenv("COLUMNS", "80")
    calls = (
        ["--help"],
        ["chern", "--help"],
        ["lambda", "GL2", "std"],
        ["chern", "GL2", "ext(2,"],
        ["lambda", "-p", "2", "GL3", "std"],
        ["--help"],
    )
    first = None
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "chernrep", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert run_cli(argv) == (proc.returncode, proc.stdout, proc.stderr)
        first = first or cli._parser
        assert first is not None and cli._parser is first
    assert [run_cli(argv)[0] for argv in calls] == [0, 0, 1, 1, 0, 0]
    proc = subprocess.run(
        [sys.executable, "-c", "import chernrep.cli as cli; print(cli._parser)"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.stdout == "None\n"


def test_help_goes_to_sys_stdout_by_default(capsys):
    assert cli.run(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: chernrep [-h]") and captured.err == ""


def test_dense_generator_basis_ends_within_a_second():
    """`chern SO7 'std*std' --basis generators` (degree 49, 1,304 terms) as a
    fresh process keeps the one-second CLI contract and its stdout."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "chernrep", "chern", "SO7", "std*std", "--basis", "generators"],
        capture_output=True, env=_child_env(), timeout=60,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.md5(proc.stdout).hexdigest() == "c16f05856293ad43ece14df763e0287d"
    assert elapsed < 1.0


def _child_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(chernrep.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _imports(*args):
    """The modules a fresh `python *args` imports, read off -X importtime,
    and the finished process."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}, proc


def _child(code, *argv):
    """Run `python -c code argv...` with chernrep importable; the JSON value
    it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_TRACER_PROBE = """
import io, json, sys
import chernrep.cli
layers = sorted(n for n in sys.modules if n.startswith("chernrep."))
sys.path.insert(0, sys.argv[1])
import tracer
recorder = tracer.Recorder()
tracer.install(recorder)
wrapped = {n for n in layers for v in vars(sys.modules[n]).values()
           if getattr(getattr(v, "__wrapped__", None), "__module__", None) == n}
model = chernrep.filtration_check.TruncatedAlgebra
methods = [m for m in vars(model) if hasattr(getattr(model, m), "__wrapped__")]
chernrep.cli.run(["chern", "GL2", "std"], io.StringIO(), io.StringIO())
chernrep.cli.run(["check-prop", "GL3", "--p-max", "4", "--degree", "4"], io.StringIO(), io.StringIO())
spans = {span[0] for span in recorder.spans}
print(json.dumps([layers, sorted(wrapped), sorted(methods), sorted(spans)]))
"""


def test_start_up_imports_no_dataclasses_or_json():
    bare, _ = _imports("-c", "pass")
    loaded, _ = _imports("-c", "import chernrep.cli")
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}
    assert not heavy & (loaded - bare)
    # perfbench/tracer.py reads sys.modules["chernrep.<layer>"] for every
    # layer right after `import chernrep.cli`, and wraps what it finds there.
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    layers, wrapped, methods, spans = _child(_TRACER_PROBE, perfbench)
    traced = {f"chernrep.{layer}" for layer in ("cli", "parsing", "reps", "char_ring", "graded",
                                                "invariants", "weyl", "filtration_check")}
    assert traced <= set(layers) and traced <= set(wrapped)
    assert methods == ["invariant_subspace", "multiply", "reduce"]
    assert {"weyl.parse_group", "graded.total_chern"} <= set(spans)
    assert {"filtration_check.multiply", "filtration_check.invariant_subspace"} <= set(spans)
    loaded, proc = _imports("-m", "chernrep", "chern", "GL2", "std")
    assert proc.stdout == "1 + x1 + x2 + x1*x2\n"
    assert "json" not in loaded - bare
    loaded, proc = _imports("-m", "chernrep", "chern", "GL2", "std", "--json")
    assert json.loads(proc.stdout)["basis"] == "monomials"
    assert "json" in loaded | bare


_LOAD_PROBE = """
import io, json, sys, types
import chernrep.cli
code = chernrep.cli.run(sys.argv[1:], io.StringIO(), io.StringIO())
ran = sorted(n.split(".")[1] for n, m in sys.modules.items()
       if n.startswith("chernrep.") and type(m) is types.ModuleType)
print(json.dumps([code, ran, "fractions" in sys.modules]))
"""


def test_each_subcommand_runs_only_the_layers_it_reaches():
    """A layer that has not run is still a lazy module in sys.modules; -X
    importtime does not list the layers that a lazy module runs."""
    common = {"cli", "errors", "weyl", "char_ring"}
    reps = common | {"parsing", "reps"}
    cases = [
        (["lambda", "-p", "2", "GL3", "std"], reps, False),
        (["adams", "-k", "2", "GL3", "std"], reps, False),
        (["chern", "GL2", "std"], reps | {"graded"}, True),
        (["ch", "GL2", "std"], reps | {"graded"}, True),
        (["rewrite", "GL2", "x1*x2"], reps | {"graded", "invariants"}, True),
        (["chern", "Sp4", "std", "--basis", "generators"], reps | {"graded", "invariants"}, True),
        (["check-prop", "GL2", "--p-max", "2", "--degree", "2"],
         common | {"filtration_check"}, False),
    ]
    for argv, layers, fractions in cases:
        assert _child(_LOAD_PROBE, *argv) == [0, sorted(layers), fractions], argv


def test_passing_check_prop_imports_no_fractions_or_decimal():
    """Only a DIFFER builds the rational witness rows that need Fraction."""
    bare, _ = _imports("-c", "pass")
    for argv in (["GL2", "--p-max", "2", "--degree", "2"], ["SO4", "--p-max", "4", "--degree", "4", "--json"]):
        loaded, proc = _imports("-m", "chernrep", "check-prop", *argv)
        assert "PASS" in proc.stdout or '"pass": true' in proc.stdout
        assert not {"fractions", "decimal", "numbers"} & (loaded - bare), argv


def _readme_layer_table():
    """(argv, layers) for each row of the README table "The layers a call
    runs": the row's example call and the layers it lists."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("The layers a call runs", 1)[1]
    rows = re.findall(r"^\|[^|]*\| `chernrep ([^`]*)` \|([^|]*)\|$", section.split("\n\n", 2)[1], re.M)
    return [(shlex.split(argv), set(re.findall(r"`(\w+)`", layers))) for argv, layers in rows]


def test_readme_layer_table_is_what_each_call_runs():
    table = _readme_layer_table()
    assert len(table) >= 6
    for argv, layers in table:
        _, ran, _ = _child(_LOAD_PROBE, *argv)
        assert set(ran) == layers, argv


_THREAD_PROBE = """
import json, sys, threading
sys.setswitchinterval(1e-6)
from chernrep import parse_group, parse_polynomial, parse_rep, rep_to_character
import chernrep
gl2 = parse_group("GL2")
calls = [
    lambda: str(parse_polynomial("x1^2 + 1/2*x2", 2)),
    lambda: str(rep_to_character(parse_rep("ext(2,std)", gl2), gl2)),
    lambda: str(chernrep.total_chern(rep_to_character(parse_rep("std", gl2), gl2), 2)),
    lambda: str(chernrep.rewrite(parse_polynomial("x1*x2", 2), gl2)),
    lambda: chernrep.verify_prop(gl2, 1, 2).passed,
] * 2
barrier = threading.Barrier(len(calls))
results = [None] * len(calls)
def run(i):
    barrier.wait()
    try:
        results[i] = calls[i]()
    except Exception as exc:
        results[i] = repr(exc)
threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(json.dumps(results))
"""


def test_threads_that_first_reach_a_layer_at_once_see_it_whole():
    """Threads released together onto layers that have not run yet: each
    layer runs once, and every thread waits for it to finish."""
    expected = ["1/2*x2 + x1^2", "[1,1]", "1 + x1 + x2 + x1*x2", "I2", True] * 2
    for _ in range(3):
        assert _child(_THREAD_PROBE) == expected


_LIMIT_PROBE = """
import io, json
from chernrep import errors, invariants
errors.MODEL_DIM_LIMIT = 5
from chernrep.cli import run
from chernrep.graded import SymbolicPolynomial
from chernrep.weyl import GL, GroupSpec
err = io.StringIO()
code = run(["ch", "GL3", "std", "--max-degree", "3"], io.StringIO(), err)
try:
    f = SymbolicPolynomial(3, {(2, 1, 0): 1})
    refused = len(invariants.symmetrize(f, GroupSpec(GL, 3)).terms)
except errors.ChernRepError as exc:
    refused = str(exc)
print(json.dumps([code, err.getvalue(), refused, errors.MODEL_DIM_LIMIT]))
"""


def test_a_limit_set_before_its_layer_runs_is_kept():
    """Assigning a limit on a layer that has not run yet runs the layer
    first, so the layer's code does not reset the limit afterwards; the
    CLI's model guard and `symmetrize`, whose 6 monomials are refused,
    both read the lowered limit."""
    assert _child(_LIMIT_PROBE) == [
        2, "error[model-size]: model dimension 20 exceeds limit 5\n",
        "symmetrized monomial count 6 exceeds limit 5", 5,
    ]


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


def test_check_prop_gl10_ends_in_a_result():
    """|W| = 10!, but check-prop closes no orbit and the model has
    dimension 11.  GL19999 has the largest rank the size guard lets
    through at degree 1; its exponent table once recursed once per slot
    and ended in RecursionError from about GL990 on."""
    for group in ("GL10", "GL19999"):
        start = time.monotonic()
        code, out, err = run_cli(["check-prop", group, "--p-max", "1", "--degree", "1"])
        assert time.monotonic() - start < 1.0
        assert (code, err) == (0, "")
        assert out == (
            f"group {group}  truncation degree 1\n"
            "p=0  dim_gamma_S=2  dim_gamma_R_cap_S=2  equal\n"
            "p=1  dim_gamma_S=1  dim_gamma_R_cap_S=1  equal\n"
            "PASS\n"
        )


def test_check_prop_refuses_a_report_beyond_the_size_guard():
    """One entry per p up to p_max: 10^8 + 1 entries are refused before
    any work; keeping them would need about 20 GB."""
    start = time.monotonic()
    code, out, err = run_cli(["check-prop", "GL2", "--p-max", "100000000", "--degree", "2"])
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error[model-size]: report entry count 100000001 exceeds limit 20000\n"


def test_closed_pipe_ends_quietly():
    """The reader closes stdout after 10 bytes of a 175 KB output, more
    than a pipe buffers: no traceback, exit status 128 + SIGPIPE."""
    argv = [sys.executable, "-m", "chernrep", "lambda", "-p", "5", "SO10", "ext(2,std)"]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()
    )
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert head == b"[5,1,1,1,0"
    assert err == b""
    assert code == 141


FUZZ_GROUPS = [
    "GL1", "GL2", "GL3", "Sp2", "Sp4", "Sp6", "SO2", "SO3", "SO4", "SO5",
    "SO6", "SO7", "T1", "T2", "T3", "SO1", "Sp3", "GL0", "T0",
]
FUZZ_REPS = [
    "std", "dual(std)", "ext(2,std)", "sym(2,std)", "ext(3,std)", "std*std",
    "std - dual(std)", "std + std", "weights[[1]]", "weights[[1,0]]",
    "weights[[1,-1],[0,2]]", "weights[[1,0,0],[0,0,1]]", "std +", "sym(,std)",
]
FUZZ_POLYS = [
    "x1", "x1 + x2", "x1*x2", "x1^2 + x2^2", "x1*x2*x3", "x1^2*x2^2*x3^2",
    "x1 - x2", "1/2", "x1^2 + x2^2 + x3^2", "x4", "x1^",
]


def fuzz_argv(rng):
    """One random call of one of the six subcommands, valid or not."""
    group, rep = rng.choice(FUZZ_GROUPS), rng.choice(FUZZ_REPS)
    i, j = (str(rng.randint(-1, 5)) for _ in range(2))
    flags = ["--json"] if rng.random() < 0.3 else []
    command = rng.choice(["chern", "ch", "adams", "lambda", "check-prop", "rewrite"])
    if command in ("chern", "ch"):
        if rng.random() < 0.7:
            flags += ["--max-degree", i]
        if command == "chern" and rng.random() < 0.5:
            flags += ["--basis", rng.choice(["monomials", "generators"])]
        return [command, group, rep, *flags]
    if command in ("adams", "lambda"):
        return [command, "-k" if command == "adams" else "-p", i, group, rep, *flags]
    if command == "check-prop":
        return [command, group, "--p-max", i, "--degree", j, *flags]
    return [command, group, rng.choice(FUZZ_POLYS), *flags]


def test_fuzzed_calls_keep_the_cli_contract():
    """Every call ends quickly in a documented exit code, with errors as
    error[<code>] lines and nothing escaping cli.run."""
    rng = random.Random(2024)
    for _ in range(300):
        argv = fuzz_argv(rng)
        start = time.monotonic()
        code, _, err = run_cli(argv)
        assert time.monotonic() - start < 1.0, argv
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code:
            assert err.startswith("error["), argv
