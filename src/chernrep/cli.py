"""Command-line front end.

Exit codes: 0 success, 1 usage or expression-syntax error, 2 computation
error (guards, non-invariance, missing generators), 3 verification failure
from check-prop, 141 stdout closed before the output was written.  Errors
are written to stderr as ``error[<code>]: message``.
"""

import argparse
import sys

# Every subcommand runs errors, weyl and char_ring; the other layers are
# lazy modules (see __init__) and run only where a subcommand looks a
# function up on them.
from . import filtration_check, graded, invariants, parsing, reps
from .char_ring import adams as adams_op
from .char_ring import augmentation
from .errors import (
    ChernRepError,
    InvarianceError,
    NoCanonicalGeneratorsError,
    ParseError,
)
from .weyl import TORUS, parse_group


class UsageError(ChernRepError):
    code = "usage"


class _Help(Exception):
    """Help text that `run` writes to its own `out`."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError, and _Help where argparse would print help and
    exit, so that one parser serves every run of the process."""

    def _print_message(self, message, file=None):
        raise _Help(message)

    def error(self, message):
        raise UsageError(message)


_parser = None  # built by the first `run`, not at import


def _build_parser():
    parser = _Parser(prog="chernrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    chern = sub.add_parser("chern", help="total Chern class of a representation")
    chern.add_argument("group")
    chern.add_argument("rep")
    chern.add_argument("--max-degree", type=int, default=None)
    chern.add_argument(
        "--basis", choices=("monomials", "generators"), default="monomials"
    )
    chern.add_argument("--json", action="store_true")

    ch = sub.add_parser("ch", help="Chern character of a representation")
    ch.add_argument("group")
    ch.add_argument("rep")
    ch.add_argument("--max-degree", type=int, default=None)
    ch.add_argument("--json", action="store_true")

    ad = sub.add_parser("adams", help="Adams operation on a character")
    ad.add_argument("-k", type=int, required=True)
    ad.add_argument("group")
    ad.add_argument("rep")
    ad.add_argument("--json", action="store_true")

    lam = sub.add_parser("lambda", help="exterior power of a character")
    lam.add_argument("-p", type=int, required=True)
    lam.add_argument("group")
    lam.add_argument("rep")
    lam.add_argument("--json", action="store_true")

    cp = sub.add_parser("check-prop", help="verify the filtration comparison")
    cp.add_argument("group")
    cp.add_argument("--p-max", type=int, required=True)
    cp.add_argument("--degree", type=int, required=True)
    cp.add_argument("--json", action="store_true")

    rw = sub.add_parser("rewrite", help="express an invariant polynomial in I1..Il")
    rw.add_argument("group")
    rw.add_argument("polynomial")
    rw.add_argument("--json", action="store_true")
    return parser


def _emit_json(obj, out):
    import json  # here, not at the top: only --json output needs it
    print(json.dumps(obj, sort_keys=True, separators=(", ", ": ")), file=out)


def _print_result(args, out, g, value, **fields):
    """Print value as text or, with --json, the object of the group and the
    fields, a field that has `to_json_obj` written as that."""
    if args.json:
        obj = {k: v.to_json_obj() if hasattr(v, "to_json_obj") else v for k, v in fields.items()}
        _emit_json({"group": str(g), **obj}, out)
    else:
        print(value.to_text(), file=out)
    return 0


def _character_for(args, g):
    node = parsing.parse_rep(args.rep, g)
    return parsing.rep_to_character(node, g)


def _degree_for(args, x):
    if args.max_degree is not None:
        if args.max_degree < 0:
            raise UsageError("--max-degree must be >= 0")
        return args.max_degree
    return max(augmentation(x), 0)


def _cmd_chern(args, out, err):
    g = parse_group(args.group)
    x = _character_for(args, g)
    d = _degree_for(args, x)
    if args.basis == "generators":
        if g.family == TORUS:
            raise NoCanonicalGeneratorsError(
                "no canonical generators for a torus; use --basis monomials"
            )
        if not reps.assert_g_rep(x, g):
            raise InvarianceError(
                "character is not Weyl-invariant; --basis generators needs a G-representation"
            )
    poly = graded.total_chern(x, d)
    if args.basis == "generators":
        poly = invariants.rewrite(poly, g)
    return _print_result(
        args, out, g, poly, rep=args.rep, max_degree=d, basis=args.basis, total_chern=poly
    )


def _cmd_ch(args, out, err):
    g = parse_group(args.group)
    x = _character_for(args, g)
    d = _degree_for(args, x)
    poly = graded.symbol_map(x, d)
    return _print_result(args, out, g, poly, rep=args.rep, max_degree=d, chern_character=poly)


def _cmd_adams(args, out, err):
    if args.k < 1:
        raise UsageError("-k must be >= 1")
    g = parse_group(args.group)
    result = adams_op(args.k, _character_for(args, g))
    return _print_result(args, out, g, result, rep=args.rep, k=args.k, result=result)


def _cmd_lambda(args, out, err):
    if args.p < 0:
        raise UsageError("-p must be >= 0")
    g = parse_group(args.group)
    x = _character_for(args, g)  # before the lookup on reps: a refused rep never runs it
    result = reps.exterior(x, args.p)
    return _print_result(args, out, g, result, rep=args.rep, p=args.p, result=result)


def _cmd_check_prop(args, out, err):
    if args.p_max < 0:
        raise UsageError("--p-max must be >= 0")
    if args.degree < 1:
        raise UsageError("--degree must be >= 1")
    g = parse_group(args.group)
    report = filtration_check.verify_prop(g, args.p_max, args.degree)
    if args.json:
        _emit_json(report.to_json_obj(), out)
    else:
        print(f"group {report.group}  truncation degree {report.d}", file=out)
        for e in report.entries:
            flag = "equal" if e.equal else "DIFFER"
            print(
                f"p={e.p}  dim_gamma_S={e.dim_gamma_S}  "
                f"dim_gamma_R_cap_S={e.dim_gamma_R_cap_S}  {flag}",
                file=out,
            )
        print("PASS" if report.passed else "FAIL", file=out)
    if not report.passed:
        for e in report.entries:
            for vec in e.witnesses:
                print(
                    f"error[verify-failed]: p={e.p} ambient vector outside "
                    f"Gamma^{e.p}(S): {[str(v) for v in vec]}",
                    file=err,
                )
        return 3
    return 0


def _cmd_rewrite(args, out, err):
    g = parse_group(args.group)
    f = parsing.parse_polynomial(args.polynomial, g.rank)
    expr = invariants.rewrite(f, g)
    return _print_result(args, out, g, expr, input=f, generators=expr)


_COMMANDS = {
    "chern": _cmd_chern,
    "ch": _cmd_ch,
    "adams": _cmd_adams,
    "lambda": _cmd_lambda,
    "check-prop": _cmd_check_prop,
    "rewrite": _cmd_rewrite,
}


def run(argv, out=None, err=None):
    global _parser
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    _parser = _parser or _build_parser()
    try:
        args = _parser.parse_args(argv)
        return _COMMANDS[args.command](args, out, err)
    except _Help as e:
        out.write(str(e))
        return 0
    except (UsageError, ParseError) as e:
        print(f"error[{e.code}]: {e}", file=err)
        return 1
    except ChernRepError as e:
        print(f"error[{e.code}]: {e}", file=err)
        return 2


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader went away: send what is still buffered to devnull so
        # that the flush at exit cannot fail again, and end with the status
        # a shell gives a program ended by SIGPIPE.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 128 + 13
    sys.exit(code)
