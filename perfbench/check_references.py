"""Independent checks of the benchmark's committed references, and of its
own bookkeeping.  Uses sympy (dev only) and never imports chernrep.

    python3 -m pytest -q perfbench/check_references.py

The file name keeps it out of the repository's own test run.

  chern    product of (1 + L_a)^(m_a) over the weights, truncated; a
           --basis generators result is expanded back through the
           classical generators first
  ch       sum of m_a exp(L_a), truncated
  adams    dilation of the weights
  lambda   e_p of the weight multiset
  rewrite  the generators substituted back give the input

check-prop references are seed regression references: they are only
required to report PASS with equal dimensions.
"""

import json
import re
from math import factorial
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from cases import CHAR_OPS_STRATA, WORKLOADS, pool, workload_cases  # noqa: E402
from tracer import layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
REFS = json.loads((HERE / "references.json").read_text())["cases"]

# --- groups and representations, parsed from the argv -------------------


def parse_group(text):
    """(family, torus rank, standard weights)."""
    kind, num = re.fullmatch(r"(GL|Sp|SO|T)(\d+)", text).groups()
    num = int(num)
    if kind == "T":
        return "T", num, None
    if kind == "GL":
        n = num
    else:
        n = num // 2
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if kind == "GL":
        std = unit
    else:
        std = unit + [tuple(-c for c in u) for u in unit]
        if num % 2:
            std.append((0,) * n)
    family = "GL" if kind == "GL" else ("SOeven" if kind == "SO" and num % 2 == 0 else "signed")
    return family, n, std


def char_add(x, y, sign=1):
    out = dict(x)
    for w, m in y.items():
        out[w] = out.get(w, 0) + sign * m
    return {w: m for w, m in out.items() if m}


def char_mul(x, y):
    out = {}
    for a, m in x.items():
        for b, k in y.items():
            w = tuple(i + j for i, j in zip(a, b))
            out[w] = out.get(w, 0) + m * k
    return {w: m for w, m in out.items() if m}


def series_coefficient(x, p, n, kind):
    """Coefficient of y^p in prod_a (1 + y[a])^(m_a) ("ext") or
    prod_a (1 - y[a])^(-m_a) ("sym"), in a sympy polynomial ring.  Weights
    are shifted by B per factor of y so that exponents stay nonnegative."""
    ring, y, *ts = sympy.ring(["y"] + [f"t{i}" for i in range(n)], sympy.ZZ)
    shift = 1 + max((abs(c) for w in x for c in w), default=0)
    acc = ring.one
    for a, m in x.items():
        mono = y
        for t, c in zip(ts, a):
            mono *= t ** (c + shift)
        factor = ring.zero
        for k in range(p + 1):
            c = sympy.binomial(m, k) if kind == "ext" else sympy.binomial(m + k - 1, k)
            factor += int(c) * mono**k
        acc = ring({e: c for e, c in (acc * factor).items() if e[0] <= p})
    return {
        tuple(c - p * shift for c in e[1:]): int(coeff) for e, coeff in acc.items() if e[0] == p
    }


def parse_rep(text, n, std):
    tokens = re.findall(r"weights(\[.*?\]\])|(\d+)|([A-Za-z]+)|(\S)", text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("", "", "", "")

    def take(sym=None):
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if sym is not None:
            assert sym in tok, (sym, tok)
        return tok

    def expr():
        x = term()
        while peek()[3] in ("+", "-"):
            sign = 1 if take()[3] == "+" else -1
            x = char_add(x, term(), sign)
        return x

    def term():
        x = atom()
        while peek()[3] == "*":
            take()
            x = char_mul(x, atom())
        return x

    def atom():
        weights, num, word, sym = take()
        if weights:
            out = {}
            for w in json.loads(weights):
                out[tuple(w)] = out.get(tuple(w), 0) + 1
            return out
        if sym == "(":
            x = expr()
            take(")")
            return x
        if word == "std":
            return {w: 1 for w in std}
        take("(")
        if word == "dual":
            x = expr()
            take(")")
            return {tuple(-c for c in w): m for w, m in x.items()}
        assert word in ("ext", "sym"), word
        p = int(take()[1])
        take(",")
        x = expr()
        take(")")
        return series_coefficient(x, p, n, word)

    x = expr()
    assert pos == len(tokens)
    return x


# --- polynomials --------------------------------------------------------


def poly_ring(n):
    ring, *xs = sympy.ring([f"x{i + 1}" for i in range(n)], sympy.QQ)
    return ring, xs


def truncate(f, d):
    return f.ring({e: c for e, c in f.items() if sum(e) <= d})


def linear_form(xs, a):
    return sum((c * x for c, x in zip(a, xs)), xs[0].ring.zero)


def powers(f, d):
    """f^0 .. f^d (sympy refuses 0**0)."""
    out = [f.ring.one]
    for _ in range(d):
        out.append(out[-1] * f)
    return out


def expected_chern(x, n, d):
    ring, xs = poly_ring(n)
    acc = ring.one
    for a, m in x.items():
        factor = sum(
            (int(sympy.binomial(m, k)) * f for k, f in enumerate(powers(linear_form(xs, a), d))),
            ring.zero,
        )
        acc = truncate(acc * factor, d)
    return acc


def expected_ch(x, n, d):
    ring, xs = poly_ring(n)
    out = ring.zero
    for a, m in x.items():
        out += sum(
            (sympy.Rational(m, factorial(k)) * f for k, f in enumerate(powers(linear_form(xs, a), d))),
            ring.zero,
        )
    return out


def generators(family, n):
    """The classical generators I_1..I_l as ring elements (README)."""
    ring, xs = poly_ring(n)

    def elementary(forms, top):
        es = [ring.one] + [ring.zero] * top
        for f in forms:
            for j in range(top, 0, -1):
                es[j] += es[j - 1] * f
        return es

    if family == "GL":
        return elementary(xs, n)[1:]
    forms = xs + [-v for v in xs]
    es = elementary(forms, 2 * n)
    gens = [es[2 * p] for p in range(1, n + 1)]
    if family == "SOeven":
        pf = ring.one
        for v in xs:
            pf *= v
        gens[n - 1] = pf
    return gens


def terms_from_json(terms):
    """{exponents: coefficient} of a JSON polynomial or generator expression."""
    return {tuple(t["exponents"]): sympy.Rational(t["numerator"], t["denominator"]) for t in terms}


def poly_from_text(text, n):
    ring, _ = poly_ring(n)
    if text == "0":
        return ring.zero
    return ring.from_expr(sympy.parse_expr(text.replace("^", "**")))


def poly_from_json(terms, n):
    ring, _ = poly_ring(n)
    return ring(terms_from_json(terms))


def expand_generators(terms, gens):
    """terms: {generator exponents: coefficient} -> polynomial in x."""
    out = gens[0].ring.zero
    for exps, c in terms.items():
        term = gens[0].ring.one * c
        for g, k in zip(gens, exps):
            term *= g**k
        out += term
    return out


def generator_terms_from_text(text, count):
    syms = sympy.symbols(f"I1:{count + 1}")
    expr = sympy.parse_expr(text.replace("^", "**"), local_dict={str(s): s for s in syms})
    return {tuple(m): c for m, c in sympy.Poly(expr, *syms).terms()}


def char_from_text(text):
    if text == "0":
        return {}
    out = {}
    for piece in text.replace(" - ", " + -").split(" + "):
        sign, mag, body = re.fullmatch(r"(-?)(\d*)\[([-\d,]*)\]", piece).groups()
        out[tuple(int(c) for c in body.split(","))] = (-1 if sign else 1) * int(mag or 1)
    return out


def char_from_json(terms):
    return {tuple(t["weight"]): t["multiplicity"] for t in terms}


# --- the checks ---------------------------------------------------------


def options(argv):
    """Positional arguments and --flags of an argv after the subcommand."""
    pos, opts, rest = [], {}, list(argv[1:])
    while rest:
        a = rest.pop(0)
        if a == "--json":
            opts["json"] = True
        elif a.startswith("-"):
            opts[a.lstrip("-")] = rest.pop(0)
        else:
            pos.append(a)
    return pos, opts


ORACLE_CASES = sorted(cid for cid, r in REFS.items() if r["check"] == "sympy-oracle")


@pytest.mark.parametrize("case_id", ORACLE_CASES)
def test_reference_matches_oracle(case_id):
    ref = REFS[case_id]
    argv, out = ref["argv"], ref["stdout"]
    cmd = argv[0]
    (group, arg), opts = options(argv)
    family, n, std = parse_group(group)
    doc = json.loads(out) if opts.get("json") else None
    text = out.rstrip("\n")

    if cmd == "rewrite":
        given = poly_from_text(arg, n)
        terms = terms_from_json(doc["generators"]) if doc else generator_terms_from_text(text, n)
        assert expand_generators(terms, generators(family, n)) == given
        if doc:
            assert poly_from_json(doc["input"], n) == given
        return

    x = parse_rep(arg, n, std)
    if cmd in ("adams", "lambda"):
        if cmd == "adams":
            k = int(opts["k"])
            want = {tuple(k * c for c in w): m for w, m in x.items()}
        else:
            want = series_coefficient(x, int(opts["p"]), n, "ext")
        got = char_from_json(doc["result"]) if doc else char_from_text(text)
        assert got == want
        return

    d = int(opts["max-degree"]) if "max-degree" in opts else max(sum(x.values()), 0)
    if doc:
        assert doc["max_degree"] == d
    if cmd == "ch":
        got = poly_from_json(doc["chern_character"], n) if doc else poly_from_text(text, n)
        assert got == expected_ch(x, n, d)
        return
    assert cmd == "chern"
    if opts.get("basis") == "generators":
        terms = terms_from_json(doc["total_chern"]) if doc else generator_terms_from_text(text, n)
        got = expand_generators(terms, generators(family, n))
    else:
        got = poly_from_json(doc["total_chern"], n) if doc else poly_from_text(text, n)
    assert got == expected_chern(x, n, d)


@pytest.mark.parametrize("case_id", sorted(cid for cid, r in REFS.items() if r["check"] == "seed-regression"))
def test_check_prop_reference_passes(case_id):
    ref = REFS[case_id]
    assert ref["argv"][0] == "check-prop"
    if "--json" in ref["argv"]:
        doc = json.loads(ref["stdout"])
        assert doc["pass"] is True
        assert all(e["equal"] and e["dim_gamma_S"] == e["dim_gamma_R_cap_S"] for e in doc["entries"])
    else:
        lines = ref["stdout"].splitlines()
        assert lines[-1] == "PASS"
        for line in lines[1:-1]:
            m = re.fullmatch(r"p=\d+  dim_gamma_S=(\d+)  dim_gamma_R_cap_S=(\d+)  equal", line)
            assert m and m.group(1) == m.group(2)


def test_every_case_has_a_reference_or_is_refused():
    assert len({c.id for c in pool()}) == len(pool())
    assert set(REFS) == {c.id for c in pool() if not c.refused}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_orders_the_same_cases_the_same_way(workload):
    assert workload_cases(workload, 7) == workload_cases(workload, 7)
    if workload != "char-ops":
        assert sorted(c.id for c in workload_cases(workload, 7)) == sorted(
            c.id for c in workload_cases(workload, 8)
        )


def test_char_ops_draws_each_stratum_its_count():
    cases = workload_cases("char-ops", 3)
    for count, stratum in CHAR_OPS_STRATA:
        assert sum(c in stratum for c in cases) == count


def test_self_time_subtracts_direct_children():
    def span(name, start, end, parent, **counts):
        return dict(name=name, start=start, end=end, parent=parent, case=0, **counts)

    spans = [
        span("cli.run", 0.0, 10.0, -1),
        span("graded.total_chern", 1.0, 9.0, 0),
        span("char_ring.gamma_series", 2.0, 4.0, 1, weights_out=5),
        span("graded.symbol_map", 4.0, 8.0, 1, terms_out=7),
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["graded.total_chern.self_s"] == pytest.approx(2.0)
    assert m["graded.self_s"] == pytest.approx(6.0)
    assert m["char_ring.gamma_series.weights_out"] == 5
    assert m["graded.symbol_map.terms_out"] == 7
    assert m["filtration_check.useful_ratio"] == 0.0
