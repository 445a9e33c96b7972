"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import io
import random
import time
from fractions import Fraction
from itertools import combinations
from math import factorial

import chernrep.cli as cli
from chernrep.char_ring import (
    VirtualCharacter,
    adams,
    augmentation,
    lambda_series,
)
from chernrep.graded import (
    BEYOND_CAP,
    SymbolicPolynomial,
    default_cap,
    filtration_degree,
    symbol_map,
    total_chern,
)
from chernrep.invariants import evaluate, rewrite, symmetrize
from chernrep.filtration_check import TruncatedAlgebra, _gamma_filtration, verify_prop
from chernrep.reps import standard
from chernrep.weyl import GL, SO_EVEN, SO_ODD, SP, GroupSpec, invariant_degrees
from filtration_oracle import ch_subspace, full_box_context
from series_oracle import adams_via_series, chern_class, series_product


def rand_char(rng, rank, max_weights=5, coord=2, mult=2):
    terms = {}
    for _ in range(rng.randint(0, max_weights)):
        w = tuple(rng.randint(-coord, coord) for _ in range(rank))
        terms[w] = terms.get(w, 0) + rng.randint(-mult, mult)
    return VirtualCharacter(rank, terms)


def rand_effective(rng, rank, max_weights=4, coord=2):
    terms = {}
    for _ in range(rng.randint(1, max_weights)):
        w = tuple(rng.randint(-coord, coord) for _ in range(rank))
        terms[w] = terms.get(w, 0) + rng.randint(1, 2)
    return VirtualCharacter(rank, terms)


def test_criterion_1_adams_consistency():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(100):
        x = rand_char(rng, rng.randint(1, 3))
        for k in range(1, 7):
            assert adams_via_series(k, x) == adams(k, x)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1 (adams consistency, {elapsed:.2f}s): PASS")


def test_criterion_2_lambda_ring_axioms():
    rng = random.Random(202)
    start = time.monotonic()
    for _ in range(100):
        r = rng.randint(1, 3)
        x, y = rand_char(rng, r), rand_char(rng, r)
        d = rng.randint(0, 6)
        assert lambda_series(x + y, d) == series_product(lambda_series(x, d), lambda_series(y, d))
    for _ in range(100):
        r = rng.randint(1, 3)
        x, y = rand_char(rng, r), rand_char(rng, r)
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        assert adams(k, x * y) == adams(k, x) * adams(k, y)
        assert adams(k, x + y) == adams(k, x) + adams(k, y)
        assert adams(k, adams(l, x)) == adams(k * l, x)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 2 (lambda-ring axioms, {elapsed:.2f}s): PASS")


def test_criterion_3_adams_congruence():
    rng = random.Random(303)
    checked = 0
    while checked < 50:
        r = rng.randint(1, 3)
        x = rand_char(rng, r)
        x = x - VirtualCharacter.unit(r) * augmentation(x)
        if not x:
            continue
        p = filtration_degree(x, default_cap(x))
        if p == BEYOND_CAP or p > 4:
            continue
        for k in (2, 3):
            diff = adams(k, x) - x * k**p
            q = filtration_degree(diff, p + 1)
            assert q == BEYOND_CAP or q >= p + 1
        checked += 1
    print("criterion 3 (adams congruence): PASS")


def test_criterion_4_whitney_and_split_chern():
    rng = random.Random(404)
    for _ in range(100):
        r = rng.randint(1, 3)
        x, y = rand_effective(rng, r), rand_effective(rng, r)
        d = rng.randint(0, 4)
        assert total_chern(x + y, d) == (
            total_chern(x, d) * total_chern(y, d)
        ).truncate(d)
    for _ in range(100):
        r = rng.randint(1, 3)
        x = rand_effective(rng, r, max_weights=3)
        forms = []
        for w, m in sorted(x.terms.items()):
            forms.extend([SymbolicPolynomial.linear_form(w)] * m)
        for p in range(len(forms) + 1):
            expected = SymbolicPolynomial.zero(r)
            if p == 0:
                expected = SymbolicPolynomial.one(r)
            else:
                for combo in combinations(range(len(forms)), p):
                    term = SymbolicPolynomial.one(r)
                    for i in combo:
                        term = term * forms[i]
                    expected = expected + term
            assert chern_class(x, p) == expected
    print("criterion 4 (whitney and split chern classes): PASS")


def test_criterion_5_chern_character_homomorphism():
    rng = random.Random(505)
    for _ in range(100):
        r = rng.randint(1, 3)
        x, y = rand_char(rng, r), rand_char(rng, r)
        assert symbol_map(x * y, 4) == (
            symbol_map(x, 4) * symbol_map(y, 4)
        ).truncate(4)
    for _ in range(100):
        r = rng.randint(1, 3)
        x = rand_char(rng, r)
        reduced = x - VirtualCharacter.unit(r) * augmentation(x)
        ch = symbol_map(reduced, 5)
        power_sums = {
            q: ch.homogeneous_component(q) * factorial(q) for q in range(1, 6)
        }
        classes = {p: chern_class(x, p) for p in range(6)}
        for q in range(1, 6):
            acc = power_sums[q]
            for i in range(1, q):
                term = classes[i] * power_sums[q - i]
                acc = acc + (term if i % 2 == 0 else -term)
            top = classes[q] * q
            acc = acc + (top if q % 2 == 0 else -top)
            assert not acc
    print("criterion 5 (chern character homomorphism, newton relations): PASS")


def _cli_text(argv):
    out = io.StringIO()
    code = cli.run(argv, out=out, err=io.StringIO())
    assert code == 0, argv
    return out.getvalue().strip()


def leading_term(expr):
    """The term of a generator expression of highest polynomial degree, as
    (exponents, coefficient)."""
    degrees = invariant_degrees(expr.group)
    e = max(expr.terms, key=lambda e: (sum(k * d for k, d in zip(e, degrees)), e))
    return e, expr.terms[e]


def test_criterion_6_classical_group_examples():
    start = time.monotonic()
    for rank in range(1, 5):
        text = _cli_text(
            ["chern", f"GL{rank}", "std", "--basis", "generators"]
        )
        expected = " + ".join(["1"] + [f"I{p}" for p in range(1, rank + 1)])
        assert text == expected
    for prefix, dims in (("Sp", (2, 4, 6)), ("SO", (3, 5, 7))):
        for n in dims:
            rank = n // 2
            text = _cli_text(["chern", f"{prefix}{n}", "std", "--basis", "generators"])
            expected = " + ".join(["1"] + [f"I{p}" for p in range(1, rank + 1)])
            assert text == expected
            group = GroupSpec(SP if prefix == "Sp" else SO_ODD, rank)
            tc = total_chern(standard(group), n)
            for odd in range(1, n + 1, 2):
                assert not tc.homogeneous_component(odd)
    for rank in (2, 3):
        group = GroupSpec(SO_EVEN, rank)
        expr = rewrite(total_chern(standard(group), 2 * rank), group)
        top_exps, top_coeff = leading_term(expr)
        assert top_exps == tuple(0 if i < rank - 1 else 2 for i in range(rank))
        assert abs(top_coeff) == 1
        assert evaluate(expr) == total_chern(standard(group), 2 * rank)
        tc = total_chern(standard(group), 2 * rank)
        for odd in range(1, 2 * rank + 1, 2):
            assert not tc.homogeneous_component(odd)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 6 (classical group reproductions, {elapsed:.2f}s): PASS")


def test_criterion_7_filtration_comparison():
    start = time.monotonic()
    cases = [
        (GroupSpec(GL, 2), 5, 5),
        (GroupSpec(GL, 3), 4, 4),
        (GroupSpec(SP, 2), 4, 4),
        (GroupSpec(SO_ODD, 2), 4, 4),
        (GroupSpec(SO_EVEN, 2), 4, 4),
    ]
    for g, p_max, d in cases:
        report = verify_prop(g, p_max, d)
        assert report.passed, report.to_json_obj()
        model = TruncatedAlgebra(g, d)
        kept = _gamma_filtration(model, model.invariant_subspace(1).rows, p_max)
        full = full_box_context(g, d, d + 1)
        for p in range(p_max + 1):
            assert kept[p] == ch_subspace(model, full[p])
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 7 (filtration comparison + stability, {elapsed:.2f}s): PASS")


def test_criterion_8_rewrite_round_trip():
    rng = random.Random(808)
    start = time.monotonic()
    for family in (GL, SP, SO_ODD, SO_EVEN):
        for _ in range(100):
            rank = rng.randint(1, 3)
            g = GroupSpec(family, rank)
            terms = {}
            for _ in range(rng.randint(1, 5)):
                e = [0] * rank
                for _ in range(rng.randint(0, 6)):
                    e[rng.randrange(rank)] += 1
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
            f = symmetrize(SymbolicPolynomial(rank, terms), g)
            expr = rewrite(f, g)
            assert evaluate(expr) == f
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 8 (rewrite round trip, {elapsed:.2f}s): PASS")
