import hashlib
import io
import random
import time
from fractions import Fraction

import pytest

from chernrep import cli, invariants
from chernrep.errors import InvarianceError, NoCanonicalGeneratorsError, RankMismatchError
from chernrep.graded import SymbolicPolynomial, total_chern
from chernrep.invariants import (
    GeneratorExpression,
    evaluate,
    generator_definitions,
    is_invariant,
    rewrite,
    symmetrize,
)
from chernrep.parsing import parse_polynomial
from chernrep.reps import standard
from chernrep.weyl import (
    GL,
    SO_EVEN,
    SO_ODD,
    SP,
    TORUS,
    GroupSpec,
    invariant_degrees,
    parse_group,
)
from weyl_oracle import oracle_average

rng = random.Random(77)

ALL_FAMILIES = [GL, SP, SO_ODD, SO_EVEN]


def P(rank, terms):
    return SymbolicPolynomial(rank, terms)


def rand_poly(rank, deg=6, nterms=5):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = [0] * rank
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(rank)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
    return P(rank, terms)


def test_is_invariant_examples():
    gl2 = GroupSpec(GL, 2)
    sp4 = GroupSpec(SP, 2)
    s = P(2, {(1, 0): 1, (0, 1): 1})
    d = P(2, {(1, 0): 1, (0, 1): -1})
    assert is_invariant(s, gl2)
    assert not is_invariant(d, gl2)
    assert not is_invariant(s, sp4)
    assert is_invariant(P(2, {(2, 0): 1, (0, 2): 1}), sp4)


def test_generator_definitions_gl2():
    gens = generator_definitions(GroupSpec(GL, 2))
    assert [(n, d) for n, _, d in gens] == [("I1", 1), ("I2", 2)]
    assert gens[0][1] == P(2, {(1, 0): 1, (0, 1): 1})
    assert gens[1][1] == P(2, {(1, 1): 1})


def test_generator_definitions_sp4():
    gens = generator_definitions(GroupSpec(SP, 2))
    assert [(n, d) for n, _, d in gens] == [("I1", 2), ("I2", 4)]
    assert gens[0][1] == P(2, {(2, 0): -1, (0, 2): -1})
    assert gens[1][1] == P(2, {(2, 2): 1})


def test_generator_definitions_so_even_rank2():
    gens = generator_definitions(GroupSpec(SO_EVEN, 2))
    assert [(n, d) for n, _, d in gens] == [("I1", 2), ("I2", 2)]
    assert gens[0][1] == P(2, {(2, 0): -1, (0, 2): -1})
    assert gens[1][1] == P(2, {(1, 1): 1})  # Pfaffian, sign convention +


def elementary_symmetric_all(forms, top):
    """e_0..e_top of a list of polynomials, by the one-pass recurrence."""
    rank = forms[0].rank
    es = [SymbolicPolynomial.one(rank)] + [
        SymbolicPolynomial.zero(rank) for _ in range(top)
    ]
    for form in forms:
        for j in range(top, 0, -1):
            es[j] = es[j] + es[j - 1] * form
    return es


def test_generator_definitions_signed_identity():
    # e_{2p} of the standard weights equals (-1)^p e_p of the squares
    for family in (SP, SO_ODD):
        for rank in (1, 2, 3):
            g = GroupSpec(family, rank)
            gens = generator_definitions(g)
            ys = [
                SymbolicPolynomial.variable(rank, i) ** 2
                for i in range(1, rank + 1)
            ]
            for p in range(1, rank + 1):
                ep = elementary_symmetric_all(ys, rank)[p]
                assert gens[p - 1][1] == ep * (-1) ** p


def test_generator_degrees_by_family():
    assert [d for _, _, d in generator_definitions(GroupSpec(GL, 4))] == [1, 2, 3, 4]
    assert [d for _, _, d in generator_definitions(GroupSpec(SP, 3))] == [2, 4, 6]
    assert [d for _, _, d in generator_definitions(GroupSpec(SO_ODD, 3))] == [2, 4, 6]
    assert [d for _, _, d in generator_definitions(GroupSpec(SO_EVEN, 3))] == [2, 4, 3]
    for family in ALL_FAMILIES:
        for rank in range(1, 6):
            g = GroupSpec(family, rank)
            gens, degrees = generator_definitions(g), invariant_degrees(g)
            assert tuple(d for _, _, d in gens) == degrees
            assert tuple(poly.total_degree() for _, poly, _ in gens) == degrees
    # a torus counts with GL's degrees: its Weyl generators are transpositions
    assert invariant_degrees(GroupSpec(TORUS, 3)) == (1, 2, 3)


def test_generators_are_invariant():
    for family in ALL_FAMILIES:
        g = GroupSpec(family, 3)
        for _, poly, _ in generator_definitions(g):
            assert is_invariant(poly, g)


def test_generator_definitions_torus_rejected():
    with pytest.raises(NoCanonicalGeneratorsError):
        generator_definitions(GroupSpec(TORUS, 2))


def test_generator_expression_checks_terms_like_a_polynomial():
    gl2 = GroupSpec(GL, 2)
    with pytest.raises(TypeError):
        GeneratorExpression(gl2, {(1, 0): 0.5})
    with pytest.raises(RankMismatchError):
        GeneratorExpression(gl2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        GeneratorExpression(gl2, {(-1, 0): 1})
    e = GeneratorExpression(gl2, {(1, 0): Fraction(1, 2), (0, 1): 0, (0, 2): 3})
    assert e.terms == {(1, 0): Fraction(1, 2), (0, 2): Fraction(3)}
    assert all(type(c) is Fraction for c in e.terms.values())


def test_evaluate_examples():
    gl2 = GroupSpec(GL, 2)
    e = GeneratorExpression(gl2, {(0, 0): 1, (1, 0): 1})
    assert evaluate(e) == P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    so4 = GroupSpec(SO_EVEN, 2)
    sq = GeneratorExpression(so4, {(0, 2): 1})
    assert evaluate(sq) == P(2, {(2, 2): 1})


def test_rewrite_power_sum_gl2():
    gl2 = GroupSpec(GL, 2)
    f = P(2, {(2, 0): 1, (0, 2): 1})
    e = rewrite(f, gl2)
    assert e.terms == {(2, 0): Fraction(1), (0, 1): Fraction(-2)}
    assert evaluate(e) == f
    assert e.to_text() == "I1^2 - 2*I2"


def test_rewrite_total_chern_sp4():
    sp4 = GroupSpec(SP, 2)
    e = rewrite(total_chern(standard(sp4), 4), sp4)
    assert e.terms == {
        (0, 0): Fraction(1),
        (1, 0): Fraction(1),
        (0, 1): Fraction(1),
    }
    assert e.to_text() == "1 + I1 + I2"


def test_rewrite_pfaffian_square():
    so4 = GroupSpec(SO_EVEN, 2)
    f = P(2, {(2, 2): 1})
    e = rewrite(f, so4)
    assert e.terms == {(0, 2): Fraction(1)}
    assert e.to_text() == "I2^2"


def test_rewrite_odd_pfaffian_part():
    so4 = GroupSpec(SO_EVEN, 2)
    pf = P(2, {(1, 1): 1})
    e = rewrite(pf, so4)
    assert e.terms == {(0, 1): Fraction(1)}
    mixed = P(2, {(3, 1): 1, (1, 3): 1})  # (x1^2 + x2^2) * x1x2
    e2 = rewrite(mixed, so4)
    assert evaluate(e2) == mixed


def test_rewrite_requires_invariance():
    with pytest.raises(InvarianceError):
        rewrite(P(2, {(1, 0): 1}), GroupSpec(GL, 2))
    with pytest.raises(InvarianceError):
        rewrite(P(2, {(1, 0): 1, (0, 1): 1}), GroupSpec(SP, 2))


@pytest.mark.parametrize(
    "group,text",
    [
        ("GL2", "x1^3000"),
        ("Sp4", "x1^301*x2^2"),
        ("GL3", "x1^200*x3"),
        ("GL2", "x1^600 + x2^600 + x1^599*x2"),
    ],
)
def test_rewrite_refuses_a_non_invariant_input_at_once(group, text):
    """Each leading term is checked against its images under the Weyl
    generators, so the elimination stops at the first step that shows the
    input is not invariant; x1^600 took 20 s when only a leading exponent
    of no generator monomial stopped it.  In the last input the first
    leading term passes the check and the second does not."""
    g = parse_group(group)
    f = parse_polynomial(text, g.rank)
    start = time.monotonic()
    with pytest.raises(InvarianceError):
        rewrite(f, g)
    assert time.monotonic() - start < 1.0


def test_rewrite_refuses_a_wrong_rank_before_any_work(monkeypatch):
    def unreachable(g):
        raise AssertionError("generators built for a polynomial of the wrong rank")

    monkeypatch.setattr(invariants, "generator_definitions", unreachable)
    with pytest.raises(RankMismatchError):
        rewrite(P(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}), GroupSpec(GL, 2))


def test_rewrite_refuses_every_perturbed_invariant():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def polynomials(g):
        exps = st.tuples(*[st.integers(0, 3)] * g.rank)
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        return st.dictionaries(exps, coeffs, min_size=1, max_size=3).map(
            lambda t: P(g.rank, t)
        )

    groups = st.builds(GroupSpec, st.sampled_from(ALL_FAMILIES), st.integers(1, 3))
    extras = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    refused = []

    @hypothesis.settings(deadline=None, max_examples=150)
    @hypothesis.given(groups.flatmap(lambda g: st.tuples(st.just(g), polynomials(g))),
                      st.sampled_from(["drop", "double", "add"]),
                      st.integers(0, 10**6), extras)
    def run_check(case, edit, pick, extra):
        g, f = case
        f = oracle_average(f, g)
        assert evaluate(rewrite(f, g)) == f
        terms = dict(f.terms)
        if edit == "add":
            e = extra[: g.rank]
            hypothesis.assume(e not in terms)
            terms[e] = 1
        else:
            hypothesis.assume(terms)
            e = sorted(terms)[pick % len(terms)]
            terms[e] = 0 if edit == "drop" else 2 * terms[e]
        bent = P(g.rank, terms)
        if oracle_average(bent, g) == bent:
            # W fixes the edited monomial (GL1, SO2, a constant): still invariant
            assert evaluate(rewrite(bent, g)) == bent
            return
        with pytest.raises(InvarianceError):
            rewrite(bent, g)
        refused.append(edit)

    run_check()
    assert {"drop", "double", "add"} <= set(refused)


def test_rewrite_runs_is_invariant_only_when_the_elimination_stops(monkeypatch):
    calls = []
    check = invariants.is_invariant

    def counted(f, g):
        calls.append(g)
        return check(f, g)

    monkeypatch.setattr(invariants, "is_invariant", counted)
    pins = {tuple(argv): digest for argv, digest in PINNED_STDOUT_MD5}
    for argv in (
        ["chern", "GL6", "ext(3,std)", "--max-degree", "10", "--basis", "generators"],
        ["rewrite", "GL3", "(x1+x2+x3)^60"],
    ):
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(argv, out, err) == 0, err.getvalue()
        assert hashlib.md5(out.getvalue().encode()).hexdigest() == pins[tuple(argv)]
    assert calls == []
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["rewrite", "GL2", "x1"], out, err) == 2
    assert err.getvalue().startswith("error[not-invariant]: ")
    assert out.getvalue() == ""
    assert calls == [GroupSpec(GL, 2)]


def test_rewrite_torus_rejected():
    with pytest.raises(NoCanonicalGeneratorsError):
        rewrite(P(2, {(0, 0): 1}), GroupSpec(TORUS, 2))


def test_rewrite_round_trip_random():
    for family in ALL_FAMILIES:
        for _ in range(40):
            rank = rng.randint(1, 3)
            g = GroupSpec(family, rank)
            f = symmetrize(rand_poly(rank), g)
            e = rewrite(f, g)
            assert evaluate(e) == f


def test_rewrite_total_chern_patterns():
    # GL(l): 1 + I1 + ... + Il
    for rank in range(1, 5):
        g = GroupSpec(GL, rank)
        e = rewrite(total_chern(standard(g), rank), g)
        expected = {(0,) * rank: Fraction(1)}
        for p in range(rank):
            key = tuple(1 if i == p else 0 for i in range(rank))
            expected[key] = Fraction(1)
        assert e.terms == expected
    # Sp(2l), SO(2l+1): 1 + I1 + ... + Il
    for family in (SP, SO_ODD):
        for rank in range(1, 5):
            g = GroupSpec(family, rank)
            e = rewrite(total_chern(standard(g), g.ambient_dim), g)
            expected = {(0,) * rank: Fraction(1)}
            for p in range(rank):
                key = tuple(1 if i == p else 0 for i in range(rank))
                expected[key] = Fraction(1)
            assert e.terms == expected
    # SO(2l): 1 + I1 + ... + I(l-1) + (-1)^l Il^2, top term the Pfaffian square
    for rank in (2, 3, 4):
        g = GroupSpec(SO_EVEN, rank)
        e = rewrite(total_chern(standard(g), g.ambient_dim), g)
        expected = {(0,) * rank: Fraction(1)}
        for p in range(rank - 1):
            key = tuple(1 if i == p else 0 for i in range(rank))
            expected[key] = Fraction(1)
        top = tuple(0 if i < rank - 1 else 2 for i in range(rank))
        expected[top] = Fraction((-1) ** rank)
        assert e.terms == expected
        assert evaluate(e) == total_chern(standard(g), g.ambient_dim)


def test_symmetrize_examples():
    gl2 = GroupSpec(GL, 2)
    x1 = P(2, {(1, 0): 1})
    assert symmetrize(x1, gl2) == P(
        2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    )
    sp4 = GroupSpec(SP, 2)
    assert not symmetrize(x1, sp4)


def test_symmetrize_gl11_is_the_mean_of_the_variables():
    # |W| = 11! is never enumerated: x1 averages over its orbit of 11
    mean = symmetrize(SymbolicPolynomial.variable(11, 1), GroupSpec(GL, 11))
    assert mean == sum(
        (SymbolicPolynomial.variable(11, i) for i in range(1, 12)), P(11, {})
    ) * Fraction(1, 11)


def test_symmetrize_on_a_torus_is_the_identity():
    f = P(2, {(1, 0): 3, (0, 2): Fraction(-1, 2)})
    assert symmetrize(f, GroupSpec(TORUS, 2)) == f


def test_symmetrize_and_is_invariant_match_the_full_group_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def polynomials(g):
        exps = st.tuples(*[st.integers(0, 3)] * g.rank)
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        return st.dictionaries(exps, coeffs, max_size=3).map(lambda t: P(g.rank, t))

    groups = st.builds(GroupSpec, st.sampled_from(ALL_FAMILIES), st.integers(1, 4))
    # an invariant may be perturbed: one orbit member dropped, or doubled
    edits = st.sampled_from(["none", "average", "drop", "double"])

    @hypothesis.settings(deadline=None, max_examples=120)
    @hypothesis.given(groups.flatmap(lambda g: st.tuples(st.just(g), polynomials(g))),
                      edits, st.integers(0, 10**6))
    def run_check(case, edit, pick):
        g, f = case
        if edit != "none":
            f = oracle_average(f, g)
        if edit in ("drop", "double") and f:
            terms = dict(f.terms)
            e = sorted(terms)[pick % len(terms)]
            terms[e] = 0 if edit == "drop" else 2 * terms[e]
            f = P(g.rank, terms)
        average = oracle_average(f, g)
        assert symmetrize(f, g) == average
        assert is_invariant(f, g) == (average == f)

    run_check()


def test_symmetrize_projector():
    for family in ALL_FAMILIES:
        g = GroupSpec(family, 2)
        for _ in range(10):
            f = rand_poly(2, deg=4)
            s = symmetrize(f, g)
            assert is_invariant(s, g)
            assert symmetrize(s, g) == s


# stdout digests of `chernrep <argv>`: the printed text may not change with the
# route that rewrite takes to the unique generator expression
PINNED_STDOUT_MD5 = [
    (["chern", "SO7", "std*std", "--basis", "generators"],
     "c16f05856293ad43ece14df763e0287d"),
    (["chern", "GL5", "sym(3,std)", "--max-degree", "8", "--basis", "generators"],
     "e03f87d334355be750e0b8b72bf13d91"),
    (["chern", "Sp8", "ext(2,std)", "--max-degree", "10", "--basis", "generators"],
     "81bb424ca44201ab5ac553c72a843536"),
    (["chern", "SO8", "std*std", "--max-degree", "12", "--basis", "generators",
      "--json"], "ed98a612e08fc55bb2bab3b952dc8a0a"),
    (["chern", "SO10", "std", "--basis", "generators"],
     "8ef0f63eadb2859398fda519ce9a1de2"),
    (["rewrite", "SO6", "x1*x2*x3*(x1^2+x2^2+x3^2) + 3/7*x1^3*x2^3*x3^3 + 2"],
     "9ea728eb37227b64c12e561447bd6f73"),
    (["rewrite", "SO2", "x1^3 + 2*x1 - 1/3"], "fe2a69bf6dbac0a4e547d0a851bedc8d"),
    (["rewrite", "SO3", "x1^4 - 5*x1^2"], "8c06bdb77af08f0d71e754b499a0a47f"),
    (["rewrite", "GL1", "7*x1^5 - x1"], "1951d8f105b7b8ae447fd57404ed41e7"),
    # dense inputs to rewrite: 8,008 Chern terms, and 1,891 terms of a power
    (["chern", "GL6", "ext(3,std)", "--max-degree", "10", "--basis", "generators"],
     "a095f1a0f8c6707b8d3094f1537be467"),
    (["rewrite", "GL3", "(x1+x2+x3)^60"], "8372fa56f153601b45086607dc691e72"),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED_STDOUT_MD5, ids=[" ".join(a) for a, _ in PINNED_STDOUT_MD5]
)
def test_rewrite_stdout_pinned(argv, digest):
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(argv, out, err) == 0, err.getvalue()
    assert hashlib.md5(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("group", ["GL2", "Sp4"])
def test_rewrite_defect_guard(monkeypatch, group):
    # x1 is not invariant; with the invariance check bypassed the elimination
    # must still stop: for GL2 at x1, whose image x2 is missing, and for Sp4
    # at x1, the leading exponent of no generator monomial
    monkeypatch.setattr(invariants, "is_invariant", lambda f, g: True)
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["rewrite", group, "x1"], out, err) == 2
    assert err.getvalue().startswith("error[defect]: ")
    assert out.getvalue() == ""


def test_rewrite_refuses_a_generator_not_leading_with_unit(monkeypatch):
    # elimination divides by leading coefficients only through their sign,
    # so a generator leading with 2 must end as a defect, not a wrong answer
    defs = invariants.generator_definitions

    def doubled(g):
        (name, poly, deg), *rest = defs(g)
        return [(name, poly * 2, deg), *rest]

    monkeypatch.setattr(invariants, "generator_definitions", doubled)
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["rewrite", "GL2", "x1^2 + x2^2"], out, err) == 2
    assert err.getvalue().startswith("error[defect]: ")
    assert out.getvalue() == ""


def test_rewrite_inverts_evaluate():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def expressions(g):
        exps = st.tuples(*[st.integers(0, 2)] * g.rank).filter(lambda e: sum(e) <= 4)
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        terms = st.dictionaries(exps, coeffs, max_size=4)
        return terms.map(lambda t: GeneratorExpression(g, t))

    groups = st.builds(GroupSpec, st.sampled_from(ALL_FAMILIES), st.integers(1, 4))

    @hypothesis.settings(deadline=None, max_examples=150)
    @hypothesis.given(groups.flatmap(expressions))
    def run_check(e):
        assert rewrite(evaluate(e), e.group) == e

    run_check()


def _sympy_symmetrize_oracle(family, rank, seed):
    """rewrite against sympy's symmetrize: in the x_i for GL, and in
    y_i = x_i^2 with s_p -> (-1)^p I_p for Sp and odd SO."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.polyfuncs import symmetrize as sympy_symmetrize

    local = random.Random(seed)
    g = GroupSpec(family, rank)
    ys = sympy.symbols(f"y1:{rank + 1}")
    gens = sympy.symbols(f"I1:{rank + 1}")
    step = 1 if family == GL else 2
    for _ in range(6):
        terms = {}
        for _ in range(local.randint(1, 4)):
            e = [0] * rank
            for _ in range(local.randint(0, 5)):
                e[local.randrange(rank)] += step
            terms[tuple(e)] = Fraction(local.randint(-4, 4), local.randint(1, 3))
        f = symmetrize(P(rank, terms), g)
        f_in_y = sum(
            (sympy.Rational(c.numerator, c.denominator)
             * sympy.Mul(*[y**(k // step) for y, k in zip(ys, e)])
             for e, c in f.terms.items()),
            sympy.Integer(0),
        )
        sym, remainder, defs = sympy_symmetrize(f_in_y, *ys, formal=True)
        assert remainder == 0
        sign = 1 if family == GL else -1
        expected = sym.subs(
            {s: sign**p * gens[p - 1] for p, (s, _) in enumerate(defs, start=1)},
            simultaneous=True,
        )
        got = sum(
            (sympy.Rational(c.numerator, c.denominator)
             * sympy.Mul(*[I**k for I, k in zip(gens, e)])
             for e, c in rewrite(f, g).terms.items()),
            sympy.Integer(0),
        )
        assert sympy.expand(expected - got) == 0


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_rewrite_matches_sympy_symmetrize_gl(rank):
    _sympy_symmetrize_oracle(GL, rank, seed=rank)


@pytest.mark.parametrize("family", [SP, SO_ODD])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_rewrite_matches_sympy_symmetrize_signed(family, rank):
    _sympy_symmetrize_oracle(family, rank, seed=10 * rank)
