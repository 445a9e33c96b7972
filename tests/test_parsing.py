import random
from fractions import Fraction

import pytest

from chernrep.char_ring import VirtualCharacter
from chernrep.errors import ParseError
from chernrep.graded import SymbolicPolynomial
from chernrep.invariants import GeneratorExpression
from chernrep.parsing import (
    RAdd,
    RDual,
    RExt,
    RMul,
    RStd,
    RSub,
    RSym,
    RWeights,
    parse_character,
    parse_generator_expression,
    parse_polynomial,
    parse_rep,
    rep_to_character,
)
from chernrep.weyl import GL, SO_EVEN, SO_ODD, SP, TORUS, GroupSpec, parse_group

rng = random.Random(808)


def test_parse_group_valid():
    assert parse_group("GL3") == GroupSpec(GL, 3)
    assert parse_group("Sp4") == GroupSpec(SP, 2)
    assert parse_group("SO5") == GroupSpec(SO_ODD, 2)
    assert parse_group("SO4") == GroupSpec(SO_EVEN, 2)
    assert parse_group("SO2") == GroupSpec(SO_EVEN, 1)
    assert parse_group("T2") == GroupSpec(TORUS, 2)


@pytest.mark.parametrize(
    "bad", ["Sp3", "SO1", "T0", "GL0", "gl2", "sp4", "GL", "X5", "GL-1", "SO"]
)
def test_parse_group_invalid(bad):
    with pytest.raises(ParseError):
        parse_group(bad)


def test_parse_rep_std():
    g = parse_group("GL2")
    assert parse_rep("std", g) == RStd()


def test_parse_rep_compound():
    g = parse_group("GL2")
    node = parse_rep("ext(2,std)+dual(std)", g)
    assert node == RAdd(RExt(2, RStd()), RDual(RStd()))


def test_parse_rep_weights():
    g = parse_group("GL2")
    node = parse_rep("weights[[1,0],[0,-1]]", g)
    assert node == RWeights(((1, 0), (0, -1)))
    x = rep_to_character(node, g)
    assert x == VirtualCharacter(2, {(1, 0): 1, (0, -1): 1})


def test_parse_rep_precedence():
    g = parse_group("GL2")
    node = parse_rep("std+std*std", g)
    assert node == RAdd(RStd(), RMul(RStd(), RStd()))
    grouped = parse_rep("(std+std)*std", g)
    assert grouped == RMul(RAdd(RStd(), RStd()), RStd())


def test_rep_nodes_are_immutable_values():
    a, b = RStd(), RDual(RStd())
    assert RStd() == RStd() and hash(RStd()) == hash(RStd())
    assert RExt(2, RStd()) != RSym(2, RStd())
    assert RAdd(a, b) != RSub(a, b) and RSub(a, b) != RMul(a, b)
    assert RAdd(a, b) == RAdd(left=RStd(), right=RDual(RStd()))
    assert hash(RAdd(a, b)) == hash(RAdd(RStd(), RDual(RStd())))
    assert repr(RExt(2, a)) == "RExt(power=2, arg=RStd())"
    assert repr(RWeights(((1,),))) == "RWeights(weights=((1,),))"
    with pytest.raises(AttributeError):
        RExt(2, a).power = 3
    for args, kwargs in [((a,), {}), ((a, b, a), {}), ((a,), {"left": a}), ((a, b), {"up": a})]:
        with pytest.raises(TypeError):
            RAdd(*args, **kwargs)


def test_parse_rep_errors_have_position():
    g = parse_group("GL2")
    with pytest.raises(ParseError) as info:
        parse_rep("ext(2 std)", g)
    assert "position" in str(info.value)
    with pytest.raises(ParseError):
        parse_rep("weights[[1,0,0]]", g)  # rank mismatch
    with pytest.raises(ParseError):
        parse_rep("std +", g)
    with pytest.raises(ParseError):
        parse_rep("spin", g)


def test_rep_evaluation_matches_operations():
    g = parse_group("Sp4")
    x = rep_to_character(parse_rep("ext(2,std)-sym(2,dual(std))", g), g)
    from chernrep.reps import dual, exterior, standard, symmetric

    expected = exterior(standard(g), 2) - symmetric(dual(standard(g)), 2)
    assert x == expected


def rand_poly(rank):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = tuple(rng.randint(0, 3) for _ in range(rank))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        terms[e] = terms.get(e, Fraction(0)) + c
    return SymbolicPolynomial(rank, terms)


def test_polynomial_round_trip():
    for _ in range(60):
        rank = rng.randint(1, 4)
        poly = rand_poly(rank)
        assert parse_polynomial(poly.to_text(), rank) == poly


def test_polynomial_parse_examples():
    assert parse_polynomial("1 + x1 + 1/2*x1^2", 2) == SymbolicPolynomial(
        2, {(0, 0): 1, (1, 0): 1, (2, 0): Fraction(1, 2)}
    )
    assert parse_polynomial("(x1+x2)^2 - 2*x1*x2", 2) == SymbolicPolynomial(
        2, {(2, 0): 1, (0, 2): 1}
    )
    assert parse_polynomial("-x1", 1) == SymbolicPolynomial(1, {(1,): -1})
    with pytest.raises(ParseError):
        parse_polynomial("x3", 2)
    with pytest.raises(ParseError):
        parse_polynomial("1/0", 1)
    with pytest.raises(ParseError):
        parse_polynomial("x1 +", 1)


def test_unary_minus_binds_looser_than_power_everywhere():
    """-x1^2 is -(x1^2) after an operator as at the start, as in Python."""
    x1sq = SymbolicPolynomial(1, {(2,): 1})
    assert parse_polynomial("-x1^2", 1) == -x1sq
    assert parse_polynomial("2*-x1^2", 1) == x1sq * -2
    assert parse_polynomial("x1 - -x1^2", 1) == SymbolicPolynomial(1, {(1,): 1, (2,): 1})
    assert parse_polynomial("-x1^2*-x1^2", 1) == SymbolicPolynomial(1, {(4,): 1})
    assert parse_polynomial("(-x1)^2", 1) == x1sq
    assert parse_polynomial("--x1", 1) == SymbolicPolynomial(1, {(1,): 1})
    g = parse_group("GL2")
    assert parse_generator_expression("I1*-I2^2", g) == GeneratorExpression(
        g, {(1, 2): -1}
    )
    assert not parse_polynomial("x1*-x2^2 + x1*x2^2", 2)


def test_surrounding_whitespace_is_ignored():
    g = parse_group("GL2")
    for text in ("x1+x2 ", "  x1 + x2\t", " x1+x2"):
        assert parse_polynomial(text, 2) == parse_polynomial("x1+x2", 2)
    assert parse_rep("std ", g) == RStd()
    assert parse_character("[1,0] ", 2) == VirtualCharacter(2, {(1, 0): 1})
    with pytest.raises(ParseError):
        parse_polynomial("x1 $", 2)


def rand_char(rank):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        w = tuple(rng.randint(-3, 3) for _ in range(rank))
        terms[w] = terms.get(w, 0) + rng.randint(-3, 3)
    return VirtualCharacter(rank, terms)


def test_character_round_trip():
    for _ in range(60):
        rank = rng.randint(1, 3)
        x = rand_char(rank)
        assert parse_character(x.to_text(), rank) == x


def test_character_parse_examples():
    x = parse_character("2[1,0] + [0,1] - 1[0,0]", 2)
    assert x == VirtualCharacter(2, {(1, 0): 2, (0, 1): 1, (0, 0): -1})
    assert parse_character("0", 2) == VirtualCharacter.zero(2)
    with pytest.raises(ParseError):
        parse_character("[1,0,0]", 2)


def test_generator_expression_round_trip():
    g = parse_group("Sp4")
    e = GeneratorExpression(
        g, {(0, 0): 1, (1, 0): 1, (0, 1): Fraction(-3, 2), (2, 1): 1}
    )
    assert parse_generator_expression(e.to_text(), g) == e
    assert parse_generator_expression("1 + I1 + I2", g) == GeneratorExpression(
        g, {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    )
    with pytest.raises(ParseError):
        parse_generator_expression("I3", g)
