import random
from fractions import Fraction

import pytest

from chernrep.errors import InvarianceError, NoCanonicalGeneratorsError
from chernrep.graded import SymbolicPolynomial, total_chern
from chernrep.invariants import (
    GeneratorExpression,
    elementary_symmetric_all,
    evaluate,
    generator_definitions,
    is_invariant,
    rewrite,
    symmetrize,
)
from chernrep.reps import standard
from chernrep.weyl import GL, SO_EVEN, SO_ODD, SP, TORUS, GroupSpec, invariant_degrees

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


def test_symmetrize_projector():
    for family in ALL_FAMILIES:
        g = GroupSpec(family, 2)
        for _ in range(10):
            f = rand_poly(2, deg=4)
            s = symmetrize(f, g)
            assert is_invariant(s, g)
            assert symmetrize(s, g) == s
