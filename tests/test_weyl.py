import random

import pytest

from chernrep.errors import EnumerationLimitError, RankMismatchError
from chernrep.weyl import (
    GL,
    SO_EVEN,
    SO_ODD,
    SP,
    TORUS,
    GroupSpec,
    SignedPermutation,
    orbit,
    weyl_elements,
    weyl_generators,
    weyl_order,
)

rng = random.Random(2024)


def test_element_counts():
    assert len(weyl_elements(GroupSpec(GL, 3))) == 6
    assert len(weyl_elements(GroupSpec(SP, 2))) == 8
    assert len(weyl_elements(GroupSpec(SO_EVEN, 2))) == 4
    assert len(weyl_elements(GroupSpec(TORUS, 3))) == 1


@pytest.mark.parametrize(
    "family,rank",
    [(GL, 4), (SP, 3), (SO_ODD, 3), (SO_EVEN, 3), (TORUS, 2)],
)
def test_order_formula_matches_enumeration(family, rank):
    g = GroupSpec(family, rank)
    elements = weyl_elements(g)
    assert len(elements) == weyl_order(g)
    assert len(set(elements)) == len(elements)


def test_group_laws():
    for family, rank in [(GL, 3), (SP, 2), (SO_EVEN, 2), (SO_ODD, 2)]:
        g = GroupSpec(family, rank)
        elements = set(weyl_elements(g))
        sample = rng.sample(sorted(elements, key=repr), min(6, len(elements)))
        for w1 in sample:
            assert w1.inverse() in elements
            for w2 in sample:
                assert w1.compose(w2) in elements


def test_act_examples():
    ident = SignedPermutation.identity(2)
    assert ident.act((1, 0)) == (1, 0)
    swap = SignedPermutation((1, 0), (1, 1))
    assert swap.act((1, 0)) == (0, 1)
    flip = SignedPermutation((0, 1), (-1, 1))
    assert flip.act((2, 1)) == (-2, 1)


def test_act_is_linear_and_composition_compatible():
    g = GroupSpec(SP, 3)
    elements = weyl_elements(g)
    for _ in range(50):
        w1, w2 = rng.choice(elements), rng.choice(elements)
        a = tuple(rng.randint(-3, 3) for _ in range(3))
        b = tuple(rng.randint(-3, 3) for _ in range(3))
        assert w1.compose(w2).act(a) == w1.act(w2.act(a))
        summed = tuple(x + y for x, y in zip(a, b))
        assert w1.act(summed) == tuple(
            x + y for x, y in zip(w1.act(a), w1.act(b))
        )


def test_act_rank_mismatch():
    w = SignedPermutation.identity(2)
    with pytest.raises(RankMismatchError):
        w.act((1, 0, 0))


def test_so_even_sign_products():
    for w in weyl_elements(GroupSpec(SO_EVEN, 3)):
        product = 1
        for s in w.signs:
            product *= s
        assert product == 1


def test_orbit_examples():
    assert orbit(GroupSpec(GL, 2), (1, 0)) == {(1, 0), (0, 1)}
    assert orbit(GroupSpec(SP, 2), (1, 0)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert orbit(GroupSpec(SO_EVEN, 2), (0, 0)) == {(0, 0)}


def test_orbit_matches_full_enumeration():
    for family, rank in [(GL, 3), (SP, 2), (SO_EVEN, 2), (SO_ODD, 2)]:
        g = GroupSpec(family, rank)
        for _ in range(10):
            a = tuple(rng.randint(-2, 2) for _ in range(rank))
            brute = {w.act(a) for w in weyl_elements(g)}
            assert orbit(g, a) == brute


def test_generators_generate():
    for family, rank in [(GL, 3), (SP, 2), (SO_EVEN, 3), (SO_ODD, 2)]:
        g = GroupSpec(family, rank)
        gens = weyl_generators(g)
        seen = {SignedPermutation.identity(rank)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for w in frontier:
                for h in gens:
                    c = w.compose(h)
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        assert seen == set(weyl_elements(g))


def test_enumeration_guard():
    with pytest.raises(EnumerationLimitError):
        weyl_elements(GroupSpec(GL, 11))
    with pytest.raises(EnumerationLimitError):
        orbit(GroupSpec(SP, 14), (1,) * 14)


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(GL, 0)
    with pytest.raises(ValueError):
        GroupSpec("E8", 8)
    assert GroupSpec(SP, 2).ambient_dim == 4
    assert GroupSpec(SO_ODD, 2).ambient_dim == 5
    assert GroupSpec(SO_EVEN, 3).ambient_dim == 6
    assert str(GroupSpec(SO_EVEN, 3)) == "SO6"
    assert str(GroupSpec(TORUS, 2)) == "T2"
