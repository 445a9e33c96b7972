import copy
import pickle
import random
import time

import pytest

from chernrep.errors import ModelSizeError
from chernrep.graded import SymbolicPolynomial
from chernrep.invariants import symmetrize
from chernrep.weyl import (
    GL,
    SO_EVEN,
    SO_ODD,
    SP,
    TORUS,
    GroupSpec,
    _images,
)
from weyl_oracle import SignedPermutation, compose, inverse, weyl_elements, weyl_order

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
            assert inverse(w1) in elements
            for w2 in sample:
                assert compose(w1, w2) in elements


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
        assert compose(w1, w2).act(a) == w1.act(w2.act(a))
        summed = tuple(x + y for x, y in zip(a, b))
        assert w1.act(summed) == tuple(
            x + y for x, y in zip(w1.act(a), w1.act(b))
        )


def test_so_even_sign_products():
    for w in weyl_elements(GroupSpec(SO_EVEN, 3)):
        product = 1
        for s in w.signs:
            product *= s
        assert product == 1


def test_generators_generate():
    """(n, ..., 1) has a trivial stabilizer, so its closure under the
    generators of `_images` alone has one weight per element of W."""
    for family in (GL, SP, SO_ODD, SO_EVEN):
        for rank in range(1, 5):
            g = GroupSpec(family, rank)
            a = tuple(range(rank, 0, -1))
            closed, frontier = {a}, [a]
            while frontier:
                frontier = [b for v in frontier for b in _images(g, v) if b not in closed]
                closed.update(frontier)
            assert len(closed) == weyl_order(g)
            assert closed == {w.act(a) for w in weyl_elements(g)}


def test_symmetrize_cancels_a_monomial_that_w_negates_at_once():
    """|W| = 2^14 14!: a sign change negates x1*...*x14, so its average
    is 0, found from the exponent without any element of W or orbit."""
    start = time.monotonic()
    assert not symmetrize(SymbolicPolynomial(14, {(1,) * 14: 1}), GroupSpec(SP, 14))
    assert time.monotonic() - start < 1.0


def test_symmetrize_refuses_a_large_output_before_building_it():
    """x1*...*x10 has C(20, 10) = 184,756 arrangements in 20 variables,
    beyond the 20,000 monomials of the size guard."""
    start = time.monotonic()
    with pytest.raises(ModelSizeError, match="184756 exceeds limit 20000"):
        symmetrize(SymbolicPolynomial(20, {(1,) * 10 + (0,) * 10: 1}), GroupSpec(GL, 20))
    assert time.monotonic() - start < 1.0


def test_group_spec_validation():
    with pytest.raises(ValueError, match=r"^rank must be >= 1$"):
        GroupSpec(GL, 0)
    with pytest.raises(ValueError, match=r"^unknown family 'E8'$"):
        GroupSpec("E8", 8)
    with pytest.raises(ValueError, match=r"^unknown family 'XX'$"):
        GroupSpec("XX", 2)
    assert GroupSpec(SP, 2).ambient_dim == 4
    assert GroupSpec(SO_ODD, 2).ambient_dim == 5
    assert GroupSpec(SO_EVEN, 3).ambient_dim == 6
    assert str(GroupSpec(SO_EVEN, 3)) == "SO6"
    assert str(GroupSpec(TORUS, 2)) == "T2"


def test_group_spec_is_an_immutable_value():
    g = GroupSpec(GL, 2)
    assert repr(g) == "GroupSpec(family='GL', rank=2)"
    assert g == GroupSpec(family="GL", rank=2) and hash(g) == hash(GroupSpec("GL", 2))
    assert g != GroupSpec(GL, 3) and g != GroupSpec(SP, 2) and g != ("GL", 2)
    with pytest.raises(AttributeError):
        g.rank = 2
    with pytest.raises(AttributeError):
        del g.rank
    assert copy.deepcopy(g) == g
    assert pickle.loads(pickle.dumps(g)) == g
