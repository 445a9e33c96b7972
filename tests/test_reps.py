import random
from math import comb

import pytest

from chernrep.char_ring import VirtualCharacter, augmentation, lambda_series
from chernrep.reps import assert_g_rep, dual, exterior, standard, symmetric
from chernrep.weyl import GL, SO_EVEN, SO_ODD, SP, TORUS, GroupSpec
from series_oracle import lambda_series_by_products, symmetric_by_inverse

rng = random.Random(99)


def V(rank, terms):
    return VirtualCharacter(rank, terms)


def test_standard_gl3():
    assert standard(GroupSpec(GL, 3)) == V(
        3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    )


def test_standard_so5():
    x = standard(GroupSpec(SO_ODD, 2))
    assert x == V(
        2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1, (0, 0): 1}
    )
    assert augmentation(x) == 5


def test_standard_sp4_and_so4():
    weights = {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    assert standard(GroupSpec(SP, 2)) == V(2, weights)
    assert standard(GroupSpec(SO_EVEN, 2)) == V(2, weights)
    assert augmentation(standard(GroupSpec(SP, 2))) == 4


def test_standard_rejects_torus():
    with pytest.raises(ValueError):
        standard(GroupSpec(TORUS, 2))


def test_exterior_square_std_gl3():
    x = standard(GroupSpec(GL, 3))
    assert exterior(x, 2) == V(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})


def test_exterior_edges():
    x = standard(GroupSpec(GL, 2))
    assert exterior(x, 0) == VirtualCharacter.unit(2)
    assert not exterior(x, 3)
    assert exterior(x, 2) == V(2, {(1, 1): 1})


def test_exterior_top_and_vanishing():
    for _ in range(15):
        r = rng.randint(1, 3)
        support = set()
        while len(support) < rng.randint(1, 4):
            support.add(tuple(rng.randint(-2, 2) for _ in range(r)))
        x = V(r, {w: 1 for w in support})
        n = augmentation(x)
        assert not exterior(x, n + 1)
        top = exterior(x, n)
        total = tuple(sum(w[i] for w in support) for i in range(r))
        assert top == V(r, {total: 1})


def test_exterior_multiplicity_count():
    for _ in range(15):
        r = rng.randint(1, 3)
        support = set()
        while len(support) < rng.randint(1, 4):
            support.add(tuple(rng.randint(-2, 2) for _ in range(r)))
        x = V(r, {w: rng.randint(1, 2) for w in support})
        n = augmentation(x)
        for p in range(n + 1):
            assert augmentation(exterior(x, p)) == comb(n, p)


def test_symmetric_square_std_gl2():
    x = standard(GroupSpec(GL, 2))
    assert symmetric(x, 2) == V(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})


def test_symmetric_edges():
    x = standard(GroupSpec(GL, 3))
    assert symmetric(x, 1) == x
    assert symmetric(x, 0) == VirtualCharacter.unit(3)
    # dim Sym^p(C^n) = C(n+p-1, p)
    for p in range(5):
        assert augmentation(symmetric(x, p)) == comb(3 + p - 1, p)


def test_dual():
    std = standard(GroupSpec(GL, 2))
    assert dual(std) == V(2, {(-1, 0): 1, (0, -1): 1})
    sp_std = standard(GroupSpec(SP, 2))
    assert dual(sp_std) == sp_std
    for _ in range(10):
        r = rng.randint(1, 3)
        terms = {
            tuple(rng.randint(-2, 2) for _ in range(r)): rng.randint(-2, 2)
            for _ in range(4)
        }
        x = V(r, terms)
        assert dual(dual(x)) == x


def test_assert_g_rep():
    for family, rank in [(GL, 3), (SP, 2), (SO_ODD, 2), (SO_EVEN, 2)]:
        g = GroupSpec(family, rank)
        assert assert_g_rep(standard(g), g)
    gl2 = GroupSpec(GL, 2)
    assert not assert_g_rep(V(2, {(1, 0): 1}), gl2)
    gl3 = GroupSpec(GL, 3)
    assert assert_g_rep(exterior(standard(gl3), 2), gl3)


def test_operations_preserve_invariance():
    for family, rank in [(GL, 3), (SP, 2), (SO_EVEN, 2)]:
        g = GroupSpec(family, rank)
        x = standard(g)
        for p in range(4):
            assert assert_g_rep(exterior(x, p), g)
            assert assert_g_rep(symmetric(x, p), g)
        assert assert_g_rep(x * x, g)
        assert assert_g_rep(dual(x), g)


def _assert_decoded(x, rank):
    """x as the coded decode must leave it: int-tuple weights of length
    rank, each with a nonzero int multiplicity."""
    assert x.rank == rank
    for w, m in x.terms.items():
        assert type(w) is tuple and len(w) == rank
        assert all(type(c) is int for c in w)
        assert type(m) is int and m != 0


def test_exterior_and_symmetric_match_the_series_oracle():
    """exterior(x, p) is coefficient p of the product of the series
    (1 + [a]t)^(m_a), and symmetric(x, p) that of its inverse at -t, for
    ranks 1..5, coordinates -3..3 with the zero weight often, multiplicities
    -3..3 (zero ones are dropped by the constructor) and p from 0 to two
    past the summed |multiplicities|, at most 8."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def cases(r):
        weight = st.one_of(st.just((0,) * r), st.tuples(*[st.integers(-3, 3)] * r))
        terms = st.dictionaries(weight, st.integers(-3, 3), max_size=4)
        return terms.flatmap(
            lambda t: st.tuples(
                st.just(V(r, t)), st.integers(0, min(sum(map(abs, t.values())) + 2, 8))
            )
        )

    @hypothesis.settings(deadline=None, max_examples=150)
    @hypothesis.given(st.integers(1, 5).flatmap(cases))
    def check(case):
        x, p = case
        ext, sym = exterior(x, p), symmetric(x, p)
        assert ext == lambda_series_by_products(x, p)[p]
        assert sym == symmetric_by_inverse(x, p)
        for y in (ext, sym, *lambda_series(x, p)):
            _assert_decoded(y, x.rank)

    check()


def test_exterior_prints_as_its_lambda_series_coefficient():
    g = GroupSpec(SO_EVEN, 4)
    x = exterior(standard(g), 2)
    ext, coeff = exterior(x, 4), lambda_series(x, 4)[4]
    assert ext.to_text() == coeff.to_text()
    assert ext.to_json_obj() == coeff.to_json_obj()
    assert augmentation(ext) == comb(28, 4)


def test_exterior_and_symmetric_decode_one_coefficient(monkeypatch):
    import chernrep.reps as reps

    decoded, real = [], reps._from_codes

    def from_codes(rank, coded, *rest):
        decoded.append(coded)
        return real(rank, coded, *rest)

    monkeypatch.setattr(reps, "_from_codes", from_codes)
    x = standard(GroupSpec(SO_ODD, 3))
    assert augmentation(exterior(x, 3)) == comb(7, 3)
    assert augmentation(symmetric(x, 3)) == comb(9, 3)
    assert len(decoded) == 2
