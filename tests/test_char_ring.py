import copy
import inspect
import pickle
import random
from fractions import Fraction

import pytest

import chernrep
from chernrep import GeneratorExpression, Subspace, SymbolicPolynomial
from chernrep.char_ring import (
    VirtualCharacter,
    _code,
    _decode,
    _from_codes,
    adams,
    augmentation,
    binomial,
    gamma_series,
    lambda_series,
)
from chernrep.errors import RankMismatchError
from chernrep.filtration_check import PropEntry, PropReport
from chernrep.reps import symmetric
from chernrep.weyl import GL, SP, GroupSpec, _Record
from series_oracle import (
    adams_via_series,
    gamma_series_by_sums,
    lambda_series_by_products,
    series_inverse,
    series_one,
    series_product,
    symmetric_by_inverse,
)

rng = random.Random(4096)


def V(rank, terms):
    return VirtualCharacter(rank, terms)


def rand_char(rank, max_weights=5, coord=2, mult=2):
    terms = {}
    for _ in range(rng.randint(0, max_weights)):
        w = tuple(rng.randint(-coord, coord) for _ in range(rank))
        terms[w] = terms.get(w, 0) + rng.randint(-mult, mult)
    return V(rank, terms)


def _for_random_characters(check):
    """Run check(x, y, d) on random virtual characters x, y of one rank 1..3
    (coordinates -2..2, the zero weight often, multiplicities -3..3, the
    empty character included) and a degree 0 <= d <= 6."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def characters(r):
        weight = st.one_of(st.just((0,) * r), st.tuples(*[st.integers(-2, 2)] * r))
        terms = st.dictionaries(weight, st.integers(-3, 3), max_size=4)
        return st.tuples(terms, terms).map(lambda ts: (V(r, ts[0]), V(r, ts[1])))

    @hypothesis.settings(deadline=None, max_examples=150)
    @hypothesis.given(st.integers(1, 3).flatmap(characters), st.integers(0, 6))
    def run_check(xy, d):
        check(*xy, d)

    run_check()


def test_lambda_series_matches_product_of_series():
    def check(x, y, d):
        assert lambda_series(x, d) == lambda_series_by_products(x, d)

    _for_random_characters(check)


def test_gamma_series_matches_sums_of_characters():
    def check(x, y, d):
        assert gamma_series(x, d) == gamma_series_by_sums(x, d)

    _for_random_characters(check)


def test_symmetric_matches_inverse_series():
    def check(x, y, d):
        assert symmetric(x, d) == symmetric_by_inverse(x, d)

    _for_random_characters(check)


def test_lambda_series_is_additive():
    def check(x, y, d):
        assert lambda_series(x + y, d) == series_product(lambda_series(x, d), lambda_series(y, d))

    _for_random_characters(check)


def test_adams_via_series_matches_dilation():
    def check(x, y, d):
        for k in range(1, 6):
            assert adams_via_series(k, x) == adams(k, x)

    _for_random_characters(check)


def test_binomial_generalized():
    assert binomial(4, 2) == 6
    assert binomial(-1, 3) == -1
    assert binomial(-2, 2) == 3
    assert binomial(3, 5) == 0
    assert binomial(5, 0) == 1


def test_add_examples():
    a = V(2, {(1, 0): 1})
    assert not (a + (-a)).terms
    std = V(2, {(1, 0): 1, (0, 1): 1})
    assert V(2, {(1, 0): 1}) + V(2, {(0, 1): 1}) == std
    assert std + V(2, {(1, 0): 1}) == V(2, {(1, 0): 2, (0, 1): 1})
    assert a + a == a * 2


def test_mul_examples():
    a = V(2, {(1, 2): 1})
    b = V(2, {(0, -1): 1})
    assert a * b == V(2, {(1, 1): 1})
    std = V(2, {(1, 0): 1, (0, 1): 1})
    assert std * V(2, {(1, 0): 1}) == V(2, {(2, 0): 1, (1, 1): 1})
    x = rand_char(2)
    assert x * VirtualCharacter.unit(2) == x


def test_ring_axioms_random():
    for _ in range(60):
        r = rng.randint(1, 3)
        x, y, z = rand_char(r), rand_char(r), rand_char(r)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        V(2, {(1, 0): 1}) + V(3, {(1, 0, 0): 1})
    with pytest.raises(RankMismatchError):
        V(2, {(1, 0): 1}) * V(1, {(1,): 1})


def test_characters_refuse_non_integers():
    for terms in ({(1,): 0.5}, {(0.5,): 1}, {(1,): 1.0}, {(1,): Fraction(1)}):
        with pytest.raises(TypeError):
            V(1, terms)
    assert V(1, {(True,): 2}) == V(1, {(1,): 2})


def test_augmentation():
    a = V(2, {(3, -1): 1})
    assert augmentation(a) == 1
    assert augmentation(a - VirtualCharacter.unit(2)) == 0
    std3 = V(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert augmentation(std3) == 3
    for _ in range(30):
        r = rng.randint(1, 3)
        x, y = rand_char(r), rand_char(r)
        assert augmentation(x * y) == augmentation(x) * augmentation(y)
        assert augmentation(x + y) == augmentation(x) + augmentation(y)


def test_adams_examples():
    x = rand_char(2)
    assert adams(1, x) == x
    std = V(2, {(1, 0): 1, (0, 1): 1})
    assert adams(2, std) == V(2, {(2, 0): 1, (0, 2): 1})
    assert adams(5, VirtualCharacter.unit(3)) == VirtualCharacter.unit(3)
    with pytest.raises(ValueError):
        adams(0, x)


def test_lambda_series_std_gl2():
    std = V(2, {(1, 0): 1, (0, 1): 1})
    series = lambda_series(std, 2)
    assert series[0] == VirtualCharacter.unit(2)
    assert series[1] == std
    assert series[2] == V(2, {(1, 1): 1})


def test_lambda_series_negative_unit():
    # lambda_t(-[0]) = (1+t)^{-1} = 1 - t + t^2 - t^3
    series = lambda_series(-VirtualCharacter.unit(1), 3)
    for p in range(4):
        assert series[p] == VirtualCharacter.unit(1) * (-1) ** p


def test_lambda_dimension():
    # effective multiplicity-free characters have lambda-dimension eps(x)
    for _ in range(20):
        r = rng.randint(1, 3)
        support = set()
        while len(support) < rng.randint(1, 4):
            support.add(tuple(rng.randint(-2, 2) for _ in range(r)))
        x = V(r, {w: 1 for w in support})
        n = augmentation(x)
        series = lambda_series(x, n + 2)
        assert not series[n + 1]
        assert not series[n + 2]
        assert series[n]  # top exterior power is a single weight


def test_lambda_additivity_random():
    for _ in range(60):
        r = rng.randint(1, 3)
        x, y = rand_char(r), rand_char(r)
        d = rng.randint(0, 6)
        assert lambda_series(x + y, d) == series_product(lambda_series(x, d), lambda_series(y, d))


def test_adams_via_series_examples():
    x = rand_char(3)
    assert adams_via_series(1, x) == x
    a = V(2, {(2, -1): 1})
    assert adams_via_series(2, a) == V(2, {(4, -2): 1})
    y = rand_char(2)
    assert adams_via_series(6, y) == adams(2, adams(3, y))


def test_adams_consistency_random():
    for _ in range(100):
        r = rng.randint(1, 3)
        x = rand_char(r)
        for k in range(1, 7):
            assert adams_via_series(k, x) == adams(k, x)


def test_adams_ring_endomorphism():
    for _ in range(40):
        r = rng.randint(1, 3)
        x, y = rand_char(r), rand_char(r)
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        assert adams(k, x * y) == adams(k, x) * adams(k, y)
        assert adams(k, x + y) == adams(k, x) + adams(k, y)
        assert adams(k, adams(l, x)) == adams(k * l, x)


def test_newton_style_recursion():
    # psi^k - l^1 psi^{k-1} + ... + (-1)^{k-1} l^{k-1} psi^1 + (-1)^k k l^k = 0
    for _ in range(25):
        r = rng.randint(1, 3)
        x = rand_char(r)
        for k in range(1, 6):
            lam = lambda_series(x, k)
            acc = VirtualCharacter.zero(r)
            for j in range(k):
                term = lam[j] * adams(k - j, x)
                acc = acc + (term if j % 2 == 0 else -term)
            top = lam[k] * k
            acc = acc + (top if k % 2 == 0 else -top)
            assert not acc


def test_gamma_series_one_dimensional():
    a = V(2, {(1, -1): 1})
    one = VirtualCharacter.unit(2)
    series = gamma_series(a - one, 5)
    assert series[0] == one
    assert series[1] == a - one
    for p in range(2, 6):
        assert not series[p]


def test_gamma_series_negated():
    a = V(1, {(2,): 1})
    one = VirtualCharacter.unit(1)
    series = gamma_series(one - a, 3)
    for p in range(4):
        expected = (a - one) ** p * (-1) ** p
        assert series[p] == expected


def test_gamma_one_is_identity_on_augmentation_zero():
    for _ in range(30):
        r = rng.randint(1, 3)
        x = rand_char(r)
        x = x - VirtualCharacter.unit(r) * augmentation(x)
        assert gamma_series(x, 2)[1] == x


def test_series_inverse_requires_unit():
    zero = VirtualCharacter.zero(1)
    with pytest.raises(ValueError):
        series_inverse((zero, VirtualCharacter.unit(1)))


def test_series_inverse_roundtrip():
    for _ in range(20):
        r = rng.randint(1, 2)
        x = rand_char(r)
        d = rng.randint(1, 5)
        lam = lambda_series(x, d)
        assert series_product(lam, series_inverse(lam)) == series_one(r, d)


_ENTRY = PropEntry(1, 2, 2, True, ((1, 0),))
_VALUES = [
    VirtualCharacter(2, {(1, 0): 2, (0, -1): -1}),
    SymbolicPolynomial(2, {(1, 0): Fraction(1, 2), (0, 0): 3}),
    GeneratorExpression(GroupSpec(GL, 2), {(1, 1): Fraction(-2, 3)}),
    Subspace.from_vectors(3, [[2, 4, 0], [0, 1, 1]]),
    GroupSpec(SP, 2),
    _ENTRY,
    PropReport("GL2", 2, (_ENTRY,), False),
]


@pytest.mark.parametrize("x", _VALUES, ids=lambda x: type(x).__name__)
def test_character_immutable(x):
    """A field of a value can be neither assigned nor deleted, and copy,
    deepcopy and pickle give an equal value that hashes alike; a Subspace,
    whose rows are lists, is unhashable."""
    for name in x.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and twin == x
        if isinstance(x, Subspace):
            with pytest.raises(TypeError):
                hash(twin)
        else:
            assert hash(twin) == hash(x)


def test_every_public_value_type_is_a_record():
    """One base class freezes, compares, hashes, copies and pickles every
    value type, so that none hand-rolls its immutability."""
    classes = {n for n in chernrep.__all__ if inspect.isclass(getattr(chernrep, n))}
    assert {"TruncatedAlgebra", "ChernRepError", "VirtualCharacter"} <= classes
    for name in classes - {"TruncatedAlgebra", "ChernRepError"}:
        assert issubclass(getattr(chernrep, name), _Record), name


def test_code_properties():
    """_code/_decode: a round trip for entries in [0, base), and through
    _from_codes for entries in [-bound, bound] in base 2*bound + 1; codes
    of a sum add while the entries stay in range, code order is lex order,
    and monomial codes (degree first) order by graded lex and stay below
    base^(n+1) exactly when the degree is below base."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def windows(n):
        def cases(frame):
            base, low = frame
            vec = st.tuples(*[st.integers(low, low + base - 1)] * n)
            return st.tuples(st.just(n), st.just(frame), vec, vec)

        return st.tuples(st.integers(1, 12), st.integers(-6, 6)).flatmap(cases)

    @hypothesis.settings(deadline=None, max_examples=300)
    @hypothesis.given(st.integers(1, 4).flatmap(windows))
    def run_check(case):
        n, (base, low), u, v = case
        shifted = tuple(c - low for c in u)
        assert _decode(_code(shifted, base), n, base) == shifted
        bound = max(map(abs, u))
        coded = {_code(u, 2 * bound + 1): 1}
        assert _from_codes(n, coded, 2 * bound + 1, bound).terms == {u: 1}
        total = tuple(a + b for a, b in zip(u, v))
        if all(low <= t < low + base for t in total):
            assert _code(u, base) + _code(v, base) == _code(total, base)
        assert (_code(u, base) < _code(v, base)) == (u < v)
        if low == 0:
            mu, mv = (sum(u), *u), (sum(v), *v)
            if max(mu[0], mv[0]) < base:
                assert (_code(mu, base) < _code(mv, base)) == (mu < mv)
            assert (_code(mu, base) < base ** (n + 1)) == (mu[0] < base)

    run_check()
