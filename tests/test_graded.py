import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from chernrep.char_ring import VirtualCharacter, adams, augmentation
from chernrep.errors import AugmentationError, FiltrationCapError, RankMismatchError
from chernrep.graded import (
    BEYOND_CAP,
    SymbolicPolynomial,
    _coded,
    _polynomial,
    default_cap,
    filtration_degree,
    leading_class,
    symbol_map,
    total_chern,
)
from series_oracle import chern_class

rng = random.Random(515)


def V(rank, terms):
    return VirtualCharacter(rank, terms)


def P(rank, terms):
    return SymbolicPolynomial(rank, terms)


def rand_char(rank, max_weights=4, coord=2, mult=2):
    terms = {}
    for _ in range(rng.randint(0, max_weights)):
        w = tuple(rng.randint(-coord, coord) for _ in range(rank))
        terms[w] = terms.get(w, 0) + rng.randint(-mult, mult)
    return V(rank, terms)


def rand_effective(rank, max_weights=4, coord=2):
    terms = {}
    for _ in range(rng.randint(1, max_weights)):
        w = tuple(rng.randint(-coord, coord) for _ in range(rank))
        terms[w] = terms.get(w, 0) + rng.randint(1, 2)
    return V(rank, terms)


def brute_elementary_symmetric(forms, p):
    """Independent oracle: e_p as an explicit sum over p-subsets."""
    rank = forms[0].rank
    if p == 0:
        return SymbolicPolynomial.one(rank)
    total = SymbolicPolynomial.zero(rank)
    for combo in combinations(range(len(forms)), p):
        term = SymbolicPolynomial.one(rank)
        for i in combo:
            term = term * forms[i]
        total = total + term
    return total


def split_weight_forms(x):
    forms = []
    for w, m in sorted(x.terms.items()):
        forms.extend([SymbolicPolynomial.linear_form(w)] * m)
    return forms


def test_symbol_map_unit():
    assert symbol_map(VirtualCharacter.unit(3), 5) == SymbolicPolynomial.one(3)


def test_symbol_map_single_weight():
    x = V(2, {(1, 0): 1})
    assert symbol_map(x, 2) == P(
        2, {(0, 0): 1, (1, 0): 1, (2, 0): Fraction(1, 2)}
    )


def test_symbol_map_cosh_combination():
    # e^a + e^{-a} - 2 = a^2 + a^4/12 + O(a^6)
    x = V(2, {(1, 0): 1, (-1, 0): 1, (0, 0): -2})
    assert symbol_map(x, 4) == P(2, {(2, 0): 1, (4, 0): Fraction(1, 12)})


def reference_symbol_map(x, d):
    """Independent oracle: sum_a m_a sum_{k<=d} La^k / k! in polynomial
    arithmetic."""
    total = SymbolicPolynomial.zero(x.rank)
    for w, m in x.terms.items():
        form = SymbolicPolynomial.linear_form(w)
        for k in range(d + 1):
            total = total + form**k * Fraction(m, factorial(k))
    return total


def test_symbol_map_matches_reference():
    for _ in range(30):
        x = rand_char(rng.randint(1, 3))
        d = rng.randint(0, 5)
        assert symbol_map(x, d) == reference_symbol_map(x, d)


def test_symbol_map_degree_zero_is_augmentation():
    for _ in range(30):
        x = rand_char(rng.randint(1, 3))
        image = symbol_map(x, 3)
        assert image.coefficient((0,) * x.rank) == augmentation(x)


def test_filtration_degree_examples():
    one = VirtualCharacter.unit(2)
    a = V(2, {(2, -1): 1})
    assert filtration_degree(a - one, 5) == 1
    sym = V(2, {(1, 0): 1, (-1, 0): 1, (0, 0): -2})
    assert filtration_degree(sym, 5) == 2
    assert filtration_degree(VirtualCharacter.zero(2), 4) == BEYOND_CAP
    assert filtration_degree(a, 4) == 0  # nonzero augmentation


def rand_filtered(rank):
    """A random combination of products of j factors ([b] - [0]), which lies
    in filtration j, so that small caps often end at BEYOND_CAP."""
    one = VirtualCharacter.unit(rank)
    x = VirtualCharacter.zero(rank)
    for _ in range(rng.randint(0, 3)):
        term = one * rng.randint(-2, 2)
        for _ in range(rng.randint(0, 3)):
            b = tuple(rng.randint(-2, 2) for _ in range(rank))
            term = term * (V(rank, {b: 1}) - one)
        x = x + term
    return x


def test_filtration_degree_matches_full_symbol():
    samples = [VirtualCharacter.zero(2)]
    for _ in range(30):
        r = rng.randint(1, 3)
        samples += [rand_char(r), rand_filtered(r)]
    for x in samples:
        for cap in (1, 2, 3, 5):
            degrees = [sum(e) for e in symbol_map(x, cap).terms]
            expected = min(degrees) if degrees else BEYOND_CAP
            assert filtration_degree(x, cap) == expected
            if augmentation(x) == 0 and expected != BEYOND_CAP:
                cls = leading_class(x, cap)
                assert cls.total_degree() == expected
                assert cls == symbol_map(x, cap).homogeneous_component(expected)
    assert any(filtration_degree(x, 2) == BEYOND_CAP for x in samples if x)


def test_default_cap_always_detects():
    for _ in range(40):
        r = rng.randint(1, 3)
        x = rand_char(r)
        x = x - VirtualCharacter.unit(r) * augmentation(x)
        if not x:
            continue
        assert filtration_degree(x, default_cap(x)) != BEYOND_CAP


def test_leading_class_examples():
    one = VirtualCharacter.unit(2)
    a = V(2, {(1, 1): 1})
    cls = leading_class(a - one)
    assert cls.total_degree() == 1 and cls == P(2, {(1, 0): 1, (0, 1): 1})

    b = V(2, {(1, 0): 1})
    c = V(2, {(0, 1): 1})
    combo = a - b - c + one  # [a+b] - [a] - [b] + [0]
    cls2 = leading_class(combo)
    assert cls2.total_degree() == 2 and cls2 == P(2, {(1, 1): 1})

    cls3 = leading_class((b - one) * 3)
    assert cls3.total_degree() == 1 and cls3 == P(2, {(1, 0): 3})


def test_leading_class_errors():
    with pytest.raises(AugmentationError):
        leading_class(VirtualCharacter.unit(2))
    with pytest.raises(FiltrationCapError):
        leading_class(VirtualCharacter.zero(2), cap=3)


def test_chern_class_std_gl2():
    std = V(2, {(1, 0): 1, (0, 1): 1})
    assert chern_class(std, 1) == P(2, {(1, 0): 1, (0, 1): 1})
    assert chern_class(std, 2) == P(2, {(1, 1): 1})
    assert chern_class(std, 0) == SymbolicPolynomial.one(2)


def test_chern_class_trivial_rep():
    x = VirtualCharacter.unit(3) * 4
    for p in range(1, 5):
        assert not chern_class(x, p)


def test_total_chern_std_gl2():
    std = V(2, {(1, 0): 1, (0, 1): 1})
    assert total_chern(std, 2) == P(
        2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    )


def test_total_chern_std_sp4():
    std = V(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
    # oracle: expand the split product (1+x1)(1-x1)(1+x2)(1-x2)
    product = SymbolicPolynomial.one(2)
    for form in split_weight_forms(std):
        product = product * (SymbolicPolynomial.one(2) + form)
    assert product == P(2, {(0, 0): 1, (2, 0): -1, (0, 2): -1, (2, 2): 1})
    assert total_chern(std, 4) == product


def test_total_chern_effective_equals_split_product():
    for _ in range(40):
        r = rng.randint(1, 3)
        x = rand_effective(r)
        d = augmentation(x)
        product = SymbolicPolynomial.one(r)
        for form in split_weight_forms(x):
            product = product * (SymbolicPolynomial.one(r) + form)
        assert total_chern(x, d) == product.truncate(d)


def test_total_chern_matches_gamma_route_on_virtual_inputs():
    # virtual inputs: negative multiplicities, the zero weight, and
    # augmentation of either sign
    for _ in range(40):
        r = rng.randint(1, 2)
        x = rand_char(r, max_weights=3)
        x = x + VirtualCharacter.unit(r) * rng.randint(-3, 1)
        d = rng.randint(0, 6)
        expected = SymbolicPolynomial.zero(r)
        for p in range(d + 1):
            expected = expected + chern_class(x, p)
        assert total_chern(x, d) == expected


def test_whitney_formula():
    for _ in range(60):
        r = rng.randint(1, 3)
        x, y = rand_effective(r), rand_effective(r)
        d = rng.randint(0, 4)
        assert total_chern(x + y, d) == (
            total_chern(x, d) * total_chern(y, d)
        ).truncate(d)


def test_split_chern_class_is_elementary_symmetric():
    for _ in range(25):
        r = rng.randint(1, 3)
        x = rand_effective(r, max_weights=3)
        forms = split_weight_forms(x)
        for p in range(len(forms) + 1):
            assert chern_class(x, p) == brute_elementary_symmetric(
                forms, p
            )


def test_chern_character_is_ring_homomorphism():
    for _ in range(40):
        r = rng.randint(1, 3)
        x, y = rand_char(r), rand_char(r)
        lhs = symbol_map(x * y, 4)
        rhs = (symbol_map(x, 4) * symbol_map(y, 4)).truncate(4)
        assert lhs == rhs
    assert symbol_map(VirtualCharacter.unit(2), 3) == SymbolicPolynomial.one(2)


def _congruence_holds(x):
    x = x - VirtualCharacter.unit(x.rank) * augmentation(x)
    if not x:
        return
    p = filtration_degree(x, default_cap(x))
    if p == BEYOND_CAP or p > 4:
        return
    for k in (2, 3, 4):
        diff = adams(k, x) - x * k**p
        q = filtration_degree(diff, p + 1)
        assert q == BEYOND_CAP or q >= p + 1


def test_adams_congruence():
    # psi^k(x) = k^p x modulo the next filtration step
    for _ in range(40):
        _congruence_holds(rand_char(rng.randint(1, 3)))


def test_adams_congruence_invariant_inputs():
    from chernrep.weyl import GL, SP, GroupSpec
    from weyl_oracle import orbit

    for family, rank in [(GL, 2), (GL, 3), (SP, 2)]:
        g = GroupSpec(family, rank)
        for _ in range(10):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                a = tuple(rng.randint(-2, 2) for _ in range(rank))
                m = rng.randint(-2, 2)
                for b in orbit(g, a):
                    terms[b] = terms.get(b, 0) + m
            _congruence_holds(V(rank, terms))


def test_newton_relations_ch_vs_chern():
    for _ in range(30):
        r = rng.randint(1, 3)
        x = rand_char(r)
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


def test_polynomial_constructor_refusals():
    with pytest.raises(RankMismatchError):
        P(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        P(2, {(1, -1): 1})
    with pytest.raises(TypeError):
        P(2, {(1, 0): 0.5})


def test_decoded_polynomial_matches_the_constructor():
    # the kernel's decode skips the constructor's checks, so it must give
    # the same polynomial with nonzero Fraction values only
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def coded_terms(rank):
        exps = st.tuples(*[st.integers(0, 4)] * rank)
        return st.tuples(
            st.just(rank),
            st.dictionaries(exps, st.integers(-10**12, 10**12), max_size=6),
            st.integers(0, 3),
            st.booleans(),
        )

    @hypothesis.settings(deadline=None, max_examples=200)
    @hypothesis.given(st.integers(1, 3).flatmap(coded_terms))
    def run_check(case):
        rank, terms, slack, divided = case
        base = max((sum(e) for e in terms), default=0) + 1 + slack
        divisor = factorial if divided else None
        got = _polynomial(_coded(terms, base), rank, base, divisor)
        expected = P(
            rank,
            {e: Fraction(c, factorial(sum(e))) if divided else c for e, c in terms.items()},
        )
        assert got == expected
        assert all(type(c) is Fraction and c for c in got.terms.values())

    run_check()


def test_polynomial_text_form():
    poly = P(2, {(0, 0): 1, (1, 0): 1, (2, 0): Fraction(1, 2)})
    assert poly.to_text() == "1 + x1 + 1/2*x1^2"
    assert P(2, {}).to_text() == "0"
    assert P(2, {(1, 0): -1, (0, 1): 1}).to_text() == "-x1 + x2"


def test_total_chern_matches_sympy_determinant():
    """total_chern(x, d) of an effective character is det(1 + diag(L_a)),
    one diagonal entry per weight a counted with multiplicity, expanded by
    sympy and truncated at total degree d."""
    sympy = pytest.importorskip("sympy")
    for _ in range(25):
        r = rng.randint(1, 3)
        x = rand_effective(r, coord=3)
        d = rng.randint(0, augmentation(x) + 1)
        xs = sympy.symbols(f"x1:{r + 1}")
        diagonal = [
            1 + sum(a * v for a, v in zip(w, xs))
            for w, m in sorted(x.terms.items())
            for _ in range(m)
        ]
        det = sympy.Poly(sympy.expand(sympy.diag(*diagonal).det()), *xs)
        expected = {e: c for e, c in det.terms() if sum(e) <= d}
        got = total_chern(x, d).terms
        assert got == {e: Fraction(int(c)) for e, c in expected.items()}
