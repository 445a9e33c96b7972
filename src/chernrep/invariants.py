"""Weyl-invariant polynomials and their expression in classical generators.

For each classical family the invariant ring of the Weyl group is a free
polynomial ring on generators read off the standard representation:

  GL(n)     I_p = e_p(x_1..x_n)                      degree p,   1 <= p <= n
  Sp(2l),
  SO(2l+1)  I_p = e_{2p}(weights of std)             degree 2p,  1 <= p <= l
            (equal to (-1)^p e_p(x_1^2..x_l^2))
  SO(2l)    I_p as above for p <= l-1, and the Pfaffian I_l = x_1...x_l

rewrite expresses an invariant polynomial in these generators by elementary
symmetric reduction; evaluate substitutes the generators back and is the
round-trip oracle.
"""

from fractions import Fraction

from .errors import (
    InvarianceError,
    NoCanonicalGeneratorsError,
    RankMismatchError,
    ReductionDefectError,
)
from .graded import SymbolicPolynomial, _terms_json, _terms_text
from .weyl import (
    GL,
    SO_EVEN,
    SO_ODD,
    SP,
    TORUS,
    invariant_degrees,
    weyl_elements,
    weyl_generators,
)


def is_invariant(f, g):
    """True iff f is fixed by every Weyl generator of g."""
    if f.rank != g.torus_rank:
        raise RankMismatchError(f"polynomial rank {f.rank} != torus rank {g.torus_rank}")
    return all(f.apply_signed_permutation(w) == f for w in weyl_generators(g))


def symmetrize(f, g):
    """Average of f over the Weyl group; projects onto the invariants."""
    if f.rank != g.torus_rank:
        raise RankMismatchError(f"polynomial rank {f.rank} != torus rank {g.torus_rank}")
    elements = weyl_elements(g)
    acc = SymbolicPolynomial.zero(f.rank)
    for w in elements:
        acc = acc + f.apply_signed_permutation(w)
    return acc * Fraction(1, len(elements))


def elementary_symmetric_all(forms, top):
    """e_0..e_top of a list of polynomials, by the one-pass recurrence."""
    if not forms:
        raise ValueError("need at least one form")
    rank = forms[0].rank
    es = [SymbolicPolynomial.one(rank)] + [
        SymbolicPolynomial.zero(rank) for _ in range(top)
    ]
    for form in forms:
        for j in range(min(top, len(es) - 1), 0, -1):
            es[j] = es[j] + es[j - 1] * form
    return es


def _standard_weight_forms(g):
    n = g.rank
    forms = []
    for i in range(1, n + 1):
        v = SymbolicPolynomial.variable(n, i)
        forms.append(v)
        forms.append(-v)
    if g.family == SO_ODD:
        forms.append(SymbolicPolynomial.zero(n))
    return forms


def generator_definitions(g):
    """The classical generator system as (name, polynomial, degree) triples."""
    if g.family == TORUS:
        raise NoCanonicalGeneratorsError(
            "a torus has no canonical invariant generators"
        )
    n = g.rank
    degrees = invariant_degrees(g)
    xs = [SymbolicPolynomial.variable(n, i) for i in range(1, n + 1)]
    forms = xs if g.family == GL else _standard_weight_forms(g)
    es = elementary_symmetric_all(forms, max(degrees))
    polys = [es[deg] for deg in degrees]
    if g.family == SO_EVEN:
        pf = SymbolicPolynomial.one(n)
        for x in xs:
            pf = pf * x
        polys[-1] = pf
    return list(zip((f"I{p}" for p in range(1, n + 1)), polys, degrees))


class GeneratorExpression:
    """Polynomial with rational coefficients in the generators I_1..I_l."""

    __slots__ = ("group", "terms")

    def __init__(self, group, terms=None):
        if group.family == TORUS:
            raise NoCanonicalGeneratorsError(
                "a torus has no canonical invariant generators"
            )
        count = group.rank
        collected = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != count:
                raise RankMismatchError(
                    f"generator exponent vector {exps} has length {len(exps)}, "
                    f"expected {count}"
                )
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            c = Fraction(c)
            if c:
                collected[exps] = collected.get(exps, Fraction(0)) + c
        object.__setattr__(self, "group", group)
        object.__setattr__(
            self, "terms", {e: c for e, c in collected.items() if c}
        )

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorExpression is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorExpression)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if self.group != other.group:
            raise RankMismatchError("generator expressions for different groups")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return GeneratorExpression(self.group, terms)

    def _degree_of(self):
        """Weighted degree of a generator monomial."""
        degrees = invariant_degrees(self.group)
        return lambda e: sum(k * d for k, d in zip(e, degrees))

    def _ordered_exps(self):
        degree = self._degree_of()
        return sorted(self.terms, key=lambda e: (degree(e), tuple(-k for k in e)))

    def leading_term(self):
        """Term of highest polynomial degree, as (exponents, coefficient)."""
        if not self.terms:
            return None
        degree = self._degree_of()
        e = max(self.terms, key=lambda e: (degree(e), e))
        return e, self.terms[e]

    def to_text(self):
        return _terms_text(self.terms, self._ordered_exps(), "I")

    def to_json_obj(self):
        return _terms_json(self.terms, self._ordered_exps())

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"GeneratorExpression({self.group!r}, {self.terms!r})"


def evaluate(expr):
    """Substitute the generator polynomials into an expression and expand."""
    gens = [poly for _, poly, _ in generator_definitions(expr.group)]
    rank = expr.group.torus_rank
    out = SymbolicPolynomial.zero(rank)
    for exps, c in expr.terms.items():
        term = SymbolicPolynomial.constant(rank, c)
        for gen, k in zip(gens, exps):
            if k:
                term = term * gen**k
        out = out + term
    return out


def _reduce_symmetric(f):
    """Write a symmetric polynomial in the elementary symmetrics e_1..e_n
    by leading-term elimination in graded lex order.  Returns the exponent
    map over (e_1..e_n)."""
    n = f.rank
    xs = [SymbolicPolynomial.variable(n, i) for i in range(1, n + 1)]
    es = elementary_symmetric_all(xs, n)
    out = {}
    rest = f
    while rest:
        lead = max(rest.terms, key=lambda e: (sum(e), e))
        if any(lead[i] < lead[i + 1] for i in range(n - 1)):
            raise ReductionDefectError(
                f"leading exponent {lead} not sorted; input was not symmetric"
            )
        c = rest.terms[lead]
        exps = tuple(
            lead[i] - (lead[i + 1] if i + 1 < n else 0) for i in range(n)
        )
        out[exps] = c
        prod = SymbolicPolynomial.constant(n, c)
        for i, k in enumerate(exps):
            if k:
                prod = prod * es[i + 1] ** k
        rest = rest - prod
    return out


def _check_even_exponents(f, what):
    for e in f.terms:
        if any(k % 2 for k in e):
            raise ReductionDefectError(f"{what} has an odd exponent {e}")


def _halve_exponents(f):
    return SymbolicPolynomial(
        f.rank, {tuple(k // 2 for k in e): c for e, c in f.terms.items()}
    )


def _signed_translate(reduced, group, pfaffian_to_square):
    """Map e_p(x^2) exponents to generator exponents: e_p -> (-1)^p I_p, and
    for SO(2l) the top e_l -> I_l^2."""
    n = group.rank
    terms = {}
    for exps, c in reduced.items():
        sign = 1
        new = list(exps)
        for p, k in enumerate(exps, start=1):
            if pfaffian_to_square and p == n:
                new[n - 1] = 2 * k
            elif (p * k) % 2:
                sign = -sign
        terms[tuple(new)] = terms.get(tuple(new), Fraction(0)) + sign * c
    return terms


def rewrite(f, g):
    """Express a Weyl-invariant polynomial in the classical generators.

    GL uses the elementary symmetric reduction directly.  For Sp and SOodd
    every invariant is even in each variable; substituting y_i = x_i^2
    leaves a symmetric polynomial which is reduced and translated through
    e_p(y) = (-1)^p I_p.  For SOeven the polynomial is first split into its
    even and odd parts under x_1 -> -x_1 (an automorphism outside W); the
    odd part is divisible by the Pfaffian monomial with invariant quotient,
    both halves reduce as above with e_l(y) = I_l^2.
    """
    if g.family == TORUS:
        raise NoCanonicalGeneratorsError(
            "a torus has no canonical invariant generators"
        )
    if not is_invariant(f, g):
        raise InvarianceError("rewrite needs a Weyl-invariant polynomial")
    n = g.rank
    if g.family == GL:
        return GeneratorExpression(g, _reduce_symmetric(f))
    if g.family in (SP, SO_ODD):
        _check_even_exponents(f, "invariant for a signed-permutation group")
        reduced = _reduce_symmetric(_halve_exponents(f))
        return GeneratorExpression(g, _signed_translate(reduced, g, False))
    # SOeven: split against the single sign flip
    flipped = SymbolicPolynomial(
        n, {e: (-c if e[0] % 2 else c) for e, c in f.terms.items()}
    )
    even = (f + flipped) * Fraction(1, 2)
    minus = (f - flipped) * Fraction(1, 2)
    _check_even_exponents(even, "even part")
    terms = _signed_translate(_reduce_symmetric(_halve_exponents(even)), g, True)
    if minus:
        for e in minus.terms:
            if any(k % 2 == 0 for k in e):
                raise ReductionDefectError(
                    f"odd part has a non-odd exponent {e}"
                )
        quotient = SymbolicPolynomial(
            n, {tuple(k - 1 for k in e): c for e, c in minus.terms.items()}
        )
        _check_even_exponents(quotient, "odd-part quotient")
        reduced = _signed_translate(
            _reduce_symmetric(_halve_exponents(quotient)), g, True
        )
        for exps, c in reduced.items():
            key = exps[: n - 1] + (exps[n - 1] + 1,)
            terms[key] = terms.get(key, Fraction(0)) + c
    return GeneratorExpression(g, terms)
