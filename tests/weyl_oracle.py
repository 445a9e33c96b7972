"""The whole Weyl group, element by element: the test oracle for the
generator action of `chernrep.weyl`, `is_invariant` and `symmetrize`, and
the orbits the other oracles build characters from.

The library never builds an element of W and closes no orbit; it moves
integer tuples by the generators alone.  Here every element is a signed
permutation of its own type, listed, composed and inverted, an orbit is
the set of images of a weight under all of them, and a polynomial is
averaged over all of them by direct substitution, so each check against
this module takes an independent route.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, prod

from chernrep.graded import SymbolicPolynomial
from chernrep.weyl import GL, SO_EVEN, SO_ODD, SP, TORUS, GroupSpec


@dataclass(frozen=True)
class SignedPermutation:
    """perm[j] is the image slot of slot j; signs[i] multiplies slot i.
    Equal, and hashed alike, when perm and signs are."""

    perm: tuple
    signs: tuple

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)), (1,) * n)

    def act(self, coords):
        """Send weight a to w.a: coordinate perm[j] of the result is
        signs[perm[j]] * a[j]."""
        out = [0] * len(coords)
        for i, a in zip(self.perm, coords):
            out[i] = self.signs[i] * a
        return tuple(out)


def weyl_order(g):
    n = g.rank
    if g.family == TORUS:
        return 1
    if g.family == GL:
        return factorial(n)
    if g.family in (SP, SO_ODD):
        return 2**n * factorial(n)
    return 2 ** (n - 1) * factorial(n)


@lru_cache(maxsize=None)
def weyl_elements(g):
    """All elements of W(g), each exactly once, built once per group; a
    torus gets the trivial group."""
    n = g.rank
    if g.family == TORUS:
        return (SignedPermutation.identity(n),)
    perms = [tuple(p) for p in permutations(range(n))]
    if g.family == GL:
        return tuple(SignedPermutation(p, (1,) * n) for p in perms)
    signs = list(product((1, -1), repeat=n))
    if g.family == SO_EVEN:
        signs = [s for s in signs if prod(s) == 1]
    return tuple(SignedPermutation(p, s) for p in perms for s in signs)


def orbit(g, a):
    """The set {w.a : w in W}, element by element.  A torus gets GL's
    orbit: the library gives a torus GL's transpositions, a known defect
    that the tests pin, so its invariant characters are GL's."""
    if g.family == TORUS:
        g = GroupSpec(GL, g.rank)
    return {w.act(a) for w in weyl_elements(g)}


def compose(w, v):
    """w after v, so compose(w, v).act(a) == w.act(v.act(a))."""
    n = len(w.perm)
    perm = tuple(w.perm[v.perm[j]] for j in range(n))
    # the sign at slot i comes from w at i and from v at w^-1(i)
    inv = inverse(w)
    signs = tuple(w.signs[i] * v.signs[inv.perm[i]] for i in range(n))
    return SignedPermutation(perm, signs)


def inverse(w):
    n = len(w.perm)
    inv = [0] * n
    for j in range(n):
        inv[w.perm[j]] = j
    signs = tuple(w.signs[w.perm[j]] for j in range(n))
    return SignedPermutation(tuple(inv), signs)


def substitute(f, w):
    """f with x_j replaced by signs[perm[j]] * x_perm[j], the action that
    sends the linear form of a weight a to that of w.a."""
    terms = {}
    for e, c in f.terms.items():
        new = [0] * f.rank
        sign = 1
        for j, k in enumerate(e):
            i = w.perm[j]
            new[i] = k
            if w.signs[i] == -1 and k % 2 == 1:
                sign = -sign
        key = tuple(new)
        terms[key] = terms.get(key, Fraction(0)) + sign * c
    return SymbolicPolynomial(f.rank, terms)


def oracle_average(f, g):
    """The mean of f over every element of W(g)."""
    elements = weyl_elements(g)
    terms = {}
    for w in elements:
        for e, c in substitute(f, w).terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
    return SymbolicPolynomial(f.rank, {e: c / len(elements) for e, c in terms.items()})
