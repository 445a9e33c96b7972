"""The u-model and the full-box route of `check-prop`: the test oracle for
the model of `chernrep.filtration_check`.

The library keeps an invariant in Chern-character coordinates over the
dominant exponents.  Here the whole ambient ring R(T) (tensor Q) is
modelled modulo r^(d+1), r the augmentation ideal: with u_i = [e_i] - [0]
the quotient is the truncated polynomial algebra on u_1..u_n, with
monomial basis of total degree <= d, and every character reduces exactly
via [a] = prod (1 + u_i)^(a_i), expanded through generalized binomials.
The gamma spans are built from every product of the gamma operations of
one orbit sum per Weyl orbit of a whole box, not from the gamma^p of the
coordinate vectors that the library takes.  `to_ch` carries a u-model
vector to the library's coordinates, so each check against this module
takes an independent route.
"""

import itertools
from functools import lru_cache
from math import factorial, prod

from chernrep.char_ring import VirtualCharacter, _binomial_power, _code, _form, _product
from chernrep.errors import RankMismatchError, model_dimension
from chernrep.filtration_check import Subspace, TruncatedAlgebra
from chernrep.weyl import invariant_degrees
from weyl_oracle import orbit


def u_monomials(n, d):
    """The u-model's basis monomials: degree <= d, by degree, then lex."""
    mons = [()]
    for _ in range(n):
        mons = [m + (k,) for m in mons for k in range(d + 1 - sum(m))]
    return sorted(mons, key=lambda m: (sum(m), m))


class UModel:
    """R(T) tensor Q modulo r^(d+1), with a monomial basis in the u_i."""

    def __init__(self, group, d):
        if d < 1:
            raise ValueError("truncation degree must be >= 1")
        n = group.rank
        self.dim = model_dimension(n, d)
        self.group = group
        self.d = d
        self.rank = n
        # basis order is monomial code order in base d + 1 (graded lex), and
        # a product of basis monomials lies in the model iff its code < cut
        self.monomials = u_monomials(n, d)
        self.degrees = [sum(m) for m in self.monomials]
        self.codes = [_code((k, *m), d + 1) for k, m in zip(self.degrees, self.monomials)]
        self.index = {c: j for j, c in enumerate(self.codes)}
        self._cut = (d + 1) ** (n + 1)
        self._powers = {}  # (i, a) -> coded (1 + u_i)^a through degree d

    def zero(self):
        return [0] * self.dim

    def unit(self):
        vec = self.zero()
        vec[0] = 1
        return vec

    def reduce(self, x, images=None):
        """Image of a virtual character: [a] expands as the product of
        (1 + u_i)^(a_i) truncated, with integer binomial coefficients, taken
        on monomial codes over the nonzero coordinates of a only.  With a
        list `images`, the coded image of [a] (monomial code -> coefficient,
        the constant 1 at code 0) of each nonzero weight a of x is appended
        to it, in the order of x.terms."""
        if x.rank != self.rank:
            raise RankMismatchError("character rank does not match the model")
        vec = self.zero()
        index, cut, powers = self.index, self._cut, self._powers
        for w, mult in x.terms.items():
            terms = None
            for i, a in enumerate(w):
                if not a:
                    continue
                power = powers.get((i, a))
                if power is None:
                    u = _form([int(j == i) for j in range(self.rank)], self.d + 1)
                    power = powers[i, a] = _binomial_power(u, a, self.d, cut)
                terms = power if terms is None else _product(terms, power, cut)
            if images is not None and terms is not None:
                images.append(terms)
            for code, c in (terms or {0: 1}).items():
                vec[index[code]] += mult * c
        return vec

    def multiply(self, u, v):
        """Product of two model vectors."""
        return self._times(u, [(self.codes[j], b) for j, b in enumerate(v) if b])

    def _times(self, u, support_v, out=None):
        """u times the vector with support support_v (its nonzero entries as
        (code, coefficient), in basis order), added into out (a new zero
        vector by default).  Both run in basis order, which is code order,
        so the inner walk stops where the code of the product reaches the
        cut, past degree d."""
        out = [0] * self.dim if out is None else out
        if not support_v:
            return out
        index, codes, cut = self.index, self.codes, self._cut
        lowest = support_v[0][0]
        for i, a in enumerate(u):
            if not a:
                continue
            code = codes[i]
            room = cut - code
            if room <= lowest:
                break
            for c, b in support_v:
                if c >= room:
                    break
                out[index[code + c]] += a * b
        return out

    def gammas(self, images, top=None):
        """gamma^0..gamma^top (top = d by default) of an orbit sum
        z = sum_b ([b] - [0]) in the model, given by the coded images of
        its weights b that `reduce` appends.  Since
        gamma_t([b] - 1) = 1 + ([b] - 1)t, gamma^a(z) is the elementary
        symmetric function e_a of the images u_b of [b] - [0], built by the
        recurrence e_j += e_(j-1) u_b, one weight at a time, in place.  The
        image of [b] less its constant 1 at code 0 is u_b, whose support
        in basis order is its codes sorted."""
        top = self.d if top is None else min(top, self.d)
        es = [self.unit()] + [self.zero() for _ in range(top)]
        for seen, image in enumerate(images, 1):
            u = sorted(image.items())[1:]
            for j in range(min(seen, top), 0, -1):
                self._times(es[j - 1], u, es[j])
        return es


def invariant_count(g, d):
    """Number of W-invariant polynomials of degree <= d: the monomials in
    free generators of the degrees `invariant_degrees` gives (Chevalley),
    counted by weighted degree."""
    counts = [1] + [0] * d
    for deg in invariant_degrees(g):
        for s in range(deg, d + 1):
            counts[s] += counts[s - deg]
    return sum(counts)


@lru_cache(maxsize=None)
def _ch_matrix(group, d):
    """Rows c_mu(u^m) = prod_i m_i! S(mu_i, m_i), one per exponent mu of
    the library's model, over the u-model's monomials m."""
    stirling = [[1] + [0] * d]
    for _ in range(d):
        row = stirling[-1]
        stirling.append([0] + [k * row[k] + row[k - 1] for k in range(1, d + 1)])
    monomials = u_monomials(group.rank, d)
    return [
        [prod(factorial(k) * stirling[e][k] for e, k in zip(mu, m)) for m in monomials]
        for mu in TruncatedAlgebra(group, d).exponents
    ]


def to_ch(model, vec):
    """The u-model vector vec in the coordinates of the library's model:
    u^m = prod_i (e^(x_i) - 1)^(m_i), and (e^t - 1)^k = k! sum_j S(j, k)
    t^j / j!, S the Stirling numbers of the second kind."""
    return [sum(c * v for c, v in zip(row, vec)) for row in _ch_matrix(model.group, model.d)]


def ch_subspace(model, space):
    """A subspace of the u-model carried into the coordinates of `model`."""
    return Subspace.from_vectors(model.dim, [to_ch(model, row) for row in space.rows])


def orbit_sum_generators(g, bound):
    """Augmentation-zero orbit sums over weights with coordinates in
    [-bound, bound]; exactly one per Weyl orbit."""
    n = g.rank
    zero = (0,) * n
    seen = {zero}
    gens = []
    for a in itertools.product(range(-bound, bound + 1), repeat=n):
        if a in seen:
            continue
        orb = orbit(g, a)
        seen |= orb
        terms = {b: 1 for b in orb}
        terms[zero] = -len(orb)
        gens.append(VirtualCharacter(n, terms))
    return gens


def weight_images(model, z):
    """The coded images of the nonzero weights of z that `model.reduce`
    appends: the input of `model.gammas` for an orbit sum z."""
    images = []
    model.reduce(z, images)
    return images


def product_spans_by_all_splits(model, values, top):
    """[Gamma^0, ..., Gamma^top], top >= 1, over generators whose
    gamma^0..gamma^top are `values` (one list per generator): Gamma^p as
    gamma^p plus gamma^a Gamma^(p-a) for every a in 1..p-1, which forms
    most products more than once.  Every product of gamma operations of
    weight p is one gamma^a times a product of weight p - a, so this is the
    whole of Gamma^p.  Gamma^0 is the unit with Gamma^1."""
    gammas = [Subspace.from_vectors(model.dim, [es[a] for es in values]) for a in range(top + 1)]
    spans = [None]
    for p in range(1, top + 1):
        span = Subspace.from_vectors(model.dim, gammas[p].rows)
        for a in range(1, p):
            for u in gammas[a].rows:
                for v in spans[p - a].rows:
                    span._insert(model.multiply(u, v))
        spans.append(span)
    spans[0] = Subspace.from_vectors(model.dim, [model.unit(), *spans[1].rows])
    return spans


def full_box_context(g, d, bound=None):
    """The full-box route: [Gamma^0, ..., Gamma^d] of the degree-d u-model
    over one orbit sum per Weyl orbit in the whole box [-bound, bound]^n
    (bound = d by default).  The orbit sums are not homogeneous, so their
    gamma^p alone do not span Gamma^p (every GL2 orbit has at most 2
    weights, so gamma^3 of each is 0), and the products are formed."""
    model = UModel(g, d)
    gens = orbit_sum_generators(g, d if bound is None else bound)
    values = [model.gammas(weight_images(model, z)) for z in gens]
    return product_spans_by_all_splits(model, values, d)
