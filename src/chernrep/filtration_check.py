"""Small-scale computational check that the gamma filtration of an invariant
subring matches the restricted ambient filtration, rationally.

Over Q the Chern character is a W-equivariant isomorphism of filtered rings
ch: R(T) tensor Q / r^(d+1) -> Q[x_1..x_n] / (deg > d), r the augmentation
ideal, which sends r^p onto degree >= p (Fulton-Lang, Riemann-Roch Algebra,
ch. III; Atiyah-Tall 1969).  So the check runs in the W-invariants of the
right-hand side.  An invariant F is kept as its coordinates
c_mu = mu! [x^mu] F (mu! = prod_i mu_i!) over the dominant exponents mu with
|mu| <= d, by degree: the partitions with at most n parts for GL (and a
torus, whose Weyl generators are GL's), those with every part even for Sp
and odd SO, and for even SO also those with n parts, all odd.  As
ch [a] = e^(a.x), a character x = sum_a m_a [a] has c_mu = sum_a m_a a^mu.

Inside the model two subspaces are built per degree p and compared:

  * Gamma^p(S), the span of products gamma^{a_1}(z_1)...gamma^{a_k}(z_k),
    sum a_j = p, with the z's running over the coordinate vectors of
    degree >= 1, a basis of the augmentation-zero invariants.  As
    gamma_t(z) = exp(sum_k (-1)^(k-1) P_k(z) t^k / k) and the degree-m part
    of P_k(z) is k! S(m, k) z_m (S the Stirling numbers of the second
    kind), linear in z, gamma_t(z + w) = gamma_t(z) gamma_t(w) and
    gamma_t(qz) = gamma_t(z)^q: Gamma^p is the same for every basis.  For
    a coordinate vector z of degree m, P_k(z) = k! S(m, k) z, so
    gamma_t(z) = exp(z g_m(t)) with g_m(t) = sum_k (-1)^(k-1) (k-1)! S(m, k)
    t^k, and gamma^p(z) = (-1)^(p-1) (p-1)! S(m, p) z plus terms in z^j,
    j >= 2, of degree >= 2m.  S(m, p) is nonzero for m >= p, so by
    descending induction on m the gamma^p rows alone span every
    coordinate of degree >= p, where every product of weight p lies:
    Gamma^p(S) is the span of the gamma^p rows, and no product is formed;
  * the invariants of filtration degree >= p, the image of r^p cut down to
    the invariants: the span of the coordinates of degree >= p.

Gamma^p(S) lies in r^p, so it lies in the second subspace, and for p > d
both are zero in the model.  By the closed form the two are equal for
every p, so a PASS follows from the choice of basis, and a DIFFER (the
gamma^p rows falling short of degree >= p) names a defect in `gammas`.
The tests build Gamma^p independently, from every product of gamma
operations of one orbit sum per Weyl orbit, in the u-model of
`tests/filtration_oracle.py`.

All linear algebra is exact and runs through one fraction-free routine in
integers: a subspace is kept as its reduced row echelon form with primitive
integer rows and positive pivots, which is canonical, so subspace equality
is literal equality.
"""

from itertools import product
from math import comb, factorial, gcd, prod

from .errors import InvarianceError, RankMismatchError, ReductionDefectError, model_dimension
from .errors import within_limit
from .weyl import _carries_invariant, _fixed_by_generators, _Record


def _primitive(vec):
    """vec divided by the gcd of its entries and signed so that its first
    nonzero entry is positive."""
    g = gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return [v // g for v in vec] if g != 1 else vec


class Subspace(_Record):
    """Subspace of Q^dim in canonical form: the reduced row echelon basis,
    each row scaled to a primitive integer vector with a positive pivot.
    Elimination is fraction-free, so it runs in integers throughout, and
    equal subspaces have equal rows."""

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, ambient_dim):
        super().__init__(ambient_dim, {})  # pivot column -> row

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        space = cls(ambient_dim)
        for vec in vectors:
            space._insert(vec)
        return space

    def _reduce(self, vec):
        """vec with every pivot column cleared by the rows, scaled by
        nonzero integers on the way; zero exactly when vec is in the span.
        Each row is zero in the other pivot columns, so the order of the
        steps does not matter."""
        if len(vec) != self.ambient_dim:
            raise ValueError("row length mismatch")
        vec = list(vec)
        for piv, row in self._rows.items():
            b = vec[piv]
            if b:
                a = row[piv]
                g = gcd(a, b)
                a, b = a // g, b // g
                vec = [a * v - b * r for v, r in zip(vec, row)]
        return vec

    def _insert(self, vec):
        """Add vec to the span while building; the new pivot column is then
        cleared from the other rows, which keeps the form reduced."""
        vec = self._reduce(vec)
        piv = next((j for j, v in enumerate(vec) if v), None)
        if piv is None:
            return
        vec = _primitive(vec)
        b = vec[piv]
        rows = self._rows
        for p, row in rows.items():
            c = row[piv]
            if c:
                g = gcd(b, c)
                row = [b // g * r - c // g * v for r, v in zip(row, vec)]
                rows[p] = _primitive(row)
        rows[piv] = vec

    @property
    def rows(self):
        return tuple(tuple(self._rows[p]) for p in sorted(self._rows))

    @property
    def dim(self):
        return len(self._rows)

    def contains(self, vec):
        return not any(self._reduce(vec))

    def contains_subspace(self, other):
        return all(self.contains(row) for row in other._rows.values())

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _partitions(n, s, top):
    """The non-increasing n-tuples of non-negative integers of sum s and
    parts at most top, in descending order: the first part v runs down
    from min(s, top) to the least for which n parts of at most v reach s.
    The recursion takes one level per nonzero part."""
    if not s:
        yield (0,) * n
        return
    for v in range(min(s, top), -(-s // n) - 1, -1):
        for tail in _partitions(n - 1, s - v, v):
            yield (v, *tail)


def _dominant_exponents(g, d):
    """The exponents mu, |mu| <= d, of the monomials whose averages over W
    are nonzero (`_carries_invariant`) and span the invariants of degree
    <= d: non-increasing n-tuples, by degree, then in descending order."""
    exponents = (mu for s in range(d + 1) for mu in _partitions(g.rank, s, s))
    return [mu for mu in exponents if _carries_invariant(g, mu)]


class TruncatedAlgebra:
    """The W-invariants of Q[x_1..x_n] / (deg > d), the image under ch of
    those of R(T) tensor Q modulo r^(d+1).  A vector is the list of the
    coordinates c_mu = mu! [x^mu] F of an invariant F over `exponents`,
    the dominant exponents of degree <= d, by degree."""

    def __init__(self, group, d):
        if d < 1:
            raise ValueError("truncation degree must be >= 1")
        model_dimension(group.rank, d)  # the size guard of the whole truncated ring
        self.group = group
        self.d = d
        self.rank = group.rank
        self.exponents = _dominant_exponents(group, d)
        self.dim = len(self.exponents)
        self.degrees = [sum(mu) for mu in self.exponents]
        self._table = None  # the product table, built on first use

    def zero(self):
        return [0] * self.dim

    def unit(self):
        vec = self.zero()
        vec[0] = 1
        return vec

    def reduce(self, x):
        """Image of a W-invariant virtual character: c_mu = sum_a m_a a^mu.
        A character that a Weyl generator moves has no image here and is
        refused with InvarianceError."""
        if x.rank != self.rank:
            raise RankMismatchError("character rank does not match the model")
        if not _fixed_by_generators(x.terms, self.group, lambda v: (v, 1)):
            raise InvarianceError(f"the character is not fixed by the Weyl group of {self.group}")
        return [
            sum(m * prod(map(pow, a, mu)) for a, m in x.terms.items())
            for mu in self.exponents
        ]

    def multiply(self, f, g):
        """Product of two invariants: (FG)_mu is the sum over alpha <= mu of
        prod_i C(mu_i, alpha_i) F_(sort alpha) G_(sort(mu - alpha)).  A table
        built once per model holds these terms by the pair of coordinates
        they read, so the walk skips the zero coordinates of f and g."""
        if self._table is None:
            self._table = self._product_table()
        out = self.zero()
        for a, pairs in zip(f, self._table):
            if a:
                for j, terms in pairs:
                    b = g[j]
                    if b:
                        ab = a * b
                        for k, c in terms:
                            out[k] += c * ab
        return out

    def _product_table(self):
        """For each coordinate i, the pairs (j, [(k, C), ...]): the term
        C F_i G_j of (FG)_mu for mu the k-th exponent, summed over the
        alpha <= mu whose sort alpha and sort(mu - alpha) are the i-th and
        j-th exponents.  Every other alpha adds 0, as an invariant vanishes
        at the exponents whose sorted form is not dominant."""
        index = {mu: j for j, mu in enumerate(self.exponents)}
        table = [{} for _ in self.exponents]
        for k, mu in enumerate(self.exponents):
            for alpha in product(*(range(m + 1) for m in mu)):
                i = index.get(tuple(sorted(alpha, reverse=True)))
                j = index.get(tuple(sorted((m - a for m, a in zip(mu, alpha)), reverse=True)))
                if i is not None and j is not None:
                    terms = table[i].setdefault(j, {})
                    terms[k] = terms.get(k, 0) + prod(map(comb, mu, alpha))
        return [[(j, list(terms.items())) for j, terms in sorted(row.items())] for row in table]

    def gammas(self, z, top=None):
        """f_0..f_top (top = d by default), f_a = a! gamma^a(z), for the
        image z of a character sum_b m_b ([b] - [0]).  gamma^a(z) is the
        elementary symmetric function e_a of the images u_b = e^(b.x) - 1,
        taken with multiplicity, and Newton's identity gives
        f_a = sum_(i=1..a) (-1)^(i-1) (a-1)!/(a-i)! f_(a-i) P_i from the
        power sums P_k = sum_b m_b u_b^k.  The degree-m part of P_k is
        k! S(m, k) z_m, S the Stirling numbers of the second kind, as
        (e^t - 1)^k has degree-m part k! S(m, k) t^m / m!; k! S(m, k)
        counts the maps of an m-set onto a k-set, which satisfy
        k! S(m, k) = k ((k-1)! S(m-1, k-1) + k! S(m-1, k))."""
        top = self.d if top is None else min(top, self.d)
        onto = [[1] + [0] * self.d]  # onto[k][m] = k! S(m, k)
        for k in range(1, top + 1):
            onto.append([0])
            for m in range(1, self.d + 1):
                onto[k].append(k * (onto[k - 1][m - 1] + onto[k][m - 1]))
        powers = [[row[m] * c for m, c in zip(self.degrees, z)] for row in onto]
        fs = [self.unit()]
        for a in range(1, top + 1):
            f = self.zero()
            for i in range(1, a + 1):
                c = (-1) ** (i - 1) * factorial(a - 1) // factorial(a - i)
                term = powers[a] if i == a else self.multiply(fs[a - i], powers[i])  # f_0 = 1
                f = [v + c * w for v, w in zip(f, term)]
            fs.append(f)
        return fs

    def invariant_subspace(self, p=0):
        """The invariants of filtration degree >= p: ch sends r^p onto
        degree >= p, so they are spanned by the coordinate vectors of the
        exponents of degree >= p."""
        space = Subspace(self.dim)
        space._rows.update(
            (j, [int(i == j) for i in range(self.dim)])
            for j, k in enumerate(self.degrees)
            if k >= p
        )
        return space


def _gamma_filtration(model, sums, p_max):
    """[Gamma^0(S), ..., Gamma^p_max(S)] in the model, over the coordinate
    vectors `sums` of degree >= 1: Gamma^p is the span of their gamma^p,
    each generator giving gamma^1..gamma^top at once
    (top = min(max(p_max, 1), d)).  For z of degree m,
    gamma^p(z) = (-1)^(p-1) (p-1)! S(m, p) z plus terms of degree >= 2m, so
    by descending induction on m these rows span every coordinate of
    degree >= p.  A product of rows of degree >= a and >= p - a lies in
    degree >= p (`multiply` adds degrees), so no product is formed.
    Gamma^0 is the unit with Gamma^1.  Past d, Gamma^p lies in r^p, which
    is zero in the model, so the list stops at p = min(p_max, d)."""
    top = min(max(p_max, 1), model.d)
    spans = [Subspace(model.dim) for _ in range(top + 1)]
    for z in sums:
        for span, value in zip(spans[1:], model.gammas(z, top)[1:]):
            span._insert(value)
    spans[0] = Subspace.from_vectors(model.dim, [model.unit(), *spans[1].rows])
    return spans[: p_max + 1]


class PropEntry(_Record):
    __slots__ = ("p", "dim_gamma_S", "dim_gamma_R_cap_S", "equal", "witnesses")


class PropReport(_Record):
    __slots__ = ("group", "d", "entries", "passed")

    def to_json_obj(self):
        return {
            "group": self.group,
            "d": self.d,
            "entries": [
                {
                    "p": e.p,
                    "dim_gamma_S": e.dim_gamma_S,
                    "dim_gamma_R_cap_S": e.dim_gamma_R_cap_S,
                    "equal": e.equal,
                }
                for e in self.entries
            ],
            "pass": self.passed,
        }


def verify_prop(g, p_max, d):
    """Compare, for each p <= p_max, the invariant-ring filtration subspace
    with the restricted ambient one.  The inclusion of the former in the
    latter must hold outright; equality failures are reported with the
    offending ambient basis vectors.  Past d both are zero in the model,
    so those entries are equal at dimension 0 without any work.  More than
    MODEL_DIM_LIMIT entries are refused with ModelSizeError first."""
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    model = TruncatedAlgebra(g, d)
    within_limit(p_max + 1, "report entry count")
    entries = []
    for p, s_side in enumerate(_gamma_filtration(model, model.invariant_subspace(1).rows, p_max)):
        ambient = model.invariant_subspace(p)
        if not ambient.contains_subspace(s_side):
            raise ReductionDefectError(
                f"Gamma^{p}(S) not inside Gamma^{p}(R) cap S at degree {d}: "
                "the filtration inclusion failed, which indicates a defect"
            )
        equal = s_side == ambient
        witnesses = ()
        if not equal:
            witnesses = tuple(row for row in ambient.rows if not s_side.contains(row))
        entries.append(PropEntry(p, s_side.dim, ambient.dim, equal, witnesses))
    entries += [PropEntry(p, 0, 0, True, ()) for p in range(len(entries), p_max + 1)]
    return PropReport(
        group=str(g),
        d=d,
        entries=tuple(entries),
        passed=all(e.equal for e in entries),
    )

