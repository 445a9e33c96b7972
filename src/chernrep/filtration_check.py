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

  * the span of products gamma^{a_1}(z_1)...gamma^{a_k}(z_k), sum a_j = p,
    with the z's running over Weyl-orbit sums z = sum_b ([b] - [0]) whose
    images are a basis of the augmentation-zero invariants, kept by one
    scan of the dominant weights: over Q, gamma^a(x) modulo r^(d+1) depends
    only on the image of x.  As gamma_t([b] - 1) = 1 + ([b] - 1)t,
    gamma^a(z) is the elementary symmetric function e_a of the images
    u_b = e^(b.x) - 1, which Newton's identity builds from their power sums
    P_k = sum_b u_b^k; the degree-m part of P_k is k! S(m, k) z_m, with S
    the Stirling numbers of the second kind.  A product of two or more
    factors splits into two of weights a <= p/2 and p - a, and
    Gamma^a Gamma^b lies in Gamma^(a+b), so the span is gamma^p plus
    Gamma^a Gamma^(p-a) for a <= p/2 only, and Gamma^0..Gamma^d come from
    one forward pass: gamma^1..gamma^top of each sum at once, then each
    Gamma^p from the pieces below it.  Gamma^p lies in r^p, so for p > d it
    is zero in the model and no product is formed;
  * the invariants of filtration degree >= p, the image of r^p cut down to
    the invariants: the span of the coordinates of degree >= p.

All linear algebra is exact and runs through one fraction-free routine in
integers: a subspace is kept as its reduced row echelon form with primitive
integer rows and positive pivots, which is canonical, so subspace equality
is literal equality.
"""

from itertools import product
from math import comb, factorial, gcd, prod

from .char_ring import VirtualCharacter
from .errors import InvarianceError, RankMismatchError, ReductionDefectError, model_dimension
from .weyl import GL, SO_EVEN, TORUS, _fixed_by_generators, _Record, dominant_weights, orbit


def _primitive(vec):
    """vec divided by the gcd of its entries and signed so that its first
    nonzero entry is positive."""
    g = gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return [v // g for v in vec] if g != 1 else vec


class Subspace:
    """Subspace of Q^dim in canonical form: the reduced row echelon basis,
    each row scaled to a primitive integer vector with a positive pivot.
    Elimination is fraction-free, so it runs in integers throughout, and
    equal subspaces have equal rows."""

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, ambient_dim):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_rows", {})  # pivot column -> row

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

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

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _dominant_exponents(g, d):
    """The exponents mu, |mu| <= d, whose orbit sums span the W-invariant
    polynomials of degree <= d, as non-increasing n-tuples, by degree: all
    of them for GL and the torus, those with every part even where W
    changes signs, and for even SO, which changes an even number of signs,
    also those with every part odd."""
    n = g.rank

    def parts(k, s, top):
        # the non-increasing k-tuples of sum s with entries <= top
        if s > k * top:
            return
        if k == 0:
            yield ()
            return
        for v in range(min(s, top), -1, -1):
            for tail in parts(k - 1, s - v, v):
                yield (v, *tail)

    return [
        mu
        for s in range(d + 1)
        for mu in parts(n, s, s)
        if g.family in (GL, TORUS)
        or all(v % 2 == 0 for v in mu)
        or (g.family == SO_EVEN and all(v % 2 for v in mu))
    ]


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
        self._sums = None  # the kept orbit-sum images, built on first use

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

    def orbit_sums(self):
        """The images of the orbit sums z = sum_(b in Wa) ([b] - [0]) that
        one scan keeps, in its order: the dominant weights a of [-d, d]^n by
        increasing |a|_1, each sum kept when its image is independent of
        those kept before.  The images lie in the augmentation-zero
        invariants, of dimension dim - 1, so the scan stops there; the kept
        images span those of every orbit sum in the box, so gamma monomials
        over the kept sums span the same subspaces (Fulton-Lang,
        Riemann-Roch Algebra, ch. I-III).  The scan runs once per model,
        and one that ends short is a defect."""
        if self._sums is None:
            g, n = self.group, self.rank
            zero = (0,) * n
            span, kept = Subspace(self.dim), []
            for a in dominant_weights(g, self.d):
                if span.dim == self.dim - 1:
                    break
                orb = orbit(g, a)
                image = self.reduce(VirtualCharacter(n, {**dict.fromkeys(orb, 1), zero: -len(orb)}))
                rank = span.dim
                span._insert(image)
                if span.dim > rank:
                    kept.append(image)
            if span.dim < self.dim - 1:
                raise ReductionDefectError(
                    f"the orbit sums of {g} span fewer than its invariants of "
                    f"degree <= {self.d}: wrong exponent table"
                )
            self._sums = kept
        return self._sums

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
    """[Gamma^0(S), ..., Gamma^p_max(S)] in the model, over the orbit sums
    `sums` (the input of `model.gammas`), in one forward pass.  Each sum
    gives gamma^1..gamma^top at once (top = min(max(p_max, 1), d)).  Every
    product of two or more factors splits into factors of weights a <= p/2
    and p - a, so Gamma^p is spanned by gamma^p and the products of the
    rows of Gamma^a and Gamma^(p-a), a <= p/2, both built before it; at
    2a = p the pairs i <= j of rows suffice.  Gamma^0 is the unit with
    Gamma^1.  Past d, Gamma^p lies in r^p, which is zero in the model, so
    the list stops at p = min(p_max, d) and no product is formed past d."""
    top = min(max(p_max, 1), model.d)
    spans = [Subspace(model.dim) for _ in range(top + 1)]
    for z in sums:
        for span, value in zip(spans[1:], model.gammas(z, top)[1:]):
            span._insert(value)
    for p in range(2, top + 1):
        for a in range(1, p // 2 + 1):
            right = spans[p - a].rows
            for i, u in enumerate(spans[a].rows):
                for v in right[i if 2 * a == p else 0 :]:
                    spans[p]._insert(model.multiply(u, v))
    spans[0] = Subspace.from_vectors(model.dim, [model.unit(), *spans[1].rows])
    return spans[: p_max + 1]


def gamma_subspace_invariant(g, p, d):
    """Image in the truncated model of the degree-p piece of the gamma
    filtration of the invariant subring; zero for p > d."""
    if p < 0:
        raise ValueError("filtration degree p must be >= 0")
    model = TruncatedAlgebra(g, d)
    if p > d:
        return Subspace(model.dim)
    return _gamma_filtration(model, model.orbit_sums(), p)[p]


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
    so those entries are equal at dimension 0 without any work."""
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    model = TruncatedAlgebra(g, d)
    entries = []
    for p, s_side in enumerate(_gamma_filtration(model, model.orbit_sums(), p_max)):
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

