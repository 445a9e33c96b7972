"""Small-scale computational check that the gamma filtration of an invariant
subring matches the restricted ambient filtration, rationally.

The ambient ring R(T) (tensor Q) is modelled modulo r^(d+1), r the
augmentation ideal: with u_i = [e_i] - [0] the quotient is the truncated
polynomial algebra on u_1..u_n, with monomial basis of total degree <= d,
and every character reduces exactly via [a] = prod (1 + u_i)^(a_i) expanded
through generalized binomials.

Inside the model two subspaces are built per degree p and compared:

  * the span of products gamma^{a_1}(z_1)...gamma^{a_k}(z_k), sum a_j = p,
    with the z's running over Weyl-orbit sums z = sum_b ([b] - [0]) whose
    model images are a basis of the images of all orbit sums in the box
    [-d, d]^n, which span the augmentation-zero invariants: over Q,
    gamma^a(x) modulo r^(d+1) depends only on the image of x.  The gamma
    operations never leave the model: gamma_t([b] - 1) = 1 + ([b] - 1)t,
    so gamma^a(z) is the elementary symmetric function e_a of the images
    u_b of [b] - [0].  The scan below reduces each weight b once, and the
    images of the weights of the sums it keeps are the u_b that `gammas`
    reads.  A product of two or more factors splits into two of weights
    a <= p/2 and p - a, and Gamma^a Gamma^b lies in Gamma^(a+b), so the
    span is gamma^p plus Gamma^a Gamma^(p-a) for a <= p/2 only, and
    Gamma^0..Gamma^d come from one forward pass: gamma^1..gamma^top of each
    sum at once, then each Gamma^p from the pieces below it.  Gamma^p lies
    in r^p, so for p > d it is zero in the model and no product is formed;
  * the W-invariant vectors supported on basis monomials of degree >= p
    (the reduction of r^p, which is the ambient filtration for a split ring,
    cut down to the invariants).  The invariants of the model are the span
    of the unit and the images of those same kept orbit sums, found by one
    scan per model that stops at the number of W-invariant polynomials of
    degree <= d (Chevalley: a free algebra on generators of known degrees).

All linear algebra is exact and runs through one fraction-free routine in
integers: a subspace is kept as its reduced row echelon form with primitive
integer rows and positive pivots, which is canonical, so subspace equality
is literal equality.
"""

from math import gcd

from .char_ring import VirtualCharacter, _binomial_power, _code, _form, _product
from .errors import RankMismatchError, ReductionDefectError, model_dimension
from .weyl import _Record, dominant_weights, invariant_degrees, orbit


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


class TruncatedAlgebra:
    """R(T) tensor Q modulo r^(d+1), with a monomial basis in the u_i."""

    def __init__(self, group, d):
        if d < 1:
            raise ValueError("truncation degree must be >= 1")
        n = group.rank
        self.dim = model_dimension(n, d)
        self.group = group
        self.d = d
        self.rank = n
        mons = [()]
        for _ in range(n):
            mons = [m + (k,) for m in mons for k in range(d + 1 - sum(m))]
        # basis order is monomial code order in base d + 1 (graded lex), and
        # a product of basis monomials lies in the model iff its code < cut
        self.monomials = sorted(mons, key=lambda m: (sum(m), m))
        self.degrees = [sum(m) for m in self.monomials]
        self.codes = [_code((k, *m), d + 1) for k, m in zip(self.degrees, self.monomials)]
        self.index = {c: j for j, c in enumerate(self.codes)}
        self._cut = (d + 1) ** (n + 1)
        self._powers = {}  # (i, a) -> coded (1 + u_i)^a through degree d
        self._scanned = None  # (kept orbit sums, invariants), built on first use

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
        return self._times(u, self._support(v))

    def _support(self, v):
        """The nonzero entries of v as (code, coefficient), in basis order."""
        return [(self.codes[j], b) for j, b in enumerate(v) if b]

    def _times(self, u, support_v, out=None):
        """u times the vector with support support_v, added into out (a new
        zero vector by default).  Both run in basis order, which is code
        order, so the inner walk stops where the code of the product
        reaches the cut, past degree d."""
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

    def orbit_sums(self):
        """The orbit sums that one scan of the box [-d, d]^n keeps, each as
        the list of the coded images of its nonzero weights (the input of
        `gammas`).  The scan runs once per model."""
        return self._scan()[0]

    def invariant_subspace(self, p=0):
        """W-invariant vectors supported on basis monomials of degree >= p.
        The invariants are the span of the unit and the images of the orbit
        sums that one scan of the box [-d, d]^n keeps, built once per model.
        The monomials of degree >= p are a suffix of the basis, and as each
        row of the canonical form is zero in the other pivot columns, the
        invariants vanishing before the suffix are spanned by the rows that
        pivot inside it."""
        invariants = self._scan()[1]
        start = next((j for j, k in enumerate(self.degrees) if k >= p), self.dim)
        suffix = Subspace(self.dim)
        suffix._rows.update(
            (piv, row) for piv, row in invariants._rows.items() if piv >= start
        )
        return suffix

    def _scan(self):
        """(the kept orbit sums, the W-invariant subspace), from one scan
        per model; a scan that ends short of the invariant count is a
        defect."""
        if self._scanned is None:
            sums, images = _independent_orbit_sums(self)
            if images.dim + 1 < _invariant_count(self.group, self.d):
                raise ReductionDefectError(
                    f"the orbit sums of {self.group} span fewer than its "
                    f"invariants of degree <= {self.d}: wrong degree table"
                )
            images._insert(self.unit())
            self._scanned = sums, images
        return self._scanned


def _invariant_count(g, d):
    """Number of W-invariant polynomials of degree <= d: the monomials in
    free generators of the degrees `invariant_degrees` gives (Chevalley),
    counted by weighted degree."""
    counts = [1] + [0] * d
    for deg in invariant_degrees(g):
        for s in range(deg, d + 1):
            counts[s] += counts[s - deg]
    return sum(counts)


def _independent_orbit_sums(model):
    """Orbit sums z = sum_b ([b] - [0]) of the dominant weights in
    [-d, d]^n, by increasing |a|_1, each kept when its model image raises
    the rank, with the span of the kept images.  A kept sum is the list of
    the images of its weights that `reduce` built for its own image; those
    of the other sums are dropped.  The images lie in the
    augmentation-zero invariants, so the scan stops at their dimension,
    the invariant count less one.  The kept images span those of every
    orbit sum in the box, so gamma monomials over the kept sums span the
    same subspaces (Fulton-Lang, Riemann-Roch Algebra, ch. I-III)."""
    g, n = model.group, model.rank
    zero = (0,) * n
    target = _invariant_count(g, model.d) - 1
    images = Subspace(model.dim)
    kept = []
    for a in dominant_weights(g, model.d):
        if images.dim == target:
            break
        orb = orbit(g, a)
        z = VirtualCharacter(n, {**dict.fromkeys(orb, 1), zero: -len(orb)})
        rank, weights = images.dim, []
        images._insert(model.reduce(z, weights))
        if images.dim > rank:
            kept.append(weights)
    return kept, images


def _gamma_filtration(model, sums, p_max):
    """[Gamma^0(S), ..., Gamma^p_max(S)] in the model, over the orbit sums
    `sums` (each as the images of its weights, see `gammas`), in one
    forward pass.  Each sum gives gamma^1..gamma^top at once
    (top = min(max(p_max, 1), d)).  Every product of two or more factors
    splits into factors of weights a <= p/2 and p - a, so Gamma^p is
    spanned by gamma^p and the products of the rows of Gamma^a and
    Gamma^(p-a), a <= p/2, both built before it; at 2a = p the pairs i <= j
    of rows suffice.  Gamma^0 is the unit with Gamma^1.  Past d, Gamma^p
    lies in r^p, which is zero in the model, so the list stops at
    p = min(p_max, d) and no product is formed past d."""
    top = min(max(p_max, 1), model.d)
    spans = [Subspace(model.dim) for _ in range(top + 1)]
    for images in sums:
        for span, value in zip(spans[1:], model.gammas(images, top)[1:]):
            span._insert(value)
    for p in range(2, top + 1):
        for a in range(1, p // 2 + 1):
            right = [model._support(v) for v in spans[p - a].rows]
            for i, u in enumerate(spans[a].rows):
                for v in right[i if 2 * a == p else 0 :]:
                    spans[p]._insert(model._times(u, v))
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
            from fractions import Fraction  # here, not at the top: only a DIFFER needs it

            # witnesses are reported as rational rows with pivot 1
            witnesses = tuple(
                tuple(Fraction(v, next(c for c in row if c)) for v in row)
                for row in ambient.rows
                if not s_side.contains(row)
            )
        entries.append(PropEntry(p, s_side.dim, ambient.dim, equal, witnesses))
    entries += [PropEntry(p, 0, 0, True, ()) for p in range(len(entries), p_max + 1)]
    return PropReport(
        group=str(g),
        d=d,
        entries=tuple(entries),
        passed=all(e.equal for e in entries),
    )

