"""Classical group descriptors, their text form, the action of their Weyl
groups on integer tuples, and `_Record`, the immutable base of every value
type of the library.

`parse_group` reads a group spec ("GL3", "Sp4", "SO5", "T2") into the
`GroupSpec` it names.

Weights live in the character lattice Z^n of a maximal torus and are plain
integer tuples.  Weyl groups of the four classical families are realized
concretely: permutations for GL(n), all signed permutations for Sp(2l) and
SO(2l+1), and evenly-signed permutations for SO(2l), acting in the standard
coordinates of the lattice.  W acts only through its generators:
`_images` yields the images of an integer tuple under them and invariance
is checked on them.  No element of W is ever built and no orbit is closed:
`_carries_invariant` says from the exponent alone where the average of a
monomial over W is nonzero.
"""

import re

from .errors import ParseError, parse_int

GL = "GL"
SP = "Sp"
SO_ODD = "SOodd"
SO_EVEN = "SOeven"
TORUS = "Torus"

FAMILIES = (GL, SP, SO_ODD, SO_EVEN, TORUS)


class _Record:
    """An immutable value whose fields are its __slots__, given by position
    or keyword; the base of every value type of the library.  Records are
    equal when of one class with equal fields, and equal records hash
    alike, a dict-valued field by its items.  copy and pickle rebuild a
    record from its fields through `_trusted`, without checking them."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            # dict() refuses a field given both by position and by keyword
            values = dict(**dict(zip(fields, args)), **kwargs)
            if len(args) > len(fields) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *fields):
        """The record of these fields as they are, unchecked."""
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(record, name, value)
        return record

    def _key(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return type(self)._trusted, self._key()[1]

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return isinstance(other, _Record) and self._key() == other._key()

    def __hash__(self):
        cls, values = self._key()
        return hash((cls, *(frozenset(v.items()) if isinstance(v, dict) else v for v in values)))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key()[1]))
        return f"{type(self).__qualname__}({fields})"


class GroupSpec(_Record):
    """A classical reductive group (or torus) given by family and rank."""

    __slots__ = ("family", "rank")

    def __init__(self, family, rank):
        super().__init__(family, rank)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    @property
    def ambient_dim(self):
        """Dimension of the standard representation."""
        if self.family == GL:
            return self.rank
        if self.family == SP:
            return 2 * self.rank
        if self.family == SO_ODD:
            return 2 * self.rank + 1
        if self.family == SO_EVEN:
            return 2 * self.rank
        raise ValueError("a torus has no standard representation")

    def __str__(self):
        if self.family == TORUS:
            return f"T{self.rank}"
        if self.family == GL:
            return f"GL{self.rank}"
        return f"{'Sp' if self.family == SP else 'SO'}{self.ambient_dim}"


_GROUP_RX = re.compile(r"^(GL|Sp|SO|T)(\d+)$")


def parse_group(text):
    """Parse "GL3", "Sp4", "SO5", "SO4" or "T2" (case-sensitive)."""
    m = _GROUP_RX.match(text.strip())
    if not m:
        raise ParseError(f"not a group spec: {text!r}")
    kind, num = m.group(1), parse_int(m.group(2))
    if kind == "GL":
        if num < 1:
            raise ParseError("GL needs n >= 1")
        return GroupSpec(GL, num)
    if kind == "T":
        if num < 1:
            raise ParseError("torus rank must be >= 1")
        return GroupSpec(TORUS, num)
    if kind == "Sp":
        if num < 2 or num % 2:
            raise ParseError(f"Sp needs an even ambient dimension, got {num}")
        return GroupSpec(SP, num // 2)
    if num < 2:
        raise ParseError(f"SO needs ambient dimension >= 2, got {num}")
    if num % 2:
        return GroupSpec(SO_ODD, (num - 1) // 2)
    return GroupSpec(SO_EVEN, num // 2)


def invariant_degrees(g):
    """Degrees of the free generators of the W-invariant polynomials
    (Chevalley): 1..n for GL, 2, 4, ..., 2n for Sp and odd SO, and
    2, ..., 2n-2 and the Pfaffian's n for even SO.  A torus gets GL's
    degrees, as `_images` and `_carries_invariant` treat it as GL."""
    n = g.rank
    if g.family in (GL, TORUS):
        return tuple(range(1, n + 1))
    if g.family in (SP, SO_ODD):
        return tuple(range(2, 2 * n + 1, 2))
    return (*range(2, 2 * n - 1, 2), n)


def _images(g, v):
    """The images of the integer tuple v under the Weyl generators of g:
    each adjacent transposition, then the sign change of the family, of
    the last slot for Sp and odd SO and of the last two for even SO.  A
    torus gets GL's transpositions; GL1, T1 and SO2 have no generator."""
    for i in range(len(v) - 1):
        yield (*v[:i], v[i + 1], v[i], *v[i + 2:])
    if g.family in (SP, SO_ODD):
        yield (*v[:-1], -v[-1])
    elif g.family == SO_EVEN and len(v) >= 2:
        yield (*v[:-2], -v[-2], -v[-1])


def _fixed_by_generators(terms, g, key):
    """True iff every Weyl generator of g fixes the finitely supported map
    terms: for each term (v, c) and each image u of v in `_images`, key(u)
    is a pair (k, s) with terms[k] == s * c, s = +-1.  As key is
    injective, this is terms equal to its image under each generator,
    looked up term by term."""
    for v, c in terms.items():
        for u in _images(g, v):
            k, s = key(u)
            if terms.get(k) != (c if s > 0 else -c):
                return False
    return True


def _carries_invariant(g, mu):
    """True iff the average of x^mu over the Weyl group of g is nonzero,
    that is iff no sign change of W negates x^mu: always for GL, when every
    part is even for Sp and odd SO, and for even SO, whose sign changes
    come in pairs, also when all n parts are odd.  A torus gets GL's rule,
    as `_images` gives it GL's transpositions."""
    if g.family in (GL, TORUS):
        return True
    return all(k % 2 == 0 for k in mu) or (g.family == SO_EVEN and all(k % 2 for k in mu))
