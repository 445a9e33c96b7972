"""The full-box route of `check-prop`: the test oracle for the orbit sums
that the scan of `chernrep.filtration_check` keeps.

The library scans the dominant weights of [-d, d]^n and keeps an orbit sum
only when its model image is independent of those kept before.  Here every
Weyl orbit of a whole box gives its orbit sum, so the gamma spans built
from them take an independent route to the same subspaces.
"""

import itertools

from chernrep.char_ring import VirtualCharacter
from chernrep.filtration_check import TruncatedAlgebra, _gamma_filtration
from chernrep.weyl import orbit


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


def full_box_context(g, d, bound=None, top=None):
    """The full-box route: [Gamma^0, ..., Gamma^top] (top = d by default) of
    the degree-d model over one orbit sum per Weyl orbit in the whole box
    [-bound, bound]^n (bound = d by default)."""
    model = TruncatedAlgebra(g, d)
    gens = orbit_sum_generators(g, d if bound is None else bound)
    sums = [weight_images(model, z) for z in gens]
    return _gamma_filtration(model, sums, d if top is None else top)
