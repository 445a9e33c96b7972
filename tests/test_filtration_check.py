import copy
import hashlib
import io
import itertools
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from chernrep.char_ring import VirtualCharacter, augmentation, gamma_series
from chernrep.cli import run
from chernrep import filtration_check, weyl
from chernrep.errors import (
    InvarianceError,
    ModelSizeError,
    RankMismatchError,
)
from chernrep.filtration_check import (
    PropEntry,
    PropReport,
    Subspace,
    TruncatedAlgebra,
    _gamma_filtration,
    verify_prop,
)
from chernrep.weyl import (
    FAMILIES,
    GL,
    SO_EVEN,
    SO_ODD,
    SP,
    TORUS,
    GroupSpec,
    _images,
)
from filtration_oracle import (
    UModel,
    ch_subspace,
    full_box_context,
    invariant_count,
    orbit_sum_generators,
    product_spans_by_all_splits,
)
from weyl_oracle import orbit

rng = random.Random(31337)


def V(rank, terms):
    return VirtualCharacter(rank, terms)


def kept_filtration(g, d):
    """The model of degree d and [Gamma^0, ..., Gamma^d] over its
    generators, the coordinate vectors of degree >= 1."""
    model = TruncatedAlgebra(g, d)
    return model, _gamma_filtration(model, model.invariant_subspace(1).rows, d)


def gamma_piece(g, p, d):
    """Gamma^p(S), p <= d, in the model of degree d."""
    model = TruncatedAlgebra(g, d)
    return _gamma_filtration(model, model.invariant_subspace(1).rows, p)[p]


def test_model_dimensions():
    """The u-model has the C(n + d, n) monomials of degree <= d, the model
    one coordinate per dominant exponent."""
    for (family, rank, d), (u_dim, dim) in {
        (TORUS, 1, 3): (4, 4),
        (GL, 2, 2): (6, 4),
        (GL, 3, 4): (35, 11),
    }.items():
        g = GroupSpec(family, rank)
        assert UModel(g, d).dim == u_dim
        assert TruncatedAlgebra(g, d).dim == dim


def test_model_size_guard():
    with pytest.raises(ModelSizeError):
        TruncatedAlgebra(GroupSpec(TORUS, 10), 10)


def test_basis_order_is_code_order():
    """The u-model's basis monomials run by degree, then lex, and their
    codes increase strictly in that order, which its `multiply` relies on
    to stop its walks."""
    for family in (GL, SP, SO_ODD, SO_EVEN, TORUS):
        for rank in (1, 2, 3):
            for d in range(1, 5):
                model = UModel(GroupSpec(family, rank), d)
                assert all(a < b for a, b in zip(model.codes, model.codes[1:]))
                keys = [(sum(m), m) for m in model.monomials]
                assert keys == sorted(keys)
                assert [sum(m) for m in model.monomials] == model.degrees
                assert all(model.index[c] == j for j, c in enumerate(model.codes))


def test_reduction_of_basis_generator_power():
    model = TruncatedAlgebra(GroupSpec(TORUS, 1), 3)
    u = V(1, {(1,): 1, (0,): -1})
    assert any(model.reduce(u**3))
    assert not any(model.reduce(u**4))


def test_reduction_is_multiplicative():
    """The u-model's reduce, on characters that need not be invariant."""
    for name_rank, d in [((GL, 2), 3), ((SP, 2), 3)]:
        g = GroupSpec(*name_rank)
        model = UModel(g, d)
        for _ in range(25):
            x = V(
                g.rank,
                {
                    tuple(rng.randint(-2, 2) for _ in range(g.rank)): rng.randint(-2, 2)
                    for _ in range(3)
                },
            )
            y = V(
                g.rank,
                {
                    tuple(rng.randint(-2, 2) for _ in range(g.rank)): rng.randint(-2, 2)
                    for _ in range(3)
                },
            )
            assert model.reduce(x * y) == model.multiply(
                model.reduce(x), model.reduce(y)
            )


def test_orbit_sum_generators_have_zero_augmentation():
    for family, rank in [(GL, 2), (SP, 2), (SO_EVEN, 2)]:
        g = GroupSpec(family, rank)
        for z in orbit_sum_generators(g, 2):
            assert sum(z.terms.values()) == 0


def test_subspace_canonical_equality():
    rows_a = [(1, 0, 2), (0, 1, 3)]
    rows_b = [(2, 1, 7), (1, 0, 2)]
    a = Subspace.from_vectors(3, rows_a)
    b = Subspace.from_vectors(3, rows_b)
    assert a == b
    assert a.dim == 2
    assert a.contains((3, 1, 9))
    assert not a.contains((0, 0, 1))


def test_gamma_subspace_torus_rank1():
    g = GroupSpec(TORUS, 1)
    sub = gamma_piece(g, 1, 2)
    u = V(1, {(1,): 1, (0,): -1})
    model = TruncatedAlgebra(g, 2)
    expected = Subspace.from_vectors(3, [model.reduce(u), model.reduce(u**2)])
    assert sub == expected


def test_gamma_subspace_p0_is_invariant_subspace():
    g = GroupSpec(GL, 2)
    sub = gamma_piece(g, 0, 3)
    inv = TruncatedAlgebra(g, 3).invariant_subspace(0)
    assert sub == inv
    assert inv == TruncatedAlgebra(g, 3).invariant_subspace()


def test_ambient_cap_beyond_truncation_is_zero():
    g = GroupSpec(GL, 2)
    sub = TruncatedAlgebra(g, 3).invariant_subspace(4)
    assert sub.dim == 0


def test_small_truncation_equalities():
    for g, d in [(GroupSpec(GL, 2), 3), (GroupSpec(SP, 2), 4)]:
        assert gamma_piece(g, 2, d) == TruncatedAlgebra(g, d).invariant_subspace(2)


def test_filtration_nesting():
    for family, rank, d in [(GL, 2, 4), (SP, 2, 4)]:
        g = GroupSpec(family, rank)
        for p in range(d):
            outer_s = gamma_piece(g, p, d)
            inner_s = gamma_piece(g, p + 1, d)
            assert outer_s.contains_subspace(inner_s)
            outer_a = TruncatedAlgebra(g, d).invariant_subspace(p)
            inner_a = TruncatedAlgebra(g, d).invariant_subspace(p + 1)
            assert outer_a.contains_subspace(inner_a)


def test_filtration_multiplicativity():
    g = GroupSpec(GL, 2)
    d = 4
    model = TruncatedAlgebra(g, d)
    subs = {p: gamma_piece(g, p, d) for p in range(1, 4)}
    for p in range(1, 3):
        for q in range(1, 4 - p):
            target = subs[p + q]
            for u in subs[p].rows:
                for v in subs[q].rows:
                    assert target.contains(model.multiply(u, v))


def test_negative_filtration_degree_is_refused():
    """Refused before any work: the model below is past the size guard."""
    g = GroupSpec(TORUS, 10)
    with pytest.raises(ValueError):
        verify_prop(g, -1, 10)


def test_reduce_refuses_a_character_of_another_rank():
    model = TruncatedAlgebra(GroupSpec(GL, 2), 2)
    with pytest.raises(RankMismatchError):
        model.reduce(V(3, {(1, 0, 0): 1}))


def test_verify_prop_torus():
    report = verify_prop(GroupSpec(TORUS, 2), 3, 3)
    assert report.passed
    assert all(e.equal for e in report.entries)


def test_verify_prop_gl2():
    report = verify_prop(GroupSpec(GL, 2), 4, 4)
    assert report.passed
    assert [e.p for e in report.entries] == [0, 1, 2, 3, 4]
    assert report.to_json_obj()["pass"] is True


def test_verify_prop_sp4():
    report = verify_prop(GroupSpec(SP, 2), 3, 4)
    assert report.passed


def test_verify_prop_so_families_small():
    assert verify_prop(GroupSpec(SO_ODD, 2), 3, 3).passed
    assert verify_prop(GroupSpec(SO_EVEN, 2), 3, 3).passed


def test_report_json_schema():
    report = verify_prop(GroupSpec(GL, 2), 2, 2)
    obj = report.to_json_obj()
    assert set(obj) == {"group", "d", "entries", "pass"}
    for entry in obj["entries"]:
        assert set(entry) == {"p", "dim_gamma_S", "dim_gamma_R_cap_S", "equal"}


def test_generator_bound_stability_small():
    g = GroupSpec(GL, 2)
    (model, kept), full = kept_filtration(g, 3), full_box_context(g, 3, 4)
    for p in range(4):
        assert kept[p] == ch_subspace(model, full[p])


def test_orbit_sum_generators_one_per_orbit():
    for family, rank in [(GL, 3), (SP, 2), (SO_ODD, 2), (SO_EVEN, 3)]:
        g = GroupSpec(family, rank)
        supports = [
            frozenset(b for b in z.terms if any(b)) for z in orbit_sum_generators(g, 2)
        ]
        expected = {
            frozenset(orbit(g, a))
            for a in itertools.product(range(-2, 3), repeat=rank)
            if any(a) and a == max(orbit(g, a))
        }
        assert len(supports) == len(expected)
        assert set(supports) == expected


def orbit_sum_combination(g, terms):
    """sum m (sum of [b] over the orbit of a) over the pairs (a, m)."""
    x = VirtualCharacter.zero(g.rank)
    for a, m in terms:
        x = x + VirtualCharacter.from_weights(g.rank, orbit(g, a)) * m
    return x


def _for_invariant_characters(check, max_examples):
    """Run check(model, x, y) on the model of a random group of rank 1-3
    (every family) and degree d <= 5, and two random W-invariant characters:
    sums of orbit sums of weights in [-2, 2]^n, multiplicities -3..3."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def case(family, rank, d):
        g = GroupSpec(family, rank)
        weight = st.tuples(*[st.integers(-2, 2)] * rank)
        char = st.lists(st.tuples(weight, st.integers(-3, 3)), max_size=2).map(
            lambda terms: orbit_sum_combination(g, terms)
        )
        return st.tuples(st.just(TruncatedAlgebra(g, d)), char, char)

    @hypothesis.settings(deadline=None, max_examples=max_examples)
    @hypothesis.given(
        st.tuples(st.sampled_from(FAMILIES), st.integers(1, 3), st.integers(1, 5)).flatmap(
            lambda t: case(*t)
        )
    )
    def run_check(args):
        check(*args)

    run_check()


def test_reduce_is_a_ring_homomorphism():
    """ch is a ring homomorphism: the product of two images is the image of
    the product."""

    def check(model, x, y):
        assert model.multiply(model.reduce(x), model.reduce(y)) == model.reduce(x * y)

    _for_invariant_characters(check, 150)


def test_gammas_match_gamma_series():
    """The model's a! gamma^a by Newton's identity against the
    character-side gamma operation, on characters of augmentation zero."""

    def check(model, x, y):
        z = x - VirtualCharacter.unit(model.rank) * augmentation(x)
        fs, series = model.gammas(model.reduce(z)), gamma_series(z, model.d)
        for a, f in enumerate(fs):
            assert f == [math.factorial(a) * v for v in model.reduce(series[a])]

    _for_invariant_characters(check, 100)


def test_reduce_refuses_a_character_the_weyl_group_moves():
    model = TruncatedAlgebra(GroupSpec(GL, 2), 2)
    with pytest.raises(InvarianceError):
        model.reduce(V(2, {(1, 0): 1}))


def test_exponent_count_is_chevalleys():
    """The dominant exponents of degree <= d run by degree, are
    non-increasing, and are as many as the W-invariant polynomials of
    degree <= d in free generators of the family's degrees."""
    for family in FAMILIES:
        for rank in range(1, 7):
            g = GroupSpec(family, rank)
            for d in range(1, 11):
                exponents = TruncatedAlgebra(g, d).exponents
                assert len(exponents) == invariant_count(g, d), (g, d)
                assert len(set(exponents)) == len(exponents)
                assert [sum(mu) for mu in exponents] == sorted(sum(mu) for mu in exponents)
                assert all(list(mu) == sorted(mu, reverse=True) for mu in exponents)
                # witness rows are coordinate rows: by degree, then decreasing lex
                assert exponents == sorted(exponents, key=lambda mu: (sum(mu), [-v for v in mu]))


def action_columns(model, images):
    """Columns of M_w built on the character side, where images[i] is
    w.e_i: the image of the basis monomial u^m is the reduction of
    prod_i ([w.e_i] - [0])^(m_i)."""
    n = model.rank
    zero = (0,) * n
    cols = []
    for m in model.monomials:
        char = VirtualCharacter.unit(n)
        for i, k in enumerate(m):
            if k:
                char = char * V(n, {images[i]: 1, zero: -1}) ** k
        cols.append(model.reduce(char))
    return cols


def _kernel(equations, ncols):
    """Integer kernel basis of the linear map given by equation rows, read
    off their canonical form: for each free column f, the vector with L,
    the lcm of the pivots, at f and -row[f] L / row[piv] at each pivot."""
    form = Subspace.from_vectors(ncols, equations)
    lead = math.lcm(*(row[piv] for piv, row in form._rows.items()))
    basis = []
    for free in range(ncols):
        if free in form._rows:
            continue
        vec = [0] * ncols
        vec[free] = lead
        for piv, row in form._rows.items():
            vec[piv] = -row[free] * lead // row[piv]
        basis.append(vec)
    return basis


def kernel_invariants(model):
    """The kernel route in the u-model, the oracle for `invariant_subspace`:
    for each p = 0..d+1, the joint kernel of the stacked (M_w - 1) over the
    Weyl generators and of the coordinates of basis degree < p."""
    n = model.rank
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    stacked = []
    for images in zip(*(_images(model.group, e) for e in units)):
        cols = action_columns(model, images)
        for i in range(model.dim):
            eq = [col[i] for col in cols]
            eq[i] -= 1
            stacked.append(eq)
    spaces = []
    for p in range(model.d + 2):
        below = [
            [int(i == j) for i in range(model.dim)]
            for j, k in enumerate(model.degrees)
            if k < p
        ]
        kernel = _kernel(stacked + below, model.dim)
        spaces.append(Subspace.from_vectors(model.dim, kernel))
    return spaces


# dim of invariant_subspace(p) for p = 0..d+1
INVARIANT_DIMS = {
    (GL, 1): [2, 1, 0],
    (GL, 2): [4, 3, 2, 0],
    (GL, 3): [6, 5, 4, 2, 0],
    (GL, 4): [9, 8, 7, 5, 3, 0],
    (SP, 1): [1, 0, 0],
    (SP, 2): [2, 1, 1, 0],
    (SP, 3): [2, 1, 1, 0, 0],
    (SP, 4): [4, 3, 3, 2, 2, 0],
    (SO_EVEN, 1): [1, 0, 0],
    (SO_EVEN, 2): [3, 2, 2, 0],
    (SO_EVEN, 3): [3, 2, 2, 0, 0],
    (SO_EVEN, 4): [6, 5, 5, 3, 3, 0],
    (SO_ODD, 1): [1, 0, 0],
    (SO_ODD, 2): [2, 1, 1, 0],
    (SO_ODD, 3): [2, 1, 1, 0, 0],
    (SO_ODD, 4): [4, 3, 3, 2, 2, 0],
}


def test_invariant_subspace_by_degree():
    """Dimensions and support; that the rows are the invariants is
    `test_invariants_equal_the_kernel_route`."""
    for (family, d), dims in INVARIANT_DIMS.items():
        g = GroupSpec(family, 2)
        model = TruncatedAlgebra(g, d)
        for p, dim in enumerate(dims):
            sub = model.invariant_subspace(p)
            assert sub.dim == dim
            for row in sub.rows:
                assert not any(c for c, k in zip(row, model.degrees) if k < p)


def test_verify_prop_rank_three_and_four_at_degree_four():
    start = time.monotonic()
    for g in (GroupSpec(GL, 4), GroupSpec(SP, 3), GroupSpec(SO_EVEN, 4)):
        report = verify_prop(g, 4, 4)
        assert report.passed, report.to_json_obj()
    assert time.monotonic() - start < 60.0


def test_gamma_spans_stop_at_p_max(monkeypatch):
    """Spans built only through p_max equal those of a full degree-d build,
    and no gamma operation above max(p_max, 1) is built."""
    d = 4
    gammas, tops = TruncatedAlgebra.gammas, []

    def recorded(self, z, top=None):
        tops.append(top)
        return gammas(self, z, top)

    monkeypatch.setattr(TruncatedAlgebra, "gammas", recorded)
    for family in (GL, SP, SO_EVEN):
        g = GroupSpec(family, 2)
        model, full = kept_filtration(g, d)
        sums = model.invariant_subspace(1).rows
        for z in sums:
            assert model.gammas(z, 2) == model.gammas(z)[:3]
        for p_max in range(d + 1):
            tops.clear()
            spans = _gamma_filtration(model, sums, p_max)
            assert spans == full[: p_max + 1]
            assert tops == [min(max(p_max, 1), d)] * len(sums)
            entries = verify_prop(g, p_max, d).entries
            assert entries == verify_prop(g, d, d).entries[: p_max + 1]


def _rank(rows):
    """Rank by Gaussian elimination in Fractions, the oracle for Subspace."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _for_random_matrices(check):
    """Run check(ncols, rows, scales, order) on small random integer
    matrices, with a nonzero scale per row and a permutation of the rows."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def matrix(n):
        rows = st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=5
        )
        return rows.flatmap(
            lambda rs: st.tuples(
                st.just(n),
                st.just(rs),
                st.lists(
                    st.integers(-4, 4).filter(bool), min_size=len(rs), max_size=len(rs)
                ),
                st.permutations(range(len(rs))),
            )
        )

    @hypothesis.settings(deadline=None, max_examples=150)
    @hypothesis.given(st.integers(1, 5).flatmap(matrix))
    def run_check(case):
        check(*case)

    run_check()


def test_subspace_is_canonical():
    def check(n, rows, scales, order):
        space = Subspace.from_vectors(n, rows)
        moved = [[scales[i] * v for v in rows[i]] for i in order]
        assert Subspace.from_vectors(n, moved) == space
        pivots = [next(j for j, v in enumerate(row) if v) for row in space.rows]
        assert pivots == sorted(set(pivots))
        for row, piv in zip(space.rows, pivots):
            assert row[piv] > 0 and math.gcd(*row) == 1
            assert all(not row[q] for q in pivots if q != piv)

    _for_random_matrices(check)


def test_subspace_contains_matches_rank():
    def check(n, rows, scales, order):
        space = Subspace.from_vectors(n, rows)
        rank = _rank(rows)
        assert space.dim == rank
        combo = [sum(s * row[j] for s, row in zip(scales, rows)) for j in range(n)]
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        for vec in [combo, *units, *(map(list, space.rows))]:
            assert space.contains(vec) == (_rank(rows + [vec]) == rank)

    _for_random_matrices(check)


def test_kernel_from_canonical_form():
    def check(n, rows, scales, order):
        kernel = _kernel(rows, n)
        for vec in kernel:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        assert _rank(kernel) == len(kernel)
        assert Subspace.from_vectors(n, rows).dim + len(kernel) == n

    _for_random_matrices(check)


def test_subspace_rejects_wrong_row_length():
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, [(1, 0)])


def test_witness_is_a_coordinate_row(monkeypatch):
    """A forced DIFFER: the S side loses the last row of its canonical form,
    so an ambient row becomes a witness: the coordinate vector of an
    exponent, here mu = (1, 1) of SO4's (0, 0), (2, 0), (1, 1)."""
    full_spans = _gamma_filtration

    def smaller(model, sums, p_max):
        spans = full_spans(model, sums, p_max)
        return [Subspace.from_vectors(s.ambient_dim, s.rows[:-1]) for s in spans]

    monkeypatch.setattr(filtration_check, "_gamma_filtration", smaller)
    g = GroupSpec(SO_EVEN, 2)
    report = verify_prop(g, 1, 3)
    witness = (0, 0, 1)
    assert [e.witnesses for e in report.entries] == [(witness,), (witness,)]
    model = TruncatedAlgebra(g, 3)
    assert model.exponents == [(0, 0), (2, 0), (1, 1)]
    assert model.invariant_subspace(1).contains(witness)
    out, err = io.StringIO(), io.StringIO()
    argv = ["check-prop", "SO4", "--p-max", "1", "--degree", "3"]
    assert run(argv, out=out, err=err) == 3
    row = "['0', '0', '1']"
    assert err.getvalue() == (
        f"error[verify-failed]: p=0 ambient vector outside Gamma^0(S): {row}\n"
        f"error[verify-failed]: p=1 ambient vector outside Gamma^1(S): {row}\n"
    )


ORACLE_GROUPS = [
    (GL, 2), (GL, 3), (GL, 4), (SP, 2), (SP, 3),
    (SO_EVEN, 2), (SO_ODD, 2), (SO_EVEN, 3), (SO_ODD, 3), (SO_EVEN, 4),
]


def test_kept_generators_span_like_the_full_box():
    """The model's spans over its generators against the u-model's over every
    orbit sum of the box, carried through ch."""
    for family, rank in ORACLE_GROUPS:
        g = GroupSpec(family, rank)
        for d in range(1, 5):
            (model, kept), full = kept_filtration(g, d), full_box_context(g, d)
            for p in range(d + 1):
                assert kept[p] == ch_subspace(model, full[p]), (g, d, p)


def test_kept_generators_are_independent_and_at_most_the_invariants():
    """The generators, the coordinate vectors of degree >= 1, are their
    own gamma^1, and are dim - 1 independent vectors: a basis of the
    augmentation-zero invariants."""
    for family, rank in ORACLE_GROUPS + [(TORUS, 2)]:
        g = GroupSpec(family, rank)
        for d in range(1, 5):
            model = TruncatedAlgebra(g, d)
            generators = [list(z) for z in model.invariant_subspace(1).rows]
            assert [model.gammas(z, 1)[1] for z in generators] == generators
            assert Subspace.from_vectors(model.dim, generators).dim == len(generators)
            assert len(generators) == model.dim - 1


def test_check_prop_gl4_degree_five_matches_the_full_box_route():
    """Recorded from the full-box route, which took about 11 s."""
    start = time.monotonic()
    out, err = io.StringIO(), io.StringIO()
    assert run(["check-prop", "GL4", "--p-max", "5", "--degree", "5"], out, err) == 0
    assert time.monotonic() - start < 20.0
    assert err.getvalue() == ""
    assert out.getvalue() == (
        "group GL4  truncation degree 5\n"
        "p=0  dim_gamma_S=18  dim_gamma_R_cap_S=18  equal\n"
        "p=1  dim_gamma_S=17  dim_gamma_R_cap_S=17  equal\n"
        "p=2  dim_gamma_S=16  dim_gamma_R_cap_S=16  equal\n"
        "p=3  dim_gamma_S=14  dim_gamma_R_cap_S=14  equal\n"
        "p=4  dim_gamma_S=11  dim_gamma_R_cap_S=11  equal\n"
        "p=5  dim_gamma_S=6  dim_gamma_R_cap_S=6  equal\n"
        "PASS\n"
    )


def test_kept_spans_equal_full_box_spans_on_random_boxes():
    """The model's spans over its generators against every orbit sum of a box
    [-bound, bound]^n with bound d or d + 1."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(deadline=None, max_examples=80)
    @hypothesis.given(
        st.sampled_from([GL, SP, SO_ODD, SO_EVEN, TORUS]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 1),
    )
    def check(family, rank, d, extra):
        if family == TORUS:
            rank = min(rank, 2)
        g = GroupSpec(family, rank)
        (model, kept), full = kept_filtration(g, d), full_box_context(g, d, d + extra)
        for p in range(d + 1):
            assert kept[p] == ch_subspace(model, full[p])

    check()


KERNEL_GROUPS = [
    (GL, 1), (GL, 2), (GL, 3), (GL, 4), (SP, 1), (SP, 2), (SP, 3),
    (SO_EVEN, 1), (SO_ODD, 1), (SO_EVEN, 2), (SO_ODD, 2),
    (SO_EVEN, 3), (SO_ODD, 3), (SO_EVEN, 4), (TORUS, 1), (TORUS, 2), (TORUS, 3),
]


def test_invariants_equal_the_kernel_route():
    """The coordinates of degree >= p against the joint kernel of (M_w - 1)
    in the u-model, carried through ch, for every p <= d + 1, and the
    Chevalley count and the number of exponents against the kernel's
    dimension."""
    for family, rank in KERNEL_GROUPS:
        g = GroupSpec(family, rank)
        for d in range(1, 6):
            model = TruncatedAlgebra(g, d)
            oracle = kernel_invariants(UModel(g, d))
            assert invariant_count(g, d) == len(model.exponents) == oracle[0].dim, (g, d)
            for p in range(d + 2):
                assert model.invariant_subspace(p) == ch_subspace(model, oracle[p]), (g, d, p)


def test_model_equals_the_u_model_through_ch():
    """Gamma^p and the invariants of degree >= p, for every p, in the model
    and in the u-model carried through ch: the u-model's Gamma^p over every
    orbit sum of the box and its invariants by the kernel route."""
    groups = [(GL, 1), (GL, 2), (GL, 3), (SP, 2), (SP, 3), (SO_EVEN, 2), (SO_ODD, 2),
              (SO_EVEN, 3), (SO_ODD, 3), (SO_EVEN, 4), (TORUS, 2)]
    for family, rank in groups:
        g = GroupSpec(family, rank)
        for d in range(1, 5):
            model, kept = kept_filtration(g, d)
            full, invariants = full_box_context(g, d), kernel_invariants(UModel(g, d))
            for p in range(d + 2):
                assert model.invariant_subspace(p) == ch_subspace(model, invariants[p]), (g, d, p)
                if p <= d:
                    assert kept[p] == ch_subspace(model, full[p]), (g, d, p)


def test_check_prop_gl10_degree_four_keeps_its_output():
    """Recorded from the kernel route (stdout md5
    a5282b114819e153eb9d4454914d2706), which took about 5 s."""
    start = time.monotonic()
    out, err = io.StringIO(), io.StringIO()
    assert run(["check-prop", "GL10", "--p-max", "4", "--degree", "4"], out, err) == 0
    assert time.monotonic() - start < 20.0
    assert err.getvalue() == ""
    assert out.getvalue() == (
        "group GL10  truncation degree 4\n"
        "p=0  dim_gamma_S=12  dim_gamma_R_cap_S=12  equal\n"
        "p=1  dim_gamma_S=11  dim_gamma_R_cap_S=11  equal\n"
        "p=2  dim_gamma_S=10  dim_gamma_R_cap_S=10  equal\n"
        "p=3  dim_gamma_S=8  dim_gamma_R_cap_S=8  equal\n"
        "p=4  dim_gamma_S=5  dim_gamma_R_cap_S=5  equal\n"
        "PASS\n"
    )


def test_product_spans_from_lower_pieces_match_all_splits():
    """Gamma^p over the coordinate vectors, taken as the span of their
    gamma^p rows alone, against every product of their gamma operations.
    It backs the closed form: for z of degree m,
    gamma^p(z) = (-1)^(p-1) (p-1)! S(m, p) z plus terms of degree >= 2m,
    so by descending induction on m the gamma^p rows span every coordinate
    of degree >= p, and no product adds rank."""
    families = (GL, SP, SO_ODD, SO_EVEN)
    cases = [(f, r, d) for f in families for r in (1, 2, 3) for d in range(1, 7)]
    cases += [(f, 4, d) for f in families for d in range(1, 5)]
    for family, rank, d in cases:
        g = GroupSpec(family, rank)
        model, filtration = kept_filtration(g, d)
        values = [model.gammas(z) for z in model.invariant_subspace(1).rows]
        oracle = product_spans_by_all_splits(model, values, d)
        assert [s.rows for s in oracle] == [s.rows for s in filtration], (g, d)


def _count_products(monkeypatch):
    """A list [products, Newton products] that counts the `multiply` calls
    from now on: those made outside `gammas`, and those that Newton's
    identity makes inside it."""
    multiply, gammas, count, inside = TruncatedAlgebra.multiply, TruncatedAlgebra.gammas, [0, 0], [0]

    def counted(self, f, g):
        count[inside[0]] += 1
        return multiply(self, f, g)

    def recorded(self, z, top=None):
        inside[0] = 1
        try:
            return gammas(self, z, top)
        finally:
            inside[0] = 0

    monkeypatch.setattr(TruncatedAlgebra, "multiply", counted)
    monkeypatch.setattr(TruncatedAlgebra, "gammas", recorded)
    return count


def test_product_spans_form_each_product_once(monkeypatch):
    """check-prop GL3 --p-max 4 --degree 4 formed 482 products when every
    split a + (p - a) was taken, and 260 from the pieces a <= p/2; from the
    gamma^p rows alone it forms none, so no product is formed twice. Newton's
    identity makes 1 + 2 + 3 products for gamma^2..gamma^4 of each of the
    10 coordinate vectors of degree >= 1."""
    model = TruncatedAlgebra(GroupSpec(GL, 3), 4)
    count = _count_products(monkeypatch)
    _gamma_filtration(model, model.invariant_subspace(1).rows, 4)
    assert count == [0, 60]


def test_products_stop_at_the_truncation_degree(monkeypatch):
    """Gamma^p lies in r^p, which is zero in the model for p > d, so a
    p_max past d forms no more products than p_max = d: on the check-prop
    path `multiply` runs only inside `gammas`, for p_max 4 and 12 alike."""
    counts = []
    for p_max in (4, 12):
        count = _count_products(monkeypatch)
        report = verify_prop(GroupSpec(GL, 3), p_max, 4)
        counts.append(list(count))
        assert report.passed
        assert all(e.dim_gamma_S == e.dim_gamma_R_cap_S == 0 for e in report.entries[5:])
    assert counts[0] == counts[1] == [0, 60]


def test_product_table_adds_degrees():
    """Every term of the product table reads coordinates i and j into a k
    with deg k = deg i + deg j, so a product of rows of degree >= a and
    >= p - a lies in degree >= p: the ambient side holds every product
    that the S side does not form."""
    for family in (GL, SP, SO_ODD, SO_EVEN):
        for rank in range(1, 5):
            for d in range(1, 7):
                model = TruncatedAlgebra(GroupSpec(family, rank), d)
                degrees = model.degrees
                for i, pairs in enumerate(model._product_table()):
                    for j, terms in pairs:
                        assert all(degrees[k] == degrees[i] + degrees[j] for k, _ in terms)


@pytest.mark.parametrize(
    "group, degree, digest",
    [
        ("GL3", "12", "2871c45cf97297f69bdb02550def4d94"),
        ("GL4", "10", "58901a662b46592ea547e00ecda4b2c8"),
        ("GL6", "8", "9884aaa7168582d722f521583fd340d4"),
    ],
)
def test_check_prop_heavy_cases_form_no_products(group, degree, digest):
    """Stdout md5 recorded when Gamma^p was built from products of the
    pieces below it, which took 2.5-3.6 s for GL3 12/12 end to end; from
    the gamma^p rows alone each case takes well under the bound."""
    start = time.monotonic()
    out, err = io.StringIO(), io.StringIO()
    argv = ["check-prop", group, "--p-max", degree, "--degree", degree]
    assert run(argv, out, err) == 0
    assert time.monotonic() - start < 1.5
    assert err.getvalue() == ""
    assert hashlib.md5(out.getvalue().encode()).hexdigest() == digest


def test_no_work_past_the_truncation_degree(monkeypatch):
    """Past d both sides are zero in the model: p_max = 12 at d = 4 builds
    as many ambient subspaces as p_max = 4, and each entry past p = 4 is
    equal at dimension 0 with no witnesses."""
    subspace, calls = TruncatedAlgebra.invariant_subspace, [0]

    def counted(self, p=0):
        calls[0] += 1
        return subspace(self, p)

    monkeypatch.setattr(TruncatedAlgebra, "invariant_subspace", counted)
    g, reports, counts = GroupSpec(GL, 3), [], []
    for p_max in (4, 12):
        calls[0] = 0
        reports.append(verify_prop(g, p_max, 4))
        counts.append(calls[0])
    assert counts[0] == counts[1]
    assert reports[1].entries[:5] == reports[0].entries
    assert reports[1].entries[5:] == tuple(PropEntry(p, 0, 0, True, ()) for p in range(5, 13))


def test_check_prop_far_past_the_truncation_degree():
    """Stdout md5 of p_max = 3000 recorded when every Gamma^p up to p_max
    was built from products, which took about 6 s; p_max = 10000 took 51 s."""
    for p_max, digest in (("3000", "58ea7e77166b5767e43602e6d142b10a"), ("10000", None)):
        start = time.monotonic()
        out, err = io.StringIO(), io.StringIO()
        assert run(["check-prop", "GL2", "--p-max", p_max, "--degree", "2"], out, err) == 0
        assert time.monotonic() - start < 2.0
        assert err.getvalue() == ""
        if digest:
            assert hashlib.md5(out.getvalue().encode()).hexdigest() == digest
        else:
            assert out.getvalue().endswith(
                "p=10000  dim_gamma_S=0  dim_gamma_R_cap_S=0  equal\nPASS\n"
            )


def test_check_prop_acts_with_no_weyl_group(monkeypatch):
    """check-prop builds no orbit, no character and no Weyl-group action:
    its generators are the model's coordinate vectors, and `reduce`, which
    checks that a caller's character is invariant, is never called."""

    def refuse(*args, **kwargs):
        raise AssertionError("check-prop acted with the Weyl group")

    monkeypatch.setattr(weyl, "_images", refuse)
    monkeypatch.setattr(filtration_check, "_fixed_by_generators", refuse)
    monkeypatch.setattr(TruncatedAlgebra, "reduce", refuse)
    monkeypatch.setattr(VirtualCharacter, "__init__", refuse)
    monkeypatch.setattr(VirtualCharacter, "_trusted", refuse)
    for family, rank, d in [(GL, 3, 4), (SP, 2, 4), (SO_ODD, 3, 3), (SO_EVEN, 3, 3), (TORUS, 2, 2)]:
        assert verify_prop(GroupSpec(family, rank), d, d).passed
    out, err = io.StringIO(), io.StringIO()
    assert run(["check-prop", "SO8", "--p-max", "4", "--degree", "4"], out, err) == 0, err.getvalue()


@pytest.mark.parametrize(
    "group, degree, digest",
    [
        ("GL3", "8", "0d47261c3139876563a7170d06424e8d"),
        ("GL5", "6", "307be4f9d188aa6768e7af7c993185b9"),
        ("Sp10", "5", "fe03367025bba47c3e9d237c4958cb27"),
        ("SO10", "5", "afaf589ee361a641bb8046c3dc7161b4"),
        ("SO9", "4", "224bc13c992e46ace2dd5136f12b84c8"),
        ("GL10", "5", "8be045b3a4f29bdddd05bc0c60f9cb79"),
        ("GL6", "6", "f4231a1e79cb9a7648b9a0d7b7eb3a66"),
        ("GL10", "6", "397c20f0b449f72370b43d36e765a6a4"),
        ("GL12", "6", "61bfe350e16b8c4add730894d4fcc481"),
        ("GL100", "2", "c1fad9483ff3d2d7364f8c8680fa6515"),
    ],
)
def test_check_prop_heavier_cases_keep_their_output(group, degree, digest):
    """Stdout md5: GL3 and GL5 recorded when every split a + (p - a) was
    taken, the Sp, SO cases of rank 4 and 5 when each Gamma^p was built on
    first request, GL10 5/5 and GL6 in the u-model, where they took about
    9 s and 2.4 s, and GL10 6/6, GL12 6/6 and GL100 2/2 when the orbit
    sums were closed with `orbit` (3.7 s for GL10; GL12 and GL100 were
    refused at the enumeration limit and took 10.4 s and 6.3 s with it
    raised to 10^12)."""
    start = time.monotonic()
    out, err = io.StringIO(), io.StringIO()
    argv = ["check-prop", group, "--p-max", degree, "--degree", degree]
    assert run(argv, out, err) == 0
    assert time.monotonic() - start < 20.0
    assert err.getvalue() == ""
    assert hashlib.md5(out.getvalue().encode()).hexdigest() == digest


def test_prop_records_are_immutable_values():
    entry = PropEntry(1, 2, 2, True, ((1, 0),))
    assert entry.witnesses == ((1, 0),)
    same = PropEntry(witnesses=((1, 0),), equal=True, dim_gamma_R_cap_S=2, dim_gamma_S=2, p=1)
    assert entry == same and hash(entry) == hash(same) and len({entry, same}) == 1
    assert entry != PropEntry(1, 2, 2, True, ()) and entry != (1, 2, 2, True, ((1, 0),))
    for field in entry.__slots__:
        with pytest.raises(AttributeError):
            setattr(entry, field, getattr(entry, field))
        with pytest.raises(AttributeError):
            delattr(entry, field)
    assert copy.deepcopy(entry) == entry
    assert pickle.loads(pickle.dumps(entry)) == entry
    report = PropReport(group="GL2", d=2, entries=(entry,), passed=True)
    assert report == PropReport("GL2", 2, (entry,), True)
    assert report.to_json_obj()["pass"] is True
    assert repr(entry) == (
        "PropEntry(p=1, dim_gamma_S=2, dim_gamma_R_cap_S=2, equal=True, witnesses=((1, 0),))"
    )
    with pytest.raises(AttributeError):
        report.passed = False
    with pytest.raises(TypeError):
        PropReport(group="GL2", d=2, entries=(entry,))
    with pytest.raises(TypeError):
        PropEntry(1, 2, 2, True)  # no field has a default
