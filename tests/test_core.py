"""Monomial order, polynomial arithmetic, coordinate changes, generators."""

import json
import math
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bikoszul import core, exactlinalg
from bikoszul.core import (
    DomainError,
    MHPoly,
    ProjectiveSolution,
    SystemType,
)
from conftest import system_types

ALPHA_1 = ProjectiveSolution((1, 1), (1, 1), (1, 1))
ALPHA_2 = ProjectiveSolution((1, 3), (1, 2), (1, 3))


def test_monomial_basis_goldens():
    assert core.monomial_basis(1, 2) == [(2, 0), (1, 1), (0, 2)]
    assert core.monomial_basis(1, 0) == [(0, 0)]
    assert core.monomial_basis(2, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert core.monomial_basis(2, -1) == []


def test_monomial_basis_is_grevlex_in_three_variables():
    assert core.monomial_basis(2, 2) == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]


def test_monomial_basis_counts():
    for n_t in range(5):
        for d in range(7):
            assert len(core.monomial_basis(n_t, d)) == comb(n_t + d, d)


def test_system_type_invariants():
    SystemType(1, 1, 1, 2, 1)
    with pytest.raises(DomainError):
        SystemType(1, 1, 1, 3, 1)  # not square
    with pytest.raises(DomainError):
        SystemType(1, 2, 1, 1, 3)  # ny > r
    with pytest.raises(DomainError):
        SystemType(2, 1, 1, 4, 0)  # s not positive


def test_mhb_values():
    assert core.mhb(SystemType(1, 1, 1, 2, 1)) == 2
    assert core.mhb(SystemType(10, 1, 1, 10, 2)) == 20
    assert core.mhb(SystemType(2, 6, 4, 7, 5)) == 35


def _bezout_by_assignment(degrees, dims):
    """Independent oracle: distribute the factors over the three symbols
    so the exponents come out right, summing the coefficient products."""
    nx, ny, nz = dims

    def go(j, left):
        if j == len(degrees):
            return 1 if left == (0, 0, 0) else 0
        total = 0
        for t in range(3):
            if left[t] > 0 and degrees[j][t]:
                nxt = tuple(v - (1 if k == t else 0) for k, v in enumerate(left))
                total += degrees[j][t] * go(j + 1, nxt)
        return total

    return go(0, (nx, ny, nz))


def test_bezout_examples():
    deg = [(1, 1, 0), (1, 1, 0), (1, 0, 1)]
    assert core.bezout_coefficient(deg, (1, 1, 1)) == 2
    assert core.bezout_coefficient(deg, (1, 1, 1)) == core.mhb(SystemType(1, 1, 1, 2, 1))
    assert core.bezout_coefficient([(1, 0, 0)] * 3, (3, 0, 0)) == 1
    # degree of the resultant in the u_1 block for the example type
    u1 = [(1, 1, 1), (1, 1, 0), (1, 0, 1)]
    assert core.bezout_coefficient(u1, (1, 1, 1)) == 3
    assert _bezout_by_assignment(u1, (1, 1, 1)) == 3


def test_bezout_block_degrees_sum_to_matrix_size():
    # per-block degrees of the resultant add up to its total degree
    from bikoszul.weyman import mu

    t = SystemType(1, 1, 1, 2, 1)
    degrees = [t.degree_of(i) for i in range(t.n + 1)]
    total = 0
    for i in range(t.n + 1):
        rest = degrees[:i] + degrees[i + 1:]
        total += core.bezout_coefficient(rest, t.dims)
    assert total == mu(t)


def test_bezout_matches_mhb_for_all_small_types():
    for t in system_types(8):
        degrees = [t.degree_of(i) for i in range(1, t.n + 1)]
        assert core.bezout_coefficient(degrees, t.dims) == core.mhb(t)
        assert _bezout_by_assignment(degrees, t.dims) == core.mhb(t)


def test_evaluate_paper_roots(paper_system):
    assert core.evaluate(paper_system.f[0], ALPHA_1) == 0
    assert core.evaluate(paper_system.f[2], ALPHA_2) == 0
    zero = core.zero_poly(paper_system.type.nvars, (1, 1, 0))
    assert core.evaluate(zero, ALPHA_2) == 0


def test_evaluate_dimension_mismatch(paper_system):
    with pytest.raises(DomainError):
        core.evaluate(paper_system.f[0], ((1, 2, 3), (1, 1), (1, 1)))


def test_partial_evaluate_paper_values(paper_system):
    nv = paper_system.type.nvars
    f3 = core.partial_evaluate_xy(paper_system.f[2], (1, 3), (1, 2))
    assert f3.degree == (0, 0, 1)
    assert f3.terms == {((0, 0), (0, 0), (1, 0)): Fraction(-9),
                        ((0, 0), (0, 0), (0, 1)): Fraction(3)}
    f1 = core.partial_evaluate_xy(paper_system.f[0], (1, 3), (1, 2))
    assert f1.degree == (0, 0, 0) and not f1
    f0 = core.partial_evaluate_xy(paper_system.f0, (1, 3), (1, 2))
    assert f0.terms == {((0, 0), (0, 0), (1, 0)): Fraction(10),
                        ((0, 0), (0, 0), (0, 1)): Fraction(-3)}
    with pytest.raises(DomainError):
        core.partial_evaluate_xy(paper_system.f[0], (0, 1), (1, 2))


def test_partial_evaluate_is_linear_and_multiplicative():
    nv = (2, 2, 2)
    rng = random.Random(11)
    ax, ay = (1, 2), (1, -3)
    exps = core.exponent_basis(nv, (1, 1, 1))
    p = MHPoly(nv, (1, 1, 1), {e: rng.randint(-5, 5) for e in exps})
    q = MHPoly(nv, (1, 1, 1), {e: rng.randint(-5, 5) for e in exps})
    lin = core.partial_evaluate_xy(core.add(core.scale(p, 3), core.scale(q, -2)), ax, ay)
    expect = core.add(core.scale(core.partial_evaluate_xy(p, ax, ay), 3),
                      core.scale(core.partial_evaluate_xy(q, ax, ay), -2))
    assert lin == expect
    # on monomials: partial of (x-part times z-part) = partial(x-part) * partial(z-part)
    xm = core.monomial_poly(nv, (1, 0, 0), (((0, 1), (0, 0), (0, 0))))
    zm = core.monomial_poly(nv, (0, 0, 1), (((0, 0), (0, 0), (0, 1))))
    prod = core.monomial_poly(nv, (1, 0, 1), (((0, 1), (0, 0), (0, 1))))
    px = core.evaluate(core.partial_evaluate_xy(xm, ax, ay), ((1, 0), (1, 0), (1, 0)))
    pz = core.partial_evaluate_xy(zm, ax, ay)
    assert core.partial_evaluate_xy(prod, ax, ay) == core.scale(pz, px)


def test_identity_coordinate_change(paper_system):
    ident = core.CoordinateChange(
        ((1, 0), (0, 1)), ((1, 0), (0, 1)), ((1, 0), (0, 1)))
    assert core.apply_coordinate_change(paper_system, ident) == paper_system


def test_singular_block_rejected():
    with pytest.raises(DomainError):
        core.CoordinateChange(((1, 1), (1, 1)), ((1, 0), (0, 1)), ((1, 0), (0, 1)))


def test_random_coordinate_change_checks_each_block_once(monkeypatch):
    nonzero = []

    def counting_det(m):
        value = det(m)
        nonzero.extend([m.rows] if value else [])
        return value

    det = exactlinalg.det
    monkeypatch.setattr(exactlinalg, "det", counting_det)
    t = SystemType(2, 1, 3, 3, 3)
    for seed in range(10):
        nonzero.clear()
        core._invertible.cache_clear()
        change = core.random_coordinate_change(t, seed)
        # one accepted (nonzero) det per block, none repeated by the constructor
        assert [[list(row) for row in rows] for rows in nonzero] == \
            [[list(row) for row in block] for block in change.blocks]


def test_composition_identity_on_random_triples():
    t = SystemType(1, 1, 1, 2, 1)
    rng = random.Random(5)
    exps = core.exponent_basis(t.nvars, (1, 1, 1))
    def random_block():
        while True:
            block = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
            if any(block):
                return block

    for _ in range(100):
        p = MHPoly(t.nvars, (1, 1, 1), {e: rng.randint(-4, 4) for e in exps})
        change = core.random_coordinate_change(t, rng)
        point = ProjectiveSolution(random_block(), random_block(), random_block())
        moved = core.transform_point(change, point)
        assert core.evaluate(core.compose_poly(p, change), point) == core.evaluate(p, moved)


def expand_term_by_term(p, change):
    """p composed with the substitution, each term expanded as the
    product over its variables of (row . vars), with Fraction products:
    the oracle for `core.compose_poly`."""
    def substitute_block(sigma, mat):
        nv = len(sigma)
        acc = {(0,) * nv: Fraction(1)}
        for i, power in enumerate(sigma):
            lin = {tuple(int(k == j) for k in range(nv)): Fraction(a)
                   for j, a in enumerate(mat[i]) if a}
            for _ in range(power):
                nxt = {}
                for e1, c1 in acc.items():
                    for e2, c2 in lin.items():
                        key = tuple(a + b for a, b in zip(e1, e2))
                        nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
                acc = nxt
        return acc

    terms = {}
    for exp, coeff in p.terms.items():
        parts = [substitute_block(block, mat) for block, mat in zip(exp, change.blocks)]
        for ex, cx in parts[0].items():
            for ey, cy in parts[1].items():
                for ez, cz in parts[2].items():
                    key = (ex, ey, ez)
                    terms[key] = terms.get(key, Fraction(0)) + coeff * cx * cy * cz
    return MHPoly(p.nvars, p.degree, terms)


COEFFICIENTS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
    st.integers(2 ** 63, 2 ** 70),
    st.integers(-(2 ** 70), -(2 ** 63)),
)
CHANGE_ENTRIES = st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5, max_denominator=4)


def invertible(mat):
    return exactlinalg.det(exactlinalg.ExactMatrix([list(row) for row in mat])) != 0


@st.composite
def multilinear_cases(draw):
    """A multilinear polynomial with sparse coefficients of every kind, and
    an invertible coordinate change with zeros and fractions among its
    entries."""
    nvars = tuple(draw(st.integers(1, 3)) for _ in range(3))
    degree = tuple(draw(st.integers(0, 1)) for _ in range(3))
    exps = core.exponent_basis(nvars, degree)
    terms = draw(st.dictionaries(st.sampled_from(exps), COEFFICIENTS, max_size=len(exps)))
    blocks = [draw(invertible_blocks(nv)) for nv in nvars]
    return MHPoly(nvars, degree, terms), core.CoordinateChange(*blocks)


def invertible_blocks(nv):
    return st.lists(st.lists(CHANGE_ENTRIES, min_size=nv, max_size=nv),
                    min_size=nv, max_size=nv).filter(invertible)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(multilinear_cases())
def test_compose_poly_matches_the_term_by_term_expansion(case):
    p, change = case
    assert core.compose_poly(p, change) == expand_term_by_term(p, change)


def test_compose_poly_is_exact_on_both_sides_of_the_int64_bound():
    """Blocks of order 2 with entries +-5 scale the largest coefficient
    by at most 10 per block: a coefficient of floor((2^63 - 1) / 1000)
    keeps the contraction in int64 with sums near 2^63, one more moves it
    to Python ints; both equal the term-by-term expansion, and the
    result, built without checking its exponents, keeps the invariants
    that the checking constructor gives."""
    nvars, degree = (2, 2, 2), (1, 1, 1)
    change = core.CoordinateChange(((5, 5), (5, -5)), ((-5, 5), (5, 5)), ((5, 5), (-5, 5)))
    assert [top for _, _, top in change.cleared] == [5, 5, 5]
    for top in ((2 ** 63 - 1) // 1000, (2 ** 63 - 1) // 1000 + 1):
        terms = {exp: top * (-1) ** k for k, exp in enumerate(core.exponent_basis(nvars, degree))}
        p = MHPoly(nvars, degree, terms)
        composed = core.compose_poly(p, change)
        assert composed == expand_term_by_term(p, change)
        assert max(abs(c) for c in composed.terms.values()) > 2 ** 60
        assert MHPoly(nvars, degree, composed.terms) == composed


def test_compose_poly_rejects_a_block_of_degree_two():
    t = SystemType(1, 1, 1, 2, 1)
    p = core.monomial_poly(t.nvars, (2, 1, 0), ((1, 1), (1, 0), (0, 0)))
    with pytest.raises(DomainError, match="multilinear"):
        core.compose_poly(p, core.random_coordinate_change(t, 3))


@st.composite
def systems_with_a_change(draw):
    """A system of a small type with coefficients of every kind and one
    equation zero, and an invertible coordinate change with fractions
    among its entries."""
    t = draw(st.sampled_from(system_types(max_dim=3, max_mu=100)))
    zero = draw(st.integers(1, t.n))
    polys = []
    for i in range(1, t.n + 1):
        exps = core.exponent_basis(t.nvars, t.degree_of(i))
        terms = {} if i == zero else draw(
            st.dictionaries(st.sampled_from(exps), COEFFICIENTS, max_size=len(exps)))
        polys.append(MHPoly(t.nvars, t.degree_of(i), terms))
    blocks = [draw(invertible_blocks(nv)) for nv in t.nvars]
    return core.BilinearSystem(t, polys), core.CoordinateChange(*blocks)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(systems_with_a_change(), st.integers(0, 2 ** 32 - 1))
def test_bilinear_tensors_evaluate_like_evaluate(case, seed):
    """x^T A_k y and x^T B_k z of the system's float view are f_k and
    f_{r+k} at a random complex point, and its norms those of the
    coefficients; a composed polynomial keeps the tensor that its terms
    give."""
    system, change = case
    t = system.type
    a, b, norms = system.tensors
    assert a.shape == (t.r, t.nx + 1, t.ny + 1) and b.shape == (t.s, t.nx + 1, t.nz + 1)
    rng = np.random.default_rng(seed)
    x, y, z = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n) for n in t.nvars)
    values = [*(x @ mat @ y for mat in a), *(x @ mat @ z for mat in b)]
    sizes = [np.linalg.norm(x) * np.linalg.norm(w) for w, count in ((y, t.r), (z, t.s))
             for _ in range(count)]
    for poly, value, norm, size in zip(system.f, values, norms, sizes):
        assert norm == pytest.approx(math.hypot(*map(float, poly.terms.values())), rel=1e-12)
        exact = core.evaluate(poly, (tuple(x), tuple(y), tuple(z)))
        assert abs(value - exact) <= 1e-12 * norm * size
        assert poly or (value == 0 and norm == 0)
    for poly in core.apply_coordinate_change(system, change).f:
        tensor, denom = poly._tensor
        rebuilt, rebuilt_denom = MHPoly(poly.nvars, poly.degree, poly.terms).tensor
        assert denom == rebuilt_denom and np.array_equal(tensor, rebuilt)


def test_planted_root_maps_through_inverse_change():
    t = SystemType(1, 1, 1, 2, 1)
    rng = random.Random(23)
    beta = ProjectiveSolution((1, 2), (1, -1), (2, 3))
    sys_ = core.planted_root_system(t, beta, rng)
    change = core.random_coordinate_change(t, rng)
    moved = core.apply_coordinate_change(sys_, change)
    # gamma = A^{-1} beta solves the transformed system
    gamma_blocks = []
    for mat, block in zip(change.blocks, beta.blocks):
        a = exactlinalg.ExactMatrix([list(row) for row in mat])
        b = exactlinalg.ExactMatrix([[Fraction(c)] for c in block])
        gamma_blocks.append(tuple(row[0] for row in exactlinalg.solve(a, b).rows))
    gamma = ProjectiveSolution(*gamma_blocks)
    for poly in moved.f:
        assert core.evaluate(poly, gamma) == 0


def test_random_system_determinism():
    t = SystemType(2, 1, 1, 2, 2)
    a = core.random_system(t, seed=42)
    b = core.random_system(t, seed=42)
    c = core.random_system(t, seed=43)
    assert a == b
    assert a != c
    assert all(p.degree == t.degree_of(i + 1) for i, p in enumerate(a.f))
    assert len(a.f) == t.n


def test_planted_root_system_vanishes():
    t = SystemType(1, 1, 1, 2, 1)
    alpha = ProjectiveSolution((1, 2), (3, 1), (1, 5))
    for seed in range(20):
        sys_ = core.planted_root_system(t, alpha, seed, include_f0=True)
        for i in range(t.n + 1):
            assert core.evaluate(sys_.poly(i), alpha) == 0
        # dim S(1,1,0) = 4: one linear relation on four coefficient slots
        assert len(sys_.f[0].terms) <= 4
        assert sys_.f[0]


def test_planted_point_with_zero_coordinate():
    t = SystemType(1, 1, 1, 2, 1)
    alpha = ProjectiveSolution((0, 1), (1, 2), (1, 1))
    sys_ = core.planted_root_system(t, alpha, 3)
    for poly in sys_.f:
        assert core.evaluate(poly, alpha) == 0


def test_normalized_solution():
    sol = ProjectiveSolution((0, 2, 4), (3, 6), (5,))
    norm = sol.normalized()
    assert norm.x == (0, 1, 2)
    assert norm.y == (1, 2)
    assert norm.z == (1,)


def test_normalized_scale_entry_is_exactly_one():
    # complex(3/7, 2/3) divided by itself is 1 + 5.9e-17j in CPython
    c = complex(3 / 7, 2 / 3)
    norm = ProjectiveSolution((c, 1), (0, c, 2 * c), (Fraction(2, 3), 1)).normalized()
    assert norm.x[0] == 1 and norm.x[1] == 1 / c
    assert norm.y[:2] == (0, 1) and type(norm.y[1]) is complex
    assert norm.z == (1, Fraction(3, 2)) and type(norm.z[0]) is Fraction


def test_mhpoly_invariants():
    with pytest.raises(DomainError):
        MHPoly((2, 2, 2), (1, 1, 0), {((1, 0), (0, 1), (0, 1)): 1})  # wrong z degree
    p = MHPoly((2, 2, 2), (1, 1, 0), {((1, 0), (0, 1), (0, 0)): 0})
    assert not p.terms  # zero coefficients dropped


def test_json_roundtrip(paper_system):
    obj = core.system_to_obj(paper_system)
    again = core.system_from_obj(obj)
    assert again == paper_system
    # fractional coefficients survive the p/q string form
    t = paper_system.type
    poly = MHPoly(t.nvars, (1, 1, 0), {((1, 0), (1, 0), (0, 0)): Fraction(2, 3)})
    assert core.poly_from_obj(core.poly_to_obj(poly), t.nvars) == poly


def test_exponent_key_roundtrip():
    exp = ((1, 0), (0, 1), (1, 0))
    key = core.exponent_key(exp)
    assert key == "1,0|0,1|1,0"
    assert core.parse_exponent_key(key, (2, 2, 2)) == exp
    with pytest.raises(DomainError):
        core.parse_exponent_key(key, (3, 2, 2))


SMALL_TYPES = system_types(max_dim=3, max_mu=100)


@st.composite
def systems(draw):
    """A system of a random valid type, with integer, fractional and
    beyond-int64 coefficients, and an f0 when drawn."""
    t = draw(st.sampled_from(SMALL_TYPES))

    def poly(degree):
        exps = core.exponent_basis(t.nvars, degree)
        terms = st.dictionaries(st.sampled_from(exps), COEFFICIENTS, max_size=len(exps))
        return MHPoly(t.nvars, degree, draw(terms))

    f = tuple(poly(t.degree_of(i)) for i in range(1, t.n + 1))
    return core.BilinearSystem(t, f, poly((1, 1, 1)) if draw(st.booleans()) else None)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(systems())
def test_system_json_round_trips(sys_):
    obj = core.system_to_obj(sys_)
    assert core.system_from_obj(obj) == sys_
    assert core.system_from_obj(json.loads(json.dumps(obj))) == sys_
