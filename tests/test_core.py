"""Monomial order, polynomial arithmetic, coordinate changes, generators."""

import random
from fractions import Fraction
from math import comb

import pytest

from bikoszul import core, exactlinalg
from bikoszul.core import (
    DomainError,
    MHPoly,
    ProjectiveSolution,
    SystemType,
)

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
    for n in range(2, 9):
        for nx in range(n + 1):
            for ny in range(n + 1 - nx):
                nz = n - nx - ny
                for r in range(max(1, ny), n - max(1, nz) + 1):
                    t = SystemType(nx, ny, nz, r, n - r)
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
