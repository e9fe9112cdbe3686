"""Exact determinants, solves, Schur complements, and the invertibility
criterion for the leading block."""

import random
import re
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from bikoszul import core, exactlinalg, koszul, oracle, solver
from bikoszul.core import ProjectiveSolution, SystemType
from bikoszul.exactlinalg import ExactMatrix, SingularMatrixError
from bikoszul.oracle import rank
from conftest import nullspace, system_types

THETA = ((1, 0), (1, 0), (1, 0))


def naive_det(rows):
    """Cofactor expansion, the independent oracle for small matrices."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(minor)
    return total


def fraction_eliminate(rows, k):
    """k Gaussian elimination steps over Fractions, pivoting among the
    leading k rows: (det of the leading k x k block, its Schur complement
    or None when that block is singular). The independent oracle for
    matrices too large for cofactor expansion."""
    a = [[Fraction(e) for e in row] for row in rows]
    value = Fraction(1)
    for s in range(k):
        pivot = next((r for r in range(s, k) if a[r][s]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != s:
            a[s], a[pivot] = a[pivot], a[s]
            value = -value
        value *= a[s][s]
        for r in range(s + 1, len(a)):
            if a[r][s]:
                f = a[r][s] / a[s][s]
                a[r] = [x - f * y for x, y in zip(a[r], a[s])]
    return value, [row[k:] for row in a[k:]]


def fraction_det(rows):
    return fraction_eliminate(rows, len(rows))[0]


def identity(n, field=None):
    return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], field)


def matmul(a, b):
    """Product by the schoolbook triple loop, reduced mod p over F_p."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    bt = list(zip(*b.rows)) if b.rows else []
    out = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.rows]
    return ExactMatrix(out, a.field)


def test_det_basic():
    assert exactlinalg.det(ExactMatrix([[1, 2], [3, 4]])) == -2
    assert exactlinalg.det(ExactMatrix([])) == 1
    assert exactlinalg.det(ExactMatrix([[Fraction(1, 2), 1], [1, 2]])) == 0


def test_det_of_paper_specialization(paper_system):
    matrix = koszul.assemble_delta1(paper_system.type)
    value = exactlinalg.det(koszul.specialize(matrix, paper_system))
    assert value != 0
    # planting the first solution via g0 = f0 - 3 theta kills the determinant
    t = paper_system.type
    g0 = core.add(paper_system.f0,
                  core.scale(core.monomial_poly(t.nvars, (1, 1, 1), THETA), -3))
    assert exactlinalg.det(koszul.specialize(matrix, paper_system.with_f0(g0))) == 0
    g0b = core.add(paper_system.f0,
                   core.scale(core.monomial_poly(t.nvars, (1, 1, 1), THETA), -1))
    assert exactlinalg.det(koszul.specialize(matrix, paper_system.with_f0(g0b))) == 0


def test_det_agrees_with_cofactor_on_submatrices(paper_system):
    matrix = koszul.assemble_delta1(paper_system.type)
    spec = koszul.specialize(matrix, paper_system)
    rng = random.Random(3)
    for _ in range(10):
        idx_r = sorted(rng.sample(range(10), 5))
        idx_c = sorted(rng.sample(range(10), 5))
        sub = spec.submatrix(idx_r, idx_c)
        assert exactlinalg.det(sub) == naive_det(sub.rows)


def test_det_multiplicative_mod_p():
    p = 101
    rng = random.Random(17)
    for _ in range(10):
        a = ExactMatrix([[rng.randrange(p) for _ in range(4)] for _ in range(4)], p)
        b = ExactMatrix([[rng.randrange(p) for _ in range(4)] for _ in range(4)], p)
        prod = matmul(a, b)
        assert exactlinalg.det(prod) == exactlinalg.det(a) * exactlinalg.det(b) % p


def test_an_array_with_no_rows_keeps_its_columns():
    """The shape of an ndarray is its own, also with no rows; so solve
    of a 0 x 0 A against a 0 x m B is 0 x m."""
    import numpy as np

    for field in (None, 101):
        for dtype in (np.int64, object):
            m = ExactMatrix(np.zeros((0, 3), dtype=dtype), field)
            assert (m.nrows, m.ncols, m.array.shape) == (0, 3, (0, 3))
        b = ExactMatrix(np.zeros((0, 3), dtype=np.int64), field)
        x = exactlinalg.solve(ExactMatrix([], field), b)
        assert (x.nrows, x.ncols, x.array.shape, x.field) == (0, 3, (0, 3), field)


def test_solve_roundtrip():
    rng = random.Random(7)
    eye = identity(3)
    b = ExactMatrix([[1], [2], [3]])
    assert exactlinalg.solve(eye, b).rows == b.rows
    for _ in range(5):
        while True:
            a = ExactMatrix([[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)])
            if exactlinalg.det(a) != 0:
                break
        rhs = ExactMatrix([[Fraction(rng.randint(-5, 5)) for _ in range(2)] for _ in range(4)])
        x = exactlinalg.solve(a, rhs)
        assert matmul(a, x).rows == rhs.rows
    with pytest.raises(SingularMatrixError):
        exactlinalg.solve(ExactMatrix([[1, 1], [1, 1]]), ExactMatrix([[1], [1]]))


def test_solve_rejects_a_non_square_matrix_and_mismatched_operands():
    a = ExactMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="square"):
        exactlinalg.solve(ExactMatrix([[1, 2]]), ExactMatrix([[1]]))
    with pytest.raises(ValueError, match="field mismatch"):
        exactlinalg.solve(a, ExactMatrix([[1], [2]], 7))
    with pytest.raises(ValueError, match="shape mismatch"):
        exactlinalg.solve(a, ExactMatrix([[1]]))


def test_schur_complement_rejects_a_non_square_matrix_or_a_split_outside_it():
    with pytest.raises(ValueError, match="square"):
        exactlinalg.schur_complement(ExactMatrix([[1, 2, 3], [4, 5, 6]]), 1)
    for k in (-1, 3):
        with pytest.raises(ValueError, match="invalid split"):
            exactlinalg.schur_complement(ExactMatrix([[1, 2], [3, 4]]), k)


@pytest.mark.parametrize("field", [None, 7])
def test_schur_complement_at_either_end_is_the_trailing_block(field):
    """k = 0 leaves the whole matrix and k = n the 0 x 0 one, with no
    elimination: a singular matrix, whose M11 at k = n is singular,
    raises nothing."""
    m = ExactMatrix([[1, 2], [2, 4]], field)
    assert exactlinalg.schur_complement(m, 0).rows == m.rows
    empty = exactlinalg.schur_complement(m, 2)
    assert (empty.nrows, empty.ncols, empty.field) == (0, 0, field)


def test_to_float_over_fp_and_det_of_a_non_square_matrix_are_value_errors():
    with pytest.raises(ValueError, match="rational"):
        exactlinalg.to_float(ExactMatrix([[1, 2]], 7))
    for field in (None, 7):
        with pytest.raises(ValueError, match="non-square"):
            exactlinalg.det(ExactMatrix([[1, 2]], field))


def test_schur_complement_paper(paper_system):
    matrix = koszul.assemble_delta1(paper_system.type)
    part = koszul.theta_partition(matrix, THETA)
    spec = part.apply(koszul.specialize(matrix, paper_system))
    # the leading block is nonsingular, so the complement exists
    m11 = spec.submatrix(range(8), range(8))
    assert exactlinalg.det(m11) != 0
    schur = exactlinalg.schur_complement(spec, 8)
    assert schur.rows == [[5, -2], [4, -1]]


def test_schur_block_diagonal_and_det_identity():
    m = ExactMatrix([[2, 0, 0], [0, 3, 1], [0, 1, 3]])
    assert exactlinalg.schur_complement(m, 1).rows == [[3, 1], [1, 3]]
    rng = random.Random(19)
    for _ in range(5):
        while True:
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(5)]
            m = ExactMatrix(rows)
            lead = m.submatrix(range(3), range(3))
            if exactlinalg.det(lead) != 0:
                break
        schur = exactlinalg.schur_complement(m, 3)
        assert exactlinalg.det(m) == exactlinalg.det(lead) * exactlinalg.det(schur)


def reference_schur(rows, k):
    """Schur complement entry by entry from the determinantal formula
    S_ij = det [[M11, M12_j], [M21_i, M22_ij]] / det M11, with cofactor
    determinants; None when M11 is singular."""
    lead = range(k)
    d11 = naive_det([[rows[i][j] for j in lead] for i in lead])
    if d11 == 0:
        return None
    n = len(rows)
    return [[Fraction(naive_det([[rows[i][c] for c in [*lead, j]] for i in [*lead, r]]), d11)
             for j in range(k, n)] for r in range(k, n)]


def reference_solve(a_rows, b_rows):
    """Cramer's rule with cofactor determinants; None when A is singular."""
    d = naive_det(a_rows)
    if d == 0:
        return None
    n = len(a_rows)
    return [[Fraction(naive_det([[b_rows[r][j] if c == i else a_rows[r][c] for c in range(n)]
                                 for r in range(n)]), d)
             for j in range(len(b_rows[0]))] for i in range(n)]


def random_entry(rng):
    """Small integer, or now and then a proper fraction."""
    if rng.random() < 0.3:
        return Fraction(rng.randint(-3, 3), rng.randint(2, 4))
    return rng.randint(-3, 3)


def random_schur_case(rng, entry=random_entry):
    """Random (rows, k), with a zero leading pivot or a singular leading
    block forced into some cases."""
    n = rng.randint(2, 6)
    k = rng.randint(1, min(n - 1, 4))
    rows = [[entry(rng) for _ in range(n)] for _ in range(n)]
    shape = rng.random()
    if shape < 0.3:
        rows[0][0] = 0  # the first pivot needs a row swap
    elif shape < 0.45 and k >= 2:
        factor = entry(rng)
        rows[k - 1][:k] = [factor * e for e in rows[0][:k]]  # M11 singular
    return rows, k


def test_schur_complement_matches_determinantal_formula_over_q():
    rng = random.Random(2024)
    swapped = singular = 0
    for _ in range(200):
        rows, k = random_schur_case(rng)
        want = reference_schur(rows, k)
        m = ExactMatrix(rows)
        assert exactlinalg.det(m) == naive_det(rows)  # det runs the same loop
        if want is None:
            singular += 1
            with pytest.raises(SingularMatrixError):
                exactlinalg.schur_complement(m, k)
            continue
        swapped += rows[0][0] == 0
        assert exactlinalg.schur_complement(m, k).rows == want
    assert swapped >= 20 and singular >= 20


@pytest.mark.parametrize("p", [7, 101])
def test_schur_complement_mod_p_is_the_rational_one_reduced(p):
    rng = random.Random(p)
    checked = singular = 0
    for _ in range(200):
        rows, k = random_schur_case(rng)
        lead = [row[:k] for row in rows[:k]]
        m = ExactMatrix(rows, p)
        assert exactlinalg.det(m) == exactlinalg.fraction_mod_p(naive_det(rows), p)
        if exactlinalg.fraction_mod_p(naive_det(lead), p) == 0:
            singular += 1
            with pytest.raises(SingularMatrixError):
                exactlinalg.schur_complement(m, k)
            continue
        want = [[exactlinalg.fraction_mod_p(e, p) for e in row]
                for row in reference_schur(rows, k)]
        assert exactlinalg.schur_complement(m, k).rows == want
        assert exactlinalg.schur_complement(m, k).rows == \
            ExactMatrix(exactlinalg.schur_complement(ExactMatrix(rows), k).rows, p).rows
        checked += 1
    assert checked >= 100 and singular >= 20


@pytest.mark.parametrize("p", [None, 2, 101, 1_000_003, 2 ** 31 - 1, 2 ** 61 - 1])
def test_solve_matches_cramer(p):
    """Over F_p the LU and its triangular solves run on float64 panels
    (2, 101, 1000003), and one column a step on int64 (2^31 - 1) and on
    Python ints (2^61 - 1); an A singular over Q, or only modulo p,
    raises."""
    rng = random.Random(31 if p is None else p)
    # mod 2 the denominators 2 and 4 of random_entry are no units
    entry = random_entry if p != 2 else lambda rng: rng.randint(-3, 3)
    solved = singular = 0
    for _ in range(150 if p != 2 else 400):
        n = rng.randint(1, 5)
        a_rows = [[entry(rng) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            a_rows[0][0] = 0
        if rng.random() < 0.15 and n >= 2:
            a_rows[-1] = [2 * e for e in a_rows[0]]
        elif p is not None and rng.random() < 0.1 and n >= 2:  # singular modulo p only
            a_rows[-1] = [e + p * (j == n - 1) for j, e in enumerate(a_rows[0])]
        b_rows = [[entry(rng) for _ in range(rng.randint(1, 3))]]
        b_rows += [[entry(rng) for _ in b_rows[0]] for _ in range(n - 1)]
        want = reference_solve(a_rows, b_rows)
        if want is not None and p is not None:
            if exactlinalg.fraction_mod_p(naive_det(a_rows), p) == 0:
                want = None
            else:
                want = [[exactlinalg.fraction_mod_p(e, p) for e in row] for row in want]
        a, b = ExactMatrix(a_rows, p), ExactMatrix(b_rows, p)
        if want is None:
            singular += 1
            with pytest.raises(SingularMatrixError):
                exactlinalg.solve(a, b)
            continue
        assert exactlinalg.solve(a, b).rows == want
        solved += 1
    assert solved >= 80 and singular >= 10


@pytest.mark.parametrize("p, n", [(1_000_003, 70), (2 ** 31 - 1, 40)])
@pytest.mark.parametrize("width", ["0", "1", "n"])
def test_solve_over_fp_across_panels(p, n, width):
    """n = 70 at 1000003 spans three float64 panels of 32 columns, and n =
    40 at 2^31 - 1 runs one column a step on int64. A = L P U with a
    random row permutation P, so that the elimination swaps rows, and B
    of 0, 1 and n columns: X is what Gauss-Jordan on [A | B] mod p gives
    (`oracle._rref`; Cramer's rule by cofactors is out of reach at this
    n), and A X = B mod p. A with row n / 2 set to row 0 plus p times a
    unit vector is nonsingular over Q but singular mod p, and raises."""
    rng = random.Random(n)
    perm = list(range(n))
    rng.shuffle(perm)
    a_rows = random_lpu(rng, p, n, n, n, perm)
    m = {"0": 0, "1": 1, "n": n}[width]
    b_rows = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
    echelon, pivots = oracle._rref(ExactMatrix([a + b for a, b in zip(a_rows, b_rows)], p))
    assert pivots == list(range(n))
    x = exactlinalg.solve(ExactMatrix(a_rows, p), ExactMatrix(b_rows, p)).rows
    assert x == [row[n:] for row in echelon]
    assert [[sum(e * y for e, y in zip(row, col)) % p for col in zip(*x)] for row in a_rows] == \
        b_rows
    singular = [list(row) for row in a_rows]
    singular[n // 2] = [e + p * (j == 3) for j, e in enumerate(a_rows[0])]
    assert exactlinalg.det(ExactMatrix(singular)) != 0
    with pytest.raises(SingularMatrixError):
        exactlinalg.solve(ExactMatrix(singular, p), ExactMatrix(b_rows, p))


def test_composite_modulus_is_rejected():
    for q in (1, 4, 10, 561, 1_000_001, 3215031751):
        with pytest.raises(ValueError, match="not a prime"):
            ExactMatrix([[1]], q)
    for p in (2, 3, 101, 10007, 1_000_003, 2 ** 61 - 1):
        assert ExactMatrix([[p + 1]], p).rows == [[1]]


def test_modulus_at_or_above_the_primality_test_limit_is_rejected():
    """The 13 bases pass 1287836182261 * 2575672364521, the least strong
    pseudoprime to all of them; a prime above it cannot be told apart,
    so every modulus from there on is refused by name of the limit."""
    limit = 1287836182261 * 2575672364521
    assert exactlinalg._is_prime(limit)  # what the bases alone would accept
    for q in (limit, limit + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"not below {limit}"):
            exactlinalg.require_prime(q)
        with pytest.raises(ValueError, match=f"not below {limit}"):
            ExactMatrix([[1]], q)
    for p in (2 ** 64 + 13, 2 ** 79 - 67):
        assert exactlinalg.require_prime(p) == p


def test_constructor_reduces_every_entry_kind_into_the_field():
    import numpy as np

    entries = [[-1, Fraction(-2, 3), 2 ** 63 + 5], [-(2 ** 70), Fraction(5, 7), 0]]
    for p in (2 ** 31 - 1, 1_000_003, 2 ** 61 - 1):
        want = [[exactlinalg.fraction_mod_p(e, p) for e in row] for row in entries]
        m = ExactMatrix(entries, p)
        assert m.rows == want
        assert all(type(e) is int and 0 <= e < p for row in m.rows for e in row)
        assert type(m[0, 2]) is int and m[0, 2] == want[0][2]
        small = [[-1, -p - 2, 2 ** 62], [p, 3, -(2 ** 63)]]
        from_array = ExactMatrix(np.array(small, dtype=np.int64), p)
        assert from_array.rows == [[e % p for e in row] for row in small]
        assert from_array.array.dtype == ExactMatrix([[1]], p).array.dtype
    with pytest.raises(ValueError, match="ragged"):
        ExactMatrix([[1, 2], [3]], 7)
    rational = ExactMatrix([[Fraction(1, 2), 2 ** 70], [-3, Fraction(4)]])
    assert rational.array.dtype == object
    assert rational.rows == [[Fraction(1, 2), 2 ** 70], [-3, 4]]
    assert type(ExactMatrix(np.array([[2, -3]], dtype=np.int64))[0, 1]) is int
    assert ExactMatrix([]).nrows == ExactMatrix([], 5).ncols == 0


@pytest.mark.parametrize("p", [None, 7, 2 ** 61 - 1])
def test_constructor_rejects_an_inexact_entry_by_name(p):
    """A float or a string is no exact entry over any field: a TypeError
    that names it, where over Q one used to end in an AttributeError and
    over F_p 0.1 became its binary fraction (3 mod 7, not 1/10 = 5)."""
    import numpy as np

    for entry in (0.1, np.float64(0.5), "1/2"):
        with pytest.raises(TypeError, match=re.escape(repr(entry))):
            ExactMatrix([[entry, 1]], p)
        with pytest.raises(TypeError, match=re.escape(repr(entry))):
            ExactMatrix(np.array([[1, entry]], dtype=object), p)
    assert ExactMatrix([[np.int64(-3), True, Fraction(1, 2)]], p).rows == \
        ExactMatrix([[-3, 1, Fraction(1, 2)]], p).rows


@pytest.mark.parametrize("p", [2, 3, 1_000_003, 2 ** 61 - 1])
def test_fraction_mod_p_matches_fermat_and_rejects_a_vanishing_denominator(p):
    """Integers reduce by %, other rationals through the inverse of the
    denominator mod p: both equal n d^(p - 2) mod p, an int in [0, p);
    a denominator divisible by p is a ZeroDivisionError."""
    rng = random.Random(p)
    values = [0, 1, -1, p, -p - 1, 2 ** 70 + 3, Fraction(-2, 3), Fraction(5, 7),
              Fraction(2 ** 65 + 1, 3 ** 40), Fraction(1, p), Fraction(-7, 2 * p)]
    values += [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6)) for _ in range(200)]
    for value in values:
        num, den = value.numerator, value.denominator
        if den % p:
            image = exactlinalg.fraction_mod_p(value, p)
            assert type(image) is int and image == num * pow(den, p - 2, p) % p
        else:
            with pytest.raises(ZeroDivisionError):
                exactlinalg.fraction_mod_p(value, p)


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, "1/2", complex(1, 0), None])
def test_fraction_mod_p_takes_only_what_a_matrix_entry_may_be(value):
    """fraction_mod_p takes an int or a Fraction, as ExactMatrix does, and
    raises the same TypeError, naming the value, for anything else: a
    float is not read as its binary fraction (0.1 would reduce to 3 mod
    7, where 1/10 is 5), even where that is exact (0.5, 2.0)."""
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        exactlinalg.fraction_mod_p(value, 7)
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        ExactMatrix([[value]], 7)


def test_rank_and_nullspace():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    basis = nullspace(m)
    assert len(basis) == 1
    for row in m.rows:
        assert sum(a * b for a, b in zip(row, basis[0])) == 0
    p = 13
    mp = ExactMatrix([[1, 2, 3], [2, 4, 6]], p)
    for vec in nullspace(mp):
        for row in mp.rows:
            assert sum(a * b for a, b in zip(row, vec)) % p == 0


def test_leading_block_invertibility_criterion():
    """Singular exactly when (theta monomial, f1..fn) has a common root."""
    p = 10007
    t = SystemType(1, 1, 1, 2, 1)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, THETA)
    f0 = core.MHPoly(t.nvars, (1, 1, 1),
                     {e: 1 for e in core.exponent_basis(t.nvars, (1, 1, 1))})
    # a planted root with x0 = 0 annihilates theta = x0 y0 z0
    alpha = ProjectiveSolution((0, 1), (1, 2), (2, 1))
    for seed in range(5):
        planted = core.planted_root_system(t, alpha, seed).with_f0(f0)
        spec = part.apply(koszul.specialize(matrix, planted, p))
        m11 = spec.submatrix(range(part.split), range(part.split))
        assert exactlinalg.det(m11) == 0
    rng = random.Random(8)
    nonsingular = 0
    for _ in range(10):
        sys_ = core.random_system(t, rng).with_f0(f0)
        spec = part.apply(koszul.specialize(matrix, sys_, p))
        m11 = spec.submatrix(range(part.split), range(part.split))
        nonsingular += exactlinalg.det(m11) != 0
    assert nonsingular >= 9


def test_multimodular_det_over_q_matches_cofactor():
    rng = random.Random(63)
    big = singular = 0
    for trial in range(150):
        n = rng.randint(0, 5)
        shape = rng.random()
        if shape < 0.25:  # entries at and above 2^63 take the object-array path
            rows = [[rng.choice((-1, 1)) * rng.randint(2 ** 63, 2 ** 70) if rng.random() < 0.5
                     else rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            big += n > 0
        else:
            rows = [[random_entry(rng) for _ in range(n)] for _ in range(n)]
        if n >= 2 and 0.25 <= shape < 0.45:
            rows[-1] = [Fraction(3, 2) * e for e in rows[0]]  # singular
        want = naive_det(rows)
        singular += want == 0
        assert exactlinalg.det(ExactMatrix(rows)) == want
    assert big >= 20 and singular >= 20
    assert exactlinalg.det(ExactMatrix([[2 ** 64 + 1]])) == 2 ** 64 + 1
    assert exactlinalg.det(ExactMatrix([[Fraction(-7, 3)]])) == Fraction(-7, 3)
    assert exactlinalg.det(ExactMatrix([[0]])) == 0


@pytest.mark.parametrize("p", [2, 3, 2 ** 31 - 1, 2 ** 61 - 1])
def test_fp_loop_matches_references_at_small_and_word_size_primes(p):
    """2^31 - 1 is the largest int64 modulus; 2^61 - 1 runs on Python ints."""
    rng = random.Random(p)
    checked = singular = 0
    for _ in range(120):
        # integer entries: a denominator 2 or 3 is no unit mod 2 or 3
        rows, k = random_schur_case(rng, lambda rng: rng.randint(-3, 3))
        m = ExactMatrix(rows, p)
        assert exactlinalg.det(m) == exactlinalg.fraction_mod_p(naive_det(rows), p)
        if exactlinalg.fraction_mod_p(naive_det([row[:k] for row in rows[:k]]), p) == 0:
            singular += 1
            with pytest.raises(SingularMatrixError):
                exactlinalg.schur_complement(m, k)
            with pytest.raises(SingularMatrixError):
                exactlinalg.solve(m.submatrix(range(k), range(k)),
                                  m.submatrix(range(k), range(k, len(rows))))
            continue
        want = [[exactlinalg.fraction_mod_p(e, p) for e in row]
                for row in reference_schur(rows, k)]
        assert exactlinalg.schur_complement(m, k).rows == want
        want = [[exactlinalg.fraction_mod_p(e, p) for e in row]
                for row in reference_solve([row[:k] for row in rows[:k]],
                                           [row[k:] for row in rows[:k]])]
        assert exactlinalg.solve(m.submatrix(range(k), range(k)),
                                 m.submatrix(range(k), range(k, len(rows)))).rows == want
        checked += 1
    assert checked >= 40 and singular >= 10


def test_det_over_q_reduces_to_det_over_fp_on_a_koszul_matrix():
    t = SystemType(2, 2, 2, 3, 3)
    rng = random.Random(81)
    matrix = koszul.assemble_delta1(t)
    system = core.random_system(t, rng)
    f0 = core.MHPoly(t.nvars, (1, 1, 1), {e: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                         for e in core.exponent_basis(t.nvars, (1, 1, 1))})
    system = system.with_f0(f0)
    spec = koszul.specialize(matrix, system)
    value = exactlinalg.det(spec)
    assert matrix.size == 81 and value != 0
    assert value == fraction_det(spec.rows)
    # none of these is among the CRT primes of order 81, which lie near 10^7
    for p in (10007, 65521, 1_000_003):
        assert exactlinalg.fraction_mod_p(value, p) == \
            exactlinalg.det(koszul.specialize(matrix, system, p))


def test_int64_loop_at_the_largest_int64_prime_matches_python_ints():
    """Guards the int64/object boundary: at the largest prime that runs on
    int64 (2^31 - 1) the products (p - 1)^2 come within a factor 2 of the
    int64 range, and a higher limit would overflow."""
    import numpy as np

    p = exactlinalg._INT64_PRIME_LIMIT - 1
    while not exactlinalg._is_prime(p):
        p -= 1
    assert p == 2 ** 31 - 1
    above = exactlinalg._INT64_PRIME_LIMIT + 1
    while not exactlinalg._is_prime(above):
        above += 2
    assert ExactMatrix([[1]], p).array.dtype == np.int64
    assert ExactMatrix([[1]], above).array.dtype == object
    rng = random.Random(60)
    rows = [[rng.randrange(p - 2 ** 20, p) for _ in range(60)] for _ in range(60)]
    fast = np.array(rows, dtype=np.int64)
    slow = np.array(rows, dtype=object)
    k = 40
    d_fast = exactlinalg._eliminate(fast, k, p)
    d_slow = exactlinalg._eliminate(slow, k, p)
    assert d_fast == d_slow != 0
    assert fast.tolist() == slow.tolist()
    assert exactlinalg.det(ExactMatrix(rows, p)) == \
        exactlinalg._eliminate(np.array(rows, dtype=object), 60, p)


# -- the blocked elimination mod p -------------------------------------------

P_PANEL = 1_000_003  # panels of 32 columns


def width_bound_prime(b):
    """The largest prime p with b (p - 1)^2 + p <= 2^53: the float64 panel
    width of p is b, and b + 1 would not be exact."""
    p = isqrt(2 ** 53 // b) + 2
    while not (exactlinalg._is_prime(p) and b * (p - 1) ** 2 + p <= 2 ** 53):
        p -= 1
    return p


def first_prime_above_float_limit():
    """The smallest prime whose panel would be a single column, so that
    `_eliminate` runs on its int64 storage."""
    p = isqrt(2 ** 52)
    while not (exactlinalg._is_prime(p) and 2 * (p - 1) ** 2 + p > 2 ** 53):
        p += 1
    return p


def eliminate_both(rows, k, p):
    """`_eliminate` on the working dtype (float64 panels when they fit) and
    on an object array of Python ints (one column per step): for each,
    (det, the clobbered entries as ints, the row order)."""
    import numpy as np

    out = []
    for dtype in (exactlinalg._working_dtype(p), object):
        a = np.array(rows, dtype=object).astype(dtype)
        order = np.arange(len(rows))
        value = exactlinalg._eliminate(a, k, p, order)
        out.append((value, [[int(e) for e in row] for row in a.tolist()], order.tolist()))
    return out


def lpu(p, lower, perm, upper):
    """L P U mod p as rows of ints."""
    permuted = [upper[i] for i in perm]
    return [[sum(l * u for l, u in zip(row, col)) % p for col in zip(*permuted)]
            for row in lower]


def random_lpu(rng, p, m, n, k, perm=None, zero_at=None):
    """L P U mod p with L unit lower triangular (m x m), P a row
    permutation (the identity by default) and U upper triangular (m x n)
    with a nonzero diagonal. With `zero_at`, rows zero_at..k-1 of U are 0
    in that column: when P keeps them there, elimination stops at it."""
    lower = [[1 if i == j else rng.randrange(p) if j < i else 0 for j in range(m)]
             for i in range(m)]
    upper = [[rng.randrange(1, p) if i == j else rng.randrange(p) if j > i else 0
              for j in range(n)] for i in range(m)]
    if zero_at is not None:
        for row in upper[zero_at:k]:
            row[zero_at] = 0
    return lpu(p, lower, perm or range(m), upper)


def assert_packed_lu(rows, k, p, array, order):
    """P A = L U mod p on the leading k columns, P A = A[order], for the
    packed LU in array: L unit lower triangular below the diagonal, U on
    and above it."""
    for i, row in enumerate(array):
        lower = [*row[:min(i, k)], *([1] if i < k else [])]
        assert [sum(l * array[t][j] for t, l in enumerate(lower) if t <= j) % p
                for j in range(k)] == [rows[order[i]][j] % p for j in range(k)]


def assert_matches_fractions(rows, k, p, result):
    """The det of the leading k x k block and, when it is a unit, the
    Schur complement, as the Fraction oracle gives them mod p, and the
    packed LU of the leading k columns."""
    value, array, order = result
    d11, schur = fraction_eliminate(rows, k)
    assert value == exactlinalg.fraction_mod_p(d11, p)
    if value:
        assert [row[k:] for row in array[k:]] == \
            [[exactlinalg.fraction_mod_p(e, p) for e in row] for row in schur]
        assert_packed_lu(rows, k, p, array, order)


def test_blocked_elimination_takes_a_pivot_from_below_the_panel_at_its_last_column():
    """At column 31, the last of the first panel, rows 31 to 34 hold 0 and
    the pivot is row 35: the swap brings a row from below the panel,
    with its trailing columns and its multipliers. Rectangular, with more
    rows and more columns than k."""
    rng = random.Random(31)
    k, m, n = 40, 47, 45
    perm = list(range(m))
    perm[31], perm[35] = 35, 31
    rows = random_lpu(rng, P_PANEL, m, n, k, perm)
    fast, slow = eliminate_both(rows, k, P_PANEL)
    assert exactlinalg._panel_width(P_PANEL) == 32
    assert fast == slow and fast[0] != 0
    assert fast[2][31] == 35
    assert_matches_fractions(rows, k, P_PANEL, fast)


@pytest.mark.parametrize("shape", [(20, 50, 35), (40, 40, 70), (66, 72, 70)])
def test_blocked_elimination_on_rectangular_arrays(shape):
    """The trailing block of a k-step elimination of an m x n array, with
    more rows or more columns than k, is the Schur complement, and the
    LU gives the inverse of the leading block."""
    k, m, n = shape
    rng = random.Random(k * m * n)
    rows = [[rng.randrange(P_PANEL) if rng.random() < 0.3 else 0 for _ in range(n)]
            for _ in range(m)]
    for i in range(k):
        rows[i][i] = rng.randrange(1, P_PANEL)
    fast, slow = eliminate_both(rows, k, P_PANEL)
    assert fast == slow and fast[0] != 0
    assert_matches_fractions(rows, k, P_PANEL, fast)
    assert_lu_inverse(rows, k, P_PANEL)  # up to 3 panels of updates between reductions


@pytest.mark.parametrize("column", [40, 32])
def test_blocked_elimination_stops_at_the_column_without_a_pivot(column):
    """A singular leading block that stops mid-panel (40) and at a panel's
    first column (32): 0, and what the zero test reads is defined, the
    pivots on the diagonal before that column, a 0 at it, and the order
    of the rows."""
    rng = random.Random(column)
    k = 50
    perm = list(range(k))
    perm[column - 1], perm[column + 3] = perm[column + 3], perm[column - 1]
    rows = random_lpu(rng, P_PANEL, k, k, k, perm, zero_at=column)
    assert fraction_det(rows) % P_PANEL == 0
    fast, slow = eliminate_both(rows, k, P_PANEL)
    assert fast[0] == slow[0] == 0
    diagonal = [row[i] for i, row in enumerate(fast[1])]
    assert 0 not in diagonal[:column] and diagonal[column] == 0
    assert diagonal[:column + 1] == [row[i] for i, row in enumerate(slow[1])][:column + 1]
    assert fast[2] == slow[2]


def test_blocked_elimination_at_the_width_bound_with_every_factor_entry_p_minus_1():
    """At the largest prime whose panel width is 32, L and U of p - 1 make
    every multiplier and every entry of U12 p - 1, so each update forms
    32 (p - 1)^2, the most that stays exact, in the elimination and in
    the inverse from its LU (`_lu_inverse`). The second panel's int64
    copy starts at a residue minus 32 (p - 1)^2 (one trailing update, not
    yet reduced), and its steps subtract (p - 1)^2 from its last column
    31 times with no reduction in between: past -2^53, where float64
    would round, and within int64."""
    p = width_bound_prime(32)
    assert exactlinalg._panel_width(p) == 32 and 33 * (p - 1) ** 2 + p > 2 ** 53
    assert -(32 + 31) * (p - 1) ** 2 < -2 ** 53 and 64 * (p - 1) ** 2 < 2 ** 63
    k, m = 70, 80
    lower = [[1 if i == j else p - 1 if j < i else 0 for j in range(m)] for i in range(m)]
    upper = [[p - 1 if j >= i else 0 for j in range(m)] for i in range(m)]
    rows = lpu(p, lower, range(m), upper)
    fast, slow = eliminate_both(rows, k, p)
    assert fast == slow
    assert fast[0] == (-1) ** k % p
    # L and U in the first k columns, and L22 U22 right of them: the Schur complement
    schur = lpu(p, [row[k:] for row in lower[k:]], range(m - k), upper[k:])
    want = [[lower[i][j] if j < min(i, k) else upper[i][j] if i < k else schur[i - k][j]
             for j in range(m)] for i in range(m)]
    assert fast[1] == want
    assert_lu_inverse(rows, k, p)


def test_blocked_elimination_just_above_the_float_limit_runs_on_int64():
    """The smallest prime with no float64 panel of two columns keeps its
    int64 storage and the one-column step."""
    import numpy as np

    p, below = first_prime_above_float_limit(), width_bound_prime(2)
    assert exactlinalg._panel_width(p) == 1 and exactlinalg._working_dtype(p) == np.int64
    assert exactlinalg._panel_width(below) == 2 and exactlinalg._working_dtype(below) == np.float64
    assert not any(exactlinalg._is_prime(q) for q in range(below + 1, p))
    rng = random.Random(p)
    for q in (p, below):
        rows = random_lpu(rng, q, 45, 50, 40, [*range(39, -1, -1), *range(40, 45)])
        fast, slow = eliminate_both(rows, 40, q)
        assert fast == slow and fast[0] != 0
        assert_matches_fractions(rows, 40, q, fast)


def test_live_panel_gives_a_pivot_to_a_dead_leading_row():
    """Rows 0 and 5 are 0 in every column of the first panel, so its
    int64 copy holds them only as leading rows; the pivots of columns 0
    and 5 come from rows 40 and 45, below the panel, and the dead rows
    take their places there, with their columns outside the panel."""
    rng = random.Random(5)
    m = 50
    perm = list(range(m))
    perm[0], perm[40], perm[5], perm[45] = 40, 0, 45, 5
    lower = [[1 if i == j else rng.randrange(P_PANEL) if j < i and i not in (0, 5) else 0
              for j in range(m)] for i in range(m)]
    upper = [[rng.randrange(1, P_PANEL) if i == j else rng.randrange(P_PANEL) if j > i else 0
              for j in range(m)] for i in range(m)]
    rows = lpu(P_PANEL, lower, perm, upper)
    assert [i for i, row in enumerate(rows) if not any(row[:32])] == [0, 5]
    fast, slow = eliminate_both(rows, m, P_PANEL)
    assert fast == slow and fast[0] != 0
    order = fast[2]
    assert (order[0], order[5], order[40], order[45]) == (40, 45, 0, 5)
    assert_matches_fractions(rows, m, P_PANEL, fast)


@pytest.mark.parametrize("singular", [False, True])
def test_live_panel_whose_live_rows_below_are_all_past_k(singular):
    """k = 40 of 60 rows: below the leading rows of the second panel
    (columns 32 to 39) only rows k and after are live, so the pivot
    search has the leading rows alone. Nonsingular, the pivot of column
    32 is row 33; singular, column 35 of the leading rows is a
    combination of the columns before it, while the rows past k are not
    0 there: 0, with the first zero on the diagonal at 35."""
    rng = random.Random(40)
    k, m = 40, 60
    if singular:
        rows = [[rng.randrange(P_PANEL) for _ in range(m)] for _ in range(m)]
        weights = [rng.randrange(P_PANEL) for _ in range(35)]
        for row in rows[:k]:
            row[35] = sum(w * e for w, e in zip(weights, row)) % P_PANEL
    else:
        perm = list(range(m))
        perm[32], perm[33] = 33, 32
        rows = random_lpu(rng, P_PANEL, m, m, k, perm)
    fast, slow = eliminate_both(rows, k, P_PANEL)
    assert fast[2] == slow[2]
    assert_matches_fractions(rows, k, P_PANEL, fast)
    if singular:
        assert fast[0] == slow[0] == 0
        diagonal = [row[i] for i, row in enumerate(fast[1][:k])]
        assert 0 not in diagonal[:35] and diagonal[35] == 0
        assert all(row[35] for row in rows[k:])
    else:
        assert fast == slow and fast[0] != 0 and fast[2][32] == 33


@pytest.mark.parametrize("k", [50, 40])
def test_live_panel_with_no_live_row_below_it(k):
    """Rows 32 and after are 0 in the first panel's columns: its copy is
    its 32 leading rows, and no row below takes a multiplier or a
    trailing update; the det (k = 50) and the Schur complement (k = 40)
    still match the Fraction oracle."""
    rng = random.Random(k)
    m = 56
    rows = [[rng.randrange(P_PANEL) if (i < 32 or j >= 32) and rng.random() < 0.5 else 0
             for j in range(m)] for i in range(m)]
    for i in range(k):
        rows[i][i] = rng.randrange(1, P_PANEL)
    fast, slow = eliminate_both(rows, k, P_PANEL)
    assert fast == slow and fast[0] != 0
    assert all(row[:32] == [0] * 32 for row in fast[1][32:])
    assert_matches_fractions(rows, k, P_PANEL, fast)
    assert_lu_inverse(rows, k, P_PANEL)


@pytest.mark.parametrize("p, k", [(P_PANEL, 33), (width_bound_prime(5), 11)])
def test_live_panel_of_one_row_at_the_end(p, k):
    """k one past a multiple of the panel width: the last panel is one
    column and one leading row, on the float64 path."""
    import numpy as np

    rng = random.Random(k)
    m = k + 6
    rows = random_lpu(rng, p, m, m, k, [*range(k - 2), k - 1, k - 2, *range(k, m)])
    fast, slow = eliminate_both(rows, k, p)
    assert exactlinalg._working_dtype(p) == np.float64 and k % exactlinalg._panel_width(p) == 1
    assert fast == slow and fast[0] != 0
    assert_matches_fractions(rows, k, p, fast)
    assert_lu_inverse(rows, k, p)


@pytest.mark.parametrize("p", [3, P_PANEL, width_bound_prime(32), width_bound_prime(2)])
def test_float_reduction_is_exact_up_to_the_float_limit(p):
    """x - floor(x / p) p by a true division is x mod p for every integer
    with |x| + p <= 2^53, the range the blocked elimination keeps to; its
    sharpest cases are the multiples of p and their neighbours at the top
    of that range, of either sign."""
    import numpy as np

    top = (2 ** 53 - p) // p
    values = [sign * (m * p + r) for m in range(top - 300, top + 1) for r in (0, 1, p - 1)
              for sign in (1, -1) if m * p + r + p <= 2 ** 53]
    reduced = exactlinalg._reduce(np.array(values, dtype=np.float64), p)
    assert reduced.tolist() == [float(v % p) for v in values]


# None stands for _prime(k, 0), the first prime of the zero test on a k x k block
ELIMINATION_PRIMES = (2, 3, 7, 101, P_PANEL, width_bound_prime(2), width_bound_prime(3),
                      width_bound_prime(5), width_bound_prime(32), first_prime_above_float_limit(),
                      2 ** 31 - 1, 2 ** 61 - 1, None)


def bordered_inverse(rows, p):
    """A^{-1} mod p as the Schur complement of [[A, I], [-I, 0]] over F_p
    at split n, the oracle of the inverse from the packed LU."""
    n = len(rows)
    bordered = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    bordered += [[-int(i == j) for j in range(n)] + [0] * n for i in range(n)]
    return exactlinalg.schur_complement(ExactMatrix(bordered, p), n).rows


def assert_lu_inverse(rows, k, p):
    """On the working dtype and on Python ints (one column a step), the
    inverse from its packed LU (`_lu_inverse`) of the nonsingular leading
    k x k block with its rows in pivot order equals the bordered inverse
    of the block with its columns in that order, and is a right inverse
    mod p of the block in that order."""
    import numpy as np

    lead = [row[:k] for row in rows[:k]]
    for dtype in (exactlinalg._working_dtype(p), object):
        lu, order = np.array(rows, dtype=object).astype(dtype), np.arange(len(rows))
        assert exactlinalg._eliminate(lu, k, p, order)
        inverse = [[int(e) for e in row] for row in exactlinalg._lu_inverse(lu[:k, :k], p).tolist()]
        assert inverse == [[row[i] for i in order[:k]] for row in bordered_inverse(lead, p)]
        assert [[sum(x * y for x, y in zip(lead[i], col)) % p for col in zip(*inverse)]
                for i in order[:k]] == [[int(i == j) for j in range(k)] for i in range(k)]


def full_substitution(lu, p):
    """The reference of `_lu_inverse`: every column of the identity
    forward with the unit lower L, in full and one row at a time, then
    back with U, on Python ints mod p."""
    lu = [[int(e) for e in row] for row in lu.tolist()]
    y = [[int(i == j) for j in range(len(lu))] for i in range(len(lu))]
    for i in range(len(lu)):
        for j in range(i):
            y[i] = [(a - lu[i][j] * b) % p for a, b in zip(y[i], y[j])]
    for i in reversed(range(len(lu))):
        for j in range(i + 1, len(lu)):
            y[i] = [(a - lu[i][j] * b) % p for a, b in zip(y[i], y[j])]
        y[i] = [a * pow(lu[i][i], -1, p) % p for a in y[i]]
    return y


@pytest.mark.parametrize("p, k", [(P_PANEL, 1), (P_PANEL, 5), (P_PANEL, 45),
                                  (width_bound_prime(5), 12), (width_bound_prime(3), 3),
                                  (exactlinalg._prime(70, 0), 70), (2 ** 31 - 1, 9)])
def test_inverse_from_the_lu_skips_zeros_and_equals_the_full_forward_pass(p, k):
    """`_lu_inverse`, whose forward pass skips the zero upper half of
    L^{-1}, for k = 1, k below the panel width b, k not a multiple of b
    and b = 1: the full substitution's inverse, with rows swapped by
    pivoting; the inverse of the rows in pivot order."""
    import numpy as np

    rng = random.Random(k * p)
    perm = list(range(k))
    rng.shuffle(perm)
    rows = random_lpu(rng, p, k, k, k, perm)
    lu, order = np.array(rows, dtype=object).astype(exactlinalg._working_dtype(p)), np.arange(k)
    assert exactlinalg._eliminate(lu, k, p, order)
    inverse = exactlinalg._lu_inverse(lu, p).astype(object)
    assert inverse.tolist() == full_substitution(lu, p)
    assert [[sum(a * b for a, b in zip(rows[i], col)) % p for col in inverse.T.tolist()]
            for i in order] == np.eye(k, dtype=np.int64).tolist()


@pytest.mark.parametrize("p, k", [(P_PANEL, 1), (P_PANEL, 45), (P_PANEL, 96),
                                  (width_bound_prime(5), 12), (exactlinalg._prime(124, 0), 124),
                                  (2 ** 31 - 1, 9)])
def test_inverse_from_the_lu_reuses_the_l11_inverses_of_the_elimination(monkeypatch, p, k):
    """`_eliminate` lists the L11^{-1} it formed for U12, one for every
    panel but the last (none when b = 1), and `_lu_inverse` given them
    forms only the other inverses: one `_unit_lower_inverse` fewer per
    listed panel, and the same inverse. On a singular block
    the list covers the panels before the one without a pivot, and the
    leading s x s block's inverse, the zero test's, is the same too."""
    import numpy as np

    calls = []
    real = exactlinalg._unit_lower_inverse
    monkeypatch.setattr(exactlinalg, "_unit_lower_inverse",
                        lambda lower, p: calls.append(len(lower)) or real(lower, p))
    rng = random.Random(k + p)
    b = exactlinalg._panel_width(p) if exactlinalg._working_dtype(p) == np.float64 else 1
    for zero_at in (None, k - 1 - k // 3):
        rows = random_lpu(rng, p, k, k, k, zero_at=zero_at if k > 1 else None)
        lu, inverses = np.array(rows, dtype=object).astype(exactlinalg._working_dtype(p)), []
        singular = exactlinalg._eliminate(lu, k, p, None, inverses) == 0
        size = int(np.flatnonzero(lu.diagonal() == 0)[0]) if singular else k
        assert singular == (zero_at is not None and k > 1)
        assert len(inverses) == (0 if b == 1 else (size // b if singular else (k - 1) // b))
        lu = lu[:size, :size]
        calls.clear()
        got = exactlinalg._lu_inverse(lu, p, inverses)
        reused = len(calls)
        calls.clear()
        assert np.array_equal(got, exactlinalg._lu_inverse(lu, p))
        assert reused == len(calls) - len(inverses)


def test_inverse_from_the_lu_at_the_width_bound_with_l_inverse_panels_of_p_minus_1():
    """At the largest prime whose panel width is 32, where one forward
    update of `_lu_inverse` may subtract 32 (p - 1)^2 and a second one
    before a reduction would not be exact: the unit lower L whose first
    two panels of L^{-1} hold p - 1 (I - N on the first diagonal block,
    N strictly lower ones, and every entry of the block below it), with
    L[64:, :32] = p - 2 and L[64:, 32:64] = p - 1, so that the first two
    updates of rows 64 on subtract an odd total past 2^53. The inverse
    from the identity equals the full substitution's."""
    import numpy as np

    p, b, k = width_bound_prime(32), 32, 96
    assert exactlinalg._panel_width(p) == b and 2 * b * (p - 1) ** 2 > 2 ** 53

    def product(x, y):
        return [[sum(e * f for e, f in zip(row, col)) % p for col in zip(*y)] for row in x]

    def lower_inverse(lower):  # of a unit lower triangular matrix, by substitution
        out = [[int(i == j) for j in range(len(lower))] for i in range(len(lower))]
        for i, row in enumerate(lower):
            for j in range(i):
                out[i] = [(e - row[j] * f) % p for e, f in zip(out[i], out[j])]
        return out

    l00 = lower_inverse([[1 if i == j else p - 1 if j < i else 0 for j in range(b)]
                         for i in range(b)])
    l10 = product([[1] * b] * b, l00)  # L^{-1}[32:64, :32] = -L10 L00^{-1} = p - 1
    lower = [[int(i == j) for j in range(k)] for i in range(k)]
    for i in range(b, k):
        lower[i][:2 * b] = l10[i - b] + [int(i == j) for j in range(b, 2 * b)] if i < 2 * b \
            else [p - 2] * b + [p - 1] * b
    for i in range(b):
        lower[i][:i] = l00[i][:i]
    z = lower_inverse(lower)
    assert all(z[i][j] == p - 1 for i in range(2 * b) for j in range(i) if j < b)
    lu = np.array(lower, dtype=np.float64)  # U = I
    inverse = exactlinalg._lu_inverse(lu, p).astype(object)
    assert inverse.tolist() == full_substitution(lu, p) == z


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=st.sampled_from(ELIMINATION_PRIMES), k=st.integers(1, 12),
       extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       density=st.sampled_from([0.2, 0.6, 1.0]), singular=st.booleans(),
       zero_pivots=st.integers(0, 3), seed=st.integers(0, 2 ** 32))
def test_blocked_elimination_matches_the_object_path_and_fractions(p, k, extra, density,
                                                                  singular, zero_pivots, seed):
    """Small random arrays, square and rectangular, some with zeros on
    the leading diagonal, on primes with panels of 2, 3, 5 and 32
    columns, on the zero test's first prime and on primes above the
    float limit (one column, int64 or object): the same det, order and
    packed LU as the object path when nonsingular, the same LU of the
    columns before the first zero on the diagonal and order when
    singular; the det, Schur complement and P A = L U of the Fraction
    oracle; and, on both paths, the inverse of the leading block from
    the LU (`_lu_inverse`) equals the bordered one and is a right inverse
    mod p."""
    p = exactlinalg._prime(k, 0) if p is None else p
    rng = random.Random(seed)
    m, n = k + extra[0], k + extra[1]
    rows = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)]
    for i in range(min(zero_pivots, k)):
        rows[i][i] = 0
    if singular and k > 1:
        i, j = rng.sample(range(k), 2)
        rows[i][:k] = [rng.randrange(p) * e % p for e in rows[j][:k]]
    fast, slow = eliminate_both(rows, k, p)
    assert_matches_fractions(rows, k, p, fast)
    if fast[0]:
        assert fast == slow
        assert_lu_inverse(rows, k, p)
    else:
        assert slow[0] == 0 and fast[2] == slow[2]
        first = [row[i] for i, row in enumerate(fast[1][:k])].index(0)
        assert [row[i] for i, row in enumerate(slow[1][:k])][:first + 1] == \
            [row[i] for i, row in enumerate(fast[1][:k])][:first + 1]
        for result in (fast, slow):
            assert_packed_lu(rows, first, p, result[1], result[2])


def assert_largest_prime(k, q):
    """q is the largest prime with k (q - 1)^2 < 2^53."""
    assert exactlinalg._is_prime(q) and k * (q - 1) ** 2 < 2 ** 53
    assert not any(exactlinalg._is_prime(p) for p in range(q + 1, isqrt((2 ** 53 - 1) // k) + 2))


def m11_with_det(rng, k, d):
    """A k x k integer block of determinant d: an upper triangular one with
    diagonal 1, ..., 1, d whose rows after the first are mixed; only the
    first row has a nonzero first entry."""
    rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
    for i in range(k):
        rows[i][:i] = [0] * i
        rows[i][i] = 1
    rows[-1][-1] = d  # upper triangular, det d
    mix = [[1 if i == j else rng.randint(-2, 2) * (0 < j < i) for j in range(k)] for i in range(k)]
    return [[sum(mix[i][l] * rows[l][j] for l in range(k)) for j in range(k)]
            for i in range(k)]


def spying_inverses(monkeypatch):
    """The (order, prime) of every `_lu_inverse` call from now on."""
    calls = []
    real = exactlinalg._lu_inverse
    monkeypatch.setattr(exactlinalg, "_lu_inverse", lambda lu, p, *rest:
                        calls.append((len(lu), p)) or real(lu, p, *rest))
    return calls


@pytest.mark.parametrize("skipped", [1, 2])
def test_schur_over_q_skips_primes_that_divide_det_m11(skipped):
    """det M11 a multiple of the first primes of its order: the zero test
    finds M11 singular modulo them and moves on, and the lift runs modulo
    the next; the complement is still exact."""
    rng = random.Random(skipped)
    for trial in range(20):
        k, n = rng.randint(2, 4), rng.randint(1, 3)
        primes = [exactlinalg._prime(k, i) for i in range(skipped)]
        assert_largest_prime(k, primes[0])
        d = prod(primes) * rng.choice((-3, -1, 1, 2))
        lead = m11_with_det(rng, k, d)
        if trial % 2:
            lead.reverse()  # and a zero first pivot
        rows = [row + [rng.randint(-9, 9) for _ in range(n)] for row in lead]
        rows += [[rng.randint(-9, 9) for _ in range(k + n)] for _ in range(n)]
        assert all(naive_det([row[:k] for row in rows[:k]]) % q == 0 for q in primes)
        assert exactlinalg.schur_complement(ExactMatrix(rows), k).rows == \
            reference_schur(rows, k)


def test_singular_m11_with_huge_entries_raises():
    rng = random.Random(64)
    for _ in range(10):
        k, n = rng.randint(2, 4), rng.randint(1, 3)
        rows = [[rng.randint(-2 ** 70, 2 ** 70) for _ in range(k + n)] for _ in range(k + n)]
        factor = rng.randint(2 ** 63, 2 ** 66)
        rows[k - 1][:k] = [factor * e for e in rows[0][:k]]  # M11 singular
        assert reference_schur(rows, k) is None
        with pytest.raises(SingularMatrixError):
            exactlinalg.schur_complement(ExactMatrix(rows), k)
        with pytest.raises(SingularMatrixError):
            exactlinalg.solve(ExactMatrix([row[:k] for row in rows[:k]]),
                              ExactMatrix([row[k:] for row in rows[:k]]))


def test_singular_m11_over_q_is_declared_after_one_inverse(monkeypatch):
    """A singular M11 costs one F_q inverse, that of the certificate's
    pivot block from the zero test's LU, not one inverse per lifting
    prime up to the Hadamard bound on |det M11|."""
    t = SystemType(2, 2, 2, 3, 3)
    rng = random.Random(2233)
    matrix = koszul.assemble_delta1(t)
    f0, theta = solver.choose_f0_and_theta(t, rng)
    part = koszul.theta_partition(matrix, theta)
    rows = part.apply(koszul.specialize(matrix, core.random_system(t, rng).with_f0(f0))).rows
    rows[0] = list(rows[1])  # two equal rows in M11
    calls = spying_inverses(monkeypatch)
    with pytest.raises(SingularMatrixError):
        exactlinalg.schur_complement(ExactMatrix(rows), part.split)
    assert len(calls) == 1 and calls[0][0] < part.split


def test_bordered_solve_over_q_with_huge_entries_matches_cramer():
    """Entries at and above 2^63 take the object-array path."""
    rng = random.Random(63)
    for _ in range(20):
        n = rng.randint(1, 4)
        a_rows = [[rng.choice((rng.randint(-9, 9), rng.randint(2 ** 63, 2 ** 70)))
                   for _ in range(n)] for _ in range(n)]
        b_rows = [[rng.choice((Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                               -rng.randint(2 ** 63, 2 ** 70))) for _ in range(2)]
                  for _ in range(n)]
        want = reference_solve(a_rows, b_rows)
        if want is None:
            continue
        assert exactlinalg.solve(ExactMatrix(a_rows), ExactMatrix(b_rows)).rows == want


def test_schur_over_q_of_a_koszul_matrix_matches_fraction_elimination():
    """The theta-partitioned (2,2,2,3,3) Koszul matrix, mu = 81, against
    Gaussian elimination over Fractions."""
    t = SystemType(2, 2, 2, 3, 3)
    rng = random.Random(2233)
    matrix = koszul.assemble_delta1(t)
    f0, theta = solver.choose_f0_and_theta(t, rng)
    part = koszul.theta_partition(matrix, theta)
    spec = part.apply(koszul.specialize(matrix, core.random_system(t, rng).with_f0(f0)))
    assert spec.nrows == 81
    d11, want = fraction_eliminate(spec.rows, part.split)
    assert d11 != 0
    assert exactlinalg.schur_complement(spec, part.split).rows == want


def m11_small_with_det(rng, k, d):
    """A k x k integer block of determinant +-d with entries below
    |d|^(1/k) or so: rows B e_i - e_{i+1}, then the base-B digits of |d|,
    mixed by unimodular row operations; only the first row has a nonzero
    first entry."""
    base = 2
    while base ** k <= abs(d):
        base *= 2
    digits = [abs(d) // base ** i % base for i in range(k)]
    rows = [[base if j == i else -1 if j == i + 1 else 0 for j in range(k)] for i in range(k - 1)]
    rows.append(digits)
    mix = [[1 if i == j else rng.randint(-1, 1) * (0 < j < i) for j in range(k)] for i in range(k)]
    return [[sum(mix[i][l] * rows[l][j] for l in range(k)) for j in range(k)]
            for i in range(k)]


@pytest.mark.parametrize("skipped", [1, 2])
def test_lifting_skips_primes_that_divide_det_m11(skipped):
    """det M11 a multiple of the first primes of its order, with small
    entries so that the lifting runs in float64: those primes find M11
    singular and are skipped; the complement and the solve are still
    exact."""
    import numpy as np

    rng = random.Random(100 + skipped)
    for trial in range(20):
        k, n = rng.randint(3, 5), rng.randint(1, 3)
        primes = [exactlinalg._prime(k, i) for i in range(skipped)]
        lead = m11_small_with_det(rng, k, prod(primes) * rng.choice((-3, -1, 1, 2)))
        if trial % 2:
            lead.reverse()  # and a zero first pivot
        rows = [row + [rng.randint(-9, 9) for _ in range(n)] for row in lead]
        rows += [[rng.randint(-9, 9) for _ in range(k + n)] for _ in range(n)]
        assert all(naive_det(lead) % q == 0 for q in primes) and naive_det(lead) != 0
        top = max(abs(e) for row in rows for e in row)
        assert exactlinalg._lift_dtype(k, top, primes[0]) is np.float64
        assert exactlinalg.schur_complement(ExactMatrix(rows), k).rows == \
            reference_schur(rows, k)
        a_rows, b_rows = [row[:k] for row in rows[:k]], [row[k:] for row in rows[:k]]
        assert exactlinalg.solve(ExactMatrix(a_rows), ExactMatrix(b_rows)).rows == \
            reference_solve(a_rows, b_rows)


def test_lifting_with_entries_past_the_float_bound_takes_the_object_path():
    """Entries near 2^40 fit int64, but k * 2^40 * q passes 2^53, so the
    products M11 X and M21 X run on Python ints."""
    rng = random.Random(40)
    for _ in range(20):
        k, n = rng.randint(1, 4), rng.randint(1, 3)
        rows = [[rng.choice((rng.randint(-9, 9), rng.randint(-2 ** 41, 2 ** 41)))
                 for _ in range(k + n)] for _ in range(k + n)]
        rows[0][0] = 2 ** 40 + rng.randint(0, 2 ** 20)
        want = reference_schur(rows, k)
        if want is None:
            continue
        top = max(abs(e) for row in rows for e in row)
        assert 2 ** 40 <= top < 2 ** 63
        assert exactlinalg._lift_dtype(k, top, exactlinalg._prime(k, 0)) is object
        assert exactlinalg.schur_complement(ExactMatrix(rows), k).rows == want
        a_rows, b_rows = [row[:k] for row in rows[:k]], [row[k:] for row in rows[:k]]
        assert exactlinalg.solve(ExactMatrix(a_rows), ExactMatrix(b_rows)).rows == \
            reference_solve(a_rows, b_rows)


def test_lifting_meets_tight_hadamard_bounds():
    """[[d, b], [-b, d]] with gcd(b, d) = 1: the 2 x 2 minor d^2 + b^2 and
    |det M11| = |d| both equal their Hadamard bounds, and the complement
    (d^2 + b^2) / d has the largest denominator they allow, so the
    reconstruction needs all L lifting steps. Sizes run from a few bits
    to 2^90, and d steps across the float64 / object boundary, where
    R - M11 X comes closest to 2^53."""
    rng = random.Random(53)
    edge = 2 ** 53 // exactlinalg._prime(1, 0)  # the largest d on float64
    cases = [(sign * (edge + step), 1) for sign in (1, -1)
             for step in (-1, 0, 1, edge // 2, edge - 1)]
    for trial in range(200):
        bits = 2 + trial % 90
        cases.append((rng.choice((-1, 1)) * rng.randint(2 ** (bits - 1), 2 ** bits),
                      rng.randint(1, 2 ** bits)))
    for d, b in cases:
        while gcd(b, d) != 1:
            b += 1
        rows = [[d, b], [-b, d]]
        assert exactlinalg.schur_complement(ExactMatrix(rows), 1).rows == \
            [[Fraction(d * d + b * b, d)]]
        assert exactlinalg.solve(ExactMatrix([[d]]), ExactMatrix([[b, d * d + 1]])).rows == \
            [[Fraction(b, d), Fraction(d * d + 1, d)]]


def planted_denominator(rng, k, n, d, bound=3):
    """A (k + n) x (k + n) integer matrix whose leading block has
    determinant d (`with_det`) and whose other entries lie in [-9, 9]:
    its Schur complement has the large common denominator d but for a
    chance factor."""
    rows = [row + [rng.randint(-9, 9) for _ in range(n)] for row in with_det(rng, k, d, bound)]
    return rows + [[rng.randint(-9, 9) for _ in range(k + n)] for _ in range(n)]


def spying_moduli(monkeypatch):
    """The modulus of every `_reconstruct` call from now on."""
    moduli = []
    real = exactlinalg._reconstruct
    monkeypatch.setattr(exactlinalg, "_reconstruct", lambda residues, modulus, *bounds:
                        moduli.append(modulus) or real(residues, modulus, *bounds))
    return moduli


def lift_case():
    """(rows, k, q, a priori length, its bound, H, H_d) of a 20 + 3
    matrix whose complement has denominator 2^61 - 1, lifted modulo
    _prime(20, 0), whose certificate needs 15 of the 18 steps of the a
    priori length."""
    k, d = 20, 2 ** 61 - 1
    rows = planted_denominator(random.Random(20), k, 3, d, 9)
    ints = ExactMatrix(rows).array
    q = exactlinalg._prime(k, 0)
    assert len(exactlinalg._zero_test(ints[:k, :k])[0]) == 1  # q certifies M11
    minors2, lead2 = exactlinalg._hadamard2(ints, k)
    bound = isqrt(4 * minors2 * lead2)
    return rows, k, q, exactlinalg._steps(q, bound), bound, isqrt(minors2), isqrt(lead2)


def test_a_misleading_probe_sends_the_lift_on_to_the_a_priori_length(monkeypatch):
    """Probe weights of 0 make the probe 0, whose candidate 0 / 1 sets
    the stop near q^L > 2 H; the complement's denominator 2^61 - 1 fails
    the check there, and the same loop runs on to the a priori length.
    The complement is exact either way, and with its own weights the lift
    stops before the a priori length."""
    import numpy as np

    rows, k, q, length, _, h, _ = lift_case()
    want = fraction_eliminate(rows, k)[1]
    assert {e.denominator for row in want for e in row} == {2 ** 61 - 1}
    moduli = spying_moduli(monkeypatch)
    assert exactlinalg.schur_complement(ExactMatrix(rows), k).rows == want
    assert len(moduli) == 1 and moduli[0] < q ** length
    moduli.clear()
    monkeypatch.setattr(exactlinalg, "_probe_weights", lambda m, n: (
        np.zeros(m, dtype=np.int64), np.zeros(n, dtype=np.int64)))
    assert exactlinalg.schur_complement(ExactMatrix(rows), k).rows == want
    assert moduli == [q ** exactlinalg._steps(q, 2 * h), q ** length]


def test_a_stop_one_step_short_of_the_certificate_runs_on_to_the_a_priori_length(monkeypatch):
    """The probe's stop moved to one step before the least L at which
    every entry a / b passes q^L > H_d |a| + H b: no candidate can pass
    there, so the lift runs on to the a priori length, and the
    complement is exact."""
    rows, k, q, length, apriori, h, hd = lift_case()
    want = fraction_eliminate(rows, k)[1]
    real = exactlinalg._steps
    needed = max(real(q, hd * abs(e.numerator) + h * e.denominator) for row in want for e in row)
    assert needed < length
    monkeypatch.setattr(exactlinalg, "_steps", lambda q, bound:
                        real(q, bound) if bound == apriori else needed - 1)
    moduli = spying_moduli(monkeypatch)
    assert exactlinalg.schur_complement(ExactMatrix(rows), k).rows == want
    assert moduli == [q ** (needed - 1), q ** length]


def test_a_failed_early_reconstruction_sends_the_lift_on_to_the_a_priori_length(monkeypatch):
    """Orthogonal leading rows (d, b, 0) and (-b, d, 0) meet both
    Hadamard bounds, H = d^2 + b^2 and H_d = d, and put q^2 between
    H H_d and 2 H H_d, one step short of the a priori length. Probe
    weights of 0 stop the lift at q^2, where the reconstruction raises;
    the same loop runs on to q^3 and gives the complement that the
    unpatched lift gives."""
    import numpy as np

    d, b = 109731, 197194
    rows = [[d, b, 0], [-b, d, 0], [-2, -9, 4]]
    want = exactlinalg.schur_complement(ExactMatrix(rows), 1).rows
    assert want == fraction_eliminate(rows, 1)[1]
    q, h = exactlinalg._prime(1, 0), d * d + b * b
    assert exactlinalg._hadamard2(ExactMatrix(rows).array, 1) == (h * h, d * d)
    assert h * d < q ** 2 <= 2 * h * d < q ** 3
    calls = []
    real = exactlinalg._reconstruct

    def spy(residues, modulus, *bounds):
        try:
            values = real(residues, modulus, *bounds)
        except ArithmeticError:
            calls.append((modulus, "raised"))
            raise
        calls.append((modulus, "ok"))
        return values

    monkeypatch.setattr(exactlinalg, "_reconstruct", spy)
    monkeypatch.setattr(exactlinalg, "_probe_weights", lambda m, n: (
        np.zeros(m, dtype=np.int64), np.zeros(n, dtype=np.int64)))
    assert exactlinalg.schur_complement(ExactMatrix(rows), 1).rows == want
    assert calls == [(q ** 2, "raised"), (q ** 3, "ok")]


def test_the_lift_of_a_koszul_complement_stops_before_the_a_priori_length(monkeypatch):
    """The theta-partitioned (2,2,2,3,3) Koszul matrix, mu = 81, whose
    Hadamard bounds overestimate its complement (numerators and
    denominators of about 225 bits against H = 2^301 and H_d = 2^290):
    the probe stops the lift at 23 of the 26 steps of the a priori
    length, and the one reconstruction there certifies every entry."""
    t = SystemType(2, 2, 2, 3, 3)
    rng = random.Random(2233)
    matrix = koszul.assemble_delta1(t)
    f0, theta = solver.choose_f0_and_theta(t, rng)
    part = koszul.theta_partition(matrix, theta)
    spec = part.apply(koszul.specialize(matrix, core.random_system(t, rng).with_f0(f0)))
    ints, k = spec.array, part.split
    q = exactlinalg._prime(k, len(exactlinalg._zero_test(ints[:k, :k])[0]) - 1)
    minors2, lead2 = exactlinalg._hadamard2(ints, k)
    length = exactlinalg._steps(q, isqrt(4 * minors2 * lead2))
    moduli = spying_moduli(monkeypatch)
    assert exactlinalg.schur_complement(spec, k).rows == fraction_eliminate(spec.rows, k)[1]
    assert length == 26 and moduli == [q ** 23]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), k=st.integers(1, 5), n=st.integers(1, 3),
       bits=st.integers(1, 200), bound=st.sampled_from([1, 3, 2 ** 20]))
def test_schur_and_solve_over_q_match_fraction_elimination_with_a_planted_denominator(
        seed, k, n, bits, bound):
    """Integer matrices whose leading block has a determinant d of up to
    200 bits, so that the complement and the solution share the large
    denominator d: the lift, whichever length it stops at, gives what
    elimination over Fractions gives."""
    rng = random.Random(seed)
    d = rng.choice((-1, 1)) * rng.randint(2 ** (bits - 1), 2 ** bits)
    rows = planted_denominator(rng, k, n, d, bound)
    d11, want = fraction_eliminate(rows, k)
    assert d11 == d
    assert exactlinalg.schur_complement(ExactMatrix(rows), k).rows == want
    a_rows, b_rows = [row[:k] for row in rows[:k]], [row[k:] for row in rows[:k]]
    bordered = [a + b for a, b in zip(a_rows, b_rows)] + \
        [[-(i == j) for j in range(k)] + [0] * n for i in range(k)]
    assert exactlinalg.solve(ExactMatrix(a_rows), ExactMatrix(b_rows)).rows == \
        fraction_eliminate(bordered, k)[1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(num=st.integers(-2 ** 300, 2 ** 300), den=st.integers(1, 2 ** 300),
       q=st.sampled_from([3, 7, 65537] + [exactlinalg._prime(k, 0) for k in (1, 81, 630)]))
def test_the_probes_lattice_basis_gives_the_balanced_half_gcds_candidate(num, den, q):
    """Step by step, digit by digit of u = num / den mod q^i,
    `_reduced_basis` keeps a Lagrange-Gauss reduced basis of the pairs
    (c, e) with c = e u mod q^i: both vectors in the lattice, of
    determinant q^i, with their lengths, dot product and (e u - c) /
    q^i. Its first vector is the pair that a balanced
    half-gcd of u gives whenever that has one, and num / den itself once
    q^i > 2 max(|num|, den)^2."""
    while gcd(den, q) != 1:
        den += 1
    g = gcd(num, den)
    num, den = num // g, den // g
    basis, modulus, u = (1, 0, 0, 1, 1, 0, 1, -1, 0), 1, 0
    for _ in range(60):
        digit = (num * pow(den, -1, modulus * q) % (modulus * q) - u) // modulus
        basis = exactlinalg._reduced_basis(basis, digit, q)
        u, modulus = u + modulus * digit, modulus * q
        c1, e1, c2, e2, n1, m, n2, g1, g2 = basis
        assert (g1, g2) == ((e1 * u - c1) // modulus, (e2 * u - c2) // modulus)
        assert (e1 * u - c1) % modulus == 0 and (e2 * u - c2) % modulus == 0
        assert abs(c1 * e2 - c2 * e1) == modulus
        assert (n1, m, n2) == (c1 * c1 + e1 * e1, c1 * c2 + e1 * e2, c2 * c2 + e2 * e2)
        assert n1 <= n2 and 2 * abs(m) <= n1
        first = (c1, e1) if e1 > 0 else (-c1, -e1)
        stop = isqrt(modulus // 2)
        r, t = exactlinalg._half_gcd(modulus, u, stop)
        if abs(t) <= stop:
            assert first == ((r, t) if t > 0 else (-r, -t))
        if modulus > 2 * max(abs(num), den) ** 2:
            assert first == (num, den)


def test_schur_over_q_of_a_mu_136_koszul_matrix_matches_fraction_elimination():
    """The theta-partitioned (3,3,1,4,3) Koszul matrix, mu = 136 and
    split 124, the largest type of the solve benchmark, where the
    lifting runs about a hundred steps."""
    t = SystemType(3, 3, 1, 4, 3)
    rng = random.Random(3341)
    matrix = koszul.assemble_delta1(t)
    f0, theta = solver.choose_f0_and_theta(t, rng)
    part = koszul.theta_partition(matrix, theta)
    spec = part.apply(koszul.specialize(matrix, core.random_system(t, rng).with_f0(f0)))
    assert (spec.nrows, part.split) == (136, 124)
    d11, want = fraction_eliminate(spec.rows, part.split)
    assert d11 != 0
    assert exactlinalg.schur_complement(spec, part.split).rows == want


def test_reconstruction_accepts_a_residue_only_up_to_h():
    """Values N / 7 with |N| <= H = 1000, as d S has entries N for
    d = 7, modulo m = 2 H 7 + 1, the least modulus the lifting allows:
    995/7 has the symmetric residue -1858, between H and 2 H, and only a
    rational reconstruction reads it right."""
    h, den, m = 1000, 7, 2 * 1000 * 7 + 1
    values = [Fraction(995, 7), Fraction(-1000, 7), Fraction(3, 7), Fraction(994, 7), Fraction(0)]
    residues = [v.numerator * pow(v.denominator, -1, m) % m for v in values]
    assert residues[0] == m - 1858
    got = exactlinalg._reconstruct(residues, m, h * h, den * den)
    assert [Fraction(a, b) for a, b in got] == values


def plain_reconstruct(residues, modulus, num2, den2):
    """The reference of `_reconstruct`: the same running common
    denominator, the half-extended Euclidean algorithm one plain step at
    a time, and the bounds compared as squares."""
    den = 1
    out = []
    for u in residues:
        y = u * den % modulus
        if 2 * y > modulus:
            y -= modulus
        if y * y > num2:
            r0, r1, t0, t1 = modulus, y % modulus, 0, 1
            while r1 * r1 > num2:
                quo = r0 // r1
                r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
            if t1 * t1 > den2:
                raise ArithmeticError("rational reconstruction failed")
            y, den = (r1, den * t1) if t1 > 0 else (-r1, -den * t1)
        out.append((y, den))
    return out


@st.composite
def reconstruction_cases(draw):
    """(residues, modulus, num2, den2): a modulus of 10 to 12000 bits,
    residues that include 0 and modulus - 1, and values N / d with bounds
    that fit (modulus > 2 H D), bounds that are too small, and bounds
    drawn at random, which often fail."""
    bits = draw(st.sampled_from([10, 11, 64, 130, 700, 2500, 6000, 12000]))
    modulus = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
    special = st.sampled_from([0, 1, modulus - 1, modulus // 2, (modulus + 1) // 2])
    kind = draw(st.sampled_from(["fits", "tight", "random"]))
    if kind == "random":
        num2, den2 = draw(st.integers(0, modulus)), draw(st.integers(1, modulus))
        residues = draw(st.lists(st.one_of(special, st.integers(0, modulus - 1)),
                                 min_size=1, max_size=3))
        return residues, modulus, num2, den2
    h = max(1, isqrt(modulus // 4) >> draw(st.integers(0, 8)))
    d = max(1, (modulus - 1) // (2 * h))  # modulus > 2 h d
    den = draw(st.integers(1, d))
    values = draw(st.lists(st.integers(-h, h), min_size=1, max_size=3))
    residues = [v * pow(den, -1, modulus) % modulus if gcd(den, modulus) == 1 else v % modulus
                for v in values] + [draw(special)]
    if kind == "tight":  # bounds below the values': reconstruction may fail
        h, d = max(0, h >> 4), max(1, d >> 4)
    return residues, modulus, h * h, d * d


@settings(max_examples=120, deadline=None, derandomize=True)
@given(reconstruction_cases())
def test_reconstruction_by_lehmer_batches_equals_the_plain_euclidean_algorithm(case):
    """Every pair `_reconstruct` returns is the plain algorithm's, and it
    raises ArithmeticError exactly when that does."""
    residues, modulus, num2, den2 = case
    try:
        want = plain_reconstruct(residues, modulus, num2, den2)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            exactlinalg._reconstruct(residues, modulus, num2, den2)
    else:
        assert exactlinalg._reconstruct(residues, modulus, num2, den2) == want


def recombination_planes(draw, q, length, shape):
    """Signed digit planes as the lift leaves them: -T_i, each entry at
    most k top q in absolute value for k top q < 2^53, with runs at the
    extremes and of q - 1 and 0 that carry far."""
    k_top = draw(st.integers(1, (2 ** 53 - 1) // q))
    bound = k_top * q
    entry = st.one_of(st.integers(-bound, bound),
                      st.sampled_from([-bound, bound, q - 1, 0, -1, q, -q]))
    return [[draw(entry) for _ in range(prod(shape))] for _ in range(length)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_recombination_is_the_sum_of_the_digit_planes_modulo_q_to_the_l(data):
    """`_recombine` of L signed planes, L = 1, odd or even, int64 or
    Python ints past int64, equals sum_i q^i T_i mod q^L as Python ints,
    entry by entry."""
    import numpy as np

    q = data.draw(st.sampled_from([exactlinalg._prime(k, 0) for k in (1, 2, 81, 630)]))
    length = data.draw(st.sampled_from([1, 2, 3, 4, 7, 10, 33]))
    shape = data.draw(st.sampled_from([(1, 1), (2, 3), (4, 1)]))
    planes = recombination_planes(data.draw, q, length, shape)
    big = data.draw(st.booleans())
    if big:  # the lift on Python ints: entries of any size
        planes = [[e * data.draw(st.sampled_from([1, 2 ** 40, -3 ** 50])) for e in plane]
                  for plane in planes]
    digits = np.array(planes, dtype=object if big else np.int64).reshape(length, *shape)
    got = exactlinalg._recombine(digits, q)
    assert got.dtype == object and got.shape == shape
    want = [sum(q ** i * plane[e] for i, plane in enumerate(planes)) % q ** length
            for e in range(prod(shape))]
    assert got.ravel().tolist() == want


def test_recombination_carries_through_a_run_of_top_digits():
    """A carry of 1 into planes of q - 1, and a borrow into planes of 0,
    ripple through every plane up to the last, whose carry is dropped."""
    import numpy as np

    q = exactlinalg._prime(81, 0)
    for length in (1, 2, 9, 40):
        for first, rest in ((q, q - 1), (-1, 0), (-q * 5, 0)):
            planes = [first] + [rest] * (length - 1)
            got = exactlinalg._recombine(np.array(planes, dtype=np.int64).reshape(length, 1, 1), q)
            assert got[0, 0] == sum(q ** i * e for i, e in enumerate(planes)) % q ** length


@pytest.mark.parametrize("top", [2 ** 40, 2 ** 70])
def test_schur_over_q_lifts_on_python_ints_past_the_float_bound(monkeypatch, top):
    """k top q >= 2^53, with int64 storage (entries up to 2^40) and with
    object storage (2^70): the lift's products run on Python ints, its
    digit planes reach `_recombine` as an object array, and the Schur
    complement is the Fraction elimination's."""
    import numpy as np

    dtypes = []
    real = exactlinalg._recombine
    monkeypatch.setattr(exactlinalg, "_recombine",
                        lambda digits, q: dtypes.append(digits.dtype) or real(digits, q))
    rng = random.Random(top.bit_length())
    k, n = 5, 8
    rows = [[rng.choice((rng.randint(-9, 9), rng.randint(-top, top))) for _ in range(n)]
            for _ in range(n)]
    ints = ExactMatrix(rows).array
    assert exactlinalg._lift_dtype(k, int(max(abs(e) for row in rows for e in row)),
                                   exactlinalg._prime(k, 0)) is object
    assert exactlinalg.schur_complement(ExactMatrix(rows), k).rows == reference_schur(rows, k)
    assert dtypes == [object] and ints.dtype == (np.int64 if top < 2 ** 63 else object)


# -- det over Q: zero certificate, divisor lift, quotient CRT ---------------

def unlucky(n):
    """The first two primes of det over Q of order n, w0 and w1."""
    return exactlinalg._prime(n, 0), exactlinalg._prime(n, 1)


def with_det(rng, n, d, bound):
    """U T for a lower unitriangular U and an upper triangular T with
    diagonal 1, ..., 1, d, entries in [-bound, bound]: det d, dense."""
    u = [[1 if i == j else rng.randint(-bound, bound) * (j < i) for j in range(n)]
         for i in range(n)]
    t = [[(d if i == n - 1 else 1) if i == j else rng.randint(-bound, bound) * (j > i)
          for j in range(n)] for i in range(n)]
    return [[sum(u[i][l] * t[l][j] for l in range(n)) for j in range(n)] for i in range(n)]


def with_column(rows, j, column):
    return [row[:j] + [e] + row[j + 1:] for row, e in zip(rows, column)]


def combination(rows, rng, skip, bound):
    """A random integer combination of the columns other than `skip`."""
    coeffs = [rng.randint(-bound, bound) for _ in rows[0]]
    return [sum(c * e for i, (c, e) in enumerate(zip(coeffs, row)) if i != skip) for row in rows]


def det_cases(rng, n, bound):
    """(name, integer rows) of the shapes the certificate and the divisor
    must get right."""
    def entry():
        return rng.randint(-bound, bound)

    def dense():
        return [[entry() for _ in range(n)] for _ in range(n)]

    w0, w1 = unlucky(n)

    for rank in (n - 1, n - 3):
        b = [[entry() for _ in range(rank)] for _ in range(n)]
        c = [[entry() for _ in range(n)] for _ in range(rank)]
        yield f"rank n-{n - rank}", [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)]
                                     for row in b]
    for name, j in (("first", 0), ("middle", n // 2), ("last", n - 1)):
        rows = dense()
        yield f"dependent {name} column", with_column(rows, j, combination(rows, rng, j, 3))
    yield "zero first column", with_column(dense(), 0, [0] * n)
    yield "det w0", with_det(rng, n, w0, 3)
    yield "det w0 w1", with_det(rng, n, -w0 * w1, 3)
    # columns 0 and 1 independent over Q but not mod w0, column n-1 dependent
    rows = dense()
    rows = with_column(rows, 1, [2 * row[0] + w0 * entry() for row in rows])
    yield "w0 multiple, singular later column", with_column(rows, n - 1,
                                                            combination(rows, rng, n - 1, 3))
    frac = [[Fraction(entry(), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    yield "fractions", frac
    yield "fractions, singular", with_column(frac, n // 2, combination(frac, rng, n // 2, 3))
    huge = [[rng.choice((entry(), rng.choice((-1, 1)) * rng.randint(2 ** 63, 2 ** 70)))
             for _ in range(n)] for _ in range(n)]
    yield "entries 2^63 and more", huge
    # every entry fits int64, but the absolute value of -2^63 does not
    yield "entry -2^63", [[-2 ** 63 if i == j == 0 else e for j, e in enumerate(row)]
                          for i, row in enumerate(dense())]
    yield "entries 2^63 and more, singular", with_column(huge, n - 1,
                                                         combination(huge, rng, n - 1, 3))


@pytest.mark.parametrize("n, bound", [(4, 5), (16, 99)])
def test_det_over_q_matches_fraction_elimination_on_both_sides_of_the_cutoff(
        monkeypatch, n, bound):
    """Rank-deficient, unlucky-prime, fractional and huge matrices, below
    the small-budget cutoff (plain CRT) and above it (zero test and
    divisor lift): det equals Fraction elimination."""
    divisors = []
    real_divisor = exactlinalg._divisor
    monkeypatch.setattr(exactlinalg, "_divisor",
                        lambda *args: divisors.append(real_divisor(*args)) or divisors[-1])
    rng = random.Random(n)
    names = set()
    plain = 0
    for trial in range(3):
        for name, rows in det_cases(rng, n, bound):
            names.add(name)
            before = len(divisors)
            value = exactlinalg.det(ExactMatrix(rows))
            assert value == fraction_det(rows), (name, trial)
            plain += len(divisors) == before
            if n == 16 and value != 0:
                # every nonzero det above the cutoff takes the divisor lift
                assert len(divisors) == before + 1, name
                if "fractions" not in name:  # else D divides det of the cleared rows
                    assert value % divisors[-1] == 0
    assert len(names) == 14
    if n == 4:
        assert plain >= 30  # all but the huge and w0-sized entries
    else:
        # det w0 (w0 w1): the divisor is a multiple, so the CRT skips w0 (and w1)
        w0, w1 = unlucky(n)
        assert any(d % w0 == 0 for d in divisors) and any(d % (w0 * w1) == 0 for d in divisors)


def test_det_over_q_of_empty_and_one_by_one_matrices(monkeypatch):
    """Up to 2^78 or so a 1 x 1 det is plain CRT; above, the zero test
    runs one column a step on int64 modulo w0 (or w1, when w0 divides
    the entry), whose 1 x 1 LU gives the inverse of the divisor lift,
    which runs on Python ints."""
    assert exactlinalg.det(ExactMatrix([])) == 1
    w0, w1 = unlucky(1)
    inverses = spying_inverses(monkeypatch)
    for value in (0, 5, -w0, w0 * w1, -2 ** 63, 2 ** 70 + 1, Fraction(-7, 3), Fraction(0)):
        assert exactlinalg.det(ExactMatrix([[value]])) == value
    assert inverses == []
    for value in (2 ** 80 + 1, -2 ** 90, w0 * 2 ** 80, Fraction(2 ** 90 + 1, 3)):
        inverses.clear()
        assert exactlinalg.det(ExactMatrix([[value]])) == value
        assert inverses == [(1, w1 if value % w0 == 0 else w0)]


def test_det_over_q_certifies_a_zero_at_an_unlucky_prime():
    """w0 divides every 2-minor of columns 0 and 1, which are independent
    over Q: modulo w0 the loop stops at column 1, the lifted certificate
    is not 0, and the test moves on to w1, where it stops at the
    dependent last column and the certificate is 0."""
    rng = random.Random(5)
    n = 12
    w0, w1 = unlucky(n)
    rows = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
    rows = with_column(rows, 1, [3 * row[0] + w0 * rng.randint(1, 9) for row in rows])
    rows = with_column(rows, n - 1, combination(rows, rng, n - 1, 5))
    ints = exactlinalg._int_rows(ExactMatrix(rows).array)[0]
    assert exactlinalg._zero_test(ints) == (None,) * 4
    rows[0][n - 1] += 1  # no longer singular, still 0 modulo w0
    ints = exactlinalg._int_rows(ExactMatrix(rows).array)[0]
    residues = exactlinalg._zero_test(ints)[0]
    assert residues[0] == 0 and residues[-1] == fraction_det(rows) % w1 != 0
    assert exactlinalg.det(ExactMatrix(rows)) == fraction_det(rows)


def koszul_det_case(kind):
    t = SystemType(2, 2, 2, 3, 3)
    rng = random.Random(81)
    matrix = koszul.assemble_delta1(t)
    if kind == "planted":
        alpha = ProjectiveSolution((1, 2, -1), (1, -3, 2), (1, 1, 3))
        system = core.planted_root_system(t, alpha, rng, include_f0=True)
    else:
        system = core.random_system(t, rng).with_f0(solver.choose_f0_and_theta(t, rng)[0])
    return koszul.specialize(matrix, system)


def counting_eliminations(monkeypatch):
    """The order of every elimination of a whole square array from now on,
    a rest or a zero test's block: a fold's row reduction of K
    (`_row_reduce`), r steps on a taller array, is not counted."""
    calls = []
    real = exactlinalg._eliminate
    monkeypatch.setattr(exactlinalg, "_eliminate", lambda a, k, *args: (
        k == len(a) == a.shape[1] and calls.append(k)) or real(a, k, *args))
    return calls


@pytest.mark.parametrize("kind", ["planted", "random"])
def test_det_over_q_of_a_koszul_matrix_runs_only_the_quotient_budget(monkeypatch, kind):
    """mu = 81: a planted system costs one elimination mod w0, which stops
    at a column without a pivot, and its certificate takes the F_q
    inverse of the pivot block from that LU; a random one costs that
    elimination (its residue is reused, its LU gives the inverse of the
    divisor lift) and just enough primes for det / D, whose bound is
    2 B / |D|, B the smaller of the Hadamard bound and the verified one.
    The verified bound is the smaller, and one prime suffices. Both
    Kronecker classes fold, so the elimination and the LU inverse run on
    the rest, 27 of the 81 rows."""
    spec = koszul_det_case(kind)
    ints = exactlinalg._int_rows(spec.array)[0]
    n = len(ints)
    bound2 = exactlinalg._hadamard2(ints, n)[1]
    divisor = 1
    if kind == "random":
        divisor = exactlinalg._divisor(ints, exactlinalg._prime(n, 0),
                                       *exactlinalg._zero_test(ints)[1:])
        verified2 = exactlinalg._verified_bound2(ints)
        assert verified2 < bound2
        bound2 = verified2
    primes = 0
    modulus = 1
    while (modulus * divisor) ** 2 <= 4 * bound2:
        q = exactlinalg._prime(n, primes)
        assert divisor % q
        modulus *= q
        primes += 1
    calls = counting_eliminations(monkeypatch)
    inverses = spying_inverses(monkeypatch)
    value = exactlinalg.det(spec)
    w0 = exactlinalg._prime(n, 0)
    rest = 27
    if kind == "planted":
        assert value == 0 and calls == [rest] and len(inverses) == 1
        assert inverses[0][0] < rest and inverses[0][1] == w0
    else:
        assert value == fraction_det(spec.rows) != 0
        assert primes == 1 and calls == [rest] * primes and inverses == [(rest, w0)]


@pytest.mark.parametrize("ty", [(2, 2, 2, 3, 3), (3, 3, 1, 4, 3), (3, 2, 2, 4, 3)])
def test_det_over_q_of_the_seed_1_resultant_inputs_runs_one_elimination(monkeypatch, ty):
    """The random systems of the benchmark's `resultant` op at seed 1 (mu
    81, 136, 192), drawn the same way: their det over Q runs one
    elimination, the zero test's, on the rest its folds leave (27, 76 and
    66 rows; at mu = 136 only the L04 class folds, its L02 K being 6 x 4
    and its L01 class one copy), since the verified bound leaves one prime
    for det / D; its value mod p is the det over F_p."""
    t = SystemType(*ty)
    rng = random.Random(f"1:resultant:{ty}")
    point = ProjectiveSolution(*(tuple([1] + [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)])
                                 for n in t.dims))
    core.planted_root_system(t, point, rng, include_f0=True)
    f0 = solver.choose_f0_and_theta(t, rng)[0]
    system = core.random_system(t, rng).with_f0(f0)
    matrix = koszul.assemble_delta1(t)
    calls = counting_eliminations(monkeypatch)
    value = exactlinalg.det(koszul.specialize(matrix, system))
    rest = {81: 27, 136: 76, 192: 66}[matrix.size]
    assert calls == [rest] and value != 0
    assert value % P_PANEL == exactlinalg.det(koszul.specialize(matrix, system, P_PANEL))


def verified_bound2(rows, used=True):
    """The verified bound on (det rows)^2, checked to be at least the
    Fraction-elimination det squared (and so is its minimum with the
    Hadamard bound); `used` is whether it must exist, None for either.
    det over Q must match either way."""
    a = ExactMatrix(rows).array
    bound2 = exactlinalg._verified_bound2(a)
    value = fraction_det(rows)
    if used is not None:
        assert (bound2 is not None) == used
    if bound2 is not None:
        assert bound2 >= value ** 2
        assert min(exactlinalg._hadamard2(a, len(a))[1], bound2) >= value ** 2
    assert exactlinalg.det(ExactMatrix(rows)) == value
    return bound2


def sylvester_hadamard(n):
    rows = [[1]]
    while len(rows) < n:
        rows = [row + row for row in rows] + [row + [-e for e in row] for row in rows]
    return rows


@pytest.mark.parametrize("n", [16, 32, 64])
def test_verified_bound_holds_on_hadamard_matrices_where_hadamards_bound_is_exact(n):
    """|det| = n^(n/2) = H for a Sylvester-Hadamard matrix: the verified
    bound may not undercut it, and lies within 2^-30 of it."""
    bound2 = verified_bound2(sylvester_hadamard(n))
    assert bound2 <= Fraction(n ** n) * (1 + Fraction(1, 2 ** 30))


def test_verified_bound_holds_on_nearly_singular_and_ill_conditioned_matrices():
    """One row another plus a unit vector, so det is one cofactor; and
    Hilbert matrices scaled to integers, up to condition numbers past
    1 / 2^-53, where the bound may be loose or give up."""
    rng = random.Random(17)
    for n in (3, 8, 20):
        for trial in range(4):
            rows = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            rows[i] = list(rows[j])
            rows[i][rng.randrange(n)] += rng.choice((-1, 1))
            verified_bound2(rows, None if fraction_det(rows) == 0 else True)
    for n in (4, 8, 11, 14):
        scale = lcm(*range(1, 2 * n))
        verified_bound2([[scale // (i + j + 1) for j in range(n)] for i in range(n)],
                        True if n <= 8 else None)


def test_verified_bound_exists_only_below_the_float_limit():
    """Entries up to 2^53 - 1 are exact in float64 and take the bound;
    an entry of 2^53 (int64) or of 2^70 (object storage) falls back to
    the Hadamard bound alone, with the same det."""
    rng = random.Random(53)
    n = 6
    for top, used in ((2 ** 53 - 1, True), (2 ** 53, False), (2 ** 70, False)):
        rows = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
        rows[rng.randrange(n)][rng.randrange(n)] = rng.choice((-1, 1)) * top
        rows[0][0] = top
        verified_bound2(rows, used)


def test_verified_bound_of_small_orders_and_the_mu_81_koszul_matrix():
    """n = 1 and 2, and a Koszul det, where the bound is within a bit."""
    for rows in ([[5]], [[-7]], [[2 ** 53 - 1]], [[1, 2], [3, 4]], [[0, 3], [-5, 0]],
                 [[2 ** 52, 1], [1, 2 ** 52]]):
        verified_bound2(rows)
    assert verified_bound2([[0]], None) in (None, 0)
    spec = koszul_det_case("random")
    ints = exactlinalg._int_rows(spec.array)[0]
    value = exactlinalg.det(spec)
    assert value ** 2 <= exactlinalg._verified_bound2(ints) <= 4 * value ** 2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 53 + 1, 2 ** 53 - 1)),
             min_size=n, max_size=n), min_size=n, max_size=n)))
def test_verified_bound_is_never_below_the_determinant(rows):
    """Small orders, entries small or up to 2^53 - 1, singular or not."""
    verified_bound2(rows, None)


def test_verified_bound_is_the_ceiling_of_the_exact_fraction_bound(monkeypatch):
    """The bound is an integer: the ceiling of prod_i s_i / ((1 - n (n +
    2) u) prod_i X_ii^2) taken in Fractions of the same floats, so at
    least that and less than one above it, and at least (det a)^2."""
    products = []
    real = exactlinalg._dyadic_product
    monkeypatch.setattr(exactlinalg, "_dyadic_product",
                        lambda values: products.append(real(values)) or products[-1])
    rng = random.Random(2)
    cases = [[[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)] for n in (1, 5, 40, 70)]
    cases += [sylvester_hadamard(16), [[2 ** 52, 1], [1, 2 ** 52]]]
    cases.append(koszul_det_case("random").rows)
    for rows in cases:
        products.clear()
        n = len(rows)
        bound2 = exactlinalg._verified_bound2(ExactMatrix(rows).array)
        (num, den), (xnum, xden) = products
        exact = Fraction(num * xden ** 2, den * xnum ** 2) / (1 - Fraction(n * (n + 2), 2 ** 53))
        assert type(bound2) is int and exact <= bound2 < exact + 1
        assert bound2 >= exactlinalg.det(ExactMatrix(rows)) ** 2


def test_upper_inverse_by_halves_inverts_triangles_of_every_split():
    """Orders around the leaf size and odd splits: R X = I to rounding,
    X upper triangular; a zero on the diagonal is LinAlgError."""
    import numpy as np

    rng = np.random.default_rng(3)
    for n in (1, 2, 63, 64, 65, 129, 200):
        r = np.triu(rng.standard_normal((n, n))) + 4 * np.eye(n)
        x = exactlinalg._upper_inverse(r)
        assert np.array_equal(x, np.triu(x))
        assert np.abs(r @ x - np.eye(n)).max() < 1e-12
    r = np.triu(rng.standard_normal((100, 100))) + 4 * np.eye(100)
    r[10, 10] = 0
    with pytest.raises(np.linalg.LinAlgError):
        exactlinalg._upper_inverse(r)


def test_upper_product_by_halves_equals_the_full_product():
    """a X for an upper-triangular X, by halves, at orders around the
    leaf size and odd splits: exactly a @ X where every sum is an exact
    float (small integers), and to rounding on random floats."""
    import numpy as np

    rng = np.random.default_rng(4)
    for n in (1, 2, 63, 64, 65, 129, 200):
        for rows in (1, 7, 130):
            a = rng.integers(-99, 99, size=(rows, n)).astype(np.float64)
            x = np.triu(rng.integers(-99, 99, size=(n, n))).astype(np.float64)
            assert np.array_equal(exactlinalg._upper_product(a, x), a @ x)
            a, x = rng.standard_normal((rows, n)), np.triu(rng.standard_normal((n, n)))
            assert np.abs(exactlinalg._upper_product(a, x) - a @ x).max() < 1e-12 * n


def test_singular_m11_over_q_is_declared_after_one_elimination(monkeypatch):
    """The mu = 81 theta-partitioned Koszul matrix with two equal rows in
    M11: one elimination of M11 mod w0, which stops at a column s without
    a pivot, whose leading s x s LU gives the F_q inverse of the pivot
    block for the certificate; no second elimination, no prime budget."""
    t = SystemType(2, 2, 2, 3, 3)
    rng = random.Random(2233)
    matrix = koszul.assemble_delta1(t)
    f0, theta = solver.choose_f0_and_theta(t, rng)
    part = koszul.theta_partition(matrix, theta)
    rows = part.apply(koszul.specialize(matrix, core.random_system(t, rng).with_f0(f0))).rows
    rows[0] = list(rows[1])
    k = part.split
    calls = counting_eliminations(monkeypatch)
    inverses = spying_inverses(monkeypatch)
    with pytest.raises(SingularMatrixError):
        exactlinalg.schur_complement(ExactMatrix(rows), k)
    assert calls == [k] and len(inverses) == 1 and inverses[0][0] < k


def test_every_elimination_over_q_runs_on_float64_panels(monkeypatch):
    """det, schur_complement and solve over Q of order 3 or more reduce
    modulo primes `_prime(k, i)` only, whose panels are float64: the zero
    test, the CRT and the F_q inverse of every lift, from the zero test's
    LU, on the rank-deficient, unlucky-prime, fractional and huge cases
    and on the mu = 81 Koszul matrices. No ExactMatrix wraps a float64
    array."""
    import numpy as np

    dtypes, wrapped = [], []
    real_eliminate, real_of = exactlinalg._eliminate, ExactMatrix._of.__func__
    real_inverse = exactlinalg._lu_inverse
    monkeypatch.setattr(exactlinalg, "_eliminate",
                        lambda a, *args: dtypes.append(a.dtype) or real_eliminate(a, *args))
    monkeypatch.setattr(exactlinalg, "_lu_inverse",
                        lambda lu, *args: dtypes.append(lu.dtype) or real_inverse(lu, *args))
    monkeypatch.setattr(ExactMatrix, "_of", classmethod(
        lambda cls, array, field: wrapped.append(array.dtype) or real_of(cls, array, field)))
    rng = random.Random(3)
    k = 3
    for n, bound in ((4, 5), (8, 2 ** 40)):
        for name, rows in det_cases(rng, n, bound):
            assert exactlinalg.det(ExactMatrix(rows)) == fraction_det(rows), name
            want = reference_schur(rows, k)
            a_rows, b_rows = [row[:k] for row in rows[:k]], [row[k:] for row in rows[:k]]
            if want is None:
                with pytest.raises(SingularMatrixError):
                    exactlinalg.schur_complement(ExactMatrix(rows), k)
                continue
            assert exactlinalg.schur_complement(ExactMatrix(rows), k).rows == want, name
            assert exactlinalg.solve(ExactMatrix(a_rows), ExactMatrix(b_rows)).rows == \
                reference_solve(a_rows, b_rows)
    for kind in ("planted", "random"):
        assert (exactlinalg.det(koszul_det_case(kind)) == 0) == (kind == "planted")
    assert len(dtypes) > 100 and set(dtypes) == {np.dtype(np.float64)}
    assert np.dtype(np.float64) not in wrapped


def test_a_lift_past_an_unlucky_prime_takes_one_inverse_modulo_the_certified_prime(monkeypatch):
    """det M11 a multiple of _prime(k, 0): the zero test lifts its
    certificate on a smaller pivot block modulo that prime, certifies
    _prime(k, 1), and the lift takes its one k x k F_q inverse modulo
    it, from the LU there, with no search for a prime of its own."""
    rng = random.Random(11)
    k, n = 4, 2
    q0, q1 = unlucky(k)
    solves = spying_inverses(monkeypatch)
    for trial in range(6):
        lead = m11_with_det(rng, k, q0 * rng.choice((-3, -1, 1, 2)))
        if trial % 2:
            lead.reverse()
        rows = [row + [rng.randint(-9, 9) for _ in range(n)] for row in lead]
        rows += [[rng.randint(-9, 9) for _ in range(k + n)] for _ in range(n)]
        ints = exactlinalg._int_rows(ExactMatrix(rows).array)[0]
        assert len(exactlinalg._zero_test(ints[:k, :k])[0]) == 2  # certifies q1
        solves.clear()
        assert exactlinalg.schur_complement(ExactMatrix(rows), k).rows == \
            reference_schur(rows, k)
        (size, field), inverse = solves
        assert size < k and field == q0  # the certificate's pivot block
        assert inverse == (k, q1)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(t=st.sampled_from(system_types(max_dim=4, max_mu=100)), seed=st.integers(0, 2 ** 32))
def test_det_over_q_vanishes_exactly_at_a_common_root(t, seed):
    """Over Q the Koszul det is 0 for a planted system with f0 and not 0
    for a random one, and it reduces mod p to the det over F_p."""
    rng = random.Random(seed)
    matrix = koszul.assemble_delta1(t)
    alpha = ProjectiveSolution(*(tuple(rng.randint(-3, 3) or 1 for _ in range(n + 1))
                                 for n in t.dims))
    planted = core.planted_root_system(t, alpha, rng, include_f0=True)
    random_system = core.random_system(t, rng).with_f0(solver.choose_f0_and_theta(t, rng)[0])
    p = 1_000_003
    for system, vanishes in ((planted, True), (random_system, False)):
        value = exactlinalg.det(koszul.specialize(matrix, system))
        assert (value == 0) == vanishes
        assert exactlinalg.fraction_mod_p(value, p) == \
            exactlinalg.det(koszul.specialize(matrix, system, p))


def test_hadamard_bounds_in_int64_match_python_ints_at_the_overflow_edge():
    """The squared norms are summed in int64 only while max^2 times the
    line length stays below 2^63; entries of magnitude just below and
    above that edge, where a full line of them sums past 2^63, and past
    2^63 itself, give the bounds of a Python-int reference."""
    import numpy as np

    def reference(rows, k):
        cols = list(zip(*rows))

        def norms2(lines, width=None):
            return [sum(e * e for e in line[:width]) for line in lines]

        minors2 = min(prod(lines[:k]) * max([1, *lines[k:]])
                      for lines in (norms2(rows), norms2(cols)))
        return minors2, min(prod(norms2(rows[:k], k)), prod(norms2(cols[:k], k)))

    rng = random.Random(2 ** 63)
    for n, m in ((5, 5), (6, 4), (3, 7)):
        edge = isqrt((2 ** 63 - 1) // max(n, m))
        for top in (9, edge - 1, edge, edge + 1, 2 ** 62, 2 ** 70):
            rows = [[rng.choice((-top, top)) for _ in range(m)] for _ in range(n)]
            rows[0][0] = top // 3
            dtype = np.int64 if top < 2 ** 63 else object
            for k in range(1, min(n, m) + 1):
                assert exactlinalg._hadamard2(np.array(rows, dtype=dtype), k) == \
                    reference(rows, k)
        # -2^63 fits int64 but its square and absolute value do not, so
        # the cleared rows hold it as a Python int
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        rows[-1][-1] = -2 ** 63
        ints = exactlinalg._int_rows(ExactMatrix(rows).array)[0]
        assert ints.dtype == object
        for k in range(1, min(n, m) + 1):
            assert exactlinalg._hadamard2(ints, k) == reference(rows, k)


def test_det_schur_and_solve_over_q_with_an_entry_of_minus_2_to_the_63():
    """Every entry fits int64, yet -2^63 has no int64 absolute value: the
    bounds, the lifting storage and the result still see it."""
    assert exactlinalg.det(ExactMatrix([[-2 ** 63, 1], [1, 1]])) == -2 ** 63 - 1
    rng = random.Random(-2 ** 63)
    for _ in range(10):
        k, n = rng.randint(1, 4), rng.randint(1, 3)
        rows = [[rng.randint(-9, 9) for _ in range(k + n)] for _ in range(k + n)]
        rows[rng.randrange(k + n)][rng.randrange(k + n)] = -2 ** 63
        assert exactlinalg.det(ExactMatrix(rows)) == fraction_det(rows)
        want = reference_schur(rows, k)
        if want is None:
            continue
        assert exactlinalg.schur_complement(ExactMatrix(rows), k).rows == want
        a_rows, b_rows = [row[:k] for row in rows[:k]], [row[k:] for row in rows[:k]]
        assert exactlinalg.solve(ExactMatrix(a_rows), ExactMatrix(b_rows)).rows == \
            reference_solve(a_rows, b_rows)


def test_solve_over_q_of_int64_and_object_blocks_is_exact():
    """The bordered matrix takes the dtype that holds both blocks: in
    A's int64 a Fraction of B would be truncated."""
    import numpy as np

    int_rows, fraction_rows = [[2, 1], [1, 1]], [[Fraction(1, 2), 3], [0, Fraction(-7, 3)]]
    ints, fractions = ExactMatrix(int_rows), ExactMatrix(fraction_rows)
    assert ints.array.dtype == np.int64 and fractions.array.dtype == object
    assert exactlinalg.solve(ints, fractions).rows == reference_solve(int_rows, fraction_rows)
    assert exactlinalg.solve(fractions, ints).rows == reference_solve(fraction_rows, int_rows)


def test_integer_entries_of_2_to_the_63_stay_object_over_q():
    import numpy as np

    edge = 2 ** 63 - 1
    fits = ExactMatrix([[edge, -edge], [Fraction(4), 0]])
    assert fits.array.dtype == np.int64 and fits.rows == [[edge, -edge], [4, 0]]
    for value in (2 ** 63, -2 ** 63, Fraction(-2 ** 63), 2 ** 70):
        for m in (ExactMatrix([[value, 1], [1, 1]]),
                  ExactMatrix(np.array([[value, 1], [1, 1]], dtype=object))):
            assert m.array.dtype == object and m.rows == [[value, 1], [1, 1]]
            assert exactlinalg.det(m) == value - 1
    from_int64 = ExactMatrix(np.array([[-2 ** 63, 1], [1, 1]], dtype=np.int64))
    assert from_int64.array.dtype == object and exactlinalg.det(from_int64) == -2 ** 63 - 1


def test_specialize_over_q_keeps_a_fraction_coefficient():
    """One coefficient "1/2" makes the whole specialization object, and
    its det and Schur complement are those of the per-entry Fractions."""
    t = SystemType(2, 1, 1, 2, 2)
    rng = random.Random(12)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, solver.default_theta(t))
    system = core.random_system(t, rng).with_f0(solver.choose_f0_and_theta(t, rng)[0])
    f1 = system.f[0]
    halved = core.MHPoly(t.nvars, f1.degree, {**f1.terms, next(iter(f1.terms)): "1/2"})
    system = core.BilinearSystem(t, (halved, *system.f[1:]), system.f0)
    rows = [[0] * matrix.size for _ in range(matrix.size)]
    for (i, j), entry in matrix.entries.items():
        rows[i][j] = entry.sign * system.poly(entry.poly).coefficient(entry.exponent)
    assert any(abs(e) == Fraction(1, 2) for row in rows for e in row)
    spec = koszul.specialize(matrix, system)
    assert spec.array.dtype == object and spec.rows == rows
    assert exactlinalg.det(spec) == fraction_det(rows) != 0
    permuted = [[rows[i][j] for j in part.col_perm] for i in part.row_perm]
    want = fraction_eliminate(permuted, part.split)[1]
    assert want is not None
    assert exactlinalg.schur_complement(part.apply(spec), part.split).rows == want


def test_int64_and_object_storage_over_q_agree_on_the_permuted_koszul_matrix():
    import numpy as np

    t = SystemType(2, 2, 2, 3, 3)
    part = koszul.theta_partition(koszul.assemble_delta1(t), solver.default_theta(t))
    fast = part.apply(koszul_det_case("random"))
    slow = ExactMatrix._of(np.array([[Fraction(e) for e in row] for row in fast.rows],
                                    dtype=object), None)
    assert fast.array.dtype == np.int64 and slow.array.dtype == object
    assert exactlinalg.det(fast) == exactlinalg.det(slow) != 0
    assert exactlinalg.schur_complement(fast, part.split).rows == \
        exactlinalg.schur_complement(slow, part.split).rows
    assert np.array_equal(exactlinalg.to_float(fast), exactlinalg.to_float(slow))


def coordinate_and_dense(field, fractional):
    """A mu = 44 specialization in compressed-column form and its dense array."""
    t = SystemType(3, 1, 1, 3, 2)
    rng = random.Random(31)
    sys_ = core.random_system(t, rng).with_f0(solver.choose_f0_and_theta(t, rng)[0])
    if fractional:
        f1 = sys_.f[0]
        third = core.MHPoly(t.nvars, f1.degree, {**f1.terms, next(iter(f1.terms)): "1/3"})
        sys_ = core.BilinearSystem(t, (third, *sys_.f[1:]), sys_.f0)
    matrix = koszul.assemble_delta1(t)
    return koszul.specialize(matrix, sys_, field), koszul.specialize(matrix, sys_, field).array


def test_schur_complement_over_fp_of_a_theta_permuted_view_builds_one_array():
    """schur_complement over F_p scatters a compressed-column view straight
    into its working array: the view builds no dense array of its own,
    and the complement equals the dense input's, on float64 panels
    (1000003) and on int64 (2^31 - 1)."""
    t = SystemType(3, 1, 1, 3, 2)
    rng = random.Random(44)
    f0, theta = solver.choose_f0_and_theta(t, rng)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, theta)
    for p in (1_000_003, 2 ** 31 - 1):
        view = part.apply(koszul.specialize(matrix, core.random_system(t, rng).with_f0(f0), p))
        schur = exactlinalg.schur_complement(view, part.split)
        assert view._array is None
        assert schur.rows == exactlinalg.schur_complement(ExactMatrix(view.rows, p), part.split).rows


@pytest.mark.parametrize("field", [None, 1_000_003, 2 ** 31 - 1])
def test_solve_of_compressed_column_views_builds_no_dense_array_on_them(field):
    """solve(M11, M12) on the compressed-column views of a theta-permuted
    specialization, as an exact reference would take them: the bordered
    array is scattered from the cells, so neither view builds and keeps
    a dense array of its own, and X is the solve of the dense copies,
    over Q, on float64 panels and on int64."""
    t = SystemType(3, 1, 1, 3, 2)
    rng = random.Random(45)
    f0, theta = solver.choose_f0_and_theta(t, rng)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, theta)
    spec = part.apply(koszul.specialize(matrix, core.random_system(t, rng).with_f0(f0), field))
    k, n = part.split, spec.nrows
    m11, m12 = spec.submatrix(range(k), range(k)), spec.submatrix(range(k), range(k, n))
    x = exactlinalg.solve(m11, m12)
    assert m11._array is None and m12._array is None
    assert x.rows == exactlinalg.solve(ExactMatrix(m11.rows, field), ExactMatrix(m12.rows, field)).rows


STORAGE_CASES = [(None, False), (None, True), (1_000_003, False), (2 ** 31 + 11, False)]
SUBMATRIX_INDICES = {
    "subset": ([1, 5, 9, 40], [0, 2, 43]),
    "unsorted": ([40, 3, 17, 0, 8], [43, 1, 20, 6]),
    "ranges": (range(10, 30), range(44)),
    "negative": ([-1, 0, -43, 7], [-2, 5]),
    "repeated rows": ([3, 3, 7], [1, 2, 3]),
    "repeated columns": (range(44), [0, 1, 0, 43]),
    "repeated by a negative index": ([0, 5, -44], [1]),
    "empty": ([], [1, 2]),
}


@pytest.mark.parametrize("field, fractional", STORAGE_CASES)
@pytest.mark.parametrize("name", list(SUBMATRIX_INDICES))
def test_submatrix_of_a_coordinate_form_matrix_equals_the_dense_ix(field, fractional, name):
    """The cells remapped through the inverse index maps give what np.ix_
    gives on the dense array, in value, dtype and the type of every entry,
    scalar reads of the result included; repeated indices take the dense
    path."""
    import numpy as np

    rows, cols = SUBMATRIX_INDICES[name]
    spec, dense = coordinate_and_dense(field, fractional)
    want = dense[np.ix_(rows, cols)]
    sub = spec.submatrix(rows, cols)
    assert (sub._array is None) == (not name.startswith("repeated"))
    assert (sub.nrows, sub.ncols) == want.shape
    cells = [(i, j) for i in range(sub.nrows) for j in range(sub.ncols)]
    assert [(type(sub[cell]), sub[cell]) for cell in cells] == \
        [(type(v), v) for v in want.tolist() for v in v]
    assert sub.array.dtype == want.dtype and sub.rows == want.tolist()
    assert spec._array is None or name.startswith("repeated")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(STORAGE_CASES), st.lists(st.integers(-44, 43), max_size=50),
       st.lists(st.integers(-44, 43), max_size=50))
def test_submatrix_of_a_coordinate_form_matrix_on_random_index_lists(case, rows, cols):
    import numpy as np

    spec, dense = coordinate_and_dense(*case)
    want = dense[np.ix_(rows, cols)]
    sub = spec.submatrix(rows, cols)
    assert sub.array.dtype == want.dtype
    assert [[(type(v), v) for v in row] for row in sub.rows] == \
        [[(type(v), v) for v in row] for row in want.tolist()]


VIEW_STORAGES = {"Q int64": None, "Q object": None, "F_p int64": 1_000_003,
                 "F_p object": 2 ** 31 + 11}


def typed(values):
    return [(type(v), v) for v in values]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(list(VIEW_STORAGES)), st.integers(1, 7), st.integers(1, 7), st.data())
def test_chained_submatrix_views_read_as_the_dense_ix(storage, n, m, data):
    """A matrix in compressed-column form, its cells not ordered by row
    inside a column, through one to three `submatrix`
    calls (permutations, subsets, negative and empty index lists, and a
    repeated index, which builds the dense array): every scalar read of a
    view, before its dense array exists, and then that array, equal np.ix_
    of the dense array; the source stays in compressed-column form."""
    import numpy as np

    field = VIEW_STORAGES[storage]
    entry = st.integers(-(2 ** 40), 2 ** 40)
    if storage == "Q object":
        entry = st.builds(Fraction, entry, st.integers(1, 9))
    rows = [[data.draw(st.one_of(st.just(0), entry)) for _ in range(m)] for _ in range(n)]
    if storage == "Q object":  # one entry off the integers keeps the array object
        rows = [[Fraction(v) for v in row] for row in rows]
        rows[0][0] = Fraction(1, 3)
    dense = ExactMatrix(rows, field).array
    assert dense.dtype == (object if storage.endswith("object") else np.int64)
    zero = Fraction(0) if storage == "Q object" else 0
    cells = [(i, j) for j in range(m)
             for i in data.draw(st.permutations(range(n))) if dense[i, j] != 0]
    row_idx = np.array([i for i, _ in cells], dtype=np.intp)
    col_idx = np.array([j for _, j in cells], dtype=np.intp)
    col_start = np.searchsorted(col_idx, np.arange(m + 1))
    view = source = ExactMatrix.from_csc((n, m), row_idx, col_idx, col_start,
                                         dense[row_idx, col_idx], field)
    want, densified = dense, False
    for _ in range(data.draw(st.integers(1, 3))):
        picks = []
        for size in want.shape:
            pick = data.draw(st.lists(st.integers(0, size - 1), unique=True) if size else
                             st.just([]))
            pick = [i - size if data.draw(st.booleans()) else i for i in pick]
            picks.append(pick)
        repeat = data.draw(st.booleans()) and any(picks)
        if repeat:
            axis = 0 if picks[0] else 1
            picks[axis] = picks[axis] + picks[axis][:1]
        view, want = view.submatrix(*picks), want[np.ix_(*picks)]
        densified = densified or repeat
        assert (view.nrows, view.ncols) == want.shape
        assert (view._array is None) == (not densified)
        grid = [(i, j) for i in range(view.nrows) for j in range(view.ncols)]
        assert typed(view[i, j] for i, j in grid) == \
            typed(zero if v == 0 else v for v in want.ravel().tolist())
        assert typed(view[i - view.nrows, j] for i, j in grid) == typed(view[i, j] for i, j in grid)
    assert view.array.dtype == want.dtype
    assert [typed(row) for row in view.rows] == [typed(row) for row in want.tolist()]
    assert source._array is None or densified
    assert source.rows == dense.tolist()


@pytest.fixture(scope="module")
def kronecker_systems():
    """A planted system with f0 (det 0 over Q) and a random one for every
    small type, with their assembled matrices."""
    systems = []
    for t in system_types(max_dim=3, max_mu=100):
        rng = random.Random(f"kronecker {t}")
        alpha = ProjectiveSolution(*(tuple(rng.randint(-3, 3) or 1 for _ in range(n + 1))
                                     for n in t.dims))
        planted = core.planted_root_system(t, alpha, rng, include_f0=True)
        random_system = core.random_system(t, rng).with_f0(solver.choose_f0_and_theta(t, rng)[0])
        matrix = koszul.assemble_delta1(t)
        systems += [(matrix, planted), (matrix, random_system)]
    return systems


@pytest.mark.parametrize("moduli", [(1_000_003,), (23, 29, 31), (width_bound_prime(2),),
                                    (2 ** 31 - 1,)], ids=["p", "small", "width2", "int64"])
def test_det_folding_kronecker_classes_equals_the_plain_elimination(moduli, kronecker_systems,
                                                                    monkeypatch):
    """det over F_p of a specialization, whose Kronecker classes are
    folded away first, equals the plain elimination of the same matrix
    without them. At 23, 29 and 31 some copy block is rank-deficient and
    its class is left to the elimination; at a prime with panels of two
    columns the fold's products run in chunks; at 2^31 - 1 the matrix
    stays int64 and the classes go unused."""
    results = {"_fold": [], "_row_reduce": []}
    for name, calls in results.items():
        original = getattr(exactlinalg, name)
        monkeypatch.setattr(exactlinalg, name, lambda *args, original=original, calls=calls:
                            calls.append(original(*args)) or calls[-1])
    int64 = moduli == (2 ** 31 - 1,)
    assert exactlinalg._panel_width(width_bound_prime(2)) == 2
    for p in moduli:
        for matrix, system in kronecker_systems:
            spec = koszul.specialize(matrix, system, p)
            n = spec.nrows
            plain = spec.submatrix(range(n), range(n))
            assert len(spec._fold_plan()) == len(matrix.kronecker_classes) and plain._fold_plan() == ()
            folds = len(results["_fold"])
            assert exactlinalg.det(spec) == exactlinalg.det(plain)
            assert len(results["_fold"]) == folds + (0 if int64 else len(spec._fold_plan()))
    folded = [value is not None for value in results["_fold"]]
    assert any(folded) != int64
    assert (None in results["_row_reduce"]) == (moduli == (23, 29, 31))  # a rank-deficient K


def test_det_folding_kronecker_classes_at_mu_2450():
    """The random (6,4,2,5,7) system over F_1000003: the L04 class (K is
    105 x 147) and the L01 class (5 x 35, seven copies) fold, the L02
    class (63 x 49), taller than wide, is not emitted, and the det equals
    the plain elimination's."""
    t = SystemType(6, 4, 2, 5, 7)
    rng = random.Random(2450)
    f0, _ = solver.choose_f0_and_theta(t, rng)
    spec = koszul.specialize(koszul.assemble_delta1(t), core.random_system(t, rng).with_f0(f0),
                             1_000_003)
    assert [(rows.shape, cols.shape) for rows, cols, _, _ in spec._fold_plan()] == \
        [((15, 105), (15, 147)), ((7, 5), (7, 35))]
    folds = []
    real_fold = exactlinalg._fold
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactlinalg, "_fold", lambda *args: folds.append(real_fold(*args)) or folds[-1])
        value = exactlinalg.det(spec)
    assert len(folds) == 2 and None not in folds
    plain = spec.submatrix(range(2450), range(2450))
    assert value == exactlinalg.det(plain) != 0


def test_fold_gathers_only_the_outside_columns_its_rows_can_meet(kronecker_systems, monkeypatch):
    """The fold plan (`fold_plan`) finds from the cells, before
    any dense array, the columns outside each class that its rows can
    meet once the classes before it fold: none for the L04 and L03
    classes, whose rows meet only the L12 columns, and the L01 class,
    whose rows meet only the L11 columns and no fold's fill, so such a
    fold gathers nothing outside and runs no product there (one
    `_minus_product` at most, the in-class one: a row reduction takes
    none); for the L02 class every column where its rows hold a nonzero
    when it folds, the fill of the L12 class's fold included. Every det,
    over F_p and over Q, is the class-free copy's."""
    import numpy as np

    folds, products = [], []
    real_fold, real_product = exactlinalg._fold, exactlinalg._minus_product

    def fold(a, plan, live, p, inverse):
        rows, cols, _, outside = plan
        met = live[1] & a[rows.ravel()].any(axis=0)
        met[cols] = False
        assert set(np.flatnonzero(met)) <= set(outside.tolist())
        before = len(products)
        result = real_fold(a, plan, live, p, inverse)
        folds.append((rows, outside.size, len(products) - before))
        return result

    monkeypatch.setattr(exactlinalg, "_fold", fold)
    monkeypatch.setattr(exactlinalg, "_minus_product",
                        lambda *args: products.append(1) or real_product(*args))
    closed_folds = {"L04": 0, "L03": 0, "L01": 0}
    for field in (1_000_003, None):
        for matrix, system in kronecker_systems:
            spec = koszul.specialize(matrix, system, field)
            n = spec.nrows
            folds.clear()
            assert exactlinalg.det(spec) == exactlinalg.det(spec.submatrix(range(n), range(n)))
            blocks = koszul.layout(matrix.type)[0]
            for rows, outside, calls in folds:
                tag = next(tag for tag, block in blocks.items()
                           if block.first <= rows.min() < block.first + block.size)
                if tag != "L02":
                    assert outside == 0 and calls <= 1
                    closed_folds[tag] += 1
    assert all(closed_folds.values())


def with_classes(rows, field, classes):
    """The square matrix of `rows` in compressed-column form, carrying the
    Kronecker classes `classes`, pairs of nested lists (R, C)."""
    import numpy as np

    n = len(rows)
    cells = [(i, j) for j in range(n) for i in range(n) if rows[i][j]]
    row_idx, col_idx = (np.array(index, dtype=np.intp) for index in zip(*cells))
    values = ExactMatrix([[rows[i][j] for i, j in cells]], field).array[0]
    return ExactMatrix.from_csc((n, n), row_idx, col_idx, np.searchsorted(col_idx, np.arange(n + 1)),
                                values, field, [(np.array(r), np.array(c)) for r, c in classes])


def placed_inverse(test):
    """a^{-1} mod q from the zero test's (residues, W^{-1}, rows, cols),
    W = a[rows][:, cols]: W^{-1}'s rows placed at cols and its columns at
    rows."""
    import numpy as np

    _, inverse, rows, cols = test
    placed = np.empty_like(inverse)
    placed[np.ix_(cols, rows)] = inverse
    return placed


def test_a_fold_reaches_the_columns_an_earlier_fold_filled_in():
    """Class 1 (rows 0, 1, K 1 x 2) meets nothing outside its columns;
    row 2 of class 2 (rows 2..5, K 2 x 2) meets class 1's first column
    0 but not its other column 1, so the fold of class 1 fills row 2 in
    at column 1, and the fold of class 2 must take column 1 among its
    outside columns (`fold_plan`). det over F_p and over Q, and
    the zero test with its unfolded inverse, equal the class-free
    copy's."""
    import numpy as np

    n, p = 14, 1_000_003
    classes = [([[0], [1]], [[0, 1], [2, 3]]), ([[2, 3], [4, 5]], [[4, 5], [6, 7]])]
    for seed in range(20):
        rng = random.Random(seed)
        rows = [[0] * n for _ in range(n)]
        k1 = [rng.randint(1, 9), rng.randint(-9, 9)]
        k2 = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
        k2[0][0] = 10 * abs(k2[1][1]) + 1  # nonsingular
        for copy in range(2):
            rows[copy][2 * copy:2 * copy + 2] = k1
            for i in range(2):
                rows[2 + 2 * copy + i][4 + 2 * copy:6 + 2 * copy] = k2[i]
                rows[2 + 2 * copy + i][8 + rng.randrange(6)] = rng.randint(-9, 9)
        rows[2][0] = rng.randint(1, 9)
        for i in range(6, n):
            rows[i] = [rng.randint(-9, 9) for _ in range(n)]
        spec = with_classes(rows, None, classes)
        folding = spec._fold_plan()
        assert folding[0][3].tolist() == [] and 1 in folding[1][3].tolist()
        want = fraction_det(rows)
        assert exactlinalg.det(with_classes(rows, p, classes)) == want % p
        assert exactlinalg.det(spec) == want
        ints = ExactMatrix(rows).array
        got, plain = exactlinalg._zero_test(ints, folding), exactlinalg._zero_test(ints)
        assert got[0] == plain[0] and np.array_equal(placed_inverse(got), placed_inverse(plain))


SMALL_PRIMES = [q for q in range(23, 200) if exactlinalg._is_prime(q)]


def least_prime_factor(value, start=23, stop=10 ** 5):
    """The least prime q with start <= q < stop that divides value, or None."""
    return next((q for q in range(start, stop) if value % q == 0 and exactlinalg._is_prime(q)),
                None)


@pytest.mark.parametrize("primes", ["family", "small", "unlucky"])
def test_zero_test_folding_the_classes_equals_the_class_free_one(kronecker_systems, monkeypatch,
                                                                 primes):
    """On the planted (det 0) and random specializations over Q of every
    small type, `_zero_test` with the fold plan (`fold_plan`)
    gives what it gives on the class-free copy `submatrix(range(n),
    range(n))`: the same residues and the same a^{-1} modulo the last
    prime, entry for entry once each is placed in a's order
    (`placed_inverse`), or the certificate (None, None, None, None) both.
    Modulo the prime family; modulo 23, 29, 31, ... first, where some class's K
    is rank-deficient and is left to the elimination; and, for a random
    det with a prime factor q >= 23, from q first, where the residue is 0
    and the lifted certificate is not, so the test moves on. Once a class
    folds, `_lu_inverse` runs on the rest only, or on its leading block
    for the certificate: a row reduction (`_row_reduce`) takes no
    `_lu_inverse`."""
    import numpy as np

    real_prime, real_fold_eliminate = exactlinalg._prime, exactlinalg._fold_eliminate
    real_inverse, real_row_reduce = exactlinalg._lu_inverse, exactlinalg._row_reduce
    first, events, deficient = [], [], []
    monkeypatch.setattr(exactlinalg, "_prime", lambda k, i: first[i] if i < len(first) else
                        real_prime(k, i - len(first)))

    def fold_eliminate(a, plan, p, *rest):
        folded = real_fold_eliminate(a, plan, p, *rest)
        events.append((len(a), len(folded.lu), bool(folded.folds)))
        return folded

    def row_reduce(k, p, inverse):
        reduced = real_row_reduce(k, p, inverse)
        deficient.append(reduced is None)
        return reduced

    monkeypatch.setattr(exactlinalg, "_fold_eliminate", fold_eliminate)
    monkeypatch.setattr(exactlinalg, "_row_reduce", row_reduce)
    monkeypatch.setattr(exactlinalg, "_lu_inverse", lambda lu, *args:
                        events.append(len(lu)) or real_inverse(lu, *args))
    unlucky = folded_any = 0
    for matrix, system in kronecker_systems:
        spec = koszul.specialize(matrix, system)
        n = spec.nrows
        ints = exactlinalg._int_rows(spec.array)[0]
        plain = exactlinalg._int_rows(spec.submatrix(range(n), range(n)).array)[0]
        assert np.array_equal(ints, plain)
        classes = exactlinalg.fold_plan(matrix.size, matrix.row_idx, matrix.col_idx,
                                        matrix.kronecker_classes)
        first[:] = SMALL_PRIMES if primes == "small" else []
        if primes == "unlucky":
            value = exactlinalg.det(spec)
            q = least_prime_factor(value) if value else 23
            if q is None:
                continue
            first[:] = [q]
        events.clear()
        got = exactlinalg._zero_test(ints, classes)
        log = events[:]
        want = exactlinalg._zero_test(plain)
        if want[0] is None:
            assert got == (None,) * 4
        else:
            assert got[0] == want[0] and np.array_equal(placed_inverse(got), placed_inverse(want))
            unlucky += primes == "unlucky" and want[0][0] == 0
        rest = None
        for event in log:
            if isinstance(event, tuple):
                rest, folded = event[1:]
                folded_any += folded
                assert folded == (event[1] < event[0])
            else:
                assert event <= rest
    assert folded_any
    if primes == "family":
        assert not any(deficient)
    elif primes == "small":
        assert any(deficient)
    else:
        assert unlucky > 20


def assert_inverse_mod(inverse, w, q):
    """inverse @ w and w @ inverse are both I mod q: int64 products of
    residues, exact since n (q - 1)^2 < 2^53."""
    import numpy as np

    x, w = inverse.astype(np.int64), np.array(w % q, dtype=np.int64)
    assert np.array_equal(x @ w % q, np.eye(len(w))) and np.array_equal(w @ x % q, np.eye(len(w)))


@pytest.mark.parametrize("primes", ["family", "unlucky"])
def test_zero_test_inverse_is_that_of_its_order(kronecker_systems, monkeypatch, primes):
    """On the planted (det 0) and random specializations over Q of every
    small type, with the fold plan (`fold_plan`) and
    without: the zero test's rows and cols are each a permutation of
    range(n), and its inverse is that of W = a[rows][:, cols] modulo the
    last prime, on both sides. Every lift takes the inverse of its own
    pivot block: each certificate, a planted det's and, for a random det
    with a prime factor q >= 23, the one modulo q first, after which the
    test moves on; and the divisor lift of det."""
    import numpy as np

    real_prime, real_lift = exactlinalg._prime, exactlinalg._lift_schur
    first, lifts = [], []
    monkeypatch.setattr(exactlinalg, "_prime", lambda k, i: first[i] if i < len(first) else
                        real_prime(k, i - len(first)))

    def lift_schur(ints, k, q, inverse):
        assert_inverse_mod(inverse, ints[:k, :k], q)
        lifts.append(q)
        return real_lift(ints, k, q, inverse)

    monkeypatch.setattr(exactlinalg, "_lift_schur", lift_schur)
    certified = moved_on = checked = 0
    for matrix, system in kronecker_systems:
        spec = koszul.specialize(matrix, system)
        n = spec.nrows
        ints = exactlinalg._int_rows(spec.array)[0]
        first.clear()
        if primes == "unlucky":
            value = exactlinalg.det(spec)
            q = least_prime_factor(value) if value else 23
            if q is None:
                continue
            first.append(q)
        for classes in (spec._fold_plan(), ()):
            residues, inverse, rows, cols = exactlinalg._zero_test(ints, classes)
            if residues is None:
                certified += 1
                continue
            assert sorted(rows) == sorted(cols) == list(range(n))
            assert_inverse_mod(inverse, ints[np.ix_(rows, cols)],
                               exactlinalg._prime(n, len(residues) - 1))
            checked += 1
            moved_on += residues[0] == 0
    assert certified and checked and lifts
    assert (moved_on > 20) == (primes == "unlucky")


def test_divisor_borders_the_zero_tests_order_with_the_vectors_of_a(kronecker_systems):
    """`_divisor`, given the zero test's W^{-1} and orders, returns the
    denominator D of -c a^{-1} b for the b and c that random.Random(n)
    draws in a's own order, as the Fraction oracle (`oracle._rref` on
    [a | b]) gives it: on the random specializations of order at most
    40, folded, and on class-free matrices that pivot, rows shuffled from
    L diag(1, ..., 1, 30030) U, whose D depends on b and c. There, on
    some input, the pair that W^{-1} meets when b and c are not indexed
    by the orders gives another D."""
    import numpy as np

    cases = []
    for matrix, system in kronecker_systems:
        spec = koszul.specialize(matrix, system)
        if spec.nrows <= 40:
            cases.append((exactlinalg._int_rows(spec.array)[0], spec._fold_plan()))
    rng = random.Random(40)
    for n in (5, 9, 12, 20, 33):
        lower = [[int(i == j) or (rng.randint(-2, 2) if j < i else 0) for j in range(n)]
                 for i in range(n)]
        upper = [[int(i == j) or (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
                 for i in range(n)]
        upper[-1] = [30030 * e for e in upper[-1]]  # 2 3 5 7 11 13
        rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*upper)] for row in lower]
        rng.shuffle(rows)
        cases.append((np.array(rows, dtype=np.int64), ()))
    folded = pivoted = differs = 0
    for ints, classes in cases:
        n = len(ints)
        residues, inverse, rows, cols = exactlinalg._zero_test(ints, classes)
        if residues is None:  # a planted det
            continue
        draw = random.Random(n)
        b = [draw.randint(-64, 64) for _ in range(n)]
        c = [draw.randint(-64, 64) for _ in range(n)]
        # W^{-1} = a^{-1}[cols][:, rows], so unindexed b and c meet a^{-1} as these
        b_off, c_off = [0] * n, [0] * n
        for i, (row, col) in enumerate(zip(rows, cols)):
            b_off[row], c_off[col] = b[i], c[i]
        echelon, pivots = oracle._rref(ExactMatrix([row + [e, f] for row, e, f
                                                    in zip(ints.tolist(), b, b_off)]))
        assert pivots == list(range(n))
        want, off = (Fraction(-sum(e * row[j] for e, row in zip(vector, echelon))).denominator
                     for j, vector in ((n, c), (n + 1, c_off)))
        q = exactlinalg._prime(n, len(residues) - 1)
        assert exactlinalg._divisor(ints, q, inverse, rows, cols) == want
        folded += bool(classes) and list(cols) != list(range(n))
        pivoted += not classes and list(rows) != list(range(n))
        differs += want != off
    assert folded > 5 and pivoted and differs


@pytest.mark.parametrize("singular", [True, False])
def test_zero_test_with_folds_and_no_pivot_in_the_rests_first_column(monkeypatch, singular):
    """One class, rows 0 and 1 with K = [1, k] on the columns 0, 1 and 2,
    3, and a rest whose first column, column 1, is k times column 0 plus
    multiples of 23: modulo 23 the fold leaves that column 0 in the rest,
    so s = 0, no `_lu_inverse` runs, and the certificate is lifted over
    the fold's pivot block alone, `_unfold` of an empty rest. With the
    multiples all 0, det = 0 and the certificate is 0; otherwise it is
    not, and the test moves on to the prime family, where the rest has
    every pivot and the inverse is that of its order."""
    import numpy as np

    n = 7
    rng = random.Random(23)
    k = rng.randint(2, 9)
    rows = [[0] * n for _ in range(n)]
    rows[0][:2] = rows[1][2:4] = [1, k]
    for i in range(2, n):
        rows[i] = [rng.randint(-9, 9) for _ in range(n)]
        rows[i][1] = k * rows[i][0] + 23 * (0 if singular else i - 4)
    want = fraction_det(rows)
    assert (want == 0) == singular
    spec = with_classes(rows, None, [([[0], [1]], [[0, 1], [2, 3]])])
    ints = spec.array
    real_prime, real_lift = exactlinalg._prime, exactlinalg._lift_schur
    monkeypatch.setattr(exactlinalg, "_prime", lambda order, i: 23 if i == 0 else
                        real_prime(order, i - 1))
    inverses, lifts = spying_inverses(monkeypatch), []
    monkeypatch.setattr(exactlinalg, "_lift_schur", lambda a, split, q, inverse:
                        lifts.append((split, q)) or real_lift(a, split, q, inverse))
    residues, inverse, order_rows, order_cols = exactlinalg._zero_test(
        ints, spec._fold_plan())
    assert lifts == [(2, 23)]
    if singular:
        assert residues is None and inverses == []
    else:
        q = real_prime(n, 0)
        assert residues == [0, want % q] and inverses == [(n - 2, q)]
        assert_inverse_mod(inverse, ints[np.ix_(order_rows, order_cols)], q)


def test_permutation_parity_counts_inversions():
    import numpy as np

    rng = random.Random(5)
    for n in (*range(8), 33, 100):
        perm = list(range(n))
        rng.shuffle(perm)
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        assert exactlinalg._parity(np.array(perm)) == inversions % 2


def rank_and_det_mod(rows, p):
    """(rank, det when square) of a list of rows of ints mod p, by Gaussian
    elimination on Python ints."""
    rows, rank, value = [[e % p for e in row] for row in rows], 0, 1
    for c in range(len(rows[0]) if rows else 0):
        lead = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if lead is None:
            value = 0
            continue
        if lead != rank:
            rows[rank], rows[lead] = rows[lead], rows[rank]
            value = -value
        value = value * rows[rank][c] % p
        inverse = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inverse % p
            rows[i] = [(e - f * g) % p for e, g in zip(rows[i], rows[rank])]
        rank += 1
    return rank, value % p


def assert_row_reduced(k, p, inverse=True):
    """`_row_reduce` of the r x w list of ints k: None exactly when k has
    rank below r mod p (Python ints); otherwise r distinct pivot columns
    and the other columns, together every column once, det K_piv against
    Python ints, K_piv (K_piv^{-1} K_oth) = K_oth and, with `inverse`,
    K_piv^{-1} K_piv = I (None without), all mod p, by int64 products,
    exact while r (p - 1)^2 < 2^63. Returns the pivot columns, or None."""
    import numpy as np

    r, w = len(k), len(k[0])
    got = exactlinalg._row_reduce(np.array(k, dtype=np.float64) % p, p, inverse)
    if rank_and_det_mod(k, p)[0] < r:
        assert got is None
        return None
    pivots, value, others, echelon, x = got
    pivots, others = pivots.tolist(), others.tolist()
    assert sorted(pivots + others) == list(range(w)) and len(pivots) == r
    a = np.array(k, dtype=np.int64) % p
    kpiv, koth = a[:, pivots], a[:, others]
    assert value == rank_and_det_mod(kpiv.tolist(), p)[1] != 0
    for got in (echelon, x) if inverse else (echelon,):
        assert ((0 <= got) & (got < p) & (got == np.round(got))).all()
    assert np.array_equal(kpiv @ echelon.astype(np.int64) % p, koth)
    if inverse:
        assert np.array_equal(x.astype(np.int64) @ kpiv % p, np.eye(r))
    else:
        assert x is None
    return pivots


def row_reduce_cases(rng, p, r, w, kind):
    """An r x w list of residues mod p, about 60% nonzero: random, with
    its last row a copy of the first (rank below r when r > 1), or, when w > r, with
    column 0 repeated in column 1, whose own column moves past r, so that
    K's first r columns are dependent."""
    k = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(w)] for _ in range(r)]
    if kind == "repeated row":
        k[-1] = k[0][:]
    if kind == "dependent columns" and w > r:
        for row in k:
            row[1], row[r] = row[0], row[1]
    return k


def test_row_reduce_matches_python_ints():
    """Pivot columns, det K_piv, K_piv^{-1} K_oth and K_piv^{-1} of wide
    blocks K (`assert_row_reduced`) for every r from 1 to 2 b + 1, b =
    `_panel_width(p)`: one panel, exactly one full panel, just past one
    and several, so that the right substitution runs on one or more
    panels, at p = 1000003 (b = 32) and at a prime whose panels are two
    columns wide. The kinds of K take turns: random, rank below r (None),
    and K's first r columns dependent, so that the pivot search passes
    them. Without K_piv^{-1} the pivots, det and K_piv^{-1} K_oth are
    the same. At 5 and 23, small blocks, often rank-deficient."""
    import numpy as np

    rng = random.Random(11)
    kinds = ("random", "repeated row", "dependent columns")
    passed = set()
    for p in (1_000_003, width_bound_prime(2)):
        for r in range(1, 2 * exactlinalg._panel_width(p) + 2):
            kind = kinds[r % 3]
            k = row_reduce_cases(rng, p, r, r + rng.randrange(1, 9), kind)
            pivots = assert_row_reduced(k, p)
            assert (pivots is None) == (kind == "repeated row" and r > 1)
            if pivots is not None:
                with_inverse = exactlinalg._row_reduce(np.array(k, dtype=np.float64), p, True)
                without = exactlinalg._row_reduce(np.array(k, dtype=np.float64), p, False)
                assert all(np.array_equal(a, b) for a, b in zip(with_inverse[:4], without[:4]))
                assert assert_row_reduced(k, p, inverse=False) == pivots
            if kind == "dependent columns":
                assert sorted(pivots) != list(range(r))
                passed.add((p, r > exactlinalg._panel_width(p)))
    assert len(passed) == 4
    for p in (5, 23):
        for r, w in ((1, 1), (3, 3), (4, 9), (12, 20)):
            for kind in kinds:
                assert_row_reduced(row_reduce_cases(rng, p, r, w, kind), p)


def resultant_systems(ty, seed=1):
    """The planted and the random system of the `resultant` workload's op
    for the type at the seed, drawn as it draws them."""
    t = SystemType(*ty)
    rng = random.Random(f"{seed}:resultant:{ty}")
    point = ProjectiveSolution(*(tuple([1] + [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)])
                                 for n in t.dims))
    planted = core.planted_root_system(t, point, rng, include_f0=True)
    f0 = solver.choose_f0_and_theta(t, rng)[0]
    return planted, core.random_system(t, rng).with_f0(f0)


@pytest.mark.parametrize("ty", [(10, 1, 1, 10, 2), (6, 3, 3, 6, 6)])
def test_row_reduce_passes_the_dependent_columns_of_the_l04_k(ty):
    """The L04 class of `core.random_system(t, 1)` for (10,1,1,10,2) and
    (6,3,3,6,6) over F_1000003: K (2 x 22 and 60 x 140, one copy of the
    L04 rows against one copy of the L12 columns, by dual y monomial) has
    its first r columns dependent, and `_row_reduce` still finds r pivot
    columns (`assert_row_reduced`)."""
    import numpy as np

    t, p = SystemType(*ty), 1_000_003
    system = core.random_system(t, 1).with_f0(solver.choose_f0_and_theta(t, 1)[0])
    spec = koszul.specialize(koszul.assemble_delta1(t), system, p)
    copies = []
    for block in (koszul.layout(t)[0]["L04"], koszul.layout(t)[1]["L12"]):
        shape = [len(block.isets)] + [len(core.monomial_basis(n, d))
                                      for n, d in zip(t.dims, block.degrees)]
        index = np.arange(block.first, block.first + block.size).reshape(shape)
        copies.append(index[:, :, 0, :].ravel())  # (index set, dx, dz) at the first dy
    k = spec.submatrix(*copies).array.tolist()
    r = len(k)
    assert (r, len(k[0])) == {(10, 1, 1, 10, 2): (2, 22), (6, 3, 3, 6, 6): (60, 140)}[ty]
    assert rank_and_det_mod([row[:r] for row in k], p)[0] < r
    assert sorted(assert_row_reduced(k, p)) != list(range(r))


# the det over F_p types of the `resultant` workload
RESULTANT_TYPES = [(2, 2, 2, 3, 3), (3, 3, 1, 4, 3), (3, 2, 2, 4, 3), (10, 1, 1, 10, 2),
                   (2, 6, 4, 7, 5)]


@pytest.mark.parametrize("ty", RESULTANT_TYPES)
def test_every_emitted_class_folds_on_the_resultant_systems(ty, monkeypatch):
    """On the seed-1 `resultant` systems, planted and random, over
    F_1000003, every class that assembly emits folds: `_fold` runs once
    per class and never returns None."""
    results = []
    real_fold = exactlinalg._fold
    monkeypatch.setattr(exactlinalg, "_fold", lambda *args: results.append(real_fold(*args))
                        or results[-1])
    matrix = koszul.assemble_delta1(SystemType(*ty))
    assert matrix.kronecker_classes
    for system in resultant_systems(ty):
        results.clear()
        exactlinalg.det(koszul.specialize(matrix, system, 1_000_003))
        assert len(results) == len(matrix.kronecker_classes) and None not in results


def test_det_over_fp_never_inverts_and_the_zero_test_gets_every_k_inverse(monkeypatch):
    """No det over F_1000003 of the seed-1 `resultant` systems, planted
    and random, calls `_lu_inverse`: `_row_reduce` gives K_piv^{-1} K_oth
    by its right substitution, and K_piv^{-1} only for a fold whose rows
    meet live outside columns. The zero test of det over Q on the same
    systems still gets K_piv^{-1} for every fold of every class, the
    inverse mod q of the block of the fold's first copy of rows and
    pivot columns, which `_unfold` reads."""
    import numpy as np

    calls, unfolded = [], []
    real_lu_inverse, real_unfold = exactlinalg._lu_inverse, exactlinalg._unfold
    monkeypatch.setattr(exactlinalg, "_lu_inverse",
                        lambda *args: calls.append(1) or real_lu_inverse(*args))

    def unfold(a, folds, rows, cols, inverse, q):
        for fold_rows, fold_cols, k_inverse in folds:
            r = len(k_inverse)
            k = a[np.ix_(fold_rows[:r], fold_cols[:r])].astype(np.int64)
            assert np.array_equal(k_inverse.astype(np.int64) @ k % q, np.eye(r))
        unfolded.append(len(folds))
        return real_unfold(a, folds, rows, cols, inverse, q)

    monkeypatch.setattr(exactlinalg, "_unfold", unfold)
    for ty in RESULTANT_TYPES:
        matrix, systems = koszul.assemble_delta1(SystemType(*ty)), resultant_systems(ty)
        calls.clear()  # drawing f0 may take a det over Q
        for system in systems:
            exactlinalg.det(koszul.specialize(matrix, system, 1_000_003))
        assert not calls
        if ty[:3] in ((2, 2, 2), (3, 3, 1), (3, 2, 2)):  # the workload's det over Q
            for system in systems:
                unfolded.clear()
                exactlinalg.det(koszul.specialize(matrix, system))
                assert unfolded and set(unfolded) == {len(matrix.kronecker_classes)}


def assert_plan_covers(a, fold, live):
    """`fold_plan`'s entry (R, C, near, outside) of the class that `_fold`
    is about to fold holds what a dense scan of the array a finds after
    the folds before it: every live row outside R with a nonzero in a
    column of C among the rows `near`, and every live column outside C
    where a row of R has a nonzero among the columns `outside`. The scan
    runs on a few hundred rows at a time. Returns what it found, the rows
    and the columns."""
    import numpy as np

    rows, cols, near, outside = fold
    n = len(a)
    scanned = live[0].copy()
    scanned[rows] = False
    meets, met = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    for start in range(0, n, 256):
        meets[start:start + 256] = a[start:start + 256, cols.ravel()].any(axis=1)
    for chunk in np.array_split(rows.ravel(), -(-rows.size // 256)):
        met |= a[chunk].any(axis=0)
    met &= live[1]
    met[cols] = False
    meets, met = (set(np.flatnonzero(found).tolist()) for found in (meets & scanned, met))
    assert meets <= set(near.tolist()) and met <= set(outside.tolist())
    return meets, met


class _FoldsDone(Exception):
    """Stops `_fold_eliminate` once its last class has folded."""


@pytest.mark.parametrize("ty", [(t.nx, t.ny, t.nz, t.r, t.s) for t in system_types(max_dim=3)]
                         + [(2, 6, 4, 7, 5), (10, 1, 1, 10, 2), (5, 5, 2, 6, 6), (6, 4, 2, 5, 7),
                            (4, 4, 4, 6, 6), (5, 5, 2, 9, 3), (6, 3, 3, 6, 6)])
def test_fold_plan_covers_what_each_fold_touches(ty, monkeypatch):
    """For every emitted class of the types with every dimension up to 3
    and of the seven Table-1 types, the fold plan holds every row and
    column that a dense scan finds before the class folds, the fill of
    the folds before it included (`assert_plan_covers`): on the random
    system of seed 1 over F_1000003, as det runs it, and modulo the zero
    test's first prime _prime(mu, 0), with K_piv^{-1} formed, as the
    zero test runs it. The elimination of the rest is skipped."""
    import numpy as np

    t = SystemType(*ty)
    matrix = koszul.assemble_delta1(t)
    plan = exactlinalg.fold_plan(matrix.size, matrix.row_idx, matrix.col_idx,
                                 matrix.kronecker_classes)
    system = core.random_system(t, 1).with_f0(solver.choose_f0_and_theta(t, 1)[0])
    real_fold, seen = exactlinalg._fold, []

    def fold(a, entry, live, p, inverse):
        assert_plan_covers(a, entry, live)
        folded = real_fold(a, entry, live, p, inverse)
        seen.append(folded is not None)
        if len(seen) == len(plan):
            raise _FoldsDone
        return folded

    monkeypatch.setattr(exactlinalg, "_fold", fold)
    for p, unfold in ((1_000_003, False), (exactlinalg._prime(matrix.size, 0), True)):
        seen.clear()
        try:
            exactlinalg._fold_eliminate(koszul.specialize(matrix, system, p)._dense(np.float64),
                                        plan, p, unfold)
        except _FoldsDone:
            pass
        assert seen == [True] * len(matrix.kronecker_classes)


def test_fold_plan_covers_the_fill_of_the_fold_before(monkeypatch):
    """On random 12 x 12 matrices with two classes, each of two copies of
    a 1 x 2 K, class 1 on rows 0, 1 and columns 0..3, class 2 on rows 2,
    3 and columns 4..7, and random cells elsewhere, the first class's
    rows among them: its fold writes into the rows that meet its pivot
    columns, over its other columns and the columns where its rows have
    cells, so a row can come to meet class 2 (a row of the plan) and a
    row of class 2 a column (an outside column of the plan) that no cell
    of it holds. The plan still covers every fold (`assert_plan_covers`),
    over F_1000003 and modulo _prime(12, 0) with K_piv^{-1} formed, and
    both kinds of fill occur among the draws."""
    import numpy as np

    classes = [([[0], [1]], [[0, 1], [2, 3]]), ([[2], [3]], [[4, 5], [6, 7]])]
    n, rng, fill = 12, random.Random(32), {"rows": 0, "columns": 0}
    real_fold, found = exactlinalg._fold, []
    monkeypatch.setattr(exactlinalg, "_fold", lambda a, entry, live, p, inverse: (
        found.append(assert_plan_covers(a, entry, live)), real_fold(a, entry, live, p, inverse))[1])
    for _ in range(40):
        rows = [[rng.randint(1, 9) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]
        for class_rows, class_cols in classes:
            k = [rng.randint(1, 9), rng.randint(1, 9)]
            for j, (row,) in enumerate(class_rows):
                for jj, cols in enumerate(class_cols):
                    for col, entry in zip(cols, k):
                        rows[row][col] = entry if j == jj else 0
        cells = {(i, j) for i in range(n) for j in range(n) if rows[i][j]}
        for p, unfold in ((1_000_003, False), (exactlinalg._prime(n, 0), True)):
            m = with_classes(rows, p, classes)
            found.clear()
            exactlinalg._fold_eliminate(m._dense(np.float64), m._fold_plan(), p, unfold)
            (class_rows, class_cols), (meets, met) = classes[1], found[1]
            fill["rows"] += any(not any((i, col) in cells for cols in class_cols for col in cols)
                                for i in meets)
            fill["columns"] += any((row, col) not in cells for (row,) in class_rows for col in met)
    assert fill["rows"] and fill["columns"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([(t.nx, t.ny, t.nz, t.r, t.s) for t in system_types(max_dim=3, max_mu=100)]),
       st.sampled_from([23, 29, 31, 1_000_003, None]), st.integers(0, 2 ** 32), st.booleans())
def test_det_with_the_classes_equals_the_class_free_det(ty, field, seed, planted):
    """det of a specialization that carries its Kronecker classes equals
    det of the class-free copy `submatrix(range(n), range(n))`, over F_p
    for small p, where a K may be rank-deficient, and for p = 1000003,
    and over Q; on planted systems (det 0) and random ones."""
    t = SystemType(*ty)
    rng = random.Random(seed)
    if planted:
        alpha = ProjectiveSolution(*(tuple(rng.randint(-3, 3) or 1 for _ in range(n + 1))
                                     for n in t.dims))
        system = core.planted_root_system(t, alpha, rng, include_f0=True)
    else:
        system = core.random_system(t, rng).with_f0(solver.choose_f0_and_theta(t, rng)[0])
    spec = koszul.specialize(koszul.assemble_delta1(t), system, field)
    n = spec.nrows
    value = exactlinalg.det(spec)
    assert value == exactlinalg.det(spec.submatrix(range(n), range(n)))
    assert value == 0 or not planted
