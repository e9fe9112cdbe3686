"""Exact determinants, solves, Schur complements, and the invertibility
criterion for the leading block."""

import random
from fractions import Fraction
from math import prod

import pytest

from bikoszul import core, exactlinalg, koszul, solver
from bikoszul.core import ProjectiveSolution, SystemType
from bikoszul.exactlinalg import ExactMatrix, SingularMatrixError

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
        prod = exactlinalg.matmul(a, b)
        assert exactlinalg.det(prod) == exactlinalg.det(a) * exactlinalg.det(b) % p


def test_solve_roundtrip():
    rng = random.Random(7)
    eye = exactlinalg.identity(3)
    b = ExactMatrix([[1], [2], [3]])
    assert exactlinalg.solve(eye, b).rows == b.rows
    for _ in range(5):
        while True:
            a = ExactMatrix([[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)])
            if exactlinalg.det(a) != 0:
                break
        rhs = ExactMatrix([[Fraction(rng.randint(-5, 5)) for _ in range(2)] for _ in range(4)])
        x = exactlinalg.solve(a, rhs)
        assert exactlinalg.matmul(a, x).rows == rhs.rows
    with pytest.raises(SingularMatrixError):
        exactlinalg.solve(ExactMatrix([[1, 1], [1, 1]]), ExactMatrix([[1], [1]]))


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


@pytest.mark.parametrize("p", [None, 101])
def test_solve_matches_cramer(p):
    rng = random.Random(31 if p is None else p)
    solved = singular = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        a_rows = [[random_entry(rng) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            a_rows[0][0] = 0
        if rng.random() < 0.15 and n >= 2:
            a_rows[-1] = [2 * e for e in a_rows[0]]
        b_rows = [[random_entry(rng) for _ in range(rng.randint(1, 3))]]
        b_rows += [[random_entry(rng) for _ in b_rows[0]] for _ in range(n - 1)]
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


def test_composite_modulus_is_rejected():
    for q in (1, 4, 10, 561, 1_000_001, 3215031751):
        with pytest.raises(ValueError, match="not a prime"):
            ExactMatrix([[1]], q)
    for p in (2, 3, 101, 10007, 1_000_003, 2 ** 61 - 1):
        assert ExactMatrix([[p + 1]], p).rows == [[1]]


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


def test_rank_and_nullspace():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert exactlinalg.rank(m) == 2
    basis = exactlinalg.nullspace(m)
    assert len(basis) == 1
    for row in m.rows:
        assert sum(a * b for a, b in zip(row, basis[0])) == 0
    p = 13
    mp = ExactMatrix([[1, 2, 3], [2, 4, 6]], p)
    for vec in exactlinalg.nullspace(mp):
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
    # none of these is among the CRT primes, which lie just below 2^31
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


@pytest.mark.parametrize("skipped", [1, 2])
def test_schur_over_q_skips_primes_that_divide_det_m11(skipped):
    """det M11 a multiple of the first CRT primes: those primes find M11
    singular and are skipped; the complement is still exact."""
    primes = [exactlinalg._word_prime(i) for i in range(skipped)]
    assert primes[0] == 2 ** 31 - 1
    rng = random.Random(skipped)
    for trial in range(20):
        k, n = rng.randint(2, 4), rng.randint(1, 3)
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
