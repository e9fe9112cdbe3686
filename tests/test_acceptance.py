"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass line on success (visible with -v/-rP);
a failed assertion is the fail line. Runtime bounds are asserted with
wall-clock timing around the measured work only.
"""

import random
import time

import numpy as np

from bikoszul import core, exactlinalg, koszul, oracle, selftest, solver, weyman
from bikoszul.core import BilinearSystem, ProjectiveSolution, SystemType
from conftest import system_types

THETA = ((1, 0), (1, 0), (1, 0))
TABLE1 = [
    (SystemType(2, 6, 4, 7, 5), 630),
    (SystemType(10, 1, 1, 10, 2), 352),
    (SystemType(5, 5, 2, 9, 3), 6804),
    (SystemType(4, 4, 4, 6, 6), 4125),
    (SystemType(5, 5, 2, 6, 6), 2106),
    (SystemType(6, 3, 3, 6, 6), 7000),
    (SystemType(6, 4, 2, 5, 7), 2450),
]


def _random_f0(t, rng, bound=9):
    terms = {e: rng.randint(-bound, bound)
             for e in core.exponent_basis(t.nvars, (1, 1, 1))}
    return core.MHPoly(t.nvars, (1, 1, 1), terms)


def _passed(label):
    print(f"[{label}] PASS")


def test_c01_golden_matrix(paper_system):
    start = time.perf_counter()
    koszul.assemble_delta1.cache_clear()
    matrix = koszul.assemble_delta1(paper_system.type)
    spec = koszul.specialize(matrix, paper_system)
    got = selftest.printed_matrix_of(spec, matrix)
    elapsed = time.perf_counter() - start
    assert got == selftest.PRINTED_MATRIX  # all 100 entries, exact integers
    assert elapsed < 1.0
    _passed("criterion 1: golden 10x10 matrix reproduced exactly")


def test_c02_schur_and_eigenvalues(paper_system):
    start = time.perf_counter()
    matrix = koszul.assemble_delta1(paper_system.type)
    part = koszul.theta_partition(matrix, THETA)
    assert part.size - part.split == 2 == core.mhb(paper_system.type)
    spec = part.apply(koszul.specialize(matrix, paper_system))
    schur = exactlinalg.schur_complement(spec, part.split)
    assert schur.rows == [[5, -2], [4, -1]]
    values = solver.eigen_schur(exactlinalg.to_float(schur)).values.real
    elapsed = time.perf_counter() - start
    assert abs(values[0] - 1) < 1e-10 and abs(values[1] - 3) < 1e-10
    assert elapsed < 1.0
    _passed("criterion 2: Schur complement [[5,-2],[4,-1]], eigenvalues {3,1}")


def test_c03_solutions(paper_system):
    start = time.perf_counter()
    report = solver.solve_2bilinear(
        BilinearSystem(paper_system.type, paper_system.f), seed=0)
    elapsed = time.perf_counter() - start
    assert len(report.solutions) == 2
    assert max(report.residuals) < 1e-8
    got = sorted(
        tuple(tuple(round(complex(c).real, 6) for c in block) for block in sol.blocks)
        for sol in report.solutions
    )
    assert got == [((1.0, 1.0), (1.0, 1.0), (1.0, 1.0)),
                   ((1.0, 3.0), (1.0, 2.0), (1.0, 3.0))]
    assert elapsed < 1.0
    _passed("criterion 3: solve returns (1:1;1:1;1:1) and (1:3;1:2;1:3)")


def test_c04_eigenvector_extension(paper_system):
    matrix = koszul.assemble_delta1(paper_system.type)
    part = koszul.theta_partition(matrix, THETA)
    spec = koszul.specialize(matrix, paper_system)
    schur = exactlinalg.schur_complement(part.apply(spec), part.split)
    pairs = solver.eigen_schur(exactlinalg.to_float(schur))
    full = solver.extend_eigenvector(part, exactlinalg.to_float(part.apply(spec)), pairs.vectors)
    unit = np.flatnonzero(abs(pairs.values - 1) < 1e-9)[0]
    cidx = {lab: j for j, lab in enumerate(matrix.cols)}
    got = np.array([full[cidx[selftest.PRINTED_COLS[c]], unit] for c in selftest.COL_ORDER])
    want = np.array(selftest.PRINTED_EXTENDED_VECTOR, dtype=complex)
    factor = got[np.argmax(np.abs(want))] / want[np.argmax(np.abs(want))]
    deviation = np.max(np.abs(got - factor * want)) / np.max(np.abs(want))
    assert deviation < 1e-8
    _passed("criterion 4: extension matches (4,3,12,1,2,3,6,6,1,2) up to scale")


def test_c05_sizes():
    assert [weyman.mu(t) for t, _ in TABLE1] == [size for _, size in TABLE1]
    for t in (SystemType(10, 1, 1, 10, 2), SystemType(2, 6, 4, 7, 5)):
        matrix = koszul.assemble_delta1(t)
        assert matrix.size == weyman.mu(t)
    start = time.perf_counter()
    big = koszul.assemble_delta1(SystemType(6, 4, 2, 5, 7))
    elapsed = time.perf_counter() - start
    assert big.size == 2450
    assert elapsed < 60.0
    _passed("criterion 5: all seven matrix sizes, assembly up to 2450 "
            f"({elapsed:.1f}s)")


def test_c06_determinantal_sweep():
    start = time.perf_counter()
    types = system_types(8)
    for t in types:
        size = weyman.mu(t)
        for m in weyman.four_degree_vectors(t):
            ok, d1, d0 = weyman.is_determinantal(t, m)
            assert ok and d1 == d0 == size, (t, m)
    rng = random.Random(606)
    small = [t for t in types if t.n <= 6]
    for _ in range(200):
        t = rng.choice(small)
        m = tuple(rng.randint(-4, 4) for _ in range(3))
        table = weyman.term_table(t, m)
        dual_table = weyman.term_table(t, weyman.dual_vector(t, m))
        for v in range(-t.n - 1, t.n + 2):
            assert table.dim_at(v) == dual_table.dim_at(1 - v)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(f"criterion 6: determinantal sweep n<=8 and 200 duality pairs ({elapsed:.1f}s)")


def test_c07_resultant_vanishing():
    start = time.perf_counter()
    p = 10007
    for t in (SystemType(1, 1, 1, 2, 1), SystemType(2, 1, 1, 2, 2)):
        matrix = koszul.assemble_delta1(t)
        rng = random.Random(t.n)
        for seed in range(50):
            alpha = ProjectiveSolution(
                *[tuple(rng.randint(1, 9) for _ in range(nv)) for nv in t.nvars])
            planted = core.planted_root_system(t, alpha, seed, include_f0=True)
            assert exactlinalg.det(koszul.specialize(matrix, planted, p)) == 0
        nonzero = 0
        for seed in range(50):
            sys_ = core.random_system(t, rng).with_f0(_random_f0(t, rng))
            nonzero += exactlinalg.det(koszul.specialize(matrix, sys_, p)) != 0
        assert nonzero >= 48
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(f"criterion 7: planted roots kill det, random systems do not ({elapsed:.1f}s)")


def test_c08_degree_homogeneity():
    p = 10007
    for t in system_types(5):
        matrix = koszul.assemble_delta1(t)
        rng = random.Random(t.n * 1000 + t.r)
        exponent = core.mhb(t)
        for _ in range(20):
            sys_ = core.random_system(t, rng).with_f0(_random_f0(t, rng))
            lam = rng.randint(2, p - 2)
            base = exactlinalg.det(koszul.specialize(matrix, sys_, p))
            scaled = sys_.with_f0(core.scale(sys_.f0, lam))
            got = exactlinalg.det(koszul.specialize(matrix, scaled, p))
            assert got == pow(lam, exponent, p) * base % p
    _passed("criterion 8: det is degree-MHB homogeneous in f0, all types n<=5")


def test_c09_appendix_lemmas():
    # contraction acts on dual tensors as evaluation: delegated identity
    from test_oracle import test_psi_dual_action_is_evaluation

    test_psi_dual_action_is_evaluation()

    # exact strand equivalence on planted instances, even and odd r
    count = 0
    for t in (SystemType(1, 1, 1, 2, 1), SystemType(1, 1, 1, 1, 2),
              SystemType(2, 1, 1, 2, 2), SystemType(1, 1, 2, 2, 2)):
        for seed in range(5):
            rng = random.Random(f"{t}:{seed}")
            alpha = ProjectiveSolution(
                *[tuple(rng.randint(1, 6) for _ in range(nv)) for nv in t.nvars])
            sys_ = core.planted_root_system(t, alpha, rng, include_f0=True)
            assert oracle.verify_rho_composition(sys_, alpha.x, alpha.y) == 0
            count += 1
    assert count == 20

    # strand kernel nonzero exactly when the linear system has a zero
    from test_oracle import test_strand_kernel_iff_common_zero

    test_strand_kernel_iff_common_zero()
    _passed("criterion 9: appendix identities exact on all instances")


def test_c10_leading_block_invertibility():
    p = 10007
    t = SystemType(1, 1, 1, 2, 1)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, THETA)
    lead = range(part.split)
    rng = random.Random(10)
    for seed in range(20):
        # root annihilating theta = x0 y0 z0: zero first x coordinate
        alpha = ProjectiveSolution((0, 1), (1, rng.randint(1, 9)), (rng.randint(1, 9), 1))
        planted = core.planted_root_system(t, alpha, seed).with_f0(_random_f0(t, rng))
        spec = part.apply(koszul.specialize(matrix, planted, p))
        assert exactlinalg.det(spec.submatrix(lead, lead)) == 0
    nonsingular = 0
    for seed in range(20):
        # wide coefficient range: small bounds hit the degenerate locus
        # (a vanishing 2x2 slice determinant) a few percent of the time
        sys_ = core.random_system(t, rng, coeff_bound=5000).with_f0(_random_f0(t, rng))
        spec = part.apply(koszul.specialize(matrix, sys_, p))
        nonsingular += exactlinalg.det(spec.submatrix(lead, lead)) != 0
    assert nonsingular >= 19
    _passed("criterion 10: leading block singular iff theta-annihilating root")


def test_c11_end_to_end_oracle_agreement(two_root_builder):
    t = SystemType(1, 1, 1, 2, 1)
    for seed in range(10):
        sys_ = core.random_system(t, seed + 400)
        report = solver.solve_2bilinear(sys_, seed=seed)
        values = report.eigenpairs.values
        assert abs(values[0] - values[1]) > 1e-7 * (1 + abs(values).max())
        assert len(report.solutions) == 2
        assert max(report.residuals) < 1e-6

    # hand-built fixtures with small integer roots: the solver's outputs,
    # reduced mod 31, must agree with exhaustive finite-field solving
    fixtures = [
        (ProjectiveSolution((1, 2), (1, -1), (1, 3)),
         ProjectiveSolution((1, -3), (1, 2), (1, 1)), 11),
        (ProjectiveSolution((1, 1), (1, 4), (1, -2)),
         ProjectiveSolution((1, -2), (1, 1), (1, 5)), 12),
        (ProjectiveSolution((1, 5), (1, 2), (1, -1)),
         ProjectiveSolution((1, -1), (1, -4), (1, 2)), 13),
    ]
    for alpha, beta, seed in fixtures:
        sys_ = two_root_builder(alpha, beta, seed)
        report = solver.solve_2bilinear(sys_, seed=seed)
        got = set()
        for sol in report.solutions:
            blocks = []
            for block in sol.normalized(1e-9).blocks:
                ints = [round(complex(c).real) for c in block]
                assert max(abs(complex(c) - v) for c, v in zip(block, ints)) < 1e-6
                blocks.append(tuple(v % 31 for v in ints))
            got.add(tuple(blocks))
        want = {(s.x, s.y, s.z) for s in oracle.ff_solve(sys_, 31)}
        assert got == want
    _passed("criterion 11: solver agrees with the exhaustive oracle")
