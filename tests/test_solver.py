"""Eigen decomposition, eigenvector extension and extraction, and the
full solving pipeline."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bikoszul import core, exactlinalg, koszul, oracle, selftest, solver
from bikoszul.core import BilinearSystem, ProjectiveSolution, SystemType
from bikoszul.exactlinalg import SingularMatrixError
from bikoszul.weyman import mu
from conftest import system_types

THETA = ((1, 0), (1, 0), (1, 0))


def column(*blocks):
    """A one-column matrix of the blocks' entries, stacked."""
    return np.array([c for block in blocks for c in block]).reshape(-1, 1)


def paper_partition(paper_system):
    matrix = koszul.assemble_delta1(paper_system.type)
    part = koszul.theta_partition(matrix, THETA)
    spec = koszul.specialize(matrix, paper_system)
    return matrix, part, spec


def test_eigen_schur_paper_values():
    pairs = solver.eigen_schur([[5, -2], [4, -1]])
    assert np.abs(pairs.values - [1, 3]).max() < 1e-10
    unit = pairs.vectors[:, 0]
    assert abs(unit[1] / unit[0] - 2) < 1e-10  # proportional to (1, 2)
    assert not pairs.clustered.any()
    ident = solver.eigen_schur(np.eye(3))
    assert ident.clustered.all()
    assert np.abs(ident.values - 1).max() < 1e-12


def test_eigen_schur_sorts_and_scales_every_vector_as_one_at_a_time():
    """Values sorted by (real, imag), vectors as columns: each column is
    numpy's eigenvector of that value scaled to unit norm, its first
    largest entry then a positive real, as each vector alone is scaled.
    A 0 x 0 matrix has no eigenpairs."""
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((6, 6))  # real: conjugate pairs share a real part
    pairs = solver.eigen_schur(matrix)
    values, vectors = np.linalg.eig(matrix.astype(complex))
    order = np.lexsort((values.imag, values.real))
    assert np.array_equal(pairs.values, values[order])
    assert pairs.vectors.shape == (6, 6) and pairs.clustered.shape == (6,)
    for got, vec in zip(pairs.vectors.T, vectors[:, order].T):
        vec = vec / np.linalg.norm(vec)
        anchor = vec[np.argmax(np.abs(vec))]
        assert np.abs(got - vec / (anchor / abs(anchor))).max() <= 1e-15
        lead = got[np.argmax(np.abs(got))]
        assert lead.imag == 0 and lead.real > 0
    empty = solver.eigen_schur(np.zeros((0, 0)))
    assert empty.values.shape == empty.clustered.shape == (0,)
    assert empty.vectors.shape == (0, 0)


@pytest.mark.parametrize("matrix", [np.ones((2, 3)), np.ones(3)], ids=["2x3", "vector"])
def test_eigen_schur_rejects_a_non_square_matrix(matrix):
    with pytest.raises(core.DomainError, match="square matrix"):
        solver.eigen_schur(matrix)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("inf"))])
def test_eigen_schur_rejects_a_non_finite_matrix(bad):
    with pytest.raises(core.DomainError, match="non-finite"):
        solver.eigen_schur([[1.0, bad], [0.0, 2.0]])


def test_extend_eigenvector_matches_printed_vector(paper_system):
    matrix, part, spec = paper_partition(paper_system)
    full = solver.extend_eigenvector(part, exactlinalg.to_float(part.apply(spec)), [[1.0], [2.0]])
    cidx = {lab: j for j, lab in enumerate(matrix.cols)}
    got = np.array([full[cidx[selftest.PRINTED_COLS[c]], 0] for c in selftest.COL_ORDER])
    want = np.array(selftest.PRINTED_EXTENDED_VECTOR, dtype=complex)
    factor = got[0] / want[0]
    assert np.max(np.abs(got - factor * want)) < 1e-8 * np.max(np.abs(want))
    zero = solver.extend_eigenvector(part, exactlinalg.to_float(part.apply(spec)), [[0.0], [0.0]])
    assert np.all(zero == 0)


def test_extended_vector_is_kernel_of_shifted_matrix(paper_system):
    # M(g) v = 0 for g = f0 - lambda theta at the eigenvalue lambda = 1
    matrix, part, spec = paper_partition(paper_system)
    t = paper_system.type
    full = solver.extend_eigenvector(part, exactlinalg.to_float(part.apply(spec)), [[1.0], [2.0]])
    g0 = core.add(paper_system.f0,
                  core.scale(core.monomial_poly(t.nvars, (1, 1, 1), THETA), -1))
    shifted = exactlinalg.to_float(koszul.specialize(matrix, paper_system.with_f0(g0)))
    residual = np.linalg.norm(shifted @ full)
    assert residual < 1e-8 * np.linalg.norm(shifted) * np.linalg.norm(full)


def test_extending_all_eigenvectors_at_once_matches_each_and_is_kernel():
    """On the mu = 81 type (2,2,2,3,3) the matrix of all eigenvectors
    extends column by column as each one-column matrix does, and each
    column is a kernel vector of the matrix specialized at f0 - lambda
    theta."""
    t = SystemType(2, 2, 2, 3, 3)
    rng = random.Random(2233)
    matrix = koszul.assemble_delta1(t)
    f0, theta = solver.choose_f0_and_theta(t, rng)
    sys_ = core.random_system(t, rng)
    part = koszul.theta_partition(matrix, theta)
    exact = part.apply(koszul.specialize(matrix, sys_.with_f0(f0)))
    assert exact.nrows == 81
    schur = exactlinalg.schur_complement(exact, part.split)
    pairs = solver.eigen_schur(exactlinalg.to_float(schur))
    assert len(pairs.values) == core.mhb(t) and not pairs.clustered.any()
    permuted = exactlinalg.to_float(exact)
    extended = solver.extend_eigenvector(part, permuted, pairs.vectors)
    assert extended.shape == (81, len(pairs.values))
    # entries are linear in the coefficients of f0, so M(f0 - lambda theta)
    # = M(f0) - lambda (M(f0 + theta) - M(f0))
    base = exactlinalg.to_float(koszul.specialize(matrix, sys_.with_f0(f0)))
    theta_poly = core.monomial_poly(t.nvars, (1, 1, 1), theta)
    shift = exactlinalg.to_float(koszul.specialize(matrix, sys_.with_f0(core.add(f0, theta_poly))))
    shift -= base
    for j, (value, full) in enumerate(zip(pairs.values, extended.T)):
        alone = solver.extend_eigenvector(part, permuted, pairs.vectors[:, [j]])[:, 0]
        assert np.linalg.norm(full - alone) <= 1e-12 * np.linalg.norm(alone)
        shifted = base - value * shift
        scale = np.linalg.norm(shifted) * np.linalg.norm(full)
        assert np.linalg.norm(shifted @ full) < 1e-8 * scale


def attempt_zero(t, seed):
    """solve_2bilinear's attempt 0 on core.random_system(t, seed), up to
    recovery: (transformed system, partition, permuted float matrix,
    eigenpairs, coordinate change, original system)."""
    sys_ = core.random_system(t, seed)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, solver.default_theta(t))
    rng = random.Random("0:0")
    change = core.random_coordinate_change(t, rng)
    f0, _ = solver.choose_f0_and_theta(t, rng)
    transformed = core.apply_coordinate_change(sys_, change).with_f0(f0)
    exact = part.apply(koszul.specialize(matrix, transformed))
    pairs = solver.eigen_schur(exactlinalg.to_float(
        exactlinalg.schur_complement(exact, part.split)))
    return transformed, part, exactlinalg.to_float(exact), pairs, change, sys_


BATCH_TYPES = (SystemType(1, 1, 1, 2, 1), SystemType(2, 2, 2, 3, 3), SystemType(1, 1, 0, 1, 1),
               SystemType(0, 2, 2, 2, 2), SystemType(3, 3, 1, 4, 3))


@pytest.mark.parametrize("t", BATCH_TYPES, ids=str)
def test_batched_extraction_z_solve_and_residual_equal_their_column_by_column_calls(t):
    """extract_xy, solve_z and residual on the columns of a matrix give,
    column by column, what each gives on a one-column matrix: the same x
    and y, and z and residuals to rounding (a column of a product may
    round differently alone; residuals are near 1e-15 here, so to 1e-12
    absolute)."""
    transformed, part, permuted, pairs, _, _ = attempt_zero(t, 1)
    count = len(pairs.values)
    full = solver.extend_eigenvector(part, permuted, pairs.vectors)
    ax, ay = solver.extract_xy(full, t)
    assert ax.shape == (t.nx + 1, count) and ay.shape == (t.ny + 1, count)
    az = solver.solve_z(transformed, ax, ay)
    assert az.shape == (t.nz + 1, count)
    points = np.concatenate([ax, ay, az])
    residuals = solver.residual(transformed, points)
    assert residuals.shape == (count,) and residuals.max() < 1e-6
    for j in range(count):
        x, y = solver.extract_xy(full[:, [j]], t)
        assert np.array_equal(x, ax[:, [j]]) and np.array_equal(y, ay[:, [j]])
        z = solver.solve_z(transformed, x, y)
        assert z.shape == (t.nz + 1, 1)
        assert np.allclose(z, az[:, [j]], rtol=0, atol=1e-13)
        alone = solver.residual(transformed, np.concatenate([x, y, z]))
        assert alone.shape == (1,) and abs(alone[0] - residuals[j]) <= 1e-12


def test_batched_extraction_raises_when_any_column_fails(paper_type):
    """A zero column beside good ones fails the whole batch, as the
    attempt's first failing vector did."""
    good = oracle.build_rho(paper_type, (Fraction(1), Fraction(3)), (Fraction(1), Fraction(2)),
                            [1] * len(oracle.rho_slots(paper_type)))
    vectors = np.array([[float(v), 0.0] for v in good])
    with pytest.raises(solver.ExtractionError, match="zero vector"):
        solver.extract_xy(vectors, paper_type)


@pytest.mark.parametrize("t", BATCH_TYPES, ids=str)
def test_recovery_of_all_eigenpairs_matches_the_per_solution_path(t):
    """`_recover_all` against each eigenvector recovered alone, as a
    one-column matrix, through `core.transform_point`,
    `ProjectiveSolution.normalized` and the real report rule: the same
    solutions to 1e-12 relative, real exactly when those are, and the
    same residuals to 1e-12 absolute."""
    transformed, part, permuted, pairs, change, sys_ = attempt_zero(t, 1)
    solutions, residuals = solver._recover_all(transformed, part, permuted, pairs, change, sys_)
    assert len(solutions) == len(residuals) == len(pairs.values)
    for j, (sol, res) in enumerate(zip(solutions, residuals)):
        full = solver.extend_eigenvector(part, permuted, pairs.vectors[:, [j]])
        x, y = solver.extract_xy(full, t)
        z = solver.solve_z(transformed, x, y)
        point = ProjectiveSolution(*(tuple(block[:, 0]) for block in (x, y, z)))
        back = core.transform_point(change, point).normalized(tol=1e-12)
        coords = [complex(c) for block in back.blocks for c in block]
        top = max(map(abs, coords))
        real = all(abs(c.imag) <= 1e-8 * top for c in coords)
        got = [c for block in sol.blocks for c in block]
        assert all(type(c) is (float if real else complex) for c in got)
        assert max(abs(c - w) for c, w in zip(got, coords)) <= 1e-12 * top
        want = [[c.real if real else c] for c in coords]
        assert abs(res - solver.residual(sys_, np.array(want))[0]) <= 1e-12


def test_extract_xy_from_paper_vector(paper_system):
    matrix, part, spec = paper_partition(paper_system)
    t = paper_system.type
    full = solver.extend_eigenvector(part, exactlinalg.to_float(part.apply(spec)), [[1.0], [2.0]])
    ax, ay = solver.extract_xy(full, t)
    assert abs(ax[1, 0] / ax[0, 0] - 3) < 1e-9
    assert abs(ay[1, 0] / ay[0, 0] - 2) < 1e-9


def test_extract_xy_recovers_synthetic_rho_exactly():
    # a vector that is exactly rho_alpha(lambda) gives alpha back, exactly
    for t in (SystemType(1, 1, 1, 2, 1), SystemType(2, 1, 1, 2, 2)):
        rng = random.Random(t.n)
        ax = tuple(Fraction(rng.randint(1, 7)) for _ in range(t.nx + 1))
        ay = tuple(Fraction(rng.randint(1, 7)) for _ in range(t.ny + 1))
        lam = [Fraction(rng.randint(1, 5)) for _ in oracle.rho_slots(t)]
        got_x, got_y = solver.extract_xy(column(oracle.build_rho(t, ax, ay, lam)), t)
        assert tuple(got_x[:, 0]) == tuple(c / ax[0] for c in ax)
        assert tuple(got_y[:, 0]) == tuple(c / ay[0] for c in ay)


def normalized_like_extraction(alpha):
    """alpha divided by its first entry above EXTRACT_ANCHOR_TOL times its largest."""
    top = max(abs(c) for c in alpha)
    lead = next(c for c in alpha if abs(c) > solver.EXTRACT_ANCHOR_TOL * top)
    return tuple(c / lead for c in alpha)


def test_extract_xy_reads_y_against_the_largest_entry():
    # y0 at 1e-12 of the largest y coordinate: its pure power y0^d sinks
    # below the anchor tolerance, the row's largest entry does not
    for t in (SystemType(1, 1, 1, 2, 1), SystemType(2, 2, 2, 3, 3), SystemType(10, 1, 1, 10, 2)):
        rng = random.Random(t.n)
        ax = tuple(Fraction(rng.randint(1, 7)) for _ in range(t.nx + 1))
        ay = (Fraction(7, 10 ** 12),) + tuple(Fraction(rng.choice((-7, 7))) for _ in range(t.ny))
        lam = [Fraction(rng.randint(1, 5)) for _ in oracle.rho_slots(t)]
        got_x, got_y = solver.extract_xy(column(oracle.build_rho(t, ax, ay, lam)), t)
        assert tuple(got_x[:, 0]) == normalized_like_extraction(ax)
        assert tuple(got_y[:, 0]) == normalized_like_extraction(ay)


SMALL_TYPES = system_types(max_dim=3, max_mu=100)
# r = ny leaves L11 without y; a zero dimension leaves one coordinate
SHAPES = {
    "any": lambda t: True,
    "r = ny": lambda t: t.r == t.ny,
    "ny = 0": lambda t: t.ny == 0,
    "nx = 0": lambda t: t.nx == 0,
    "nz = 0": lambda t: t.nz == 0,
}
COORDINATE = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).filter(bool).map(lambda k: Fraction(k, 10 ** 12)),
)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_extract_xy_recovers_every_exact_rho(shape, data):
    """On an exact rank-1 vector, extraction returns alpha_x and alpha_y
    exactly, each divided by its first entry above tol times its largest."""
    t = data.draw(st.sampled_from([t for t in SMALL_TYPES if SHAPES[shape](t)]))
    alphas = []
    for n_t in (t.nx, t.ny):
        alpha = data.draw(st.tuples(COORDINATE.filter(bool), *[COORDINATE] * n_t))
        assume(max(abs(c) for c in alpha) >= 1)
        alphas.append(tuple(Fraction(c) for c in alpha))
    lam = data.draw(st.lists(st.integers(-5, 5).filter(bool), min_size=len(oracle.rho_slots(t)),
                             max_size=len(oracle.rho_slots(t))))
    got_x, got_y = solver.extract_xy(column(oracle.build_rho(t, *alphas, lam)), t)
    assert tuple(got_x[:, 0]) == normalized_like_extraction(alphas[0])
    assert tuple(got_y[:, 0]) == normalized_like_extraction(alphas[1])


def test_k1_groups_index_the_k1_basis_labels():
    """rows[g, i, j] is the column labelled by index set g (L11 sets, then
    L12 sets), dx = e_i and the j-th dual-y monomial, mu past the end of
    the set's list; lifted[g] says the dual-y degree is at least 1;
    shifts[g, j, k] is the position of tau - e_a + e_k in that list, for
    tau the j-th monomial and a its first variable with tau_a >= 1."""
    for t in system_types(max_dim=3, max_mu=100):
        labels = koszul.k1_basis(t)
        position = {label: k for k, label in enumerate(labels)}
        degrees = {}  # (block, index set) -> dual-y degree, in basis order
        for e in labels:
            degrees.setdefault((e.block, e.iset), sum(e.dy))
        rows, lifted, shifts = solver._k1_groups(t)
        assert len(rows) == len(lifted) == len(shifts) == len(degrees)
        dz = (0,) * (t.nz + 1)
        for g, ((block, iset), degree) in enumerate(degrees.items()):
            dys = core.monomial_basis(t.ny, degree)
            for i, dx in enumerate(core.monomial_basis(t.nx, 1)):
                assert rows[g, i].tolist() == \
                    [position[koszul.KoszulBasisElement(block, dx, dy, dz, iset)] for dy in dys] \
                    + [mu(t)] * (rows.shape[2] - len(dys))
            assert lifted[g] == (degree >= 1)
            for j, tau in enumerate(dys if degree >= 1 else ()):
                a = next(v for v, e in enumerate(tau) if e)
                for k in range(t.ny + 1):
                    shifted = tuple(e - (v == a) + (v == k) for v, e in enumerate(tau))
                    assert dys[shifts[g, j, k]] == shifted
            assert not shifts[g, len(dys) if degree >= 1 else 0:].any()


def test_extract_xy_rejects_zero_vector(paper_type):
    with pytest.raises(solver.ExtractionError):
        solver.extract_xy(np.zeros((10, 1)), paper_type)


@pytest.mark.parametrize("shape", [(11, 2), (10,)], ids=["wrong length", "one vector"])
def test_extract_xy_rejects_anything_but_a_matrix_of_k1_columns(paper_type, shape):
    assert mu(paper_type) == 10
    with pytest.raises(core.DomainError, match="k1 basis"):
        solver.extract_xy(np.ones(shape), paper_type)


def test_extract_xy_rejects_a_vector_whose_y_blocks_vanish():
    """On (1,1,1;1,2) the first index set has dual-y degree 0. A vector
    that is 1 there and 1e-10 on every set of degree >= 1 has no anchor
    for y; at 1e-8, above EXTRACT_ANCHOR_TOL, it is read."""
    t = SystemType(1, 1, 1, 1, 2)
    rows, lifted, _ = solver._k1_groups(t)
    assert not lifted[0] and lifted[1:].all()
    vectors = np.full((mu(t), 1), 1e-10)
    vectors[rows[0][rows[0] < mu(t)]] = 1.0
    with pytest.raises(solver.ExtractionError, match="anchor coefficient too small"):
        solver.extract_xy(vectors, t)
    vectors[vectors < 1] = 1e-8
    ax, ay = solver.extract_xy(vectors, t)
    assert ax[:, 0].tolist() == [1, 1] and ay[:, 0].tolist() == [1, 1]


def test_solve_z_rejects_a_point_whose_z_forms_drop_rank(paper_system):
    """With f3 = x0 z0 the one form in z is x0 z0: at x = (1:2) it has
    rank 1 = nz and gives z = (0:1); at x = (0:1) it vanishes, and a
    batch with that column raises."""
    t = paper_system.type
    f3 = core.MHPoly(t.nvars, (1, 0, 1), {((1, 0), (0, 0), (1, 0)): 1})
    sys_ = BilinearSystem(t, paper_system.f[:2] + (f3,))
    z = solver.solve_z(sys_, np.array([[1.0], [2.0]]), np.ones((2, 1)))
    assert abs(z[0, 0]) < 1e-12 and abs(z[1, 0]) == pytest.approx(1)
    with pytest.raises(solver.ExtractionError, match="rank below nz"):
        solver.solve_z(sys_, np.array([[1.0, 0.0], [2.0, 1.0]]), np.ones((2, 2)))


def test_solve_z_cases(paper_system):
    az = solver.solve_z(paper_system, column((1.0, 3.0)), column((1.0, 2.0)))
    assert abs(az[1, 0] / az[0, 0] - 3) < 1e-8
    t0 = SystemType(1, 1, 0, 1, 1)
    sys0 = core.random_system(t0, 4)
    ones = solver.solve_z(sys0, np.ones((2, 3)), np.ones((2, 3)))
    assert ones.dtype == complex and ones.tolist() == [[1, 1, 1]]
    # planted root reproduces the planted z direction
    t = SystemType(1, 1, 1, 2, 1)
    alpha = ProjectiveSolution((1, 2), (1, 3), (2, 5))
    sys_ = core.planted_root_system(t, alpha, 11)
    az = solver.solve_z(sys_, column((1.0, 2.0)), column((1.0, 3.0)))
    assert abs(az[1, 0] / az[0, 0] - 2.5) < 1e-8


def test_residual_is_relative_to_each_polynomial_norm():
    # away from a root, so the residual is far above rounding
    t = SystemType(1, 1, 1, 2, 1)
    sys_ = core.random_system(t, 3)
    point = column((1, 2), (1, -1), (3, 1))
    base = solver.residual(sys_, point)
    assert base.shape == (1,) and base[0] > 1e-3
    for factor in (Fraction(1, 10 ** 9), Fraction(10 ** 9)):
        scaled = BilinearSystem(t, tuple(core.scale(f, factor) for f in sys_.f))
        assert solver.residual(scaled, point) == pytest.approx(base, rel=1e-12)
    zero = core.zero_poly(t.nvars, t.degree_of(1))
    worst_rest = solver.residual(BilinearSystem(t, (sys_.f[0], sys_.f[0], sys_.f[2])), point)
    assert solver.residual(BilinearSystem(t, (sys_.f[0], zero, sys_.f[2])), point) == worst_rest


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_a_non_finite_coordinate_has_an_infinite_residual(bad):
    """Such a point fails every tol, alone or as a column beside a root."""
    sys_ = core.random_system(SystemType(1, 1, 1, 2, 1), 1)
    assert solver.residual(sys_, column((1.0, bad), (1.0, 2.0), (1.0, 3.0))).tolist() == [np.inf]
    report = solver.solve_2bilinear(sys_)
    root = np.concatenate([np.array(block, dtype=complex) for block in report.solutions[0].blocks])
    broken = root.copy()
    broken[4] = bad
    residuals = solver.residual(sys_, np.column_stack([root, broken]))
    assert residuals[0] <= solver.RESIDUAL_TOL and residuals[1] == np.inf


def test_normalize_sets_each_lead_to_one_and_rejects_a_zero_row():
    # c / c rounds to 0.9999999999999999 for this c
    coords = np.array([[1e-14, complex(1 / 3, 1 / 7), 2], [0.5j, 1, 1]])
    out = solver._normalize(coords, 1e-12)
    assert out[0, 1] == 1 and out[1, 0] == 1
    assert np.allclose(out, coords / coords[[0, 1], [1, 0]][:, None])
    with pytest.raises(solver.ExtractionError):
        solver._normalize(np.array([[1.0, 2.0], [0.0, 0.0]]), 1e-12)


def test_choose_f0_and_theta():
    t = SystemType(1, 1, 1, 2, 1)
    f0a, theta_a = solver.choose_f0_and_theta(t, 5)
    f0b, theta_b = solver.choose_f0_and_theta(t, 5)
    f0c, _ = solver.choose_f0_and_theta(t, 6)
    assert f0a == f0b and theta_a == theta_b == THETA
    assert f0a != f0c
    assert f0a.coefficient(THETA) != 0


def test_paper_f0_separates_the_solutions(paper_system):
    t = paper_system.type
    theta_poly = core.monomial_poly(t.nvars, (1, 1, 1), THETA)
    alpha1 = ProjectiveSolution((1, 1), (1, 1), (1, 1))
    alpha2 = ProjectiveSolution((1, 3), (1, 2), (1, 3))
    values = {
        core.evaluate(paper_system.f0, a) / core.evaluate(theta_poly, a)
        for a in (alpha1, alpha2)
    }
    assert values == {3, 1}


def test_solve_paper_system(paper_system):
    report = solver.solve_2bilinear(BilinearSystem(paper_system.type, paper_system.f), seed=0)
    assert len(report.solutions) == 2
    assert max(report.residuals) < 1e-8
    normalized = sorted(
        tuple(tuple(round(complex(c).real, 6) for c in block) for block in sol.blocks)
        for sol in report.solutions
    )
    assert normalized == [
        ((1.0, 1.0), (1.0, 1.0), (1.0, 1.0)),
        ((1.0, 3.0), (1.0, 2.0), (1.0, 3.0)),
    ]


def test_solve_finds_planted_roots():
    t = SystemType(1, 1, 1, 2, 1)
    alpha = ProjectiveSolution((1, 2), (1, -1), (1, 3))
    for seed in range(10):
        sys_ = core.planted_root_system(t, alpha, seed)
        report = solver.solve_2bilinear(sys_, seed=seed)
        hits = [
            sol for sol, res in zip(report.solutions, report.residuals)
            if res < 1e-8 and all(
                max(abs(complex(c) - complex(w)) for c, w in zip(b, wb)) < 1e-6
                for b, wb in zip(sol.normalized(1e-9).blocks, alpha.blocks))
        ]
        assert hits, f"seed {seed} lost the planted root"


def test_solve_larger_type_counts_and_residuals():
    t = SystemType(2, 1, 1, 2, 2)
    for seed in range(3):
        sys_ = core.random_system(t, seed)
        report = solver.solve_2bilinear(sys_, seed=seed)
        assert len(report.solutions) == core.mhb(t) == 4
        assert max(report.residuals) < 1e-6


def test_eigenvalues_are_f0_over_theta_at_roots():
    t = SystemType(1, 1, 1, 2, 1)
    alpha = ProjectiveSolution((1, 2), (1, 3), (1, -2))
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, THETA)
    theta_poly = core.monomial_poly(t.nvars, (1, 1, 1), THETA)
    for seed in range(5):
        sys_ = core.planted_root_system(t, alpha, seed)
        f0, _ = solver.choose_f0_and_theta(t, seed + 100)
        spec = part.apply(koszul.specialize(matrix, sys_.with_f0(f0)))
        schur = exactlinalg.schur_complement(spec, part.split)
        pairs = solver.eigen_schur(exactlinalg.to_float(schur))
        expected = complex(core.evaluate(f0, alpha)) / complex(core.evaluate(theta_poly, alpha))
        assert np.abs(pairs.values - expected).min() < 1e-8 * (1 + abs(expected))


def test_each_eigenvalue_kills_the_determinant(two_root_builder):
    # with both roots rational, both eigenvalues are rational and the
    # shifted system has an exactly vanishing determinant
    alpha = ProjectiveSolution((1, 2), (1, -1), (1, 3))
    beta = ProjectiveSolution((1, -3), (1, 2), (1, 1))
    t = SystemType(1, 1, 1, 2, 1)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, THETA)
    theta_poly = core.monomial_poly(t.nvars, (1, 1, 1), THETA)
    for seed in range(3):
        sys_ = two_root_builder(alpha, beta, seed)
        f0, _ = solver.choose_f0_and_theta(t, seed)
        spec = part.apply(koszul.specialize(matrix, sys_.with_f0(f0)))
        schur = exactlinalg.schur_complement(spec, part.split)
        pairs = solver.eigen_schur(exactlinalg.to_float(schur))
        for value in pairs.values.tolist():
            lam = Fraction(value.real).limit_denominator(10 ** 6)
            g0 = core.add(f0, core.scale(theta_poly, -lam))
            assert exactlinalg.det(koszul.specialize(matrix, sys_.with_f0(g0))) == 0


def test_schur_complement_is_diagonalizable_for_simple_roots():
    t = SystemType(1, 1, 1, 2, 1)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, THETA)
    for seed in range(5):
        sys_ = core.random_system(t, seed)
        f0, _ = solver.choose_f0_and_theta(t, seed)
        spec = part.apply(koszul.specialize(matrix, sys_.with_f0(f0)))
        schur = exactlinalg.schur_complement(spec, part.split)
        pairs = solver.eigen_schur(exactlinalg.to_float(schur))
        assert len(pairs.values) == core.mhb(t)
        assert not pairs.clustered.any()
        assert np.linalg.cond(pairs.vectors) < 1e8


def test_extended_vector_lies_in_rho_span(two_root_builder):
    alpha = ProjectiveSolution((1, 2), (1, -1), (1, 3))
    beta = ProjectiveSolution((1, -3), (1, 2), (1, 1))
    t = SystemType(1, 1, 1, 2, 1)
    sys_ = two_root_builder(alpha, beta, 1)
    report = solver.solve_2bilinear(sys_, seed=2)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, report.theta)
    transformed = core.apply_coordinate_change(
        BilinearSystem(t, sys_.f), report.change).with_f0(report.f0)
    permuted = exactlinalg.to_float(part.apply(koszul.specialize(matrix, transformed)))
    slots = oracle.rho_slots(t)
    extended = solver.extend_eigenvector(part, permuted, report.eigenpairs.vectors)
    alpha_x, alpha_y = solver.extract_xy(extended, t)
    for full, ax, ay in zip(extended.T, alpha_x.T, alpha_y.T):
        basis = np.column_stack([
            np.array([float(v) for v in oracle.build_rho(
                t,
                [Fraction(c.real).limit_denominator(10 ** 6) for c in ax],
                [Fraction(c.real).limit_denominator(10 ** 6) for c in ay],
                [1 if i == k else 0 for i in range(len(slots))])], dtype=complex)
            for k in range(len(slots))
        ])
        fit = np.linalg.lstsq(basis, full, rcond=None)[0]
        misfit = np.linalg.norm(basis @ fit - full)
        assert misfit < 1e-6 * np.linalg.norm(full)


def test_complex_solutions_are_first_class():
    t = SystemType(1, 1, 1, 2, 1)
    sys_ = core.random_system(t, 4)  # this draw has a conjugate pair
    report = solver.solve_2bilinear(sys_, seed=4)
    assert max(report.residuals) < 1e-8
    imags = [max(abs(complex(c).imag) for b in sol.blocks for c in b)
             for sol in report.solutions]
    assert min(imags) > 1e-3  # both genuinely complex
    # the two solutions are conjugates of each other (real input system)
    a, b = [sol.normalized(1e-9) for sol in report.solutions]
    for block_a, block_b in zip(a.blocks, b.blocks):
        for ca, cb in zip(block_a, block_b):
            assert abs(complex(ca).conjugate() - complex(cb)) < 1e-8


def test_solve_edge_shaped_types():
    # blocks of projective dimension zero and both r < s and r > s
    shapes = [SystemType(1, 1, 0, 1, 1), SystemType(1, 0, 1, 1, 1),
              SystemType(0, 1, 1, 1, 1), SystemType(2, 0, 1, 1, 2),
              SystemType(1, 2, 1, 3, 1), SystemType(0, 2, 2, 2, 2)]
    for t in shapes:
        sys_ = core.random_system(t, 1)
        report = solver.solve_2bilinear(sys_, seed=1)
        assert len(report.solutions) == core.mhb(t)
        assert max(report.residuals) < 1e-6


def test_solver_error_reports_failure():
    # a system with a positive-dimensional solution set keeps every
    # randomization clustered or degenerate
    t = SystemType(1, 1, 1, 2, 1)
    nv = t.nvars
    f1 = core.MHPoly(nv, (1, 1, 0), {((1, 0), (1, 0), (0, 0)): 1})
    f2 = core.MHPoly(nv, (1, 1, 0), {((1, 0), (1, 0), (0, 0)): 2})
    f3 = core.MHPoly(nv, (1, 0, 1), {((1, 0), (0, 0), (1, 0)): 1})
    degenerate = BilinearSystem(t, (f1, f2, f3))
    with pytest.raises(solver.SolveError) as failure:
        solver.solve_2bilinear(degenerate, seed=0)
    assert len(failure.value.trace) == solver.MAX_ATTEMPTS
    assert str(failure.value).startswith(f"no solve after {solver.MAX_ATTEMPTS} attempts")


def test_residual_above_tol_is_retried_then_raises(paper_system):
    system = BilinearSystem(paper_system.type, paper_system.f)
    report = solver.solve_2bilinear(system, seed=0)
    assert max(report.residuals) <= solver.RESIDUAL_TOL
    # no attempt reaches a residual of 1e-30, so every one is retried
    with pytest.raises(solver.SolveError, match=r"attempt 2: residual .* above tol 1e-30"):
        solver.solve_2bilinear(system, seed=0, tol=1e-30)
    # a tol the residuals meet changes nothing
    again = solver.solve_2bilinear(system, seed=0, tol=max(report.residuals))
    assert again.retries == report.retries and again.residuals == report.residuals


def test_solve_reads_y_of_a_degree_10_block():
    # the dual-y degree is 9 and 10 here, where the pure-y0 entry used to
    # fall below the anchor tolerance on four attempts in a row
    sys_ = core.random_system(SystemType(10, 1, 1, 10, 2), 1)
    report = solver.solve_2bilinear(sys_, seed=0)
    assert report.retries <= 1
    assert len(report.solutions) == core.mhb(sys_.type) == 20


STAGE_FUNCTIONS = {"change": (solver, "apply_coordinate_change"),
                   "specialize": (solver, "specialize"),
                   "permute": (koszul.ThetaPartition, "apply"),
                   "schur": (solver, "schur_complement"), "eigen": (solver, "eigen_schur"),
                   "extend": (solver, "extend_eigenvector"), "extract": (solver, "extract_xy"),
                   "z": (solver, "solve_z"), "residual": (solver, "residual")}


@pytest.mark.parametrize("stage", list(STAGE_FUNCTIONS))
def test_each_stage_is_timed_under_its_own_name(paper_system, monkeypatch, stage):
    """A solve whose one stage takes 50 ms longer: every attempt of its
    trace names the stages it reached, once each and in `STAGES` order,
    the last one "ok" and every stage reached; the slow stage is the one
    that reads at least 50 ms, and no other does."""
    import time

    assert list(STAGE_FUNCTIONS) == list(solver.STAGES)
    owner, name = STAGE_FUNCTIONS[stage]
    real = getattr(owner, name)

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, slow)
    report = solver.solve_2bilinear(BilinearSystem(paper_system.type, paper_system.f), seed=0)
    assert len(report.trace) == report.retries + 1
    assert [attempt.outcome for attempt in report.trace][-1] == "ok"
    for attempt in report.trace:
        assert attempt.stages == solver.STAGES[:len(attempt.seconds)]
        assert len(set(attempt.stages)) == len(attempt.stages)
    last = report.trace[-1]
    assert last.stages == solver.STAGES
    assert [name for name, seconds in zip(last.stages, last.seconds) if seconds >= 0.05] == [stage]


def test_trace_outcomes_equal_the_reasons_of_the_solve_error(paper_system, monkeypatch):
    """Five attempts that fail each way in turn, one failure planted per
    stage function: M11 singular, clustered eigenvalues, x and y not
    extractable, z not extractable, and a residual above a tol of 1e-30.
    The `SolveError` carries one `AttemptTrace` per attempt, whose
    outcomes equal the reasons in its message, and each ends at the stage
    that failed."""
    calls = {"schur_complement": 0, "eigen_schur": 0, "extract_xy": 0, "solve_z": 0}
    plan = {"schur_complement": 1, "eigen_schur": 1, "extract_xy": 1, "solve_z": 1}
    real = {name: getattr(solver, name) for name in calls}

    def planted(name):
        def call(*args):
            calls[name] += 1
            if calls[name] == plan[name]:
                if name == "schur_complement":
                    raise SingularMatrixError("singular matrix over Q")
                if name in ("extract_xy", "solve_z"):
                    raise solver.ExtractionError(f"planted in {name}")
                pairs = real[name](*args)
                pairs.clustered[0] = True
                return pairs
            return real[name](*args)
        return call

    for name in calls:
        monkeypatch.setattr(solver, name, planted(name))
    with pytest.raises(solver.SolveError) as failure:
        # at seed 3 every attempt reaches the residual by itself
        solver.solve_2bilinear(BilinearSystem(paper_system.type, paper_system.f), seed=3,
                               tol=1e-30)
    trace = failure.value.trace
    assert len(trace) == solver.MAX_ATTEMPTS
    assert [attempt.outcome for attempt in trace[:5]] == \
        ["singular", "clustered", "extraction", "extraction", "residual"]
    assert [attempt.stages[-1] for attempt in trace[:5]] == \
        ["schur", "eigen", "extract", "z", "residual"]
    reasons = re.findall(r"attempt \d+: ([^;]*)", str(failure.value))
    kinds = {"singular": "singular matrix", "clustered": "clustered eigenvalues",
             "extraction": "planted in", "residual": "residual"}
    assert len(reasons) == len(trace)
    for attempt, reason in zip(trace, reasons):
        assert reason.startswith(kinds[attempt.outcome])
