import random
from fractions import Fraction
from itertools import product

import pytest

from bikoszul import core, exactlinalg, oracle, selftest
from bikoszul.weyman import mu


@pytest.fixture(scope="session")
def paper_system():
    return selftest.paper_system()


@pytest.fixture(scope="session")
def paper_type(paper_system):
    return paper_system.type


def nullspace(m: exactlinalg.ExactMatrix) -> list[list]:
    """Basis of the right kernel, from the reduced row echelon form."""
    p = m.field
    rows, pivots = oracle._rref(m)
    basis = []
    for col in range(m.ncols):
        if col in pivots:
            continue
        vec = [Fraction(0) if p is None else 0] * m.ncols
        vec[col] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][col] if p is None else -rows[i][col] % p
        basis.append(vec)
    return basis


def _kernel_poly(nvars, degree, points, rng, bound=9):
    """Random polynomial of the multidegree vanishing at all given points."""
    exps = core.exponent_basis(nvars, degree)
    rows = []
    for point in points:
        rows.append([
            Fraction(core.evaluate(core.monomial_poly(nvars, degree, e), point))
            for e in exps
        ])
    basis = nullspace(exactlinalg.ExactMatrix(rows))
    while True:
        combo = [rng.randint(-bound, bound) for _ in basis]
        coeffs = [sum(c * vec[j] for c, vec in zip(combo, basis)) for j in range(len(exps))]
        if any(coeffs):
            break
    return core.MHPoly(nvars, degree, dict(zip(exps, coeffs)))


@pytest.fixture
def two_root_builder():
    """Builds a type-(1,1,1;2,1) system whose solution set is exactly the
    two given points: f1, f2 span the bilinear forms vanishing at both
    (x, y) pairs, f3 vanishes at both (x, z) pairs. Degenerate draws
    (extra or positive-dimensional solutions) are rejected by exhaustive
    solving mod 31."""

    def build(alpha, beta, seed):
        from bikoszul import oracle

        t = core.SystemType(1, 1, 1, 2, 1)
        rng = random.Random(seed)
        reduce = exactlinalg.fraction_mod_p
        exact = [core.ProjectiveSolution(*(tuple(map(Fraction, block)) for block in p.blocks))
                 for p in (alpha, beta)]  # normalized() divides ints into floats
        want = sorted(
            tuple(tuple(reduce(v, 31) for v in block) for block in p.normalized().blocks)
            for p in exact
        )
        while True:
            f1 = _kernel_poly(t.nvars, (1, 1, 0), [alpha, beta], rng)
            f2 = _kernel_poly(t.nvars, (1, 1, 0), [alpha, beta], rng)
            f3 = _kernel_poly(t.nvars, (1, 0, 1), [alpha, beta], rng)
            sys_ = core.BilinearSystem(t, (f1, f2, f3))
            sols = oracle.ff_solve(sys_, 31)
            got = sorted((s.x, s.y, s.z) for s in sols)
            if got == want:
                return sys_

    return build


def system_types(max_n=None, max_dim=None, max_mu=None) -> list:
    """Every valid type, r from max(1, ny) to n - max(1, nz) for n = nx +
    ny + nz: with max_n those with n <= max_n, ordered by n, then nx and
    ny; with max_dim those with every projective dimension up to max_dim,
    ordered by (nx, ny, nz); r ascending in either order. With max_mu
    only those with mu <= max_mu."""
    types = []
    for nx, ny, nz in product(range((max_n if max_dim is None else max_dim) + 1), repeat=3):
        n = nx + ny + nz
        if max_n is not None and n > max_n:
            continue
        for r in range(max(1, ny), n - max(1, nz) + 1):
            t = core.SystemType(nx, ny, nz, r, n - r)
            if max_mu is None or mu(t) <= max_mu:
                types.append(t)
    if max_n is not None:
        types.sort(key=lambda t: t.n)  # stable: (nx, ny) order within one n
    return types
