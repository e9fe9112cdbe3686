"""Finite-field enumeration, dual forms, the rank-1 embedding, and the
exact strand-map identities."""

import random
from fractions import Fraction

import pytest

from bikoszul import core, exactlinalg, koszul, oracle
from bikoszul.core import MHPoly, ProjectiveSolution, SystemType
from bikoszul.oracle import rank
from conftest import nullspace

THETA = ((1, 0), (1, 0), (1, 0))


def test_ff_solve_forced_example():
    t = SystemType(1, 1, 1, 2, 1)
    nv = t.nvars
    f1 = MHPoly(nv, (1, 1, 0), {((1, 0), (0, 1), (0, 0)): 1, ((0, 1), (1, 0), (0, 0)): -1})
    f2 = MHPoly(nv, (1, 1, 0), {((1, 0), (0, 1), (0, 0)): 2, ((0, 1), (1, 0), (0, 0)): -1})
    f3 = MHPoly(nv, (1, 0, 1), {((1, 0), (0, 0), (0, 1)): 1, ((0, 1), (0, 0), (1, 0)): -1})
    sols = oracle.ff_solve(core.BilinearSystem(t, (f1, f2, f3)), 5)
    assert [(s.x, s.y, s.z) for s in sols] == [
        ((0, 1), (0, 1), (0, 1)), ((1, 0), (1, 0), (1, 0))]


def test_ff_solve_contains_planted_root():
    t = SystemType(1, 1, 1, 2, 1)
    alpha = ProjectiveSolution((1, 2), (1, 3), (1, 4))
    for seed in range(5):
        sys_ = core.planted_root_system(t, alpha, seed)
        sols = oracle.ff_solve(sys_, 31)
        assert any(s.x == (1, 2) and s.y == (1, 3) and s.z == (1, 4) for s in sols)


def test_ff_solve_counts_bounded_by_mhb():
    t = SystemType(1, 1, 1, 2, 1)
    for seed in range(20):
        sys_ = core.random_system(t, seed)
        assert len(oracle.ff_solve(sys_, 31)) <= core.mhb(t)


def test_ff_solve_budget_guard():
    """The points are counted, not listed, before the budget is checked:
    listing them ran out of memory at p = 1000003 and overflowed at
    p >= 2^63."""
    t = SystemType(2, 2, 2, 3, 3)
    for p in (2 ** 64 + 13, 1_000_003, 1009):
        with pytest.raises(core.DomainError, match="exceeds budget"):
            oracle.ff_solve(core.random_system(t, 0), p)


def test_dual_veronese_values():
    dv = oracle.dual_veronese("y", 2, (1, 2))
    assert [dv.coefficient(e) for e in core.monomial_basis(1, 2)] == [1, 2, 4]
    dvx = oracle.dual_veronese("x", 1, (1, 3))
    assert [dvx.coefficient(e) for e in core.monomial_basis(1, 1)] == [1, 3]
    assert oracle.dual_veronese("z", 0, (5, 7)).coefficient((0, 0)) == 1
    assert oracle.dual_veronese("z", -1, (1, 1)).is_zero
    with pytest.raises(core.DomainError):
        oracle.dual_veronese("x", 1, (0, 1))


def test_star_eval_check_examples():
    dv = oracle.dual_veronese("y", 2, (1, 2))
    contracted, scalar = oracle.star_eval_check({(1, 0): 1}, dv)  # g = y0
    assert scalar == 1
    assert contracted.coeffs == oracle.dual_veronese("y", 1, (1, 2)).coeffs
    contracted, scalar = oracle.star_eval_check({(0, 1): 1}, dv)  # g = y1
    assert scalar == 2
    assert contracted.coeffs == oracle.scale_dual(
        oracle.dual_veronese("y", 1, (1, 2)), 2).coeffs
    contracted, scalar = oracle.star_eval_check({(0, 0): 1}, dv)  # g = 1
    assert scalar == 1 and contracted.coeffs == dv.coeffs


def test_star_eval_identity_random():
    rng = random.Random(2)
    for _ in range(30):
        n_t = rng.randint(1, 3)
        d = rng.randint(1, 4)
        dbar = rng.randint(0, d)
        while True:
            alpha = tuple(rng.randint(1, 6) for _ in range(n_t + 1))
            if alpha[0]:
                break
        dv = oracle.dual_veronese("y", d, alpha)
        g = {e: rng.randint(-5, 5) for e in core.monomial_basis(n_t, dbar)}
        if not any(g.values()):
            continue
        contracted, scalar = oracle.star_eval_check(g, dv)
        expected = oracle.scale_dual(oracle.dual_veronese("y", d - dbar, alpha), scalar)
        assert contracted.coeffs == expected.coeffs


def test_psi_dual_action_is_evaluation():
    """The contraction map on a dual Veronese tensor multiplies the z part
    by the partial evaluation of f, exactly."""
    rng = random.Random(6)
    for _ in range(50):
        nv = (rng.randint(1, 2) + 1, rng.randint(1, 2) + 1, 2)
        dx, dy = rng.randint(1, 2), rng.randint(1, 2)
        dxb, dyb = rng.randint(0, dx), rng.randint(0, dy)
        dzb = rng.randint(0, 1)
        gz_deg = rng.randint(0, 1)
        ax = tuple(rng.randint(1, 5) for _ in range(nv[0]))
        ay = tuple(rng.randint(1, 5) for _ in range(nv[1]))
        dvx = oracle.dual_veronese("x", dx, ax)
        dvy = oracle.dual_veronese("y", dy, ay)
        gz = {e: Fraction(rng.randint(-4, 4)) for e in core.monomial_basis(nv[2] - 1, gz_deg)}
        exps = core.exponent_basis(nv, (dxb, dyb, dzb))
        f = MHPoly(nv, (dxb, dyb, dzb), {e: rng.randint(-4, 4) for e in exps})
        got = oracle.psi_dual_action(dvx, dvy, gz, f)
        # expected: 1x(dx-dxb) (x) 1y(dy-dyb) (x) gz * f(ax, ay)
        fz = core.partial_evaluate_xy(f, ax, ay)
        prod = {}
        for (_, _, sz), c in fz.terms.items():
            for e, g in gz.items():
                key = tuple(a + b for a, b in zip(e, sz))
                prod[key] = prod.get(key, Fraction(0)) + c * g
        dvx2 = oracle.dual_veronese("x", dx - dxb, ax)
        dvy2 = oracle.dual_veronese("y", dy - dyb, ay)
        expected = {}
        for tx, vx in dvx2.coeffs.items():
            for ty, vy in dvy2.coeffs.items():
                for tz, vz in prod.items():
                    if vx * vy * vz:
                        expected[(tx, ty, tz)] = vx * vy * vz
        assert got == expected


def test_build_rho_paper_values(paper_type):
    t = paper_type
    assert oracle.rho_slots(t) == [(1, 2, 3), (0, 1, 2)]
    rho = oracle.build_rho(t, (1, 3), (1, 2), [1, 1])
    idx = {e: i for i, e in enumerate(koszul.k1_basis(t))}
    KBE = koszul.KoszulBasisElement
    assert rho[idx[KBE("L12", (1, 0), (2, 0), (0, 0), (0, 1, 2))]] == 1
    assert rho[idx[KBE("L11", (0, 1), (0, 1), (0, 0), (1, 2, 3))]] == 6
    assert all(v == 0 for v in oracle.build_rho(t, (1, 3), (1, 2), [0, 0]))
    with pytest.raises(core.DomainError):
        oracle.build_rho(t, (1, 3), (1, 2), [1, 2, 3])


def test_linear_z_system_paper(paper_system):
    t = paper_system.type
    g0 = core.add(paper_system.f0,
                  core.scale(core.monomial_poly(t.nvars, (1, 1, 1), THETA), -1))
    fz = oracle.linear_z_system(paper_system.with_f0(g0), (1, 3), (1, 2))
    assert fz.forms == ((Fraction(9), Fraction(-3)), (Fraction(-9), Fraction(3)))
    # f0 = theta alone evaluates to a single z0 direction scaled by (x0 y0 / x0 y0)
    only_theta = paper_system.with_f0(core.monomial_poly(t.nvars, (1, 1, 1), THETA))
    fz2 = oracle.linear_z_system(only_theta, (1, 3), (1, 2))
    assert fz2.forms[0] == (Fraction(1), Fraction(0))


def test_koszul_strand_map_paper():
    fz = oracle.LinearZSystem(1, 1, ((Fraction(9), Fraction(-3)),
                                     (Fraction(-9), Fraction(3))))
    matrix = oracle.koszul_strand_map(fz)
    assert matrix == [[9, -9], [-3, 3]]
    kernel = nullspace(exactlinalg.ExactMatrix(matrix))
    assert len(kernel) == 1
    scaled = [v / kernel[0][0] for v in kernel[0]]
    assert scaled == [1, 1]
    zero = oracle.LinearZSystem(1, 1, ((Fraction(0), Fraction(0)),) * 2)
    assert all(v == 0 for row in oracle.koszul_strand_map(zero) for v in row)


def test_strand_kernel_iff_common_zero():
    rng = random.Random(13)
    for _ in range(50):
        s = rng.randint(1, 3)
        nz = rng.randint(0 if s > 1 else 1, s)
        if nz == 0:
            nz = 1
        if rng.random() < 0.5:
            # plant a common zero: every form orthogonal to a fixed point
            point = [rng.randint(1, 5) for _ in range(nz + 1)]
            forms = []
            for _ in range(s + 1):
                while True:
                    head = [rng.randint(-4, 4) for _ in range(nz)]
                    last = -sum(h * c for h, c in zip(head, point[:-1]))
                    if point[-1] != 0 and last % point[-1] == 0:
                        forms.append(tuple(Fraction(v) for v in head + [last // point[-1]]))
                        break
        else:
            forms = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(nz + 1))
                     for _ in range(s + 1)]
        fz = oracle.LinearZSystem(s, nz, tuple(forms))
        has_zero = rank(exactlinalg.ExactMatrix([list(f) for f in forms])) <= nz
        assert (oracle.strand_kernel_dim(fz) >= 1) == has_zero


def test_ff_solve_agrees_with_det_vanishing():
    """Rational points of the augmented system force det = 0; generically
    the determinant is nonzero when no such point exists."""
    t = SystemType(1, 1, 1, 2, 1)
    matrix = koszul.assemble_delta1(t)
    p = 31
    nonzero = 0
    for seed in range(100):
        rng = random.Random(seed)
        f0 = MHPoly(t.nvars, (1, 1, 1),
                    {e: rng.randint(-15, 15) for e in core.exponent_basis(t.nvars, (1, 1, 1))})
        sys_ = core.random_system(t, rng, coeff_bound=15).with_f0(f0)
        det = exactlinalg.det(koszul.specialize(matrix, sys_, p))
        if oracle.ff_solve(sys_, p, include_f0=True):
            assert det == 0
        nonzero += det != 0
    assert nonzero >= 95


def test_rho_composition_paper(paper_system):
    t = paper_system.type
    g0 = core.add(paper_system.f0,
                  core.scale(core.monomial_poly(t.nvars, (1, 1, 1), THETA), -1))
    assert oracle.verify_rho_composition(paper_system.with_f0(g0), (1, 3), (1, 2)) == 0


def test_rho_composition_planted_even_and_odd_r():
    for t, seeds in ((SystemType(1, 1, 1, 2, 1), range(8)),
                     (SystemType(1, 1, 1, 1, 2), range(8)),
                     (SystemType(2, 1, 1, 2, 2), range(4))):
        for seed in seeds:
            rng = random.Random(f"{t.r}:{seed}")
            alpha = ProjectiveSolution(
                tuple(rng.randint(1, 5) for _ in range(t.nx + 1)),
                tuple(rng.randint(1, 5) for _ in range(t.ny + 1)),
                tuple(rng.randint(1, 5) for _ in range(t.nz + 1)))
            sys_ = core.planted_root_system(t, alpha, rng, include_f0=True)
            assert oracle.verify_rho_composition(sys_, alpha.x, alpha.y) == 0


def test_rho_composition_precondition():
    t = SystemType(1, 1, 1, 2, 1)
    sys_ = core.random_system(t, 1).with_f0(
        core.monomial_poly(t.nvars, (1, 1, 1), THETA))
    with pytest.raises(core.DomainError):
        oracle.verify_rho_composition(sys_, (1, 1), (1, 1))


def test_composed_map_has_kernel_at_full_common_root():
    t = SystemType(1, 1, 1, 2, 1)
    alpha = ProjectiveSolution((1, 3), (1, 1), (2, 5))
    for seed in range(5):
        sys_ = core.planted_root_system(t, alpha, seed, include_f0=True)
        composed = oracle.rho_composition_matrix(sys_, alpha.x, alpha.y)
        assert rank(composed) < len(oracle.rho_slots(t))
