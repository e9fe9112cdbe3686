"""Basis enumeration, the contraction map, assembly, specialization, splitting."""

import random
from fractions import Fraction
from math import comb

import pytest

from bikoszul import core, exactlinalg, koszul, selftest, solver
from bikoszul.core import ProjectiveSolution, SystemType
from bikoszul.koszul import KoszulBasisElement as KBE
from bikoszul.weyman import mu

THETA = ((1, 0), (1, 0), (1, 0))


def small_types(max_n):
    for n in range(2, max_n + 1):
        for nx in range(n + 1):
            for ny in range(n + 1 - nx):
                nz = n - nx - ny
                for r in range(max(1, ny), n - max(1, nz) + 1):
                    yield SystemType(nx, ny, nz, r, n - r)


def test_k1_basis_example(paper_type):
    basis = koszul.k1_basis(paper_type)
    l11 = [e for e in basis if e.block == "L11"]
    l12 = [e for e in basis if e.block == "L12"]
    assert len(l11) == 4 and len(l12) == 6 and len(basis) == 10
    assert basis[:4] == l11  # L11 first
    assert all(e.iset == (1, 2, 3) for e in l11)
    assert all(e.iset == (0, 1, 2) for e in l12)
    assert all(sum(e.dy) == 2 for e in l12)


def test_k0_basis_example(paper_type):
    basis = koszul.k0_basis(paper_type)
    counts = {b: sum(1 for e in basis if e.block == b) for b in ("L01", "L02", "L03", "L04")}
    assert counts == {"L01": 2, "L02": 4, "L03": 4, "L04": 0}
    assert [e.iset for e in basis if e.block == "L01"] == [(1, 3), (2, 3)]


def test_l11_count_formula():
    for t in [SystemType(2, 1, 1, 2, 2), SystemType(1, 2, 1, 3, 1), SystemType(3, 1, 1, 3, 2)]:
        l11 = [e for e in koszul.k1_basis(t) if e.block == "L11"]
        expected = (t.nx + 1) * comb(t.ny + t.r - t.ny, t.r - t.ny) * comb(t.s, t.s - t.nz + 1)
        assert len(l11) == expected


def test_basis_sizes_match_mu_sweep():
    for t in small_types(8):
        size = mu(t)
        assert len(koszul.k1_basis(t)) == size
        assert len(koszul.k0_basis(t)) == size


def star_contract(mono, dual):
    """Graded contraction: dual - mono componentwise, None once negative."""
    if len(mono) != len(dual):
        raise core.DomainError("block length mismatch in contraction")
    out = []
    for m, d in zip(mono, dual):
        if d - m < 0:
            return None
        out.append(d - m)
    return tuple(out)


def reference_psi(dx, dy, dz, poly_index, t):
    """psi by scanning every exponent of the slot's multidegree and
    dropping the annihilated ones; the reference for koszul.psi_symbolic."""
    out = []
    for sigma in core.exponent_basis(t.nvars, t.degree_of(poly_index)):
        sx, sy, sz = sigma
        dx2 = star_contract(sx, dx)
        dy2 = star_contract(sy, dy)
        if dx2 is None or dy2 is None:
            continue
        dz2 = tuple(a + b for a, b in zip(dz, sz))
        out.append(((dx2, dy2, dz2), koszul.SymbolicEntry(1, poly_index, sigma)))
    return out


def reference_entries(t):
    """The entries dict of assemble_delta1, built label by label from
    reference_psi: the reference assembly."""
    rows, cols = koszul.k0_basis(t), koszul.k1_basis(t)
    row_index = {label: i for i, label in enumerate(rows)}
    entries = {}
    for col_idx, col in enumerate(cols):
        for pos, slot in enumerate(col.iset):
            slot_class = 0 if slot == 0 else ("xy" if slot <= t.r else "xz")
            target = koszul._TARGET_BLOCK[(col.block, slot_class)]
            rest = col.iset[:pos] + col.iset[pos + 1:]
            for (dx2, dy2, dz2), ref in reference_psi(col.dx, col.dy, col.dz, slot, t):
                key = (row_index[KBE(target, dx2, dy2, dz2, rest)], col_idx)
                assert key not in entries
                entries[key] = koszul.SymbolicEntry(-1 if pos % 2 else 1, ref.poly, ref.exponent)
    return entries


def test_star_contract():
    assert star_contract((1, 0), (1, 1)) == (0, 1)
    assert star_contract((0, 1), (2, 0)) is None
    assert star_contract((0, 0), (1, 0)) == (1, 0)


@pytest.mark.parametrize("ty", [(1, 1, 1, 2, 1), (2, 2, 2, 3, 3), (3, 2, 2, 4, 3),
                                (10, 1, 1, 10, 2), (2, 6, 4, 7, 5)])
def test_assembly_matches_the_exponent_scanning_reference(ty):
    t = SystemType(*ty)
    got = koszul.assemble_delta1(t).entries
    want = reference_entries(t)
    assert list(got.items()) == list(want.items())  # keys, values and order
    for col in koszul.k1_basis(t)[::7]:
        for slot in col.iset:
            assert koszul.psi_symbolic(col.dx, col.dy, col.dz, slot, t) == \
                reference_psi(col.dx, col.dy, col.dz, slot, t)


def test_psi_symbolic_example(paper_type):
    # the L11 factor dx0 (x) dy0 against the S(1,0,1) slot 3
    hits = koszul.psi_symbolic((1, 0), (1, 0), (0, 0), 3, paper_type)
    targets = {(frag, e.exponent) for frag, e in hits}
    assert targets == {
        (((0, 0), (1, 0), (1, 0)), ((1, 0), (0, 0), (1, 0))),
        (((0, 0), (1, 0), (0, 1)), ((1, 0), (0, 0), (0, 1))),
    }
    assert all(e.sign == 1 for _, e in hits)
    # a dual-y power of y1 annihilates every y0-only monomial
    hits = koszul.psi_symbolic((1, 0), (0, 2), (0, 0), 1, paper_type)
    assert all(e.exponent[1] != (1, 0) for _, e in hits)


def test_assembled_matrix_matches_printed_example(paper_system):
    matrix = koszul.assemble_delta1(paper_system.type)
    assert matrix.size == 10
    assert len(matrix.entries) == 48  # nonzero cells of the printed matrix
    spec = koszul.specialize(matrix, paper_system)
    assert selftest.printed_matrix_of(spec, matrix) == selftest.PRINTED_MATRIX


def test_column_signs_follow_position(paper_system):
    matrix = koszul.assemble_delta1(paper_system.type)
    ridx = {lab: i for i, lab in enumerate(matrix.rows)}
    cidx = {lab: j for j, lab in enumerate(matrix.cols)}
    # column D = dx0 dy0 e_{123}: f1 -> e_{23} (+), f2 -> e_{13} (-), f3 -> e_{12} (+)
    col = cidx[selftest.PRINTED_COLS["D"]]
    e13 = matrix.entries[(ridx[selftest.PRINTED_ROWS["I"]], col)]
    assert (e13.sign, e13.poly, e13.exponent) == (-1, 2, ((1, 0), (1, 0), (0, 0)))
    e23 = matrix.entries[(ridx[selftest.PRINTED_ROWS["II"]], col)]
    assert (e23.sign, e23.poly) == (1, 1)
    # column with index set {0,1,2}: signs (+,-,+) on (f0, f1, f2)
    col = cidx[selftest.PRINTED_COLS["I"]]
    signs = {}
    for (i, j), entry in matrix.entries.items():
        if j == col:
            signs[entry.poly] = entry.sign
    assert signs == {0: 1, 1: -1, 2: 1}


def test_specialize_zero_and_scaling(paper_system):
    t = paper_system.type
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, THETA)
    zeroed = paper_system.with_f0(core.zero_poly(t.nvars, (1, 1, 1)))
    spec = part.apply(koszul.specialize(matrix, zeroed))
    for k in range(part.split, part.size):
        assert spec[k, k] == 0
    lam = Fraction(7, 2)
    base = koszul.specialize(matrix, paper_system)
    scaled = koszul.specialize(matrix, paper_system.with_f0(core.scale(paper_system.f0, lam)))
    for (i, j), entry in matrix.entries.items():
        if entry.poly == 0:
            assert scaled[i, j] == lam * base[i, j]
        else:
            assert scaled[i, j] == base[i, j]


def test_theta_partition_paper_example(paper_system):
    matrix = koszul.assemble_delta1(paper_system.type)
    part = koszul.theta_partition(matrix, THETA)
    assert part.split == 8 and part.size - part.split == 2
    trailing_rows = [matrix.rows[i] for i in part.row_perm[8:]]
    trailing_cols = [matrix.cols[j] for j in part.col_perm[8:]]
    assert trailing_rows == [
        KBE("L02", (0, 0), (1, 0), (1, 0), (1, 2)),
        KBE("L02", (0, 0), (0, 1), (1, 0), (1, 2)),
    ]
    assert trailing_cols == [
        KBE("L12", (1, 0), (2, 0), (0, 0), (0, 1, 2)),
        KBE("L12", (1, 0), (1, 1), (0, 0), (0, 1, 2)),
    ]
    spec = part.apply(koszul.specialize(matrix, paper_system))
    assert spec[8, 8] == 3 and spec[9, 9] == 3  # the theta coefficient of f0
    other = koszul.theta_partition(matrix, ((0, 1), (0, 1), (0, 1)))
    assert other.split == 8


def test_theta_rejects_non_trilinear_exponent(paper_type):
    matrix = koszul.assemble_delta1(paper_type)
    with pytest.raises(core.DomainError):
        koszul.theta_partition(matrix, ((2, 0), (1, 0), (0, 0)))


def test_theta_partition_flags_assembly_violations(paper_type):
    base = koszul.assemble_delta1(paper_type)

    def mutated(tweak):
        entries = dict(base.entries)
        tweak(entries)
        return koszul.SymbolicResultantMatrix(
            base.type, base.m, base.rows, base.cols, entries)

    def flip_sign(entries):
        for key, e in entries.items():
            if e.poly == 0 and e.exponent == THETA:
                entries[key] = koszul.SymbolicEntry(-1, e.poly, e.exponent)
                return

    def drop_reference(entries):
        for key, e in list(entries.items()):
            if e.poly == 0 and e.exponent == THETA:
                del entries[key]
                return

    def stray_reference(entries):
        # plant theta in a cell of a column that never references f0
        entries[(0, 0)] = koszul.SymbolicEntry(1, 0, THETA)

    for tweak in (flip_sign, drop_reference, stray_reference):
        with pytest.raises(koszul.AssemblyError):
            koszul.theta_partition(mutated(tweak), THETA)


def test_structural_theta_property_sweep():
    for t in small_types(6):
        matrix = koszul.assemble_delta1(t)
        for theta in core.exponent_basis(t.nvars, (1, 1, 1)):
            part = koszul.theta_partition(matrix, theta)
            assert part.size - part.split == core.mhb(t)


def test_references_unique_per_row_and_column():
    for t in [SystemType(1, 1, 1, 2, 1), SystemType(2, 1, 1, 2, 2), SystemType(1, 1, 2, 2, 2)]:
        matrix = koszul.assemble_delta1(t)
        seen_row, seen_col = set(), set()
        for (i, j), entry in matrix.entries.items():
            ref = (entry.poly, entry.exponent)
            assert (i, ref) not in seen_row
            assert (j, ref) not in seen_col
            seen_row.add((i, ref))
            seen_col.add((j, ref))


def test_f0_references_only_in_l12_columns(paper_system):
    matrix = koszul.assemble_delta1(paper_system.type)
    for (i, j), entry in matrix.entries.items():
        if entry.poly == 0:
            assert matrix.cols[j].block == "L12"


def test_det_homogeneity_in_f0_and_f1(paper_system):
    p = 10007
    t = paper_system.type
    matrix = koszul.assemble_delta1(t)
    rng = random.Random(77)
    for _ in range(5):
        sys_ = core.random_system(t, rng).with_f0(
            core.MHPoly(t.nvars, (1, 1, 1),
                        {e: rng.randint(-9, 9) for e in core.exponent_basis(t.nvars, (1, 1, 1))}))
        lam = rng.randint(2, p - 2)
        base = exactlinalg.det(koszul.specialize(matrix, sys_, p))
        f0_scaled = sys_.with_f0(core.scale(sys_.f0, lam))
        assert exactlinalg.det(koszul.specialize(matrix, f0_scaled, p)) == \
            pow(lam, core.mhb(t), p) * base % p
        # scaling f1 raises det by the complementary block degree (here 3)
        f1_scaled = core.BilinearSystem(
            t, (core.scale(sys_.f[0], lam),) + sys_.f[1:], sys_.f0)
        assert exactlinalg.det(koszul.specialize(matrix, f1_scaled, p)) == \
            pow(lam, 3, p) * base % p


def test_det_vanishes_iff_common_root(paper_type):
    t = paper_type
    matrix = koszul.assemble_delta1(t)
    alpha = ProjectiveSolution((1, 2), (2, 1), (1, 3))
    for seed in range(5):
        planted = core.planted_root_system(t, alpha, seed, include_f0=True)
        assert exactlinalg.det(koszul.specialize(matrix, planted)) == 0
    p = 10007
    rng = random.Random(5)
    nonzero = 0
    for _ in range(10):
        sys_ = core.random_system(t, rng).with_f0(
            core.MHPoly(t.nvars, (1, 1, 1),
                        {e: rng.randint(-9, 9) for e in core.exponent_basis(t.nvars, (1, 1, 1))}))
        nonzero += exactlinalg.det(koszul.specialize(matrix, sys_, p)) != 0
    assert nonzero >= 9


def test_assembly_other_types_are_square():
    for t in [SystemType(2, 1, 1, 2, 2), SystemType(1, 1, 2, 2, 2), SystemType(1, 2, 1, 3, 1)]:
        matrix = koszul.assemble_delta1(t)
        assert matrix.size == mu(t)
        assert len(matrix.rows) == len(matrix.cols) == matrix.size


def test_label_serialization(paper_type):
    elem = koszul.k1_basis(paper_type)[0]
    assert koszul.label_str(elem) == "L11|dx=(1,0)|dy=(1,0)|dz=(0,0)|I={1,2,3}"


def reference_specialized(matrix, sys_, field):
    """specialize followed by no permutation, entry by entry on lists of
    rows: the per-entry reference for the array-backed specialization."""
    rows = [[Fraction(0)] * matrix.size for _ in range(matrix.size)]
    polys = [sys_.poly(i) for i in range(sys_.type.n + 1)]
    for (i, j), entry in matrix.entries.items():
        coeff = polys[entry.poly].terms.get(entry.exponent)
        if coeff is not None:
            rows[i][j] = coeff if entry.sign > 0 else -coeff
    if field is not None:
        rows = [[exactlinalg.fraction_mod_p(e, field) for e in row] for row in rows]
    return rows


@pytest.mark.parametrize("field", [None, 2, 1_000_003, 2 ** 31 - 1, 2 ** 61 - 1])
def test_specialize_and_permute_match_a_per_entry_reference(field):
    t = SystemType(2, 2, 2, 3, 3)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, solver.default_theta(t))
    rng = random.Random(23)
    # odd denominators (units mod every field here), zeros, and entries
    # far beyond int64 and beyond the largest modulus
    values = [0, 0, 1, -1, Fraction(-5, 3), Fraction(7, 9), 2 ** 70 + 1, -(2 ** 64) - 3]
    polys = [core.MHPoly(t.nvars, t.degree_of(i),
                         {e: rng.choice(values) for e in core.exponent_basis(t.nvars, t.degree_of(i))})
             for i in range(t.n + 1)]
    sys_ = core.BilinearSystem(t, tuple(polys[1:]), polys[0])
    want = reference_specialized(matrix, sys_, field)
    spec = koszul.specialize(matrix, sys_, field)
    assert spec.field == field
    assert spec.rows == want
    permuted = part.apply(spec)
    assert permuted.rows == [[want[i][j] for j in part.col_perm] for i in part.row_perm]
    kind = Fraction if field is None else int
    assert all(type(e) is kind for row in permuted.rows for e in row)
    assert all(type(permuted[i, i]) is kind and permuted[i, i] == want[r][c]
               for i, (r, c) in enumerate(zip(part.row_perm, part.col_perm)))
