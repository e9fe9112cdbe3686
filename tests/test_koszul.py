"""Basis enumeration, the contraction map, assembly, specialization, splitting."""

import hashlib
import random
import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from bikoszul import core, exactlinalg, koszul, selftest, solver, weyman
from bikoszul.core import ProjectiveSolution, SystemType
from bikoszul.koszul import KoszulBasisElement as KBE
from bikoszul.weyman import mu
from conftest import system_types

THETA = ((1, 0), (1, 0), (1, 0))


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
    for t in system_types(8):
        size = mu(t)
        assert len(koszul.k1_basis(t)) == size
        assert len(koszul.k0_basis(t)) == size


def test_layout_blocks_are_the_term_table_entries():
    """Each nonempty block of `layout` has the dimension of the term-table
    entry on its side (v = 0 rows, v = 1 columns) with its index counts
    (a from 1..r, b from r+1..n, c the index 0), every entry is matched
    once, and the blocks of a side tile 0..mu in order."""
    for t in system_types(8):
        table = weyman.term_table(t, (t.ny - 1, -1, t.nx + t.ny - t.r + 1))
        blocks = []
        for v, side in enumerate(koszul.layout(t)):
            assert list(side) == (["L01", "L02", "L03", "L04"], ["L11", "L12"])[v]
            first = 0
            for tag, block in side.items():
                assert (block.tag, block.first) == (tag, first)
                first += block.size
                if block.isets:
                    iset = block.isets[0]
                    counts = (sum(1 <= i <= t.r for i in iset), sum(i > t.r for i in iset),
                              int(0 in iset))
                    blocks.append(((v, *counts), block.size))
            assert first == mu(t)
        assert sorted(blocks) == sorted(((e.v, e.a, e.b, e.c), e.dim) for e in table.entries)


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
    dropping the annihilated ones; the reference for koszul._factor_terms."""
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


ASSEMBLY_TYPES = [(1, 1, 1, 2, 1), (2, 2, 2, 3, 3), (3, 2, 2, 4, 3), (10, 1, 1, 10, 2),
                  (2, 6, 4, 7, 5)]
ASSEMBLY_TYPES += [ty for ty in ((t.nx, t.ny, t.nz, t.r, t.s) for t in system_types(5))
                   if ty not in ASSEMBLY_TYPES]


@pytest.mark.parametrize("ty", ASSEMBLY_TYPES)
def test_assembly_matches_the_exponent_scanning_reference(ty):
    """Every type with n <= 5 (nx, ny or nz = 0, and r = ny, where the
    L11 dual y has degree 0) and five larger ones."""
    t = SystemType(*ty)
    matrix = koszul.assemble_delta1(t)
    assert (np.diff(matrix.col_idx) >= 0).all()  # cells grouped by column, as ExactMatrix needs
    want = reference_entries(t)
    assert list(matrix.entries.items()) == list(want.items())  # keys, values and order


# sha256 of row_idx, col_idx and ref_idx as little-endian int64, then of
# the repr of the references as plain tuples, for the paper's seven
# Table-1 types, which the exponent-scanning reference is too slow for
TABLE1_DIGESTS = {
    (10, 1, 1, 10, 2): "00231496f6581080c0e078b25000b6f21d22d864c20cd8a2796dbdd5d5be533a",
    (2, 6, 4, 7, 5): "0c6beddf3fc8d9131bd33a626d6be4a9155276e9417b69fdfc41dedce3df5a04",
    (5, 5, 2, 6, 6): "b2e65ffaf2f39fa85c1211c95c46ba1b45affde679060adba23fa97d4e93d77b",
    (6, 4, 2, 5, 7): "100b840dc22c8a36a2e916a2f12a171e6520cb7f2f460ce898855e09df7e60ee",
    (4, 4, 4, 6, 6): "5dc4020435db14e0e3a48b74d9c771fdc229f21970efe3803191f5824c1ee550",
    (5, 5, 2, 9, 3): "1cc35afa31614f45face20099e6948587838193063382a2cf9dc7a15cc756b88",
    (6, 3, 3, 6, 6): "4f53f9c326ba28f912fb3bb92dd027b9b46ac791801d756fa21ea157583361e2",
}


@pytest.mark.parametrize("ty", list(TABLE1_DIGESTS))
def test_table1_assembly_matches_its_recorded_digest(ty):
    matrix = koszul.assemble_delta1(SystemType(*ty))
    assert (np.diff(matrix.col_idx) >= 0).all()
    digest = hashlib.sha256()
    for array in (matrix.row_idx, matrix.col_idx, matrix.ref_idx):
        digest.update(np.asarray(array, dtype="<i8").tobytes())
    digest.update(repr([tuple(ref) for ref in matrix.references]).encode())
    assert digest.hexdigest() == TABLE1_DIGESTS[ty]



def kronecker_candidates(matrix):
    """Per column block, L12 then L11, its two candidate classes, read off
    the labels alone: (row tag, R, C) with the block's labels grouped
    into copies by their dual y monomial (L04 and L02 rows) or by the
    indices of their index set above r, the b-part (L03 and L01 rows),
    each copy in basis order and the copies in the order of their first
    labels; R and C are None where a block is empty."""
    t, labels = matrix.type, (matrix.rows, matrix.cols)
    candidates = []
    for col_tag, row_tags in (("L12", ("L04", "L03")), ("L11", ("L02", "L01"))):
        for row_tag in row_tags:
            def key(e, by_dy=row_tag in ("L04", "L02")):
                return e.dy if by_dy else tuple(i for i in e.iset if i > t.r)

            groups = []
            for tag, side in zip((row_tag, col_tag), labels):
                groups.append({})
                for i, e in enumerate(side):
                    if e.block == tag:
                        groups[-1].setdefault(key(e), []).append(i)
            if not all(groups):
                candidates.append((col_tag, row_tag, None, None))
                continue
            assert list(groups[0]) == list(groups[1])  # the same copies, in the same order
            candidates.append((col_tag, row_tag, *(np.array(list(g.values())) for g in groups)))
    return candidates


@pytest.mark.parametrize("ty", [(t.nx, t.ny, t.nz, t.r, t.s) for t in system_types(max_dim=3)]
                         + list(TABLE1_DIGESTS))
def test_kronecker_class_candidates_repeat_one_block_per_copy(ty):
    """Both candidate classes of each column block, chosen or not, are K
    (x) I on the symbolic cells: every copy references the same signed
    coefficients, cell for cell; no cell joins the rows of one copy to
    the columns of another; and the rows have no cell outside their own
    copy's columns, but the L02 rows, whose other cells lie in the L12
    columns. `kronecker_classes` holds, L12 then L11, the candidate with
    at least two copies and r <= w that folds the most rows, copies x r,
    and nothing for a column block without one: R and C read-only intp
    arrays, equal to the label grouping."""
    matrix = koszul.assemble_delta1(SystemType(*ty))
    l12 = koszul.layout(matrix.type)[1]["L12"]
    chosen = {}
    for col_tag, row_tag, rows, cols in kronecker_candidates(matrix):
        if rows is None:
            continue
        copy_of, position = [], []
        for index in (rows, cols):
            copy_of.append(np.full(matrix.size, -1))
            copy_of[-1][index] = np.arange(len(index))[:, None]
            position.append(np.full(matrix.size, -1))
            position[-1][index] = np.arange(index.shape[1])
        row_copy, col_copy = copy_of[0][matrix.row_idx], copy_of[1][matrix.col_idx]
        inside = (row_copy >= 0) & (col_copy >= 0)
        assert (row_copy[inside] == col_copy[inside]).all()
        outside = (row_copy >= 0) & ~inside
        if row_tag == "L02":
            assert (matrix.col_idx[outside] >= l12.first).all()
        else:
            assert not outside.any()
        key = position[0][matrix.row_idx] * cols.shape[1] + position[1][matrix.col_idx]
        blocks = [dict(zip(key[inside & (row_copy == j)].tolist(),
                           matrix.ref_idx[inside & (row_copy == j)].tolist()))
                  for j in range(len(rows))]
        assert blocks[0] and all(block == blocks[0] for block in blocks)
        best = chosen.get(col_tag)
        if len(rows) >= 2 and rows.shape[1] <= cols.shape[1] and \
                (best is None or rows.size > best[0].size):
            chosen[col_tag] = rows, cols
    want = [chosen[tag] for tag in ("L12", "L11") if tag in chosen]
    assert len(matrix.kronecker_classes) == len(want)
    for got, pair in zip(matrix.kronecker_classes, want):
        for index, expected in zip(got, pair):
            assert index.dtype == np.intp and not index.flags.writeable
            assert np.array_equal(index, expected)


def test_kronecker_classes_fold_the_b_part_classes_where_they_fold_more():
    """The choice on the det ladder, as the rows each class folds: the
    L03 class over the b-parts wherever it folds more than the L04 class
    (mu = 81, 192, 352, 630, 4125, 6804, 7000), the L01 class where the
    L02 class is taller than wide (mu = 2106, 2450) or, at mu = 6804,
    where it folds more; no L11 class at mu = 136, where the L02 K is 6 x
    4 and the L01 class has one copy."""
    want = {(2, 2, 2, 3, 3): ["L03", "L02"], (3, 3, 1, 4, 3): ["L04"],
            (3, 2, 2, 4, 3): ["L03", "L02"], (10, 1, 1, 10, 2): ["L03", "L02"],
            (2, 6, 4, 7, 5): ["L03", "L02"], (5, 5, 2, 6, 6): ["L04", "L01"],
            (6, 4, 2, 5, 7): ["L04", "L01"], (4, 4, 4, 6, 6): ["L03", "L02"],
            (5, 5, 2, 9, 3): ["L03", "L01"], (6, 3, 3, 6, 6): ["L03", "L02"]}
    rest = {81: 27, 136: 76, 192: 66, 352: 112, 630: 210, 2106: 810, 2450: 840, 4125: 1650,
            6804: 1890, 7000: 3000}
    for ty, tags in want.items():
        t = SystemType(*ty)
        matrix = koszul.assemble_delta1(t)
        row_blocks = koszul.layout(t)[0]
        starts = {tag: block.first for tag, block in row_blocks.items() if block.size}
        got = [max(tag for tag, first in starts.items() if first <= rows.min())
               for rows, _ in matrix.kronecker_classes]
        assert got == tags
        assert matrix.size - sum(rows.size for rows, _ in matrix.kronecker_classes) == \
            rest[matrix.size]


def test_assembly_guards_raise_on_planted_faults(monkeypatch):
    t = SystemType(2, 2, 2, 3, 3)
    assemble = koszul.assemble_delta1.__wrapped__  # past the per-type cache
    terms = koszul._factor_terms

    def first_term_twice(*args):
        return tuple(np.concatenate([v, v[:1]]) for v in terms(*args))

    def no_first_coefficient(*args):
        col_off, row_off, sigma = terms(*args)
        return tuple(v[sigma != 0] for v in (col_off, row_off, sigma))

    with monkeypatch.context() as patch:
        patch.setattr(koszul, "_factor_terms", first_term_twice)
        with pytest.raises(koszul.AssemblyError, match="duplicate entry"):
            assemble(t)
    with monkeypatch.context() as patch:
        # references are numbered by whole (slot, sign) runs
        patch.setattr(koszul, "_factor_terms", no_first_coefficient)
        with pytest.raises(koszul.AssemblyError, match="misses a coefficient"):
            assemble(t)
    with monkeypatch.context() as patch:
        # z-multiplied factors sent to a block without z: no such row
        patch.setitem(koszul._TARGET_BLOCK, ("L11", "xz"), "L01")
        with pytest.raises(koszul.AssemblyError, match="unmatched target row"):
            assemble(t)
    with monkeypatch.context() as patch:
        # L02 index sets that all hold 0: no row group for an L11 column
        patch.setattr(koszul, "_K0_BLOCKS", tuple(
            spec[:6] + (1,) if spec[0] == "L02" else spec for spec in koszul._K0_BLOCKS))
        with pytest.raises(koszul.AssemblyError, match="unmatched index set"):
            assemble(t)
    assert list(assemble(t).entries.items()) == list(reference_entries(t).items())


def test_assembly_builds_labels_only_when_read(monkeypatch):
    """A cold assembly builds no KoszulBasisElement; `rows` and `cols`
    are the bases, built once on first read. The mu guard compares the
    block layout's totals."""
    t = SystemType(2, 2, 2, 3, 3)
    assemble = koszul.assemble_delta1.__wrapped__  # past the per-type cache
    built = []
    real = koszul._block_elements
    monkeypatch.setattr(koszul, "_block_elements",
                        lambda *args: built.append(args[1][0]) or real(*args))
    matrix = assemble(t)
    assert built == []
    assert matrix.rows == koszul.k0_basis(t) and matrix.cols == koszul.k1_basis(t)
    built.clear()
    assert matrix.rows is matrix.rows and matrix.cols is matrix.cols and built == []
    monkeypatch.setattr(koszul, "mu", lambda t: 80)
    with pytest.raises(koszul.AssemblyError, match="basis sizes 81x81 do not match mu = 80"):
        assemble(t)


def scanning_occurrences(matrix, poly, exponent):
    """(row, col, sign) of every entry referencing u_{poly, exponent}, by a
    linear scan of the entries: the oracle for `occurrences`."""
    return [
        (i, j, e.sign)
        for (i, j), e in matrix.entries.items()
        if e.poly == poly and e.exponent == exponent
    ]


def test_occurrences_match_a_linear_scan():
    for t in system_types(5):
        matrix = koszul.assemble_delta1(t)
        assert len(set(matrix.references)) == len(matrix.references)
        assert set(matrix.entries.values()) == set(matrix.references)
        for poly, exponent in {(ref.poly, ref.exponent) for ref in matrix.references}:
            assert matrix.occurrences(poly, exponent) == \
                scanning_occurrences(matrix, poly, exponent)
        assert matrix.occurrences(0, ((9,), (9,), (9,))) == []


def test_entries_lookup_by_cell_behaves_as_a_dict():
    """A lookup scans one column's cells; an absent cell, one outside the
    matrix or counted from the end, and a key that is no cell raise
    KeyError, so `in` and `get` answer as on a dict of the entries."""
    matrix = koszul.assemble_delta1(SystemType(2, 2, 2, 3, 3))
    refs = matrix.references
    want = {(i, j): refs[k] for i, j, k in zip(matrix.row_idx.tolist(), matrix.col_idx.tolist(),
                                               matrix.ref_idx.tolist())}
    n, entries = matrix.size, matrix.entries
    cells = [(i, j) for i in range(-2, n + 2) for j in range(-2, n + 2)]
    assert [entries.get(cell) for cell in cells] == [want.get(cell) for cell in cells]
    assert [cell in entries for cell in cells] == [cell in want for cell in cells]
    i, j = next(iter(want))
    assert entries[np.int64(i), np.intp(j)] == want[i, j]
    assert entries.get((True, 1)) == want.get((1, 1)) and entries.get((0, False)) == want.get((0, 0))
    for key in ((i, j, 0), (i,), "cell", (str(i), j)):
        assert key not in entries and entries.get(key) is None
        with pytest.raises(KeyError):
            entries[key]


def test_entries_items_and_values_look_no_cell_up(monkeypatch):
    """`items` and `values` read the index arrays in one pass; through the
    mapping mixins each cell cost one column scan."""
    matrix = koszul.assemble_delta1(SystemType(2, 2, 2, 3, 3))
    want = reference_entries(matrix.type)

    def lookup(self, cell):
        raise AssertionError("a cell was looked up")

    monkeypatch.setattr(koszul.SymbolicEntries, "__getitem__", lookup)
    assert list(matrix.entries.items()) == list(want.items())
    assert list(matrix.entries.values()) == list(want.values())


def test_column_starts_are_found_once_per_assembled_matrix(monkeypatch):
    """`col_start` is read-only, column j's nonzeros are
    col_start[j]:col_start[j + 1], and specialization, its scalar reads, its
    theta view and cell lookups share it and search nothing again."""
    t = SystemType(2, 2, 2, 3, 3)
    matrix = koszul.assemble_delta1.__wrapped__(t)  # a matrix of its own
    starts = matrix.col_start
    assert starts.dtype == np.intp and not starts.flags.writeable
    assert len(starts) == matrix.size + 1 and starts[0] == 0 and starts[-1] == len(matrix.ref_idx)
    assert (np.repeat(np.arange(matrix.size), np.diff(starts)) == matrix.col_idx).all()
    rng = random.Random(37)
    f0, theta = solver.choose_f0_and_theta(t, rng)
    sys_ = core.random_system(t, rng).with_f0(f0)
    part = koszul.theta_partition(matrix, theta)
    searched = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: searched.append(a) or search(*a, **k))
    coeff = f0.coefficient(theta)
    for field in (None, 1_000_003, 2 ** 64 + 13):
        spec = koszul.specialize(matrix, sys_, field)
        assert spec._cells[1] is matrix.row_idx and spec._cells[2] is matrix.col_idx
        assert spec._cells[3] is starts
        permuted = part.apply(spec)
        want = coeff if field is None else exactlinalg.fraction_mod_p(coeff, field)
        assert [permuted[i, i] for i in range(part.split, part.size)] == [want] * core.mhb(t)
    last = int(matrix.row_idx[-1]), int(matrix.col_idx[-1])
    assert matrix.entries[last] == matrix.references[matrix.ref_idx[-1]]
    assert searched == [] and matrix.col_start is starts


def test_contraction_terms_of_the_paper_example(paper_type):
    matrix = koszul.assemble_delta1(paper_type)
    # the L11 factor dx0 (x) dy0 against the S(1,0,1) slot 3, third in {1,2,3}
    col = matrix.cols.index(KBE("L11", (1, 0), (1, 0), (0, 0), (1, 2, 3)))
    slot3 = {(matrix.rows[i], e) for (i, j), e in matrix.entries.items()
             if j == col and e.poly == 3}
    assert slot3 == {
        (KBE("L02", (0, 0), (1, 0), (1, 0), (1, 2)),
         koszul.SymbolicEntry(1, 3, ((1, 0), (0, 0), (1, 0)))),
        (KBE("L02", (0, 0), (1, 0), (0, 1), (1, 2)),
         koszul.SymbolicEntry(1, 3, ((1, 0), (0, 0), (0, 1)))),
    }
    # a dual-y power of y1 annihilates every y0-only monomial
    y1_squared = {j for j, c in enumerate(matrix.cols) if c.dy == (0, 2)}
    hits = [e for (_, j), e in matrix.entries.items() if j in y1_squared]
    assert hits and all(e.exponent[1] != (1, 0) for e in hits)


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
        references = tuple(dict.fromkeys(entries.values()))
        ref_id = {ref: k for k, ref in enumerate(references)}
        row_idx, col_idx = np.array(list(entries), dtype=np.intp).T
        ref_idx = np.array([ref_id[ref] for ref in entries.values()], dtype=np.intp)
        t = base.type
        slot, sign, pos = (np.array(v) for v in zip(*(
            (ref.poly, ref.sign, core.exponent_basis(t.nvars, t.degree_of(ref.poly)).index(
                ref.exponent)) for ref in references)))
        return koszul.SymbolicResultantMatrix(
            base.type, base.m, base.size, row_idx, col_idx, ref_idx, slot, sign, pos)

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


def test_theta_partition_is_kept_on_the_matrix_and_freed_with_it(paper_type, monkeypatch):
    """A second call for a theta returns its permutations and split
    without reading the references again; another theta gets its own;
    a matrix built afresh starts with none, and a dropped matrix is freed
    at once, since what is kept, its entries view too, does not refer
    back to it."""
    import gc
    import weakref

    base = koszul.assemble_delta1(paper_type)
    matrix = koszul.SymbolicResultantMatrix(base.type, base.m, base.size, base.row_idx,
                                            base.col_idx, base.ref_idx, base.ref_slot,
                                            base.ref_sign, base.ref_pos)
    first = koszul.theta_partition(matrix, THETA)
    other = ((0, 1), (0, 1), (0, 1))
    second_theta = koszul.theta_partition(matrix, other)

    def unread(*args):
        raise AssertionError("the references were read again")

    monkeypatch.setattr(koszul.SymbolicResultantMatrix, "occurrences", unread)
    again = koszul.theta_partition(matrix, THETA)
    assert again == first and again.base is matrix
    assert koszul.theta_partition(matrix, other) == second_theta != first
    monkeypatch.undo()
    fresh = koszul.SymbolicResultantMatrix(base.type, base.m, base.size, base.row_idx,
                                           base.col_idx, base.ref_idx, base.ref_slot,
                                           base.ref_sign, base.ref_pos)
    assert fresh._partitions == {}
    # the entries view and the references kept on it hold no cycle either
    assert len(matrix.entries) == len(base.ref_idx) and matrix.references == base.references
    gone = weakref.ref(matrix)
    gc.disable()
    try:
        del matrix, first, again, second_theta
        assert gone() is None
    finally:
        gc.enable()


def test_structural_theta_property_sweep():
    for t in system_types(6):
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


@pytest.mark.parametrize("field", [2 ** 61 - 1, 2 ** 64 + 13])
def test_specialize_over_f_p_is_the_q_specialization_reduced_mod_p(field):
    """An integer system, whose coefficient tensors are int64, specialized
    over F_p for a prime below and one above 2^63, where reducing the
    int64 tensor mod p overflowed."""
    t = SystemType(2, 2, 2, 3, 3)
    matrix = koszul.assemble_delta1(t)
    rng = random.Random(31)
    sys_ = core.random_system(t, rng).with_f0(solver.choose_f0_and_theta(t, rng)[0])
    over_q = koszul.specialize(matrix, sys_)
    spec = koszul.specialize(matrix, sys_, field)
    assert over_q.array.dtype == np.int64 and spec.array.dtype == object
    assert spec.rows == [[exactlinalg.fraction_mod_p(e, field) for e in row]
                         for row in over_q.rows]


def specializations(storage):
    """(symbolic matrix, theta partition, system, field) of type (2,2,2,3,3)
    for one storage of the specialization: int64 or object, over Q or F_p."""
    t = SystemType(2, 2, 2, 3, 3)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, solver.default_theta(t))
    rng = random.Random(29)
    sys_ = core.random_system(t, rng).with_f0(solver.choose_f0_and_theta(t, rng)[0])
    if storage == "Q object":
        f1 = sys_.f[0]
        third = core.MHPoly(t.nvars, f1.degree, {**f1.terms, next(iter(f1.terms)): "1/3"})
        sys_ = core.BilinearSystem(t, (third, *sys_.f[1:]), sys_.f0)
    field = {"Q int64": None, "Q object": None, "F_p int64": 1_000_003,
             "F_p object": 2 ** 31 + 11}[storage]
    return matrix, part, sys_, field


STORAGES = {"Q int64": np.int64, "Q object": object, "F_p int64": np.int64,
            "F_p object": object}


@pytest.mark.parametrize("storage", list(STORAGES))
def test_scalar_reads_of_a_coordinate_form_specialization_equal_the_dense_reads(storage):
    """Every cell, read by nonnegative, negative and numpy indices, gives
    the dense read's value and Python type (Fraction(0) for an absent cell
    over Q in object storage), and builds no dense array; an index out of
    range raises the dense read's IndexError."""
    matrix, part, sys_, field = specializations(storage)
    spec = koszul.specialize(matrix, sys_, field)
    dense = koszul.specialize(matrix, sys_, field).array
    assert dense.dtype == STORAGES[storage]
    n = matrix.size
    cells = [(i, j) for i in range(n) for j in range(n)]
    want = [dense[i, j] for i, j in cells]
    want = [int(v) if isinstance(v, np.integer) else v for v in want]
    for index in (lambda i, j: (i, j), lambda i, j: (i - n, j - n),
                  lambda i, j: (np.int64(i), np.intp(j - n))):
        got = [spec[index(i, j)] for i, j in cells]
        assert [type(v) for v in got] == [type(v) for v in want]
        assert got == want
    assert Fraction in {type(v) for v in want} or storage != "Q object"
    assert {type(want[k]) for k, (i, j) in enumerate(cells) if (i, j) not in matrix.entries} == \
        {Fraction if storage == "Q object" else int}
    for cell in ((n, 0), (0, n), (-n - 1, 0), (0, -n - 1), (n + 5, -n - 5)):
        with pytest.raises(IndexError) as dense_error:
            dense[cell]
        with pytest.raises(IndexError, match=re.escape(str(dense_error.value))):
            spec[cell]
    assert spec._array is None
    assert spec.rows == dense.tolist() and spec.array.dtype == dense.dtype


@pytest.mark.parametrize("storage", list(STORAGES))
def test_theta_apply_on_dense_and_coordinate_input_agree(storage):
    matrix, part, sys_, field = specializations(storage)
    spec = koszul.specialize(matrix, sys_, field)
    dense = exactlinalg.ExactMatrix._of(koszul.specialize(matrix, sys_, field).array, field)
    by_cells, by_index = part.apply(spec), part.apply(dense)
    assert by_cells._array is None
    assert np.shares_memory(by_cells._cells[4], spec._cells[4])  # a view: no value is copied
    diagonal = [by_cells[i, i] for i in range(part.split, part.size)]
    assert diagonal == [by_index[i, i] for i in range(part.split, part.size)]
    assert [type(v) for v in diagonal] == [type(by_index[i, i])
                                          for i in range(part.split, part.size)]
    assert by_cells._array is None
    assert by_cells.array.dtype == by_index.array.dtype
    assert by_cells.rows == by_index.rows
    assert exactlinalg.det(by_cells) == exactlinalg.det(by_index)


def test_specialize_permute_and_diagonal_reads_allocate_no_dense_array():
    """At mu = 630 specialize, the theta permutation and the M22 diagonal
    reads, as the matrix benchmark runs them, stay far below the 8 mu^2
    bytes of one dense int64 array."""
    import tracemalloc

    t = SystemType(2, 6, 4, 7, 5)
    rng = random.Random(1)
    f0, theta = solver.choose_f0_and_theta(t, rng)
    sys_ = core.random_system(t, rng).with_f0(f0)
    matrix = koszul.assemble_delta1(t)
    part = koszul.theta_partition(matrix, theta)
    for field in (1_000_003, None):
        tracemalloc.start()
        try:
            permuted = part.apply(koszul.specialize(matrix, sys_, field))
            diagonal = [permuted[i, i] for i in range(part.split, part.size)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        coeff = f0.coefficient(theta)
        want = coeff if field is None else exactlinalg.fraction_mod_p(coeff, field)
        assert diagonal == [want] * core.mhb(t)
        assert peak < matrix.size ** 2 * 8 // 3, peak
