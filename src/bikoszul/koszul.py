"""The Koszul resultant matrix of an overdetermined 2-bilinear system.

The matrix represents the only surviving differential of the two-term
complex for the degree vector (ny-1, -1, nx+ny-r+1). Columns are
labelled by

    L11 = Sx(1)* . Sy(r-ny)*   . Sz(0) . wedge_{r, s-nz+1, 0}
    L12 = Sx(1)* . Sy(r-ny+1)* . Sz(0) . wedge_{r, s-nz,   1}

and rows by

    L01 = Sx(0)* . Sy(r-ny-1)* . Sz(0) . wedge_{r-1, s-nz+1, 0}
    L02 = Sx(0)* . Sy(r-ny)*   . Sz(1) . wedge_{r,   s-nz,   0}
    L03 = Sx(0)* . Sy(r-ny)*   . Sz(0) . wedge_{r-1, s-nz,   1}
    L04 = Sx(0)* . Sy(r-ny+1)* . Sz(1) . wedge_{r,   s-nz-1, 1}

where wedge_{a,b,c} is spanned by e_I with I containing a indices from
{1..r}, b from {r+1..n} and (c = 1) the index 0. The differential sends
a column label l (x) e_I to the alternating sum over i of
psi(l, f_{I_i}) (x) e_{I minus I_i}, where psi contracts the dual x and
y factors by the monomials of f_{I_i} and multiplies the z factor.

Every entry is therefore a signed reference to a single coefficient
u_{i, sigma} of one input polynomial; the matrix is stored symbolically
and specialized on demand. One function, `layout`, gives the blocks in
basis order, and assembly, the labels, the Kronecker classes below,
`solver._k1_groups` and `oracle.rho_slots` all read it.

Every equation is linear in x and linear or constant in y and z, and
every column factor is dx = e_i, a dual y monomial dy and dz = 1, so
psi is index arithmetic: x contracts e_i to 1, a unit vector e_b moves
dy one degree down, to the position a cached rank-shift table
(`_lowered`) gives, or annihilates it, and z only multiplies. The
column, target row and sigma positions of every term follow from the
factor, y unit and z unit indices; no exponent is scanned or built.

The matrix is stored in compressed-column form: three index arrays (row,
column, reference), column j's nonzeros at col_start[j]:col_start[j+1],
over the distinct signed references, each kept as three small arrays
(slot, sign, and the flat position of sigma in the slot's coefficient
tensor, `MHPoly.tensor`, whose C order is the x-major `exponent_basis`
order). Rows come in groups of one block and one index set, and inside a
group a row's offset depends on its factor (dx, dy, dz) only, so a row
index is a group start plus an offset. Every index set of a column block
has the same slot class at each position, so one template per block,
built from the psi offsets of each slot class (`_factor_terms`), holds
the entries of any of its index sets in final order; assembly broadcasts
it over the block's index sets with one row group start and one
reference base per (index set, position). `specialize` is one gather
from the system's coefficient tensors (over F_p from their images mod p)
into a table of the references, and one more into an `ExactMatrix` over
the same rows, columns and column starts, of the dtype the values need;
no dense array is built until an elimination reads one.

An equation of S(1,0,1) (a slot r+1..n) contracts dx, multiplies z and
leaves the dual y factor alone, and only such slots send L12 columns to
L04 rows and L11 columns to L02 rows. So those two blocks are K (x) I
over the dual y monomials of their degree: zero between different dy,
with the same block K of signed references for every dy (Van Loan, "The
ubiquitous Kronecker product", 2000), and the L04 rows hold nothing
else. An equation of S(1,1,0) (a slot 1..r) contracts dx and one y and
leaves z and the indices above r alone, and only such slots send L12
columns to L03 rows and L11 columns to L01 rows, with a sign fixed by
the position of the slot's index, which comes before every index above
r. So those two blocks are K (x) I over the b-parts, the sets of
indices above r, and the L03 and L01 rows hold nothing else. Assembly
keeps, for the L12 columns and then the L11 columns, whichever of the
two classes folds the most rows, copies x r, among those with two
copies or more and K no taller than wide, as the matrix's
`kronecker_classes`, each a pair of read-only index arrays R (copies x
r) and C (copies x w): each block's index range, reshaped by (index
set, dx, dy, dz) with dy moved to the front, or by (a-part, b-part,
factor) with the b-part moved to the front; it decides from the
`layout`'s block sizes alone. `specialize` hands them to the
`ExactMatrix`, whose `det` folds them away before each elimination mod
p; `submatrix`, and so `ThetaPartition.apply`, drops them. `occurrences`, and so
`theta_partition`, masks the reference arrays; `ThetaPartition` permutes
by composing index selections. `rows`, `cols`, `references` and
`col_start` are built on first read.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb, prod
from typing import NamedTuple

import numpy as np

from .core import (
    Block,
    DomainError,
    Exponent,
    BilinearSystem,
    SystemType,
    _exponent_basis,
    exponent_basis,
    exponent_key,
    mhb,
    monomial_basis,
)
from .exactlinalg import ExactMatrix, cell_position, require_prime, storage_dtype
from .weyman import mu


class AssemblyError(RuntimeError):
    """Internal label mismatch while building the matrix (a bug guard)."""


@dataclass(frozen=True)
class KoszulBasisElement:
    """One row or column label: block tag, dual-x and dual-y exponents,
    z exponent, and the exterior index set (sorted ascending)."""

    block: str
    dx: Block
    dy: Block
    dz: Block
    iset: tuple[int, ...]


class SymbolicEntry(NamedTuple):
    """A matrix entry: the coefficient reference sign * u_{poly, exponent}."""

    sign: int
    poly: int
    exponent: Exponent


# (block tag, dx degree, dy degree shift, dz degree, a, b shift, c)
_K1_BLOCKS = (("L11", 1, 0, 0, 0, 1, 0), ("L12", 1, 1, 0, 0, 0, 1))
_K0_BLOCKS = (
    ("L01", 0, -1, 0, -1, 1, 0),
    ("L02", 0, 0, 1, 0, 0, 0),
    ("L03", 0, 0, 0, -1, 0, 1),
    ("L04", 0, 1, 1, 0, -1, 1),
)


class BlockLayout(NamedTuple):
    """One block of the Koszul basis: from row or column `first` on, every
    index set (canonical order) with every factor (dx, dy, dz) of these
    degrees, `count` per index set, index set major; empty without sets."""

    tag: str
    first: int
    isets: tuple[tuple[int, ...], ...]
    degrees: tuple[int, int, int]
    count: int

    @property
    def size(self) -> int:
        return len(self.isets) * self.count


def layout(t: SystemType) -> tuple[dict[str, BlockLayout], dict[str, BlockLayout]]:
    """The row blocks L01..L04 and the column blocks L11, L12, each side
    by tag in basis order; blocks of negative degree or impossible index
    counts are empty. Not cached: a reader that needs it twice passes it."""
    sides = []
    for specs in (_K0_BLOCKS, _K1_BLOCKS):
        blocks, first = {}, 0
        for tag, dx_deg, dy_shift, dz_deg, a_shift, b_shift, c in specs:
            degrees = (dx_deg, t.r - t.ny + dy_shift, dz_deg)
            a, b = t.r + a_shift, t.s - t.nz + b_shift
            isets, count = (), 0
            if degrees[1] >= 0 and 0 <= a <= t.r and 0 <= b <= t.s:
                isets = tuple((0,) * c + apart + bpart
                              for apart in combinations(range(1, t.r + 1), a)
                              for bpart in combinations(range(t.r + 1, t.n + 1), b))
                count = prod(comb(n + d, d) for n, d in zip(t.dims, degrees))
            blocks[tag] = BlockLayout(tag, first, isets, degrees, count)
            first += blocks[tag].size
        sides.append(blocks)
    return tuple(sides)


def _block_elements(t: SystemType, block: BlockLayout) -> list[KoszulBasisElement]:
    factors = list(product(*(monomial_basis(n, d) for n, d in zip(t.dims, block.degrees))))
    return [KoszulBasisElement(block.tag, dx, dy, dz, iset)
            for iset in block.isets for dx, dy, dz in factors]


def k1_basis(t: SystemType) -> list[KoszulBasisElement]:
    """Ordered column labels: all of L11, then all of L12; within a block
    ordered by (index set, dx, dy) in the canonical monomial order."""
    return [e for block in layout(t)[1].values() for e in _block_elements(t, block)]


def k0_basis(t: SystemType) -> list[KoszulBasisElement]:
    """Ordered row labels, block order L01, L02, L03, L04; empty blocks
    (negative degrees or impossible index counts) contribute nothing."""
    return [e for block in layout(t)[0].values() for e in _block_elements(t, block)]


@lru_cache(maxsize=None)
def _lowered(n: int, d: int) -> np.ndarray:
    """Position of m - e_a among the degree d - 1 monomials in n + 1
    variables, for every degree-d monomial m (rows, canonical order) and
    variable a (columns); -1 where m_a = 0, which annihilates m."""
    below = {m: k for k, m in enumerate(monomial_basis(n, d - 1))}
    table = np.array([[below.get(m[:a] + (m[a] - 1,) + m[a + 1:], -1) for a in range(n + 1)]
                      for m in monomial_basis(n, d)], dtype=np.intp).reshape(-1, n + 1)
    table.flags.writeable = False
    return table


# target row block, given the column block and the class of the
# contracted equation slot (0, "xy" for slots 1..r, "xz" for the rest)
_TARGET_BLOCK = {
    ("L11", "xy"): "L01",
    ("L11", "xz"): "L02",
    ("L12", 0): "L02",
    ("L12", "xy"): "L03",
    ("L12", "xz"): "L04",
}


class SymbolicEntries(Mapping):
    """Read-only (row, col) -> SymbolicEntry view of a symbolic matrix,
    iterated in assembly order, with the table of its references. It
    keeps the matrix's arrays, not the matrix, which keeps it: a cycle
    would hold the matrix until the garbage collector runs. Its length is
    read off the index arrays; a lookup by cell scans the cells of its
    column (`cell_position`); `items` and `values` read the arrays once."""

    def __init__(self, matrix: SymbolicResultantMatrix):
        self._type, self._size = matrix.type, matrix.size
        self._cells = (matrix.row_idx, matrix.col_idx, matrix.ref_idx)
        self._col_start = matrix.col_start
        self._refs = (matrix.ref_sign, matrix.ref_slot, matrix.ref_pos)

    def __len__(self) -> int:
        return len(self._cells[2])

    def __iter__(self):
        return zip(self._cells[0].tolist(), self._cells[1].tolist())

    def __getitem__(self, cell) -> SymbolicEntry:
        i, j = cell if isinstance(cell, tuple) and len(cell) == 2 else (None, None)
        column = isinstance(j, (int, np.integer)) and 0 <= j < self._size
        k = cell_position(self._cells[0], self._col_start, i, int(j)) if column else None
        if k is None:
            raise KeyError(cell)
        return self.references[self._cells[2][k]]

    def values(self) -> list[SymbolicEntry]:
        return [self.references[k] for k in self._cells[2].tolist()]

    def items(self) -> list[tuple[tuple[int, int], SymbolicEntry]]:
        return list(zip(self, self.values()))

    @cached_property
    def references(self) -> tuple[SymbolicEntry, ...]:
        """The references as `SymbolicEntry`s, indexed by reference number."""
        t = self._type
        bases = [_exponent_basis(t.nvars, t.degree_of(slot)) for slot in range(t.n + 1)]
        return tuple(SymbolicEntry(sign, slot, bases[slot][pos])
                     for sign, slot, pos in zip(*(v.tolist() for v in self._refs)))


@dataclass(eq=False)
class SymbolicResultantMatrix:
    """Square symbolic matrix in compressed-column form: nonzero k sits at
    (row_idx[k], col_idx[k]) and is reference q = ref_idx[k], the signed
    coefficient ref_sign[q] * u_{ref_slot[q], sigma} for sigma the
    ref_pos[q]-th exponent of the slot's degree, x-major
    (`exponent_basis`), which is the flat position of u_{slot, sigma} in
    the slot's coefficient tensor (`MHPoly.tensor`). References are
    numbered by slot, then sign (+1 first), then position; each is used.
    The nonzeros are ordered by column, then by the position of the
    contracted slot in the column's index set, then by psi term; the
    arrays are read-only. `kronecker_classes` are the (R, C) index pairs
    of the blocks that are K (x) I (`_kronecker_classes`), built with
    the matrix, so once per type. The column starts, row and column labels and
    `references` are built on first read, and the permutations and split
    of each theta's `theta_partition` on its first call, kept with it."""

    type: SystemType
    m: tuple[int, int, int]
    size: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    ref_idx: np.ndarray
    ref_slot: np.ndarray
    ref_sign: np.ndarray
    ref_pos: np.ndarray
    kronecker_classes: tuple = ()
    _partitions: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def col_start(self) -> np.ndarray:
        """Column j's nonzeros are col_start[j]:col_start[j + 1] (read-only)."""
        starts = np.searchsorted(self.col_idx, np.arange(self.size + 1))
        starts.flags.writeable = False
        return starts

    @cached_property
    def rows(self) -> list[KoszulBasisElement]:
        """The row labels, `k0_basis`."""
        return k0_basis(self.type)

    @cached_property
    def cols(self) -> list[KoszulBasisElement]:
        """The column labels, `k1_basis`."""
        return k1_basis(self.type)

    @cached_property
    def entries(self) -> SymbolicEntries:
        """The nonzeros as a read-only (row, col) -> SymbolicEntry mapping."""
        return SymbolicEntries(self)

    @property
    def references(self) -> tuple[SymbolicEntry, ...]:
        """The references as `SymbolicEntry`s, indexed by reference number
        (`SymbolicEntries.references`)."""
        return self.entries.references

    def occurrences(self, poly: int, exponent: Exponent) -> list[tuple[int, int, int]]:
        """(row, col, sign) of every entry referencing u_{poly, exponent}, by column."""
        t = self.type
        try:
            pos = _exponent_basis(t.nvars, t.degree_of(poly)).index(exponent)
        except (IndexError, ValueError):  # no such slot or exponent
            return []
        ids = np.flatnonzero((self.ref_slot == poly) & (self.ref_pos == pos))
        cells = np.flatnonzero(np.isin(self.ref_idx, ids))
        return list(zip(self.row_idx[cells].tolist(), self.col_idx[cells].tolist(),
                        self.ref_sign[self.ref_idx[cells]].tolist()))


def _factor_terms(t: SystemType, dy_deg: int, deg_y: int,
                  deg_z: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi of every column factor against a slot of degree (1, deg_y,
    deg_z), as (factor index, target factor index, sigma position) arrays
    in psi order, so by factor index. They depend on the column block and
    the slot's class only: the slot and the sign enter the reference id,
    the index set the row group. The factor e_i (x) dy (x) 1, dy the j-th
    dual y of degree dy_deg, has index i * ndy + j and meets sigma = e_i
    in x, e_b (dy contracts to the `_lowered` entry) or 1 in y, and every
    e_c or 1 in z, which multiplies."""
    lowered = _lowered(t.ny, dy_deg)
    ndy = len(lowered)
    target_y = lowered if deg_y else np.arange(ndy)[:, None]  # (dy, y unit) -> target dy or -1
    nsy, nsz = target_y.shape[1], t.nz + 1 if deg_z else 1
    i, j, b, c = np.indices((t.nx + 1, ndy, nsy, nsz), sparse=True)
    target_y = target_y[None, :, :, None]
    keep = np.broadcast_to(target_y >= 0, (t.nx + 1, ndy, nsy, nsz))
    return tuple(np.broadcast_to(v, keep.shape)[keep]
                 for v in (i * ndy + j, target_y * nsz + c, (i * nsy + b) * nsz + c))


def _block_template(t: SystemType, block: BlockLayout,
                    row_blocks: dict) -> tuple[list, tuple[np.ndarray, ...]]:
    """The entries that every index set of a nonempty column block gives,
    read off its first: (target block per slot position, None for a
    position without terms; (factor index, slot position, target factor
    index, sigma position) arrays in (factor, position, psi term) order).

    An index set takes its slots 0, 1..r and r+1..n in that order and
    in fixed numbers per block, so each position has one slot class, and
    its terms are the class's `_factor_terms`, in factor order. The
    positions' runs, concatenated in position order, take one stable
    sort by factor. Two positions of a column remove different slots, so
    their entries land in different row groups; a cell repeats only if a
    class's terms repeat a (factor, target factor) pair, which is checked
    once per class, as is that the terms meet every coefficient of the
    slot, by which assembly numbers the references. `row_blocks` are the
    row blocks of the `layout`."""
    tag, slots, (_, dy_deg, _), count = block.tag, block.isets[0], block.degrees, block.count
    classes = [0 if slot == 0 else ("xy" if slot <= t.r else "xz") for slot in slots]
    distinct = list(dict.fromkeys(classes))
    terms, targets = [], {}
    for slot_class in distinct:
        _, deg_y, deg_z = t.degree_of(slots[classes.index(slot_class)])
        col_off, row_off, sigma = _factor_terms(t, dy_deg, deg_y, deg_z)
        terms.append((col_off, row_off, sigma))
        if not len(col_off):
            continue
        target = targets[slot_class] = _TARGET_BLOCK[(tag, slot_class)]
        degrees = row_blocks[target].degrees
        if degrees != (0, dy_deg - deg_y, deg_z):
            raise AssemblyError(f"unmatched target rows: {tag} against a slot of class "
                                f"{slot_class!r} has no factor degrees {degrees} of {target}")
        seen = np.zeros((count, int(row_off.max()) + 1), dtype=bool)
        seen[col_off, row_off] = True
        if np.count_nonzero(seen) != len(col_off):
            raise AssemblyError(f"duplicate entry: psi of {tag} against a slot of class "
                                f"{slot_class!r} repeats a (factor, target) pair")
        slot_width = prod(nv if d else 1 for nv, d in zip(t.nvars, (1, deg_y, deg_z)))
        if not np.bincount(sigma, minlength=slot_width).all():
            raise AssemblyError(f"psi of {tag} against a slot of class {slot_class!r} "
                                f"misses a coefficient")
    runs = [terms[distinct.index(slot_class)] for slot_class in classes]  # one per position
    col_off, row_off, sigma = (np.concatenate(v) for v in zip(*runs))
    pos = np.repeat(np.arange(len(slots)), [len(run[0]) for run in runs])
    order = np.argsort(col_off, kind="stable")  # each factor's runs in position order
    col_off, pos, row_off, sigma = (v[order] for v in (col_off, pos, row_off, sigma))
    return [targets.get(slot_class) for slot_class in classes], (col_off, pos, row_off, sigma)


@lru_cache(maxsize=None)
def assemble_delta1(t: SystemType) -> SymbolicResultantMatrix:
    """Build the symbolic Koszul resultant matrix for the fixed degree
    vector (ny-1, -1, nx+ny-r+1).

    The column for l (x) e_I receives, for the i-th smallest index of I,
    the terms of psi(l, f_{I_i}) with sign (-1)^(i-1) at the row
    labelled by the contracted factor tensored with e_{I minus I_i}.
    Rows come in groups of one block and index set (`layout`), and inside
    a group a row's offset depends on its factor only, so every row index
    is a group start plus a factor offset. Each column block has one template
    (`_block_template`), broadcast over its index sets with one row
    group start and one reference base per (index set, slot position).
    A block holds every factor of its degrees, so the contracted factors
    find their rows exactly when the target block has their degrees.
    """
    size = mu(t)
    row_blocks, col_blocks = layout(t)
    ncols, nrows = (sum(block.size for block in side.values()) for side in (col_blocks, row_blocks))
    if (ncols, nrows) != (size, size):
        raise AssemblyError(f"basis sizes {ncols}x{nrows} do not match mu = {size} for {t}")
    group = {tag: {iset: block.first + k * block.count for k, iset in enumerate(block.isets)}
             for tag, block in row_blocks.items()}  # block tag -> {index set: first row}
    width = np.array([prod(nv if d else 1 for nv, d in zip(t.nvars, t.degree_of(slot)))
                      for slot in range(t.n + 1)])  # coefficients per slot
    used = np.zeros((t.n + 1, 2), dtype=bool)  # the (slot, sign < 0) pairs that occur
    plans = []  # (column block, row group starts, index sets, template)
    for block in col_blocks.values():
        if not block.isets:
            continue
        targets, template = _block_template(t, block, row_blocks)
        row0 = np.zeros((len(block.isets), len(targets)), dtype=np.intp)
        for k, iset in enumerate(block.isets):
            for p, target in enumerate(targets):
                if target is None:
                    continue
                rest = iset[:p] + iset[p + 1:]
                row0[k, p] = group[target].get(rest, -1)
                if row0[k, p] < 0:
                    raise AssemblyError(f"unmatched index set {rest} in block {target} "
                                        f"from column block {block.tag}, index set {iset}")
        slots = np.array(block.isets)
        live = np.array([p for p, target in enumerate(targets) if target is not None],
                        dtype=np.intp)
        used[slots[:, live], live % 2] = True
        plans.append((block, row0, slots, template))
    # a (slot, sign) pair that occurs meets every sigma of the slot (`_block_template`),
    # so reference sign * u_{slot, sigma} is number first_ref[slot, sign < 0] + position
    run = used * width[:, None]
    first_ref = (np.cumsum(run) - run.ravel()).reshape(run.shape)
    nnz = sum(len(row0) * len(template[0]) for _, row0, _, template in plans)
    row_idx, col_idx, ref_idx = (np.empty(nnz, dtype=np.intp) for _ in range(3))
    end = 0
    for block, row0, slots, (col_off, pos, row_off, sigma) in plans:
        shape = (len(row0), len(col_off))
        rows, cols, refs = (a[end:end + prod(shape)].reshape(shape)
                            for a in (row_idx, col_idx, ref_idx))
        np.take(row0, pos, axis=1, out=rows, mode="clip")  # unbuffered; pos is in range
        rows += row_off
        np.add.outer(block.first + block.count * np.arange(shape[0]), col_off, out=cols)
        ref0 = first_ref[slots, np.arange(slots.shape[1]) % 2]
        np.take(ref0, pos, axis=1, out=refs, mode="clip")
        refs += sigma
        end += prod(shape)
    slot, negative = np.nonzero(used)
    ref_slot = np.repeat(slot, width[slot])
    ref_sign = np.repeat(1 - 2 * negative, width[slot])
    ref_pos = np.arange(len(ref_slot)) - np.repeat(first_ref[slot, negative], width[slot])
    arrays = (row_idx, col_idx, ref_idx, ref_slot, ref_sign, ref_pos)
    for array in arrays:
        array.flags.writeable = False
    return SymbolicResultantMatrix(t, (t.ny - 1, -1, t.nx + t.ny - t.r + 1), size, *arrays,
                                   _kronecker_classes(t, row_blocks, col_blocks))


def _kronecker_classes(t: SystemType, row_blocks: dict, col_blocks: dict) -> tuple:
    """The Kronecker classes (R, C) of the matrix (`ExactMatrix.from_csc`),
    from the `layout`: for the L12 columns, then the L11 columns, the one
    of its two candidate row blocks whose class folds the most rows,
    copies x r, among those with at least two copies and r <= w; a column
    block with neither has no class.

    The candidates are the L04 and L03 rows for L12, the L02 and L01 rows
    for L11. A slot of class "xz" contracts dx, multiplies z and leaves
    dy alone, and only such slots send those columns to the L04 or L02
    rows, so their copies are the dual y monomials dy of the shared
    degree: copy j holds every label of the block with the j-th dy, by
    (index set, dx, dz), the block's index range as (index set, dx, dy,
    dz) with dy moved to the front. A slot of class "xy" contracts dx and
    one y, leaves z and the indices above r alone, and only such slots
    send them to the L03 or L01 rows. Its sign depends only on the
    position of its index among 1..r, all before those above r, so the
    copies are the b-parts, the indices above r, in canonical order: copy
    j holds every label with the j-th b-part, by (a-part, factor), the
    block's index range as (a-part, b-part, factor) with the b-part moved
    to the front; the column blocks hold every index 1..r. In either
    family the terms, and so the block K, are the same in every copy, and
    the rows hold no cell outside it but the L02 rows, which the L12
    columns reach by slot 0. R (copies x r) and C (copies x w) are
    read-only."""
    classes = []
    for col_tag, row_tags in (("L12", ("L04", "L03")), ("L11", ("L02", "L01"))):
        cols, best = col_blocks[col_tag], None
        for tag, by_dy in zip(row_tags, (True, False)):
            rows = row_blocks[tag]
            if not (rows.isets and cols.isets):
                continue
            # the copies: dy of the shared degree, or the column block's b-parts
            copies = comb(t.ny + rows.degrees[1], rows.degrees[1]) if by_dy else len(cols.isets)
            if copies >= 2 and rows.size <= cols.size and (best is None or rows.size > best[0].size):
                best = rows, copies, by_dy
        if best is None:
            continue
        rows, copies, by_dy = best
        pair = []
        for block in (rows, cols):
            index = np.arange(block.first, block.first + block.size, dtype=np.intp)
            if by_dy:  # (index set, dx, dy, dz), dy to the front
                shape = [len(block.isets)] + [comb(n + d, d) for n, d in zip(t.dims, block.degrees)]
                index = index.reshape(shape).transpose(2, 0, 1, 3)
            else:  # (a-part, b-part, factor), the b-part to the front
                index = index.reshape(-1, copies, block.count).transpose(1, 0, 2)
            index = index.reshape(copies, -1)
            index.flags.writeable = False
            pair.append(index)
        classes.append(tuple(pair))
    return tuple(classes)


def specialize(matrix: SymbolicResultantMatrix, sys: BilinearSystem,
               field: int | None = None) -> ExactMatrix:
    """Replace each reference sign * u_{i, sigma} by the coefficient of
    monomial sigma in equation i; absent monomials give 0. The references
    are valued by one gather from the equations' coefficient tensors
    (`MHPoly.tensor`, built on first use): over F_p from their images
    (`BilinearSystem.tensor_mod_p`), over Q from the tensors as they are
    when every denominator is 1 and every tensor int64, else as
    Fractions. The nonzeros are then one gather from that table, and the
    result shares the matrix's `row_idx`, `col_idx` and `col_start`, and
    carries its `kronecker_classes` for `det`: its dense array
    is built on first read."""
    if sys.type != matrix.type:
        raise DomainError("system type does not match the matrix")
    if sys.f0 is None:
        raise DomainError("specialization needs the trilinear f0")
    slots = range(sys.type.n + 1)

    def gather(flat):  # the coefficient of each reference, without its sign
        offsets = np.cumsum([0] + [len(v) for v in flat])
        return np.concatenate(flat)[offsets[matrix.ref_slot] + matrix.ref_pos]

    if field is not None:
        require_prime(field)
        values = gather([sys.tensor_mod_p(i, field).ravel() for i in slots])
        table = np.where(matrix.ref_sign > 0, values, (field - values) % field)
    else:
        tensors = [sys.poly(i).tensor for i in slots]
        values = gather([tensor.ravel() for tensor, _ in tensors])
        if values.dtype == np.int64 and all(denom == 1 for _, denom in tensors):
            table = values * matrix.ref_sign
        else:
            denoms = [tensors[slot][1] for slot in matrix.ref_slot.tolist()]
            exact = [Fraction(int(v) * sign, denom) for v, sign, denom in
                     zip(values.tolist(), matrix.ref_sign.tolist(), denoms)]
            table = np.empty(len(exact), dtype=storage_dtype(exact, None))
            table[:] = [int(v) for v in exact] if table.dtype == np.int64 else exact
    return ExactMatrix.from_csc((matrix.size, matrix.size), matrix.row_idx, matrix.col_idx,
                                matrix.col_start, table[matrix.ref_idx], field,
                                matrix.kronecker_classes)


@dataclass
class ThetaPartition:
    """Row/column rearrangement putting every u_{0, theta} reference on
    the diagonal of the trailing square block M22.

    row_perm/col_perm are read-only intp arrays of the original indices
    in their new order; the trailing `size - split` positions are the
    M22 pairs, aligned so the k-th trailing row meets the k-th trailing
    column on the diagonal.
    """

    base: SymbolicResultantMatrix
    theta: Exponent
    row_perm: np.ndarray
    col_perm: np.ndarray
    split: int

    @property
    def size(self) -> int:
        return self.base.size

    def apply(self, matrix: ExactMatrix) -> ExactMatrix:
        """Reorder a specialization of the base matrix: in O(size) as a view
        of one in compressed-column form, as `specialize` returns it, else
        by one fancy index of the dense array."""
        if matrix.nrows != self.size or matrix.ncols != self.size:
            raise DomainError("matrix size does not match the partition")
        return matrix.submatrix(self.row_perm, self.col_perm)


def theta_partition(matrix: SymbolicResultantMatrix, theta: Exponent) -> ThetaPartition:
    """Locate the u_{0, theta} entries and split the matrix around them.

    The construction guarantees (and this function asserts) that the
    references occur exactly mhb(type) times, in distinct rows and
    columns, all with sign +1; a violation means an assembly bug. Their
    column order pairs the trailing rows and columns. The permutations
    and the split are kept on the matrix, one set per theta, and later
    calls return them again; they live as long as the matrix.
    """
    known = matrix._partitions.get(theta)
    if known is not None:
        return ThetaPartition(matrix, theta, *known)
    t = matrix.type
    if theta not in set(exponent_basis(t.nvars, (1, 1, 1))):
        raise DomainError(f"theta {theta} is not a trilinear exponent for {t}")
    hits = np.array(matrix.occurrences(0, theta), dtype=np.intp).reshape(-1, 3)
    expected = mhb(t)
    if len(hits) != expected:
        raise AssemblyError(
            f"u_0,{exponent_key(theta)} occurs {len(hits)} times, expected {expected}")
    if (hits[:, 2] != 1).any():
        raise AssemblyError("theta diagonal reference with sign -1")
    trail_rows, trail_cols = hits[:, 0], hits[:, 1]
    if len(np.unique(trail_rows)) != expected or len(np.unique(trail_cols)) != expected:
        raise AssemblyError("theta references share a row or column")
    perms = []
    for trail in (trail_rows, trail_cols):
        lead = np.ones(matrix.size, dtype=bool)
        lead[trail] = False
        perm = np.concatenate([np.flatnonzero(lead), trail])
        perm.flags.writeable = False
        perms.append(perm)
    # the permutations and the split only: a partition holds its matrix,
    # and a cycle would outlive the last reference to the matrix
    known = matrix._partitions[theta] = (*perms, matrix.size - expected)
    return ThetaPartition(matrix, theta, *known)


def label_str(elem: KoszulBasisElement) -> str:
    def tup(block):
        return "(" + ",".join(str(e) for e in block) + ")"

    iset = "{" + ",".join(str(i) for i in elem.iset) + "}"
    return f"{elem.block}|dx={tup(elem.dx)}|dy={tup(elem.dy)}|dz={tup(elem.dz)}|I={iset}"


def entry_str(entry: SymbolicEntry) -> str:
    sign = "+" if entry.sign > 0 else "-"
    return f"{sign}u[{entry.poly}][{exponent_key(entry.exponent)}]"
