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
and specialized on demand.

Every equation is linear in x and linear or constant in y and z, and
every column factor is dx = e_i, a dual y monomial dy and dz = 1, so
psi is index arithmetic: x contracts e_i to 1, a unit vector e_b moves
dy one degree down, to the position a cached rank-shift table
(`_lowered`) gives, or annihilates it, and z only multiplies. The
column, target row and sigma positions of every term follow from the
factor, y unit and z unit indices; no exponent is scanned or built.

The matrix is stored in coordinate form: three index arrays (row,
column, reference) over a short table of the distinct signed
references. Rows come in groups of one block and one index set, and
inside a group a row's offset depends on its factor (dx, dy, dz) only,
so a row index is a group start plus an offset. Assembly computes psi
once per column block and slot class, as offset arrays broadcast over
(factor, y unit, z unit), and places each (column group, slot) with
numpy; no per-entry or per-factor dict is built.
`specialize` values each reference once, then gathers the nonzeros
from that table into an `ExactMatrix` in coordinate form, of the dtype
they need (int64 over Q for an integer system); no dense array is built
until an elimination reads one. `occurrences`, and so
`theta_partition`, picks reference ids from the table and masks the
reference array once; `ThetaPartition` permutes by remapping the cell
indices. Assembly builds no labels: `rows` and `cols` are built on
first read.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, compress, product
from typing import NamedTuple

import numpy as np

from .core import (
    Block,
    DomainError,
    Exponent,
    BilinearSystem,
    SystemType,
    exponent_basis,
    exponent_key,
    mhb,
    monomial_basis,
)
from .exactlinalg import ExactMatrix, fraction_mod_p, storage_dtype
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


def _block_layout(t: SystemType, spec) -> tuple[list, list]:
    """(index sets, factors (dx, dy, dz)) of one block, each in canonical
    order; the block's labels are every index set with every factor,
    index set major. Both lists are empty for an empty block."""
    tag, dx_deg, dy_shift, dz_deg, a_shift, b_shift, c = spec
    dy_deg = t.r - t.ny + dy_shift
    a = t.r + a_shift
    b = t.s - t.nz + b_shift
    if dy_deg < 0 or not (0 <= a <= t.r) or not (0 <= b <= t.s):
        return [], []
    head = (0,) if c else ()
    isets = [head + apart + bpart
             for apart in combinations(range(1, t.r + 1), a)
             for bpart in combinations(range(t.r + 1, t.n + 1), b)]
    factors = list(product(monomial_basis(t.nx, dx_deg), monomial_basis(t.ny, dy_deg),
                           monomial_basis(t.nz, dz_deg)))
    return isets, factors


def _block_elements(t: SystemType, spec) -> list[KoszulBasisElement]:
    isets, factors = _block_layout(t, spec)
    return [KoszulBasisElement(spec[0], dx, dy, dz, iset)
            for iset in isets for dx, dy, dz in factors]


def k1_basis(t: SystemType) -> list[KoszulBasisElement]:
    """Ordered column labels: all of L11, then all of L12; within a block
    ordered by (index set, dx, dy) in the canonical monomial order."""
    return _block_elements(t, _K1_BLOCKS[0]) + _block_elements(t, _K1_BLOCKS[1])


def k0_basis(t: SystemType) -> list[KoszulBasisElement]:
    """Ordered row labels, block order L01, L02, L03, L04; empty blocks
    (negative degrees or impossible index counts) contribute nothing."""
    out = []
    for spec in _K0_BLOCKS:
        out.extend(_block_elements(t, spec))
    return out


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
    iterated in assembly order. Its length is read off the index arrays;
    the first lookup by cell builds a cell -> position index."""

    def __init__(self, matrix: SymbolicResultantMatrix):
        self._matrix = matrix
        self._position = None

    def __len__(self) -> int:
        return len(self._matrix.ref_idx)

    def __iter__(self):
        return zip(self._matrix.row_idx.tolist(), self._matrix.col_idx.tolist())

    def __getitem__(self, cell) -> SymbolicEntry:
        if self._position is None:
            self._position = {key: k for k, key in enumerate(self)}
        return self._matrix.references[self._matrix.ref_idx[self._position[cell]]]


@dataclass(eq=False)
class SymbolicResultantMatrix:
    """Square symbolic matrix in coordinate form: nonzero k sits at
    (row_idx[k], col_idx[k]) and is the signed reference
    references[ref_idx[k]]. The nonzeros are ordered by column, then by
    the position of the contracted slot in the column's index set, then
    by psi term; the arrays are read-only. The row and column labels
    are built on first read, and the permutations and split of each
    theta's `theta_partition` on its first call, kept with the matrix."""

    type: SystemType
    m: tuple[int, int, int]
    size: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    ref_idx: np.ndarray
    references: tuple[SymbolicEntry, ...]
    _partitions: dict = field(default_factory=dict, init=False, repr=False)

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

    def occurrences(self, poly: int, exponent: Exponent) -> list[tuple[int, int, int]]:
        """(row, col, sign) of every entry referencing u_{poly, exponent}."""
        ids = [k for k, ref in enumerate(self.references)
               if ref.poly == poly and ref.exponent == exponent]
        cells = np.flatnonzero(np.isin(self.ref_idx, ids))
        return [(i, j, self.references[k].sign)
                for i, j, k in zip(self.row_idx[cells].tolist(), self.col_idx[cells].tolist(),
                                   self.ref_idx[cells].tolist())]


def _reference_table(t: SystemType) -> tuple[list[SymbolicEntry], dict]:
    """Every signed reference of the type: (table, base), where reference
    sign * u_{slot, sigma} is table[base[slot, sign < 0] + k] for sigma
    the k-th exponent of the slot's degree, x-major (`exponent_basis`)."""
    table, base = [], {}
    for slot in range(t.n + 1):
        basis = exponent_basis(t.nvars, t.degree_of(slot))
        for negative, sign in enumerate((1, -1)):
            base[slot, negative] = len(table)
            table.extend(SymbolicEntry(sign, slot, sigma) for sigma in basis)
    return table, base


def _factor_terms(t: SystemType, dy_deg: int, deg_y: int,
                  deg_z: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi of every column factor against a slot of degree (1, deg_y,
    deg_z), as (factor index, target factor index, sigma position) arrays
    in psi order. They depend on the column block and the slot's class
    only: the slot and the sign enter the reference id, the index set
    the row group. The factor e_i (x) dy (x) 1, dy the j-th dual y of
    degree dy_deg, has index i * ndy + j and meets sigma = e_i in x, e_b
    (dy contracts to the `_lowered` entry) or 1 in y, and every e_c or 1
    in z, which multiplies."""
    lowered = _lowered(t.ny, dy_deg)
    ndy = len(lowered)
    target_y = lowered if deg_y else np.arange(ndy)[:, None]  # (dy, y unit) -> target dy or -1
    nsy, nsz = target_y.shape[1], t.nz + 1 if deg_z else 1
    i, j, b, c = np.indices((t.nx + 1, ndy, nsy, nsz), sparse=True)
    target_y = target_y[None, :, :, None]
    keep = np.broadcast_to(target_y >= 0, (t.nx + 1, ndy, nsy, nsz))
    return tuple(np.broadcast_to(v, keep.shape)[keep]
                 for v in (i * ndy + j, target_y * nsz + c, (i * nsy + b) * nsz + c))


@lru_cache(maxsize=None)
def assemble_delta1(t: SystemType) -> SymbolicResultantMatrix:
    """Build the symbolic Koszul resultant matrix for the fixed degree
    vector (ny-1, -1, nx+ny-r+1).

    The column for l (x) e_I receives, for the i-th smallest index of I,
    the terms of psi(l, f_{I_i}) with sign (-1)^(i-1) at the row
    labelled by the contracted factor tensored with e_{I minus I_i}.
    Rows come in groups of one block and index set, and inside a group a
    row's offset depends on its factor only, so every row index is a
    group start plus a factor offset; each (column group, slot) adds its
    cached factor terms at once. A block holds every factor of its
    degrees, so the contracted factors find their rows exactly when the
    target block has their degrees.
    """
    size = mu(t)
    group_start, degrees = {}, {}  # block tag -> {index set: row}, factor degrees
    start = 0
    for spec in _K0_BLOCKS:
        isets, factors = _block_layout(t, spec)
        group_start[spec[0]] = {iset: start + k * len(factors) for k, iset in enumerate(isets)}
        degrees[spec[0]] = (spec[1], t.r - t.ny + spec[2], spec[3])
        start += len(isets) * len(factors)
    table, ref_base = _reference_table(t)
    pieces = []
    row_total, start = start, 0
    for spec in _K1_BLOCKS:
        tag = spec[0]
        dy_deg = t.r - t.ny + spec[2]
        isets, factors = _block_layout(t, spec)
        terms = {}  # slot class -> _factor_terms
        for k, iset in enumerate(isets):
            for pos, slot in enumerate(iset):
                slot_class = 0 if slot == 0 else ("xy" if slot <= t.r else "xz")
                target = _TARGET_BLOCK[(tag, slot_class)]
                if slot_class not in terms:
                    _, deg_y, deg_z = t.degree_of(slot)
                    terms[slot_class] = _factor_terms(t, dy_deg, deg_y, deg_z)
                    if len(terms[slot_class][0]) and degrees[target] != (0, dy_deg - deg_y, deg_z):
                        raise AssemblyError(f"unmatched target rows: {tag} against slot {slot} "
                                            f"has no factor degrees {degrees[target]} of {target}")
                col_off, row_off, sigma = terms[slot_class]
                if not len(col_off):
                    continue
                rest = iset[:pos] + iset[pos + 1:]
                row0 = group_start[target].get(rest)
                if row0 is None:
                    raise AssemblyError(f"unmatched index set {rest} in block {target} "
                                        f"from column block {tag}, index set {iset}")
                pieces.append((row0 + row_off, start + k * len(factors) + col_off,
                               ref_base[slot, pos % 2] + sigma))
        start += len(isets) * len(factors)
    if row_total != size or start != size:
        raise AssemblyError(f"basis sizes {start}x{row_total} do not match mu = {size} for {t}")
    # pieces run column block, index set, slot position; a stable sort by
    # column gives column, slot position, psi term
    row_idx, col_idx, ref_idx = (np.concatenate(v) for v in zip(*pieces))
    order = np.argsort(col_idx, kind="stable")
    row_idx, col_idx, ref_idx = row_idx[order], col_idx[order], ref_idx[order]
    cells = np.sort(row_idx * size + col_idx)
    repeated = np.flatnonzero(cells[1:] == cells[:-1])
    if len(repeated):
        raise AssemblyError(f"duplicate entry at {divmod(int(cells[repeated[0]]), size)}")
    used = np.zeros(len(table), dtype=bool)
    used[ref_idx] = True
    ref_idx = (np.cumsum(used) - 1).astype(np.intp)[ref_idx]
    for array in (row_idx, col_idx, ref_idx):
        array.flags.writeable = False
    return SymbolicResultantMatrix(t, (t.ny - 1, -1, t.nx + t.ny - t.r + 1), size,
                                   row_idx, col_idx, ref_idx, tuple(compress(table, used)))


def specialize(matrix: SymbolicResultantMatrix, sys: BilinearSystem,
               field: int | None = None) -> ExactMatrix:
    """Replace each reference sign * u_{i, sigma} by the coefficient of
    monomial sigma in equation i; absent monomials give 0. Each distinct
    reference is valued once (reduced mod p over F_p); the nonzeros are
    then one gather from that table, and the result is in coordinate
    form: its dense array is built on first read."""
    if sys.type != matrix.type:
        raise DomainError("system type does not match the matrix")
    if sys.f0 is None:
        raise DomainError("specialization needs the trilinear f0")
    polys = [sys.poly(i) for i in range(sys.type.n + 1)]
    values = []
    for ref in matrix.references:
        coeff = polys[ref.poly].terms.get(ref.exponent, Fraction(0))
        value = coeff if ref.sign > 0 else -coeff
        values.append(fraction_mod_p(value, field) if field is not None else value)
    table = np.empty(len(values), dtype=storage_dtype(values, field))
    table[:] = [int(v) for v in values] if table.dtype == np.int64 else values
    return ExactMatrix.from_coordinates((matrix.size, matrix.size), matrix.row_idx,
                                        matrix.col_idx, table[matrix.ref_idx], field)


@dataclass
class ThetaPartition:
    """Row/column rearrangement putting every u_{0, theta} reference on
    the diagonal of the trailing square block M22.

    row_perm/col_perm list original indices in their new order; the
    trailing `size - split` positions are the M22 pairs, aligned so the
    k-th trailing row meets the k-th trailing column on the diagonal.
    """

    base: SymbolicResultantMatrix
    theta: Exponent
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    split: int

    @property
    def size(self) -> int:
        return self.base.size

    def apply(self, matrix: ExactMatrix) -> ExactMatrix:
        """Reorder a specialization of the base matrix: in O(nnz) by
        remapping the cells of one in coordinate form, as `specialize`
        returns it, else by one fancy index of the dense array."""
        if matrix.nrows != self.size or matrix.ncols != self.size:
            raise DomainError("matrix size does not match the partition")
        return matrix.submatrix(self.row_perm, self.col_perm)


def theta_partition(matrix: SymbolicResultantMatrix, theta: Exponent) -> ThetaPartition:
    """Locate the u_{0, theta} entries and split the matrix around them.

    The construction guarantees (and this function asserts) that the
    references occur exactly mhb(type) times, in distinct rows and
    columns, all with sign +1; a violation means an assembly bug. The
    permutations and the split are kept on the matrix, one set per theta,
    and later calls return them again; they live as long as the matrix.
    """
    known = matrix._partitions.get(theta)
    if known is not None:
        return ThetaPartition(matrix, theta, *known)
    t = matrix.type
    if theta not in set(exponent_basis(t.nvars, (1, 1, 1))):
        raise DomainError(f"theta {theta} is not a trilinear exponent for {t}")
    hits = matrix.occurrences(0, theta)
    expected = mhb(t)
    if len(hits) != expected:
        raise AssemblyError(
            f"u_0,{exponent_key(theta)} occurs {len(hits)} times, expected {expected}")
    if any(sign != 1 for _, _, sign in hits):
        raise AssemblyError("theta diagonal reference with sign -1")
    hit_rows = [i for i, _, _ in hits]
    hit_cols = [j for _, j, _ in hits]
    if len(set(hit_rows)) != expected or len(set(hit_cols)) != expected:
        raise AssemblyError("theta references share a row or column")
    hits.sort(key=lambda h: h[1])  # canonical column order fixes the pairing
    trail_cols = [j for _, j, _ in hits]
    trail_rows = [i for i, _, _ in hits]
    lead_rows = np.ones(matrix.size, dtype=bool)
    lead_rows[trail_rows] = False
    lead_cols = np.ones(matrix.size, dtype=bool)
    lead_cols[trail_cols] = False
    # the permutations and the split only: a partition holds its matrix,
    # and a cycle would outlive the last reference to the matrix
    known = matrix._partitions[theta] = (
        tuple(np.flatnonzero(lead_rows).tolist() + trail_rows),
        tuple(np.flatnonzero(lead_cols).tolist() + trail_cols),
        matrix.size - expected,
    )
    return ThetaPartition(matrix, theta, *known)


def label_str(elem: KoszulBasisElement) -> str:
    def tup(block):
        return "(" + ",".join(str(e) for e in block) + ")"

    iset = "{" + ",".join(str(i) for i in elem.iset) + "}"
    return f"{elem.block}|dx={tup(elem.dx)}|dy={tup(elem.dy)}|dz={tup(elem.dz)}|I={iset}"


def entry_str(entry: SymbolicEntry) -> str:
    sign = "+" if entry.sign > 0 else "-"
    return f"{sign}u[{entry.poly}][{exponent_key(entry.exponent)}]"
