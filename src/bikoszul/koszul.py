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

Every equation is linear in x and linear or constant in y and z, so
psi never scans the exponents of a slot: the surviving sigma are the
unit vectors e_i with dx_i >= 1 (and likewise in y) times every z
monomial of the slot's z-degree, generated directly. Assembly builds the
terms of psi once per column factor, slot and sign, and looks rows up
by plain tuples. `specialize` reduces each distinct reference once and
writes all of them into a numpy array with one scatter; `ThetaPartition`
permutes with one fancy index. Only the nonzeros are touched in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
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
from .exactlinalg import ExactMatrix, fraction_mod_p, zeros
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
    """A matrix entry: the coefficient reference sign * u_{poly, exponent}.

    A named tuple, so that hashing one (specialize looks every entry up
    by its reference) runs in C."""

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


def _block_elements(t: SystemType, spec) -> list[KoszulBasisElement]:
    tag, dx_deg, dy_shift, dz_deg, a_shift, b_shift, c = spec
    dy_deg = t.r - t.ny + dy_shift
    a = t.r + a_shift
    b = t.s - t.nz + b_shift
    if dy_deg < 0 or not (0 <= a <= t.r) or not (0 <= b <= t.s):
        return []
    dxs = monomial_basis(t.nx, dx_deg)
    dys = monomial_basis(t.ny, dy_deg)
    dzs = monomial_basis(t.nz, dz_deg)
    head = (0,) if c else ()
    out = []
    for apart in combinations(range(1, t.r + 1), a):
        for bpart in combinations(range(t.r + 1, t.n + 1), b):
            iset = head + apart + bpart
            for dx in dxs:
                for dy in dys:
                    for dz in dzs:
                        out.append(KoszulBasisElement(tag, dx, dy, dz, iset))
    return out


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
def _unit_vectors(nvars: int) -> tuple[Block, ...]:
    return tuple(tuple(int(i == j) for j in range(nvars)) for i in range(nvars))


def _unit_terms(block: Block, degree: int, step: int) -> list[tuple[Block, Block]]:
    """(sigma, block + step * sigma) for every monomial sigma of degree 0
    or 1, in the canonical monomial order. Step -1 contracts a dual
    factor and keeps only the sigma = e_i with block_i >= 1 that do not
    annihilate it; step +1 multiplies."""
    if degree == 0:
        return [((0,) * len(block), block)]
    return [(e, block[:i] + (b + step,) + block[i + 1:])
            for i, (e, b) in enumerate(zip(_unit_vectors(len(block)), block)) if b + step >= 0]


def psi_symbolic(dx: Block, dy: Block, dz: Block, poly_index: int,
                 t: SystemType) -> list[tuple[tuple[Block, Block, Block], SymbolicEntry]]:
    """All surviving contractions of one column factor against the
    universal polynomial in slot poly_index.

    Every slot is linear in x, and linear or constant in y and in z, so
    the monomials sigma that survive are generated directly, x-major:
    sigma_x = e_i with dx_i >= 1 (dx contracts to dx - e_i), sigma_y the
    same against dy (or 1 when the slot is constant in y), and every
    sigma_z of the slot's z-degree, which multiplies dz (z never
    contracts). Signs are attached later.
    """
    deg_x, deg_y, deg_z = t.degree_of(poly_index)
    return [((dx2, dy2, dz2), SymbolicEntry(1, poly_index, (sx, sy, sz)))
            for sx, dx2 in _unit_terms(dx, deg_x, -1)
            for sy, dy2 in _unit_terms(dy, deg_y, -1)
            for sz, dz2 in _unit_terms(dz, deg_z, 1)]


# target row block, given the column block and the class of the
# contracted equation slot (0, "xy" for slots 1..r, "xz" for the rest)
_TARGET_BLOCK = {
    ("L11", "xy"): "L01",
    ("L11", "xz"): "L02",
    ("L12", 0): "L02",
    ("L12", "xy"): "L03",
    ("L12", "xz"): "L04",
}


@dataclass
class SymbolicResultantMatrix:
    """Square symbolic matrix: sparse (row, col) -> signed u-reference."""

    type: SystemType
    m: tuple[int, int, int]
    rows: list[KoszulBasisElement]
    cols: list[KoszulBasisElement]
    entries: dict[tuple[int, int], SymbolicEntry]

    @property
    def size(self) -> int:
        return len(self.rows)

    def occurrences(self, poly: int, exponent: Exponent) -> list[tuple[int, int, int]]:
        """(row, col, sign) of every entry referencing u_{poly, exponent}."""
        return [
            (i, j, e.sign)
            for (i, j), e in self.entries.items()
            if e.poly == poly and e.exponent == exponent
        ]


@lru_cache(maxsize=None)
def assemble_delta1(t: SystemType) -> SymbolicResultantMatrix:
    """Build the symbolic Koszul resultant matrix for the fixed degree
    vector (ny-1, -1, nx+ny-r+1).

    The column for l (x) e_I receives, for the i-th smallest index of I,
    the terms of psi(l, f_{I_i}) with sign (-1)^(i-1) at the row
    labelled by the contracted factor tensored with e_{I minus I_i}.
    """
    rows = k0_basis(t)
    cols = k1_basis(t)
    size = mu(t)
    if len(rows) != size or len(cols) != size:
        raise AssemblyError(
            f"basis sizes {len(cols)}x{len(rows)} do not match mu = {size} for {t}")
    row_index = {((e.block, e.dx, e.dy, e.dz), e.iset): i for i, e in enumerate(rows)}
    # psi and the target block depend on the column factor, the slot and
    # the sign, not on the rest of the index set: build each term list once
    terms = {}
    entries: dict[tuple[int, int], SymbolicEntry] = {}
    for col_idx, col in enumerate(cols):
        for pos, slot in enumerate(col.iset):
            sign = -1 if pos % 2 else 1
            factor = (col.block, col.dx, col.dy, col.dz, slot, sign)
            targets = terms.get(factor)
            if targets is None:
                slot_class = 0 if slot == 0 else ("xy" if slot <= t.r else "xz")
                target_tag = _TARGET_BLOCK[(col.block, slot_class)]
                targets = terms[factor] = [
                    ((target_tag, *frag), SymbolicEntry(sign, ref.poly, ref.exponent))
                    for frag, ref in psi_symbolic(col.dx, col.dy, col.dz, slot, t)]
            rest = col.iset[:pos] + col.iset[pos + 1:]
            for label, entry in targets:
                row_idx = row_index.get((label, rest))
                if row_idx is None:
                    raise AssemblyError(f"unmatched target row "
                                        f"{KoszulBasisElement(*label, rest)} from column {col}")
                key = (row_idx, col_idx)
                if key in entries:
                    raise AssemblyError(f"duplicate entry at {key}")
                entries[key] = entry
    return SymbolicResultantMatrix(t, (t.ny - 1, -1, t.nx + t.ny - t.r + 1),
                                   rows, cols, entries)


def specialize(matrix: SymbolicResultantMatrix, sys: BilinearSystem,
               field: int | None = None) -> ExactMatrix:
    """Replace each reference sign * u_{i, sigma} by the coefficient of
    monomial sigma in equation i; absent monomials give 0."""
    if sys.type != matrix.type:
        raise DomainError("system type does not match the matrix")
    if sys.f0 is None:
        raise DomainError("specialization needs the trilinear f0")
    out = zeros((matrix.size, matrix.size), field)
    polys = [sys.poly(i) for i in range(sys.type.n + 1)]
    values = {}  # each distinct signed reference, reduced mod p once
    for ref in set(matrix.entries.values()):
        coeff = polys[ref.poly].terms.get(ref.exponent, Fraction(0))
        value = coeff if ref.sign > 0 else -coeff
        values[ref] = fraction_mod_p(value, field) if field is not None else value
    cells = np.array(list(matrix.entries), dtype=np.intp).reshape(-1, 2)
    out.array[cells[:, 0], cells[:, 1]] = [values[ref] for ref in matrix.entries.values()]
    return out


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
        """Reorder a specialization of the base matrix."""
        if matrix.nrows != self.size or matrix.ncols != self.size:
            raise DomainError("matrix size does not match the partition")
        return matrix.submatrix(self.row_perm, self.col_perm)


def theta_partition(matrix: SymbolicResultantMatrix, theta: Exponent) -> ThetaPartition:
    """Locate the u_{0, theta} entries and split the matrix around them.

    The construction guarantees (and this function asserts) that the
    references occur exactly mhb(type) times, in distinct rows and
    columns, all with sign +1; a violation means an assembly bug.
    """
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
    trail_row_set, trail_col_set = set(trail_rows), set(trail_cols)
    lead_rows = [i for i in range(matrix.size) if i not in trail_row_set]
    lead_cols = [j for j in range(matrix.size) if j not in trail_col_set]
    return ThetaPartition(
        base=matrix,
        theta=theta,
        row_perm=tuple(lead_rows + trail_rows),
        col_perm=tuple(lead_cols + trail_cols),
        split=matrix.size - expected,
    )


def label_str(elem: KoszulBasisElement) -> str:
    def tup(block):
        return "(" + ",".join(str(e) for e in block) + ")"

    iset = "{" + ",".join(str(i) for i in elem.iset) + "}"
    return f"{elem.block}|dx={tup(elem.dx)}|dy={tup(elem.dy)}|dz={tup(elem.dz)}|I={iset}"


def entry_str(entry: SymbolicEntry) -> str:
    sign = "+" if entry.sign > 0 else "-"
    return f"{sign}u[{entry.poly}][{exponent_key(entry.exponent)}]"
