"""Independent ground truth for the resultant matrix and the solver.

Three kinds of oracles live here:

* exhaustive solving over a small prime field (`ff_solve`), which
  certifies solution counts and resultant vanishing at toy scale;
* the dual Veronese forms and the rank-1 embedding `build_rho` of a
  point into the column space of the resultant matrix, which pin down
  what eigenvector extraction must recover;
* the degree-0 strand of the Koszul complex of the linear z-system,
  together with `verify_rho_composition`, an exact (0-tolerance) check
  that composing the specialized matrix with the embedding reproduces
  that strand map entry for entry.

Everything except `ff_solve` works entirely over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as _product
from math import comb, prod

from .core import (
    BilinearSystem,
    Block,
    DomainError,
    MHPoly,
    ProjectiveSolution,
    SystemType,
    _block_value,
    monomial_basis,
    partial_evaluate_xy,
)
from .exactlinalg import ExactMatrix, require_prime
from .koszul import assemble_delta1, k0_basis, k1_basis, layout, specialize


# -- exhaustive finite-field solving ------------------------------------

# the most points of P^nx x P^ny x P^nz (F_p) that `ff_solve` enumerates
_ENUMERATION_BUDGET = 10 ** 7


def projective_points(n_t: int, p: int) -> list[tuple[int, ...]]:
    """Canonical representatives of P^{n_t}(F_p): first nonzero entry 1."""
    points = []
    for lead in range(n_t + 1):
        tail = n_t - lead
        for rest in _product(range(p), repeat=tail):
            points.append((0,) * lead + (1,) + rest)
    return points


def ff_solve(sys: BilinearSystem, p: int, include_f0: bool = False) -> list[ProjectiveSolution]:
    """All common zeros of f_1..f_n over P(F_p), by exhaustive enumeration.

    Exploits the 2-bilinear shape: for each x-point the constraints on y
    and on z are independent linear conditions. With include_f0 the
    trilinear equation is checked as well. ValueError when p is not a
    prime, DomainError when a coefficient has no image mod p or when
    there are more than `_ENUMERATION_BUDGET` points, counted before any
    is listed.
    """
    import numpy as np

    require_prime(p)
    t = sys.type
    total = prod((p ** (n_t + 1) - 1) // (p - 1) for n_t in t.dims)  # |P^n_t(F_p)| each
    if total > _ENUMERATION_BUDGET:
        raise DomainError(f"enumeration of {total} points exceeds budget {_ENUMERATION_BUDGET}")
    xs = np.array(projective_points(t.nx, p), dtype=np.int64)
    ys = np.array(projective_points(t.ny, p), dtype=np.int64)
    zs = np.array(projective_points(t.nz, p), dtype=np.int64)
    cxy = [sys.tensor_mod_p(i, p).reshape(t.nx + 1, t.ny + 1) for i in range(1, t.r + 1)]
    cxz = [sys.tensor_mod_p(i, p).reshape(t.nx + 1, t.nz + 1) for i in range(t.r + 1, t.n + 1)]
    f0grid = None
    if include_f0:
        if sys.f0 is None:
            raise DomainError("include_f0 needs f0")
        f0grid = sys.tensor_mod_p(0, p)
    out = []
    for x in xs:
        wy = np.array([x @ c for c in cxy]) % p          # r rows of y-conditions
        ok_y = ys[~np.any(wy @ ys.T % p, axis=0)] if len(cxy) else ys
        if not len(ok_y):
            continue
        wz = np.array([x @ c for c in cxz]) % p
        ok_z = zs[~np.any(wz @ zs.T % p, axis=0)] if len(cxz) else zs
        if not len(ok_z):
            continue
        if f0grid is not None:
            slice0 = np.tensordot(x, f0grid, axes=(0, 0)) % p
            vals = ok_y @ slice0 @ ok_z.T % p            # (#y, #z) values of f0
            pairs = np.argwhere(vals == 0)
            found = [(ok_y[i], ok_z[j]) for i, j in pairs]
        else:
            found = [(y, z) for y in ok_y for z in ok_z]
        for y, z in found:
            out.append(ProjectiveSolution(tuple(int(v) for v in x),
                                          tuple(int(v) for v in y),
                                          tuple(int(v) for v in z)))
    out.sort(key=lambda sol: (sol.x, sol.y, sol.z))
    return out


# -- dual Veronese forms ------------------------------------------------

@dataclass(frozen=True)
class DualVeronese:
    """The dual form with coefficient (t^theta / t0^d)(alpha) at each theta
    in A(d); the zero form when d < 0. Its coefficient at the pure-t0
    exponent is 1 by construction."""

    block: str
    degree: int
    alpha: tuple
    coeffs: dict

    def coefficient(self, exp: Block):
        return self.coeffs.get(exp, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return self.degree < 0


def dual_veronese(block: str, d: int, alpha_t) -> DualVeronese:
    alpha_t = tuple(alpha_t)
    if d < 0:
        return DualVeronese(block, d, alpha_t, {})
    if alpha_t[0] == 0:
        raise DomainError("dual Veronese form needs a nonzero first coordinate")
    a0 = Fraction(alpha_t[0])
    coeffs = {exp: _block_value(exp, alpha_t) / a0 ** d
              for exp in monomial_basis(len(alpha_t) - 1, d)}
    return DualVeronese(block, d, alpha_t, coeffs)


def star_eval_check(g_terms: dict, dv: DualVeronese):
    """Contract a one-block homogeneous polynomial g against the dual form.

    Returns (contracted, scalar): the termwise g-star-dv as a dual vector
    of degree d - deg(g), and the evaluation (g / t0^deg g)(alpha). The
    defining identity says contracted == scalar * dual_veronese(d - deg g).
    """
    if not g_terms:
        raise DomainError("g must be nonzero")
    degrees = {sum(exp) for exp in g_terms}
    if len(degrees) != 1:
        raise DomainError("g must be homogeneous")
    dbar = degrees.pop()
    d_out = dv.degree - dbar
    nvars = len(dv.alpha)
    coeffs = {}
    if d_out >= 0:
        for tau in monomial_basis(nvars - 1, d_out):
            total = Fraction(0)
            for theta, c in g_terms.items():
                total += Fraction(c) * dv.coefficient(tuple(a + b for a, b in zip(tau, theta)))
            if total:
                coeffs[tau] = total
    contracted = DualVeronese(dv.block, d_out, dv.alpha, coeffs)
    a0 = Fraction(dv.alpha[0])
    scalar = sum(Fraction(c) * _block_value(theta, dv.alpha)
                 for theta, c in g_terms.items()) / a0 ** dbar
    return contracted, scalar


def scale_dual(dv: DualVeronese, factor) -> DualVeronese:
    factor = Fraction(factor)
    coeffs = {e: c * factor for e, c in dv.coeffs.items() if c * factor != 0}
    return DualVeronese(dv.block, dv.degree, dv.alpha, coeffs)


def psi_dual_action(dvx: DualVeronese, dvy: DualVeronese, gz_terms: dict,
                    f: MHPoly) -> dict:
    """The contraction-multiplication map applied to a full dual tensor.

    Input tensor: dvx (x) dvy (x) gz (gz a z-polynomial as exponent ->
    coefficient). Output: dense tensor coefficients indexed by
    (tau_x, tau_y, tau_z). Used to check, exactly, that the map acts on
    dual Veronese tensors as multiplication by f(alpha_x, alpha_y).
    """
    out: dict = {}
    for (sx, sy, sz), coeff in f.terms.items():
        for ax, vx in dvx.coeffs.items():
            tx = tuple(a - b for a, b in zip(ax, sx))
            if any(e < 0 for e in tx):
                continue
            for ay, vy in dvy.coeffs.items():
                ty = tuple(a - b for a, b in zip(ay, sy))
                if any(e < 0 for e in ty):
                    continue
                vxy = coeff * vx * vy
                for az, vz in gz_terms.items():
                    tz = tuple(a + b for a, b in zip(az, sz))
                    key = (tx, ty, tz)
                    out[key] = out.get(key, Fraction(0)) + vxy * vz
    return {k: v for k, v in out.items() if v != 0}


# -- the rank-1 embedding into K1 ---------------------------------------

def rho_slots(t: SystemType) -> list[tuple[int, ...]]:
    """Index sets of the embedding domain: the L11 sets then the L12 sets,
    in the k1 basis order. Their count is C(s+1, s-nz+1)."""
    slots = [iset for block in layout(t)[1].values() for iset in block.isets]
    if len(slots) != comb(t.s + 1, t.s - t.nz + 1):
        raise AssertionError("rho domain size mismatch")
    return slots


def build_rho(t: SystemType, alpha_x, alpha_y, lam) -> list[Fraction]:
    """Coefficient vector, in the k1 basis order, of the rank-1 tensor
    sum over index sets I of lam_I . 1x(1) (x) 1y(deg) (x) e_I."""
    slots = rho_slots(t)
    if len(lam) != len(slots):
        raise DomainError(f"lambda must have length {len(slots)}")
    lam_of = {iset: Fraction(v) for iset, v in zip(slots, lam)}
    dvx = dual_veronese("x", 1, alpha_x)
    dvy = {
        "L11": dual_veronese("y", t.r - t.ny, alpha_y),
        "L12": dual_veronese("y", t.r - t.ny + 1, alpha_y),
    }
    out = []
    for elem in k1_basis(t):
        out.append(lam_of[elem.iset]
                   * dvx.coefficient(elem.dx)
                   * dvy[elem.block].coefficient(elem.dy))
    return out


# -- the linear z-system and its Koszul strand --------------------------

@dataclass(frozen=True)
class LinearZSystem:
    """s+1 linear forms in z: the partial evaluations of (f0, f_{r+1..n})
    at (alpha_x, alpha_y), as coefficient rows in the canonical z order."""

    s: int
    nz: int
    forms: tuple

    def __post_init__(self):
        if len(self.forms) != self.s + 1:
            raise DomainError("expected s + 1 linear forms")
        for form in self.forms:
            if len(form) != self.nz + 1:
                raise DomainError("form length must be nz + 1")


def _z_coeff_row(poly: MHPoly) -> tuple:
    nz = poly.nvars[2] - 1
    zero_x = (0,) * poly.nvars[0]
    zero_y = (0,) * poly.nvars[1]
    return tuple(
        poly.terms.get((zero_x, zero_y, exp), Fraction(0))
        for exp in monomial_basis(nz, 1)
    )


def linear_z_system(sys: BilinearSystem, alpha_x, alpha_y) -> LinearZSystem:
    if sys.f0 is None:
        raise DomainError("linear z-system needs f0")
    t = sys.type
    forms = [_z_coeff_row(partial_evaluate_xy(sys.f0, alpha_x, alpha_y))]
    for j in range(t.r, t.n):
        forms.append(_z_coeff_row(partial_evaluate_xy(sys.f[j], alpha_x, alpha_y)))
    return LinearZSystem(t.s, t.nz, tuple(forms))


def strand_domain_sets(s: int, nz: int) -> list[tuple[int, ...]]:
    return list(combinations(range(s + 1), s - nz + 1))


def strand_codomain_labels(s: int, nz: int) -> list[tuple[tuple[int, ...], Block]]:
    return [
        (subset, zexp)
        for subset in combinations(range(s + 1), s - nz)
        for zexp in monomial_basis(nz, 1)
    ]


def koszul_strand_map(fz: LinearZSystem) -> list[list[Fraction]]:
    """Matrix of the degree-0 strand of the (s - nz + 1)-th Koszul
    differential of the s + 1 linear forms.

    Columns are indexed by strand_domain_sets, rows by
    strand_codomain_labels; the column for J is the alternating sum over
    its elements of g_{J_i} tensored with e_{J minus J_i}.
    """
    cols = strand_domain_sets(fz.s, fz.nz)
    row_labels = strand_codomain_labels(fz.s, fz.nz)
    row_index = {label: i for i, label in enumerate(row_labels)}
    zexps = monomial_basis(fz.nz, 1)
    matrix = [[Fraction(0)] * len(cols) for _ in row_labels]
    for col_idx, subset in enumerate(cols):
        for pos, g_idx in enumerate(subset):
            sign = -1 if pos % 2 else 1
            rest = subset[:pos] + subset[pos + 1:]
            for zexp, coeff in zip(zexps, fz.forms[g_idx]):
                if coeff:
                    matrix[row_index[(rest, zexp)]][col_idx] += sign * Fraction(coeff)
    return matrix


# -- the exact composition identity -------------------------------------

def rho_composition_matrix(sys: BilinearSystem, alpha_x, alpha_y) -> ExactMatrix:
    """Columns: the specialized matrix applied to each unit slot of the
    embedding, exactly over Q."""
    t = sys.type
    matrix = assemble_delta1(t)
    exact = specialize(matrix, sys).array.astype(object)  # Python ints and Fractions
    slots = rho_slots(t)
    cols = []
    for k in range(len(slots)):
        lam = [1 if i == k else 0 for i in range(len(slots))]
        cols.append(exact.dot(build_rho(t, alpha_x, alpha_y, lam)))
    return ExactMatrix([list(row) for row in zip(*cols)])


def verify_rho_composition(sys: BilinearSystem, alpha_x, alpha_y) -> Fraction:
    """Maximum entry deviation between the composed map and the Koszul
    strand of the linear z-system, after the block sign matching.

    Requires every S(1,1,0) equation to vanish at (alpha_x, alpha_y);
    the identity is exact over the rationals, so any nonzero deviation
    is a convention error somewhere upstream.

    Sign matching: relative to the plain strand differential the
    composition carries (-1)^r on columns whose index set misses the
    trilinear slot and on rows landing in the 0-carrying block L04.
    """
    t = sys.type
    for i in range(t.r):
        if partial_evaluate_xy(sys.f[i], alpha_x, alpha_y):
            raise DomainError(f"equation {i + 1} does not vanish at (alpha_x, alpha_y)")
    composed = rho_composition_matrix(sys, alpha_x, alpha_y)
    fz = linear_z_system(sys, alpha_x, alpha_y)
    strand = koszul_strand_map(fz)
    strand_rows = {lab: i for i, lab in enumerate(strand_codomain_labels(t.s, t.nz))}
    slots = rho_slots(t)
    dvy = {
        "L02": dual_veronese("y", t.r - t.ny, alpha_y),
        "L04": dual_veronese("y", t.r - t.ny + 1, alpha_y),
    }
    r_sign = -1 if t.r % 2 else 1
    rows = k0_basis(t)
    deviation = Fraction(0)
    for col_idx, iset in enumerate(slots):
        col_sign = 1 if 0 in iset else r_sign
        strand_col = strand_domain_sets(t.s, t.nz).index(_to_strand_set(iset, t.r))
        for row_idx, elem in enumerate(rows):
            got = composed[row_idx, col_idx]
            if elem.block in ("L01", "L03"):
                expected = Fraction(0)
            else:
                row_sign = 1 if elem.block == "L02" else r_sign
                strand_set = _to_strand_set(elem.iset, t.r)
                expected = (col_sign * row_sign
                            * dvy[elem.block].coefficient(elem.dy)
                            * strand[strand_rows[(strand_set, elem.dz)]][strand_col])
            deviation = max(deviation, abs(got - expected))
    return deviation



def _to_strand_set(iset, r: int) -> tuple[int, ...]:
    """Drop the always-present indices 1..r and relabel r+k -> k, 0 -> 0."""
    return tuple(sorted((0 if i == 0 else i - r) for i in iset if i == 0 or i > r))


def strand_kernel_dim(fz: LinearZSystem) -> int:
    matrix = koszul_strand_map(fz)
    cols = len(strand_domain_sets(fz.s, fz.nz))
    return cols - rank(ExactMatrix(matrix))


# -- exact rank ----------------------------------------------------------

def _rref(m: ExactMatrix):
    """Reduced row echelon form by Gauss-Jordan elimination over Q
    (Fraction entries) or F_p; returns (rows, pivot columns)."""
    p = m.field
    rows = [[Fraction(e) for e in row] for row in m.rows] if p is None else m.rows
    nr = len(rows)
    pivots = []
    for col in range(m.ncols):
        r = len(pivots)
        if r == nr:
            break
        pivot_row = next((i for i in range(r, nr) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if p is None:
            pk = rows[r][col]
            rows[r] = [e / pk for e in rows[r]]
        else:
            inv = pow(rows[r][col], p - 2, p)
            rows[r] = [e * inv % p for e in rows[r]]
        for i in range(nr):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                if p is None:
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
                else:
                    rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots


def rank(m: ExactMatrix) -> int:
    """Rank by exact elimination."""
    return len(_rref(m)[1])
