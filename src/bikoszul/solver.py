"""Eigenvalue/eigenvector solving of square 2-bilinear systems.

Pipeline: apply a random blockwise coordinate change (so no solution
keeps a zero coordinate and the leading block stays invertible), add a
random trilinear f0, assemble and specialize the Koszul resultant
matrix, split it around the monomial theta = x0 y0 z0, and
eigen-decompose the Schur complement of the trailing block. Each
eigenvalue is (f0 / theta) at one solution; its eigenvector extends to
a kernel vector of the full matrix, which is a rank-1 combination of
dual Veronese forms: on each exterior index set, a dual-x factor times
a dual-y factor. Reshaped by the k1 block layout (L11 then L12, each
by index set, then dx, then dy), the x and y coordinates drop out as
ratios of its entries, y read against the largest entry of its row.
The z block then solves a small linear system, and the coordinate
change is undone.

The Schur complement is computed exactly over the rationals. Floating
point enters at its eigen-decomposition and at one float solve of the
leading block M11 on the theta-permuted matrix, which extends every
eigenvector of an attempt; the residual gate checks what follows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BilinearSystem,
    CoordinateChange,
    DomainError,
    Exponent,
    MHPoly,
    ProjectiveSolution,
    SystemType,
    apply_coordinate_change,
    exponent_basis,
    mhb,
    random_coordinate_change,
    transform_point,
)
from .exactlinalg import SingularMatrixError, schur_complement, to_float
from .koszul import (
    _K1_BLOCKS,
    ThetaPartition,
    _block_layout,
    assemble_delta1,
    specialize,
    theta_partition,
)
from .weyman import mu

EIGEN_CLUSTER_TOL = 1e-7
EXTRACT_ANCHOR_TOL = 1e-9
RESIDUAL_TOL = 1e-6


class SolveError(RuntimeError):
    """Solving failed after all retries (multiplicity, separation or residual
    failure); the message gives the reason of every attempt."""


class ExtractionError(RuntimeError):
    """Eigenvector block too degenerate to read coordinates off (retry signal)."""


@dataclass
class EigenPair:
    value: complex
    vector: np.ndarray
    clustered: bool = False


@dataclass
class SolveReport:
    """Everything `solve_2bilinear` did: solutions with residuals plus the
    full randomization (A, f0, theta, seed) needed to reproduce the run."""

    type: SystemType
    solutions: list
    eigenpairs: list
    residuals: list
    retries: int
    seed: object
    f0: MHPoly
    theta: Exponent
    change: CoordinateChange


def eigen_schur(matrix, tol: float = EIGEN_CLUSTER_TOL) -> list[EigenPair]:
    """All eigenvalue / right-eigenvector pairs of a dense matrix, sorted
    by (real, imag); pairs closer than tol * (1 + max |value|) to some
    other eigenvalue are flagged as clustered."""
    array = np.asarray(matrix, dtype=complex)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise DomainError("eigen decomposition needs a square matrix")
    if not np.all(np.isfinite(array)):
        raise DomainError("matrix has non-finite entries")
    values, vectors = np.linalg.eig(array)
    order = np.lexsort((values.imag, values.real))
    scale = tol * (1.0 + max(abs(values).max(initial=0.0), 0.0))
    # all pairwise distances at once; sorting would miss close complex pairs
    gaps = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(gaps, np.inf)
    clustered = gaps.min(axis=1, initial=np.inf) < scale
    pairs = []
    for k in order:
        vec = vectors[:, k]
        vec = vec / np.linalg.norm(vec)
        anchor = np.argmax(np.abs(vec))
        phase = vec[anchor] / abs(vec[anchor])
        vec = vec / phase
        pairs.append(EigenPair(complex(values[k]), vec, bool(clustered[k])))
    return pairs


def extend_eigenvector(partition: ThetaPartition, permuted: np.ndarray,
                       vectors) -> np.ndarray:
    """Extend Schur-complement eigenvectors, one vector or the columns of
    a matrix, to kernel directions of the full specialized matrix,
    returned in its unpermuted column order.

    `permuted` is the theta-permuted float matrix. The kernel equation
    gives the top parts as -X V with X = M11^{-1} M12, solved once.
    """
    k = partition.split
    x = np.linalg.solve(permuted[:k, :k], permuted[:k, k:])
    vectors = np.asarray(vectors, dtype=complex)
    stacked = np.concatenate([-x @ vectors, vectors])
    out = np.empty_like(stacked)
    out[list(partition.col_perm)] = stacked
    return out


def extract_xy(vector, t: SystemType, tol: float = EXTRACT_ANCHOR_TOL):
    """Read (alpha_x, alpha_y) off a kernel vector in the k1 basis order.

    The vector is a rank-1 combination per exterior index set: reshaped
    by the k1 block layout, each index set's entries form an (nx+1) x
    (dual-y monomials) array, a dual-x factor times a dual-y factor. The
    index set with the largest entry gives alpha_x as its dominant
    dual-y column (the dual form over x has coefficient (x_i/x_0)(alpha)
    at dx_i). alpha_y comes from the dominant dual-x row of the index
    set of dual-y degree d >= 1 with the largest entry (blocks of degree
    0 carry no y information): anchored at the row's largest entry, at
    tau with tau_a >= 1, y_j / y_a = v(tau - e_a + e_j) / v(tau). Both
    are scaled so that their first entry above tol times their largest
    is 1. The first maximum in basis order wins a tie.
    """
    if len(vector) != mu(t):
        raise DomainError("vector length does not match the k1 basis")
    vector = np.asarray(vector)
    groups = []  # (entries of one index set, its dual-y exponents)
    for start, count, dys in _k1_layout(t):
        blocks = vector[start:start + count * (t.nx + 1) * len(dys)]
        groups.extend((g, dys) for g in blocks.reshape(count, t.nx + 1, len(dys)))
    peaks = [np.abs(g).max() for g, _ in groups]
    overall = max(peaks)
    if overall == 0:
        raise ExtractionError("zero vector")
    block = groups[peaks.index(overall)][0]
    alpha_x = _normalize_block(block[:, np.argmax(np.abs(block).max(axis=0))], tol)
    best_y = max((k for k, (_, dys) in enumerate(groups) if sum(dys[0]) >= 1),  # degree >= 1
                 key=peaks.__getitem__)
    block, dys = groups[best_y]
    row = block[np.argmax(np.abs(block).max(axis=1))]
    anchor = np.argmax(np.abs(row))
    if abs(row[anchor]) <= tol * overall:
        raise ExtractionError("anchor coefficient too small")
    tau = dys[anchor]
    a = next(i for i, e in enumerate(tau) if e)
    shifted = [tuple(e - (i == a) + (i == j) for i, e in enumerate(tau)) for j in range(t.ny + 1)]
    return alpha_x, _normalize_block([row[dys.index(dy)] for dy in shifted], tol)


@lru_cache(maxsize=None)
def _k1_layout(t: SystemType) -> tuple:
    """(first position, number of index sets, dual-y exponents) of each
    nonempty k1 block, in basis order. Inside a block the entries run
    by index set, then dx, then dy (dz is trivial)."""
    layout, start = [], 0
    for spec in _K1_BLOCKS:
        isets, factors = _block_layout(t, spec)
        if isets:
            dys = [dy for _, dy, _ in factors[:len(factors) // (t.nx + 1)]]
            layout.append((start, len(isets), dys))
            start += len(isets) * len(factors)
    return tuple(layout)


def _normalize_block(coords, tol):
    top = max(abs(v) for v in coords)
    for v in coords:
        if abs(v) > tol * top:
            return tuple(c / v for c in coords)
    raise ExtractionError("cannot normalize block")


def solve_z(sys: BilinearSystem, alpha_x, alpha_y, tol: float = 1e-8):
    """The unique z making (alpha_x, alpha_y, z) a solution: kernel
    direction of the stacked linear forms f_j(alpha_x, alpha_y) for the
    S(1,0,1) equations (the S(1,1,0) ones are constants that already
    vanish there). Those forms do not involve y: each row is the
    coefficients times alpha_x at the term's x index, summed by z index."""
    t = sys.type
    if t.nz == 0:
        return (1.0 + 0j,)
    ax = np.asarray(alpha_x, dtype=complex)
    rows = []
    for poly in sys.f[t.r:]:
        exponents, coefficients = poly.numeric
        rows.append((coefficients * (exponents[:, :t.nx + 1] @ ax)) @ exponents[:, -(t.nz + 1):])
    a = np.array(rows, dtype=complex)
    _, sv, vh = np.linalg.svd(a)
    padded = np.zeros(t.nz + 1)
    padded[:len(sv)] = sv
    scale = max(1.0, padded[0])
    if padded[t.nz - 1] <= tol * scale:
        raise ExtractionError("z-system rank below nz: multiple z-solutions")
    return tuple(vh[-1].conj())


def default_theta(t: SystemType) -> Exponent:
    return tuple((1,) + (0,) * n_t for n_t in t.dims)


def choose_f0_and_theta(t: SystemType, seed, coeff_bound: int = 10):
    """Random trilinear f0 plus the separating monomial theta = x0 y0 z0;
    the theta coefficient is forced nonzero."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    theta = default_theta(t)
    terms = {}
    for exp in exponent_basis(t.nvars, (1, 1, 1)):
        terms[exp] = rng.randint(-coeff_bound, coeff_bound)
    while terms[theta] == 0:
        terms[theta] = rng.randint(-coeff_bound, coeff_bound)
    return MHPoly(t.nvars, (1, 1, 1), terms), theta


def residual(sys: BilinearSystem, sol: ProjectiveSolution) -> float:
    """max_i |f_i(sol)| / ||f_i|| with every block scaled to unit norm;
    a zero f_i contributes 0. Each f_i is evaluated at once from its
    exponent matrix and complex coefficients, and those and ||f_i|| are
    computed once per polynomial (`MHPoly.numeric`, `MHPoly.norm`)."""
    blocks = []
    for block in sol.blocks:
        arr = np.asarray([complex(c) for c in block])
        blocks.append(arr / np.linalg.norm(arr))
    point = np.concatenate(blocks)
    worst = 0.0
    for poly in sys.f:
        if poly.norm:
            exponents, coefficients = poly.numeric
            value = coefficients @ np.prod(point ** exponents, axis=1)
            worst = max(worst, abs(value) / poly.norm)
    return worst


def _realify(sol: ProjectiveSolution, tol: float = 1e-8) -> ProjectiveSolution:
    """Report real coordinates when every imaginary part is negligible."""
    coords = [c for block in sol.blocks for c in block]
    top = max(abs(c) for c in coords)
    if all(abs(complex(c).imag) <= tol * top for c in coords):
        return ProjectiveSolution(*[tuple(complex(c).real for c in block)
                                    for block in sol.blocks])
    return sol


def solve_2bilinear(sys: BilinearSystem, seed=0, tol: float = RESIDUAL_TOL,
                    max_retries: int = 10) -> SolveReport:
    """Solve a square 2-bilinear system with finite, multiplicity-free
    solution set; any f0 already attached to the input is ignored.

    Retries with fresh randomization on the structural failure signals
    (singular leading block, clustered eigenvalues, degenerate
    extraction) and when the worst residual exceeds tol; residuals are
    reported per solution. A negative or NaN tol is a DomainError.
    """
    if not tol >= 0:
        raise DomainError(f"tol must be a nonnegative number, not {tol}")
    t = sys.type
    matrix = assemble_delta1(t)
    count = mhb(t)
    # theta is always default_theta(t), so the split depends on the type only
    partition = theta_partition(matrix, default_theta(t))
    failures = []
    for attempt in range(max_retries):
        rng = random.Random(f"{seed}:{attempt}")
        change = random_coordinate_change(t, rng)
        f0, theta = choose_f0_and_theta(t, rng)
        transformed = apply_coordinate_change(BilinearSystem(t, sys.f), change).with_f0(f0)
        permuted = partition.apply(specialize(matrix, transformed))
        try:
            schur = schur_complement(permuted, partition.split)
        except SingularMatrixError as exc:
            failures.append(f"attempt {attempt}: {exc}")
            continue
        pairs = eigen_schur(to_float(schur))
        if any(pair.clustered for pair in pairs):
            failures.append(f"attempt {attempt}: clustered eigenvalues")
            continue
        try:
            solutions, residuals = _recover_all(
                transformed, partition, to_float(permuted), pairs, change, sys)
        except ExtractionError as exc:
            failures.append(f"attempt {attempt}: {exc}")
            continue
        worst = max(residuals, default=0.0)
        if worst > tol:
            failures.append(f"attempt {attempt}: residual {worst:.3g} above tol {tol:.3g}")
            continue
        return SolveReport(
            type=t,
            solutions=solutions,
            eigenpairs=pairs,
            residuals=residuals,
            retries=attempt,
            seed=seed,
            f0=f0,
            theta=theta,
            change=change,
        )
    raise SolveError(
        f"no solve after {max_retries} attempts (multiplicity, separation or "
        f"residual failure; expected {count} simple solutions): {'; '.join(failures)}")


def _recover_all(transformed, partition, permuted, pairs, change, original):
    solutions = []
    residuals = []
    vectors = np.column_stack([pair.vector for pair in pairs])
    for full in extend_eigenvector(partition, permuted, vectors).T:
        ax, ay = extract_xy(full, transformed.type)
        az = solve_z(transformed, ax, ay)
        back = transform_point(change, ProjectiveSolution(tuple(ax), tuple(ay), tuple(az)))
        back = _realify(back.normalized(tol=1e-12))
        solutions.append(back)
        residuals.append(residual(original, back))
    return solutions, residuals
