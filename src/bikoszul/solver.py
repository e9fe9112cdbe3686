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

Recovery takes every eigenvector of an attempt at once (`_recover_all`):
one extension, one extraction, one stacked SVD for z, one float product
per block of the coordinate change and one residual evaluation, each on
the columns of a matrix; `extract_xy`, `solve_z` and `residual` take one
vector as well, and then return what they return for one solution. The
z-solve and the residual read the system as its coefficient tensors,
f_k = x^T A_k y and f_{r+k} = x^T B_k z (`BilinearSystem.tensors`),
each one `einsum` over every point.

The Schur complement is computed exactly over the rationals. Floating
point enters at its eigen-decomposition and at one float solve of the
leading block M11 on the theta-permuted matrix, which extends every
eigenvector of an attempt; the residual gate checks what follows.

Each attempt records the wall time of every stage it reached, in the
order of `STAGES`, and its outcome, one `AttemptTrace`; the report
keeps them as its `trace`, and a `SolveError` carries the same. A stage
is named for what it computes: "change" the coordinate change and f0,
"specialize" and "permute" the Koszul matrix and its theta order,
"schur" the Schur complement, "eigen" its eigenpairs, "extend" the
float matrix and the extended eigenvectors, "extract" x and y, "z" the
z block, and "residual" the points in the input's coordinates and
their residuals.

Every threshold and range is a module constant, not an argument:
EIGEN_CLUSTER_TOL flags clustered eigenvalues (`eigen_schur`),
EXTRACT_ANCHOR_TOL bounds the anchor and normalizing entries
(`extract_xy`), Z_RANK_TOL the rank test of the z-system (`solve_z`),
F0_COEFF_BOUND the coefficients of f0 (`choose_f0_and_theta`), and
core.CHANGE_BOUND the entries of the coordinate change. RESIDUAL_TOL
is only the default of `solve_2bilinear`'s tol, the one tolerance a
caller sets.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
    monomial_basis,
    random_coordinate_change,
)
from .exactlinalg import SingularMatrixError, schur_complement, to_float
from .koszul import ThetaPartition, assemble_delta1, layout, specialize, theta_partition
from .weyman import mu

EIGEN_CLUSTER_TOL = 1e-7
EXTRACT_ANCHOR_TOL = 1e-9
Z_RANK_TOL = 1e-8
F0_COEFF_BOUND = 10
RESIDUAL_TOL = 1e-6


STAGES = ("change", "specialize", "permute", "schur", "eigen", "extend", "extract", "z",
          "residual")


class AttemptTrace(NamedTuple):
    """One attempt of `solve_2bilinear`: its outcome, "ok", "singular"
    (M11), "clustered" (eigenvalues), "extraction" or "residual" (above
    tol), and the wall seconds of each stage it reached, in `STAGES`
    order; an attempt that raised ends with the stage that raised."""

    outcome: str
    seconds: tuple

    @property
    def stages(self) -> tuple:
        """The names of the stages it reached, in order."""
        return STAGES[:len(self.seconds)]


class SolveError(RuntimeError):
    """Solving failed after all retries (multiplicity, separation or residual
    failure); the message gives the reason of every attempt, and `trace`
    their `AttemptTrace`s."""

    def __init__(self, message: str, trace: tuple = ()):
        super().__init__(message)
        self.trace = trace


class ExtractionError(RuntimeError):
    """Eigenvector block too degenerate to read coordinates off (retry signal)."""


@dataclass(slots=True)
class EigenPair:
    value: complex
    vector: np.ndarray
    clustered: bool = False


@dataclass
class SolveReport:
    """Everything `solve_2bilinear` did: solutions with residuals plus the
    full randomization (A, f0, theta, seed) needed to reproduce the run,
    and the `AttemptTrace` of every attempt, the last one "ok"."""

    type: SystemType
    solutions: list
    eigenpairs: list
    residuals: list
    retries: int
    seed: object
    f0: MHPoly
    theta: Exponent
    change: CoordinateChange
    trace: tuple = ()


def eigen_schur(matrix) -> list[EigenPair]:
    """All eigenvalue / right-eigenvector pairs of a dense matrix, sorted
    by (real, imag); pairs closer than EIGEN_CLUSTER_TOL * (1 + max
    |value|) to some other eigenvalue are flagged as clustered."""
    array = np.asarray(matrix, dtype=complex)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise DomainError("eigen decomposition needs a square matrix")
    if not np.all(np.isfinite(array)):
        raise DomainError("matrix has non-finite entries")
    values, vectors = np.linalg.eig(array)
    order = np.lexsort((values.imag, values.real))
    scale = EIGEN_CLUSTER_TOL * (1.0 + max(abs(values).max(initial=0.0), 0.0))
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
    out[partition.col_perm] = stacked
    return out


def extract_xy(vectors, t: SystemType):
    """Read (alpha_x, alpha_y) off a kernel vector in the k1 basis order,
    or off each column of a matrix of them: for one vector two tuples,
    for a matrix two arrays with one column per vector.

    The vector is a rank-1 combination per exterior index set: reshaped
    by the k1 block layout, each index set's entries form an (nx+1) x
    (dual-y monomials) array, a dual-x factor times a dual-y factor. The
    index set with the largest entry gives alpha_x as its dominant
    dual-y column (the dual form over x has coefficient (x_i/x_0)(alpha)
    at dx_i). alpha_y comes from the dominant dual-x row of the index
    set of dual-y degree d >= 1 with the largest entry (blocks of degree
    0 carry no y information): anchored at the row's largest entry, at
    tau with tau_a >= 1, y_j / y_a = v(tau - e_a + e_j) / v(tau). Both
    are scaled so that their first entry above EXTRACT_ANCHOR_TOL times
    their largest is 1. The first maximum in basis order wins a tie.
    Every column is read at once, through the index tables of
    `_k1_groups`; any column that cannot be read raises ExtractionError.
    """
    if len(vectors) != mu(t):
        raise DomainError("vector length does not match the k1 basis")
    vectors = np.asarray(vectors)
    single = vectors.ndim == 1
    vectors = vectors.reshape(len(vectors), -1)
    cols = np.arange(vectors.shape[1])
    rows, lifted, shifts = _k1_groups(t)
    # (index set, dx, dy, vector); a zero row pads the shorter dual-y lists
    groups = np.concatenate([vectors, np.zeros_like(vectors[:1])])[rows]
    magnitudes = np.abs(groups)
    peaks = magnitudes.max(axis=(1, 2))
    overall = peaks.max(axis=0)
    if not overall.all():
        raise ExtractionError("zero vector")
    best = peaks.argmax(axis=0)
    block, magnitude = groups[best, :, :, cols], magnitudes[best, :, :, cols]
    alpha_x = _normalize(block[cols, :, magnitude.max(axis=1).argmax(axis=1)],
                         EXTRACT_ANCHOR_TOL)
    best = np.where(lifted[:, None], peaks, -1).argmax(axis=0)  # dual-y degree >= 1
    block, magnitude = groups[best, :, :, cols], magnitudes[best, :, :, cols]
    dx = magnitude.max(axis=2).argmax(axis=1)
    row, magnitude = block[cols, dx], magnitude[cols, dx]
    anchor = magnitude.argmax(axis=1)
    if (magnitude[cols, anchor] <= EXTRACT_ANCHOR_TOL * overall).any():
        raise ExtractionError("anchor coefficient too small")
    alpha_y = _normalize(row[cols[:, None], shifts[best, anchor]], EXTRACT_ANCHOR_TOL)
    if single:
        return tuple(alpha_x[0]), tuple(alpha_y[0])
    return alpha_x.T, alpha_y.T


@lru_cache(maxsize=None)
def _k1_groups(t: SystemType) -> tuple:
    """The k1 basis by exterior index set, for `extract_xy`: (rows,
    lifted, shifts). rows[g, i, j] is the position in the basis of index
    set g's entry at dx_i and its j-th dual-y monomial, and mu, a zero
    row the reader appends, past the end of the set's own list; lifted[g]
    says whether the set's dual-y degree is at least 1; shifts[g, j]
    lists, for tau the set's j-th dual-y monomial and a its first
    variable with tau_a >= 1, the positions of tau - e_a + e_0, ...,
    tau - e_a + e_ny in that list (0 for a set of degree 0). Blocks run
    L11 then L12, each by index set, then dx, then dy (dz is trivial)."""
    blocks = [(block, monomial_basis(t.ny, block.degrees[1]))
              for block in layout(t)[1].values() if block.isets]
    width = max(len(dys) for _, dys in blocks)
    rows, lifted, shifts = [], [], []
    for block, dys in blocks:
        count, lift = len(block.isets), block.degrees[1] >= 1
        place = {dy: j for j, dy in enumerate(dys)}
        table = np.zeros((width, t.ny + 1), dtype=np.intp)
        for j, tau in enumerate(dys if lift else ()):
            a = next(i for i, e in enumerate(tau) if e)
            table[j] = [place[tuple(e - (i == a) + (i == k) for i, e in enumerate(tau))]
                        for k in range(t.ny + 1)]
        labels = np.full((count, t.nx + 1, width), mu(t), dtype=np.intp)
        labels[:, :, :len(dys)] = np.arange(block.first, block.first + block.size).reshape(
            count, t.nx + 1, len(dys))
        rows.append(labels)
        lifted += [lift] * count
        shifts += [table] * count
    return np.concatenate(rows), np.array(lifted), np.array(shifts)


def _normalize(coords, tol):
    """Each row divided by its first entry above tol times its largest,
    that entry then exactly 1; ExtractionError for a row with none (a
    zero or non-finite row)."""
    magnitude = np.abs(coords)
    above = magnitude > tol * magnitude.max(axis=1)[:, None]
    if not above.any(axis=1).all():
        raise ExtractionError("cannot normalize block")
    rows, lead = np.arange(len(coords)), above.argmax(axis=1)
    coords = coords / coords[rows, lead][:, None]
    coords[rows, lead] = 1
    return coords


def solve_z(sys: BilinearSystem, alpha_x, alpha_y):
    """The unique z making (alpha_x, alpha_y, z) a solution: kernel
    direction of the stacked linear forms f_{r+k}(alpha_x, z) =
    alpha_x^T B_k z of the S(1,0,1) equations (the S(1,1,0) ones are
    constants that already vanish there); they do not involve y.

    alpha_x is one point, giving z as a tuple, or the columns of a
    matrix, giving a matrix of z columns from one stacked SVD; a column
    whose forms have rank below nz, its nz-th singular value at most
    Z_RANK_TOL times max(1, its largest), raises ExtractionError."""
    t = sys.type
    ax = np.asarray(alpha_x, dtype=complex)
    single = ax.ndim == 1
    ax = ax.reshape(len(ax), -1)
    if t.nz == 0:
        return (1.0 + 0j,) if single else np.ones((1, ax.shape[1]), dtype=complex)
    _, b, _ = sys.tensors
    _, sv, vh = np.linalg.svd(np.einsum("kij,in->nkj", b, ax))
    padded = np.zeros((ax.shape[1], t.nz + 1))
    padded[:, :sv.shape[1]] = sv
    scale = np.maximum(1.0, padded[:, 0])
    if (padded[:, t.nz - 1] <= Z_RANK_TOL * scale).any():
        raise ExtractionError("z-system rank below nz: multiple z-solutions")
    z = vh[:, -1].conj()
    return tuple(z[0]) if single else z.T


@lru_cache(maxsize=None)
def default_theta(t: SystemType) -> Exponent:
    """x0 y0 z0, one shared tuple per type."""
    return tuple((1,) + (0,) * n_t for n_t in t.dims)


def choose_f0_and_theta(t: SystemType, seed):
    """Random trilinear f0, coefficients uniform in [-F0_COEFF_BOUND,
    F0_COEFF_BOUND], plus the separating monomial theta = x0 y0 z0; the
    theta coefficient is forced nonzero."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    theta = default_theta(t)
    terms = {}
    for exp in exponent_basis(t.nvars, (1, 1, 1)):
        terms[exp] = rng.randint(-F0_COEFF_BOUND, F0_COEFF_BOUND)
    while terms[theta] == 0:
        terms[theta] = rng.randint(-F0_COEFF_BOUND, F0_COEFF_BOUND)
    return MHPoly(t.nvars, (1, 1, 1), terms), theta


def residual(sys: BilinearSystem, sol):
    """max_i |f_i(sol)| / ||f_i|| with every block scaled to unit norm;
    a zero f_i contributes 0, and a point with a NaN or infinite
    coordinate gets inf. sol is a ProjectiveSolution, giving a float, or
    a matrix whose columns are points, the x, y and z blocks stacked,
    giving an array of one residual per column. Every f_i is evaluated
    at every point at once as x^T A_k y or x^T B_k z
    (`BilinearSystem.tensors`)."""
    single = isinstance(sol, ProjectiveSolution)
    if single:
        sol = [[complex(c)] for block in sol.blocks for c in block]
    point = np.asarray(sol, dtype=complex)
    a, b, norms = sys.tensors
    with np.errstate(invalid="ignore"):  # a non-finite point is reported as inf below
        x, y, z = (block / np.linalg.norm(block, axis=0)
                   for block in np.split(point, np.cumsum(sys.type.nvars)[:-1]))
        values = np.concatenate([np.einsum("kij,in,jn->kn", a, x, y),
                                 np.einsum("kij,in,jn->kn", b, x, z)])
    worst = (np.abs(values) / np.where(norms > 0, norms, 1.0)[:, None]).max(axis=0)
    worst[np.isnan(worst)] = np.inf
    return float(worst[0]) if single else worst


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
    trace, failures = [], []
    for attempt in range(max_retries):
        marks = [time.perf_counter()]

        def lap():  # the stage that just ended
            marks.append(time.perf_counter())

        rng = random.Random(f"{seed}:{attempt}")
        change = random_coordinate_change(t, rng)
        f0, theta = choose_f0_and_theta(t, rng)
        transformed = apply_coordinate_change(BilinearSystem(t, sys.f), change).with_f0(f0)
        lap()
        specialized = specialize(matrix, transformed)
        lap()
        permuted = partition.apply(specialized)
        lap()
        outcome = "ok"
        try:
            schur = schur_complement(permuted, partition.split)
            lap()
            pairs = eigen_schur(to_float(schur))
            lap()
            if any(pair.clustered for pair in pairs):
                outcome, reason = "clustered", "clustered eigenvalues"
            else:
                solutions, residuals = _recover_all(
                    transformed, partition, to_float(permuted), pairs, change, sys, lap)
                worst = max(residuals, default=0.0)
                if worst > tol:
                    outcome, reason = "residual", f"residual {worst:.3g} above tol {tol:.3g}"
        except SingularMatrixError as exc:
            lap()
            outcome, reason = "singular", str(exc)
        except ExtractionError as exc:
            lap()
            outcome, reason = "extraction", str(exc)
        trace.append(AttemptTrace(outcome, tuple(b - a for a, b in zip(marks, marks[1:]))))
        if outcome != "ok":
            failures.append(f"attempt {attempt}: {reason}")
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
            trace=tuple(trace),
        )
    raise SolveError(
        f"no solve after {max_retries} attempts (multiplicity, separation or "
        f"residual failure; expected {count} simple solutions): {'; '.join(failures)}",
        tuple(trace))


def _recover_all(transformed, partition, permuted, pairs, change, original, lap=lambda: None):
    """(solutions, residuals) of every eigenpair of an attempt, each stage
    once for all of them: extend the eigenvectors, extract x and y, solve
    z, undo the coordinate change (one float product per block), scale
    each block so its first entry above 1e-12 times its largest is 1,
    report a point real when every imaginary part is at most 1e-8 times
    its largest coordinate, and take the residuals. `lap` is called as
    each of the stages "extend", "extract", "z" and "residual" ends."""
    t = transformed.type
    full = extend_eigenvector(partition, permuted,
                              np.column_stack([pair.vector for pair in pairs]))
    lap()
    ax, ay = extract_xy(full, t)
    lap()
    az = solve_z(transformed, ax, ay)
    lap()
    point = np.concatenate([_normalize((np.array(mat, dtype=float) @ coords).T, 1e-12).T
                            for mat, coords in zip(change.blocks, (ax, ay, az))])
    real = (np.abs(point.imag) <= 1e-8 * np.abs(point).max(axis=0)).all(axis=0)
    point = np.where(real, point.real, point)
    residuals = residual(original, point)
    bounds = np.cumsum((0, *t.nvars)).tolist()
    solutions = []
    for column, flag in zip(point.T, real):
        values = (column.real if flag else column).tolist()
        solutions.append(ProjectiveSolution(*(values[a:b] for a, b in zip(bounds, bounds[1:]))))
    lap()
    return solutions, residuals.tolist()
