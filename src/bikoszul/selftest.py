"""Golden checks against the recorded reference values.

Each check recomputes one quantity from the bundled 10x10 example (or a
formula instance) and compares against the recorded value; `run_checks`
returns (name, passed, detail) triples for the CLI table.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

import numpy as np

from . import core, exactlinalg, koszul, oracle, solver, weyman


def paper_system() -> core.BilinearSystem:
    """The bundled type-(1,1,1;2,1) example system with its trilinear f0."""
    data = resources.files("bikoszul.data").joinpath("paper_2_1_1.json").read_text()
    return core.system_from_obj(json.loads(data))


def fgb_table() -> list[dict]:
    """Recorded benchmark table: Koszul matrix sizes are recomputed, the
    Groebner-side sizes are shipped data (never recomputed here)."""
    data = resources.files("bikoszul.data").joinpath("fgb_table1.json").read_text()
    return json.loads(data)


_KBE = koszul.KoszulBasisElement

# Labels of the reference 10x10 matrix. The original tabulation of this
# example transposes the (H) and (J) column labels; recomputing all
# twenty column entries and the reference eigenvector fixes the
# assignment used here.
PRINTED_COLS = {
    "A": _KBE("L12", (1, 0), (0, 2), (0, 0), (0, 1, 2)),
    "B": _KBE("L12", (0, 1), (2, 0), (0, 0), (0, 1, 2)),
    "C": _KBE("L12", (0, 1), (0, 2), (0, 0), (0, 1, 2)),
    "D": _KBE("L11", (1, 0), (1, 0), (0, 0), (1, 2, 3)),
    "E": _KBE("L11", (1, 0), (0, 1), (0, 0), (1, 2, 3)),
    "F": _KBE("L11", (0, 1), (1, 0), (0, 0), (1, 2, 3)),
    "G": _KBE("L11", (0, 1), (0, 1), (0, 0), (1, 2, 3)),
    "H": _KBE("L12", (0, 1), (1, 1), (0, 0), (0, 1, 2)),
    "I": _KBE("L12", (1, 0), (2, 0), (0, 0), (0, 1, 2)),
    "J": _KBE("L12", (1, 0), (1, 1), (0, 0), (0, 1, 2)),
}
PRINTED_ROWS = {
    "I": _KBE("L01", (0, 0), (0, 0), (0, 0), (1, 3)),
    "II": _KBE("L01", (0, 0), (0, 0), (0, 0), (2, 3)),
    "III": _KBE("L03", (0, 0), (1, 0), (0, 0), (0, 1)),
    "IV": _KBE("L03", (0, 0), (0, 1), (0, 0), (0, 1)),
    "V": _KBE("L03", (0, 0), (1, 0), (0, 0), (0, 2)),
    "VI": _KBE("L03", (0, 0), (0, 1), (0, 0), (0, 2)),
    "VII": _KBE("L02", (0, 0), (1, 0), (0, 1), (1, 2)),
    "VIII": _KBE("L02", (0, 0), (0, 1), (0, 1), (1, 2)),
    "IX": _KBE("L02", (0, 0), (1, 0), (1, 0), (1, 2)),
    "X": _KBE("L02", (0, 0), (0, 1), (1, 0), (1, 2)),
}
ROW_ORDER = ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"]
COL_ORDER = list("ABCDEFGHIJ")

PRINTED_MATRIX = [
    [0, 0, 0, 5, -7, 1, 1, 0, 0, 0],
    [0, 0, 0, 7, -8, -1, 2, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, -1, -5, 7],
    [7, 0, -1, 0, 0, 0, 0, -1, 0, -5],
    [0, 1, 0, 0, 0, 0, 0, -2, -7, 8],
    [8, 0, -2, 0, 0, 0, 0, 1, 0, -7],
    [0, 2, 0, 9, 0, -2, 0, -2, -1, 2],
    [2, 0, -2, 0, 9, 0, -2, 2, 0, -1],
    [0, 1, 0, -6, 0, -1, 0, 2, 3, -4],
    [-4, 0, 2, 0, -6, 0, -1, 1, 0, 3],
]

PRINTED_EXTENDED_VECTOR = [4, 3, 12, 1, 2, 3, 6, 6, 1, 2]

TABLE1_SIZES = [630, 352, 6804, 4125, 2106, 7000, 2450]

ALPHA_1 = core.ProjectiveSolution((1, 1), (1, 1), (1, 1))
ALPHA_2 = core.ProjectiveSolution((1, 3), (1, 2), (1, 3))
THETA = ((1, 0), (1, 0), (1, 0))


def printed_matrix_of(spec: exactlinalg.ExactMatrix, matrix) -> list[list]:
    """Reorder a specialization into the printed row/column layout."""
    ridx = {lab: i for i, lab in enumerate(matrix.rows)}
    cidx = {lab: j for j, lab in enumerate(matrix.cols)}
    return [
        [spec[ridx[PRINTED_ROWS[rk]], cidx[PRINTED_COLS[ck]]] for ck in COL_ORDER]
        for rk in ROW_ORDER
    ]


def run_checks() -> list[tuple[str, bool, str]]:
    sys_ = paper_system()
    t = sys_.type
    results = []

    def check(name, got, want, eq=None):
        ok = eq(got, want) if eq else got == want
        results.append((name, ok, f"got {got!r}, expected {want!r}"))

    check("MHB of the example type", core.mhb(t), 2)
    check("matrix size formula, example type", weyman.mu(t), 10)
    check("matrix size formula, benchmark rows",
          [weyman.mu(core.SystemType(*row["type"])) for row in fgb_table()],
          TABLE1_SIZES)
    check("f1 vanishes at the first solution", core.evaluate(sys_.f[0], ALPHA_1), 0)
    check("f3 vanishes at the second solution", core.evaluate(sys_.f[2], ALPHA_2), 0)
    part_f3 = core.partial_evaluate_xy(sys_.f[2], (1, 3), (1, 2))
    check("partial evaluation of f3", sorted(part_f3.terms.values()), [Fraction(-9), Fraction(3)])

    table = weyman.term_table(t, (0, -1, 1))
    check("term support of the degree vector", sorted(table.nonzero_vp()), [(0, 2), (1, 3)])
    check("term dimensions", (table.dim_at(1), table.dim_at(0)), (10, 10))
    check("the four degree vectors are determinantal",
          [weyman.is_determinantal(t, m)[0] for m in weyman.four_degree_vectors(t)],
          [True] * 4)
    check("first degree vector", weyman.four_degree_vectors(t)[0], (0, -1, 1))
    check("dual degree vector", weyman.dual_vector(t, (0, -1, 1)), (2, 2, -1))

    matrix = koszul.assemble_delta1(t)
    blocks1 = [sum(1 for e in matrix.cols if e.block == b) for b in ("L11", "L12")]
    blocks0 = [sum(1 for e in matrix.rows if e.block == b)
               for b in ("L01", "L02", "L03", "L04")]
    check("column block sizes", blocks1, [4, 6])
    check("row block sizes", blocks0, [2, 4, 4, 0])

    spec = koszul.specialize(matrix, sys_)
    check("printed 10x10 matrix, entry for entry",
          printed_matrix_of(spec, matrix), PRINTED_MATRIX)

    part = koszul.theta_partition(matrix, THETA)
    check("partition split", (part.split, part.size - part.split), (8, 2))
    schur = exactlinalg.schur_complement(part.apply(spec), part.split)
    check("Schur complement", schur.rows, [[5, -2], [4, -1]])

    pairs = solver.eigen_schur(exactlinalg.to_float(schur))
    check("eigenvalues", sorted(round(p.value.real, 9) for p in pairs), [1.0, 3.0])
    check("separation values of f0/theta",
          sorted(core.evaluate(sys_.f0, a) / core.evaluate(
              core.monomial_poly(t.nvars, (1, 1, 1), THETA), a)
              for a in (ALPHA_1, ALPHA_2)),
          [1, 3])

    unit = [p for p in pairs if abs(p.value - 1) < 1e-9][0]
    full = solver.extend_eigenvector(part, exactlinalg.to_float(part.apply(spec)), unit.vector)
    cidx = {lab: j for j, lab in enumerate(matrix.cols)}
    got = np.array([full[cidx[PRINTED_COLS[c]]] for c in COL_ORDER])
    want = np.array(PRINTED_EXTENDED_VECTOR, dtype=complex)
    factor = got[2] / want[2]
    check("extended eigenvector (up to scale)",
          float(np.max(np.abs(got - factor * want))) < 1e-8 * float(np.max(np.abs(want))),
          True)

    ax, ay = solver.extract_xy(full, t)
    check("x coordinates from the eigenvector",
          abs(ax[1] / ax[0] - 3) < 1e-8, True)
    check("y coordinates from the eigenvector",
          abs(ay[1] / ay[0] - 2) < 1e-8, True)
    az = solver.solve_z(sys_, (1, 3), (1, 2))
    check("z coordinates from the linear system",
          abs(az[1] / az[0] - 3) < 1e-8, True)

    dv2 = oracle.dual_veronese("y", 2, (1, 2))
    check("degree-2 dual form at the second solution",
          [dv2.coefficient(e) for e in core.monomial_basis(1, 2)],
          [Fraction(1), Fraction(2), Fraction(4)])
    dvx = oracle.dual_veronese("x", 1, (1, 3))
    check("degree-1 dual form at the second solution",
          [dvx.coefficient(e) for e in core.monomial_basis(1, 1)],
          [Fraction(1), Fraction(3)])
    rho = oracle.build_rho(t, (1, 3), (1, 2), [1, 1])
    check("rank-1 embedding coefficient",
          rho[cidx[_KBE("L11", (0, 1), (0, 1), (0, 0), (1, 2, 3))]], 6)

    report = solver.solve_2bilinear(core.BilinearSystem(t, sys_.f), seed=0)
    normalized = sorted(
        tuple(tuple(round(complex(c).real, 6) for c in b) for b in sol.blocks)
        for sol in report.solutions
    )
    check("solutions of the example system",
          normalized,
          sorted([((1.0, 1.0), (1.0, 1.0), (1.0, 1.0)),
                  ((1.0, 3.0), (1.0, 2.0), (1.0, 3.0))]))
    return results
