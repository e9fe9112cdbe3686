"""Command-line frontend.

Subcommands: dims, search-dv, matrix, resultant, solve, oracle,
selftest-paper, example-system. Exit codes: 0 success, 1 domain error
(with a machine-readable error record on stdout) or standard output
closed by its reader (with nothing more printed), 2 usage error.

All commands are deterministic given (input, seed); JSON outputs carry
the tool version and the randomization used. `--output` takes text or
json, and csv on `matrix`, the one command with a table to write; an
option that a command would ignore is an error, not dropped.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys as _sys

from . import __version__, core, exactlinalg, koszul, oracle, selftest, solver, weyman


def _parse_type(text: str) -> core.SystemType:
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 5:
        raise core.DomainError("--type needs nx,ny,nz,r,s")
    return core.SystemType(*parts)


def _parse_degree_vector(text: str):
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 3:
        raise core.DomainError("--degree-vector needs mx,my,mz")
    return tuple(parts)


def _parse_field(text: str | None) -> int | None:
    if text is None or text == "q":
        return None
    if text.startswith("fp:"):
        return exactlinalg.require_prime(int(text[3:]))
    raise core.DomainError(f"unknown field spec {text!r} (use q or fp:<p>)")


def _parse_box(text: str, t: core.SystemType):
    if text is None:
        return weyman.default_box(t)
    lo, _, hi = text.partition(":")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise core.DomainError(f"--box {text}: the low end is above the high end")
    return ((lo, hi),) * 3


def _load_system(path: str) -> core.BilinearSystem:
    if path == "paper":
        return selftest.paper_system()
    with open(path) as handle:
        return core.system_from_obj(json.load(handle))


def _emit(args, payload: dict, text_lines):
    if args.output == "json":
        payload = {"version": __version__, **payload}
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def cmd_dims(args) -> int:
    t = _parse_type(args.type)
    m = _parse_degree_vector(args.degree_vector)
    table = weyman.term_table(t, m)
    ok, d1, d0 = weyman.is_determinantal(t, m)
    payload = {
        "command": "dims",
        "type": vars(t),
        "degree_vector": list(m),
        "determinantal": ok,
        "dim_k1": d1,
        "dim_k0": d0,
        "entries": [vars(e) | {"j": list(e.j), "kinds": list(e.kinds)} for e in table.entries],
    }
    lines = [f"type {t} degree vector {m}",
             f"determinantal: {ok}  dim K1 = {d1}  dim K0 = {d0}",
             f"{'v':>3} {'p':>3} {'a':>3} {'b':>3} {'c':>3} {'j':>10} {'dim':>6}  kinds"]
    for e in table.entries:
        lines.append(f"{e.v:>3} {e.p:>3} {e.a:>3} {e.b:>3} {e.c:>3} "
                     f"{str(e.j):>10} {e.dim:>6}  {','.join(e.kinds)}")
    _emit(args, payload, lines)
    return 0


def cmd_search_dv(args) -> int:
    t = _parse_type(args.type)
    box = _parse_box(args.box, t)
    found = weyman.search_degree_vectors(t, box)
    payload = {"command": "search-dv", "type": vars(t),
               "box": [list(b) for b in box], "found": [list(m) for m in found]}
    _emit(args, payload, [f"{m[0]},{m[1]},{m[2]}" for m in found])
    return 0


def cmd_matrix(args) -> int:
    if args.field is not None and not args.system:
        raise core.DomainError("--field specializes a system: give --system, "
                               "or drop --field for the symbolic matrix")
    sys_ = _load_system(args.system) if args.system else None
    t = sys_.type if sys_ is not None else _parse_type(args.type)
    matrix = koszul.assemble_delta1(t)
    payload = {
        "command": "matrix",
        "type": vars(t),
        "degree_vector": list(matrix.m),
        "size": matrix.size,
        "rows": [koszul.label_str(e) for e in matrix.rows],
        "cols": [koszul.label_str(e) for e in matrix.cols],
    }
    if args.theta:
        theta = core.parse_exponent_key(args.theta, t.nvars)
        part = koszul.theta_partition(matrix, theta)
        payload["theta"] = {
            "exponent": core.exponent_key(theta),
            "split": part.split,
            "row_perm": part.row_perm.tolist(),
            "col_perm": part.col_perm.tolist(),
        }
    field = _parse_field(args.field)
    if sys_ is not None:
        spec = koszul.specialize(matrix, sys_, field)
        payload["entries"] = [[str(v) for v in row] for row in spec.rows]
        grid = payload["entries"]
    else:
        grid = [["0"] * matrix.size for _ in range(matrix.size)]
        labels = [koszul.entry_str(ref) for ref in matrix.references]
        for i, j, k in zip(matrix.row_idx.tolist(), matrix.col_idx.tolist(),
                           matrix.ref_idx.tolist()):
            grid[i][j] = labels[k]
        payload["entries"] = grid
    if args.output == "csv":  # labels and entries hold commas: csv.writer quotes them
        writer = csv.writer(_sys.stdout, lineterminator="\n")
        writer.writerow(["", *payload["cols"]])
        writer.writerows([label, *row] for label, row in zip(payload["rows"], grid))
    else:
        _emit(args, payload,
              [f"size {matrix.size}"] + [" ".join(f"{v:>14}" for v in row) for row in grid])
    return 0


def cmd_resultant(args) -> int:
    sys_ = _load_system(args.system)
    if sys_.f0 is None:
        raise core.DomainError("resultant needs a system file with f0")
    field = _parse_field(args.field)
    matrix = koszul.assemble_delta1(sys_.type)
    value = exactlinalg.det(koszul.specialize(matrix, sys_, field))
    payload = {"command": "resultant", "type": vars(sys_.type),
               "field": args.field or "q", "det": str(value), "vanishes": value == 0}
    _emit(args, payload, [f"det = {value}", f"vanishes: {value == 0}"])
    return 0


def cmd_solve(args) -> int:
    sys_ = _load_system(args.system)
    report = solver.solve_2bilinear(core.BilinearSystem(sys_.type, sys_.f),
                                    seed=args.seed, tol=args.tol)
    payload = {
        "command": "solve",
        "type": vars(sys_.type),
        "seed": args.seed,
        "theta": core.exponent_key(report.theta),
        "f0": core.poly_to_obj(report.f0),
        "coordinate_change": [[[str(v) for v in row] for row in block]
                              for block in report.change.blocks],
        "retries": report.retries,
        "eigenvalues": [[p.value.real, p.value.imag] for p in report.eigenpairs],
        "solutions": [
            {
                "blocks": [[[complex(c).real, complex(c).imag] for c in block]
                           for block in sol.blocks],
                "residual": res,
            }
            for sol, res in zip(report.solutions, report.residuals)
        ],
    }
    lines = [f"{len(report.solutions)} solutions (retries {report.retries})"]
    for sol, res in zip(report.solutions, report.residuals):
        lines.append("  " + " ; ".join(
            "(" + " : ".join(_fmt_coord(c) for c in block) + ")" for block in sol.blocks)
            + f"   residual {res:.2e}")
    _emit(args, payload, lines)
    return 0


def _fmt_coord(c) -> str:
    c = complex(c)
    if abs(c.imag) < 1e-12 * max(1.0, abs(c)):
        return f"{c.real:.6g}"
    return f"{c.real:.6g}{c.imag:+.6g}i"


def cmd_oracle(args) -> int:
    sys_ = _load_system(args.system)
    field = _parse_field(args.field)
    if field is None:
        raise core.DomainError("the exhaustive oracle needs --field fp:<p>")
    sols = oracle.ff_solve(sys_, field, include_f0=args.include_f0)
    payload = {"command": "oracle", "type": vars(sys_.type), "p": field,
               "count": len(sols),
               "solutions": [[list(s.x), list(s.y), list(s.z)] for s in sols]}
    _emit(args, payload,
          [f"{len(sols)} projective solutions over F_{field}"] +
          ["  " + " ; ".join(str(b) for b in s.blocks) for s in sols])
    return 0


def cmd_selftest_paper(args) -> int:
    checks = selftest.run_checks()
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, ok, detail in checks:
        status = "pass" if ok else "FAIL"
        print(f"{name:<{width}}  {status}" + ("" if ok else f"  ({detail})"))
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def cmd_example_system(args) -> int:
    print(json.dumps(core.system_to_obj(selftest.paper_system()), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bikoszul",
        description="Koszul resultant matrices and eigenvalue solving "
                    "for 2-bilinear polynomial systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, system=False, type_=False, field=False, seed=False, csv=False):
        # a command that takes both takes exactly one of them
        source = p.add_mutually_exclusive_group(required=True) if system and type_ else p
        if system:
            source.add_argument("--system", required=source is p,
                                help="system JSON file ('paper' for the bundled example)")
        if type_:
            source.add_argument("--type", required=source is p, help="nx,ny,nz,r,s")
        if field:
            p.add_argument("--field", help="q (exact rationals, default) or fp:<p>")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", choices=("text", "json", "csv") if csv else ("text", "json"),
                       default="text")

    p = sub.add_parser("dims", help="term dimensions of the complex for a degree vector")
    common(p, type_=True)
    p.add_argument("--degree-vector", required=True, help="mx,my,mz")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("search-dv", help="search a box for determinantal degree vectors")
    common(p, type_=True)
    p.add_argument("--box", help="lo:hi, applied to all three components "
                                 "(write --box=-2:3 for a negative low end)")
    p.set_defaults(func=cmd_search_dv)

    p = sub.add_parser("matrix", help="the symbolic or specialized resultant matrix")
    common(p, system=True, type_=True, field=True, csv=True)
    p.add_argument("--theta", help="exponent key of the splitting monomial")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("resultant", help="determinant of the specialized matrix")
    common(p, system=True, field=True)
    p.set_defaults(func=cmd_resultant)

    p = sub.add_parser("solve", help="solve a square 2-bilinear system")
    common(p, system=True, seed=True)
    p.add_argument("--tol", type=float, default=solver.RESIDUAL_TOL)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive solution list over a prime field")
    common(p, system=True, field=True)
    p.add_argument("--include-f0", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("selftest-paper", help="run every recorded golden check")
    p.set_defaults(func=cmd_selftest_paper)

    p = sub.add_parser("example-system", help="print the bundled example system JSON")
    p.set_defaults(func=cmd_example_system)
    return parser


def _run(args) -> int:
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except (ValueError, exactlinalg.SingularMatrixError, solver.SolveError,
            koszul.AssemblyError, OSError) as exc:
        record = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record))
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        _sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader closed stdout: print nothing more, and send the
        # interpreter's final flush to devnull so that it cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    _sys.exit(main())
