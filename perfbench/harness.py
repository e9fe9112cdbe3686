"""Workloads, timed ops and correctness checks of the bikoszul benchmark.

Each workload turns a seed into a fixed list of ops. An op is one call
into the library's public functions; its output is checked after the
pass, outside the timed region. See README.md for why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from typing import Callable

from bikoszul import core, exactlinalg, koszul, solver, weyman
from hostspeed import SpeedMeter
from tracing import NullTracer, Tracer, instrument

P = 1_000_003
NONZERO = (-3, -2, -1, 1, 2, 3)
ROOT_TOL = 1e-6
SETUP_REPS = 5
NULL = NullTracer()

# (type, systems of that type): the solve ladder, largest op last. Its
# time depends on the system drawn (about 10% between seeds), so the
# largest type is drawn three times to shrink that part of the spread.
SOLVE_PLAN = (((1, 1, 1, 2, 1), 1), ((3, 1, 1, 3, 2), 1), ((2, 2, 2, 3, 3), 1),
              ((3, 3, 1, 4, 3), 3))
# det over Q on the first three types, over F_p on all five
RESULTANT_Q = ((2, 2, 2, 3, 3), (3, 3, 1, 4, 3), (3, 2, 2, 4, 3))
RESULTANT_FP = RESULTANT_Q + ((10, 1, 1, 10, 2), (2, 6, 4, 7, 5))
MATRIX_TYPES = ((2, 6, 4, 7, 5), (6, 4, 2, 5, 7), (4, 4, 4, 6, 6))


@dataclass
class Verdict:
    good: int                       # outcomes that passed (solutions, or 1 per op)
    problems: list = field(default_factory=list)
    residual: float = 0.0           # worst solution residual (solve only)


@dataclass
class Op:
    key: str
    run: Callable                   # run(tracer) -> output; the timed call
    check: Callable                 # check(output, outputs by key) -> Verdict
    digest: Callable = lambda out: out  # value compared across passes
    outcomes: int = 1
    prepare: Callable | None = None  # untimed, before each call


# -- inputs ----------------------------------------------------------------

def planted_point(t: core.SystemType, rng) -> core.ProjectiveSolution:
    """Integer point with every first coordinate 1 and no zero coordinate."""
    return core.ProjectiveSolution(*(
        tuple([1] + [rng.choice(NONZERO) for _ in range(n)]) for n in t.dims))


def solvable_planted(t, rng, tracer, tries: int = 50):
    """A planted-root system with finitely many roots.

    Small types sometimes draw two equations with a common factor, which
    gives a curve of roots. Such a system makes the resultant vanish for
    every f0, so a draw is kept only when det mod p is nonzero for a
    random f0.
    """
    matrix = koszul.assemble_delta1(t)
    for _ in range(tries):
        with tracer.span("core.system_gen"):
            alpha = planted_point(t, rng)
            system = core.planted_root_system(t, alpha, rng)
            f0, _ = solver.choose_f0_and_theta(t, rng)
        with tracer.span("bench.input_check"):
            if exactlinalg.det(koszul.specialize(matrix, system.with_f0(f0), P)):
                return system, alpha
    raise RuntimeError(f"no zero-dimensional planted system of type {t} in {tries} draws")


# -- checks shared by the workloads ----------------------------------------

def residual(system: core.BilinearSystem, sol: core.ProjectiveSolution) -> float:
    """max_i |f_i(sol)| / ||f_i||_2 with every block scaled to unit norm."""
    blocks = []
    for block in sol.blocks:
        coords = [complex(c) for c in block]
        norm = sqrt(sum(abs(c) ** 2 for c in coords))
        blocks.append([c / norm for c in coords])
    worst = 0.0
    for poly in system.f:
        value = 0j
        for exp, coeff in poly.terms.items():
            term = complex(coeff)
            for block_exp, coords in zip(exp, blocks):
                for e, c in zip(block_exp, coords):
                    term *= c ** e
            value += term
        norm = sqrt(sum(float(c) ** 2 for c in poly.terms.values()))
        worst = max(worst, abs(value) / norm)
    return worst


def matches(sol: core.ProjectiveSolution, alpha: core.ProjectiveSolution) -> bool:
    """sol equals alpha (first coordinates 1) after scaling each block."""
    for block, want in zip(sol.blocks, alpha.blocks):
        coords = [complex(c) for c in block]
        if abs(coords[0]) <= 1e-9 * max(abs(c) for c in coords):
            return False
        if max(abs(c / coords[0] - w) for c, w in zip(coords, want)) > ROOT_TOL:
            return False
    return True


def check_solve(report, system, alpha) -> Verdict:
    t = system.type
    expected = core.mhb(t)
    residuals = [residual(system, sol) for sol in report.solutions]
    good = sum(r <= solver.RESIDUAL_TOL for r in residuals)
    problems = []
    if len(report.solutions) != expected:
        problems.append(f"{len(report.solutions)} solutions, MHB is {expected}")
    if good < len(residuals):
        problems.append(f"{len(residuals) - good} residuals above {solver.RESIDUAL_TOL}")
    if not any(matches(sol, alpha) for sol in report.solutions):
        problems.append("planted root not among the solutions")
    return Verdict(min(good, expected), problems, max(residuals, default=0.0))


def mod_p(value, p: int = P) -> int:
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, p) % p


def check_det(value, planted: bool, twin=None) -> Verdict:
    """planted: det must vanish; random: must not. twin: det of the same
    matrix over F_p, which det over Q must reduce to."""
    problems = []
    if planted and value != 0:
        problems.append(f"planted system gave det {value}, expected 0")
    if not planted and value == 0:
        problems.append("random system gave det 0")
    if twin is not None and mod_p(value) != twin:
        problems.append(f"det over Q is {mod_p(value)} mod p, det over F_p is {twin}")
    return Verdict(0 if problems else 1, problems)


def check_matrix(out, t: core.SystemType, theta_coeff) -> Verdict:
    size, split, diagonal = out
    problems = []
    if size != weyman.mu(t):
        problems.append(f"size {size}, mu is {weyman.mu(t)}")
    if split != weyman.mu(t) - core.mhb(t):
        problems.append(f"split {split}, expected mu - MHB = {weyman.mu(t) - core.mhb(t)}")
    want = mod_p(theta_coeff)
    if len(diagonal) != core.mhb(t) or any(d != want for d in diagonal):
        problems.append(f"M22 diagonal is not {core.mhb(t)} copies of f0's theta "
                        f"coefficient {want} mod p")
    return Verdict(0 if problems else 1, problems)


# -- workloads -------------------------------------------------------------

def _count_matrix(tracer, matrix):
    tracer.add("koszul.mu", matrix.size)
    tracer.add("koszul.nnz", len(matrix.entries))


def solve_ops(seed: int, tracer, plan=SOLVE_PLAN) -> list[Op]:
    """solver.solve_2bilinear on planted-root systems; assembly is warmed here."""
    ops = []
    for ty, copies in plan:
        t = core.SystemType(*ty)
        with tracer.span("koszul.assemble"):
            matrix = koszul.assemble_delta1(t)
        for copy in range(copies):
            rng = random.Random(f"{seed}:solve:{ty}:{copy}")
            system, alpha = solvable_planted(t, rng, tracer)
            ops.append(_solve_op(f"solve{ty}#{copy}", system, alpha, matrix))
    return ops


def _solve_op(key, system, alpha, matrix) -> Op:
    def run(tracer):
        _count_matrix(tracer, matrix)
        with tracer.span("solver.solve"):
            report = solver.solve_2bilinear(system)
        tracer.add("solver.solves", 1)
        tracer.add("solver.attempts", report.retries + 1)
        return report

    def digest(report):
        return report.retries, tuple(tuple(map(complex, b)) for s in report.solutions
                                     for b in s.blocks)

    return Op(key, run, lambda report, _: check_solve(report, system, alpha), digest,
              core.mhb(system.type))


def resultant_ops(seed: int, tracer, q_types=RESULTANT_Q, fp_types=RESULTANT_FP) -> list[Op]:
    """specialize + det over Q and F_p, on planted (det 0) and random systems."""
    systems = {}
    for ty in dict.fromkeys(fp_types + q_types):
        t = core.SystemType(*ty)
        with tracer.span("koszul.assemble"):
            koszul.assemble_delta1(t)
        rng = random.Random(f"{seed}:resultant:{ty}")
        with tracer.span("core.system_gen"):
            planted = core.planted_root_system(t, planted_point(t, rng), rng, include_f0=True)
            f0, _ = solver.choose_f0_and_theta(t, rng)
            systems[ty] = {"planted": planted, "random": core.random_system(t, rng).with_f0(f0)}
    ops = []
    for field_name, field_p, types in (("fp", P, fp_types), ("q", None, q_types)):
        for ty in types:
            for kind, system in systems[ty].items():
                twin = f"det_fp{ty}{kind}" if field_p is None and ty in fp_types else None
                ops.append(_det_op(f"det_{field_name}{ty}{kind}", system, field_p,
                                   kind == "planted", twin))
    return ops


def _det_op(key, system, field_p, planted, twin_key) -> Op:
    span = "exactlinalg.det_q" if field_p is None else "exactlinalg.det_fp"

    def run(tracer):
        matrix = koszul.assemble_delta1(system.type)
        _count_matrix(tracer, matrix)
        with tracer.span("koszul.specialize"):
            spec = koszul.specialize(matrix, system, field_p)
        with tracer.span(span):
            value = exactlinalg.det(spec)
        if field_p is None:
            tracer.maximum("exactlinalg.det_q_bits", Fraction(value).numerator.bit_length())
        return value

    def check(value, outputs):
        if twin_key is not None and twin_key not in outputs:
            return Verdict(0, [f"{twin_key} has no output to compare against"])
        return check_det(value, planted, outputs.get(twin_key))

    return Op(key, run, check)


def matrix_ops(seed: int, tracer, types=MATRIX_TYPES) -> list[Op]:
    """Cold assembly, theta partition, specialize over F_p and permute."""
    ops = []
    for ty in types:
        t = core.SystemType(*ty)
        rng = random.Random(f"{seed}:matrix:{ty}")
        with tracer.span("core.system_gen"):
            f0, theta = solver.choose_f0_and_theta(t, rng)
            system = core.random_system(t, rng).with_f0(f0)
        ops.append(_matrix_op(f"matrix{ty}", system, theta))
    return ops


def _matrix_op(key, system, theta) -> Op:
    t = system.type

    def run(tracer):
        with tracer.span("koszul.assemble"):
            matrix = koszul.assemble_delta1(t)
        _count_matrix(tracer, matrix)
        with tracer.span("koszul.theta_partition"):
            part = koszul.theta_partition(matrix, theta)
        with tracer.span("koszul.specialize"):
            spec = koszul.specialize(matrix, system, P)
        permuted = part.apply(spec)  # spanned as koszul.permute when traced
        diagonal = tuple(permuted[i, i] for i in range(part.split, part.size))
        return matrix.size, part.split, diagonal

    theta_coeff = system.f0.coefficient(theta)
    return Op(key, run, lambda out, _: check_matrix(out, t, theta_coeff),
              prepare=koszul.assemble_delta1.cache_clear)


WORKLOADS = {"solve": solve_ops, "resultant": resultant_ops, "matrix": matrix_ops}


# -- running ---------------------------------------------------------------

@dataclass
class PassResult:
    times: dict                     # op key -> wall seconds
    nominal: dict                   # op key -> nominal seconds (see hostspeed)
    outputs: dict                   # op key -> output (ops that returned)
    errors: dict                    # op key -> message (ops that raised)
    tracer: object

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    @property
    def nominal_wall(self) -> float:
        return sum(self.nominal.values())


def run_pass(ops: list[Op], tracer, meter: SpeedMeter) -> PassResult:
    result = PassResult({}, {}, {}, {}, tracer)
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        tracer.op = op.key
        _, wall, slowdown = meter.time(_run_op, op, tracer, result)
        result.times[op.key] = wall
        result.nominal[op.key] = wall / slowdown
    return result


def _run_op(op: Op, tracer, result: PassResult) -> None:
    try:
        result.outputs[op.key] = op.run(tracer)
    except Exception as exc:  # an op that raises is a failed op; keep measuring
        result.errors[op.key] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)


def judge(ops: list[Op], result: PassResult, reference: PassResult | None) -> dict:
    """Verdict per op; an op whose output differs from the reference pass fails."""
    verdicts = {}
    for op in ops:
        if op.key in result.errors:
            verdicts[op.key] = Verdict(0, [result.errors[op.key]])
            continue
        verdict = op.check(result.outputs[op.key], result.outputs)
        if (reference is not None and op.key in reference.outputs
                and op.digest(result.outputs[op.key]) != op.digest(reference.outputs[op.key])):
            verdict = Verdict(0, verdict.problems + ["output differs from the first pass"],
                              verdict.residual)
        verdicts[op.key] = verdict
    return verdicts


def layer_metrics(result: PassResult, verdicts: dict) -> dict:
    """Per-layer values of one traced phase: nominal self times, counts, waste."""
    tracer = result.tracer
    nominal = tracer.self_times({key: result.nominal[key] / wall
                                 for key, wall in result.times.items()})
    out = {f"{name}_s": value for name, value in nominal.items()}
    counts = tracer.counts
    out.update({name: counts[name] for name in (
        "koszul.mu", "koszul.nnz", "exactlinalg.schur_entry_bits_max",
        "exactlinalg.det_q_bits", "solver.failed_singular", "solver.failed_extraction")})
    solves = counts["solver.solves"]
    retries = counts["solver.attempts"] - solves
    out["solver.attempts_per_solve"] = counts["solver.attempts"] / solves if solves else 0.0
    out["solver.failed_clustered"] = (
        retries - counts["solver.failed_singular"] - counts["solver.failed_extraction"])
    out["solver.residual_max"] = max((v.residual for v in verdicts.values()), default=0.0)
    out["trace.unattributed_s"] = result.nominal_wall - sum(nominal.values())
    return out


def median_dict(dicts: list[dict]) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def run_setup(make_ops, seed: int, traced: bool, meter: SpeedMeter):
    """SETUP_REPS cold set-ups; returns (ops, nominal seconds per set-up,
    traced set-up values)."""
    times, layer = [], []
    for _ in range(SETUP_REPS):
        koszul.assemble_delta1.cache_clear()
        tracer = Tracer(meter.clock) if traced else NULL
        tracer.op = "setup"
        ops, wall, slowdown = meter.time(make_ops, seed, tracer)
        times.append(wall / slowdown)
        if traced:
            layer.append({f"{name}_s": value
                          for name, value in tracer.self_times({"setup": 1 / slowdown}).items()})
    return ops, times, (median_dict(layer) if traced else {})


def run_passes(ops: list[Op], seconds: float, traced: bool, meter: SpeedMeter) -> list[tuple]:
    """Repeat the op list while the next pass fits in `seconds` (at least
    one pass; a traced run alternates untraced and traced passes and makes
    at least one of each). Returns (PassResult, verdicts) per pass."""
    passes = []
    start = time.perf_counter()
    while True:
        with_trace = traced and len(passes) % 2 == 1
        if with_trace:
            tracer = Tracer(meter.clock)
            with instrument(tracer):
                result = run_pass(ops, tracer, meter)
        else:
            result = run_pass(ops, NULL, meter)
        passes.append((result, judge(ops, result, passes[0][0] if passes else None)))
        elapsed = time.perf_counter() - start
        if (not traced or len(passes) >= 2) and elapsed + result.wall > seconds:
            return passes
