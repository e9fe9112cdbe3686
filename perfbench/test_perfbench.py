"""Tests of the benchmark itself: every check rejects a wrong answer,
tracing changes no op output, and sampling the host's speed stays out of
the timed intervals. Small types only, so this runs in seconds."""

import dataclasses
import statistics
import time

import harness
import hostspeed
import pytest
from bikoszul import koszul, solver
from harness import NULL, Verdict
from hostspeed import SpeedMeter
from tracing import SOLVER_HOOKS, Tracer, instrument

SMALL = ((1, 1, 1, 2, 1), (2, 1, 1, 2, 2))


def small_ops():
    return {
        "solve": harness.solve_ops(3, NULL, plan=tuple((ty, 1) for ty in SMALL)),
        "resultant": harness.resultant_ops(3, NULL, q_types=SMALL, fp_types=SMALL),
        "matrix": harness.matrix_ops(3, NULL, types=SMALL),
    }


@pytest.fixture(scope="module")
def passes():
    """Each small workload run once untraced and once traced."""
    out = {}
    meter = SpeedMeter()
    for name, ops in small_ops().items():
        plain = harness.run_pass(ops, NULL, meter)
        tracer = Tracer(meter.clock)
        with instrument(tracer):
            traced = harness.run_pass(ops, tracer, meter)
        out[name] = (ops, plain, traced)
    return out


def test_small_workloads_pass_their_checks(passes):
    for ops, plain, traced in passes.values():
        for result in (plain, traced):
            verdicts = harness.judge(ops, result, plain)
            assert all(not v.problems and v.good == op.outcomes
                       for op, v in zip(ops, verdicts.values())), verdicts


def test_tracing_leaves_op_outputs_unchanged(passes):
    for ops, plain, traced in passes.values():
        assert not plain.errors and not traced.errors
        for op in ops:
            assert op.digest(plain.outputs[op.key]) == op.digest(traced.outputs[op.key])


def test_traced_solve_records_every_solver_layer(passes):
    ops, _, traced = passes["solve"]
    names = set(traced.tracer.self_times())
    assert set(SOLVER_HOOKS.values()) | {"koszul.permute", "solver.solve"} <= names
    layers = harness.layer_metrics(traced, harness.judge(ops, traced, None))
    assert layers["solver.attempts_per_solve"] >= 1
    assert layers["exactlinalg.schur_entry_bits_max"] > 0
    assert 0 < layers["solver.residual_max"] <= solver.RESIDUAL_TOL
    assert 0 <= layers["trace.unattributed_s"] < traced.nominal_wall


def test_instrument_restores_the_solver_module():
    before = {attr: getattr(solver, attr) for attr in SOLVER_HOOKS}
    apply = koszul.ThetaPartition.apply
    with instrument(Tracer()):
        assert solver.schur_complement is not before["schur_complement"]
    assert {attr: getattr(solver, attr) for attr in SOLVER_HOOKS} == before
    assert koszul.ThetaPartition.apply is apply


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    times = tracer.self_times()
    (_, _, start, end, _, _), (_, _, istart, iend, parent, _) = tracer.spans
    assert parent == 0
    assert times["outer"] == pytest.approx((end - start) - (iend - istart))


def test_solve_check_rejects_wrong_reports(passes):
    ops, plain, _ = passes["solve"]
    op = ops[-1]
    report = plain.outputs[op.key]
    assert not op.check(report, {}).problems
    fewer = dataclasses.replace(report, solutions=report.solutions[1:])
    assert any("solutions, MHB is" in p for p in op.check(fewer, {}).problems)
    shifted = [dataclasses.replace(s, x=tuple(c + 0.5 for c in s.x)) for s in report.solutions]
    verdict = op.check(dataclasses.replace(report, solutions=shifted), {})
    assert verdict.good == 0
    assert any("residuals above" in p for p in verdict.problems)
    assert "planted root not among the solutions" in verdict.problems


def test_det_check_rejects_wrong_values():
    assert not harness.check_det(0, planted=True).problems
    assert harness.check_det(5, planted=True).problems
    assert harness.check_det(0, planted=False).problems
    assert not harness.check_det(harness.P + 7, planted=False, twin=7).problems
    assert harness.check_det(harness.P + 7, planted=False, twin=8).problems


def test_det_op_rejects_nonzero_det_for_planted_system(passes):
    ops, plain, _ = passes["resultant"]
    planted = [op for op in ops if op.key.endswith("planted")]
    assert planted
    for op in planted:
        assert op.check(plain.outputs[op.key], plain.outputs) == Verdict(1)
        assert op.check(1, plain.outputs).problems


def test_matrix_check_rejects_wrong_outputs(passes):
    ops, plain, _ = passes["matrix"]
    op = ops[0]
    size, split, diagonal = plain.outputs[op.key]
    assert not op.check((size, split, diagonal), {}).problems
    assert op.check((size + 1, split, diagonal), {}).problems
    assert op.check((size, split - 1, diagonal), {}).problems
    assert op.check((size, split, (diagonal[0] + 1,) + diagonal[1:]), {}).problems


def test_changed_output_between_passes_fails_the_op(passes):
    ops, plain, _ = passes["resultant"]
    changed = dataclasses.replace(plain, outputs=dict(plain.outputs))
    op = next(op for op in ops if op.key.endswith("random"))
    changed.outputs[op.key] += harness.P  # same residue, different det
    verdicts = harness.judge(ops, changed, plain)
    assert "output differs from the first pass" in verdicts[op.key].problems


def spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_meter_takes_sampling_time_out_of_the_interval(monkeypatch):
    monkeypatch.setattr(hostspeed, "kernel", lambda: spin(0.01))
    with SpeedMeter() as meter:
        tracer = Tracer(meter.clock)
        with tracer.span("op"):
            _, wall, slowdown = meter.time(spin, 0.4)
    during = len(meter.samples) - 2  # the samples between the call's two ends
    assert during >= 4
    assert wall == pytest.approx(0.4 - 0.01 * during, abs=0.01)
    (_, _, start, end, _, _), = tracer.spans
    assert end - start == pytest.approx(wall, abs=0.01)
    assert slowdown == pytest.approx(statistics.fmean(meter.samples) / hostspeed.NOMINAL_S)
    assert slowdown == pytest.approx(0.01 / hostspeed.NOMINAL_S, rel=0.1)


def test_meter_restores_the_alarm_handler():
    before = hostspeed.signal.getsignal(hostspeed.signal.SIGALRM)
    with SpeedMeter() as meter:
        spin(0.12)
    assert hostspeed.signal.getsignal(hostspeed.signal.SIGALRM) == before
    assert hostspeed.signal.getitimer(hostspeed.signal.ITIMER_REAL) == (0.0, 0.0)
    count = len(meter.samples)
    spin(0.12)
    assert len(meter.samples) == count
