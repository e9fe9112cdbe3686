"""The bikoszul benchmark: one workload per process, or all three in turn.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the library from ./src.
With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer ones. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 only
when every op passed its correctness check.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported: with two
# OpenBLAS threads the small eigenvector solves varied tenfold between runs.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("solve", "resultant", "matrix")
IMPORT_REPS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import bikoszul; "
                "print(time.perf_counter() - t)")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": THREADS,
        "kernel_nominal_s": hostspeed.NOMINAL_S,
    }


def import_seconds(meter) -> list[float]:
    """Nominal times of `import bikoszul` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPS):
        done, _, slowdown = meter.time(lambda: subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True))
        times.append(float(done.stdout.strip().splitlines()[-1]) / slowdown)
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    import harness

    with hostspeed.SpeedMeter() as meter:
        import_s = import_seconds(meter)
        ops, setup_reps, setup_layers = harness.run_setup(harness.WORKLOADS[name], seed,
                                                          traced, meter)
        passes = harness.run_passes(ops, seconds, traced, meter)
    print("timings " + json.dumps({
        "import_s": import_s, "setup_s": setup_reps,
        "passes_wall_s": [round(r.wall, 4) for r, _ in passes],
        "passes_nominal_s": [round(r.nominal_wall, 4) for r, _ in passes],
        "ops_nominal_s": {op.key: [round(r.nominal[op.key], 4) for r, _ in passes]
                          for op in ops},
        "traced": [r.tracer.enabled for r, _ in passes]}))

    attempted = failed = good = outcomes = 0
    worst = 0.0
    for _, verdicts in passes:
        for op in ops:
            verdict = verdicts[op.key]
            attempted += 1
            failed += bool(verdict.problems)
            good += verdict.good
            outcomes += op.outcomes
            worst = max(worst, verdict.residual)
            for problem in verdict.problems:
                print(f"FAIL {op.key}: {problem}", file=sys.stderr)
    print(f"{'fail_frac':40s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    if worst > 0:
        print(f"{'residual_max_log10':40s} {math.log10(worst):.6g} log10")

    plain = [result for result, _ in passes if not result.tracer.enabled]
    print(f"{'wall_clock_s':40s} "
          f"{sum(statistics.median(r.times[op.key] for r in plain) for op in ops):.6g} s")
    print(f"{'host_slowdown':40s} "
          f"{statistics.median(meter.samples) / hostspeed.NOMINAL_S:.6g} ratio "
          f"(median of {len(meter.samples)} kernel samples)")
    if not traced:
        metrics = {
            "wall_s": metric(sum(statistics.median(r.nominal[op.key] for r in plain)
                                 for op in ops), "s"),
            "setup_s": metric(statistics.median(import_s) + statistics.median(setup_reps), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
            "ok_frac": metric(good / outcomes, "ratio"),
        }
    else:
        traced_passes = [(r, v) for r, v in passes if r.tracer.enabled]
        layers = harness.median_dict([harness.layer_metrics(r, v) for r, v in traced_passes])
        for key, value in setup_layers.items():
            layers[key] = layers.get(key, 0.0) + value
        layers["trace.overhead_s"] = (
            statistics.median(r.nominal_wall for r, _ in traced_passes)
            - statistics.median(r.nominal_wall for r in plain))
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: metric(layers.get(m["name"], 0.0), m["unit"]) for m in declared}
        write_spans(name, seed, traced_passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_spans(name: str, seed: int, traced_passes) -> None:
    """Spans of the traced passes, for reading where the time went."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = [
        {"pass": i, "id": s[0], "name": s[1], "start": s[2], "end": s[3],
         "parent": s[4], "op": s[5]}
        for i, (result, _) in enumerate(traced_passes) for s in result.tracer.spans
    ]
    path = out / f"spans-{name}-{seed}.json"
    path.write_text(json.dumps({"environment": environment(), "spans": spans}))


def run_all(args) -> dict:
    """Each workload in its own process, so each reports its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise SystemExit(f"workload {name} printed no result (exit {done.returncode})")
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bikoszul" / "__init__.py").is_file():
        print(f"error: no bikoszul sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bikoszul

    if Path(bikoszul.__file__).resolve().parent != SRC / "bikoszul":
        print(f"error: imported bikoszul from {bikoszul.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment()))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in result["metrics"].items():
        print(f"{key:40s} {value['value']:.6g} {value['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
