"""Run one workload of the ndpa benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nowhere else.  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics, with ``--trace 1`` the per-layer
ones; both carry the attempted and failed operation counts.  A summary
and every failed check go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("closed_forms", "oracle")

# numpy's BLAS gets one thread per usable core, here and in every child
THREADS = str(len(os.sched_getaffinity(0)))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_TIMED_PASSES = 3
IMPORT = "import ndpa, ndpa.cli"
TIMED_IMPORT = ("import time; t = time.perf_counter(); " + IMPORT
                + "; print(time.perf_counter() - t)")

# The host's speed drifts by up to a factor of two over seconds to
# minutes, in CPU time as much as in wall time and on each CPU apart, so
# no choice of samples within a run makes raw times steady from run to
# run.  The main thread therefore runs on one CPU, and every timed
# interval is divided by the time of a fixed calibration loop run beside
# it on that CPU and multiplied by CAL_REF_S: a reported time is the time
# the work takes on a host where the loop takes CAL_REF_S.
CAL_REF_S = 0.005
CAL_STEPS = 1500
FRESH_SAMPLES = 2  # of setup_s and of cold_run_s per cycle


def calibrate() -> float:
    """Time a fixed loop of interpreter work and small numpy calls, the
    mix that dominates the package's operations."""
    import numpy as np
    x = np.arange(8.0)
    start = perf_counter()
    for _ in range(CAL_STEPS):
        x = np.sin(x) * 0.5 + x[::-1]
    return perf_counter() - start


def steady_calibration() -> float:
    """The median of three calibrations, beside a fresh interpreter."""
    return statistics.median(calibrate() for _ in range(3))


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` at the reference host speed, from the calibrations
    taken just before and just after it."""
    return seconds * 2.0 * CAL_REF_S / (cal_before + cal_after)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC, **{v: THREADS for v in BLAS_VARS})


def child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)


def fresh_interpreters(cold_argv: list[str]) -> dict[str, list[float]]:
    """``setup_s``: a fresh interpreter imports ndpa and ndpa.cli.

    ``cold_run_s``: wall time of one CLI command in a fresh interpreter.
    Both are scaled to the reference host speed.
    """
    cal = steady_calibration()
    setup, cold = [], []
    for _ in range(FRESH_SAMPLES):
        seconds = float(child(["-c", TIMED_IMPORT]).stdout.split()[-1])
        cal, before = steady_calibration(), cal
        setup.append(scaled(seconds, before, cal))
        start = perf_counter()
        child(["-m", "ndpa.cli", *cold_argv])
        seconds = perf_counter() - start
        cal, before = steady_calibration(), cal
        cold.append(scaled(seconds, before, cal))
    return {"setup_s": setup, "cold_run_s": cold}


def scipy_integrate_import() -> dict[str, list[float]]:
    """Cumulative import time of scipy.integrate, from ``python -X importtime``,
    scaled to the reference host speed."""
    seconds = 0.0
    cal = steady_calibration()
    for line in child(["-X", "importtime", "-c", IMPORT]).stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.integrate":
            seconds = int(fields[1]) / 1e6
    return {"import.scipy_integrate_s": [scaled(seconds, cal, steady_calibration())]}


def run_pass(ops) -> tuple[list[float], list[float], list[tuple[object, str]]]:
    """Time every operation once, then check its output outside the timer.

    Returns the raw times, the calibrations (one before the first
    operation and one after each) and the failures.
    """
    times, cals, failures = [], [calibrate()], []
    for op in ops:
        start = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failed one; go on
            times.append(perf_counter() - start)
            cals.append(calibrate())
            failures.append((op, f"raised {type(exc).__name__}: {exc}"))
            continue
        times.append(perf_counter() - start)
        cals.append(calibrate())
        problem = op.check(out)
        del out
        if problem:
            failures.append((op, problem))
    return times, cals, failures


def scaled_pass(times: list[float], cals: list[float]) -> list[float]:
    return [scaled(t, before, after) for t, before, after in zip(times, cals, cals[1:])]


def measure(ops, seconds: float, tracer, fresh) -> tuple[list, dict[str, float]]:
    """One warm-up pass, then cycles of a whole pass and one ``fresh()``
    sample until ``seconds`` have passed; returns the passes and the
    median of each fresh-interpreter figure.

    Spreading every kind of sample over the whole window makes each
    median less sensitive to the host's load at any one time.  With a
    tracer, traced and untraced passes alternate.  Every pass, the
    warm-up too, is checked and counted.
    """
    child(["-c", IMPORT])  # writes the bytecode caches of a fresh checkout
    passes, samples = [], {}

    def one(traced: bool):
        if traced:
            tracer.new_pass()
            tracer.install()
        try:
            times, cals, failures = run_pass(ops)
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, times, cals, failures))

    start = perf_counter()
    one(False)
    while True:
        plain = sum(1 for p in passes[1:] if not p[0])
        traced = sum(1 for p in passes[1:] if p[0])
        enough = plain >= MIN_TIMED_PASSES and (tracer is None or traced >= MIN_TIMED_PASSES)
        if enough and perf_counter() - start >= seconds:
            return passes, {key: statistics.median(v) for key, v in samples.items()}
        one(tracer is not None and traced < plain)
        for key, values in fresh().items():
            samples.setdefault(key, []).extend(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ndpa", "__init__.py")):
        print(f"error: no ndpa sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: THREADS for v in BLAS_VARS})
    sys.path.insert(0, SRC)
    import numpy as np
    # the main thread, and the fresh interpreters it starts, stay on one
    # CPU, the one the calibrations measure; numpy's BLAS threads stay free
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import ndpa
    if not os.path.abspath(ndpa.__file__).startswith(SRC + os.sep):
        print(f"error: imported ndpa from {ndpa.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    outdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        rng = np.random.default_rng([args.seed, WORKLOAD_NAMES.index(args.workload)])
        ops, cold_argv = workloads.WORKLOADS[args.workload](rng, outdir)
        if args.trace:
            tracer, fresh = tracing.Tracer(), scipy_integrate_import
        else:
            tracer, fresh = None, lambda: fresh_interpreters(cold_argv)
        passes, metrics = measure(ops, args.seconds, tracer, fresh)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:
            pass  # another run still writes there

    failures = [f for *_, fs in passes for f in fs]
    for op, problem in failures:
        print(f"{'known fault' if op.known_fault else 'FAILED'}: {op.name}: {problem}",
              file=sys.stderr)
    # each operation's median over the timed passes, at the reference speed
    plain = [p for p in passes[1:] if not p[0]]
    op_s = [statistics.median(samples) for samples in
            zip(*(scaled_pass(times, cals) for _, times, cals, _ in plain))]
    wall_s = sum(op_s)
    print(f"{args.workload}: raw median pass {statistics.median(sum(p[1]) for p in plain):.4g} s, "
          f"median calibration {1e3 * statistics.median(c for p in plain for c in p[2]):.4g} ms "
          f"(reference {1e3 * CAL_REF_S:g} ms)", file=sys.stderr)
    if args.trace:
        traced = [p for p in passes if p[0]]
        per_pass = []
        for spans, (_, times, cals, _) in zip(tracer.passes, traced):
            # span times to the reference speed, with the pass's median calibration
            factor = CAL_REF_S / statistics.median(cals)
            for span in spans:
                span[tracing.START] *= factor
                span[tracing.END] *= factor
            per_pass.append(tracing.layer_metrics(spans, sum(scaled_pass(times, cals))))
        for key in per_pass[0]:
            metrics[key] = statistics.median(m[key] for m in per_pass)
        traced_op_s = [statistics.median(samples) for samples in
                       zip(*(scaled_pass(times, cals) for _, times, cals, _ in traced))]
        metrics["trace.overhead_s"] = sum(traced_op_s) - wall_s
    else:
        metrics["wall_s"] = wall_s
        metrics["op_p50_ms"] = 1e3 * statistics.median(op_s)
        metrics["rows_per_s"] = sum(op.rows for op in ops) / wall_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # BENCHMARK.json names every metric and its unit
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": all(op.known_fault for op, _ in failures),
        "attempted": len(ops) * len(passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(f"{args.workload}: {len(passes)} passes of {len(ops)} operations, "
          f"{result['failed']} failed", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
