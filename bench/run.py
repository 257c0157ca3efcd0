#!/usr/bin/env python3
"""Benchmark for ratiolab, run from the root of a source checkout:

    python3 bench/run.py --workload verify|routes|datasets --seed N \
        --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout; nothing is installed.
One process runs one workload, single-threaded. Set-up (a fresh-process
``import ratiolab`` plus generating the workload's inputs) is measured in
this process and in four more started one after another, two before the
timed phase and two after it, and the median is reported. The timed phase then repeats whole rounds of the workload until
the next round would pass ``--seconds`` (at least one round); each round's
outputs are checked, untimed, before the next starts.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
``run_s`` (median round time), ``setup_s`` and ``peak_rss_mb``. With
``--trace 1`` one round of every workload runs with tracing on and the
line holds the per-layer metrics (see README.md). Exit status is 0 when
every output check passed, 1 when one failed, 2 when the checkout holds no
program to run.
"""

import os

# one thread per process: numpy's BLAS pools would otherwise add threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("verify", "routes", "datasets")


def import_program() -> float:
    """Import ratiolab from this checkout's sources; returns the seconds."""
    package = SRC / "ratiolab"
    if not (package / "__init__.py").is_file():
        print(f"no ratiolab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ratiolab

    elapsed = time.perf_counter() - t0
    if Path(ratiolab.__file__).resolve().parent != package.resolve():
        print(f"ratiolab imported from {ratiolab.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)
    return elapsed


def make_workload(name: str, seed: int):
    import workloads

    if name == "datasets":
        return workloads.Datasets(seed, OUT)
    return workloads.WORKLOADS[name](seed)


def setup(name: str, seed: int):
    """Fresh-process set-up: (workload, import seconds, input seconds)."""
    import_s = import_program()
    wl = make_workload(name, seed)
    t0 = time.perf_counter()
    wl.prepare()
    return wl, import_s, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up times measured in a new process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=ROOT, check=True,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    return probe["import_s"], probe["inputs_s"]


def close(wl) -> None:
    if hasattr(wl, "close"):
        wl.close()
    try:
        OUT.rmdir()
    except OSError:
        pass


def timed_rounds(wl, seconds: float):
    """Run whole rounds until the next one would pass ``seconds``."""
    times, attempted, failed, errors, info = [], 0, 0, [], {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = wl.run_round()
        times.append(time.perf_counter() - t0)
        verdict = wl.check(out)
        del out
        attempted += verdict.attempted
        failed += verdict.failed
        errors += verdict.errors
        info = verdict.info
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(times) > seconds:
            return times, attempted, failed, errors, info


def traced_rounds(named_wl, seed: int):
    """One traced round of every workload, in the order of WORKLOAD_NAMES."""
    import tracing

    wls = {}
    for name in WORKLOAD_NAMES:
        if name == named_wl.name:
            wls[name] = named_wl
        else:
            wls[name] = make_workload(name, seed)
            wls[name].prepare()
    tracer = tracing.Tracer()
    attempted, failed, errors, wall = 0, 0, [], {}
    tracer.install()
    try:
        for name, wl in wls.items():
            t0 = time.perf_counter()
            out = wl.run_round()
            wall[name] = time.perf_counter() - t0
            verdict = wl.check(out)
            del out
            attempted += verdict.attempted
            failed += verdict.failed
            errors += [f"{name}: {e}" for e in verdict.errors]
    finally:
        tracer.uninstall()
        for wl in wls.values():
            if wl is not named_wl:
                close(wl)
    return tracer, wall, attempted, failed, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl, import_s, inputs_s = setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
            return 0
        # half the probes before the timed phase and half after it, so the
        # median spans the whole run rather than one stretch of it
        probes = SETUP_REPEATS - 1
        samples = [(import_s, inputs_s)]
        samples += [probe_setup(args.workload, args.seed) for _ in range(probes // 2)]

        if args.trace:
            import tracing

            tracer, wall, attempted, failed, errors = traced_rounds(wl, args.seed)
            samples += [probe_setup(args.workload, args.seed) for _ in range(probes - probes // 2)]
            named = tracing.per_layer_metrics(tracer, statistics.median(i for i, _ in samples))
            missing = sorted(k for k, (val, _) in named.items() if val is None)
            metrics = {k: {"value": val, "unit": unit}
                       for k, (val, unit) in named.items() if val is not None}
            print(json.dumps({"traced_round_s": wall, "missing": missing}))
        else:
            times, attempted, failed, errors, info = timed_rounds(wl, args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            samples += [probe_setup(args.workload, args.seed) for _ in range(probes - probes // 2)]
            metrics = {
                "run_s": {"value": statistics.median(times), "unit": "s"},
                "setup_s": {"value": statistics.median(i + g for i, g in samples), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
            print(json.dumps({"workload": args.workload, "round_s": times,
                              "setup_samples_s": [i + g for i, g in samples], **info}))
    finally:
        close(wl)

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
