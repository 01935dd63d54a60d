"""Benchmark runner for the LIFEGUARD reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload repair-ladder --seed 1 \\
        --seconds 20 --trace 0

Runs one workload (``cold-build``, ``repair-ladder``, ``service`` or
``fuzz-diff``) as a closed loop for ``--seconds`` seconds (and at least
the workload's minimum number of units), checks every output, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, timed with spans off.
Every operation time it reports is normalized to a reference host
speed (see ``workloads.HostSpeed``); the raw wall-clock figures are in
the ``perfbench:`` info line.
``--trace 1`` first runs the workload untraced for half the time, then
replays exactly the same units with every layer boundary wrapped in a
span (see ``instrument.py``), and reports the per-layer metrics plus the
tracing overhead.  Both passes must produce identical simulation
digests.

The program is imported from ``src/`` next to this directory; the run is
refused if that tree is missing or if any ``REPRO_*`` environment
variable is set, so every number comes from the default program.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cold-build", "repair-ladder", "service", "fuzz-diff")

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
]

#: set-up repetitions per run; setup_s reports their median.
SETUP_REPS = 3


class Refused(Exception):
    """The run cannot measure the default program."""


def load_program() -> None:
    """Put ``src/`` first on the path and import the program from it."""
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        raise Refused(f"REPRO_* variables are set: {', '.join(knobs)}")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise Refused(f"no program source under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise Refused(f"repro imported from {where}, not {SRC}")


def tail_mean(values, q: float) -> float:
    """Mean of the values at and beyond the nearest-rank q-percentile
    (q in (0, 1]; 1 gives the maximum).  One rank alone moved with the
    noise of the one operation that held it; the mean of the tail
    averages that noise over every operation in it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return statistics.mean(ordered[min(max(rank, 1), len(ordered)) - 1:])


def make_workload(name: str, seed: int, scratch: str):
    import workloads

    if name == "cold-build":
        return workloads.ColdBuild(seed)
    if name == "repair-ladder":
        return workloads.RepairLadder(seed)
    if name == "service":
        return workloads.Service(seed, scratch)
    return workloads.FuzzDiff(seed)


def run_pass(workload, seconds: float, min_units: int, units=None,
             tracer=None):
    """Run whole cycles of units until *seconds* have passed and at
    least *min_units* ran, or exactly *units* when given."""
    done = []
    start = time.perf_counter()
    while True:
        if units is not None:
            if len(done) >= units:
                break
        elif (
            len(done) >= min_units
            and len(done) % workload.cycle == 0
            and time.perf_counter() - start >= seconds
        ):
            break
        if tracer is not None:
            tracer.recording = False
        workload.prepare(len(done))
        # Free the previous unit's garbage outside the timed region and
        # freeze what survives, so every unit starts with an empty young
        # heap: the collector's passes inside a unit then scan only what
        # that unit allocated, at the same points whatever ran before
        # it (the ladder's warm Internet would otherwise cost a 200 ms
        # collection after every step, and a step's collections would
        # depend on its place in the cycle).  Frozen objects that die
        # are reclaimed by the full collection at each cycle's start.
        if len(done) % workload.cycle == 0:
            gc.unfreeze()
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.recording = True
        done.append(workload.unit(len(done)))
    gc.unfreeze()
    return done


def by_key(units) -> dict:
    """The run's units grouped by the distinct unit of the cycle each ran."""
    groups = {}
    for index, unit in enumerate(units):
        groups.setdefault(index if unit.key is None else unit.key, []).append(
            unit
        )
    return groups


def op_latencies(units, raw: bool = False) -> list:
    """One latency per distinct operation of the run: the median over
    the cycles of the run of each (unit key, position in unit)."""
    groups = {}
    for key, same in by_key(units).items():
        for unit in same:
            latencies = unit.latencies if raw else unit.norm_latencies
            for position, seconds in enumerate(latencies):
                groups.setdefault((key, position), []).append(seconds)
    return [statistics.median(values) for values in groups.values()]


def cycle_throughput(units, raw: bool = False) -> float:
    """Work per timed second of one cycle, each distinct unit taken at
    its median over the cycles of the run."""
    work = timed = 0.0
    for same in by_key(units).values():
        work += statistics.median(u.work for u in same)
        timed += statistics.median(
            u.timed_s if raw else u.norm_timed_s for u in same
        )
    return work / timed


def end_to_end(workload, units, setup_s: float, raw: bool = False) -> dict:
    """The end-to-end metrics: normalized times, or wall times if *raw*."""
    latencies = op_latencies(units, raw)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "work_per_s": cycle_throughput(units, raw),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_mean(latencies, workload.tail_q),
    }


def provenance(args) -> dict:
    from repro.bgp.delta import resolve_delta_mode
    from repro.runner.baseline import resolve_baseline_mode
    from repro.traffic import lpm

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "baseline_mode": resolve_baseline_mode(None),
        "delta_mode": resolve_delta_mode(None),
        "numpy_lpm": lpm._numpy_enabled(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import what run.py imports
    before set-up (the program and the workloads)."""
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path[:0] = [{SRC!r}, {HERE!r}]\n"
        "import argparse, json, statistics, tempfile, workloads\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def measure(args, scratch: str):
    """Run the workload; returns (result, info) dicts."""
    import workloads  # the import cost belongs to set-up

    imported = [time.perf_counter() - _STARTED]
    workload = make_workload(args.workload, args.seed, scratch)
    info = {"provenance": provenance(args)}
    samples = []
    for _ in range(1 if args.trace else SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        samples.append(time.perf_counter() - start)
    if not args.trace:
        # Imports run once per process: time them again in fresh
        # interpreters so set-up is a median too.
        imported += [import_seconds() for _ in range(SETUP_REPS - 1)]
    # Set-up time is plain wall time: normalizing it by the kernel
    # samples taken around it spread it more, not less.
    setup_s = statistics.median(imported) + statistics.median(samples)

    # The traced run reports self times, not end-to-end times: it keeps
    # the reference kernel out of its timed regions.
    host = workloads.HostSpeed(enabled=not args.trace)
    host.sample()
    host.sample()
    workload.host = host
    if not args.trace:
        units = run_pass(workload, args.seconds, workload.min_units)
        metrics = end_to_end(workload, units, setup_s)
        info["raw_wall"] = end_to_end(workload, units, setup_s, raw=True)
        info["op_ms"] = sorted(
            round(1000.0 * x, 2) for x in op_latencies(units)
        )[:50]
        info["host_kernel_ms"] = {
            "median": 1000.0 * statistics.median(host.samples),
            "min": 1000.0 * min(host.samples),
            "max": 1000.0 * max(host.samples),
            "reference": 1000.0 * workloads.REFERENCE_KERNEL_S,
        }
        table = END_TO_END
        problems = [p for u in units for p in u.problems]
    else:
        import instrument

        plain = run_pass(
            workload, args.seconds / 2, workload.identity_units
        )
        gc.collect()
        workload.setup()
        tracer = instrument.build_tracer()
        with tracer:
            units = run_pass(workload, 0, 0, len(plain), tracer)
        metrics = instrument.layer_metrics(
            tracer, units, sum(u.timed_s for u in plain)
        )
        table = instrument.PER_LAYER
        problems = [p for u in plain + units for p in u.problems]
        if [u.digest for u in plain] != [u.digest for u in units]:
            problems.append("traced run changed the simulation digests")
    workload.close()

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    info.update(
        units=len(units),
        operations=sum(len(u.latencies) for u in units),
        tail_percentile=workload.tail_q,
        error_rate=failed / attempted,
        identity_digest=workloads.sha(
            [u.digest for u in units[: workload.identity_units]]
        ),
        unit_digests=[u.digest[:12] for u in units],
        problems=problems[:10],
        units_info=[u.info for u in units[:3]],
    )
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _better in table
        },
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2
    scratch_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        result, info = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run still uses it
    print("perfbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
