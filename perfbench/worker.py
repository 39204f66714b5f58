"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --work DIR [--trace] [--setup-only]

With ``--setup-only`` the worker builds the inputs, prints ``ready``
and the system clock, and exits: the runner times interpreter start to
that stamp.  Otherwise it runs whole passes over the workload's
operations until ``--seconds`` have gone by, checks every pass against
the reference outside the timed region, and prints one JSON object with
the results.  With ``--trace`` the tracer wraps the library for the
passes.
"""

from __future__ import annotations

import argparse
import array
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import env
import tracing
import workloads


#: calibration rounds run between operations at least this often
CALIBRATION_INTERVAL_S = 0.25
#: reported times are scaled to a calibration round of this length
CALIBRATION_REF_S = 0.010


def calibration_round() -> float:
    """Time a fixed piece of pure-Python work (tuples, dict building,
    sorting) that calls nothing in ``spineflow``.  Its time tracks the
    speed the shared machine gives this process at the moment; see
    NOTES.md, "Machine-speed calibration"."""
    start = time.perf_counter()
    total = 0
    for i in range(4000):
        row = tuple((i * j) % 13 for j in range(8))
        index = {x: k for k, x in enumerate(row)}
        total += len(index) + sorted(row)[3]
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_pass(ops):
    """Run every operation once, each timed alone.

    Calibration rounds run before the first operation, after the last,
    and between operations whenever ``CALIBRATION_INTERVAL_S`` has gone
    by.  Each operation's time is scaled by ``CALIBRATION_REF_S`` over
    the mean of the rounds just before and just after it.  Returns the
    outputs, the scaled and the raw times, and the rounds."""
    outputs, raw, segment = [], array.array("d"), array.array("i")
    rounds = [calibration_round()]
    last = time.perf_counter()
    for _, op in ops:
        start = time.perf_counter()
        if start - last >= CALIBRATION_INTERVAL_S:
            rounds.append(calibration_round())
            start = last = time.perf_counter()
        try:
            output = op()
        except Exception as err:  # an unexpected exception is a failed answer
            output = workloads.Raised(err)
        raw.append(time.perf_counter() - start)
        segment.append(len(rounds) - 1)
        outputs.append(output)
    rounds.append(calibration_round())
    scale = [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(rounds, rounds[1:])]
    scaled = array.array("d", (t * scale[i] for t, i in zip(raw, segment)))
    return outputs, scaled, raw, rounds


@dataclass
class Passes:
    """What ``run_passes`` measured."""

    kinds: list[str]
    #: scaled operation times, one array per pass
    times: list[array.array] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    #: peak resident set after the first checked pass; later passes only
    #: add their timing arrays, so it does not depend on their number
    first_pass_rss_mb: float = 0.0


def run_passes(workload, seconds: float) -> Passes:
    """Timed passes until ``seconds`` are used up (at least one), each
    checked outside the timed region."""
    ops = workload.ops()
    result = Passes([kind for kind, _ in ops])
    deadline = time.perf_counter() + seconds
    while not result.times or time.perf_counter() < deadline:
        outputs, scaled, raw, rounds = timed_pass(ops)
        verdicts = workload.check(outputs)
        result.failed += verdicts.count(False)
        result.attempted += len(verdicts)
        result.times.append(scaled)
        result.raw_walls.append(sum(raw))
        result.calibrations += rounds
        result.first_pass_rss_mb = result.first_pass_rss_mb or peak_rss_mb()
    return result


def summarize(result: Passes) -> dict:
    """Per-operation medians across passes, composed into pass times and
    into latency percentiles over the operations of one pass."""
    medians = [statistics.median(column) for column in zip(*result.times)]
    by_kind: dict[str, float] = {}
    for kind, median in zip(result.kinds, medians):
        by_kind[kind] = by_kind.get(kind, 0.0) + median
    ordered = sorted(medians)
    return {
        "wall_s": sum(medians),
        "by_kind_s": by_kind,
        "ops_per_pass": len(medians),
        "passes": len(result.times),
        "op_p50_s": statistics.median(ordered),
        "op_p99_s": ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))],
        "raw_wall_s": statistics.median(result.raw_walls),
        "calibration_s": statistics.median(result.calibrations),
        "failed": result.failed,
        "attempted": result.attempted,
        "peak_rss_mb": result.first_pass_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        sf = env.import_program()
        oracles = env.import_oracles()
    except env.MissingProgram as err:
        sys.stderr.write(f"perfbench: {err}\n")
        return 2
    workdir = Path(args.work)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](sf, oracles, args.seed, workdir)
    if args.setup_only:
        print(f"ready {time.time()!r}", flush=True)
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(sf, env.MODULES)
        tracer.install()
    try:
        passes = run_passes(workload, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = summarize(passes)
    if tracer is not None:
        result["layers"] = trace_metrics(tracer, len(passes.times))
        env.OUT.mkdir(exist_ok=True)
        tracer.write_spans(env.OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    print(json.dumps(result))
    return 0


def trace_metrics(tracer, passes: int) -> dict:
    """Per-pass call counts and self times of every traced callable, and
    the derived counters."""
    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = tracer.calls_of(name) / passes
        out[f"{name}.self_s"] = tracer.self_s(name) / passes
        if tracer.yielded_by(name):
            out[f"{name}.yielded"] = tracer.yielded_by(name) / passes
    for key, value in tracer.counts.items():
        out[key] = value / passes
    return out


if __name__ == "__main__":
    sys.exit(main())
