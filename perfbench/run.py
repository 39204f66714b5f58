"""Benchmark entry point.

    python3 perfbench/run.py --workload census|equiv|requests|dynamics \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest

Run from the root of a source checkout; stdlib only.  Every worker is
a fresh single-threaded interpreter, started one after another.

``--trace 0`` times ``SETUP_RUNS`` set-ups (interpreter start to
inputs ready, ``import spineflow`` included) and reports their scaled
median as ``setup_s``, then runs one untraced worker for the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced worker for
the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any worker failure exits 1 without it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import env
import manifest
import worker
import workloads

SETUP_RUNS = 9
#: every worker must be done this long after the runner starts
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.run_dir = env.WORK / f"run-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self._children = 0

    def _command(self, *extra) -> list[str]:
        self._children += 1
        return [sys.executable, str(env.BENCH_DIR / "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--seconds", str(self.seconds),
                "--work", str(self.run_dir / f"worker{self._children}"), *extra]

    def _run(self, command) -> str:
        remaining = self.deadline - time.monotonic()
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=max(remaining, 1))
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"worker timed out: {' '.join(command)}") from err
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def setup_time(self) -> float:
        """Wall time from starting a worker to its inputs being ready, as
        stamped by the worker on the system clock, scaled like operation
        times by calibration rounds just before and after."""
        before = worker.calibration_round()
        start = time.time()
        word, _, stamp = self._run(self._command("--setup-only")).strip().partition(" ")
        if word != "ready":
            raise BenchError(f"unexpected set-up output {word!r}")
        elapsed = float(stamp) - start
        after = worker.calibration_round()
        return elapsed * 2 * worker.CALIBRATION_REF_S / (before + after)

    def measure(self, traced: bool) -> dict:
        out = self._run(self._command(*(["--trace"] if traced else [])))
        return json.loads(out.strip().splitlines()[-1])


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    setups = [runner.setup_time() for _ in range(SETUP_RUNS)]
    result = runner.measure(traced=False)
    stages = workloads.WORKLOADS[runner.workload].stages
    wall = result["wall_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": result["ops_per_pass"] / wall,
        "op_p50_ms": result["op_p50_s"] * 1e3,
        "op_p99_ms": result["op_p99_s"] * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    for name in manifest.STAGE_METRICS:
        metrics[name] = result["by_kind_s"][stages[name]] if name in stages else wall
    return metrics, result


def per_layer(runner: Runner) -> tuple[dict, dict, dict]:
    plain = runner.measure(traced=False)
    traced = runner.measure(traced=True)
    layers = traced["layers"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {name: layers.get(name, 0.0) for name, _, _ in manifest.per_layer()}
    metrics.update({
        "census.spine_yield_ratio": ratio(
            layers.get("fatgraph.enumerate_spines.yielded", 0.0),
            layers.get("fatgraph.FatGraph@fatgraph.enumerate_spines", 0.0)),
        "equivalence.iso_searches_per_decision": ratio(
            layers.get("fatgraph.iter_isomorphisms_tagged@equivalence.spec_equivalent", 0.0),
            layers.get("equivalence.spec_equivalent.calls", 0.0)),
        "census.spec_census.equiv_calls": ratio(
            layers.get("equivalence.spec_equivalent@census.spec_census", 0.0),
            layers.get("census.spec_census.calls", 0.0)),
        "failed_ratio": ratio(plain["failed"] + traced["failed"],
                              plain["attempted"] + traced["attempted"]),
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"] - 1,
    })
    return metrics, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        with open(env.ROOT / "BENCHMARK.json", "w", encoding="utf-8") as handle:
            json.dump(manifest.benchmark_json(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics, *results = per_layer(runner)
            units = {n: u for n, u, _ in manifest.per_layer()}
        else:
            metrics, result = end_to_end(runner)
            results = [result]
            units = {n: u for n, u, _, _ in manifest.END_TO_END}
    except BenchError as err:
        sys.stderr.write(f"perfbench: {err}\n")
        return 1
    finally:
        shutil.rmtree(runner.run_dir, ignore_errors=True)
        try:
            env.WORK.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    main_result = results[0]
    print(f"workload {args.workload} seed {args.seed}: {main_result['passes']} passes "
          f"of {main_result['ops_per_pass']} operations; {failed} of {attempted} "
          "answers wrong")
    print(f"  unscaled wall time per pass {main_result['raw_wall_s']:.6g} s; "
          f"calibration round {main_result['calibration_s'] * 1e3:.4g} ms "
          f"(times below are scaled to {worker.CALIBRATION_REF_S * 1e3:g} ms)")
    for name, value in metrics.items():
        note = ""
        if name in ("op_p50_ms", "op_p99_ms"):
            note = (f"  ({name[3:6]} over {main_result['ops_per_pass']} operations, "
                    f"each the median of {main_result['passes']} passes)")
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
