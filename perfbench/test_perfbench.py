"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import inspect
import json
import sys
import tempfile
import unittest
from pathlib import Path

import env
import gen
import manifest
import reference
import tracing
import worker
import workloads

sf = env.import_program()
oracles = env.import_oracles()


def module_snapshot() -> dict:
    """Every attribute of every spineflow module and public class."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if name != "spineflow" and not name.startswith("spineflow."):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, obj in vars(value).items():
                    snap[(name, attr, member)] = obj
    return snap


class SmallEquiv(workloads.Equiv):
    """The equiv workload cut down to k = 2."""

    def __init__(self, *args):
        super().__init__(*args)
        self.cases = [c for c in self.cases if c["k"] == 2]


class BenchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_generators_are_deterministic_per_seed(self):
        def dump(seed):
            return json.dumps([gen.equiv_cases(oracles, seed),
                               gen.request_inputs(oracles, seed),
                               gen.dynamics_inputs(seed)], sort_keys=True)

        self.assertEqual(dump(3), dump(3))
        self.assertNotEqual(dump(3), dump(4))

    def test_piece_data_matches_the_census(self):
        with open(env.DATA / "pieces.json", encoding="utf-8") as handle:
            stored = [p["spine"] for p in json.load(handle)["pieces"]]
        self.assertEqual(stored, [sf.spine_to_json(s) for s in sf.census_pieces(4)])

    def test_generators_never_call_the_library(self):
        calls = []
        tracer = tracing.Tracer(sf, env.MODULES)
        tracer.install()
        try:
            gen.equiv_cases(oracles, 1)
            gen.request_inputs(oracles, 1)
            gen.dynamics_inputs(1)
            calls = [n for n in tracer.names if tracer.calls_of(n)]
        finally:
            tracer.uninstall()
        self.assertEqual(calls, [])

    def test_hits_replay_and_answers_hold(self):
        work = SmallEquiv(sf, oracles, 5, self.tmp)
        result = worker.run_passes(work, 0)
        self.assertEqual((result.failed, result.attempted), (0, len(work.cases)))
        self.assertTrue(any(c["equivalent"] for c in work.cases))
        self.assertTrue(any(not c["equivalent"] for c in work.cases))

    def test_planted_wrong_answers_count_as_failed(self):
        work = SmallEquiv(sf, oracles, 5, self.tmp)
        work.cases[0]["equivalent"] = not work.cases[0]["equivalent"]
        work.cases[1]["specs"] = (None, None)  # raises inside the library
        result = worker.run_passes(work, 0)
        self.assertEqual((result.failed, result.attempted), (2, len(work.cases)))

        census = workloads.Census(sf, oracles, 0, self.tmp)
        spines, specs = (op() for _, op in census.ops())
        self.assertEqual(census.check([spines, specs]), [True, True])
        self.assertEqual(census.check([spines[:-1], specs[1:]]), [False, False])

    def test_untraced_run_leaves_the_library_untouched(self):
        before = module_snapshot()
        worker.run_passes(SmallEquiv(sf, oracles, 2, self.tmp), 0)
        after = module_snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_tracer_wraps_every_binding_and_restores_them(self):
        before = module_snapshot()
        original = sf.fatgraph.iter_isomorphisms_tagged
        work = SmallEquiv(sf, oracles, 2, self.tmp)
        tracer = tracing.Tracer(sf, env.MODULES)
        tracer.install()
        try:
            self.assertIsNot(sf.equivalence.iter_isomorphisms_tagged, original)
            self.assertIs(sf.equivalence.iter_isomorphisms_tagged,
                          sf.fatgraph.iter_isomorphisms_tagged)
            self.assertIs(sf.cli.spec_equivalent, sf.spec_equivalent)
            result = worker.run_passes(work, 0)
        finally:
            tracer.uninstall()
        self.assertEqual(result.failed, 0)
        self.assertEqual(tracer.calls_of("equivalence.spec_equivalent"), len(work.cases))
        self.assertEqual(tracer.counts["equivalence.spec_equivalent.hits"],
                         sum(1 for c in work.cases if c["equivalent"]))
        self.assertGreater(tracer.yielded_by("fatgraph.iter_isomorphisms_tagged"), 0)
        # self times partition the root spans, which lie inside the operations
        self.assertLessEqual(sum(tracer.self_time), result.raw_walls[0])
        after = module_snapshot()
        self.assertEqual([k for k in before if before[k] is not after[k]], [])

    def test_necklace_counts_match_the_walk_oracle(self):
        for spec in gen.dynamics_inputs(7)[:4]:
            ref = reference.arcs(oracles, spec)
            walks = oracles.closed_walks_up_to_rotation(
                [(label, src, dst) for label, src, dst, *_ in ref.edges], 6)
            counts: dict[int, int] = {}
            for walk in walks:
                counts[len(walk)] = counts.get(len(walk), 0) + 1
            self.assertEqual(reference.necklace_counts(ref, 6), counts)

    def test_benchmark_json_is_the_manifest(self):
        with open(env.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            self.assertEqual(json.load(handle), manifest.benchmark_json())
        names = [w for w, _ in manifest.WORKLOADS]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
