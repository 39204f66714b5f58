"""The benchmark's metrics and workloads: the one source for both
``BENCHMARK.json`` (``python3 perfbench/run.py --write-manifest``) and
the metrics a run reports."""

from __future__ import annotations

RUN_SECONDS = 20

WORKLOADS = (
    ("census", "spine_census(4) then spec_census(2, 4): rotation-system "
               "enumeration, FatGraph construction and isomorphism dedup do "
               "most of the work"),
    ("equiv", "seeded banana-chain pairs k = 2..6: hits stop at the first "
              "witness, matrix and seed misses exhaust the search, Dehn misses "
              "prune per piece"),
    ("requests", "1400 seeded one-shot in-process cli.run calls on files, "
                 "some invalid or malformed: parse, validate and build from "
                 "scratch every time"),
    ("dynamics", "graphs built once, then itinerary sweeps over all bodies up "
                 "to 5 letters and periodic words at L = 8..12 with counts and "
                 "signs: repeated queries"),
)

#: (name, unit, better, bound).  Over ten seeds the quartile spreads of
#: the scaled times were 0.01 to 0.07 of the median (NOTES.md), so every
#: time gets the largest bound allowed; memory barely moves.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("spine_census_s", "s", "lower", 0.25),
    ("spec_census_s", "s", "lower", 0.25),
    ("hit_s", "s", "lower", 0.25),
    ("miss_s", "s", "lower", 0.25),
)
#: stage metrics: the time of one kind of operation per pass, on the
#: workloads that have it (``Workload.stages``); the whole pass elsewhere
STAGE_METRICS = ("spine_census_s", "spec_census_s", "hit_s", "miss_s")

#: traced callables reported as ``<name>.calls`` and ``<name>.self_s``
LAYER_CALLABLES = (
    "fatgraph.FatGraph",
    "fatgraph.FatGraph.boundary_cycles",
    "fatgraph.FatGraph.face_of",
    "fatgraph.enumerate_spines",
    "fatgraph.iter_isomorphisms_tagged",
    "fatgraph.induced_face_map",
    "fatgraph.fatgraph_isomorphic",
    "fatgraph.spine_from_json",
    "fatgraph.validate_spine",
    "fatgraph.is_bipartite",
    "model.spec_from_json",
    "model.validate_spec",
    "model.propagate_orientations",
    "model.seed_orientation",
    "model.orientation_classes",
    "flowgraph.build_flow_graph",
    "flowgraph.validate_itinerary",
    "flowgraph.periodic_words",
    "flowgraph.is_transitive",
    "flowgraph.path_sign",
    "equivalence.spec_equivalent",
    "equivalence.verify_witness",
    "equivalence.normalize_matrix",
    "census.spine_is_orientation_rigid",
    "census.census_pieces",
    "census.spec_census",
    "cli.run",
)
#: (name, unit, better) of the other per-layer metrics
LAYER_EXTRAS = (
    ("fatgraph.enumerate_spines.yielded", "count", "higher"),
    ("fatgraph.iter_isomorphisms_tagged.yielded", "count", "lower"),
    ("equivalence.spec_equivalent.hits", "count", "higher"),
    ("flowgraph.periodic_words.words", "count", "higher"),
    ("census.spine_yield_ratio", "ratio", "higher"),
    ("equivalence.iso_searches_per_decision", "ratio", "lower"),
    ("census.spec_census.equiv_calls", "count", "lower"),
    ("failed_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    out = []
    for name in LAYER_CALLABLES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    return out + list(LAYER_EXTRAS)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }
