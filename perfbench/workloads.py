"""The four workloads.

Each workload builds its inputs from the seed in ``__init__`` (the
set-up the runner times), lists its operations in ``ops`` (the timed
part, the same list on every pass) and judges one pass's outputs in
``check`` (outside the timed region), returning one verdict per
operation.  Operations call the library through attribute lookups on
the ``spineflow`` package and its modules at call time, so the traced
run's wrappers see every call.

``stages`` maps an end-to-end stage metric to the operation kind whose
time it sums; see NOTES.md for the metrics a workload has no stage for.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

import gen
import reference


class Raised:
    """Output of an operation that raised instead of returning."""

    def __init__(self, err: BaseException):
        self.text = f"{type(err).__name__}: {err}"

    def __repr__(self) -> str:
        return f"Raised({self.text})"


class Workload:
    name = ""
    stages: dict[str, str] = {}

    def __init__(self, sf, oracles, seed: int, workdir):
        self.sf = sf
        self.oracles = oracles
        self.seed = seed
        self.workdir = workdir

    def ops(self) -> list[tuple[str, object]]:
        """(kind, zero-argument callable) per operation."""
        raise NotImplementedError

    def check(self, outputs: list) -> list[bool]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------

#: spines per edge count up to four; E = 1 and E = 3 are empty by parity
CENSUS_COUNTS = {1: 0, 2: 1, 3: 0, 4: 8}
#: EXACT classes among the 28 raw specifications of spec_census(2, 4),
#: recorded from the seed code (no independent derivation exists yet)
SPEC_CENSUS_COUNT = 9
STANDARD_GLUING = (0, 1, 1, 0)


class Census(Workload):
    """``spine_census(4)`` then ``spec_census(2, 4)``; the seed does not
    change the input."""

    name = "census"
    stages = {"spine_census_s": "spine_census", "spec_census_s": "spec_census"}

    def ops(self):
        return [("spine_census", lambda: self.sf.spine_census(4)),
                ("spec_census", lambda: self.sf.spec_census(2, 4))]

    def _spine_ok(self, spine) -> bool:
        graph = spine.graph
        conditions = self.oracles.spine_conditions(
            [list(c) for c in graph.vertices], list(graph.edges), spine.colors)
        return all(conditions.values())

    def _spec_ok(self, spec) -> bool:
        def tori(color):
            return sorted((p.piece_id, f) for p in spec.pieces
                          for f, c in p.spine.colors.items() if c == color)

        return (all(self._spine_ok(p.spine) for p in spec.pieces)
                and sorted(s for s, _ in spec.pairing) == tori("EXIT")
                and sorted(t for _, t in spec.pairing) == tori("ENTRANCE")
                and all((m.a, m.b, m.c, m.d) == STANDARD_GLUING for m in spec.matrices))

    def check(self, outputs):
        spines, specs = outputs
        spines_ok = not isinstance(spines, Raised) and all(
            self._spine_ok(s) for s in spines) and CENSUS_COUNTS == {
            e: sum(1 for s in spines if len(s.graph.edges) == e) for e in CENSUS_COUNTS}
        specs_ok = not isinstance(specs, Raised) and len(specs) == SPEC_CENSUS_COUNT \
            and all(self._spec_ok(spec) for spec in specs)
        return [spines_ok, specs_ok]


# ----------------------------------------------------------------------
# equiv
# ----------------------------------------------------------------------

class Equiv(Workload):
    """Seeded banana-chain pairs, k = 2..6, each with its answer by
    construction.  A hit's operation includes replaying its witness."""

    name = "equiv"
    stages = {"hit_s": "hit", "miss_s": "miss"}

    def __init__(self, sf, oracles, seed, workdir):
        super().__init__(sf, oracles, seed, workdir)
        self.cases = gen.equiv_cases(oracles, seed)
        for case in self.cases:
            case["specs"] = (sf.spec_from_json(case["a"]), sf.spec_from_json(case["b"]))
            case["parsed_mode"] = sf.EquivalenceMode.parse(case["mode"])

    def _decide(self, case):
        sf = self.sf
        a, b = case["specs"]
        witness = sf.spec_equivalent(a, b, case["parsed_mode"],
                                     allow_reflection=case["reflection"])
        if witness is None:
            return False, None
        return True, sf.verify_witness(a, b, witness, case["parsed_mode"])

    def ops(self):
        return [("hit" if case["equivalent"] else "miss",
                 lambda case=case: self._decide(case)) for case in self.cases]

    def check(self, outputs):
        return [not isinstance(out, Raised) and out[0] == case["equivalent"]
                and (not out[0] or out[1] is True)
                for case, out in zip(self.cases, outputs)]


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------

class Requests(Workload):
    """A seeded stream of one-shot in-process ``spineflow.cli.run``
    calls on JSON files written at set-up."""

    name = "requests"

    def __init__(self, sf, oracles, seed, workdir):
        super().__init__(sf, oracles, seed, workdir)
        files, self.requests = gen.request_inputs(oracles, seed)
        self.texts = files
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        self.argvs = [[r["command"], *(str(workdir / f) for f in r["files"]),
                       *r["options"]] for r in self.requests]
        self._arcs: dict[str, reference.Arcs] = {}
        self._expected: dict[str, tuple[int, object]] = {}

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sf.cli.run(argv)
        return code, out.getvalue()

    def ops(self):
        return [("request", lambda argv=argv: self._run(argv)) for argv in self.argvs]

    def _arcs_of(self, name: str) -> reference.Arcs:
        if name not in self._arcs:
            self._arcs[name] = reference.arcs(self.oracles, json.loads(self.texts[name]))
        return self._arcs[name]

    def _expect(self, request) -> tuple[int, object]:
        """(exit code, stdout payload or None when not compared)."""
        command, files, expect = request["command"], request["files"], request["expect"]
        if expect.get("malformed"):
            return 2, None
        if command == "validate":
            return (0 if expect["valid"] else 1), {"passed": expect["valid"]}
        if command == "equiv":
            return (0 if expect["equivalent"] else 1), {"equivalent": expect["equivalent"]}
        if command == "normalize-matrix":
            rows = json.loads(self.texts[files[0]])
            return 0, {"normalized": reference.normal_form(self.oracles, rows)}
        ref = self._arcs_of(files[0])
        if command == "build-graph":
            return 0, ref.graph_json()
        if command == "transitive":
            verdict = reference.transitive(self.oracles, ref)
            return (0 if verdict else 1), {"transitive": verdict}
        if command == "orient":
            spec = json.loads(self.texts[files[0]])
            return 0, {"count": 2 ** len(spec["pieces"]),
                       "classes": reference.orientation_classes(spec)}
        if command == "itinerary":
            word = json.loads(self.texts[files[1]])
            verdict = reference.realizable(ref, tuple(word["body"]),
                                           word.get("head_orbit"), word.get("tail_orbit"))
            return (0 if verdict else 1), {"realizable": verdict}
        if command == "periodic":
            counts = reference.necklace_counts(ref, int(request["options"][1]))
            return 0, {"counts": {str(n): c for n, c in counts.items()},
                       "words": sum(counts.values())}
        raise ValueError(command)

    def _matches(self, request, output) -> bool:
        if isinstance(output, Raised):
            return False
        key = json.dumps(request, sort_keys=True)
        if key not in self._expected:
            self._expected[key] = self._expect(request)
        code, payload = self._expected[key]
        if output[0] != code:
            return False
        if payload is None:
            return True
        got = json.loads(output[1])
        if request["command"] == "orient":
            got["classes"] = sorted(json.dumps(c, sort_keys=True) for c in got["classes"])
        elif request["command"] == "periodic":
            got["words"] = len(got["words"])
        return all(got.get(k) == v for k, v in payload.items())

    def check(self, outputs):
        return [self._matches(r, out) for r, out in zip(self.requests, outputs)]


# ----------------------------------------------------------------------
# dynamics
# ----------------------------------------------------------------------

class Dynamics(Workload):
    """Graphs built once at set-up, then itinerary sweeps over every body
    of up to five letters and periodic words at L = 8..12 with their
    counts and the sign of every word."""

    name = "dynamics"

    def __init__(self, sf, oracles, seed, workdir):
        super().__init__(sf, oracles, seed, workdir)
        specs = gen.dynamics_inputs(seed)
        self.refs = [reference.arcs(oracles, spec) for spec in specs]
        self.graphs = [sf.build_flow_graph(sf.spec_from_json(spec)) for spec in specs]
        rng = random.Random(f"dynamics-words:{seed}")
        self.queries = []  # (kind, spec index, payload)
        for i, ref in enumerate(self.refs):
            for orbit in ref.orbits:
                self.queries.append(("itinerary", i, ((), orbit, orbit)))
            variants = itertools.cycle(((False, False), (True, False),
                                        (False, True), (True, True)))
            for length in range(1, gen.SWEEP_MAX_BODY + 1):
                for body in itertools.product(ref.tori, repeat=length):
                    head, tail = next(variants)
                    self.queries.append(("itinerary", i, (
                        body, rng.choice(ref.orbits) if head else None,
                        rng.choice(ref.orbits) if tail else None)))
            for max_len in gen.PERIODIC_LENGTHS:
                self.queries.append(("periodic", i, max_len))
        self._expected: list | None = None

    def _itinerary(self, i, body, head, tail):
        sf = self.sf
        return sf.validate_itinerary(self.graphs[i], sf.ItineraryWord(body, head, tail))

    def _periodic(self, i, max_len):
        sf = self.sf
        graph = self.graphs[i]
        words = sf.periodic_words(graph, max_len)
        counts = sf.word_counts(words)
        return counts, [(w.cycle, sf.path_sign(graph, w.cycle)) for w in words]

    def ops(self):
        return [(kind, (lambda i=i, q=q: self._itinerary(i, *q)) if kind == "itinerary"
                 else (lambda i=i, q=q: self._periodic(i, q)))
                for kind, i, q in self.queries]

    def _expect(self, kind, i, q):
        ref = self.refs[i]
        if kind == "itinerary":
            return reference.realizable(ref, *q)
        return reference.necklace_counts(ref, q)

    def _matches(self, kind, i, expected, output) -> bool:
        if isinstance(output, Raised):
            return False
        if kind == "itinerary":
            return output is expected
        counts, signed = output
        ref = self.refs[i]
        return (counts == expected and len(signed) == sum(expected.values())
                and all(sign == reference.walk_sign(ref, cycle) for cycle, sign in signed))

    def check(self, outputs):
        if self._expected is None:
            self._expected = [self._expect(*q) for q in self.queries]
        return [self._matches(kind, i, exp, out) for (kind, i, _), exp, out
                in zip(self.queries, self._expected, outputs)]


WORKLOADS = {w.name: w for w in (Census, Equiv, Requests, Dynamics)}
