import math
import random

import pytest

import oracles
from chains import banana_chain
from spineflow import (CapacityError, FlowEdge, FlowGraph, InputError,
                       ItineraryWord, PeriodicWord, build_flow_graph,
                       flow_graph_to_edge_text, flow_graph_to_json, flowgraph,
                       is_transitive, negate_seed, orientation_classes,
                       path_sign, periodic_words, validate_itinerary,
                       word_counts)
from spineflow.flowgraph import least_rotation


def arcs_of(graph):
    return {(e.src, e.dst) for e in graph.edges}


def torus_graph(count, arcs):
    """A flow graph on tori T0..T{count-1} with the given index arcs."""
    tori = tuple(f"T{k}" for k in range(count))
    edges = tuple(FlowEdge(f"X.e{i}", tori[s], tori[d], "X", i, 1)
                  for i, (s, d) in enumerate(arcs))
    return FlowGraph(tori, (), edges, ())


class TestBuildFlowGraph:
    def test_banana_edge_table(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        assert graph.torus_vertices == ("T0", "T1")
        assert sorted(graph.orbit_vertices) == ["P.v0", "P.v1"]
        table = {e.label: (e.src, e.dst, e.sign) for e in graph.edges}
        # entrance-side corner vertex fixes each sign: vertex 0 carries
        # darts 3 and 7, vertex 1 carries darts 2 and 6
        assert table == {
            "P.e0": ("T0", "T1", -1),
            "P.e1": ("T0", "T0", 1),
            "P.e2": ("T1", "T0", -1),
            "P.e3": ("T1", "T1", 1),
        }

    def test_one_graph_edge_per_fat_graph_edge(self, census_specs):
        for spec in census_specs:
            graph = build_flow_graph(spec)
            total = sum(p.spine.graph.edge_count for p in spec.pieces)
            assert len(graph.edges) == total

    def test_negating_the_piece_flips_every_sign(self, banana_spec):
        base = build_flow_graph(banana_spec)
        flipped = build_flow_graph(negate_seed(banana_spec, "P"))
        assert [(e.src, e.dst) for e in base.edges] == \
            [(e.src, e.dst) for e in flipped.edges]
        assert all(a.sign == -b.sign
                   for a, b in zip(base.edges, flipped.edges))

    def test_torus_degrees_positive(self, census_specs):
        for spec in census_specs:
            graph = build_flow_graph(spec)
            for torus in graph.torus_vertices:
                assert any(e.src == torus for e in graph.edges)
                assert any(e.dst == torus for e in graph.edges)

    def test_accumulation_edges_from_face_incidence(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        acc = set(graph.accumulation_edges)
        # both vertices touch both entrance faces and both exit faces
        for torus in ("T0", "T1"):
            for orbit in ("P.v0", "P.v1"):
                assert (torus, orbit) in acc
                assert (orbit, torus) in acc

    def test_invalid_spec_rejected(self, banana_spec):
        from spineflow import GluingMatrix, ModelFlowSpec
        broken = ModelFlowSpec(banana_spec.pieces, banana_spec.pairing,
                               (GluingMatrix(1, 5, 0, 1),
                                banana_spec.matrices[1]),
                               dict(banana_spec.orientation_seed))
        with pytest.raises(InputError):
            build_flow_graph(broken)


class TestTransitivity:
    def test_banana_fixture_is_transitive(self, banana_spec):
        assert is_transitive(build_flow_graph(banana_spec))

    def test_self_loop_single_torus(self):
        # a genus-one piece with one exit and one entrance, self-glued:
        # a single torus vertex carrying four self-loops
        from spineflow import (ENTRANCE, EXIT, FatGraph, GluingMatrix,
                               ModelFlowSpec, Spine, unsurgered_piece)
        spine = Spine(FatGraph([[1, 3, 5, 7], [2, 4, 6, 8]],
                               [[1, 2], [3, 4], [5, 6], [7, 8]]),
                      {0: ENTRANCE, 1: EXIT})
        spec = ModelFlowSpec((unsurgered_piece("P", spine),),
                             ((("P", 1), ("P", 0)),),
                             (GluingMatrix(0, 1, 1, 0),),
                             {"P": (0, 1)})
        graph = build_flow_graph(spec)
        assert graph.torus_vertices == ("T0",)
        assert all(e.src == e.dst == "T0" for e in graph.edges)
        assert is_transitive(graph)

    def test_census_has_a_one_way_example(self, census_specs):
        verdicts = []
        for spec in census_specs:
            graph = build_flow_graph(spec)
            verdicts.append(is_transitive(graph))
            if not verdicts[-1]:
                # one-way: some ordered pair reachable in one direction only
                reach = oracles.reachability_closure(
                    list(graph.torus_vertices), arcs_of(graph))
                assert any(reach[(u, v)] and not reach[(v, u)]
                           for u in graph.torus_vertices
                           for v in graph.torus_vertices)
        assert False in verdicts and True in verdicts

    def test_agrees_with_closure_oracle(self, census_specs):
        for spec in census_specs:
            graph = build_flow_graph(spec)
            expected = oracles.strongly_connected_by_closure(
                list(graph.torus_vertices), arcs_of(graph))
            assert is_transitive(graph) == expected

    @pytest.mark.parametrize("count, arcs, expected", [
        (0, [], True),
        (1, [], True),
        (1, [(0, 0)], True),
        (2, [(0, 0), (1, 1)], False),
        (3, [(0, 1), (1, 0)], False),
        (3, [(0, 1), (1, 2)], False),
        (3, [(0, 1), (1, 2), (2, 0)], True),
    ])
    def test_small_graphs(self, count, arcs, expected):
        assert is_transitive(torus_graph(count, arcs)) is expected

    def test_agrees_with_closure_oracle_on_random_graphs(self):
        rng = random.Random(20121130)
        verdicts = set()
        for _ in range(500):
            count = rng.randint(0, 6)
            density = rng.choice((0.15, 0.3, 0.6))
            arcs = [(s, d) for s in range(count) for d in range(count)
                    if rng.random() < density]
            graph = torus_graph(count, arcs)
            expected = oracles.strongly_connected_by_closure(
                list(graph.torus_vertices), arcs_of(graph))
            assert is_transitive(graph) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestItineraries:
    def test_body_path(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        assert validate_itinerary(graph, ItineraryWord(("T0", "T0", "T1")))

    def test_missing_arc_rejected(self, census_specs):
        # some census specification has a pair of tori with no edge
        checked = 0
        for spec in census_specs:
            graph = build_flow_graph(spec)
            arcs = arcs_of(graph)
            for u in graph.torus_vertices:
                for v in graph.torus_vertices:
                    if (u, v) not in arcs:
                        assert not validate_itinerary(
                            graph, ItineraryWord((u, v)))
                        checked += 1
        assert checked > 0

    def test_tail_orbit(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        assert validate_itinerary(
            graph, ItineraryWord(("T0",), tail_orbit="P.v0"))
        assert validate_itinerary(
            graph, ItineraryWord(("T1",), head_orbit="P.v1"))

    def test_constant_word_needs_equal_tails(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        assert not validate_itinerary(
            graph, ItineraryWord((), head_orbit="P.v0", tail_orbit="P.v1"))
        assert validate_itinerary(
            graph, ItineraryWord((), head_orbit="P.v0", tail_orbit="P.v0"))
        assert not validate_itinerary(graph, ItineraryWord((), "P.v0", None))

    def test_unknown_ids_raise(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        with pytest.raises(InputError):
            validate_itinerary(graph, ItineraryWord(("T9",)))
        with pytest.raises(InputError):
            validate_itinerary(graph, ItineraryWord(("T0",), head_orbit="X.v0"))

    @pytest.mark.parametrize("word, message", [
        (ItineraryWord(("T0", "T9", "T7")),
         "w.json/body/1: unknown torus 'T9'"),
        (ItineraryWord(("T0", "T0", "T9", "T9")),
         "w.json/body/2: unknown torus 'T9'"),
        (ItineraryWord(("T0",), "X.v0", "Y.v0"),
         "w.json/head_orbit: unknown orbit 'X.v0'"),
        (ItineraryWord(("T0",), "P.v0", "X.v0"),
         "w.json/tail_orbit: unknown orbit 'X.v0'"),
        (ItineraryWord((), "X.v0", "X.v0"),
         "w.json/head_orbit: unknown orbit 'X.v0'"),
    ], ids=["body", "repeated-letter", "head", "tail", "equal-ends"])
    def test_unknown_ids_name_their_pointer(self, banana_spec, word, message):
        graph = build_flow_graph(banana_spec)
        with pytest.raises(InputError) as raised:
            validate_itinerary(graph, word, path="w.json")
        assert str(raised.value) == message

    def test_json_round_trip(self):
        word = ItineraryWord(("T0", "T1"), head_orbit="P.v0")
        assert ItineraryWord.from_json(word.to_json()) == word

    def test_word_is_a_value(self):
        word = ItineraryWord(("T0", "T1"), tail_orbit="P.v1")
        with pytest.raises(AttributeError):
            word.body = ()
        twin = ItineraryWord.from_json(word.to_json())
        assert twin == word and hash(twin) == hash(word)
        assert word == (("T0", "T1"), None, "P.v1")
        body, head, tail = word
        assert (body, head, tail) == (word.body, None, "P.v1")
        assert ItineraryWord() == ((), None, None)
        assert repr(word) == ("ItineraryWord(body=('T0', 'T1'), "
                              "head_orbit=None, tail_orbit='P.v1')")


class TestPeriodicWords:
    def test_length_one_words_are_self_loops(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        words = periodic_words(graph, 1)
        assert sorted(w.cycle for w in words) == [("P.e1",), ("P.e3",)]
        loops = [e.label for e in graph.edges if e.src == e.dst]
        assert len(words) == len(loops)

    def test_two_cycle_counted_once(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        words = periodic_words(graph, 2)
        assert sum(1 for w in words
                   if sorted(w.cycle) == ["P.e0", "P.e2"]) == 1

    def test_canonical_rotation_storage(self, banana_spec):
        for spec, max_len in ((banana_spec, 4),
                              (banana_chain(banana_spec, [1] * 8), 12)):
            graph = build_flow_graph(spec)
            for word in periodic_words(graph, max_len):
                assert word.cycle == least_rotation(word.cycle)

    def test_public_constructor_normalizes(self):
        assert PeriodicWord(("P.e2", "P.e0")).cycle == ("P.e0", "P.e2")

    def test_least_rotation_of_nothing_is_empty(self):
        assert least_rotation(()) == ()
        assert least_rotation(iter([])) == ()

    def test_words_are_not_normalized_again(self, banana_spec, monkeypatch):
        # the necklace rule emits every class as its least rotation, so
        # no word is rotated after it is found
        graph = build_flow_graph(banana_chain(banana_spec, [1] * 8))
        calls = []

        def counting(labels):
            calls.append(labels)
            return least_rotation(labels)

        monkeypatch.setattr(flowgraph, "least_rotation", counting)
        words = periodic_words(graph, 12)
        assert words and calls == []
        PeriodicWord(words[-1].cycle)
        assert len(calls) == 1

    def test_counts_match_walk_oracle(self, census_specs, banana_spec):
        for spec in list(census_specs) + [banana_spec]:
            graph = build_flow_graph(spec)
            expected = oracles.closed_walks_up_to_rotation(
                [(e.label, e.src, e.dst) for e in graph.edges], 4)
            got = {w.cycle for w in periodic_words(graph, 4)}
            assert got == expected

    def test_capacity(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        with pytest.raises(CapacityError):
            periodic_words(graph, 0)
        with pytest.raises(CapacityError):
            periodic_words(graph, 13)

    def test_duplicate_labels_rejected(self):
        # two loops both labelled "X.e0": a word ("X.e0",) could be
        # either, and the label table keeps only one of them
        loop = FlowEdge("X.e0", "T0", "T0", "X", 0, 1)
        graph = FlowGraph(("T0",), (), (loop, loop), ())
        with pytest.raises(InputError, match="distinct edge labels"):
            periodic_words(graph, 2)


def labelled_graph(count, arcs):
    """A flow graph on tori T0..T{count-1} whose edges are spread over
    pieces P, P2, P10 and Q in turn, so that label order ("P10.e0" <
    "P2.e0", "P.e10" < "P.e2") differs from construction order."""
    tori = tuple(f"T{k}" for k in range(count))
    pieces = ("P", "P2", "P10", "Q")
    edges = tuple(FlowEdge(f"{pieces[i % 4]}.e{i // 4}", tori[s], tori[d],
                           pieces[i % 4], i // 4, 1)
                  for i, (s, d) in enumerate(arcs))
    return FlowGraph(tori, (), edges, ())


def closed_walk_total(graph, max_len):
    """Walks of length 1..max_len from every torus that the oracle grows."""
    index = {t: k for k, t in enumerate(graph.torus_vertices)}
    ends = [1] * len(index)
    total = 0
    for _ in range(max_len):
        ends = [sum(ends[index[e.src]] for e in graph.edges
                    if index[e.dst] == k) for k in range(len(index))]
        total += sum(ends)
    return total


class TestPeriodicWordsByLabelOrder:
    def assert_matches_oracle(self, graph, max_len):
        words = periodic_words(graph, max_len)
        cycles = [w.cycle for w in words]
        assert cycles == sorted(cycles, key=lambda c: (len(c), c))
        assert len(set(cycles)) == len(cycles)
        assert set(cycles) == oracles.closed_walks_up_to_rotation(
            [(e.label, e.src, e.dst) for e in graph.edges], max_len)
        return cycles

    def test_random_multigraphs_against_oracle(self):
        rng = random.Random(31)
        for _ in range(200):
            count = rng.randint(1, 4)
            arcs = [(rng.randrange(count), rng.randrange(count))
                    for _ in range(rng.randint(1, 12))]
            graph = labelled_graph(count, arcs)
            # the oracle grows every walk from every torus: cap its work
            max_len = max(n for n in range(1, 8)
                          if n == 1 or closed_walk_total(graph, n) <= 5_000)
            self.assert_matches_oracle(graph, max_len)

    def test_self_loops_only(self):
        # three loops at T0 in label order P.e0 < P10.e0 < P2.e0, one at
        # T1: every necklace over three letters, and the powers of one
        graph = labelled_graph(2, [(0, 0), (0, 0), (0, 0), (1, 1)])
        cycles = self.assert_matches_oracle(graph, 6)
        necklaces = {1: 3, 2: 6, 3: 11, 4: 24, 5: 51, 6: 130}
        assert word_counts(periodic_words(graph, 6)) == {
            n: c + 1 for n, c in necklaces.items()}
        assert ("P.e0", "P10.e0", "P2.e0") in cycles
        assert ("P.e0", "P2.e0", "P10.e0") in cycles
        assert ("Q.e0",) * 6 in cycles

    def test_repeated_word_counted_once(self):
        # a = "P.e0": T0 -> T1, b = "P2.e0": T1 -> T0 and c = "P10.e0":
        # T1 -> T0; (a, c) is least although c was built after b
        graph = labelled_graph(2, [(0, 1), (1, 0), (1, 0)])
        cycles = self.assert_matches_oracle(graph, 4)
        assert cycles == [("P.e0", "P10.e0"), ("P.e0", "P2.e0"),
                          ("P.e0", "P10.e0", "P.e0", "P10.e0"),
                          ("P.e0", "P10.e0", "P.e0", "P2.e0"),
                          ("P.e0", "P2.e0", "P.e0", "P2.e0")]


def _matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y)))
             for j in range(len(y[0]))] for i in range(len(x))]


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestTraceFormula:
    """Counts of periodic words against Burnside's lemma for the
    rotations of closed walks (Lind & Marcus, *An Introduction to
    Symbolic Dynamics and Coding*, 1995, ch. 4).  The phi(n/d)
    rotations of order n/d fix exactly the closed n-walks that repeat a
    closed d-walk n/d times: tr(A^d) of them, of which (tr(A^d) +
    tr(S^d))/2 have sign +1 when n/d is odd and all when it is even; A
    is the adjacency matrix and S the signed one."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_banana_chains(self, banana_spec, k):
        chain = banana_chain(banana_spec, [1] * (2 * k))
        flipped = chain
        for i in range(0, k, 2):
            flipped = negate_seed(flipped, f"C{i}")
        for spec in (chain, flipped):
            graph = build_flow_graph(spec)
            index = {t: i for i, t in enumerate(graph.torus_vertices)}
            size = len(index)
            adj = [[0] * size for _ in range(size)]
            signed = [[0] * size for _ in range(size)]
            for e in graph.edges:
                adj[index[e.src]][index[e.dst]] += 1
                signed[index[e.src]][index[e.dst]] += e.sign
            traces, signed_traces = {}, {}
            power, signed_power = adj, signed
            for d in range(1, 13):
                traces[d] = sum(power[i][i] for i in range(size))
                signed_traces[d] = sum(signed_power[i][i] for i in range(size))
                power = _matmul(power, adj)
                signed_power = _matmul(signed_power, signed)

            words = periodic_words(graph, 12)
            plus: dict[int, int] = {}
            for w in words:
                if path_sign(graph, w.cycle) == 1:
                    plus[len(w)] = plus.get(len(w), 0) + 1
            counts = word_counts(words)
            for n in range(1, 13):
                divisors = [d for d in range(1, n + 1) if n % d == 0]
                total = sum(_totient(n // d) * traces[d] for d in divisors)
                fixed_plus = sum(
                    _totient(n // d)
                    * (traces[d] if (n // d) % 2 == 0
                       else (traces[d] + signed_traces[d]) // 2)
                    for d in divisors)
                assert total % n == 0 and fixed_plus % n == 0
                assert counts.get(n, 0) == total // n
                assert plus.get(n, 0) == fixed_plus // n


class TestPathSign:
    def test_empty_walk(self, banana_spec):
        assert path_sign(build_flow_graph(banana_spec), []) == 1

    def test_single_edges(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        for e in graph.edges:
            assert path_sign(graph, [e.label]) == e.sign

    def test_two_cycle_sign_is_seed_independent(self, banana_spec):
        plus = build_flow_graph(banana_spec)
        minus = build_flow_graph(negate_seed(banana_spec, "P"))
        walk = ["P.e0", "P.e2"]
        assert path_sign(plus, walk) == path_sign(minus, walk) == 1

    def test_multiplicative_on_random_walks(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        rng = random.Random(5)
        out = {}
        for e in graph.edges:
            out.setdefault(e.src, []).append(e)
        for _ in range(300):
            start = rng.choice(graph.torus_vertices)
            walk = []
            here = start
            for _ in range(rng.randrange(0, 7)):
                edge = rng.choice(out[here])
                walk.append(edge.label)
                here = edge.dst
            cut = rng.randrange(0, len(walk) + 1)
            left, right = walk[:cut], walk[cut:]
            assert path_sign(graph, walk) == \
                path_sign(graph, left) * path_sign(graph, right)

    def test_incompatible_walk_rejected(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        with pytest.raises(InputError):
            path_sign(graph, ["P.e1", "P.e3"])
        with pytest.raises(InputError):
            path_sign(graph, ["Q.e0"])

    def test_long_unknown_edge_is_quoted_short(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        with pytest.raises(InputError) as raised:
            path_sign(graph, ["P.e" + "0" * 50_000])
        assert len(str(raised.value)) < 100
        assert str(raised.value).startswith("unknown edge 'P.e000")


class TestExports:
    def test_edge_text_format(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        lines = flow_graph_to_edge_text(graph).splitlines()
        assert len(lines) == len(graph.edges)
        for line, edge in zip(lines, graph.edges):
            src, dst, sign, label = line.split()
            assert (src, dst) == (edge.src, edge.dst)
            assert int(sign) == edge.sign
            assert label == edge.label

    def test_json_shape(self, banana_spec):
        graph = build_flow_graph(banana_spec)
        payload = flow_graph_to_json(graph)
        assert set(payload) == {"vertices", "edges", "accumulation"}
        assert all(set(e) == {"from", "to", "piece", "edge", "sign"}
                   for e in payload["edges"])
        vertices = set(payload["vertices"])
        for e in payload["edges"]:
            assert e["from"] in vertices and e["to"] in vertices
