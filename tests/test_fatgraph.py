import collections
import hashlib
import itertools
import json
import math
import random
from typing import Iterator

import pytest

import oracles
from spineflow import (ENTRANCE, EXIT, FatGraph, InputError, OrientabilityError,
                       Spine, StructureError, enumerate_spines,
                       fatgraph_isomorphic, is_bipartite, spine_from_json,
                       spine_is_orientation_rigid, spine_to_json,
                       surface_invariants, trace_boundary_cycles,
                       validate_spine)
from spineflow import fatgraph
from spineflow.errors import CapacityError
from spineflow.fatgraph import (COLORS, _code_beats, _least_labeling,
                                _map_code, _rooted_even_hypermap_codes)
from spineflow.walks import two_color


# The reference enumerator: every labeled rotation system, in the order
# whose first member of each map class ``enumerate_spines`` emits.
def _even_cycle_rotations(darts: list[int]) -> Iterator[list[list[int]]]:
    """All partitions of ``darts`` into cyclic sequences of even length.

    Each rotation system is produced exactly once: cycles are emitted in
    increasing order of their smallest dart, which stays first in its
    cycle.
    """
    if not darts:
        yield []
        return
    first, rest = darts[0], darts[1:]
    # choose the rest of the cycle through `first`: an ordered selection
    # of odd size from `rest`
    for size in range(1, len(rest) + 1, 2):
        for tail in itertools.permutations(rest, size):
            remaining = [d for d in rest if d not in tail]
            head = [first, *tail]
            for other in _even_cycle_rotations(remaining):
                yield [head] + other


# The second reference: rooted even-valence maps grown on 2E darts, the
# census generator before spines were grown as hypermaps on E points.
def _rooted_even_map_codes(n: int) -> Iterator[tuple[int, ...]]:
    """The ``_map_code`` from dart 0 of every rooted connected map on
    darts 0..n-1 with only even valences, each exactly once.

    The code is grown in the order the walk reads it, so the darts are
    numbered in discovery order.  The rotation image of dart i is a
    numbered dart that has no rotation preimage yet, or the next new
    dart; so is its involution partner, unless an earlier dart already
    chose dart i.  A vertex cycle is dropped as soon as it closes with
    odd length, and a walk that runs out of darts before it numbers n
    of them is dropped too.  A rooted connected map has exactly one
    such numbering, so no code repeats and none needs a connectivity
    check.
    """
    rotation = [-1] * n
    preimage = [-1] * n
    involution = [-1] * n
    code: list[int] = []

    def grow(i: int, numbered: int) -> Iterator[tuple[int, ...]]:
        if i == numbered:
            if numbered == n:
                yield tuple(code)
            return
        for r in range(min(numbered + 1, n)):
            if preimage[r] >= 0:
                continue
            end, length = r, 1
            while rotation[end] >= 0:
                end, length = rotation[end], length + 1
            if end == i and length % 2:
                continue
            rotation[i], preimage[r] = r, i
            code.append(r)
            after = max(numbered, r + 1)
            if involution[i] >= 0:
                code.append(involution[i])
                yield from grow(i + 1, after)
                code.pop()
            else:
                for t in range(i + 1, min(after + 1, n)):
                    if involution[t] >= 0:
                        continue
                    involution[i], involution[t] = t, i
                    code.append(t)
                    yield from grow(i + 1, max(after, t + 1))
                    code.pop()
                    involution[i] = involution[t] = -1
            code.pop()
            rotation[i] = preimage[r] = -1

    return grow(0, 1)


def cycles_of(perm) -> list[list[int]]:
    cycles, placed = [], set()
    for d in range(len(perm)):
        if d not in placed:
            cycles.append([d])
            while perm[cycles[-1][-1]] != d:
                cycles[-1].append(perm[cycles[-1][-1]])
            placed.update(cycles[-1])
    return cycles


def banana_spine() -> Spine:
    graph = FatGraph([[1, 3, 5, 7], [8, 6, 4, 2]],
                     [[1, 2], [3, 4], [5, 6], [7, 8]])
    return Spine(graph, {0: EXIT, 1: ENTRANCE, 2: EXIT, 3: ENTRANCE})


def chiral_graph() -> FatGraph:
    # one vertex, boundary profile (5, 1, 2): not isomorphic to its mirror
    return FatGraph([[1, 2, 3, 5, 7, 4, 8, 6]],
                    [[1, 2], [3, 4], [5, 6], [7, 8]])


def reflected_spine(spine: Spine) -> Spine:
    graph = spine.graph.reflected()
    face = graph.face_of()
    inv = spine.graph.involution
    colors = {}
    for i, cycle in enumerate(spine.graph.boundary_cycles()):
        targets = {face[inv[d]] for d in cycle}
        assert len(targets) == 1
        colors[targets.pop()] = spine.colors[i]
    return Spine(graph, colors)


def _canonical_code(rotation, involution, darts) -> tuple[int, ...]:
    """The least breadth-first code over all start darts.  Two connected
    maps have equal codes exactly when a dart bijection commutes with
    their rotations and involutions, that is when they are isomorphic
    without reflection (the map codes of Brinkmann & McKay's plantri).
    The reference for the early-stopping ``_code_beats``."""
    return min(_map_code(rotation, involution, d)[0] for d in darts)


def greedy_labeling(rotation, involution, start: int) -> tuple:
    """The whole greedy (length, darts) cycle key from ``start``, as
    ``_least_labeling`` describes it: the reference for its early
    abort."""
    n = len(rotation)
    label = [0] * n
    by_label = [-1]
    placed = [False] * n
    cycles = []
    first, scan = start, 1
    while True:
        cycle = []
        d = first
        while not placed[d]:
            if not label[d]:
                label[d], label[involution[d]] = len(by_label), len(by_label) + 1
                by_label += (d, involution[d])
            placed[d] = True
            cycle.append(label[d])
            d = rotation[d]
        cycles.append((len(cycle), tuple(cycle)))
        while scan < len(by_label) and placed[by_label[scan]]:
            scan += 1
        if scan == len(by_label):
            return tuple(cycles)
        first = by_label[scan]


def canonical_code(graph: FatGraph) -> tuple[int, ...]:
    return _canonical_code(graph.rotation, graph.involution, graph.darts)


def uncolored(graph: FatGraph) -> Spine:
    """The graph with every boundary cycle ENTRANCE, so that a
    color-preserving isomorphism is just a graph isomorphism."""
    return Spine(graph, {i: ENTRANCE
                         for i in range(len(graph.boundary_cycles()))})


def exhaustive_proper_colorings(graph: FatGraph) -> list[dict[int, str]]:
    """Condition-3 colorings straight from a built graph: sides by
    2-coloring the side-adjacency graph, then every flip per component."""
    faces = graph.boundary_cycles()
    face_of = graph.face_of()
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(faces))}
    for a, b in graph.edges:
        fa, fb = face_of[a], face_of[b]
        if fa == fb:
            return []
        adjacency[fa].add(fb)
        adjacency[fb].add(fa)
    components: list[list[int]] = []
    assignment: dict[int, int] = {}
    for root in range(len(faces)):
        if root in assignment:
            continue
        sides, odd_cycle = two_color(root, adjacency)
        if odd_cycle is not None:
            return []
        assignment.update(sides)
        components.append(sorted(sides))
    colorings = []
    for flips in itertools.product((0, 1), repeat=len(components)):
        coloring = {}
        for comp, flip in zip(components, flips):
            for f in comp:
                coloring[f] = COLORS[(assignment[f] + flip) % 2]
        colorings.append(coloring)
    return colorings


def exhaustive_enumerate_spines(max_edges: int):
    """Reference census: every edge count, a ``FatGraph`` for every
    rotation system, and every valid colored spine compared by
    ``fatgraph_isomorphic`` with everything already emitted into its
    bucket of equal counts and boundary profile."""
    emitted: dict[tuple, list[Spine]] = {}
    for e in range(1, max_edges + 1):
        darts = list(range(1, 2 * e + 1))
        pairs = [[2 * k + 1, 2 * k + 2] for k in range(e)]
        for cycles in _even_cycle_rotations(darts):
            graph = FatGraph(cycles, pairs)
            if not graph.is_connected():
                continue
            if any(len(c) % 2 for c in graph.boundary_cycles()):
                continue
            for colors in exhaustive_proper_colorings(graph):
                spine = Spine(graph, colors)
                key = (e, graph.vertex_count, tuple(sorted(graph.valences())),
                       tuple(sorted((len(c), colors[i]) for i, c in
                             enumerate(graph.boundary_cycles()))))
                bucket = emitted.setdefault(key, [])
                if any(fatgraph_isomorphic(spine, seen) is not None
                       for seen in bucket):
                    continue
                bucket.append(spine)
                yield spine


def connected_graphs(max_edges: int) -> list[FatGraph]:
    """Every connected even-valence fat graph on darts 1..2E with edges
    (1, 2), (3, 4), ..., for E up to ``max_edges``."""
    graphs = []
    for e in range(1, max_edges + 1):
        pairs = [[2 * k + 1, 2 * k + 2] for k in range(e)]
        for cycles in _even_cycle_rotations(list(range(1, 2 * e + 1))):
            graph = FatGraph(cycles, pairs)
            if graph.is_connected():
                graphs.append(graph)
    return graphs


class TestConstruction:
    def test_involution_must_be_fixed_point_free(self):
        with pytest.raises(StructureError):
            FatGraph([[1, 2]], [[1, 1], [2, 2]])

    def test_rotation_must_cover_darts_once(self):
        with pytest.raises(StructureError):
            FatGraph([[1, 2], [2, 3]], [[1, 2], [3, 4]])

    def test_edges_must_pair_all_darts(self):
        with pytest.raises(StructureError):
            FatGraph([[1, 2, 3, 4]], [[1, 2]])

    @pytest.mark.parametrize("cycles, pairs", [
        ([["1", "2"]], [["1", 2.0]]),
        ([[1.0, 2]], [[1, 2]]),
        ([[True, 2]], [[1, 2]]),
        ([[1, 2]], [[1, 2.0]]),
        ([[1, 2]], [[True, 2]]),
    ], ids=["strings", "float-rotation", "bool-rotation", "float-edge",
            "bool-edge"])
    def test_darts_must_be_ints_not_coerced(self, cycles, pairs):
        with pytest.raises(StructureError, match="integer"):
            FatGraph(cycles, pairs)

    @pytest.mark.parametrize("mapping, message", [
        ({1: 5, 2: 6}, "exactly the darts"),
        ({1: 5, 2: 6, 3: 7, 4: 8, 9: 9}, "exactly the darts"),
        ({1: 5, 2: 6, 3: 7, 4: 5}, "injective"),
    ], ids=["too-few", "too-many", "not-injective"])
    def test_relabeling_must_rename_each_dart_once(self, mapping, message):
        graph = FatGraph([[1, 3], [2, 4]], [[1, 2], [3, 4]])
        with pytest.raises(InputError, match=message):
            graph.relabeled(mapping)

    def test_repr_lists_vertices_and_edge_count(self):
        assert repr(banana_spine().graph) == "FatGraph((1,3,5,7)(2,8,6,4), 4 edges)"
        graph = FatGraph([[4, 1], [3, 2]], [[1, 2], [3, 4]])
        assert repr(graph) == "FatGraph((1,4)(2,3), 2 edges)"


class TestBoundaryCycles:
    def test_single_loop(self):
        # smallest ribbon graph; the fixed convention gives two
        # one-dart boundary walks here
        graph = FatGraph([[1, 2]], [[1, 2]])
        cycles = trace_boundary_cycles(graph)
        assert len(cycles) in (1, 2)
        assert sorted(d for c in cycles for d in c) == [1, 2]
        assert cycles == [(1,), (2,)]

    def test_banana_faces(self):
        graph = banana_spine().graph
        cycles = trace_boundary_cycles(graph)
        assert len(cycles) == 4
        assert all(len(c) == 2 for c in cycles)
        walks = oracles.face_walks(graph.rotation, graph.involution)
        assert [list(c) for c in cycles] == walks

    def test_partition_property_on_census(self, census_spines):
        for spine in census_spines:
            darts = sorted(
                d for c in trace_boundary_cycles(spine.graph) for d in c)
            assert darts == list(spine.graph.darts)

    def test_agrees_with_walk_oracle_on_census(self, census_spines):
        for spine in census_spines:
            graph = spine.graph
            assert [list(c) for c in trace_boundary_cycles(graph)] == \
                oracles.face_walks(graph.rotation, graph.involution)

    def test_face_of_cached_and_agrees_with_walk_oracle(self, census_spines):
        for spine in census_spines:
            graph = spine.graph
            first = graph.face_of()
            assert graph.face_of() is first
            walks = oracles.face_walks(graph.rotation, graph.involution)
            assert first == {d: i for i, walk in enumerate(walks) for d in walk}


class TestSurfaceInvariants:
    def test_banana(self):
        inv = surface_invariants(banana_spine().graph)
        assert (inv.vertex_count, inv.edge_count, inv.boundary_count) == (2, 4, 4)
        assert inv.euler_characteristic == -2
        assert inv.genus == 0

    def test_single_loop(self):
        inv = surface_invariants(FatGraph([[1, 2]], [[1, 2]]))
        assert (inv.vertex_count, inv.edge_count) == (1, 1)
        assert inv.euler_characteristic == 0

    def test_chi_computed_two_ways(self, census_spines):
        for spine in census_spines:
            inv = surface_invariants(spine.graph)
            assert inv.euler_characteristic == inv.vertex_count - inv.edge_count
            assert inv.euler_characteristic == \
                2 - 2 * inv.genus - inv.boundary_count

    def test_disconnected_data_rejected(self):
        # two separate loops: chi = 0 with four boundary circles has no
        # orientable genus
        graph = FatGraph([[1, 2], [3, 4]], [[1, 2], [3, 4]])
        with pytest.raises(OrientabilityError):
            surface_invariants(graph)


class TestValidateSpine:
    def test_banana_passes(self):
        spine = banana_spine()
        assert validate_spine(spine.graph, spine.colors).passed

    def test_figure_eight_fails_condition_4(self):
        graph = FatGraph([[1, 2, 3, 4]], [[1, 2], [3, 4]])
        colors = {i: ENTRANCE if i % 2 else EXIT
                  for i in range(len(graph.boundary_cycles()))}
        report = validate_spine(graph, colors)
        assert not report.passed
        assert any("condition 4" in c.name for c in report.failures)

    def test_odd_valence_fails_condition_2(self):
        # theta graph: two vertices joined by three edges
        graph = FatGraph([[1, 3, 5], [2, 6, 4]], [[1, 2], [3, 4], [5, 6]])
        colors = {i: ENTRANCE if i % 2 else EXIT
                  for i in range(len(graph.boundary_cycles()))}
        report = validate_spine(graph, colors)
        failed = [c.name for c in report.failures]
        assert any("condition 2" in name for name in failed)

    def test_partial_coloring_is_input_error(self):
        spine = banana_spine()
        with pytest.raises(InputError):
            validate_spine(spine.graph, {0: EXIT})
        with pytest.raises(InputError):
            validate_spine(spine.graph, {**spine.colors, 1: "SIDEWAYS"})

    def test_relabeling_invariance(self, census_spines):
        rng = random.Random(11)
        for spine in census_spines:
            darts = list(spine.graph.darts)
            images = darts[:]
            rng.shuffle(images)
            relabeled = spine.relabeled(dict(zip(darts, images)))
            before = validate_spine(spine.graph, spine.colors).passed
            after = validate_spine(relabeled.graph, relabeled.colors).passed
            assert before == after

    def test_valence_sum_is_twice_edge_count(self, census_spines):
        for spine in census_spines:
            valences = spine.graph.valences()
            assert sum(valences) == 2 * spine.graph.edge_count
            assert all(v % 2 == 0 for v in valences)

    def test_accepted_spines_have_even_chi_plus_boundary(self, census_spines):
        for spine in census_spines:
            inv = surface_invariants(spine.graph)
            assert (inv.euler_characteristic + inv.boundary_count) % 2 == 0


class TestEnumerateSpines:
    def test_one_edge_census_is_empty(self):
        assert list(enumerate_spines(1)) == []

    def test_census_contains_banana(self, census_spines):
        target = banana_spine()
        assert any(fatgraph_isomorphic(target, s) is not None
                   for s in census_spines)

    def test_no_two_isomorphic_entries(self, census_spines):
        for a, b in itertools.combinations(census_spines, 2):
            assert fatgraph_isomorphic(a, b) is None

    def test_all_entries_valid(self, census_spines):
        for spine in census_spines:
            assert validate_spine(spine.graph, spine.colors).passed

    def test_capacity_bounds(self, eight_edge_spines):
        with pytest.raises(CapacityError):
            list(enumerate_spines(0))
        with pytest.raises(CapacityError):
            list(enumerate_spines(10))
        # E = 9 is odd and adds nothing to E = 8
        assert [spine_to_json(s) for s in enumerate_spines(9)] == \
            [spine_to_json(s) for s in eight_edge_spines]

    @pytest.mark.parametrize("max_edges", [1, 2, 3, 4])
    def test_matches_exhaustive_reference(self, max_edges):
        expected = [spine_to_json(s)
                    for s in exhaustive_enumerate_spines(max_edges)]
        assert [spine_to_json(s) for s in enumerate_spines(max_edges)] == \
            expected

    def test_odd_edge_counts_have_no_spines(self):
        # condition 3 puts one side of every edge on an ENTRANCE cycle
        # and condition 4 makes those cycles even, so E is even
        assert list(exhaustive_enumerate_spines(1)) == []
        assert [s for s in exhaustive_enumerate_spines(3)
                if s.graph.edge_count % 2] == []

    def test_five_edges_add_nothing(self, census_spines):
        assert [spine_to_json(s) for s in enumerate_spines(5)] == \
            [spine_to_json(s) for s in census_spines]

    def test_builds_one_graph_per_isomorphism_class(self, monkeypatch,
                                                    census_spines):
        built = []

        class CountingFatGraph(FatGraph):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(fatgraph, "FatGraph", CountingFatGraph)
        assert len(list(enumerate_spines(4))) == len(census_spines)
        assert len(built) == len({canonical_code(s.graph)
                                  for s in census_spines})


def old_order_key(graph: FatGraph) -> tuple:
    """The (length, darts) key of each rotation cycle in turn, cycles
    starting at their least dart and going by it: the order in which
    ``_even_cycle_rotations`` lists labeled rotation systems."""
    return tuple((len(c), c) for c in graph.vertices)


@pytest.fixture(scope="module")
def six_edge_spines() -> list[Spine]:
    return list(enumerate_spines(6))


@pytest.fixture(scope="module")
def eight_edge_spines() -> list[Spine]:
    return list(enumerate_spines(8))


class TestRootedHypermapCodes:
    def test_counts_match_transitive_pair_oracle(self):
        # relabelings of 1..n-1 act freely on transitive pairs (one that
        # commutes with a transitive group and fixes 0 is the identity),
        # and each orbit is one rooted code: T(n) / (n - 1)! codes
        counts = oracles.transitive_even_pair_counts(8)
        rooted = [sum(1 for _ in _rooted_even_hypermap_codes(n))
                  for n in range(1, 9)]
        assert rooted == [counts[n] // math.factorial(n - 1)
                          for n in range(1, 9)]
        assert rooted == [0, 1, 0, 13, 0, 412, 0, 23797]

    def test_each_code_is_the_map_code_of_an_even_pair(self):
        for n in (2, 4, 6):
            codes = list(_rooted_even_hypermap_codes(n))
            assert len(set(codes)) == len(codes)
            for code in codes:
                x, y = code[::2], code[1::2]
                assert sorted(x) == sorted(y) == list(range(n))
                # a code of length 2n from point 0 reaches every point
                assert _map_code(x, y, 0)[0] == code
                assert all(len(c) % 2 == 0
                           for c in cycles_of(x) + cycles_of(y))


class TestEarlyStops:
    """The census walks stop early and answer as the whole walks do."""

    def test_code_beats_agrees_with_whole_codes(self):
        compared = 0
        for n in (2, 4, 6):
            for code in _rooted_even_hypermap_codes(n):
                x, y = code[::2], code[1::2]
                for d in range(n):
                    assert _code_beats(x, y, d, code) == \
                        (_map_code(x, y, d)[0] < code)
                    compared += 1
        assert compared == 2 * 1 + 4 * 13 + 6 * 412

    def test_least_labeling_is_least_greedy_key(self, six_edge_spines):
        rng = random.Random(66)
        for spine in six_edge_spines:
            graph = spine.graph
            n = len(graph.darts)
            for _ in range(3):
                # a random pair-preserving relabeling onto 0..n-1
                edges = list(range(graph.edge_count))
                rng.shuffle(edges)
                new = {}
                for k, image in enumerate(edges):
                    flip = rng.randrange(2)
                    new[2 * k + 1], new[2 * k + 2] = \
                        2 * image + flip, 2 * image + 1 - flip
                rotation, involution = [0] * n, [0] * n
                for d in graph.darts:
                    rotation[new[d]] = new[graph.rotation[d]]
                    involution[new[d]] = new[graph.involution[d]]
                assert _least_labeling(rotation, involution) == min(
                    greedy_labeling(rotation, involution, start)
                    for start in range(n))


class TestRootedMapCodes:
    def test_counts_match_labeled_systems(self):
        # automorphisms of a connected map act freely on its darts, so a
        # class with a of them has 2E / a rooted versions, one code each,
        # and 2^E * E! / a labelings keeping the pairs (1, 2), (3, 4), ...
        graphs = connected_graphs(4)
        rooted = [sum(1 for _ in _rooted_even_map_codes(2 * e))
                  for e in range(1, 5)]
        assert rooted == [1, 4, 25, 208]
        for e, count in enumerate(rooted, start=1):
            labeled = sum(1 for g in graphs if g.edge_count == e)
            assert count * 2 ** e * math.factorial(e) == 2 * e * labeled

    def test_each_code_is_the_map_code_of_an_even_connected_map(self):
        for n in (2, 4, 6, 8, 10):
            codes = list(_rooted_even_map_codes(n))
            assert len(set(codes)) == len(codes)
            for code in codes:
                rotation, involution = code[::2], code[1::2]
                assert sorted(rotation) == list(range(n))
                assert all(involution[involution[d]] == d != involution[d]
                           for d in range(n))
                assert _map_code(rotation, involution, 0)[0] == code
                cycles = cycles_of(rotation)
                assert all(len(c) % 2 == 0 for c in cycles)
                pairs = [(d, involution[d]) for d in range(n)
                         if d < involution[d]]
                assert oracles.union_find_connected(cycles, pairs)

    def test_six_edge_count(self):
        assert sum(1 for _ in _rooted_even_map_codes(12)) == 26368


class TestSixEdgeCensus:
    def test_digest(self, six_edge_spines):
        text = json.dumps([spine_to_json(s) for s in six_edge_spines])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "5d3bdbd66921c9c102ab1be1fc7baf3f5cecadfbc5f049e26935a6dd8d7fc128"

    def test_counts_and_prefix(self, six_edge_spines, census_spines):
        assert len(six_edge_spines) == 91
        assert [spine_to_json(s) for s in six_edge_spines[:9]] == \
            [spine_to_json(s) for s in census_spines]
        assert [s.graph.edge_count for s in six_edge_spines].count(6) == 82

    def test_spine_conditions(self, six_edge_spines):
        for spine in six_edge_spines[9:]:
            graph = spine.graph
            conditions = oracles.spine_conditions(
                [list(c) for c in graph.vertices], list(graph.edges),
                spine.colors)
            assert all(conditions.values()), conditions

    def test_no_two_isomorphic(self, six_edge_spines):
        buckets: dict[tuple, list[Spine]] = {}
        for spine in six_edge_spines:
            graph = spine.graph
            key = (graph.edge_count, tuple(sorted(graph.valences())),
                   tuple(sorted((len(c), spine.colors[i]) for i, c in
                                enumerate(graph.boundary_cycles()))))
            buckets.setdefault(key, []).append(spine)
        for bucket in buckets.values():
            for a, b in itertools.combinations(bucket, 2):
                assert fatgraph_isomorphic(a, b) is None

    def test_no_relabeling_comes_first(self, six_edge_spines):
        # each graph is the first labeled rotation system of its class
        # in the order of _even_cycle_rotations
        rng = random.Random(61)
        for spine in six_edge_spines:
            graph = spine.graph
            key = old_order_key(graph)
            for _ in range(40):
                edges = list(range(graph.edge_count))
                rng.shuffle(edges)
                mapping = {}
                for k, image in enumerate(edges):
                    flip = rng.randrange(2)
                    mapping[2 * k + 1] = 2 * image + 1 + flip
                    mapping[2 * k + 2] = 2 * image + 2 - flip
                assert old_order_key(graph.relabeled(mapping)) >= key


class TestEightEdgeCensus:
    def test_counts_and_prefix(self, eight_edge_spines, six_edge_spines):
        assert len(eight_edge_spines) == 3181
        assert [spine_to_json(s) for s in eight_edge_spines[:91]] == \
            [spine_to_json(s) for s in six_edge_spines]
        assert [s.graph.edge_count for s in eight_edge_spines].count(8) == 3090

    def test_counts_match_burnside(self, eight_edge_spines):
        # the census against a count that never builds a spine
        by_edges = collections.Counter(s.graph.edge_count
                                       for s in eight_edge_spines)
        counts = [oracles.burnside_spine_count(e) for e in range(1, 9)]
        assert counts == [by_edges[e] for e in range(1, 9)]
        assert counts == [0, 1, 0, 8, 0, 82, 0, 3090]

    def test_spine_conditions(self, eight_edge_spines):
        for spine in eight_edge_spines[91:]:
            graph = spine.graph
            conditions = oracles.spine_conditions(
                [list(c) for c in graph.vertices], list(graph.edges),
                spine.colors)
            assert all(conditions.values()), conditions


class TestCanonicalCode:
    def test_invariant_under_relabeling(self, census_spines):
        rng = random.Random(23)
        for spine in census_spines:
            graph = spine.graph
            code = canonical_code(graph)
            for _ in range(5):
                images = rng.sample(range(1, 60), len(graph.darts))
                relabeled = graph.relabeled(dict(zip(graph.darts, images)))
                assert canonical_code(relabeled) == code

    def test_reflection_changes_code_exactly_when_chiral(self, census_spines):
        graphs = [s.graph for s in census_spines] + [chiral_graph()]
        for graph in graphs:
            mirror = graph.reflected()
            same_code = canonical_code(graph) == canonical_code(mirror)
            isomorphic = fatgraph_isomorphic(uncolored(graph),
                                             uncolored(mirror)) is not None
            assert same_code == isomorphic
        assert canonical_code(chiral_graph()) != \
            canonical_code(chiral_graph().reflected())

    def test_equal_exactly_when_isomorphic(self):
        rng = random.Random(5)
        graphs = connected_graphs(3)
        for graph in graphs[:]:
            images = rng.sample(range(1, 40), len(graph.darts))
            graphs.append(graph.relabeled(dict(zip(graph.darts, images))))
            graphs.append(graph.reflected())
        classes: dict[tuple, list[FatGraph]] = {}
        for graph in graphs:
            classes.setdefault(canonical_code(graph), []).append(graph)

        def isomorphic(a: FatGraph, b: FatGraph) -> bool:
            return bool(oracles.edge_isomorphisms(uncolored(a), uncolored(b),
                                                  reflect=False))

        for members in classes.values():
            assert all(isomorphic(members[0], g) for g in members[1:])
        representatives = [m[0] for m in classes.values()]
        for a, b in itertools.combinations(representatives, 2):
            assert not isomorphic(a, b)


class TestAgainstEdgeOracle:
    """The search lists exactly the isomorphisms that brute force over
    edge permutations and flips finds, in the same order: unreflected
    ones first, each group by ascending image of the least dart."""

    @staticmethod
    def assert_same(s1: Spine, s2: Spine) -> list:
        """Also checks each yielded face map against the face walks."""
        g1, g2 = s1.graph, s2.graph
        walks1 = oracles.face_walks(g1.rotation, g1.involution)
        walk_of2 = {d: i for i, walk in enumerate(
            oracles.face_walks(g2.rotation, g2.involution)) for d in walk}
        found = []
        for sigma, reflect, faces in fatgraph.iter_isomorphisms_tagged(
                s1, s2, allow_reflection=True):
            side = g2.involution if reflect else {d: d for d in g2.darts}
            assert faces == {i: walk_of2[side[sigma[walk[0]]]]
                             for i, walk in enumerate(walks1)}
            found.append((sigma, reflect))
        expected = [(sigma, reflect) for reflect in (False, True)
                    for sigma in oracles.edge_isomorphisms(s1, s2, reflect)]
        assert found == expected
        return found

    def test_census_pairs(self, census_spines):
        for s1, s2 in itertools.product(census_spines, repeat=2):
            if s1.graph.edge_count == s2.graph.edge_count:
                self.assert_same(s1, s2)

    def test_relabelings_and_mirrors(self, census_spines):
        rng = random.Random(11)
        for spine in census_spines:
            images = rng.sample(range(1, 40), len(spine.graph.darts))
            copy = spine.relabeled(dict(zip(spine.graph.darts, images)))
            mirror = reflected_spine(spine)
            for s1, s2 in ((spine, copy), (copy, spine), (spine, mirror),
                           (mirror, copy)):
                assert self.assert_same(s1, s2)

    def test_chiral_graph(self):
        spine = uncolored(chiral_graph())
        mirror = reflected_spine(spine)
        assert [r for _, r in self.assert_same(spine, mirror)] == [True]
        assert [r for _, r in self.assert_same(spine, spine)] == [False]

    def test_disconnected_graph_is_input_error(self):
        pairs = [[1, 2], [3, 4], [5, 6], [7, 8]]
        # equal valences (2, 6) and boundary lengths (1, 1, 2, 4)
        apart = uncolored(FatGraph([[1, 2], [3, 5, 4, 7, 6, 8]], pairs))
        joined = uncolored(FatGraph([[1, 3], [2, 4, 5, 6, 7, 8]], pairs))
        assert not oracles.union_find_connected(apart.graph.vertices,
                                                apart.graph.edges)
        assert oracles.union_find_connected(joined.graph.vertices,
                                            joined.graph.edges)
        for s1, s2 in ((apart, joined), (joined, apart), (apart, apart)):
            with pytest.raises(InputError):
                list(fatgraph.iter_isomorphisms_tagged(s1, s2))


class TestWalkCache:
    """Each spine walks from each dart at most once per reflection
    flag, and its walk table groups those walks by code and colors."""

    def test_each_dart_walked_once_per_flag(self, monkeypatch):
        walks = []
        real = fatgraph._map_code

        def counting(*args):
            walks.append(args[2])
            return real(*args)

        monkeypatch.setattr(fatgraph, "_map_code", counting)
        spine = banana_spine()
        mirror = reflected_spine(spine)
        for _ in range(2):
            assert spine.graph.is_connected()
            for s1, s2 in ((spine, spine), (mirror, spine), (spine, mirror)):
                list(fatgraph.iter_isomorphisms_tagged(s1, s2, True))
        # both graphs, on the same darts, walked under both flags
        assert mirror.graph.darts == spine.graph.darts
        assert sorted(walks) == sorted(4 * spine.graph.darts)

    def test_reflected_walks_share_one_inverse_rotation(self, monkeypatch):
        rotations = []
        real = fatgraph._map_code

        def recording(rotation, *args):
            rotations.append(rotation)
            return real(rotation, *args)

        monkeypatch.setattr(fatgraph, "_map_code", recording)
        spine = banana_spine()
        graph = spine.graph
        spine.walk_table(True)
        assert len(rotations) == len(graph.darts)
        assert len({id(rotation) for rotation in rotations}) == 1
        assert all(rotations[0][graph.rotation[d]] == d for d in graph.darts)

    def test_walk_table_groups_walks_by_code_and_colors(self, census_spines):
        for spine in census_spines:
            graph = spine.graph
            walk_of = {d: i for i, walk in enumerate(oracles.face_walks(
                graph.rotation, graph.involution)) for d in walk}
            for reflect in (False, True):
                rotation = graph.rotation if not reflect else {
                    v: k for k, v in graph.rotation.items()}
                side = graph.involution if reflect else {d: d for d in graph.darts}
                table = spine.walk_table(reflect)
                starts = [order[0] for orders in table.values()
                          for order in orders]
                assert sorted(starts) == list(graph.darts)
                for (code, colors), orders in table.items():
                    assert [o[0] for o in orders] == sorted(o[0] for o in orders)
                    for order in orders:
                        assert _map_code(rotation, graph.involution,
                                         order[0]) == (code, order)
                        assert colors == tuple(spine.colors[walk_of[side[d]]]
                                               for d in order)

    def test_least_key_holds_the_canonical_code(self, census_spines):
        for spine in census_spines:
            graph = spine.graph
            code, _ = min(spine.walk_table())
            assert code == _canonical_code(graph.rotation, graph.involution,
                                           graph.darts)

    def test_one_face_map_per_listed_isomorphism(self, census_spines,
                                                 monkeypatch):
        """Every candidate the table gives is yielded: ``induced_face_map``
        runs once per isomorphism, although many walks of equal code
        and other colors are never looked at."""
        calls = []
        real = fatgraph.induced_face_map

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fatgraph, "induced_face_map", counting)
        yielded = same_code = 0
        for s1, s2 in itertools.product(census_spines, repeat=2):
            if s1.graph.edge_count != s2.graph.edge_count:
                continue
            code1, _ = s1.graph.least_walk
            for reflect in (False, True):
                same_code += sum(len(orders) for (code, _), orders
                                 in s2.walk_table(reflect).items()
                                 if code == code1)
            yielded += len(list(fatgraph.iter_isomorphisms_tagged(
                s1, s2, allow_reflection=True)))
        assert len(calls) == yielded
        assert 0 < yielded < same_code


def labels_kept(s1: Spine, s2: Spine, sigma: dict[int, int],
                labels: tuple[list, list]) -> bool:
    """Whether ``sigma`` sends every dart's vertex to a vertex of equal
    label: the filter that callers ran on the unlabeled listing."""
    labels1, labels2 = labels
    g1, g2 = s1.graph, s2.graph
    return all(labels2[g2.vertex_of[sigma[d]]] == labels1[g1.vertex_of[d]]
               for d in g1.darts)


def random_labels(spines, seed: int) -> dict[int, list[int]]:
    """Two seeded labels per vertex set, by spine id: few enough that
    labeled listings keep some bijections and skip others."""
    rng = random.Random(seed)
    return {id(spine): [rng.randrange(2) for _ in spine.graph.vertices]
            for spine in spines}


def post_filter_rigid(spine: Spine) -> bool:
    """``spine_is_orientation_rigid`` as it filtered the unlabeled
    listing of automorphisms on sides and fixed boundary cycles."""
    graph = spine.graph
    if not is_bipartite(graph):
        return True
    side = [sides[v] for v, (sides, _) in enumerate(graph.vertex_sides)]
    for sigma, _, faces in fatgraph.iter_isomorphisms_tagged(spine, spine):
        if (all(f == g for f, g in faces.items())
                and all(side[graph.vertex_of[sigma[cycle[0]]]] != side[v]
                        for v, cycle in enumerate(graph.vertices))):
            return False
    return True


class TestLabeledListing:
    """Vertex labels make the lister skip the walks whose labels differ
    from those along the least walk of the first spine: the labeled
    listing is the unlabeled one filtered, in the same order, and no
    face map is built for what it skips."""

    def test_labeled_listing_is_the_filtered_listing(self):
        spines = list(enumerate_spines(6))
        labels = random_labels(spines, seed=7)
        kept = skipped = 0
        for s1, s2 in itertools.product(spines, repeat=2):
            pair = (labels[id(s1)], labels[id(s2)])
            for allow_reflection in (False, True):
                listed = list(fatgraph.iter_isomorphisms_tagged(
                    s1, s2, allow_reflection))
                expected = [iso for iso in listed
                            if labels_kept(s1, s2, iso[0], pair)]
                assert list(fatgraph.iter_isomorphisms_tagged(
                    s1, s2, allow_reflection, pair)) == expected
                kept += len(expected)
                skipped += len(listed) - len(expected)
        assert kept and skipped

    def test_one_face_map_per_yielded_bijection(self, census_spines,
                                                 monkeypatch):
        unlabeled = sum(len(list(fatgraph.iter_isomorphisms_tagged(
            s1, s2, allow_reflection=True)))
            for s1, s2 in itertools.product(census_spines, repeat=2))
        calls = []
        real = fatgraph.induced_face_map

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fatgraph, "induced_face_map", counting)
        labels = random_labels(census_spines, seed=3)
        yielded = 0
        for s1, s2 in itertools.product(census_spines, repeat=2):
            yielded += len(list(fatgraph.iter_isomorphisms_tagged(
                s1, s2, True, (labels[id(s1)], labels[id(s2)]))))
        assert len(calls) == yielded
        assert 0 < yielded < unlabeled

    def test_rigidity_agrees_with_the_post_filter(self):
        verdicts = collections.Counter()
        for spine in enumerate_spines(8):
            rigid = spine_is_orientation_rigid(spine)
            assert rigid is post_filter_rigid(spine), spine_to_json(spine)
            verdicts[rigid] += 1
        assert verdicts[True] and verdicts[False]


class TestIsomorphism:
    def test_self_isomorphism(self):
        spine = banana_spine()
        sigma = fatgraph_isomorphic(spine, spine)
        assert sigma is not None
        graph = spine.graph
        assert all(sigma[graph.rotation[d]] == graph.rotation[sigma[d]]
                   for d in graph.darts)

    def test_relabeled_copy_found(self):
        spine = banana_spine()
        mapping = {d: d + 10 for d in spine.graph.darts}
        other = spine.relabeled(mapping)
        sigma = fatgraph_isomorphic(spine, other)
        assert sigma is not None
        assert sorted(sigma.values()) == sorted(mapping.values())

    def test_different_edge_counts_never_match(self, census_spines):
        spine = banana_spine()
        for other in census_spines:
            if other.graph.edge_count != 4:
                assert fatgraph_isomorphic(spine, other) is None

    def test_witness_is_invertible(self, census_spines):
        for spine in census_spines:
            sigma = fatgraph_isomorphic(spine, spine)
            inverse = {v: k for k, v in sigma.items()}
            assert len(inverse) == len(sigma)

    def test_symmetric_on_relabelings(self):
        spine = banana_spine()
        other = spine.relabeled({d: 9 - d for d in spine.graph.darts})
        assert fatgraph_isomorphic(spine, other) is not None
        assert fatgraph_isomorphic(other, spine) is not None

    def test_transitive_on_relabelings(self):
        spine = banana_spine()
        first = spine.relabeled({d: d + 8 for d in spine.graph.darts})
        second = first.relabeled({d: d + 8 for d in first.graph.darts})
        assert fatgraph_isomorphic(spine, first) is not None
        assert fatgraph_isomorphic(first, second) is not None
        assert fatgraph_isomorphic(spine, second) is not None

    def test_deterministic_least_witness(self):
        spine = banana_spine()
        first = fatgraph_isomorphic(spine, spine)
        again = fatgraph_isomorphic(spine, spine)
        assert first == again

    def test_reflection_flag(self):
        graph = chiral_graph()
        colors = {i: ENTRANCE for i in range(len(graph.boundary_cycles()))}
        spine = Spine(graph, colors)
        mirror = reflected_spine(spine)
        assert fatgraph_isomorphic(spine, mirror) is None
        assert fatgraph_isomorphic(spine, mirror, allow_reflection=True) \
            is not None


class TestBipartite:
    def test_banana_is_bipartite(self):
        assert is_bipartite(banana_spine().graph)

    def test_loop_is_not(self):
        assert not is_bipartite(FatGraph([[1, 2]], [[1, 2]]))

    def test_odd_circle_is_not(self):
        graph = FatGraph([[1, 6], [2, 3], [4, 5]],
                         [[1, 2], [3, 4], [5, 6]])
        assert not is_bipartite(graph)

    def test_odd_cycle_only_in_second_component(self):
        # a double edge between vertices 0 and 1, then a triangle 2, 3, 4
        graph = FatGraph([[1, 3], [2, 4], [5, 10], [6, 7], [8, 9]],
                         [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]])
        assert not is_bipartite(graph)


class TestSerialization:
    def test_round_trip(self, census_spines):
        for spine in census_spines:
            assert spine_from_json(spine_to_json(spine)) == spine

    def test_malformed_inputs(self):
        with pytest.raises(InputError):
            spine_from_json({"darts": [1, 2]})
        with pytest.raises(InputError):
            spine_from_json([1, 2, 3])
        payload = spine_to_json(banana_spine())
        payload["colors"] = {"0": "EXIT"}
        with pytest.raises(InputError):
            spine_from_json(payload)
