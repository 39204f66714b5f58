import itertools
import math
from typing import Iterator

import pytest

import spineflow.model as model
from chains import banana_chain
from spineflow import (ENTRANCE, EXIT, DehnCoefficient, EquivalenceWitness,
                       FatGraph, GluingMatrix, InputError, ModelFlowSpec,
                       ModelPiece, OrientationConflictError, Spine,
                       is_bipartite, negate_seed, orientation_classes,
                       propagate_orientations, seed_orientation,
                       spec_from_json, spec_to_json, spine_census,
                       unsurgered_piece, validate_piece, validate_spec,
                       verify_witness)
from spineflow.errors import CapacityError, quote
from spineflow.report import ValidationReport
from spineflow.walks import reachable, two_color


def banana_piece(piece_id="P") -> ModelPiece:
    graph = FatGraph([[1, 3, 5, 7], [8, 6, 4, 2]],
                     [[1, 2], [3, 4], [5, 6], [7, 8]])
    spine = Spine(graph, {0: EXIT, 1: ENTRANCE, 2: EXIT, 3: ENTRANCE})
    return unsurgered_piece(piece_id, spine)


def all_sign_assignments(n):
    return [dict(zip(range(n), signs))
            for signs in itertools.product((1, -1), repeat=n)]


class TestValidatePiece:
    def test_unsurgered_banana_passes(self):
        assert validate_piece(banana_piece()).passed

    def test_coprime_coefficient_passes(self):
        piece = banana_piece()
        piece.dehn[0] = DehnCoefficient(2, 3)
        assert math.gcd(2, 3) == 1
        assert validate_piece(piece).passed

    def test_non_coprime_coefficient_named(self):
        piece = banana_piece()
        piece.dehn[1] = DehnCoefficient(2, 4)
        report = validate_piece(piece)
        assert not report.passed
        assert any("vertex 1" in c.name for c in report.failures)

    def test_zero_pair_rejected(self):
        piece = banana_piece()
        piece.dehn[0] = DehnCoefficient(0, 0)
        assert not validate_piece(piece).passed

    def test_missing_coefficient_reported(self):
        piece = banana_piece()
        del piece.dehn[1]
        report = validate_piece(piece)
        assert any("total" in c.name for c in report.failures)


class TestPropagation:
    def test_banana_seed_plus(self):
        signs = propagate_orientations(banana_piece(), (0, 1))
        assert signs == {0: 1, 1: -1}
        # exhaustive oracle: the only assignments with anti-aligned
        # edge endpoints extending the seed
        graph = banana_piece().spine.graph
        valid = [
            a for a in all_sign_assignments(2)
            if a[0] == 1 and all(
                a[graph.vertex_of[x]] == -a[graph.vertex_of[y]]
                for x, y in graph.edges)
        ]
        assert valid == [signs]

    def test_seed_minus_is_global_negation(self):
        plus = propagate_orientations(banana_piece(), (0, 1))
        minus = propagate_orientations(banana_piece(), (0, -1))
        assert minus == {v: -s for v, s in plus.items()}

    def test_seed_vertex_independence(self):
        piece = banana_piece()
        pair_from_0 = {frozenset(propagate_orientations(piece, (0, s)).items())
                       for s in (1, -1)}
        pair_from_1 = {frozenset(propagate_orientations(piece, (1, s)).items())
                       for s in (1, -1)}
        assert pair_from_0 == pair_from_1

    def test_loop_edge_is_inconsistent(self):
        graph = FatGraph([[1, 2]], [[1, 2]])
        piece = unsurgered_piece("L", Spine(graph, {0: EXIT, 1: ENTRANCE}))
        with pytest.raises(OrientationConflictError) as err:
            propagate_orientations(piece, (0, 1))
        assert err.value.cycle == [0]

    def test_odd_cycle_named(self):
        # triangle of three vertices
        graph = FatGraph([[1, 6], [2, 3], [4, 5]], [[1, 2], [3, 4], [5, 6]])
        colors = {i: ENTRANCE for i in range(len(graph.boundary_cycles()))}
        piece = unsurgered_piece("T", Spine(graph, colors))
        with pytest.raises(OrientationConflictError) as err:
            propagate_orientations(piece, (0, 1))
        cycle = err.value.cycle
        assert len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle)

    def test_loop_outside_seed_component_is_inconsistent(self):
        # loop-edge scan precedes the search: the seed never reaches vertex 2
        graph = FatGraph([[1, 3], [2, 4], [5, 6]], [[1, 2], [3, 4], [5, 6]])
        piece = unsurgered_piece("L", Spine(graph, {}))
        with pytest.raises(OrientationConflictError) as err:
            propagate_orientations(piece, (0, 1))
        assert err.value.cycle == [2]

    def test_odd_cycle_outside_seed_component_reports_disconnection(self):
        # a double edge between vertices 0 and 1, then a triangle 2, 3, 4
        graph = FatGraph([[1, 3], [2, 4], [5, 10], [6, 7], [8, 9]],
                         [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]])
        piece = unsurgered_piece("D", Spine(graph, {}))
        with pytest.raises(InputError, match="disconnected"):
            propagate_orientations(piece, (0, 1))
        with pytest.raises(OrientationConflictError):
            propagate_orientations(piece, (2, 1))

    def test_bad_seed_is_input_error(self):
        with pytest.raises(InputError):
            propagate_orientations(banana_piece(), (9, 1))
        with pytest.raises(InputError):
            propagate_orientations(banana_piece(), (0, 2))

    @pytest.mark.parametrize("seed", [(False, 1), (0, True), (True, -1),
                                      (0, 1.0), (0.0, 1)])
    def test_seed_not_exactly_int_is_input_error(self, seed):
        with pytest.raises(InputError):
            propagate_orientations(banana_piece(), seed)


def reference_neighbors(graph: FatGraph) -> dict[int, list[int]]:
    """Vertex adjacency lists, one entry per edge end in edge order."""
    neighbors: dict[int, list[int]] = {v: [] for v in range(graph.vertex_count)}
    for a, b in graph.edges:
        va, vb = graph.vertex_of[a], graph.vertex_of[b]
        neighbors[va].append(vb)
        neighbors[vb].append(va)
    return neighbors


def reference_propagate(piece: ModelPiece, seed) -> dict[int, int]:
    """Propagation by a 2-coloring rooted at the seed vertex, on an
    adjacency built for the call: the reference for the one cached
    coloring that ``propagate_orientations`` reads."""
    graph = piece.spine.graph
    seed_vertex, seed_sign = seed
    if seed_vertex not in range(graph.vertex_count):
        raise InputError(f"seed vertex {quote(seed_vertex)} not in piece "
                         f"{piece.piece_id!r}")
    if seed_sign not in (1, -1):
        raise InputError(f"seed sign must be +-1, got {quote(seed_sign)}")

    for a, b in graph.edges:
        va = graph.vertex_of[a]
        if va == graph.vertex_of[b]:
            raise OrientationConflictError(
                f"loop edge at vertex {va} in piece {piece.piece_id!r}: "
                "a vertical orbit cannot be anti-aligned with itself", [va])

    sides, odd_cycle = two_color(seed_vertex, reference_neighbors(graph))
    if odd_cycle is not None:
        raise OrientationConflictError(
            f"odd cycle in piece {piece.piece_id!r}", odd_cycle)
    signs = {v: -seed_sign if side else seed_sign for v, side in sides.items()}
    if len(signs) != graph.vertex_count:
        raise InputError(
            f"piece {piece.piece_id!r} is disconnected; orientation cannot reach "
            f"vertices {sorted(set(range(graph.vertex_count)) - set(signs))}")
    return signs


def reference_is_bipartite(graph: FatGraph) -> bool:
    neighbors = reference_neighbors(graph)
    covered: set[int] = set()
    for root in range(graph.vertex_count):
        if root in covered:
            continue
        sides, odd_cycle = two_color(root, neighbors)
        if odd_cycle is not None:
            return False
        covered.update(sides)
    return True


def all_rotation_systems(max_edges: int) -> Iterator[FatGraph]:
    """Every rotation system on the darts 1..2E, E <= ``max_edges``,
    under the pairing (1 2)(3 4)... and under (1 E+1)(2 E+2)...; for
    E = 1 the two pairings are one."""
    for e in range(1, max_edges + 1):
        darts = range(1, 2 * e + 1)
        pairings = [[[d, d + 1] for d in range(1, 2 * e, 2)]]
        if e > 1:
            pairings.append([[d, d + e] for d in range(1, e + 1)])
        for images in itertools.permutations(darts):
            image = dict(zip(darts, images))
            cycles, seen = [], set()
            for d in darts:
                if d not in seen:
                    cycle = [d]
                    while image[cycle[-1]] != d:
                        cycle.append(image[cycle[-1]])
                    seen.update(cycle)
                    cycles.append(cycle)
            for pairs in pairings:
                yield FatGraph(cycles, pairs)


def outcome(propagate, piece, seed):
    try:
        return propagate(piece, seed), None
    except (InputError, OrientationConflictError) as err:
        return type(err), err


class TestPropagationAgainstReference:
    """The signs, errors and odd cycles read off the cached coloring
    match a 2-coloring rooted at each seed, on every small rotation
    system and on the census spines."""

    @staticmethod
    def assert_same(graph: FatGraph) -> int:
        """Compare, and count the answers compared."""
        assert is_bipartite(graph) == reference_is_bipartite(graph)
        piece = unsurgered_piece("P", Spine(graph, {}))
        neighbors = reference_neighbors(graph)
        checked = 1  # the is_bipartite answer
        assert graph.loop_vertex == next(
            (graph.vertex_of[a] for a, b in graph.edges
             if graph.vertex_of[a] == graph.vertex_of[b]), None)
        for v, sign in itertools.product(range(graph.vertex_count), (1, -1)):
            got, got_err = outcome(propagate_orientations, piece, (v, sign))
            want, want_err = outcome(reference_propagate, piece, (v, sign))
            assert got == want
            checked += 1
            if want_err is None:
                continue
            assert str(got_err) == str(want_err)
            if want is not OrientationConflictError:
                continue
            cycle = got_err.cycle
            assert len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle)
            assert all(b in neighbors[a]
                       for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            component = reachable(v, neighbors)
            if str(want_err).startswith("loop edge") or v == min(component):
                assert cycle == want_err.cycle
            else:
                assert set(cycle) <= component
        return checked

    def test_every_small_rotation_system(self):
        graphs = list(all_rotation_systems(3))
        assert len(graphs) == 1490
        assert sum(map(self.assert_same, graphs)) == 8752

    def test_census_spines(self):
        for spine in spine_census(6):
            self.assert_same(spine.graph)


class TestOrientationClasses:
    def test_single_piece_gives_two(self, banana_spec):
        count, reps = orientation_classes(banana_spec)
        assert count == 2
        assert len(reps) == 2
        assert reps[1].signs == {k: -s for k, s in reps[0].signs.items()}

    def test_two_pieces_give_four(self, necklace_spec):
        count, reps = orientation_classes(necklace_spec)
        assert count == 4
        for a, b in itertools.combinations(reps, 2):
            assert any(a.signs[key] != b.signs[key] for key in a.signs)

    def test_empty_spec_gives_one(self):
        spec = ModelFlowSpec((), (), (), {})
        count, reps = orientation_classes(spec)
        assert count == 1
        assert reps[0].signs == {}

    def test_first_representative_is_seeded(self, banana_spec):
        _, reps = orientation_classes(banana_spec)
        assert reps[0].signs == seed_orientation(banana_spec).signs

    def test_piece_cap_raises_before_any_check(self, banana_spec, monkeypatch):
        assert model.MAX_ORIENTATION_PIECES == 16
        chain = banana_chain(banana_spec, [2] * 34)
        assert len(chain.pieces) == 17

        def unreachable(*args):
            raise AssertionError("check_spec ran above the piece cap")

        monkeypatch.setattr(model, "check_spec", unreachable)
        with pytest.raises(CapacityError, match="at most 16 pieces, got 17"):
            orientation_classes(chain)


class TestValidateSpec:
    def test_banana_fixture_passes(self, banana_spec):
        assert validate_spec(banana_spec).passed

    def test_upper_triangular_matrix_fails(self, banana_spec):
        spec = ModelFlowSpec(banana_spec.pieces, banana_spec.pairing,
                             (GluingMatrix(1, 5, 0, 1), banana_spec.matrices[1]),
                             dict(banana_spec.orientation_seed))
        report = validate_spec(spec)
        assert not report.passed
        assert any("matrix 0" in c.name and "triangular" in c.detail
                   for c in report.failures)

    def test_non_unimodular_matrix_fails(self, banana_spec):
        spec = ModelFlowSpec(banana_spec.pieces, banana_spec.pairing,
                             (GluingMatrix(2, 2, 1, 1), banana_spec.matrices[1]),
                             dict(banana_spec.orientation_seed))
        report = validate_spec(spec)
        assert any("matrix 0" in c.name and "det" in c.detail
                   for c in report.failures)

    def test_pairing_must_cover_exits_and_entrances(self, banana_spec):
        spec = ModelFlowSpec(banana_spec.pieces,
                             ((("P", 2), ("P", 1)), (("P", 2), ("P", 3))),
                             banana_spec.matrices,
                             dict(banana_spec.orientation_seed))
        report = validate_spec(spec)
        assert any("pairing sources" in c.name for c in report.failures)

    def test_missing_seed_fails(self, banana_spec):
        spec = ModelFlowSpec(banana_spec.pieces, banana_spec.pairing,
                             banana_spec.matrices, {})
        report = validate_spec(spec)
        assert any("orientation" in c.name for c in report.failures)

    @pytest.mark.parametrize("seed", [(False, True), (0, True), (False, 1)])
    def test_boolean_seed_fails(self, banana_spec, seed):
        spec = ModelFlowSpec(banana_spec.pieces, banana_spec.pairing,
                             banana_spec.matrices, {"P": seed})
        [failure] = validate_spec(spec).failures
        assert failure.name == "orientation of piece P"
        with pytest.raises(InputError, match="orientation of piece P"):
            model.check_spec(spec)

    def test_relabeling_invariance(self, banana_spec):
        # rename the piece and every dart; acceptance is unchanged
        piece = banana_spec.pieces[0]
        mapping = {d: d + 20 for d in piece.spine.graph.darts}
        relabeled = ModelPiece("Q", piece.spine.relabeled(mapping),
                               dict(piece.dehn))
        spec = ModelFlowSpec(
            (relabeled,),
            tuple((("Q", src[1]), ("Q", dst[1]))
                  for src, dst in banana_spec.pairing),
            banana_spec.matrices,
            {"Q": banana_spec.orientation_seed["P"]},
        )
        assert validate_spec(spec).passed == validate_spec(banana_spec).passed

    def test_census_specs_all_valid(self, census_specs):
        for spec in census_specs:
            assert validate_spec(spec).passed

    def test_anti_alignment_on_census(self, census_specs):
        for spec in census_specs:
            orientation = seed_orientation(spec)
            for piece in spec.pieces:
                graph = piece.spine.graph
                for a, b in graph.edges:
                    sa = orientation.sign(piece.piece_id, graph.vertex_of[a])
                    sb = orientation.sign(piece.piece_id, graph.vertex_of[b])
                    assert sa * sb == -1


class TestOneRuleWalk:
    """``check_spec`` decides validity on the rule walk without a
    report: on a valid specification it adds no check and quotes or
    shortens nothing, and an invalid one is walked with a report once."""

    @staticmethod
    def specs(banana_spec, necklace_spec):
        return [banana_spec, necklace_spec] + [
            banana_chain(banana_spec, [2] * (2 * k)) for k in (2, 4, 6)]

    @staticmethod
    def count(monkeypatch, owner, name, calls):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    def test_valid_spec_makes_no_report_text(self, banana_spec, necklace_spec,
                                             monkeypatch):
        specs = self.specs(banana_spec, necklace_spec)
        for spec in specs:
            for piece in spec.pieces:
                # cached per spine, and built as a report by validate_spine
                piece.spine.conditions
        calls = []
        self.count(monkeypatch, ValidationReport, "add", calls)
        self.count(monkeypatch, model, "quote", calls)
        self.count(monkeypatch, model, "shorten", calls)
        for spec in specs:
            assert model.check_spec(spec).signs
        assert calls == []
        validate_spec(banana_spec)
        assert {"add", "quote", "shorten"} <= set(calls)

    def test_shared_spine_tested_once(self, banana_spec, monkeypatch):
        """A chain whose pieces share one spine reads its conditions
        once per ``check_spec``; the Dehn coefficients stay per piece,
        so a bad one on the last piece still fails."""
        k = 6
        chain = banana_chain(banana_spec, [2] * (2 * k))
        reads = []
        real = Spine.conditions

        def counting(spine):
            reads.append(spine)
            return real.fget(spine)
        monkeypatch.setattr(Spine, "conditions", property(counting))
        assert model.check_spec(chain).signs
        assert reads == [chain.pieces[0].spine]
        last = chain.pieces[-1]
        bad = ModelFlowSpec(
            chain.pieces[:-1] + (ModelPiece(last.piece_id, last.spine,
                                            {0: DehnCoefficient(0, 0),
                                             1: last.dehn[1]}),),
            chain.pairing, chain.matrices, chain.orientation_seed)
        assert model._rules(bad) is None

    def test_invalid_spec_reports_once(self, banana_spec, monkeypatch):
        spec = ModelFlowSpec(banana_spec.pieces, banana_spec.pairing,
                             (GluingMatrix(0, 2, 2, 0),) + banana_spec.matrices[1:],
                             {"P": (0, 0)})
        calls = []
        self.count(monkeypatch, model, "validate_spec", calls)
        with pytest.raises(InputError, match=r"^specification is invalid "
                           r"\(matrix 0, orientation of piece P\)$"):
            model.check_spec(spec)
        assert calls == ["validate_spec"]


LONG_ID = "P" * 50_000


def long_id_errors(banana_spec):
    """Each library call that names a piece id in its message, made on
    the banana fixture with its piece renamed to ``piece_id``."""
    def rename(piece_id):
        piece = banana_spec.pieces[0]
        return ModelFlowSpec(
            (ModelPiece(piece_id, piece.spine, dict(piece.dehn)),),
            tuple(((piece_id, src[1]), (piece_id, dst[1]))
                  for src, dst in banana_spec.pairing),
            banana_spec.matrices, {piece_id: (0, 1)})

    def unseeded(piece_id):
        spec = rename(piece_id)
        seed_orientation(ModelFlowSpec(spec.pieces, spec.pairing,
                                       spec.matrices, {}))

    def witness(piece_id, darts):
        spec = rename(piece_id)
        verify_witness(spec, spec, EquivalenceWitness(
            {piece_id: piece_id}, {piece_id: darts}))

    return {
        "seed_orientation": unseeded,
        "piece": lambda piece_id: rename("Q").piece(piece_id),
        "negate_seed": lambda piece_id: negate_seed(rename("Q"), piece_id),
        "dart map domain": lambda piece_id: witness(piece_id, {}),
        "dart map image": lambda piece_id: witness(
            piece_id, {d: 1 for d in range(1, 9)}),
    }


@pytest.mark.parametrize("call", ["seed_orientation", "piece", "negate_seed",
                                  "dart map domain", "dart map image"])
def test_long_piece_ids_are_quoted_short(banana_spec, call):
    """A huge piece id is cut by ``quote`` in the message; a short one
    reads as its ``repr``."""
    make = long_id_errors(banana_spec)[call]
    with pytest.raises(InputError) as long_err:
        make(LONG_ID)
    assert len(str(long_err.value)) < 200
    assert "..." in str(long_err.value)
    with pytest.raises(InputError, match=" piece 'R'( |$)"):
        make("R")


def test_piece_is_found_by_id(banana_spec):
    assert banana_spec.piece("P") is banana_spec.pieces[0]


class TestSerialization:
    def test_fixture_round_trip(self, banana_spec):
        assert spec_from_json(spec_to_json(banana_spec)) == banana_spec

    def test_census_round_trip(self, census_specs):
        for spec in census_specs:
            assert spec_from_json(spec_to_json(spec)) == spec

    def test_bad_torus_label(self, banana_spec):
        payload = spec_to_json(banana_spec)
        payload["pairing"][0][0] = "nonsense"
        with pytest.raises(InputError):
            spec_from_json(payload)

    def test_missing_matrix(self, banana_spec):
        payload = spec_to_json(banana_spec)
        del payload["matrices"]["1"]
        with pytest.raises(InputError) as err:
            spec_from_json(payload)
        assert "/matrices/1" in str(err.value)

    def test_equal_spines_are_shared(self, necklace_spec):
        first, second = necklace_spec.pieces
        assert first.spine is second.spine
        # the same map, its rotation cycles listed in another order and
        # each written from another dart
        payload = spec_to_json(necklace_spec)
        rotation = payload["pieces"][1]["spine"]["rotation"]
        rotation[:] = [cycle[1:] + cycle[:1] for cycle in reversed(rotation)]
        spec = spec_from_json(payload)
        assert spec.pieces[0].spine is spec.pieces[1].spine

    def test_spines_differing_in_colors_are_not_shared(self, necklace_spec):
        payload = spec_to_json(necklace_spec)
        colors = payload["pieces"][1]["spine"]["colors"]
        for key, color in colors.items():
            colors[key] = EXIT if color == ENTRANCE else ENTRANCE
        first, second = spec_from_json(payload).pieces
        assert first.spine is not second.spine
        assert first.spine.graph == second.spine.graph
        assert first.spine.colors != second.spine.colors

    def test_repeated_spine_text_is_built_once(self, banana_spec, monkeypatch):
        """k pieces that repeat one spine's JSON build one fat graph and
        one ``Spine``."""
        built = []
        init = FatGraph.__init__

        def counting(graph, *args):
            built.append(graph)
            init(graph, *args)

        monkeypatch.setattr(FatGraph, "__init__", counting)
        payload = spec_to_json(banana_chain(banana_spec, [2] * 12))
        built.clear()
        spec = spec_from_json(payload)
        assert len(built) == 1
        assert len({id(piece.spine) for piece in spec.pieces}) == 1

    @pytest.mark.parametrize("member, value, problem", [
        ("edges", [[1, "2"], [3, 4], [5, 6], [7, 8]], "edges/0/1: expected an integer"),
        ("edges", [[1, 2], [3, 4], [5, 6], [7, 7]], "edges: edge pair (7, 7)"),
        ("rotation", [[1, 3, 5, 7], [8, 6, 4, 2, 1]], "rotation: rotation cycles"),
        ("colors", {"0": "EXIT", "1": "ENTRANCE"}, "colors: coloring must assign"),
        ("colors", {"0": "EXIT", "1": "ENTRANCE", "2": "EXIT", "03": "ENTRANCE"},
         "colors/03: expected a non-negative integer"),
    ])
    def test_a_later_malformed_spine_raises_at_its_own_pointer(
            self, banana_spec, member, value, problem):
        payload = spec_to_json(banana_chain(banana_spec, [2] * 8))
        payload["pieces"][2]["spine"][member] = value
        with pytest.raises(InputError) as err:
            spec_from_json(payload, "spec.json")
        assert str(err.value).startswith(f"spec.json/pieces/2/spine/{problem}")
