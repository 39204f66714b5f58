import itertools
import math

import pytest

from spineflow import (ENTRANCE, EXIT, DehnCoefficient, FatGraph, GluingMatrix,
                       InputError, ModelFlowSpec, ModelPiece,
                       OrientationConflictError, Spine, orientation_classes,
                       propagate_orientations, seed_orientation, spec_from_json,
                       spec_to_json, unsurgered_piece, validate_piece,
                       validate_spec)


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
