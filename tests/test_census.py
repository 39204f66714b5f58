import hashlib
import json

import pytest

import spineflow.model as model
from spineflow import (ENTRANCE, EXIT, EquivalenceMode, FatGraph, GluingMatrix,
                       ModelFlowSpec, Spine, census_pieces, is_bipartite,
                       negate_seed, spec_census, spec_equivalent, spec_to_json,
                       spine_is_orientation_rigid, surface_invariants,
                       unsurgered_piece, validate_spec, verify_witness)
from spineflow.errors import CapacityError

#: SHA-256 of the sorted-key JSON list of ``spec_census(2, 4)``, recorded
#: before the census compared checked specifications (the ``bases`` key
#: of that time, all [1, 1], left out)
SPEC_CENSUS_2_4 = "94f4b15d87d86eb1c0c57afe1500ba60a6d4bb75d068ace3dc40ac5153165993"


def genus_one_banana() -> Spine:
    # four parallel edges with equal rotations at both ends: genus one,
    # one entrance and one exit circle
    graph = FatGraph([[1, 3, 5, 7], [2, 4, 6, 8]],
                     [[1, 2], [3, 4], [5, 6], [7, 8]])
    return Spine(graph, {0: ENTRANCE, 1: EXIT})


class TestCensusPieces:
    def test_pieces_are_bipartite_hyperbolic_and_rigid(self):
        pieces = census_pieces(4)
        assert pieces
        for spine in pieces:
            assert is_bipartite(spine.graph)
            assert surface_invariants(spine.graph).euler_characteristic < 0
            assert spine_is_orientation_rigid(spine)

    def test_banana_family_present(self):
        assert any(s.graph.vertex_count == 2 and s.graph.edge_count == 4
                   for s in census_pieces(4))


class TestSpecCensus:
    def test_all_valid_and_deduped(self, census_specs):
        for spec in census_specs:
            assert validate_spec(spec).passed
        for i, a in enumerate(census_specs):
            for b in census_specs[i + 1:]:
                assert spec_equivalent(a, b, EquivalenceMode.EXACT) is None

    def test_deterministic(self, census_specs):
        again = spec_census(max_pieces=2, max_edges=4)
        assert len(again) == len(census_specs)
        for a, b in zip(again, census_specs):
            assert a == b

    def test_digest(self, census_specs):
        text = json.dumps([spec_to_json(s) for s in census_specs],
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == SPEC_CENSUS_2_4

    def test_each_candidate_validated_once(self, monkeypatch):
        validated = []
        original = model.validate_spec

        def counting(spec):
            validated.append(spec)
            return original(spec)

        monkeypatch.setattr(model, "validate_spec", counting)
        kept = spec_census(max_pieces=2, max_edges=4)
        assert len(kept) == 9
        assert len(validated) == 32
        assert len({id(spec) for spec in validated}) == len(validated)

    def test_piece_cap(self):
        with pytest.raises(CapacityError):
            spec_census(max_pieces=3, max_edges=4)


class TestOrientationRigidity:
    """The genus-one banana documents why the rigidity filter exists:
    its class swap fixes both boundary circles, so reversing the orbit
    directions is witnessed by a machine-checkable equivalence no
    matter how the piece is glued."""

    def test_genus_one_banana_is_not_rigid(self):
        spine = genus_one_banana()
        assert not spine_is_orientation_rigid(spine)
        assert spine not in census_pieces(4)

    def test_reversal_witnessed_on_the_symmetric_piece(self):
        spec = ModelFlowSpec(
            (unsurgered_piece("P", genus_one_banana()),),
            ((("P", 1), ("P", 0)),),
            (GluingMatrix(0, 1, 1, 0),),
            {"P": (0, 1)},
        )
        assert validate_spec(spec).passed
        negated = negate_seed(spec, "P")
        for mode in EquivalenceMode:
            witness = spec_equivalent(spec, negated, mode)
            assert witness is not None
            assert verify_witness(spec, negated, witness, mode)
