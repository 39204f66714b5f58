import hashlib
import json

import pytest

import spineflow.census as census
import spineflow.equivalence as equivalence
from census_keys import _candidates, _exact_key
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
#: SHA-256 of the JSON list (keys in format order) of ``spec_census(2, 6)``,
#: recorded when the census still compared candidates pairwise
SPEC_CENSUS_2_6 = "43a19825359e1f527f7e249c0792e713b7249953645baad59fcdbf2a9479d2f3"


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
    def test_all_valid_and_pairwise_inequivalent(self, census_specs):
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

    def test_each_piece_tuple_validated_once(self, monkeypatch):
        validated = []
        original = census.check_spec

        def counting(spec, *args):
            validated.append(json.dumps(spec_to_json(spec), sort_keys=True))
            return original(spec, *args)

        monkeypatch.setattr(census, "check_spec", counting)
        for max_edges, tuples in ((4, 3), (6, 83)):
            validated.clear()
            spec_census(max_pieces=2, max_edges=max_edges)
            assert len(validated) == tuples
            assert len(set(validated)) == tuples

    @pytest.mark.parametrize("max_pieces, max_edges",
                             [(1, 4), (1, 6), (2, 4), (2, 6)])
    def test_matches_per_candidate_reference(self, max_pieces, max_edges):
        """The first candidate of each ``_exact_key``, every candidate
        validated on its own, in raw order."""
        reference: dict[tuple, ModelFlowSpec] = {}
        for checked in _candidates(max_pieces, max_edges):
            reference.setdefault(_exact_key(checked), checked.spec)
        assert spec_census(max_pieces, max_edges) == list(reference.values())

    def test_dedup_runs_no_search(self, monkeypatch):
        calls = []
        real = equivalence._search

        def counting(*args):
            calls.append(args)
            return real(*args)

        for module in (equivalence, census):
            monkeypatch.setattr(module, "_search", counting, raising=False)
        assert len(spec_census(max_pieces=2, max_edges=4)) == 9
        assert calls == []

    def test_six_edge_pieces(self):
        kept = spec_census(max_pieces=2, max_edges=6)
        assert len(kept) == 928
        text = json.dumps([spec_to_json(s) for s in kept])
        assert hashlib.sha256(text.encode()).hexdigest() == SPEC_CENSUS_2_6

    def test_piece_cap(self):
        with pytest.raises(CapacityError):
            spec_census(max_pieces=3, max_edges=4)

    def test_piece_cap_is_not_a_bool(self):
        with pytest.raises(CapacityError, match="max_pieces must be 1 or 2, got True"):
            spec_census(True, 4)

    def test_edge_cap_is_an_int(self):
        with pytest.raises(CapacityError,
                           match="max_edges must be between 1 and 9, got 4.5"):
            spec_census(2, 4.5)


class TestOrientationRigidity:
    """The genus-one banana documents why the rigidity filter exists:
    its class swap fixes both boundary circles, so reversing the orbit
    directions is witnessed by a machine-checkable equivalence no
    matter how the piece is glued."""

    def test_genus_one_banana_is_not_rigid(self):
        spine = genus_one_banana()
        assert not spine_is_orientation_rigid(spine)
        assert spine not in census_pieces(4)

    def test_non_bipartite_spine_is_rigid(self):
        # one vertex with a loop: its odd cycle leaves no two sides to swap
        spine = Spine(FatGraph([[1, 2]], [[1, 2]]), {0: ENTRANCE, 1: EXIT})
        assert not is_bipartite(spine.graph)
        assert spine_is_orientation_rigid(spine)

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
