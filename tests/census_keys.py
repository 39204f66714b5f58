"""The specifications of the census before deduplication and their
EXACT key, shared by the census and equivalence tests."""

import itertools

import spineflow.equivalence as equivalence
from spineflow import ModelFlowSpec, census_pieces, unsurgered_piece
from spineflow.census import STANDARD_GLUING
from spineflow.errors import CapacityError
from spineflow.model import CheckedSpec, check_spec
from spineflow.walks import reachable


def _candidates(max_pieces: int, max_edges: int) -> list[CheckedSpec]:
    """The specifications of ``spec_census`` before deduplication: over
    each census piece, then over each unordered pair of them, one per
    pooled exit -> entrance bijection whose pairs join the pieces, each
    checked once."""
    if not 1 <= max_pieces <= 2:
        raise CapacityError(f"max_pieces must be 1 or 2, got {max_pieces}")
    spines = census_pieces(max_edges)
    tuples = [(s,) for s in spines]
    if max_pieces >= 2:
        tuples += [(a, b) for i, a in enumerate(spines)
                   for b in spines[i:]]
    found = []
    for spine_tuple in tuples:
        pieces = tuple(unsurgered_piece(f"P{i}", spine)
                       for i, spine in enumerate(spine_tuple))
        exits = [t for piece in pieces for t in piece.exits()]
        entrances = [t for piece in pieces for t in piece.entrances()]
        if len(exits) != len(entrances) or not exits:
            continue
        for image in itertools.permutations(entrances):
            pairing = tuple(zip(exits, image))
            links = {piece.piece_id: [] for piece in pieces}
            for (src, _), (dst, _) in pairing:
                links[src].append(dst)
                links[dst].append(src)
            if len(reachable("P0", links)) < len(pieces):
                continue  # a disconnected manifold
            found.append(check_spec(ModelFlowSpec(
                pieces=pieces,
                pairing=pairing,
                matrices=tuple(STANDARD_GLUING for _ in pairing),
                orientation_seed={piece.piece_id: (0, 1) for piece in pieces},
            )))
    return found


def _exact_key(checked: CheckedSpec) -> tuple:
    """Canonical key of a checked specification under EXACT equivalence
    without reflection: two keys are equal exactly when ``_search(c1,
    c2, EXACT, False)`` finds a witness.  It is the piece half of
    ``_piece_labelings`` and the pair half of ``_least_pairs``."""
    piece_keys, labelings = equivalence._piece_labelings(checked)
    return piece_keys, equivalence._least_pairs(
        labelings, checked.spec.pairing, checked.spec.matrices)
