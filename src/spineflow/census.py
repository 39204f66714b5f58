"""Desk-scale censuses of spines and of small model-flow specifications.

The spine census is the exhaustive enumeration from
:func:`spineflow.fatgraph.enumerate_spines`.  The specification census
assembles validated specifications out of census spines:

* pieces must support a model flow: the spine conditions hold, the
  vertex graph is bipartite (orientations must propagate), and the
  base surface has negative Euler characteristic (a nonnegative one
  would make the piece a thickened torus, which can never be a piece
  of the decomposition the model glues along);
* pieces must be orientation-rigid: a spine with a color-preserving
  automorphism that exchanges the two bipartition classes while fixing
  every boundary cycle makes reversing its orbit directions
  undetectable under *every* gluing, because the induced map on
  boundary tori is the identity and therefore compatible with any
  pairing.  Such spines exist (the smallest has four parallel edges
  between two vertices with equal rotations, a genus-one surface) and
  are excluded; :func:`spine_is_orientation_rigid` exposes the
  distinction.  Class swaps that permute the boundary cycles, like the
  ones of the four-banana, stay in: a pairing can and here always does
  break them;
* every pooled exit/entrance bijection over one or two pieces is
  taken as a pairing, with the fiber-swapping matrix [[0, 1], [1, 0]]
  at every glued torus and the seed (least vertex, +1) per piece;
* specifications whose glued tori do not hang together (a disconnected
  manifold) are dropped, and the survivors are deduplicated up to
  EXACT equivalence.

All orderings are deterministic.
"""

from __future__ import annotations

import itertools

from .equivalence import _least_pairs, _piece_labelings
from .errors import CapacityError, InputError, quote
from .fatgraph import (Spine, enumerate_spines, is_bipartite,
                       iter_isomorphisms_tagged, surface_invariants)
from .model import GluingMatrix, ModelFlowSpec, check_spec, unsurgered_piece
from .walks import reachable

STANDARD_GLUING = GluingMatrix(0, 1, 1, 0)


def spine_census(max_edges: int) -> list[Spine]:
    return list(enumerate_spines(max_edges))


def spine_is_orientation_rigid(spine: Spine) -> bool:
    """False when some color-preserving automorphism swaps the two
    sides of ``FatGraph.vertex_sides`` while fixing every boundary
    cycle; True for a spine that is not bipartite.

    Such an automorphism reverses every orbit direction and induces the
    identity on the boundary tori, so it is compatible with every
    pairing: no specification built on the spine can distinguish the
    two orientation choices.
    """
    graph = spine.graph
    if not is_bipartite(graph):
        return True
    side = [sides[v] for v, (sides, _) in enumerate(graph.vertex_sides)]
    # the automorphisms that send each vertex to the other side
    swaps = iter_isomorphisms_tagged(spine, spine, False,
                                     (side, [1 - s for s in side]))
    return not any(all(f == g for f, g in faces.items())
                   for _, _, faces in swaps)


def census_pieces(max_edges: int) -> list[Spine]:
    """Census spines usable as pieces of a model specification."""
    out = []
    for spine in spine_census(max_edges):
        if not is_bipartite(spine.graph):
            continue
        if surface_invariants(spine.graph).euler_characteristic >= 0:
            continue
        if not spine_is_orientation_rigid(spine):
            continue
        out.append(spine)
    return out


def spec_census(max_pieces: int, max_edges: int) -> list[ModelFlowSpec]:
    """Model-flow specifications with up to ``max_pieces`` pieces drawn
    from the census spines with up to ``max_edges`` edges, one per
    EXACT equivalence class (without reflection).

    The candidates of one piece tuple differ only in their pairing, an
    exit -> entrance bijection with one matrix per pair, so the tuple
    is validated once, on the pairing of the i-th exit with the i-th
    entrance, and the pairing-free half of its canonical key
    (``equivalence._piece_labelings``) is taken once.  Each pairing
    whose pairs join the pieces then costs one ``_least_pairs``, and a
    specification is built only when its key is new, so each class
    keeps its first pairing in ``itertools.permutations`` order and no
    pairwise search runs.  ``spec_census(2, 6)`` validates 83 tuples
    and keeps 928 of 2,167 pairings in about 0.1 s.  ``max_pieces`` is
    the ``int`` 1 or 2 and ``max_edges`` a cap of ``enumerate_spines``;
    anything else raises ``CapacityError``.
    """
    if type(max_pieces) is not int or not 1 <= max_pieces <= 2:
        raise CapacityError(f"max_pieces must be 1 or 2, got {quote(max_pieces)}")
    spines = census_pieces(max_edges)
    tuples = [(s,) for s in spines]
    if max_pieces >= 2:
        tuples += [(a, b) for i, a in enumerate(spines)
                   for b in spines[i:]]
    kept: dict[tuple, ModelFlowSpec] = {}
    for spine_tuple in tuples:
        pieces = tuple(unsurgered_piece(f"P{i}", spine)
                       for i, spine in enumerate(spine_tuple))
        exits = [t for piece in pieces for t in piece.exits()]
        entrances = [t for piece in pieces for t in piece.entrances()]
        if len(exits) != len(entrances) or not exits:
            continue
        matrices = tuple(STANDARD_GLUING for _ in exits)
        seed = {piece.piece_id: (0, 1) for piece in pieces}
        piece_keys, labelings = _piece_labelings(check_spec(ModelFlowSpec(
            pieces, tuple(zip(exits, entrances)), matrices, seed)))
        for image in itertools.permutations(entrances):
            pairing = tuple(zip(exits, image))
            links = {piece.piece_id: [] for piece in pieces}
            for (src, _), (dst, _) in pairing:
                links[src].append(dst)
                links[dst].append(src)
            if len(reachable("P0", links)) < len(pieces):
                continue  # a disconnected manifold
            key = piece_keys, _least_pairs(labelings, pairing, matrices)
            if key not in kept:
                kept[key] = ModelFlowSpec(pieces, pairing, matrices, dict(seed))
    return list(kept.values())


def negate_seed(spec: ModelFlowSpec, piece_id: str) -> ModelFlowSpec:
    """Copy of the specification with one piece's seed sign reversed."""
    if piece_id not in spec.orientation_seed:
        raise InputError(f"unknown piece {quote(piece_id)}")
    vertex, sign = spec.orientation_seed[piece_id]
    seeds = {**spec.orientation_seed, piece_id: (vertex, -sign)}
    return ModelFlowSpec(spec.pieces, spec.pairing, spec.matrices, seeds)


__all__ = [
    "STANDARD_GLUING",
    "census_pieces",
    "negate_seed",
    "spec_census",
    "spine_census",
    "spine_is_orientation_rigid",
]
