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

from .equivalence import EquivalenceMode, _search
from .errors import CapacityError, InputError, OrientationConflictError
from .fatgraph import (Spine, enumerate_spines, is_bipartite,
                       iter_isomorphisms, surface_invariants)
from .model import (CheckedSpec, GluingMatrix, ModelFlowSpec, check_spec,
                    propagate_orientations, unsurgered_piece)
from .walks import reachable

STANDARD_GLUING = GluingMatrix(0, 1, 1, 0)


def spine_census(max_edges: int) -> list[Spine]:
    return list(enumerate_spines(max_edges))


def spine_is_orientation_rigid(spine: Spine) -> bool:
    """False when some color-preserving automorphism swaps the two
    sides of the vertex bipartition while fixing every boundary cycle.

    Such an automorphism reverses every orbit direction and induces the
    identity on the boundary tori, so it is compatible with every
    pairing: no specification built on the spine can distinguish the
    two orientation choices.
    """
    piece = unsurgered_piece("X", spine)
    try:
        signs = propagate_orientations(piece, (0, 1))
    except OrientationConflictError:
        return True
    graph = spine.graph
    face_of = graph.face_of()
    for sigma in iter_isomorphisms(spine, spine):
        if not all(signs[graph.vertex_of[sigma[cycle[0]]]] == -signs[v]
                   for v, cycle in enumerate(graph.vertices)):
            continue
        if all(face_of[sigma[d]] == face_of[d] for d in graph.darts):
            return False
    return True


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


def _specs_for(spines: list[Spine]) -> list[CheckedSpec]:
    """All valid, connected specifications over the given piece tuple,
    one per pooled exit -> entrance bijection, each checked once."""
    pieces = [unsurgered_piece(f"P{i}", spine)
              for i, spine in enumerate(spines)]
    exits = [t for piece in pieces for t in piece.exits()]
    entrances = [t for piece in pieces for t in piece.entrances()]
    if len(exits) != len(entrances) or not exits:
        return []
    specs = []
    for image in itertools.permutations(entrances):
        pairing = tuple(zip(exits, image))
        spec = ModelFlowSpec(
            pieces=tuple(pieces),
            pairing=pairing,
            matrices=tuple(STANDARD_GLUING for _ in pairing),
            orientation_seed={piece.piece_id: (0, 1) for piece in pieces},
        )
        try:
            checked = check_spec(spec)
        except InputError:
            continue
        if _weakly_connected(checked):
            specs.append(checked)
    return specs


def _weakly_connected(checked: CheckedSpec) -> bool:
    """The glued tori must hang together through the pieces: two are
    linked when one piece has boundary on both."""
    spec = checked.spec
    links: dict[int, set[int]] = {k: set() for k in range(len(spec.pairing))}
    for piece in spec.pieces:
        ks = {checked.pair_of[t] for t in piece.boundary_tori()}
        for k in ks:
            links[k] |= ks
    return len(reachable(0, links)) == len(spec.pairing)


def spec_census(max_pieces: int, max_edges: int,
                dedupe: bool = True) -> list[ModelFlowSpec]:
    """Model-flow specifications with up to ``max_pieces`` pieces drawn
    from the census spines with up to ``max_edges`` edges.

    With ``dedupe`` (the default) only one representative per EXACT
    equivalence class survives.
    """
    if not 1 <= max_pieces <= 2:
        raise CapacityError(f"max_pieces must be 1 or 2, got {max_pieces}")
    spines = census_pieces(max_edges)
    specs: list[CheckedSpec] = []
    tuples = [(s,) for s in spines]
    if max_pieces >= 2:
        tuples += [(a, b) for i, a in enumerate(spines)
                   for b in spines[i:]]
    for spine_tuple in tuples:
        specs.extend(_specs_for(list(spine_tuple)))
    if dedupe:
        kept: list[CheckedSpec] = []
        for checked in specs:
            if all(_search(checked, other, EquivalenceMode.EXACT, False) is None
                   for other in kept):
                kept.append(checked)
        specs = kept
    return [checked.spec for checked in specs]


def negate_seed(spec: ModelFlowSpec, piece_id: str) -> ModelFlowSpec:
    """Copy of the specification with one piece's seed sign reversed."""
    if piece_id not in spec.orientation_seed:
        raise InputError(f"unknown piece {piece_id!r}")
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
