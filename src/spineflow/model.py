"""Model pieces and full model-flow specifications.

A *piece* is a spine together with a Dehn filling coefficient at every
vertex (the coprime pair (p, q), with (1, 0) meaning no surgery).  A
*specification* glues pieces along their boundary tori: every EXIT
boundary cycle is paired with an ENTRANCE boundary cycle, each pair
carries a 2x2 integer gluing matrix written in the vertical/horizontal
bases of the two tori, and each piece carries a seed fixing the flow
direction of one vertical orbit.

Orientations propagate with a flip across every edge: the two boundary
orbits of a Birkhoff annulus are anti-aligned, so adjacent vertices get
opposite signs.  A spine whose vertex graph is not bipartite (in
particular one with a loop edge) admits no orientation assignment and
is rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import (InputError, Opt, OrientationConflictError, Table,
                     conform, pointer_token, quote, read_index, shorten)
from .fatgraph import ENTRANCE, EXIT, Spine, spine_from_json, spine_to_json
from .report import ValidationReport

#: boundary torus id: (piece id, boundary cycle index)
TorusId = tuple[str, int]


def torus_label(torus: TorusId) -> str:
    return f"{torus[0]}.c{torus[1]}"


def parse_torus_label(label: str, path: str = "") -> TorusId:
    head, sep, tail = label.rpartition(".c")
    if not sep:
        raise InputError(
            f"{path}: torus id {quote(label)} is not of the form PIECE.cN")
    return head, read_index(tail, path)


@dataclass(frozen=True)
class DehnCoefficient:
    """Filling slope p * meridian + q * fiber, meridian taken in the
    preferred section.  (1, 0) refills trivially (no surgery)."""

    p: int
    q: int

    def is_valid(self) -> bool:
        return (self.p, self.q) != (0, 0) and math.gcd(self.p, self.q) == 1


UNSURGERED = DehnCoefficient(1, 0)


#: the JSON shape of a gluing matrix (see ``errors.conform``)
MATRIX_SHAPE = ((int, int), (int, int))


@dataclass(frozen=True)
class GluingMatrix:
    """Rows [[a, b], [c, d]] in the (vertical, horizontal) bases of the
    source exit torus and the target entrance torus."""

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    @classmethod
    def from_rows(cls, rows, path: str = "") -> "GluingMatrix":
        conform(rows, MATRIX_SHAPE, path)
        (a, b), (c, d) = rows
        return cls(a, b, c, d)


@dataclass(frozen=True)
class ModelPiece:
    piece_id: str
    spine: Spine
    dehn: dict[int, DehnCoefficient]

    def vertices(self) -> range:
        return range(self.spine.graph.vertex_count)

    def exits(self) -> list[TorusId]:
        return [(self.piece_id, i) for i in self.spine.boundary_ids(EXIT)]

    def entrances(self) -> list[TorusId]:
        return [(self.piece_id, i) for i in self.spine.boundary_ids(ENTRANCE)]


def unsurgered_piece(piece_id: str, spine: Spine) -> ModelPiece:
    """Piece with the trivial (1, 0) coefficient at every vertex."""
    return ModelPiece(piece_id, spine,
                      {v: UNSURGERED for v in range(spine.graph.vertex_count)})


@dataclass
class ModelFlowSpec:
    """The full combinatorial datum of a model flow.

    ``pairing`` lists (exit torus, entrance torus) pairs; its index is
    the id of the glued torus.  ``matrices`` is aligned with it.
    ``orientation_seed`` maps each piece id to (vertex, sign).
    """

    pieces: tuple[ModelPiece, ...]
    pairing: tuple[tuple[TorusId, TorusId], ...]
    matrices: tuple[GluingMatrix, ...]
    orientation_seed: dict[str, tuple[int, int]]

    def __post_init__(self):
        self.pieces = tuple(self.pieces)
        self.pairing = tuple((tuple(src), tuple(dst)) for src, dst in self.pairing)
        self.matrices = tuple(self.matrices)

    def piece(self, piece_id: str) -> ModelPiece:
        for piece in self.pieces:
            if piece.piece_id == piece_id:
                return piece
        raise InputError(f"unknown piece {piece_id!r}")

    def piece_ids(self) -> list[str]:
        return [piece.piece_id for piece in self.pieces]


@dataclass(frozen=True)
class OrientationAssignment:
    """Direction of every vertical orbit relative to the fixed fiber
    orientation of its piece: (piece id, vertex) -> +-1."""

    signs: dict[tuple[str, int], int]

    def sign(self, piece_id: str, vertex: int) -> int:
        return self.signs[(piece_id, vertex)]

    def to_json(self) -> dict:
        out: dict[str, dict[str, int]] = {}
        for (pid, v), s in sorted(self.signs.items()):
            out.setdefault(pid, {})[str(v)] = s
        return out


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def validate_piece(piece: ModelPiece,
                   report: Optional[ValidationReport] = None
                   ) -> ValidationReport:
    """The spine's cached ``Spine.conditions`` plus one check per Dehn
    coefficient, added to ``report`` (a new one by default), which is
    returned."""
    if report is None:
        report = ValidationReport()
    spine = report.under("spine ")
    for check in piece.spine.conditions:
        spine.add(*check)
    missing, extra = _dehn_gaps(piece)
    report.add("dehn coefficients total", not missing and not extra,
               f"missing {missing}, unknown {extra}" if missing or extra else "")
    for v in sorted(set(piece.dehn) & set(piece.vertices())):
        coeff = piece.dehn[v]
        report.add(f"dehn coefficient at vertex {v}", coeff.is_valid(),
                   f"({coeff.p}, {coeff.q})")
    return report


def _dehn_gaps(piece: ModelPiece) -> tuple[list[int], list[int]]:
    """The vertices without a Dehn coefficient and the coefficient keys
    that are no vertex, each sorted: the coefficients are total when
    both are empty."""
    vertices = set(piece.vertices())
    return sorted(vertices - piece.dehn.keys()), sorted(piece.dehn.keys() - vertices)


def propagate_orientations(piece: ModelPiece,
                           seed: tuple[int, int]) -> dict[int, int]:
    """Propagation of the seed sign with a flip across every edge: the
    seed vertex's side of ``FatGraph.vertex_sides`` gets the seed sign.

    Returns the unique assignment extending the seed.  Errors come in a
    fixed order: a loop edge anywhere in the piece (the cached
    ``FatGraph.loop_vertex``) raises ``OrientationConflictError`` with
    the one-vertex cycle ``[v]``; an odd cycle in the seed's component
    raises it with the cycle that the coloring met there; a vertex the
    seed cannot reach raises ``InputError``.  Messages quote the piece
    id with ``quote``.
    """
    graph = piece.spine.graph
    seed_vertex, seed_sign = seed
    if seed_vertex not in range(graph.vertex_count):
        raise InputError(
            f"seed vertex {seed_vertex} not in piece {quote(piece.piece_id)}")
    if seed_sign not in (1, -1):
        raise InputError(f"seed sign must be +-1, got {seed_sign}")

    loop = graph.loop_vertex
    if loop is not None:
        raise OrientationConflictError(
            f"loop edge at vertex {loop} in piece {quote(piece.piece_id)}: "
            "a vertical orbit cannot be anti-aligned with itself", [loop])

    sides, odd_cycle = graph.vertex_sides[seed_vertex]
    if odd_cycle is not None:
        raise OrientationConflictError(
            f"odd cycle in piece {quote(piece.piece_id)}", odd_cycle)
    if len(sides) != graph.vertex_count:
        raise InputError(
            f"piece {quote(piece.piece_id)} is disconnected; orientation cannot "
            f"reach vertices {sorted(set(range(graph.vertex_count)) - set(sides))}")
    return {v: seed_sign if side == sides[seed_vertex] else -seed_sign
            for v, side in sides.items()}


def seed_orientation(spec: ModelFlowSpec) -> OrientationAssignment:
    """Assignment obtained by propagating every piece's recorded seed."""
    signs: dict[tuple[str, int], int] = {}
    for piece in spec.pieces:
        if piece.piece_id not in spec.orientation_seed:
            raise InputError(f"no orientation seed for piece {piece.piece_id!r}")
        seed = spec.orientation_seed[piece.piece_id]
        signs.update(((piece.piece_id, v), s) for v, s
                     in propagate_orientations(piece, seed).items())
    return OrientationAssignment(signs)


def orientation_classes(spec: ModelFlowSpec
                        ) -> tuple[int, list[OrientationAssignment]]:
    """The 2^k orientation classes, k the number of pieces.

    Representatives are produced by independently negating each piece's
    propagated assignment; pieces are taken in sorted id order with the
    unnegated choice first, so the list order is deterministic.  An
    invalid specification raises ``InputError``.
    """
    signs = check_spec(spec).signs
    ids = sorted(signs)
    reps = [OrientationAssignment({(pid, v): -s if flip else s
                                   for pid, flip in zip(ids, flips)
                                   for v, s in signs[pid].items()})
            for flips in itertools.product((False, True), repeat=len(ids))]
    return 2 ** len(ids), reps


# The rules of a valid specification, one helper each: ``validate_spec``
# itemizes them and ``check_spec`` reads only their verdicts.

def _ids_unique(spec: ModelFlowSpec) -> bool:
    return len({piece.piece_id for piece in spec.pieces}) == len(spec.pieces)


def _pairing_sides(spec: ModelFlowSpec) -> tuple[list, list, list, list]:
    """The pairing sources, the exit tori, the pairing targets and the
    entrance tori, each sorted: the pairing is an EXIT -> ENTRANCE
    bijection when the first two and the last two are equal."""
    return (sorted(src for src, _ in spec.pairing),
            sorted(t for piece in spec.pieces for t in piece.exits()),
            sorted(dst for _, dst in spec.pairing),
            sorted(t for piece in spec.pieces for t in piece.entrances()))


def _one_matrix_per_pair(spec: ModelFlowSpec) -> bool:
    return len(spec.matrices) == len(spec.pairing)


def _matrix_defect(matrix: GluingMatrix) -> str:
    """``"det"`` when |det| != 1, else ``"c"`` when c = 0 (the matrix
    maps fibers to fibers), else ``""``: a gluing matrix."""
    if abs(matrix.det) != 1:
        return "det"
    return "c" if matrix.c == 0 else ""


def _seed_signs(spec: ModelFlowSpec, piece: ModelPiece
                ) -> dict[int, int] | OrientationConflictError | InputError | None:
    """What the piece's orientation seed propagates to: its signs, the
    ``OrientationConflictError`` or ``InputError`` that stops it, or
    None when the piece has no seed."""
    seed = spec.orientation_seed.get(piece.piece_id)
    if seed is None:
        return None
    try:
        return propagate_orientations(piece, seed)
    except (OrientationConflictError, InputError) as err:
        return err


def validate_spec(spec: ModelFlowSpec) -> ValidationReport:
    """The itemized report: every piece valid, pairing a total EXIT ->
    ENTRANCE bijection, every matrix unimodular with nonzero lower-left
    entry, and every orientation seed propagating consistently.

    This is the one place that names checks and formats their details;
    ids and torus lists are cut by ``quote``.  ``check_spec`` decides
    the same verdict from the same rules without a report."""
    report = ValidationReport()
    report.add("piece ids unique", _ids_unique(spec), quote(spec.piece_ids()))
    for piece in spec.pieces:
        validate_piece(piece, report.under(f"piece {shorten(piece.piece_id)}: "))

    sources, exits, targets, entrances = _pairing_sides(spec)
    report.add("pairing sources are the exit tori", sources == exits,
               f"sources {quote(sources)} vs exits {quote(exits)}")
    report.add("pairing targets are the entrance tori", targets == entrances,
               f"targets {quote(targets)} vs entrances {quote(entrances)}")
    report.add("one matrix per glued torus", _one_matrix_per_pair(spec),
               f"{len(spec.matrices)} matrices, {len(spec.pairing)} pairs")
    for k, matrix in enumerate(spec.matrices):
        name = f"matrix {k}"
        defect = _matrix_defect(matrix)
        if defect == "det":
            report.add(name, False, f"|det| = {abs(matrix.det)} != 1")
        elif defect == "c":
            report.add(name, False, "upper triangular (c = 0): maps fibers to fibers")
        else:
            report.add(name, True, f"det {matrix.det}")

    for piece in spec.pieces:
        name = f"orientation of piece {shorten(piece.piece_id)}"
        signs = _seed_signs(spec, piece)
        if signs is None:
            report.add(name, False, "no seed")
        elif isinstance(signs, dict):
            report.add(name, True)
        else:
            report.add(name, False, str(signs))
    return report


@dataclass(frozen=True)
class CheckedSpec:
    """A specification that passed ``validate_spec``, with the tables
    its readers share: the propagated ``signs[piece id][vertex]`` and
    ``pair_of[boundary torus]``, the index of its pair.  Made by
    ``check_spec``; the specification must not change afterwards."""

    spec: ModelFlowSpec
    signs: dict[str, dict[int, int]]
    pair_of: dict[TorusId, int]


def _verdict(spec: ModelFlowSpec) -> Optional[dict[str, dict[int, int]]]:
    """The propagated signs of every piece when ``validate_spec(spec)``
    would pass, else None: the same rules in the same order, stopping
    at the first that fails.  Each seed propagates once."""
    if not _ids_unique(spec):
        return None
    for piece in spec.pieces:
        if not all(check.passed for check in piece.spine.conditions):
            return None
        if _dehn_gaps(piece) != ([], []):
            return None
        if not all(coeff.is_valid() for coeff in piece.dehn.values()):
            return None
    sources, exits, targets, entrances = _pairing_sides(spec)
    if sources != exits or targets != entrances:
        return None
    if not _one_matrix_per_pair(spec) or any(map(_matrix_defect, spec.matrices)):
        return None
    signs = {}
    for piece in spec.pieces:
        piece_signs = _seed_signs(spec, piece)
        if not isinstance(piece_signs, dict):
            return None
        signs[piece.piece_id] = piece_signs
    return signs


def check_spec(spec: ModelFlowSpec, name: str = "specification") -> CheckedSpec:
    """Decide validity and derive the shared tables, or raise
    ``InputError`` naming ``name`` and every failed check.

    The verdict reads each piece's cached ``Spine.conditions`` and the
    rules that ``validate_spec`` itemizes, with no report and no detail
    text, and propagates each seed once.  Only an invalid specification
    is passed to ``validate_spec``, which names the failed checks."""
    signs = _verdict(spec)
    if signs is None:
        names = ", ".join(c.name for c in validate_spec(spec).failures)
        raise InputError(f"{name} is invalid ({names})")
    return CheckedSpec(
        spec, signs,
        {torus: k for k, pair in enumerate(spec.pairing) for torus in pair})


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def spec_to_json(spec: ModelFlowSpec) -> dict:
    return {
        "pieces": [
            {
                "id": piece.piece_id,
                "spine": spine_to_json(piece.spine),
                "dehn": {str(v): [piece.dehn[v].p, piece.dehn[v].q]
                         for v in sorted(piece.dehn)},
            }
            for piece in spec.pieces
        ],
        "pairing": [[torus_label(src), torus_label(dst)]
                    for src, dst in spec.pairing],
        "matrices": {str(k): m.rows() for k, m in enumerate(spec.matrices)},
        "orientation_seed": {pid: [v, s] for pid, (v, s)
                             in sorted(spec.orientation_seed.items())},
    }


#: the JSON shape of a specification; each spine is left to
#: ``spine_from_json``
SPEC_SHAPE = {
    "pieces": [{"id": str, "spine": None,
                "dehn": Opt(Table(int, (int, int)))}],
    "pairing": [(str, str)],
    "matrices": Table(int, MATRIX_SHAPE),
    "orientation_seed": Table(str, (int, int)),
}


def spec_from_json(obj, path: str = "") -> ModelFlowSpec:
    conform(obj, SPEC_SHAPE, path)
    if "bases" in obj:
        raise InputError(f"{path}/bases: not part of the format; the "
                         "matrices are written in the torus bases")

    pieces = []
    # pieces with equal spines share one Spine, and so one set of walk
    # tables
    spines: dict[tuple, Spine] = {}
    for i, raw in enumerate(obj["pieces"]):
        spine = spine_from_json(raw["spine"], f"{path}/pieces/{i}/spine")
        spine = spines.setdefault((spine.graph.vertices, spine.graph.edges,
                                   tuple(sorted(spine.colors.items()))), spine)
        dehn = {int(key): DehnCoefficient(p, q)
                for key, (p, q) in raw.get("dehn", {}).items()}
        pieces.append(ModelPiece(raw["id"], spine, dehn))

    pairing = tuple(
        (parse_torus_label(src, f"{path}/pairing/{k}/0"),
         parse_torus_label(dst, f"{path}/pairing/{k}/1"))
        for k, (src, dst) in enumerate(obj["pairing"]))

    rows = obj["matrices"]
    for k in range(len(pairing)):
        if str(k) not in rows:
            raise InputError(f"{path}/matrices/{k}: missing")
    extra = sorted(set(rows) - {str(k) for k in range(len(pairing))})
    if extra:
        raise InputError(f"{path}/matrices/{pointer_token(extra[0])}: "
                         "no such pairing index")
    matrices = tuple(GluingMatrix(*rows[str(k)][0], *rows[str(k)][1])
                     for k in range(len(pairing)))

    piece_ids = {piece.piece_id for piece in pieces}
    for pid in obj["orientation_seed"]:
        if pid not in piece_ids:
            raise InputError(f"{path}/orientation_seed/{pointer_token(pid)}: "
                             "no piece with this id")
    seeds = {pid: tuple(seed) for pid, seed in obj["orientation_seed"].items()}

    return ModelFlowSpec(tuple(pieces), pairing, matrices, seeds)
