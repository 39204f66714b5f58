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

from .errors import (CapacityError, InputError, Opt, OrientationConflictError,
                     Table, conform, pointer_token, quote, read_index, shorten)
from .fatgraph import (ENTRANCE, EXIT, SPINE_SHAPE, Spine, _spine_from_conformed,
                       spine_to_json)
from .report import ValidationReport

#: boundary torus id: (piece id, boundary cycle index)
TorusId = tuple[str, int]

#: most pieces whose 2^k orientation classes ``orientation_classes`` lists
MAX_ORIENTATION_PIECES = 16


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

    def is_valid(self) -> bool:
        """Unimodular, and does not map fibers to fibers."""
        return abs(self.det) == 1 and self.c != 0

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
        raise InputError(f"unknown piece {quote(piece_id)}")

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

def validate_piece(piece: ModelPiece) -> ValidationReport:
    """A new report of the piece part of the rule walk that
    ``validate_spec`` runs: the spine's cached ``Spine.conditions``
    under the prefix ``spine ``, then the Dehn coefficients total, then
    one check per coefficient."""
    report = ValidationReport()
    _piece_rules(piece, report)
    return report


def propagate_orientations(piece: ModelPiece,
                           seed: tuple[int, int]) -> dict[int, int]:
    """Propagation of the seed sign with a flip across every edge: the
    seed vertex's side of ``FatGraph.vertex_sides`` gets the seed sign.

    Returns the unique assignment extending the seed.  Errors come in a
    fixed order: a seed vertex not in the piece or a sign other than
    +-1, either not exactly an ``int`` (``True`` is not ``1``), raises
    ``InputError``; a loop edge anywhere in the piece (the cached
    ``FatGraph.loop_vertex``) raises ``OrientationConflictError`` with
    the one-vertex cycle ``[v]``; an odd cycle in the seed's component
    raises it with the cycle that the coloring met there; a vertex the
    seed cannot reach raises ``InputError``.  Messages quote the piece
    id, the seed vertex and the seed sign with ``quote``.
    """
    graph = piece.spine.graph
    seed_vertex, seed_sign = seed
    if (type(seed_vertex) is not int
            or seed_vertex not in range(graph.vertex_count)):
        raise InputError(
            f"seed vertex {quote(seed_vertex)} not in piece {quote(piece.piece_id)}")
    if type(seed_sign) is not int or seed_sign not in (1, -1):
        raise InputError(f"seed sign must be +-1, got {quote(seed_sign)}")

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
            raise InputError(f"no orientation seed for piece {quote(piece.piece_id)}")
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
    invalid specification raises ``InputError``.  More than
    ``MAX_ORIENTATION_PIECES`` = 16 pieces raise ``CapacityError``
    before the specification is checked or any class is built.
    """
    if len(spec.pieces) > MAX_ORIENTATION_PIECES:
        raise CapacityError(
            f"orientation classes are listed for at most {MAX_ORIENTATION_PIECES} "
            f"pieces, got {len(spec.pieces)}")
    signs = check_spec(spec).signs
    ids = sorted(signs)
    reps = [OrientationAssignment({(pid, v): -s if flip else s
                                   for pid, flip in zip(ids, flips)
                                   for v, s in signs[pid].items()})
            for flips in itertools.product((False, True), repeat=len(ids))]
    return 2 ** len(ids), reps


def _piece_rules(piece: ModelPiece, report: Optional[ValidationReport],
                 passed: Optional[set[int]] = None) -> bool:
    """The piece part of ``_rules``: with a report, add its checks;
    without one, whether they all pass.  Without a report, the spine
    conditions are not tested again when the spine's id is in
    ``passed``, and a spine that passes them is added to it."""
    if report is not None:
        spine = report.under("spine ")
        for check in piece.spine.conditions:
            spine.add(*check)
    elif id(piece.spine) not in passed:
        if not all(check.passed for check in piece.spine.conditions):
            return False
        passed.add(id(piece.spine))
    vertices = set(piece.vertices())
    total = piece.dehn.keys() == vertices
    if report is None:
        return total and all(coeff.is_valid() for coeff in piece.dehn.values())
    report.add("dehn coefficients total", total, "" if total else
               f"missing {sorted(vertices - piece.dehn.keys())}, "
               f"unknown {sorted(piece.dehn.keys() - vertices)}")
    for v in sorted(vertices & piece.dehn.keys()):
        coeff = piece.dehn[v]
        report.add(f"dehn coefficient at vertex {v}", coeff.is_valid(),
                   f"({coeff.p}, {coeff.q})")
    return True


def _rules(spec: ModelFlowSpec, report: Optional[ValidationReport] = None
           ) -> Optional[tuple[dict[str, dict[int, int]],
                               Optional[dict[TorusId, int]]]]:
    """The rules of a valid specification, in report order: piece ids
    unique; per piece, ``_piece_rules``; pairing sources and targets;
    one matrix per pair; each matrix; each seed's propagation.

    With a report, every check is added with its name and detail, ids
    and torus lists cut by ``quote`` and ``shorten``.  Without one, no
    name or detail is made: the walk returns None at the first rule
    that fails, and otherwise the propagated ``signs[piece id]`` and
    the ``pair_of`` table of ``_pair_index``, which decides the pairing
    rules.  Pieces that share a ``Spine`` object test its conditions
    once, and each seed propagates once."""
    passed = len({piece.piece_id for piece in spec.pieces}) == len(spec.pieces)
    if report is not None:
        report.add("piece ids unique", passed, quote(spec.piece_ids()))
    elif not passed:
        return None

    spines_passed: set[int] = set()
    for piece in spec.pieces:
        if report is not None:
            _piece_rules(piece, report.under(f"piece {shorten(piece.piece_id)}: "))
        elif not _piece_rules(piece, None, spines_passed):
            return None

    pair_of = None
    if report is not None:
        sources = sorted(src for src, _ in spec.pairing)
        exits = sorted(t for piece in spec.pieces for t in piece.exits())
        targets = sorted(dst for _, dst in spec.pairing)
        entrances = sorted(t for piece in spec.pieces for t in piece.entrances())
        report.add("pairing sources are the exit tori", sources == exits,
                   f"sources {quote(sources)} vs exits {quote(exits)}")
        report.add("pairing targets are the entrance tori", targets == entrances,
                   f"targets {quote(targets)} vs entrances {quote(entrances)}")
    else:
        pair_of = _pair_index(spec)
        if pair_of is None:
            return None

    passed = len(spec.matrices) == len(spec.pairing)
    if report is not None:
        report.add("one matrix per glued torus", passed,
                   f"{len(spec.matrices)} matrices, {len(spec.pairing)} pairs")
    elif not passed:
        return None

    for k, matrix in enumerate(spec.matrices):
        passed = matrix.is_valid()
        if report is not None:
            report.add(f"matrix {k}", passed,
                       f"det {matrix.det}" if passed
                       else f"|det| = {abs(matrix.det)} != 1" if abs(matrix.det) != 1
                       else "upper triangular (c = 0): maps fibers to fibers")
        elif not passed:
            return None

    signs = {}
    for piece in spec.pieces:
        seed = spec.orientation_seed.get(piece.piece_id)
        failure = "no seed"
        if seed is not None:
            try:
                signs[piece.piece_id] = propagate_orientations(piece, seed)
                failure = ""
            except (OrientationConflictError, InputError) as err:
                failure = str(err)
        if report is not None:
            report.add(f"orientation of piece {shorten(piece.piece_id)}",
                       not failure, failure)
        elif failure:
            return None
    return signs, pair_of


def _pair_index(spec: ModelFlowSpec) -> Optional[dict[TorusId, int]]:
    """The pairing rules of ``_rules`` without a report, decided in one
    pass over the pairing: ``pair_of[boundary torus]``, the index of
    its pair, or None when the sources are not the exit tori or the
    targets not the entrance tori.

    Piece ids are unique and colorings total here.  The sources are
    the exit tori exactly when they are ``n = len(pairing)`` distinct
    tori, each an EXIT id of a named piece, and the pieces have n exits
    in all; the targets likewise with ENTRANCE ids.  Each spine's
    cached per-color boundary ids answer both."""
    tables = {piece.piece_id: piece.spine.boundary_table()
              for piece in spec.pieces}
    pair_of: dict[TorusId, int] = {}
    for k, (src, dst) in enumerate(spec.pairing):
        if len(src) != 2 or len(dst) != 2:
            return None
        src_table, dst_table = tables.get(src[0]), tables.get(dst[0])
        if (src_table is None or src[1] not in src_table[EXIT]
                or dst_table is None or dst[1] not in dst_table[ENTRANCE]):
            return None
        pair_of[src] = pair_of[dst] = k
    n = len(spec.pairing)
    if (len(pair_of) != 2 * n
            or sum(len(table[EXIT]) for table in tables.values()) != n
            or sum(len(table[ENTRANCE]) for table in tables.values()) != n):
        return None
    return pair_of


def validate_spec(spec: ModelFlowSpec) -> ValidationReport:
    """The itemized report: every piece valid, pairing a total EXIT ->
    ENTRANCE bijection, every matrix unimodular with nonzero lower-left
    entry, and every orientation seed propagating consistently.

    It is the rule walk ``_rules`` with a report: the one walk that
    ``check_spec`` runs without one to decide validity."""
    report = ValidationReport()
    _rules(spec, report)
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


def check_spec(spec: ModelFlowSpec, name: str = "specification") -> CheckedSpec:
    """Decide validity and derive the shared tables, or raise
    ``InputError`` naming ``name`` and every failed check.

    Validity is decided by the rule walk of ``validate_spec`` run
    without a report: it makes no name or detail text, stops at the
    first failing rule and propagates each seed once.  Only an invalid
    specification is walked again, by ``validate_spec``, to name its
    failed checks."""
    tables = _rules(spec)
    if tables is None:
        names = ", ".join(c.name for c in validate_spec(spec).failures)
        raise InputError(f"{name} is invalid ({names})")
    return CheckedSpec(spec, *tables)


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
    """The specification that ``obj`` writes, or ``InputError`` at the
    JSON pointer under ``path`` of its first malformed value.

    Pieces with equal spines share one ``Spine``, and so one fat graph,
    one set of walk tables and one check of the spine conditions.  A
    spine written with the same text as an earlier one is not read
    again: it is found by its text, after its shape is conformed.  Only
    a new text is built, and it is then shared with an earlier spine of
    the same fat graph and coloring.  Nothing is kept between calls."""
    conform(obj, SPEC_SHAPE, path)
    if "bases" in obj:
        raise InputError(f"{path}/bases: not part of the format; the "
                         "matrices are written in the torus bases")

    pieces = []
    by_text: dict[tuple, Spine] = {}
    spines: dict[tuple, Spine] = {}
    for i, raw in enumerate(obj["pieces"]):
        raw_spine, where = raw["spine"], f"{path}/pieces/{i}/spine"
        conform(raw_spine, SPINE_SHAPE, where)
        text = (tuple(raw_spine["darts"]), tuple(map(tuple, raw_spine["rotation"])),
                tuple(map(tuple, raw_spine["edges"])),
                tuple(raw_spine["colors"].items()))
        spine = by_text.get(text)
        if spine is None:
            spine = _spine_from_conformed(raw_spine, where)
            spine = by_text[text] = spines.setdefault(
                (spine.graph.vertices, spine.graph.edges,
                 tuple(sorted(spine.colors.items()))), spine)
        dehn = {int(key): DehnCoefficient(p, q)
                for key, (p, q) in raw.get("dehn", {}).items()}
        pieces.append(ModelPiece(raw["id"], spine, dehn))

    pairing = tuple((parse_torus_label(src, f"{path}/pairing/{k}/0"),
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
