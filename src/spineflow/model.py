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

from .errors import InputError, OrientationConflictError, read_index, read_int
from .fatgraph import (ENTRANCE, EXIT, Spine, spine_from_json, spine_to_json,
                       validate_spine)
from .report import ValidationReport
from .walks import two_color

#: boundary torus id: (piece id, boundary cycle index)
TorusId = tuple[str, int]


def torus_label(torus: TorusId) -> str:
    return f"{torus[0]}.c{torus[1]}"


def parse_torus_label(label: str, path: str = "") -> TorusId:
    head, sep, tail = label.rpartition(".c")
    if not sep:
        raise InputError(f"{path}: torus id {label!r} is not of the form PIECE.cN")
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
        try:
            (a, b), (c, d) = rows
        except (TypeError, ValueError) as err:
            raise InputError(f"{path}: expected a 2x2 integer matrix") from err
        return cls(read_int(a, path, 0, 0), read_int(b, path, 0, 1),
                   read_int(c, path, 1, 0), read_int(d, path, 1, 1))


@dataclass(frozen=True)
class ModelPiece:
    piece_id: str
    spine: Spine
    dehn: dict[int, DehnCoefficient]

    def vertices(self) -> range:
        return range(self.spine.graph.vertex_count)

    def boundary_tori(self) -> list[TorusId]:
        return [(self.piece_id, i) for i in sorted(self.spine.colors)]

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

    def negated(self, piece_id: str) -> "OrientationAssignment":
        return OrientationAssignment({
            key: -s if key[0] == piece_id else s
            for key, s in self.signs.items()})

    def to_json(self) -> dict:
        out: dict[str, dict[str, int]] = {}
        for (pid, v), s in sorted(self.signs.items()):
            out.setdefault(pid, {})[str(v)] = s
        return out


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def validate_piece(piece: ModelPiece) -> ValidationReport:
    """Spine conditions plus one check per Dehn coefficient."""
    report = ValidationReport()
    spine_report = validate_spine(piece.spine.graph, piece.spine.colors)
    report.extend(spine_report, prefix="spine ")
    vertices = set(piece.vertices())
    missing = sorted(vertices - set(piece.dehn))
    extra = sorted(set(piece.dehn) - vertices)
    report.add("dehn coefficients total", not missing and not extra,
               f"missing {missing}, unknown {extra}" if missing or extra else "")
    for v in sorted(set(piece.dehn) & vertices):
        coeff = piece.dehn[v]
        report.add(f"dehn coefficient at vertex {v}", coeff.is_valid(),
                   f"({coeff.p}, {coeff.q})")
    return report


def propagate_orientations(piece: ModelPiece,
                           seed: tuple[int, int]) -> dict[int, int]:
    """Propagation of the seed sign with a flip across every edge: a
    2-coloring of the vertex graph rooted at the seed vertex.

    Returns the unique assignment extending the seed.  Errors come in a
    fixed order: a loop edge anywhere in the piece raises
    ``OrientationConflictError`` with the one-vertex cycle ``[v]``; an
    odd cycle in the seed's component raises it with that cycle; a
    vertex the seed cannot reach raises ``InputError``.
    """
    graph = piece.spine.graph
    seed_vertex, seed_sign = seed
    if seed_vertex not in range(graph.vertex_count):
        raise InputError(f"seed vertex {seed_vertex} not in piece {piece.piece_id!r}")
    if seed_sign not in (1, -1):
        raise InputError(f"seed sign must be +-1, got {seed_sign}")

    for a, b in graph.edges:
        va = graph.vertex_of[a]
        if va == graph.vertex_of[b]:
            raise OrientationConflictError(
                f"loop edge at vertex {va} in piece {piece.piece_id!r}: "
                "a vertical orbit cannot be anti-aligned with itself", [va])

    sides, odd_cycle = two_color(seed_vertex, graph.vertex_neighbors())
    if odd_cycle is not None:
        raise OrientationConflictError(
            f"odd cycle in piece {piece.piece_id!r}", odd_cycle)
    signs = {v: -seed_sign if side else seed_sign for v, side in sides.items()}
    if len(signs) != graph.vertex_count:
        raise InputError(
            f"piece {piece.piece_id!r} is disconnected; orientation cannot reach "
            f"vertices {sorted(set(range(graph.vertex_count)) - set(signs))}")
    return signs


def _propagated(piece: ModelPiece, seed) -> dict[int, int]:
    """``propagate_orientations(piece, seed)``, run once per piece and
    seed.  A successful result is kept on the frozen piece, keyed by
    the seed, so validation and every later reader of the same piece
    share it; callers must not mutate it.  Errors are not kept: they
    are raised again, with the same message, on the next call."""
    seed = tuple(seed)
    cache = piece.__dict__.setdefault("_orientation_cache", {})
    signs = cache.get(seed)
    if signs is None:
        signs = cache[seed] = propagate_orientations(piece, seed)
    return signs


def seed_orientation(spec: ModelFlowSpec) -> OrientationAssignment:
    """Assignment obtained by propagating every piece's recorded seed."""
    signs: dict[tuple[str, int], int] = {}
    for piece in spec.pieces:
        if piece.piece_id not in spec.orientation_seed:
            raise InputError(f"no orientation seed for piece {piece.piece_id!r}")
        per_piece = _propagated(piece, spec.orientation_seed[piece.piece_id])
        for v, s in per_piece.items():
            signs[(piece.piece_id, v)] = s
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


def validate_spec(spec: ModelFlowSpec) -> ValidationReport:
    """Every piece valid, pairing a total EXIT -> ENTRANCE bijection,
    every matrix unimodular with nonzero lower-left entry, and every
    orientation seed propagating consistently."""
    report = ValidationReport()
    ids = spec.piece_ids()
    report.add("piece ids unique", len(set(ids)) == len(ids), str(ids))
    for piece in spec.pieces:
        report.extend(validate_piece(piece), prefix=f"piece {piece.piece_id}: ")

    exits = [t for piece in spec.pieces for t in piece.exits()]
    entrances = [t for piece in spec.pieces for t in piece.entrances()]
    sources = [src for src, _ in spec.pairing]
    targets = [dst for _, dst in spec.pairing]
    report.add("pairing sources are the exit tori",
               sorted(sources) == sorted(exits),
               f"sources {sorted(sources)} vs exits {sorted(exits)}")
    report.add("pairing targets are the entrance tori",
               sorted(targets) == sorted(entrances),
               f"targets {sorted(targets)} vs entrances {sorted(entrances)}")
    report.add("one matrix per glued torus",
               len(spec.matrices) == len(spec.pairing),
               f"{len(spec.matrices)} matrices, {len(spec.pairing)} pairs")
    for k, matrix in enumerate(spec.matrices):
        name = f"matrix {k}"
        if abs(matrix.det) != 1:
            report.add(name, False, f"|det| = {abs(matrix.det)} != 1")
        elif matrix.c == 0:
            report.add(name, False, "upper triangular (c = 0): maps fibers to fibers")
        else:
            report.add(name, True, f"det {matrix.det}")

    for piece in spec.pieces:
        name = f"orientation of piece {piece.piece_id}"
        seed = spec.orientation_seed.get(piece.piece_id)
        if seed is None:
            report.add(name, False, "no seed")
            continue
        try:
            _propagated(piece, seed)
            report.add(name, True)
        except (OrientationConflictError, InputError) as err:
            report.add(name, False, str(err))
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
    """Validate once and derive the shared tables, or raise
    ``InputError`` naming ``name`` and every failed check."""
    report = validate_spec(spec)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures)
        raise InputError(f"{name} is invalid ({names})")
    return CheckedSpec(
        spec,
        {piece.piece_id: _propagated(piece, spec.orientation_seed[piece.piece_id])
         for piece in spec.pieces},
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


def spec_from_json(obj, path: str = "") -> ModelFlowSpec:
    if not isinstance(obj, dict):
        raise InputError(f"{path or '/'}: expected an object")
    for key in ("pieces", "pairing", "matrices", "orientation_seed"):
        if key not in obj:
            raise InputError(f"{path}/{key}: missing")
    if "bases" in obj:
        raise InputError(f"{path}/bases: not part of the format; the "
                         "matrices are written in the torus bases")

    pieces = []
    if not isinstance(obj["pieces"], list):
        raise InputError(f"{path}/pieces: expected an array")
    for i, raw in enumerate(obj["pieces"]):
        ppath = f"{path}/pieces/{i}"
        if not isinstance(raw, dict) or "id" not in raw or "spine" not in raw:
            raise InputError(f"{ppath}: expected an object with id and spine")
        spine = spine_from_json(raw["spine"], f"{ppath}/spine")
        if not isinstance(raw.get("dehn", {}), dict):
            raise InputError(f"{ppath}/dehn: expected an object")
        dehn = {}
        for key, value in raw.get("dehn", {}).items():
            dpath = f"{ppath}/dehn/{key}"
            vertex = read_index(key, dpath)
            try:
                p, q = value
            except (TypeError, ValueError) as err:
                raise InputError(f"{dpath}: expected a pair [p, q]") from err
            dehn[vertex] = DehnCoefficient(read_int(p, dpath, 0),
                                           read_int(q, dpath, 1))
        if not isinstance(raw["id"], str):
            raise InputError(f"{ppath}/id: expected a piece id string, "
                             f"got {raw['id']!r}")
        pieces.append(ModelPiece(raw["id"], spine, dehn))

    pairing = []
    if not isinstance(obj["pairing"], list):
        raise InputError(f"{path}/pairing: expected an array")
    for k, raw in enumerate(obj["pairing"]):
        kpath = f"{path}/pairing/{k}"
        try:
            src, dst = raw
        except (TypeError, ValueError) as err:
            raise InputError(f"{kpath}: expected a pair of torus ids") from err
        pairing.append((parse_torus_label(str(src), kpath + "/0"),
                        parse_torus_label(str(dst), kpath + "/1")))

    if not isinstance(obj["matrices"], dict):
        raise InputError(f"{path}/matrices: expected an object")
    matrices = []
    for k in range(len(pairing)):
        if str(k) not in obj["matrices"]:
            raise InputError(f"{path}/matrices/{k}: missing")
        matrices.append(GluingMatrix.from_rows(obj["matrices"][str(k)],
                                               f"{path}/matrices/{k}"))
    extra = sorted(set(obj["matrices"]) - {str(k) for k in range(len(pairing))})
    if extra:
        raise InputError(f"{path}/matrices/{extra[0]}: no such pairing index")

    seeds = {}
    if not isinstance(obj["orientation_seed"], dict):
        raise InputError(f"{path}/orientation_seed: expected an object")
    for pid, raw in obj["orientation_seed"].items():
        spath = f"{path}/orientation_seed/{pid}"
        try:
            v, s = raw
        except (TypeError, ValueError) as err:
            raise InputError(f"{spath}: expected a pair [vertex, sign]") from err
        seeds[str(pid)] = (read_int(v, spath, 0), read_int(s, spath, 1))

    return ModelFlowSpec(tuple(pieces), tuple(pairing), tuple(matrices),
                         seeds)
