"""The quotient oriented graph of a model flow and its augmentation.

Vertices of the graph are the glued tori, one per pairing entry, named
``T0``, ``T1``, ...  Each fat-graph edge contributes one directed graph
edge, from the glued torus containing its ENTRANCE side to the glued
torus containing its EXIT side: orbits cross the entrance torus, the
Birkhoff annulus, then the exit torus.

Each edge carries a first-return sign.  The convention here: the sign
of an edge is the orientation sign of the vertex carrying its
entrance-side dart (the corner orbit the return map tilts around).
Only sign products along closed walks, modulo the global per-piece
seed flips, are convention-independent quantities.

The augmentation adds one vertex per vertical orbit, with a torus ->
orbit edge whenever the orbit's vertex touches an entrance boundary
cycle (forward orbits entering there can accumulate on it) and an
orbit -> torus edge whenever it touches an exit boundary cycle
(backward-trapped orbits escape through it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .errors import CapacityError, InputError, Opt, conform, quote
from .fatgraph import ENTRANCE
from .model import ModelFlowSpec, check_spec
from .walks import reachable

MAX_WORD_LENGTH = 12


@dataclass(frozen=True)
class FlowEdge:
    label: str
    src: str
    dst: str
    piece: str
    edge_index: int
    sign: int


@dataclass(frozen=True)
class FlowGraph:
    torus_vertices: tuple[str, ...]
    orbit_vertices: tuple[str, ...]
    edges: tuple[FlowEdge, ...]
    accumulation_edges: tuple[tuple[str, str], ...]

    # Derived lookup tables, built on first use and kept in the
    # instance ``__dict__`` (``cached_property`` writes there directly,
    # so the frozen dataclass allows it).

    @cached_property
    def _by_label(self) -> dict[str, FlowEdge]:
        return {e.label: e for e in self.edges}

    @cached_property
    def _torus_set(self) -> frozenset[str]:
        return frozenset(self.torus_vertices)

    @cached_property
    def _orbit_set(self) -> frozenset[str]:
        return frozenset(self.orbit_vertices)

    @cached_property
    def _edge_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((e.src, e.dst) for e in self.edges)

    @cached_property
    def _accumulation_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.accumulation_edges)


def orbit_label(piece_id: str, vertex: int) -> str:
    return f"{piece_id}.v{vertex}"


def build_flow_graph(spec: ModelFlowSpec) -> FlowGraph:
    """Quotient graph of a valid specification, its edge signs read from
    the propagation of the recorded seeds.  The other orientation
    classes are the specifications with some seeds negated
    (``census.negate_seed``)."""
    checked = check_spec(spec)
    pair_of, signs = checked.pair_of, checked.signs

    tori = tuple(f"T{k}" for k in range(len(spec.pairing)))
    orbits = []
    edges = []
    accumulation: set[tuple[str, str]] = set()
    for piece in spec.pieces:
        graph = piece.spine.graph
        face_of = graph.face_of()
        colors = piece.spine.colors
        pid = piece.piece_id
        orbits.extend(orbit_label(pid, v) for v in range(graph.vertex_count))

        for i, (a, b) in enumerate(graph.edges):
            d_in = a if colors[face_of[a]] == ENTRANCE else b
            d_out = b if d_in == a else a
            src = tori[pair_of[(pid, face_of[d_in])]]
            dst = tori[pair_of[(pid, face_of[d_out])]]
            sign = signs[pid][graph.vertex_of[d_in]]
            edges.append(FlowEdge(f"{pid}.e{i}", src, dst, pid, i, sign))

        for f, cycle in enumerate(graph.boundary_cycles()):
            torus = tori[pair_of[(pid, f)]]
            for v in {graph.vertex_of[d] for d in cycle}:
                orbit = orbit_label(pid, v)
                accumulation.add((torus, orbit) if colors[f] == ENTRANCE
                                 else (orbit, torus))

    return FlowGraph(tori, tuple(orbits), tuple(edges),
                     tuple(sorted(accumulation)))


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------

def is_transitive(graph: FlowGraph) -> bool:
    """True when the torus subgraph is strongly connected.

    Forward and reverse reachability from the first torus: the graph is
    strongly connected exactly when that torus reaches every torus and
    every torus reaches it.  No tori, or one, count as connected.
    """
    if not graph.torus_vertices:
        return True
    succ: dict[str, list[str]] = {t: [] for t in graph.torus_vertices}
    pred: dict[str, list[str]] = {t: [] for t in graph.torus_vertices}
    for e in graph.edges:
        succ[e.src].append(e.dst)
        pred[e.dst].append(e.src)
    root = graph.torus_vertices[0]
    count = len(graph.torus_vertices)
    return (len(reachable(root, succ)) == count
            and len(reachable(root, pred)) == count)


#: the JSON shape of an itinerary word (see ``errors.conform``)
WORD_SHAPE = {"body": [str], "head_orbit": Opt(str, null=True),
              "tail_orbit": Opt(str, null=True)}


class ItineraryWord(NamedTuple):
    """A finite window of an itinerary: a body of glued-torus ids with
    optional constant orbit tails on either side.

    A named tuple, so immutable and hashable; it also unpacks as
    ``body, head_orbit, tail_orbit`` and compares equal to the plain
    3-tuple of its fields."""

    body: tuple[str, ...] = ()
    head_orbit: Optional[str] = None
    tail_orbit: Optional[str] = None

    def to_json(self) -> dict:
        out: dict = {"body": list(self.body)}
        if self.head_orbit is not None:
            out["head_orbit"] = self.head_orbit
        if self.tail_orbit is not None:
            out["tail_orbit"] = self.tail_orbit
        return out

    @classmethod
    def from_json(cls, obj, path: str = "") -> "ItineraryWord":
        conform(obj, WORD_SHAPE, path)
        return cls(tuple(obj["body"]),
                   obj.get("head_orbit"), obj.get("tail_orbit"))


def validate_itinerary(graph: FlowGraph, word: ItineraryWord,
                       path: str = "") -> bool:
    """Decide whether the word is realizable in the augmented graph.

    Consecutive body letters must be joined by an edge; a head orbit
    needs an orbit -> first letter accumulation edge, a tail orbit a
    last letter -> orbit one.  A word with no body is realizable only
    as the constant itinerary of a vertical orbit: head and tail must
    both be present and equal.  An unknown torus or orbit raises
    ``InputError`` at ``path`` plus its pointer in the word: the body
    is checked first, then the head, then the tail.
    """
    body, head, tail = word
    tori = graph._torus_set
    for t in body:
        if t not in tori:
            raise InputError(f"{path}/body/{body.index(t)}: "
                             f"unknown torus {quote(t)}")
    orbits = graph._orbit_set
    if head is not None and head not in orbits:
        raise InputError(f"{path}/head_orbit: unknown orbit {quote(head)}")
    if tail is not None and tail not in orbits:
        raise InputError(f"{path}/tail_orbit: unknown orbit {quote(tail)}")

    if not body:
        return head is not None and head == tail

    pairs = graph._edge_pairs
    src = None  # no letter is None: every letter is a known torus
    for dst in body:
        if src is not None and (src, dst) not in pairs:
            return False
        src = dst
    acc = graph._accumulation_set
    if head is not None and (head, body[0]) not in acc:
        return False
    return tail is None or (src, tail) in acc


@dataclass(frozen=True)
class PeriodicWord:
    """A closed directed walk, stored in its least rotation.

    The public constructor normalizes: ``PeriodicWord(cycle)`` stores
    ``least_rotation(cycle)``.  ``periodic_words`` builds its words with
    ``_from_least``, which stores a cycle that is already least as it
    is.
    """

    cycle: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "cycle", least_rotation(self.cycle))

    @classmethod
    def _from_least(cls, cycle: tuple[str, ...]) -> "PeriodicWord":
        word = object.__new__(cls)
        object.__setattr__(word, "cycle", cycle)
        return word

    def __len__(self) -> int:
        return len(self.cycle)


def least_rotation(labels: Iterable[str]) -> tuple[str, ...]:
    labels = tuple(labels)
    if not labels:
        return labels
    return min(labels[i:] + labels[:i] for i in range(len(labels)))


def periodic_words(graph: FlowGraph, max_len: int) -> list[PeriodicWord]:
    """Closed directed walks of length <= max_len through torus
    vertices, one representative per rotation class, sorted by length
    then lexicographically by label.

    Each class is grown once, from its least-labelled edge, as in the
    necklace enumeration of Fredricksen, Kessler and Maiorana.  Edges
    are ranked by label, the order ``least_rotation`` compares in, and
    a walk of ranks a_1..a_n carries the length p of its longest Lyndon
    prefix (a prefix strictly less than each of its proper rotations).
    A walk is extended only by ranks >= a_{n+1-p}, never below a_1: a
    smaller rank would make every longer walk larger than one of its
    rotations.  A closed walk is its own least rotation exactly when p
    divides n.  So every class is found once, as its least rotation,
    and no set of copies is kept.  Words are label sequences, so edge
    labels must be distinct, as ``build_flow_graph`` makes them; an
    ``InputError`` is raised otherwise.

    The rank walks are sorted by (length, ranks), which is the label
    order since ranks follow it, and each is mapped to labels and made
    a ``PeriodicWord`` once, without normalizing it again.
    """
    if not 1 <= max_len <= MAX_WORD_LENGTH:
        raise CapacityError(
            f"max_len must be between 1 and {MAX_WORD_LENGTH}, got {max_len}")
    ranked = sorted(graph.edges, key=lambda e: e.label)
    labels = tuple(e.label for e in ranked)
    if len(set(labels)) < len(labels):
        raise InputError("periodic words need distinct edge labels")
    out_edges: dict[str, list[tuple[int, str]]] = {
        t: [] for t in graph.torus_vertices}
    for rank, e in enumerate(ranked):
        out_edges[e.src].append((rank, e.dst))

    cycles: list[tuple[int, ...]] = []

    def extend(start: str, here: str, trail: list[int], period: int) -> None:
        n = len(trail)
        floor = trail[n - period]
        for rank, dst in out_edges[here]:
            if rank < floor:
                continue
            trail.append(rank)
            p = period if rank == floor else n + 1
            if dst == start and (n + 1) % p == 0:
                cycles.append(tuple(trail))
            if n + 1 < max_len:
                extend(start, dst, trail, p)
            trail.pop()

    for rank, e in enumerate(ranked):
        if e.dst == e.src:
            cycles.append((rank,))
        if max_len > 1:
            extend(e.src, e.dst, [rank], 1)
    cycles.sort(key=lambda cycle: (len(cycle), cycle))
    word = PeriodicWord._from_least
    return [word(tuple(map(labels.__getitem__, cycle))) for cycle in cycles]


def word_counts(words: Iterable[PeriodicWord]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for w in words:
        counts[len(w)] = counts.get(len(w), 0) + 1
    return dict(sorted(counts.items()))


def path_sign(graph: FlowGraph, walk: Iterable[str]) -> int:
    """Product of edge signs along a head-to-tail compatible walk.
    The empty walk has sign +1."""
    by_label = graph._by_label
    sign = 1
    previous = None
    for label in walk:
        try:
            edge = by_label[label]
        except KeyError:
            raise InputError(f"unknown edge {quote(label)}") from None
        if previous is not None and previous.dst != edge.src:
            raise InputError(
                f"walk breaks at {previous.label} -> {edge.label}: "
                f"{previous.dst} != {edge.src}")
        sign *= edge.sign
        previous = edge
    return sign


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def flow_graph_to_json(graph: FlowGraph) -> dict:
    return {
        "vertices": list(graph.torus_vertices) + list(graph.orbit_vertices),
        "edges": [
            {"from": e.src, "to": e.dst, "piece": e.piece,
             "edge": e.edge_index, "sign": e.sign}
            for e in graph.edges
        ],
        "accumulation": [
            {"from": src, "to": dst} for src, dst in graph.accumulation_edges
        ],
    }


def flow_graph_to_edge_text(graph: FlowGraph) -> str:
    lines = [f"{e.src} {e.dst} {e.sign:+d} {e.label}" for e in graph.edges]
    return "\n".join(lines) + "\n" if lines else ""
