"""Fat graphs (ribbon graphs) and the spine conditions.

A fat graph is stored as a set of darts (oriented edge-ends), a rotation
permutation whose cycles are the vertices (each cycle lists the darts at
that vertex in cyclic order), and a fixed-point-free involution pairing
the two darts of each edge.  Thickening the graph produces a compact
oriented surface with boundary; the boundary circles are traced here as
the orbits of ``rotation . involution`` (apply the involution first).
Any fixed tracing convention differs from the other one by a global
reflection, which is exposed as a flag on isomorphism search instead.

A *spine* is a fat graph together with a coloring of its boundary
cycles by ``ENTRANCE`` / ``EXIT``.  The spine conditions are:

1. the graph is connected,
2. every vertex has even valence,
3. the two sides of every edge lie on boundary cycles of different
   colors,
4. every boundary cycle crosses an even number of edge sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (CapacityError, InputError, OrientabilityError,
                     StructureError, Table, conform, quote)
from .report import Check, ValidationReport
from .walks import two_color

ENTRANCE = "ENTRANCE"
EXIT = "EXIT"
COLORS = (ENTRANCE, EXIT)

#: largest edge count the exhaustive spine census will attempt
MAX_CENSUS_EDGES = 9


class PairingError(StructureError):
    """A ``StructureError`` in the edge pairs of a fat graph rather than
    in its rotation cycles."""


class FatGraph:
    """Immutable ribbon graph on positive-integer darts.

    ``rotation_cycles`` is an iterable of cycles, each a sequence of
    darts in cyclic order around one vertex.  ``edge_pairs`` pairs the
    darts of each edge.
    """

    def __init__(self, rotation_cycles: Iterable[Iterable[int]],
                 edge_pairs: Iterable[Iterable[int]]):
        cycles = [tuple(c) for c in rotation_cycles]
        pairs = [tuple(p) for p in edge_pairs]
        darts = [d for c in cycles for d in c]
        if not darts:
            raise StructureError("a fat graph needs at least one dart")
        if any(type(d) is not int or d <= 0 for d in darts):
            raise StructureError("darts must be positive integers")
        if len(set(darts)) != len(darts):
            raise StructureError("rotation cycles overlap or repeat darts")
        self.darts: tuple[int, ...] = tuple(sorted(darts))

        rotation: dict[int, int] = {}
        for cycle in cycles:
            if not cycle:
                raise StructureError("empty rotation cycle")
            for d, dnext in zip(cycle, cycle[1:] + cycle[:1]):
                rotation[d] = dnext
        self.rotation: dict[int, int] = rotation

        # two distinct integer darts per pair, and no dart in two; the
        # first bad pair is the one named
        involution: dict[int, int] = {}
        for pair in pairs:
            if (len(pair) != 2 or pair[0] == pair[1]
                    or type(pair[0]) is not int or type(pair[1]) is not int):
                raise PairingError(
                    f"edge pair {quote(pair)} is not two distinct integer darts")
            for x in pair:
                if x in involution:
                    raise PairingError(f"dart {x} appears in two edges")
            a, b = pair
            involution[a], involution[b] = b, a
        if set(involution) != set(self.darts):
            missing = sorted(set(self.darts) ^ set(involution))
            raise PairingError(f"edge pairing does not match darts: {missing}")
        self.involution: dict[int, int] = involution

        # canonical vertex / edge orders: sorted by smallest dart
        self.vertices: tuple[tuple[int, ...], ...] = tuple(
            sorted((_rotate_min(c) for c in cycles), key=lambda c: c[0]))
        self.edges: tuple[tuple[int, int], ...] = tuple(
            sorted(tuple(sorted(p)) for p in pairs))
        self.vertex_of: dict[int, int] = {
            d: i for i, c in enumerate(self.vertices) for d in c}
        # tables built on first use; each is set here, not by a cached
        # property, so every graph keeps one attribute layout
        self._faces: Optional[tuple[tuple[int, ...], ...]] = None
        self._face_of: Optional[dict[int, int]] = None
        self._inverse_rotation: Optional[dict[int, int]] = None
        self._least_walk: Optional[tuple[tuple[int, ...], list[int]]] = None
        self._vertex_runs: Optional[tuple[tuple, Optional[int]]] = None

    # -- basic queries -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def valences(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.vertices)

    def is_connected(self) -> bool:
        """True when the darts form a single orbit under rotation and
        involution, i.e. the underlying graph is connected: the first
        run of ``vertex_sides`` reaches every vertex, or, when it
        stopped at an odd cycle, the ``least_walk`` reaches every
        dart."""
        sides, odd_cycle = self.vertex_sides[0]
        if odd_cycle is None:
            return len(sides) == len(self.vertices)
        return len(self.least_walk[1]) == len(self.darts)

    @property
    def inverse_rotation(self) -> dict[int, int]:
        """Dart -> the dart before it around its vertex.  Built on first
        use; callers must not mutate it."""
        if self._inverse_rotation is None:
            self._inverse_rotation = {v: k for k, v in self.rotation.items()}
        return self._inverse_rotation

    @property
    def least_walk(self) -> tuple[tuple[int, ...], list[int]]:
        """``_map_code`` from the least dart.  Built on first use;
        callers must not mutate the order."""
        if self._least_walk is None:
            self._least_walk = _map_code(self.rotation, self.involution,
                                         self.darts[0])
        return self._least_walk

    def boundary_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of rotation . involution, each rotated to start at its
        smallest dart, sorted by that dart.  Cached."""
        if self._faces is None:
            # each orbit is met first at its smallest dart, in dart order
            faces, seen = [], set()
            for d0 in self.darts:
                if d0 not in seen:
                    cycle = [d0]
                    while (d := self.rotation[self.involution[cycle[-1]]]) != d0:
                        cycle.append(d)
                    seen.update(cycle)
                    faces.append(tuple(cycle))
            self._faces = tuple(faces)
        return self._faces

    def face_of(self) -> dict[int, int]:
        """Dart -> index of its boundary cycle.  Cached: every call
        returns the same dict, which callers must not mutate."""
        if self._face_of is None:
            self._face_of = {d: i for i, c in enumerate(self.boundary_cycles())
                             for d in c}
        return self._face_of

    @property
    def vertex_sides(self) -> tuple[tuple[dict[int, int], Optional[list[int]]], ...]:
        """Vertex -> the ``(sides, odd cycle)`` of the first ``two_color``
        run that reached it, each rooted at the least vertex not yet
        reached, on one adjacency entry per edge end in edge order.  A
        run stops at an odd cycle, so its component may take several.
        Built on first use, with ``loop_vertex``."""
        return self._vertex_tables()[0]

    @property
    def loop_vertex(self) -> Optional[int]:
        """The vertex of the first loop edge in edge order, or None when
        no edge joins a vertex to itself.  Built on first use, with
        ``vertex_sides``."""
        return self._vertex_tables()[1]

    def _vertex_tables(self) -> tuple[tuple, Optional[int]]:
        if self._vertex_runs is None:
            neighbors: list[list[int]] = [[] for _ in range(self.vertex_count)]
            loop = None
            for a, b in self.edges:
                va, vb = self.vertex_of[a], self.vertex_of[b]
                if va == vb and loop is None:
                    loop = va
                neighbors[va].append(vb)
                neighbors[vb].append(va)
            runs: list = [None] * self.vertex_count
            for root in range(self.vertex_count):
                if runs[root] is None:
                    run = two_color(root, neighbors)
                    for v in run[0]:
                        runs[v] = runs[v] or run
            self._vertex_runs = tuple(runs), loop
        return self._vertex_runs

    def relabeled(self, mapping: dict[int, int]) -> "FatGraph":
        """Copy of the graph with every dart ``d`` renamed ``mapping[d]``."""
        if sorted(mapping) != list(self.darts):
            raise InputError("relabeling must be defined on exactly the darts")
        if len(set(mapping.values())) != len(mapping):
            raise InputError("relabeling must be injective")
        cycles = [[mapping[d] for d in c] for c in self.vertices]
        pairs = [[mapping[a], mapping[b]] for a, b in self.edges]
        return FatGraph(cycles, pairs)

    def reflected(self) -> "FatGraph":
        """Mirror image: every rotation cycle reversed."""
        return FatGraph([c[::-1] for c in self.vertices],
                        [list(p) for p in self.edges])

    def __eq__(self, other) -> bool:
        return (isinstance(other, FatGraph)
                and self.rotation == other.rotation
                and self.involution == other.involution)

    def __repr__(self) -> str:
        cycles = ")(".join(",".join(map(str, c)) for c in self.vertices)
        return f"FatGraph(({cycles}), {len(self.edges)} edges)"


def _rotate_min(cycle: tuple[int, ...]) -> tuple[int, ...]:
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


@dataclass(frozen=True)
class Spine:
    """A fat graph plus a total ENTRANCE/EXIT coloring of its boundary
    cycles (keyed by boundary-cycle index).  Immutable, the coloring
    included: ``conditions``, the boundary id table and the walk table
    of each reflection flag are kept once computed."""

    graph: FatGraph
    colors: dict[int, str]
    # kept once computed; fields, not cached properties, so that every
    # spine keeps one attribute layout, as every FatGraph does
    _checks: Optional[tuple[Check, ...]] = field(
        default=None, init=False, repr=False, compare=False)
    _boundary_table: Optional[dict[str, tuple[int, ...]]] = field(
        default=None, init=False, repr=False, compare=False)
    _walk_tables: tuple[Optional[dict], Optional[dict]] = field(
        default=(None, None), init=False, repr=False, compare=False)

    def boundary_ids(self, color: str) -> list[int]:
        """The sorted ids of the boundary cycles of ``color``, as a new
        list."""
        return list(self.boundary_table().get(color, ()))

    def boundary_table(self) -> dict[str, tuple[int, ...]]:
        """The sorted ids of the boundary cycles of each color in
        ``COLORS``: the kept table itself, computed on first use, which
        callers must not change."""
        if self._boundary_table is None:
            ids = sorted(self.colors)
            object.__setattr__(self, "_boundary_table", {
                c: tuple(i for i in ids if self.colors[i] == c) for c in COLORS})
        return self._boundary_table

    @property
    def conditions(self) -> tuple[Check, ...]:
        """The checks of ``validate_spine`` on this spine, in its order.
        Computed on first use and kept, so a spine shared by pieces and
        by repeated validations is checked once; a coloring that is not
        total raises ``InputError`` at every use."""
        if self._checks is None:
            object.__setattr__(self, "_checks", _conditions(self.graph, self.colors))
        return self._checks

    def walk_table(self, reflect: bool = False
                   ) -> dict[tuple[tuple[int, ...], tuple[str, ...]],
                             list[list[int]]]:
        """The ``_map_code`` from every start dart (along the inverse
        rotation when ``reflect``; from the least dart unreflected, the
        graph's ``least_walk``) with the colors along its walk, grouped:
        each (code, colors) key maps to the walk orders that give it, by
        ascending start dart.  A dart's color is its boundary cycle's,
        under reflection its partner's, as ``induced_face_map`` carries
        cycles.  Kept once computed; callers must not mutate it.  The
        orders under one key are the images of one walk under the
        color-preserving automorphisms of the spine, and the code of the
        least key is the canonical code of the map."""
        table = self._walk_tables[reflect]
        if table is None:
            graph = self.graph
            face_of, involution = graph.face_of(), graph.involution
            rotation = graph.inverse_rotation if reflect else graph.rotation
            color = {d: self.colors[face_of[involution[d] if reflect else d]]
                     for d in graph.darts}
            table = {}
            for d in graph.darts:
                code, order = (graph.least_walk if d == graph.darts[0] and not reflect
                               else _map_code(rotation, involution, d))
                table.setdefault((code, tuple(map(color.__getitem__, order))),
                                 []).append(order)
            tables = list(self._walk_tables)
            tables[reflect] = table
            object.__setattr__(self, "_walk_tables", tuple(tables))
        return table

    def relabeled(self, mapping: dict[int, int]) -> "Spine":
        graph = self.graph.relabeled(mapping)
        faces = induced_face_map(self.graph, graph, mapping)
        return Spine(graph, {g: self.colors[f] for f, g in faces.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Spine) and self.graph == other.graph
                and self.colors == other.colors)


def _check_colors_total(graph: FatGraph, colors: dict[int, str]) -> None:
    faces = graph.boundary_cycles()
    if set(colors) != set(range(len(faces))):
        raise InputError(
            f"coloring must assign exactly the boundary cycles 0..{len(faces) - 1}, "
            f"got keys {quote(sorted(colors))}")
    bad = {i: v for i, v in colors.items() if v not in COLORS}
    if bad:
        raise InputError(f"colors must be ENTRANCE or EXIT, got {quote(bad)}")


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceInvariants:
    vertex_count: int
    edge_count: int
    boundary_count: int
    euler_characteristic: int
    genus: int


def trace_boundary_cycles(graph: FatGraph) -> list[tuple[int, ...]]:
    """Boundary walks of the thickened surface.

    Returns the orbits of ``rotation . involution``, each starting at
    its smallest dart, sorted by that dart.  The orbits partition the
    dart set.
    """
    return list(graph.boundary_cycles())


def surface_invariants(graph: FatGraph) -> SurfaceInvariants:
    """Counts and derived genus of the thickened surface.

    The spine is a retract of the surface, so chi = V - E; the genus
    comes from chi = 2 - 2g - b.  Data that makes g negative or
    fractional (for instance a disconnected graph) raises
    ``OrientabilityError``.
    """
    v = graph.vertex_count
    e = graph.edge_count
    b = len(graph.boundary_cycles())
    chi = v - e
    twog = 2 - b - chi
    if twog < 0 or twog % 2 != 0:
        raise OrientabilityError(
            f"no orientable genus fits chi={chi}, boundary={b}")
    return SurfaceInvariants(v, e, b, chi, twog // 2)


def validate_spine(graph: FatGraph, colors: dict[int, str]
                   ) -> ValidationReport:
    """A new report of the four spine conditions plus the genus sanity
    check.

    The coloring must be total on the boundary cycles (``InputError``
    otherwise); a failing condition is reported, not raised.
    """
    return ValidationReport(list(_conditions(graph, colors)))


def _conditions(graph: FatGraph, colors: dict[int, str]) -> tuple[Check, ...]:
    """The checks of ``validate_spine`` as a tuple, once the coloring
    is found total (``InputError`` otherwise); ``Spine.conditions``
    keeps them."""
    _check_colors_total(graph, colors)
    faces = graph.boundary_cycles()
    odd_vertices = [i for i, c in enumerate(graph.vertices) if len(c) % 2]
    face_of = graph.face_of()
    bad_edges = [i for i, (a, b) in enumerate(graph.edges)
                 if colors[face_of[a]] == colors[face_of[b]]]
    odd_faces = [i for i, c in enumerate(faces) if len(c) % 2]
    try:
        genus = surface_invariants(graph).genus
        surface = Check("surface (nonnegative integer genus)", genus >= 0,
                        f"genus {genus}")
    except OrientabilityError as err:
        surface = Check("surface (nonnegative integer genus)", False, str(err))
    return (
        Check("condition 1 (connected)", graph.is_connected()),
        Check("condition 2 (even valences)", not odd_vertices,
              f"odd vertices {odd_vertices}" if odd_vertices else ""),
        Check("condition 3 (sides alternate colors)", not bad_edges,
              f"edges with equal-colored sides {bad_edges}" if bad_edges else ""),
        Check("condition 4 (even boundary cycles)", not odd_faces,
              f"odd boundary cycles {odd_faces}" if odd_faces else ""),
        surface,
    )


def is_bipartite(graph: FatGraph) -> bool:
    """True when no run of ``FatGraph.vertex_sides`` met an odd cycle.
    The spine conditions do not force this, so it is checked separately
    wherever orientations must propagate."""
    return all(odd_cycle is None for _, odd_cycle in graph.vertex_sides)


# ----------------------------------------------------------------------
# isomorphism
# ----------------------------------------------------------------------

def induced_face_map(g1: FatGraph, g2: FatGraph, sigma: dict[int, int],
                     reflect: bool = False) -> dict[int, int]:
    """The boundary-cycle map of an isomorphism ``sigma`` from g1 to g2:
    each cycle of g1 goes to the cycle of g2 through the image of its
    first dart (through the involution of that image under reflection).
    The caller checks that ``sigma`` commutes with the involutions and
    the rotations (the inverse rotation of g2 under reflection); such a
    bijection maps each face orbit of g1 onto one face orbit of g2 (onto
    its involution under reflection), so one dart decides the image."""
    face2, inv2 = g2.face_of(), g2.involution
    return {f: face2[inv2[sigma[c[0]]] if reflect else sigma[c[0]]]
            for f, c in enumerate(g1.boundary_cycles())}


def iter_isomorphisms_tagged(s1: Spine, s2: Spine, allow_reflection: bool = False,
                             labels: Optional[tuple[Sequence, Sequence]] = None
                             ) -> Iterator[tuple[dict[int, int], bool,
                                                 dict[int, int]]]:
    """All color-preserving dart bijections from s1 to s2, each with its
    reflection flag and its boundary-cycle map (``induced_face_map``),
    in a fixed deterministic order: by ascending image of the least
    dart of s1, reflections last when enabled.  ``labels``, when given,
    holds one label per vertex of s1 and one per vertex of s2, in
    vertex order, and only the bijections that send each vertex to a
    vertex of equal label are listed, in the same order.

    An isomorphism of connected maps is fixed by the image of one dart,
    so the image dart ``t`` extends to one exactly when the walk of s2
    from ``t`` (along the inverse rotation under reflection) gives the
    same code as the ``least_walk`` of s1, and then the two walks list
    each dart and its image in the same place.  It keeps colors exactly
    when the colors along the two walks agree too, so the code of s1
    and its colors along that walk are looked up in the cached
    ``Spine.walk_table`` of s2.  An entry is yielded when the labels
    along its walk are those along the walk of s1, as McKay & Piperno
    treat vertex colors ("Practical graph isomorphism II", 2014), so
    repeated searches walk nothing again and no face map is built to
    be dropped.  Graphs of different dart counts, valences or boundary
    lengths have no equal codes.  A graph that is not connected raises
    ``InputError``, whatever the other.
    """
    g1, g2 = s1.graph, s2.graph
    code1, order1 = g1.least_walk
    if len(order1) != len(g1.darts) or not g2.is_connected():
        raise InputError("isomorphism search expects connected fat graphs")
    face1 = g1.face_of()
    key1 = (code1, tuple(s1.colors[face1[d]] for d in order1))
    if labels is not None:
        labels1, labels2 = labels
        vertex_of1, vertex_of2 = g1.vertex_of, g2.vertex_of
        along1 = [labels1[vertex_of1[d]] for d in order1]
    reflections = (False, True) if allow_reflection else (False,)
    for reflect in reflections:
        for order2 in s2.walk_table(reflect).get(key1, ()):
            if labels is not None and [labels2[vertex_of2[d]]
                                       for d in order2] != along1:
                continue
            sigma = dict(zip(order1, order2))
            yield sigma, reflect, induced_face_map(g1, g2, sigma, reflect)


def fatgraph_isomorphic(s1: Spine, s2: Spine,
                        allow_reflection: bool = False) -> Optional[dict[int, int]]:
    """Least color-preserving isomorphism, or None.

    "Least" compares the tuple of images of the darts of s1 in sorted
    order, so the answer is independent of search order.
    ``allow_reflection`` must be a ``bool``; anything else raises
    ``InputError``.
    """
    if type(allow_reflection) is not bool:
        raise InputError("allow_reflection must be True or False, got "
                         + quote(allow_reflection))
    return min((sigma for sigma, _, _
                in iter_isomorphisms_tagged(s1, s2, allow_reflection)),
               default=None,
               key=lambda sigma: [sigma[d] for d in s1.graph.darts])


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------

def _map_code(rotation, involution, start: int
              ) -> tuple[tuple[int, ...], list[int]]:
    """Breadth-first code of the map from ``start``, and the darts in
    discovery order.  Darts are numbered in discovery order, and the
    code lists the numbers of the rotation and involution images of
    each dart in that order.  This is the one walk of the dart graph:
    the order covers every dart exactly when the graph is connected,
    and two walks with equal codes pair up the darts of an
    isomorphism."""
    number = {start: 0}
    order = [start]
    code = []
    for d in order:
        for nxt in (rotation[d], involution[d]):
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
            code.append(number[nxt])
    return tuple(code), order


def _code_beats(rotation, involution, start: int, code) -> bool:
    """True when the ``_map_code`` from ``start`` is less than ``code``,
    the code of the same map from another start.  The walk stops at its
    first entry that differs from ``code``: a smaller entry beats it, a
    larger one does not, and an equal code does not either."""
    number = [-1] * len(rotation)
    number[start] = 0
    order = [start]
    k = 0
    for d in order:
        for nxt in (rotation[d], involution[d]):
            if number[nxt] < 0:
                number[nxt] = len(order)
                order.append(nxt)
            if number[nxt] != code[k]:
                return number[nxt] < code[k]
            k += 1
    return False


def _rooted_even_hypermap_codes(n: int) -> Iterator[tuple[int, ...]]:
    """The ``_map_code`` from point 0 of every rooted transitive pair
    (x, y) of permutations of 0..n-1 whose cycles are all even, each
    exactly once.

    The code is grown in the order the walk reads it, so the points are
    numbered in discovery order.  The image of point i under x, then
    under y, is a numbered point that has no preimage under that
    permutation yet, or the next new point.  A cycle is dropped as soon
    as it closes with odd length, and a walk that runs out of points
    before it numbers n of them is dropped too.  A rooted transitive
    pair has exactly one such numbering, so no code repeats.
    """
    images = ([-1] * n, [-1] * n)
    preimages = ([-1] * n, [-1] * n)
    code: list[int] = []

    def grow(step: int, numbered: int) -> Iterator[tuple[int, ...]]:
        i, which = divmod(step, 2)
        if i == numbered:
            if numbered == n:
                yield tuple(code)
            return
        image, preimage = images[which], preimages[which]
        for r in range(min(numbered + 1, n)):
            if preimage[r] >= 0:
                continue
            end, length = r, 1
            while image[end] >= 0:
                end, length = image[end], length + 1
            if end == i and length % 2:
                continue
            image[i], preimage[r] = r, i
            code.append(r)
            yield from grow(step + 1, max(numbered, r + 1))
            code.pop()
            image[i] = preimage[r] = -1

    return grow(0, 1)


def _least_labeling(rotation, involution
                    ) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The least labeled rotation system of a connected map, as its
    (length, darts) cycle key.

    A labeling renames the darts 1..n so that each edge becomes
    (2k + 1, 2k + 2).  Its rotation cycles start at their least dart
    and go by that dart; the key lists (length, darts) of each cycle in
    turn, and keys compare as tuples.  Dart 1 therefore starts a vertex
    of least valence.  From each such start the least labeling is
    greedy: the walk goes round each vertex, gives each newly met dart
    the next free odd label and its partner the even label after it,
    and starts the next vertex at the least labeled dart not yet
    placed.  The least key over those starts is returned; each greedy
    walk stops at its first cycle greater than the cycle at the same
    index of the least key so far.
    """
    n = len(rotation)
    valence = [0] * n
    for d0 in range(n):
        if not valence[d0]:
            cycle = [d0]
            while rotation[cycle[-1]] != d0:
                cycle.append(rotation[cycle[-1]])
            for d in cycle:
                valence[d] = len(cycle)

    def greedy(start: int, best: Optional[tuple]) -> Optional[tuple]:
        """The greedy key from ``start`` when it is less than ``best``
        (or ``best`` is None), else None."""
        label = [0] * n
        by_label = [-1]
        placed = [False] * n
        cycles = []
        tied = best is not None
        first, scan = start, 1
        while True:
            cycle = []
            d = first
            while not placed[d]:
                if not label[d]:
                    label[d], label[involution[d]] = len(by_label), len(by_label) + 1
                    by_label += (d, involution[d])
                placed[d] = True
                cycle.append(label[d])
                d = rotation[d]
            entry = (len(cycle), tuple(cycle))
            if tied:
                other = best[len(cycles)]
                if entry > other:
                    return None
                tied = entry == other
            cycles.append(entry)
            while scan < len(by_label) and placed[by_label[scan]]:
                scan += 1
            if scan == len(by_label):
                return None if tied else tuple(cycles)
            first = by_label[scan]

    least = min(valence)
    best = None
    for start in range(n):
        if valence[start] == least:
            best = greedy(start, best) or best
    return best


def enumerate_spines(max_edges: int) -> Iterator[Spine]:
    """Every valid spine with at most ``max_edges`` edges, exactly once
    up to color-preserving isomorphism, in deterministic order.

    A spine with E edges is an even hypermap: two permutations x, y of
    its edges whose cycles are all even and which generate a transitive
    group (Walsh, "Hypermaps versus bipartite maps", 1975).  x sends an
    edge to the next one along its ENTRANCE cycle and y along its EXIT
    cycle, so condition 3 holds by construction, condition 4 is the even
    cycles and condition 2 follows: the rotation alternates sides.  Edge
    k has the entrance dart 2k and the exit dart 2k + 1, with
    rotation(2k + 1) = 2 x(k) and rotation(2k) = 2 y(k) + 1.  Only even
    edge counts occur, since the ENTRANCE cycles are even and carry one
    side of every edge.

    A color-preserving isomorphism is a simultaneous conjugation of
    (x, y), so each class is visited once (McKay's canonical
    construction path): ``_rooted_even_hypermap_codes`` grows every
    rooted pair, and a pair is kept only at a root whose code no other
    start point beats; each walk from another start stops at its first
    entry that differs from the root's code (``_code_beats``).  Its
    uncolored map is relabeled on darts 1..2E paired (1, 2), (3, 4), ...
    to the least labeled rotation system of its class
    (``_least_labeling``), and the maps go in the order of those keys:
    within one edge count this is the order in which an exhaustive pass
    over all labeled rotation systems first meets each map.  (x, y)
    and (y, x) give the same map with the colors swapped.  So each map
    comes first with the cycle through dart 1 ENTRANCE, then swapped
    when (y, x) is another class.

    ``max_edges`` is an ``int`` (not a ``bool``) capped at
    ``MAX_CENSUS_EDGES`` = 9 (E = 9 is odd and costs nothing); anything
    else raises ``CapacityError`` at the first step.  E = 8 grows
    23,797 rooted pairs and yields 3,090 spines in about 0.6 s; E = 10
    would grow 2,180,461 and yield 218,608 spines in about 55 s
    (Python 3.11, one core of a shared two-core container).
    """
    if type(max_edges) is not int or not 1 <= max_edges <= MAX_CENSUS_EDGES:
        raise CapacityError(f"max_edges must be between 1 and {MAX_CENSUS_EDGES}, "
                            f"got {quote(max_edges)}")
    for e in range(2, max_edges + 1, 2):
        classes: dict[tuple, int] = {}
        involution = [d ^ 1 for d in range(2 * e)]
        for code in _rooted_even_hypermap_codes(e):
            x, y = code[::2], code[1::2]
            if any(_code_beats(x, y, d, code) for d in range(1, e)):
                continue
            rotation = [0] * (2 * e)
            for k in range(e):
                rotation[2 * k], rotation[2 * k + 1] = 2 * y[k] + 1, 2 * x[k]
            key = _least_labeling(rotation, involution)
            classes[key] = classes.get(key, 0) + 1
        pairs = [[d, d + 1] for d in range(1, 2 * e, 2)]
        for key in sorted(classes):
            graph = FatGraph([cycle for _, cycle in key], pairs)
            face_of = graph.face_of()
            sides, _ = two_color(1, {d: (graph.rotation[d], graph.involution[d])
                                     for d in graph.darts})
            for swap in range(classes[key]):
                yield Spine(graph, {face_of[d]: COLORS[side ^ swap]
                                    for d, side in sides.items()})


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def spine_to_json(spine: Spine) -> dict:
    return {
        "darts": list(spine.graph.darts),
        "rotation": [list(c) for c in spine.graph.vertices],
        "edges": [list(p) for p in spine.graph.edges],
        "colors": {str(i): spine.colors[i] for i in sorted(spine.colors)},
    }


#: the JSON shape of a spine (see ``errors.conform``)
SPINE_SHAPE = {"darts": [int], "rotation": [[int]], "edges": [(int, int)],
               "colors": Table(int, str)}


def spine_from_json(obj, path: str = "") -> Spine:
    conform(obj, SPINE_SHAPE, path)
    return _spine_from_conformed(obj, path)


def _spine_from_conformed(obj, path: str) -> Spine:
    """``spine_from_json`` of ``obj``, which has ``SPINE_SHAPE``."""
    try:
        graph = FatGraph(obj["rotation"], obj["edges"])
    except PairingError as err:
        raise InputError(f"{path}/edges: {err}") from err
    except StructureError as err:
        raise InputError(f"{path}/rotation: {err}") from err
    if list(graph.darts) != sorted(obj["darts"]):
        raise InputError(f"{path}/darts: does not match rotation cycles")
    colors = {int(key): value for key, value in obj["colors"].items()}
    try:
        _check_colors_total(graph, colors)
    except InputError as err:
        raise InputError(f"{path}/colors: {err}") from err
    return Spine(graph, colors)
