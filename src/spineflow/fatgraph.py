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

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import (CapacityError, InputError, OrientabilityError,
                     StructureError, read_index, read_int)
from .report import ValidationReport
from .walks import reachable, two_color

ENTRANCE = "ENTRANCE"
EXIT = "EXIT"
COLORS = (ENTRANCE, EXIT)

#: largest edge count the exhaustive spine census will attempt
MAX_CENSUS_EDGES = 5


class FatGraph:
    """Immutable ribbon graph on positive-integer darts.

    ``rotation_cycles`` is an iterable of cycles, each a sequence of
    darts in cyclic order around one vertex.  ``edge_pairs`` pairs the
    darts of each edge.
    """

    def __init__(self, rotation_cycles: Iterable[Iterable[int]],
                 edge_pairs: Iterable[Iterable[int]]):
        cycles = [tuple(int(d) for d in c) for c in rotation_cycles]
        pairs = [tuple(int(d) for d in p) for p in edge_pairs]
        darts = [d for c in cycles for d in c]
        if not darts:
            raise StructureError("a fat graph needs at least one dart")
        if len(set(darts)) != len(darts):
            raise StructureError("rotation cycles overlap or repeat darts")
        if any(d <= 0 for d in darts):
            raise StructureError("darts must be positive integers")
        self.darts: tuple[int, ...] = tuple(sorted(darts))

        rotation: dict[int, int] = {}
        for cycle in cycles:
            if not cycle:
                raise StructureError("empty rotation cycle")
            for d, dnext in zip(cycle, cycle[1:] + cycle[:1]):
                rotation[d] = dnext
        self.rotation: dict[int, int] = rotation

        involution: dict[int, int] = {}
        for pair in pairs:
            if len(pair) != 2 or pair[0] == pair[1]:
                raise StructureError(f"edge pair {pair!r} is not two distinct darts")
            a, b = pair
            for x, y in ((a, b), (b, a)):
                if x in involution:
                    raise StructureError(f"dart {x} appears in two edges")
                involution[x] = y
        if set(involution) != set(self.darts):
            missing = sorted(set(self.darts) ^ set(involution))
            raise StructureError(f"edge pairing does not match darts: {missing}")
        self.involution: dict[int, int] = involution

        # canonical vertex / edge orders: sorted by smallest dart
        self.vertices: tuple[tuple[int, ...], ...] = tuple(
            sorted((_rotate_min(c) for c in cycles), key=lambda c: c[0]))
        self.edges: tuple[tuple[int, int], ...] = tuple(
            sorted(tuple(sorted(p)) for p in pairs))
        self.vertex_of: dict[int, int] = {
            d: i for i, c in enumerate(self.vertices) for d in c}
        self.edge_of: dict[int, int] = {
            d: i for i, p in enumerate(self.edges) for d in p}
        self._faces: Optional[tuple[tuple[int, ...], ...]] = None
        self._face_of: Optional[dict[int, int]] = None

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
        involution, i.e. the underlying graph is connected."""
        succ = {d: (self.rotation[d], self.involution[d]) for d in self.darts}
        return len(reachable(self.darts[0], succ)) == len(self.darts)

    def boundary_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of rotation . involution, each rotated to start at its
        smallest dart, sorted by that dart.  Cached."""
        if self._faces is None:
            phi = {d: self.rotation[self.involution[d]] for d in self.darts}
            seen: set[int] = set()
            faces = []
            for d0 in self.darts:
                if d0 in seen:
                    continue
                cycle = [d0]
                seen.add(d0)
                d = phi[d0]
                while d != d0:
                    cycle.append(d)
                    seen.add(d)
                    d = phi[d]
                faces.append(tuple(cycle))
            self._faces = tuple(sorted(faces, key=lambda c: c[0]))
        return self._faces

    def face_of(self) -> dict[int, int]:
        """Dart -> index of its boundary cycle.  Cached: every call
        returns the same dict, which callers must not mutate."""
        if self._face_of is None:
            self._face_of = {d: i for i, c in enumerate(self.boundary_cycles())
                             for d in c}
        return self._face_of

    def vertex_neighbors(self) -> dict[int, list[int]]:
        """Vertex adjacency lists, one entry per edge end in edge order;
        a loop lists its vertex twice among its own neighbors."""
        neighbors: dict[int, list[int]] = {v: [] for v in range(self.vertex_count)}
        for a, b in self.edges:
            va, vb = self.vertex_of[a], self.vertex_of[b]
            neighbors[va].append(vb)
            neighbors[vb].append(va)
        return neighbors

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
    cycles (keyed by boundary-cycle index)."""

    graph: FatGraph
    colors: dict[int, str]

    def boundary_ids(self, color: str) -> list[int]:
        return [i for i in sorted(self.colors) if self.colors[i] == color]

    def relabeled(self, mapping: dict[int, int]) -> "Spine":
        graph = self.graph.relabeled(mapping)
        old_faces = self.graph.boundary_cycles()
        new_face_of = graph.face_of()
        colors = {new_face_of[mapping[c[0]]]: self.colors[i]
                  for i, c in enumerate(old_faces)}
        return Spine(graph, colors)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Spine) and self.graph == other.graph
                and self.colors == other.colors)


def _check_colors_total(graph: FatGraph, colors: dict[int, str]) -> None:
    faces = graph.boundary_cycles()
    if set(colors) != set(range(len(faces))):
        raise InputError(
            f"coloring must assign exactly the boundary cycles 0..{len(faces) - 1}, "
            f"got keys {sorted(colors)}")
    bad = {i: v for i, v in colors.items() if v not in COLORS}
    if bad:
        raise InputError(f"colors must be ENTRANCE or EXIT, got {bad}")


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


def validate_spine(graph: FatGraph, colors: dict[int, str]) -> ValidationReport:
    """Check the four spine conditions plus the genus sanity check.

    The coloring must be total on the boundary cycles (``InputError``
    otherwise); a failing condition is reported, not raised.
    """
    _check_colors_total(graph, colors)
    report = ValidationReport()

    report.add("condition 1 (connected)", graph.is_connected())

    odd_vertices = [i for i, c in enumerate(graph.vertices) if len(c) % 2]
    report.add("condition 2 (even valences)", not odd_vertices,
               f"odd vertices {odd_vertices}" if odd_vertices else "")

    face_of = graph.face_of()
    bad_edges = [i for i, (a, b) in enumerate(graph.edges)
                 if colors[face_of[a]] == colors[face_of[b]]]
    report.add("condition 3 (sides alternate colors)", not bad_edges,
               f"edges with equal-colored sides {bad_edges}" if bad_edges else "")

    odd_faces = [i for i, c in enumerate(graph.boundary_cycles()) if len(c) % 2]
    report.add("condition 4 (even boundary cycles)", not odd_faces,
               f"odd boundary cycles {odd_faces}" if odd_faces else "")

    try:
        inv = surface_invariants(graph)
        report.add("surface (nonnegative integer genus)", inv.genus >= 0,
                   f"genus {inv.genus}")
    except OrientabilityError as err:
        report.add("surface (nonnegative integer genus)", False, str(err))
    return report


def is_bipartite(graph: FatGraph) -> bool:
    """True when the vertex graph admits a proper 2-coloring.  The spine
    conditions do not force this, so it is checked separately wherever
    orientations must propagate."""
    neighbors = graph.vertex_neighbors()
    covered: set[int] = set()
    for root in range(graph.vertex_count):
        if root in covered:
            continue
        sides, odd_cycle = two_color(root, neighbors)
        if odd_cycle is not None:
            return False
        covered.update(sides)
    return True


# ----------------------------------------------------------------------
# isomorphism
# ----------------------------------------------------------------------

def _propagate_bijection(g1: FatGraph, g2: FatGraph, anchor_src: int,
                         anchor_dst: int, reflect: bool) -> Optional[dict[int, int]]:
    """Extend anchor_src -> anchor_dst to a dart bijection commuting with
    the involutions and with the rotations (inverse rotation of g2 when
    ``reflect``).  Connected graphs make the extension unique."""
    rot2 = g2.rotation
    if reflect:
        rot2 = {v: k for k, v in g2.rotation.items()}
    sigma = {anchor_src: anchor_dst}
    stack = [anchor_src]
    while stack:
        d = stack.pop()
        for nxt, img in ((g1.rotation[d], rot2[sigma[d]]),
                         (g1.involution[d], g2.involution[sigma[d]])):
            if nxt in sigma:
                if sigma[nxt] != img:
                    return None
            else:
                sigma[nxt] = img
                stack.append(nxt)
    if len(sigma) != len(g1.darts) or len(set(sigma.values())) != len(sigma):
        return None
    return sigma


def induced_face_map(g1: FatGraph, g2: FatGraph, sigma: dict[int, int],
                     reflect: bool = False) -> Optional[dict[int, int]]:
    """Boundary-cycle correspondence induced by a dart bijection, or
    None when the bijection does not respect the cycles.  Under
    reflection the image of the cycle through d is the cycle through
    involution(sigma(d))."""
    face1 = g1.face_of()
    face2 = g2.face_of()
    inv2 = g2.involution
    image: dict[int, int] = {}
    for d in g1.darts:
        target = face2[inv2[sigma[d]]] if reflect else face2[sigma[d]]
        if face1[d] in image:
            if image[face1[d]] != target:
                return None
        else:
            image[face1[d]] = target
    if len(set(image.values())) != len(image):
        return None
    return image


def _face_map_ok(s1: Spine, s2: Spine, sigma: dict[int, int],
                 reflect: bool) -> bool:
    image = induced_face_map(s1.graph, s2.graph, sigma, reflect)
    if image is None:
        return False
    return all(s1.colors[f] == s2.colors[g] for f, g in image.items())


def iter_isomorphisms_tagged(s1: Spine, s2: Spine, allow_reflection: bool = False
                             ) -> Iterator[tuple[dict[int, int], bool]]:
    """All color-preserving dart bijections from s1 to s2 together with
    their reflection flag, in a fixed deterministic order (reflections
    last when enabled)."""
    g1, g2 = s1.graph, s2.graph
    if len(g1.darts) != len(g2.darts):
        return
    if sorted(g1.valences()) != sorted(g2.valences()):
        return
    profile1 = sorted((len(c), s1.colors[i])
                      for i, c in enumerate(g1.boundary_cycles()))
    profile2 = sorted((len(c), s2.colors[i])
                      for i, c in enumerate(g2.boundary_cycles()))
    if profile1 != profile2:
        return
    if not g1.is_connected() or not g2.is_connected():
        raise InputError("isomorphism search expects connected fat graphs")
    anchor = g1.darts[0]
    reflections = (False, True) if allow_reflection else (False,)
    for reflect in reflections:
        for target in g2.darts:
            sigma = _propagate_bijection(g1, g2, anchor, target, reflect)
            if sigma is not None and _face_map_ok(s1, s2, sigma, reflect):
                yield sigma, reflect


def iter_isomorphisms(s1: Spine, s2: Spine,
                      allow_reflection: bool = False) -> Iterator[dict[int, int]]:
    """All color-preserving dart bijections from s1 to s2."""
    for sigma, _ in iter_isomorphisms_tagged(s1, s2, allow_reflection):
        yield sigma


def fatgraph_isomorphic(s1: Spine, s2: Spine,
                        allow_reflection: bool = False) -> Optional[dict[int, int]]:
    """Least color-preserving isomorphism, or None.

    "Least" compares the tuple of images of the darts of s1 in sorted
    order, so the answer is independent of search order.
    """
    best = None
    best_key = None
    for sigma in iter_isomorphisms(s1, s2, allow_reflection):
        key = tuple(sigma[d] for d in s1.graph.darts)
        if best_key is None or key < best_key:
            best, best_key = sigma, key
    return best


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------

def _even_cycle_rotations(darts: list[int]) -> Iterator[list[list[int]]]:
    """All partitions of ``darts`` into cyclic sequences of even length.

    Each rotation system is produced exactly once: cycles are emitted in
    increasing order of their smallest dart, which stays first in its
    cycle.
    """
    if not darts:
        yield []
        return
    first, rest = darts[0], darts[1:]
    # choose the rest of the cycle through `first`: an ordered selection
    # of odd size from `rest`
    for size in range(1, len(rest) + 1, 2):
        for tail in itertools.permutations(rest, size):
            remaining = [d for d in rest if d not in tail]
            head = [first, *tail]
            for other in _even_cycle_rotations(remaining):
                yield [head] + other


def _face_sides(face_count: int, edge_faces: Iterable[tuple[int, int]]
                ) -> Optional[tuple[dict[int, int], list[list[int]]]]:
    """Side (0 or 1) of every boundary cycle under condition 3, and the
    components of the side-adjacency graph in order of their least
    cycle; ``edge_faces`` holds the cycles on the two sides of each
    edge.  None when some edge has both sides on one cycle or some
    component is odd."""
    adjacency: dict[int, set[int]] = {i: set() for i in range(face_count)}
    for fa, fb in edge_faces:
        if fa == fb:
            return None
        adjacency[fa].add(fb)
        adjacency[fb].add(fa)
    components: list[list[int]] = []
    assignment: dict[int, int] = {}
    for root in range(face_count):
        if root in assignment:
            continue
        sides, odd_cycle = two_color(root, adjacency)
        if odd_cycle is not None:
            return None
        assignment.update(sides)
        components.append(sorted(sides))
    return assignment, components


def _colorings(assignment: dict[int, int],
               components: list[list[int]]) -> list[dict[int, str]]:
    """Every coloring that flips whole components of a side assignment,
    the first component's flip varying slowest."""
    colorings = []
    for flips in itertools.product((0, 1), repeat=len(components)):
        coloring = {}
        for comp, flip in zip(components, flips):
            for f in comp:
                coloring[f] = COLORS[(assignment[f] + flip) % 2]
        colorings.append(coloring)
    return colorings


def _map_code(rotation, involution, start: int) -> tuple[int, ...]:
    """Breadth-first code of the map from ``start``: darts are numbered
    in discovery order, and the code lists the numbers of the rotation
    and involution images of each dart in that order."""
    number = {start: 0}
    order = [start]
    code = []
    for d in order:
        for nxt in (rotation[d], involution[d]):
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
            code.append(number[nxt])
    return tuple(code)


def _canonical_code(rotation, involution, darts) -> tuple[int, ...]:
    """The least breadth-first code over all start darts.  Two connected
    maps have equal codes exactly when a dart bijection commutes with
    their rotations and involutions, that is when they are isomorphic
    without reflection (the map codes of Brinkmann & McKay's plantri)."""
    return min(_map_code(rotation, involution, d) for d in darts)


def _even_face_table(rotation: list[int], involution: list[int],
                     darts: list[int]) -> Optional[list[int]]:
    """Dart -> index of its boundary cycle (orbit of rotation .
    involution), cycles numbered by smallest dart as in
    ``FatGraph.boundary_cycles``; None as soon as one cycle is odd.
    The tables are lists indexed by dart."""
    face_of = [-1] * len(rotation)
    face_count = 0
    for d0 in darts:
        if face_of[d0] >= 0:
            continue
        d, length = d0, 0
        while face_of[d] < 0:
            face_of[d] = face_count
            length += 1
            d = rotation[involution[d]]
        if length % 2:
            return None
        face_count += 1
    return face_of


def enumerate_spines(max_edges: int) -> Iterator[Spine]:
    """Every valid spine with at most ``max_edges`` edges, exactly once
    up to color-preserving isomorphism, in deterministic order.

    Only even edge counts occur: by condition 3 the ENTRANCE cycles
    carry one side of every edge, and by condition 4 each has even
    length, so E is even.  Within one edge count the rotation systems
    on darts 1..2E paired (1, 2), (3, 4), ... follow the order of
    ``_even_cycle_rotations`` and the colorings of each the order of
    ``_colorings``.

    Each rotation system is screened on integer tables before any
    ``FatGraph`` is built: even boundary cycles, the two sides of every
    edge on different cycles, a 2-colorable side-adjacency graph, and
    connectivity.  A survivor whose ``_canonical_code`` was seen before
    only has colorings isomorphic to spines already emitted, since a
    color-preserving isomorphism is a graph isomorphism; so only the
    colorings of a new graph are compared, among themselves.

    ``max_edges`` is capped at ``MAX_CENSUS_EDGES`` = 5, which takes
    well under a second (E = 5 is odd and costs nothing); E = 6 would
    visit 108,056,025 rotation systems.
    """
    if not 1 <= max_edges <= MAX_CENSUS_EDGES:
        raise CapacityError(
            f"max_edges must be between 1 and {MAX_CENSUS_EDGES}, got {max_edges}")
    seen_codes: set[tuple[int, ...]] = set()
    for e in range(2, max_edges + 1, 2):
        n = 2 * e
        darts = list(range(1, n + 1))
        pairs = [[d, d + 1] for d in range(1, n, 2)]
        # index 0 unused: tables are indexed by dart
        involution = [0] + [d + 1 if d % 2 else d - 1 for d in darts]
        for cycles in _even_cycle_rotations(darts):
            rotation = [0] * (n + 1)
            for cycle in cycles:
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    rotation[a] = b
            face_of = _even_face_table(rotation, involution, darts)
            if face_of is None:
                continue
            sides = _face_sides(max(face_of) + 1,
                                ((face_of[a], face_of[b]) for a, b in pairs))
            if sides is None:
                continue
            if len(reachable(1, {d: (rotation[d], involution[d])
                                 for d in darts})) != n:
                continue
            code = _canonical_code(rotation, involution, darts)
            if code in seen_codes:
                continue
            seen_codes.add(code)
            graph = FatGraph(cycles, pairs)
            kept: list[Spine] = []
            for colors in _colorings(*sides):
                spine = Spine(graph, colors)
                if any(fatgraph_isomorphic(spine, other) is not None
                       for other in kept):
                    continue
                kept.append(spine)
                yield spine


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


def spine_from_json(obj, path: str = "") -> Spine:
    if not isinstance(obj, dict):
        raise InputError(f"{path or '/'}: expected an object")
    for key in ("darts", "rotation", "edges", "colors"):
        if key not in obj:
            raise InputError(f"{path}/{key}: missing")
    arrays = {}
    for key in ("rotation", "edges"):
        if not isinstance(obj[key], list) or not all(
                isinstance(item, list) for item in obj[key]):
            raise InputError(f"{path}/{key}: expected an array of integer arrays")
        where = f"{path}/{key}"
        arrays[key] = [[read_int(d, where, i, j) for j, d in enumerate(item)]
                       for i, item in enumerate(obj[key])]
    try:
        graph = FatGraph(arrays["rotation"], arrays["edges"])
    except StructureError as err:
        raise InputError(f"{path}/rotation: {err}") from err
    if not isinstance(obj["darts"], list):
        raise InputError(f"{path}/darts: expected an array of integers")
    where = f"{path}/darts"
    darts = sorted(read_int(d, where, i) for i, d in enumerate(obj["darts"]))
    if sorted(graph.darts) != darts:
        raise InputError(f"{path}/darts: does not match rotation cycles")
    if not isinstance(obj["colors"], dict):
        raise InputError(f"{path}/colors: expected an object")
    colors = {read_index(key, f"{path}/colors", key): value
              for key, value in obj["colors"].items()}
    try:
        _check_colors_total(graph, colors)
    except InputError as err:
        raise InputError(f"{path}/colors: {err}") from err
    return Spine(graph, colors)
