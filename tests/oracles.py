"""Independent brute-force oracles.

Everything here is deliberately written from scratch against the
documented conventions, without calling into the library paths it
checks: faces are walked dart by dart, fat-graph isomorphisms are found
by trying every edge permutation and flip, connectivity goes through
union-find, reachability through a Floyd-Warshall closure, itinerary
languages and closed walks through plain depth-first enumeration,
matrix normal forms through bounded orbit search, and spine counts by
Burnside's lemma over transitive permutation pairs.
"""

from __future__ import annotations

import itertools
import math


# -- fat graph side ----------------------------------------------------

def face_walks(rotation: dict, involution: dict) -> list[list[int]]:
    """Orbits of d -> rotation[involution[d]], one list per orbit,
    starting at the smallest dart of the orbit, sorted."""
    remaining = set(rotation)
    walks = []
    while remaining:
        start = min(remaining)
        walk = [start]
        remaining.discard(start)
        d = rotation[involution[start]]
        while d != start:
            walk.append(d)
            remaining.discard(d)
            d = rotation[involution[d]]
        walks.append(walk)
    return sorted(walks, key=lambda w: w[0])


def edge_isomorphisms(s1, s2, reflect: bool) -> list[dict[int, int]]:
    """Every color-preserving dart bijection from spine s1 to spine s2
    that commutes with the involutions and carries the rotation of s1 to
    the rotation of s2 (its inverse when ``reflect``).

    Every permutation of the edges is tried with every choice of which
    way each edge is laid onto its image: E! * 2^E candidates.  Colors
    are read off ``face_walks``: the boundary cycle through d goes to
    the cycle through sigma(d), or, under reflection, through the
    partner of sigma(d).  Sorted by the images of the darts in
    ascending order.
    """
    g1, g2 = s1.graph, s2.graph

    def edges(involution):
        return sorted({tuple(sorted((d, involution[d]))) for d in involution})

    def color_of_dart(spine):
        walks = face_walks(spine.graph.rotation, spine.graph.involution)
        return {d: spine.colors[i] for i, walk in enumerate(walks)
                for d in walk}

    edges1, edges2 = edges(g1.involution), edges(g2.involution)
    if len(edges1) != len(edges2):
        return []
    rot2 = g2.rotation
    if reflect:
        rot2 = {nxt: d for d, nxt in g2.rotation.items()}
    color1, color2 = color_of_dart(s1), color_of_dart(s2)
    found = []
    for image in itertools.permutations(edges2):
        for flips in itertools.product((False, True), repeat=len(edges1)):
            sigma = {}
            for (a, b), (c, d), flip in zip(edges1, image, flips):
                sigma[a], sigma[b] = (d, c) if flip else (c, d)
            if any(sigma[g1.rotation[d]] != rot2[sigma[d]] for d in sigma):
                continue
            if any(color1[d] != color2[g2.involution[sigma[d]] if reflect
                                       else sigma[d]] for d in sigma):
                continue
            found.append(sigma)
    return sorted(found, key=lambda sigma: [sigma[d] for d in sorted(sigma)])


def union_find_connected(cycles: list[list[int]], pairs: list[tuple[int, int]]
                         ) -> bool:
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    vertex_index = {}
    for i, cycle in enumerate(cycles):
        parent[("v", i)] = ("v", i)
        for d in cycle:
            vertex_index[d] = i
    for a, b in pairs:
        union(("v", vertex_index[a]), ("v", vertex_index[b]))
    roots = {find(("v", i)) for i in range(len(cycles))}
    return len(roots) == 1


def spine_conditions(cycles: list[list[int]], pairs: list[tuple[int, int]],
                     colors_by_face: dict[int, str]) -> dict[str, bool]:
    """The four spine conditions, computed from first principles."""
    rotation = {}
    for cycle in cycles:
        for d, dnext in zip(cycle, cycle[1:] + cycle[:1]):
            rotation[d] = dnext
    involution = {}
    for a, b in pairs:
        involution[a] = b
        involution[b] = a
    walks = face_walks(rotation, involution)
    face_index = {d: i for i, walk in enumerate(walks) for d in walk}

    connected = union_find_connected(cycles, pairs)
    even_valences = all(len(cycle) % 2 == 0 for cycle in cycles)
    sides_differ = all(
        colors_by_face[face_index[a]] != colors_by_face[face_index[b]]
        for a, b in pairs)
    even_faces = all(len(walk) % 2 == 0 for walk in walks)
    return {
        "connected": connected,
        "even_valences": even_valences,
        "sides_differ": sides_differ,
        "even_faces": even_faces,
    }


def transitive_even_pair_counts(top: int) -> list[int]:
    """T(n) for n = 0..top: ordered pairs of permutations of n points,
    all cycles even, generating a transitive group.  There are b(n)^2
    pairs with b(n) = ((n - 1)!!)^2 for even n and 0 for odd n, and
    transitive ones are the connected objects of that species, so
    sum T(n) x^n / n! = log sum b(n)^2 x^n / n!.  In integers: the
    orbit of the first point has some size k, so b(n)^2 is the sum over
    k of C(n - 1, k - 1) T(k) b(n - k)^2."""
    def even_cycle_perms(n: int) -> int:
        return 0 if n % 2 else math.prod(range(1, n, 2)) ** 2

    a = [even_cycle_perms(n) ** 2 for n in range(top + 1)]
    c = [0] * (top + 1)
    for n in range(1, top + 1):
        c[n] = a[n] - sum(math.comb(n - 1, k - 1) * c[k] * a[n - k]
                          for k in range(1, n))
    return c


def _lifted_cycles_even(perm, voltage, d: int) -> bool:
    """Whether every cycle of the lift (i, a) -> (perm[i], a + voltage[i])
    on m blocks of Z_d is even: a cycle of perm of length l and voltage
    sum s lifts to cycles of length l * d / gcd(s, d)."""
    placed = set()
    for start in range(len(perm)):
        if start in placed:
            continue
        length, total, i = 0, 0, start
        while i not in placed:
            placed.add(i)
            length, total, i = length + 1, total + voltage[i], perm[i]
        if length * (d // math.gcd(total, d)) % 2:
            return False
    return True


def centralizer_even_pair_count(d: int, m: int) -> int:
    """F_d: the transitive pairs (x, y) of permutations of d * m points,
    all cycles even, that commute with g = (i, a) -> (i, a + 1) on m
    blocks of Z_d.  The centralizer of g is Z_d wr S_m: (i, a) ->
    (p(i), a + v(i)), a block permutation p with a voltage per block.
    The blocks that x and y permute form a transitive pair on m points,
    and conjugating by (identity, h) changes each voltage v(i) by
    h(p(i)) - h(i), freely up to the constant h; so each gauge class,
    of d^(m - 1) assignments, has exactly one with zero voltage on a
    spanning tree of the block graph.  That one lifts to a transitive
    pair exactly when its m + 1 other voltages generate Z_d."""
    total = 0
    perms = list(itertools.permutations(range(m)))
    for bx, by in itertools.product(perms, repeat=2):
        # the blocks reached from block 0, and the edge that reached each
        tree, reached, queue = set(), {0}, [0]
        for i in queue:
            for letter, j in ((0, bx[i]), (1, by[i])):
                if j not in reached:
                    reached.add(j)
                    queue.append(j)
                    tree.add((letter, i))
        if len(reached) < m:
            continue  # not transitive on the blocks
        cotree = [(letter, i) for letter in (0, 1) for i in range(m)
                  if (letter, i) not in tree]
        for values in itertools.product(range(d), repeat=len(cotree)):
            if math.gcd(d, *values) != 1:
                continue
            voltages = ([0] * m, [0] * m)
            for (letter, i), value in zip(cotree, values):
                voltages[letter][i] = value
            if (_lifted_cycles_even(bx, voltages[0], d)
                    and _lifted_cycles_even(by, voltages[1], d)):
                total += d ** (m - 1)
    return total


def burnside_spine_count(edges: int) -> int:
    """Spines with ``edges`` edges up to color-preserving isomorphism,
    counted without listing them: the orbits of S_E on transitive pairs
    of all-even-cycle permutations (x, y) under simultaneous conjugation
    (the ENTRANCE and EXIT successors of each edge).  By Burnside, with
    g fixing a transitive pair only when all its cycles have one length
    d dividing E (Mednykh & Nedela, "Enumeration of unrooted
    hypermaps", J. Combin. Theory Ser. B 96, 2006):

        #spines(E) = sum over d | E of F_d / (d^(E/d) * (E/d)!),

    the denominator the centralizer order of g.  F_1 is
    ``transitive_even_pair_counts``; the others come from
    ``centralizer_even_pair_count``.  E = 10 gives 218,608 in about
    3 s."""
    total = 0
    for d in range(1, edges + 1):
        if edges % d == 0:
            m = edges // d
            fixed = (transitive_even_pair_counts(edges)[edges] if d == 1
                     else centralizer_even_pair_count(d, m))
            # E! / (d^m m!) permutations g have this cycle type
            conjugates = math.factorial(edges) // (d ** m * math.factorial(m))
            total += fixed * conjugates
    count, rest = divmod(total, math.factorial(edges))
    assert rest == 0
    return count


# -- flow graph side ---------------------------------------------------

def reachability_closure(vertices: list[str], arcs: set[tuple[str, str]]
                         ) -> dict[tuple[str, str], bool]:
    """Floyd-Warshall transitive closure over directed arcs."""
    reach = {(u, v): (u, v) in arcs for u in vertices for v in vertices}
    for w in vertices:
        for u in vertices:
            if not reach[(u, w)]:
                continue
            for v in vertices:
                if reach[(w, v)]:
                    reach[(u, v)] = True
    return reach


def strongly_connected_by_closure(vertices: list[str],
                                  arcs: set[tuple[str, str]]) -> bool:
    if len(vertices) <= 1:
        return True
    reach = reachability_closure(vertices, arcs)
    return all(reach[(u, v)] for u in vertices for v in vertices if u != v)


def itinerary_language(tori: list[str], arcs: set[tuple[str, str]],
                       accumulation: set[tuple[str, str]],
                       orbits: list[str], max_body: int
                       ) -> set[tuple]:
    """Every realizable (head, body, tail) triple with body length up
    to ``max_body``, enumerated from scratch."""
    language: set[tuple] = set()
    for orbit in orbits:
        language.add((orbit, (), orbit))
    bodies = [(t,) for t in tori]
    for body in bodies:
        language.update(_decorate(body, accumulation, orbits))
    for _ in range(max_body - 1):
        longer = []
        for body in bodies:
            for t in tori:
                if (body[-1], t) in arcs:
                    longer.append(body + (t,))
        for body in longer:
            language.update(_decorate(body, accumulation, orbits))
        bodies = longer
    return language


def _decorate(body, accumulation, orbits):
    heads = [None] + [o for o in orbits if (o, body[0]) in accumulation]
    tails = [None] + [o for o in orbits if (body[-1], o) in accumulation]
    for head in heads:
        for tail in tails:
            yield (head, body, tail)


def closed_walks_up_to_rotation(edges: list[tuple[str, str, str]],
                                max_len: int) -> set[tuple[str, ...]]:
    """Closed directed edge walks of length <= max_len, one canonical
    rotation each.  ``edges`` holds (label, src, dst)."""
    by_src: dict[str, list[tuple[str, str, str]]] = {}
    seen_vertices = set()
    for label, src, dst in edges:
        by_src.setdefault(src, []).append((label, src, dst))
        seen_vertices.update((src, dst))

    def all_rotations(walk):
        return [walk[i:] + walk[:i] for i in range(len(walk))]

    found: set[tuple[str, ...]] = set()

    def grow(origin, here, walk):
        if len(walk) >= max_len:
            return
        for label, _, dst in by_src.get(here, ()):
            if dst == origin:
                found.add(min(all_rotations(tuple(walk) + (label,))))
            grow(origin, dst, walk + [label])

    for origin in sorted(seen_vertices):
        grow(origin, origin, [])
    return found


# -- matrices ----------------------------------------------------------

def matrix_orbit(entries: tuple[int, int, int, int], span: int
                 ) -> set[tuple[int, int, int, int]]:
    """Orbit of a 2x2 matrix under sign flips on both sides and twist
    exponents bounded by ``span``."""

    def mul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    factors = []
    for sv, sh in itertools.product((1, -1), repeat=2):
        for n in range(-span, span + 1):
            factors.append(mul((sv, 0, 0, sh), (1, n, 0, 1)))
    orbit = set()
    for left in factors:
        lm = mul(left, entries)
        for right in factors:
            orbit.add(mul(lm, right))
    return orbit


def least_normal_candidate(entries: tuple[int, int, int, int], span: int
                           ) -> tuple[int, int, int, int]:
    """Lexicographically least (c, a, d, b) over the bounded orbit,
    restricted to representatives with c > 0 and a, d reduced mod c."""
    best = None
    for a, b, c, d in matrix_orbit(entries, span):
        if c <= 0 or not (0 <= a < c and 0 <= d < c):
            continue
        key = (c, a, d, b)
        if best is None or key < best:
            best = key
    assert best is not None
    c, a, d, b = best
    return a, b, c, d
