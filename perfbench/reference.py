"""Reference answers computed without the code under test.

Everything here reads the JSON form of a specification (as written by
``gen``) and derives the quotient graph from the documented
conventions, with faces traced by the oracle ``face_walks`` and an
independent breadth-first orientation pass.  Connectivity goes through
``oracles.strongly_connected_by_closure``, matrix normal forms through
``oracles.least_normal_candidate``, and periodic-word counts through
the necklace trace formula (Lind & Marcus, *An Introduction to Symbolic
Dynamics and Coding*, 1995, ch. 4): the number of rotation classes of
closed walks of length n is (1/n) * sum over d | n of phi(n/d) tr(A^d).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import gen


@dataclass(frozen=True)
class Arcs:
    """The quotient graph of one specification, as plain data."""

    tori: tuple[str, ...]
    orbits: tuple[str, ...]
    #: (label, src, dst, piece, edge index, sign), in library order
    edges: tuple[tuple, ...]
    accumulation: frozenset

    @cached_property
    def arc_set(self) -> frozenset:
        return frozenset((src, dst) for _, src, dst, *_ in self.edges)

    @cached_property
    def sign_of(self) -> dict[str, int]:
        return {label: sign for label, *_, sign in self.edges}

    def graph_json(self) -> dict:
        """The payload ``build-graph`` must print."""
        return {
            "vertices": list(self.tori) + list(self.orbits),
            "edges": [{"from": src, "to": dst, "piece": piece, "edge": i,
                       "sign": sign}
                      for _, src, dst, piece, i, sign in self.edges],
            "accumulation": [{"from": a, "to": b}
                             for a, b in sorted(self.accumulation)],
        }


def _torus(label: str) -> tuple[str, int]:
    head, _, tail = label.rpartition(".c")
    return head, int(tail)


def orientation(spine: dict, seed: tuple[int, int]) -> dict[int, int]:
    """Signs per canonical vertex index: the seed, flipped across every
    edge.  The specs here are bipartite, so no conflict can arise."""
    cycles = sorted(spine["rotation"], key=min)
    vertex_of = {d: i for i, c in enumerate(cycles) for d in c}
    signs = {seed[0]: seed[1]}
    frontier = [seed[0]]
    while frontier:
        v = frontier.pop()
        for a, b in spine["edges"]:
            ends = (vertex_of[a], vertex_of[b])
            if v in ends:
                w = ends[1] if ends[0] == v else ends[0]
                if w not in signs:
                    signs[w] = -signs[v]
                    frontier.append(w)
    return signs


def orientation_classes(spec: dict) -> list[str]:
    """The 2^k classes ``orient`` must print, as sorted canonical JSON:
    every combination of per-piece negations of the seeded orientation."""
    base = {p["id"]: orientation(p["spine"], tuple(spec["orientation_seed"][p["id"]]))
            for p in spec["pieces"]}
    ids = sorted(base)
    return sorted(
        json.dumps({pid: {str(v): s * flip for v, s in sorted(base[pid].items())}
                    for pid, flip in zip(ids, flips)}, sort_keys=True)
        for flips in itertools.product((1, -1), repeat=len(ids)))


def arcs(oracles, spec: dict) -> Arcs:
    entrance_at, exit_at = {}, {}
    for k, (src, dst) in enumerate(spec["pairing"]):
        exit_at[_torus(src)] = k
        entrance_at[_torus(dst)] = k
    tori = tuple(f"T{k}" for k in range(len(spec["pairing"])))
    orbits, edges, accumulation = [], [], set()
    for piece in spec["pieces"]:
        pid, spine = piece["id"], piece["spine"]
        cycles = sorted(spine["rotation"], key=min)
        vertex_of = {d: i for i, c in enumerate(cycles) for d in c}
        walks = gen.faces(oracles, spine)
        face_of = {d: i for i, w in enumerate(walks) for d in w}
        color = {int(f): c for f, c in spine["colors"].items()}
        signs = orientation(spine, tuple(spec["orientation_seed"][pid]))
        orbits += [f"{pid}.v{v}" for v in range(len(cycles))]
        for i, (a, b) in enumerate(sorted(sorted(e) for e in spine["edges"])):
            d_in, d_out = (a, b) if color[face_of[a]] == "ENTRANCE" else (b, a)
            edges.append((f"{pid}.e{i}",
                          tori[entrance_at[(pid, face_of[d_in])]],
                          tori[exit_at[(pid, face_of[d_out])]],
                          pid, i, signs[vertex_of[d_in]]))
        for f, walk in enumerate(walks):
            for v in {vertex_of[d] for d in walk}:
                orbit = f"{pid}.v{v}"
                if color[f] == "ENTRANCE":
                    accumulation.add((tori[entrance_at[(pid, f)]], orbit))
                else:
                    accumulation.add((orbit, tori[exit_at[(pid, f)]]))
    return Arcs(tori, tuple(orbits), tuple(edges), frozenset(accumulation))


def realizable(ref: Arcs, body, head, tail) -> bool:
    """Arc / accumulation-set check of an itinerary window."""
    if not body:
        return head is not None and head == tail
    if any((a, b) not in ref.arc_set for a, b in zip(body, body[1:])):
        return False
    if head is not None and (head, body[0]) not in ref.accumulation:
        return False
    return tail is None or (body[-1], tail) in ref.accumulation


def transitive(oracles, ref: Arcs) -> bool:
    return oracles.strongly_connected_by_closure(list(ref.tori), set(ref.arc_set))


def _phi(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


def necklace_counts(ref: Arcs, max_len: int) -> dict[int, int]:
    """Rotation classes of closed walks per length 1..max_len, zero
    lengths left out, by the trace formula."""
    index = {t: i for i, t in enumerate(ref.tori)}
    n = len(ref.tori)
    adj = [[0] * n for _ in range(n)]
    for _, src, dst, *_ in ref.edges:
        adj[index[src]][index[dst]] += 1
    traces, power = [], [row[:] for row in adj]
    for _ in range(max_len):
        traces.append(sum(power[i][i] for i in range(n)))
        power = [[sum(power[i][m] * adj[m][j] for m in range(n))
                  for j in range(n)] for i in range(n)]
    counts = {}
    for length in range(1, max_len + 1):
        total = sum(_phi(length // d) * traces[d - 1]
                    for d in range(1, length + 1) if length % d == 0)
        if total:
            counts[length] = total // length
    return counts


def walk_sign(ref: Arcs, walk) -> int:
    return math.prod(ref.sign_of[label] for label in walk)


def normal_form(oracles, rows) -> list[list[int]]:
    (a, b), (c, d) = rows
    span = max(abs(a), abs(d)) // abs(c) + 2
    a, b, c, d = oracles.least_normal_candidate((a, b, c, d), span)
    return [[a, b], [c, d]]
