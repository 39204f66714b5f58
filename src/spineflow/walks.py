"""The two graph searches the combinatorics is built on.

Transitivity is strong connectivity of the quotient graph: two
reachability searches.  Vertical-orbit directions (flipped across every
Birkhoff annulus) and spine condition 3 are proper 2-colorings.  Graphs
are mappings from a node to an iterable of its successors or neighbors;
every node reached must be a key.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Mapping, Optional


def reachable(start: Hashable, succ: Mapping[Hashable, Iterable]) -> set:
    """Every node reachable from ``start`` along ``succ``, start included."""
    seen = {start}
    stack = [start]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def two_color(root: Hashable, neighbors: Mapping[Hashable, Iterable]
              ) -> tuple[dict, Optional[list]]:
    """Breadth-first 2-coloring of the component of ``root``.

    Returns ``(sides, None)``, ``sides`` mapping each node of the
    component to 0 or 1 (``root`` to 0) in discovery order.  On the first
    conflict it stops and returns the partial ``sides`` with an odd cycle
    of nodes, ``[v]`` for a loop at ``v``; neighbors are scanned in the
    order given, so the cycle is deterministic.
    """
    sides = {root: 0}
    parent: dict = {root: None}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in neighbors[v]:
            if w not in sides:
                sides[w] = 1 - sides[v]
                parent[w] = v
                queue.append(w)
            elif sides[w] == sides[v]:
                return sides, _odd_cycle(parent, v, w)
    return sides, None


def _odd_cycle(parent, v, w) -> list:
    """Close the tree paths from v and w to their meeting ancestor."""
    up_v, up_w = [v], [w]
    while up_v[-1] is not None:
        up_v.append(parent[up_v[-1]])
    while up_w[-1] is not None:
        up_w.append(parent[up_w[-1]])
    common = next(x for x in up_v if x in set(up_w))
    path_v = up_v[:up_v.index(common) + 1]
    path_w = up_w[:up_w.index(common)]
    return path_v + path_w[::-1]
