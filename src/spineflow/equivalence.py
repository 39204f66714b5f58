"""Equality of model-flow specifications under the allowed moves.

Two specifications describe the same flow when some relabeling of
pieces and darts (a color-, coefficient- and orientation-preserving
isomorphism of the spines, compatible with the pairings) matches their
gluing matrices.  How closely the matrices must match is the *mode*:

* ``EXACT``: entry for entry.
* ``ISOTOPY``: up to the four basis choices per torus, i.e. up to
  multiplying either side by a diagonal sign matrix.
* ``ISOTOPY_WITH_TWISTS``: additionally up to vertical Dehn twists on
  either side, i.e. up to integer upper-unipotent factors.  Twisting
  along a vertical curve never changes the isotopy class of the flow,
  so this is the coarsest, flow-faithful comparison.

Orientation assignments must correspond pointwise under the bijection
in every mode; negating a piece wholesale reverses its vertical orbits
and changes the class, so it is never allowed.

Every positive answer comes with a witness that replays mechanically:
``verify_witness`` applies it to the first specification and compares
with the second, entry for entry.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .errors import InputError, Opt, Table, conform, quote
from .fatgraph import induced_face_map, iter_isomorphisms_tagged
from .model import (CheckedSpec, GluingMatrix, ModelFlowSpec, ModelPiece,
                    TorusId, check_spec, seed_orientation, torus_label)

Mat = tuple[int, int, int, int]  # row major (a, b, c, d)


def _mul(m: Mat, n: Mat) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


class EquivalenceMode(enum.Enum):
    EXACT = "exact"
    ISOTOPY = "isotopy"
    ISOTOPY_WITH_TWISTS = "isotopy-with-twists"

    @classmethod
    def parse(cls, text: str) -> "EquivalenceMode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise InputError(f"unknown mode {quote(text)}; expected one of "
                         + ", ".join(m.value for m in cls))


def _check_mode(mode) -> None:
    """``InputError`` unless ``mode`` is an ``EquivalenceMode`` member:
    its value text is not read as the mode."""
    if type(mode) is not EquivalenceMode:
        raise InputError("mode must be an EquivalenceMode member, got "
                         + quote(mode))


def normalize_matrix(matrix: GluingMatrix) -> GluingMatrix:
    """Canonical representative of a gluing matrix modulo vertical
    twists and basis flips on both sides: c > 0, a and d reduced mod c,
    b pinned by the surviving determinant.

    The moves generate, on each side, every integer matrix
    [[+-1, n], [0, +-1]].  Acting by them sends (a, d) to
    (s*a mod |c|, t*d mod |c|) for independent signs s, t, flips the
    determinant by s*t, and pins b through the determinant identity.
    The representative is the lexicographically least (c, a, d, b)
    with c > 0.
    """
    if not matrix.is_valid():
        raise InputError(f"not a gluing matrix: {matrix.rows()} "
                         "(need |det| = 1 and c != 0)")
    return GluingMatrix(*_twist_form(matrix))


_SIGN_PAIRS = tuple(itertools.product((1, -1), repeat=2))


def _twist_form(matrix: GluingMatrix) -> Mat:
    """The entries of ``normalize_matrix`` for a gluing matrix."""
    a0, b0, c0, d0 = matrix
    c, det = abs(c0), a0 * d0 - b0 * c0
    best: Optional[tuple[int, int, int]] = None
    for s, t in _SIGN_PAIRS:
        a = (s * a0) % c
        d = (t * d0) % c
        b = (a * d - s * t * det) // c
        if best is None or (a, d, b) < best:
            best = (a, d, b)
    a, d, b = best
    return a, b, c, d


#: the JSON shape of a witness (see ``errors.conform``); every section
#: may be left out
WITNESS_SHAPE = {
    "piece_map": Opt(Table(str, str)),
    "dart_maps": Opt(Table(str, Table(int, int))),
    "basis_signs": Opt(Table(str, (int, int))),
    "twists": Opt(Table(int, (int, int))),
    "reflected": Opt(Table(str, bool)),
}


@dataclass(frozen=True)
class EquivalenceWitness:
    """A replayable equivalence: where every piece, dart and torus
    goes, which basis signs flip, and how much each gluing twists.

    ``basis_signs`` is keyed by the labels of the first specification's
    boundary tori; entrance-torus signs act on the left of the gluing
    matrix of their pair, exit-torus signs on the right.  ``twists``
    holds (left, right) exponents per pairing index of the first
    specification.  The matrix check replayed by ``verify_witness`` is

        diag(entrance signs) . U(left) . M . U(right) . diag(exit signs)
        == matrix of the corresponding pair of the second specification.
    """

    piece_map: dict[str, str]
    dart_maps: dict[str, dict[int, int]]
    basis_signs: dict[str, tuple[int, int]] = field(default_factory=dict)
    twists: dict[int, tuple[int, int]] = field(default_factory=dict)
    reflected: dict[str, bool] = field(default_factory=dict)

    def left_factor(self, entrance: TorusId, pair_index: int) -> Mat:
        return self._factor(torus_label(entrance), pair_index, left=True)

    def right_factor(self, exit_torus: TorusId, pair_index: int) -> Mat:
        return self._factor(torus_label(exit_torus), pair_index, left=False)

    def _factor(self, label: str, pair_index: int, left: bool) -> Mat:
        """The left factor of a pair at its entrance, diag(signs) . U(t)
        for its left twist t, or the right one at its exit,
        U(t) . diag(signs) for its right twist, by the torus's label."""
        sv, sh = self.basis_signs.get(label, (1, 1))
        twist = self.twists.get(pair_index, (0, 0))[0 if left else 1]
        return sv, (sv if left else sh) * twist, 0, sh

    def to_json(self) -> dict:
        return {
            "piece_map": dict(sorted(self.piece_map.items())),
            "dart_maps": {pid: {str(d): img for d, img in sorted(m.items())}
                          for pid, m in sorted(self.dart_maps.items())},
            "basis_signs": {label: list(signs) for label, signs
                            in sorted(self.basis_signs.items())},
            "twists": {str(k): list(t) for k, t in sorted(self.twists.items())},
            "reflected": dict(sorted(self.reflected.items())),
        }

    @classmethod
    def from_json(cls, obj, path: str = "") -> "EquivalenceWitness":
        conform(obj, WITNESS_SHAPE, path)
        return cls(
            piece_map=dict(obj.get("piece_map", {})),
            dart_maps={p: {int(d): img for d, img in m.items()}
                       for p, m in obj.get("dart_maps", {}).items()},
            basis_signs={k: tuple(v)
                         for k, v in obj.get("basis_signs", {}).items()},
            twists={int(k): tuple(v) for k, v in obj.get("twists", {}).items()},
            reflected=dict(obj.get("reflected", {})),
        )


# ----------------------------------------------------------------------
# matrix matching per mode
# ----------------------------------------------------------------------

def _match_matrices(m1: GluingMatrix, m2: GluingMatrix, mode: EquivalenceMode
                    ) -> Optional[tuple[tuple[int, int], tuple[int, int],
                                        tuple[int, int]]]:
    """Factors turning m1 into m2 under the mode's moves.

    Returns (entrance signs, exit signs, (left twist, right twist)) or
    None.  The first solution in a fixed sign order is returned, so
    witnesses are deterministic.  Forms decide matches in the search,
    which calls this only to write a witness's factors.
    """
    if mode is EquivalenceMode.EXACT:
        if m1 == m2:
            return (1, 1), (1, 1), (0, 0)
        return None
    if abs(m1.c) != abs(m2.c):
        return None
    want_s = m2.c // m1.c
    for e1, f1, e2, f2 in itertools.product((1, -1), repeat=4):
        if e2 * f1 != want_s:
            continue
        if mode is EquivalenceMode.ISOTOPY:
            x = y = 0
        else:
            num_x = m2.a - e1 * e2 * m1.a
            num_y = m2.d - f1 * f2 * m1.d
            if num_x % (e2 * m1.c) or num_y % (f1 * m1.c):
                continue
            x = num_x // (e2 * m1.c)
            y = num_y // (f1 * m1.c)
        left: Mat = (e1, x, 0, f1)
        right: Mat = (e2, y, 0, f2)
        if _mul(_mul(left, m1), right) == m2:
            # left = diag(e1, f1) . U(e1 * x), right = U(f2 * y) . diag(e2, f2)
            return (e1, f1), (e2, f2), (e1 * x, f2 * y)
    return None


def _matrix_forms(matrices, mode: EquivalenceMode) -> list[Mat]:
    """The mode form of each gluing matrix: two forms are equal exactly
    when ``_match_matrices`` matches the matrices.

    EXACT keeps the matrices themselves.  ISOTOPY moves a matrix to
    (e1e2 a, e1f2 b, f1e2 c, f1f2 d): any signs on a, b and c, and on d
    the product of those three.  The form makes a, b and c
    non-negative; that fixes the sign of d, unless one of them is 0 and
    d is made non-negative too.  ISOTOPY_WITH_TWISTS takes the entries
    of ``normalize_matrix``."""
    if mode is EquivalenceMode.EXACT:
        return list(matrices)
    if mode is EquivalenceMode.ISOTOPY:
        return [_sign_form(m) for m in matrices]
    return [_twist_form(m) for m in matrices]


def _sign_form(m: GluingMatrix) -> Mat:
    """The ISOTOPY form of ``_matrix_forms``."""
    a, b, c, d = m
    signs = a * b * c
    d = abs(d) if signs == 0 else d if signs > 0 else -d
    return abs(a), abs(b), abs(c), d


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def _summary(checked: CheckedSpec, pieces: list[ModelPiece],
             index: dict[str, int], forms: list[Mat]
             ) -> tuple[list[tuple], list[tuple]]:
    """The vertex labels and keys of ``pieces``, the pieces of a checked
    specification in the order of ``index``, from one walk over its
    pairing and one over its pieces; ``forms`` holds the mode form of
    each pair's matrix.

    * labels[i]: the (Dehn p, q, propagated sign) of each vertex of
      piece i, in vertex order, as a tuple.
    * keys[i]: the colored boundary shape of piece i (the sorted
      (length, color) of its boundary cycles), its sorted per-vertex
      (valence, Dehn p, q, propagated sign), the number of pairs gluing
      it to itself, and the sorted forms of the pairs leaving it and of
      the pairs entering it; a pair from a piece to itself is in both.

    Every piece pair the search accepts has equal keys, with or without
    reflection: ``iter_isomorphisms_tagged`` keeps valences, the
    colored shape and, given these labels, coefficients and signs, and
    a witness keeps colors, so it sends the exits of a piece
    to exits of its image and each pair to a pair of equal form.  The
    pair forms make the key one refinement step of McKay & Piperno,
    "Practical graph isomorphism II", 2014, with the forms as the
    colors of the links.  If reflection ever changes coefficients or
    signs, these keys must change with it."""
    self_pairs = [0] * len(pieces)
    leaving: list[list[Mat]] = [[] for _ in pieces]
    entering: list[list[Mat]] = [[] for _ in pieces]
    for ((src_piece, _), (dst_piece, _)), form in zip(checked.spec.pairing,
                                                      forms):
        i, j = index[src_piece], index[dst_piece]
        self_pairs[i] += i == j
        leaving[i].append(form)
        entering[j].append(form)
    shapes: dict[int, tuple] = {}
    labels, keys = [], []
    for i, piece in enumerate(pieces):
        spine, graph, dehn = piece.spine, piece.spine.graph, piece.dehn
        signs = checked.signs[piece.piece_id]
        labels.append(tuple((*dehn[v], signs[v]) for v in piece.vertices()))
        if id(spine) not in shapes:
            shapes[id(spine)] = tuple(sorted(
                [(len(cycle), spine.colors[f])
                 for f, cycle in enumerate(graph.boundary_cycles())]))
        vertices = sorted(zip(map(len, graph.vertices), labels[i]))
        keys.append((shapes[id(spine)], tuple(vertices), self_pairs[i],
                     tuple(sorted(leaving[i])), tuple(sorted(entering[i]))))
    return labels, keys


def _choices(depth: int, options):
    """Every sequence of ``depth`` entries in which each entry is one of
    ``options(prefix)``, the entries offered after the sequence so far,
    in the order that ``options`` offers them.

    The walk keeps its own stack, one iterator per level it has reached,
    so the depth is not bounded by Python's recursion limit."""
    if not depth:
        yield ()
        return
    prefix: tuple = ()
    stack = [iter(options(prefix))]
    while stack:
        for entry in stack[-1]:
            break
        else:
            stack.pop()
            prefix = prefix[:-1]
            continue
        if len(stack) == depth:
            yield prefix + (entry,)
        else:
            prefix += (entry,)
            stack.append(iter(options(prefix)))


def spec_equivalent(s1: ModelFlowSpec, s2: ModelFlowSpec,
                    mode: EquivalenceMode = EquivalenceMode.ISOTOPY_WITH_TWISTS,
                    allow_reflection: bool = False
                    ) -> Optional[EquivalenceWitness]:
    """Search for an equivalence witness from s1 to s2.

    Before any search, each specification is summarized once: the mode
    form of each matrix (``_matrix_forms``) and the key of each piece
    (``_summary``), its colored boundary shape, vertex labels, self-gluing
    count and the sorted forms of its pairs.  A witness pairs equal forms
    and equal keys, so the answer is None, and no isomorphism is listed,
    when the sorted forms or, checked next, the sorted keys differ: cheap
    invariants and one refinement step first, as in McKay & Piperno,
    "Practical graph isomorphism II", 2014.

    The search then places the pieces of s1 one at a time, in an order
    read off s1 alone: the least unplaced piece (in sorted id order)
    that a pair links to a placed piece, else the least unplaced piece,
    which starts a new component.  The pairs from a linked piece to
    placed pieces name, through the images of their placed ends and the
    pairing of s2, its one possible image and the face that each of its
    ends must reach; an unlinked piece tries every unused image with an
    equal key, in id order.  Each image is tried with each color-,
    coefficient- and orientation-preserving dart bijection, in the
    order ``iter_isomorphisms_tagged`` lists them, and each pair of s1
    must map to a pair of s2 with an equal form once the later of its
    pieces is placed.  The witness is the search's dart bijections with
    their face maps and the matrix factors that ``_match_matrices``
    solves afterwards, once per pair.

    Pruning only removes choices that cannot be completed, so the
    witness returned is the least one when each witness is written as
    the (image index, position of the dart bijection in its list) of
    every piece, in placement order.  ``mode`` must be an
    ``EquivalenceMode`` member and ``allow_reflection`` a ``bool``;
    anything else raises ``InputError`` before any check.
    """
    _check_mode(mode)
    if type(allow_reflection) is not bool:
        raise InputError("allow_reflection must be True or False, got "
                         + quote(allow_reflection))
    return _search(check_spec(s1, "first specification"),
                   check_spec(s2, "second specification"),
                   mode, allow_reflection)


def _search(c1: CheckedSpec, c2: CheckedSpec, mode: EquivalenceMode,
            allow_reflection: bool) -> Optional[EquivalenceWitness]:
    """``spec_equivalent`` on checked specifications.

    The isomorphisms that preserve colors, Dehn coefficients and orbit
    orientations are listed once per pair of ``Spine`` objects and pair
    of vertex labels (``_summary``), when the pair is first reached.
    Pieces with equal spines share one object after ``spec_from_json``,
    so a chain of k alike pieces lists one pair per pair of labels
    instead of up to k^2 piece pairs.  One ``_choices`` walk
    places the pieces: level n places the n-th piece of the placement
    order by an entry (image index, dart bijection, reflection flag,
    face map).  Nothing is kept between calls."""
    s1, s2 = c1.spec, c2.spec
    if len(s1.pieces) != len(s2.pieces):
        return None

    forms1 = _matrix_forms(s1.matrices, mode)
    forms2 = _matrix_forms(s2.matrices, mode)
    if sorted(forms1) != sorted(forms2):
        return None
    pieces1 = sorted(s1.pieces, key=lambda p: p.piece_id)
    pieces2 = sorted(s2.pieces, key=lambda p: p.piece_id)
    index1 = {p.piece_id: i for i, p in enumerate(pieces1)}
    index2 = {p.piece_id: i for i, p in enumerate(pieces2)}
    labels1, keys1 = _summary(c1, pieces1, index1, forms1)
    labels2, keys2 = _summary(c2, pieces2, index2, forms2)
    if sorted(keys1) != sorted(keys2):
        return None
    listed: dict[tuple, list] = {}

    def isomorphisms(i: int, j: int) -> list:
        """(sigma, reflect, boundary cycle -> boundary cycle) for the
        dart bijections pieces1[i] -> pieces2[j]."""
        spine1, spine2 = pieces1[i].spine, pieces2[j].spine
        key = (id(spine1), id(spine2), labels1[i], labels2[j])
        if key not in listed:
            listed[key] = list(iter_isomorphisms_tagged(
                spine1, spine2, allow_reflection, (labels1[i], labels2[j])))
        return listed[key]

    k = len(pieces1)
    ends_at: list[list[tuple]] = [[] for _ in pieces1]
    for n, ((src, out), (dst, into)) in enumerate(s1.pairing):
        i, j = index1[src], index1[dst]
        ends_at[i].append((n, 0, out, j, into))
        ends_at[j].append((n, 1, into, i, out))
    # steps[level]: the piece placed there, its (pair, side of its end,
    # its face, level of the other end, face there) per pair to a piece
    # placed before it, and its (pair, exit, entrance) per pair to itself
    steps: list[tuple[int, list, list]] = []
    level_of: list[Optional[int]] = [None] * k
    linked: list[int] = []
    for root in range(k):
        heapq.heappush(linked, root)
        while linked:
            i = heapq.heappop(linked)
            if level_of[i] is not None:
                continue
            level_of[i] = len(steps)
            links, loops = [], []
            for n, side, face, a, other in ends_at[i]:
                if a == i:
                    if not side:
                        loops.append((n, face, other))
                elif level_of[a] is None:
                    heapq.heappush(linked, a)
                else:
                    links.append((n, side, face, level_of[a], other))
            steps.append((i, links, loops))
    piece_ids2, pair_of2 = [p.piece_id for p in pieces2], c2.pair_of
    # offered_at[j]: the level that last offered image j; j is used by a
    # prefix exactly when that level is in it and placed j there
    offered_at = [k] * k

    def options(prefix: tuple):
        """The entries that place the piece of level ``len(prefix)``
        after ``prefix`` and complete only pairs that fit."""
        depth = len(prefix)
        i, links, loops = steps[depth]
        targets, image = {}, None
        for n, side, face, level, other in links:
            j, _, _, faces = prefix[level]
            k2 = pair_of2[(piece_ids2[j], faces[other])]
            piece, targets[face] = s2.pairing[k2][side]
            if forms1[n] != forms2[k2] or image not in (None, piece):
                return
            image = piece
        for j in range(k) if image is None else (index2[image],):
            level = offered_at[j]
            if level < depth and prefix[level][0] == j or keys1[i] != keys2[j]:
                continue
            offered_at[j] = depth
            for sigma, reflect, faces in isomorphisms(i, j):
                if targets.items() <= faces.items() and all(
                        loop_fits(loop, j, faces) for loop in loops):
                    yield j, sigma, reflect, faces

    def loop_fits(loop: tuple, j: int, faces: dict[int, int]) -> bool:
        """Whether ``faces`` sends a self-gluing pair to an equal-form pair."""
        n, src, dst = loop
        image = piece_ids2[j]
        k2 = pair_of2[(image, faces[src])]
        return (pair_of2[(image, faces[dst])] == k2
                and forms1[n] == forms2[k2])

    combo = next(_choices(k, options), None)
    if combo is None:
        return None
    piece_map, dart_maps, reflected = {}, {}, {}
    for pid, level in zip(index1, level_of):
        j, sigma, reflected[pid], _ = combo[level]
        piece_map[pid], dart_maps[pid] = piece_ids2[j], dict(sigma)
    basis_signs: dict[str, tuple[int, int]] = {}
    twists: dict[int, tuple[int, int]] = {}
    for n, (src, dst) in enumerate(s1.pairing):
        j, _, _, faces = combo[level_of[index1[src[0]]]]
        k2 = pair_of2[(piece_ids2[j], faces[src[1]])]
        (basis_signs[torus_label(dst)], basis_signs[torus_label(src)],
         twists[n]) = _match_matrices(s1.matrices[n], s2.matrices[k2], mode)
    return EquivalenceWitness(piece_map, dart_maps, basis_signs, twists,
                              reflected)


# ----------------------------------------------------------------------
# canonical keys
# ----------------------------------------------------------------------

def _piece_key(piece: ModelPiece, signs: dict[int, int]
               ) -> tuple[tuple, list[dict[int, int]]]:
    """The least decorated rooted code of a piece, and the face ranks
    of each walk that reaches it.

    The least key of the spine's ``walk_table``, the rooted code with
    the colors along its walk, is decorated, dart by dart in walk
    order, with the Dehn coefficient and propagated sign of the dart's
    vertex, and the least decoration over the walks under that key is
    kept.  Walks of isomorphic pieces pair up with equal codes, colors
    and decorations, so the pair is a complete invariant of the piece
    under color-, coefficient- and orientation-preserving dart
    bijections.  The walks that reach it are one orbit of the piece's
    automorphisms; each ranks the boundary cycles by where the walk
    first meets them.
    """
    graph = piece.spine.graph
    table = piece.spine.walk_table()
    key = min(table)
    face_of, vertex_of, dehn = graph.face_of(), graph.vertex_of, piece.dehn
    least: Optional[tuple] = None
    orders: list[list[int]] = []
    for order in table[key]:
        decoration = tuple((*dehn[vertex_of[d]], signs[vertex_of[d]])
                           for d in order)
        if least is None or decoration < least:
            least, orders = decoration, [order]
        elif decoration == least:
            orders.append(order)
    ranks = []
    for order in orders:
        rank: dict[int, int] = {}
        for d in order:
            rank.setdefault(face_of[d], len(rank))
        ranks.append(rank)
    return (key, least), ranks


def _piece_labelings(checked: CheckedSpec) -> tuple[tuple, list[dict]]:
    """The half of the census key that the pairing does not touch: the
    sorted piece keys, and one labeling of the boundary tori per order
    of the pieces with equal keys and per choice of the walks of each
    piece that reach its key.

    The census key of a checked specification is the piece keys
    together with ``_least_pairs`` over these labelings.  Two keys are
    equal exactly when ``_search(c1, c2, EXACT, False)`` finds a
    witness, so ``spec_census`` keeps one specification per key.

    The pieces are sorted by ``_piece_key``.  A labeling maps each
    torus (piece id, face) to (piece rank, face rank); ``_least_pairs``
    takes the least sorted pair list over all of them (McKay & Piperno,
    "Practical graph isomorphism II", 2014, without refinement: the
    branching is factorial in the number of equal pieces).
    """
    keyed = sorted(((*_piece_key(piece, checked.signs[piece.piece_id]),
                     piece.piece_id) for piece in checked.spec.pieces),
                   key=lambda item: item[0])
    groups = [[(pid, ranks) for _, ranks, pid in group]
              for _, group in itertools.groupby(keyed, key=lambda item: item[0])]
    labelings = []
    for orders in itertools.product(*map(itertools.permutations, groups)):
        placed = [member for order in orders for member in order]
        for choice in itertools.product(*(ranks for _, ranks in placed)):
            labelings.append({(pid, face): (i, r)
                              for i, ((pid, _), faces)
                              in enumerate(zip(placed, choice))
                              for face, r in faces.items()})
    return tuple(key for key, _, _ in keyed), labelings


def _least_pairs(labelings: list[dict], pairing, matrices) -> tuple:
    """The half of the census key that reads the pairing: each pair
    written as the labels of its exit and entrance and its matrix, and
    the least sorted list of them over ``labelings``."""
    pairs = list(zip(pairing, matrices))
    return tuple(min(sorted((rank[src], rank[dst], m)
                            for (src, dst), m in pairs)
                     for rank in labelings))


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

def verify_witness(s1: ModelFlowSpec, s2: ModelFlowSpec,
                   witness: EquivalenceWitness,
                   mode: EquivalenceMode = EquivalenceMode.ISOTOPY_WITH_TWISTS
                   ) -> bool:
    """Replay a witness: apply it to s1 and compare with s2.

    Shape mismatches (unknown pieces, non-bijective dart maps, and basis
    signs, twists or reflections keyed by no glued torus, pairing index
    or piece of s1) raise ``InputError``; any value that fails to
    reproduce s2 returns False.
    Each dart map must carry rotation and involution dart for dart; the
    torus map is then read off the first darts (``induced_face_map``).
    The matrix comparison applies the witness factors and then demands
    equality entry for entry, so a wrong twist exponent or sign fails
    even in the loosest mode.  A ``mode`` that is not an
    ``EquivalenceMode`` member raises ``InputError`` first.
    """
    _check_mode(mode)
    ids1 = set(s1.piece_ids())
    # the first piece of each id, as ``ModelFlowSpec.piece`` finds it
    pieces2 = {p.piece_id: p for p in reversed(s2.pieces)}
    if set(witness.piece_map) != ids1:
        raise InputError("witness piece map must cover exactly the pieces "
                         "of the first specification")
    if sorted(witness.piece_map.values()) != sorted(pieces2):
        raise InputError("witness piece map is not a bijection onto the "
                         "pieces of the second specification")
    if set(witness.dart_maps) != ids1:
        raise InputError("witness dart maps must cover exactly the pieces "
                         "of the first specification")
    labels = [(torus_label(src), torus_label(dst)) for src, dst in s1.pairing]
    glued = {label for pair in labels for label in pair}
    for label in witness.basis_signs:
        if label not in glued:
            raise InputError(f"witness basis signs name {quote(label)}, no "
                             "glued torus of the first specification")
    for k in witness.twists:
        if k not in range(len(s1.pairing)):
            raise InputError(f"witness twists name {quote(k)}, no pairing "
                             "index of the first specification")
    for pid in witness.reflected:
        if pid not in ids1:
            raise InputError(f"witness reflection names {quote(pid)}, no "
                             "piece of the first specification")

    if mode is not EquivalenceMode.ISOTOPY_WITH_TWISTS and any(
            t[0] != 0 or t[1] != 0 for t in witness.twists.values()):
        return False
    if mode is EquivalenceMode.EXACT and any(
            s[0] != 1 or s[1] != 1 for s in witness.basis_signs.values()):
        return False

    o1 = seed_orientation(s1)
    o2 = seed_orientation(s2)
    torus_map: dict[TorusId, TorusId] = {}
    for p1 in s1.pieces:
        p2 = pieces2[witness.piece_map[p1.piece_id]]
        sigma = witness.dart_maps[p1.piece_id]
        g1, g2 = p1.spine.graph, p2.spine.graph
        if sorted(sigma) != list(g1.darts):
            raise InputError(f"dart map of piece {quote(p1.piece_id)} is not "
                             "defined on exactly its darts")
        if sorted(sigma.values()) != list(g2.darts):
            raise InputError(f"dart map of piece {quote(p1.piece_id)} is not a "
                             "bijection onto the target darts")
        reflect = witness.reflected.get(p1.piece_id, False)
        rot2 = g2.inverse_rotation if reflect else g2.rotation
        for d in g1.darts:
            if sigma[g1.rotation[d]] != rot2[sigma[d]]:
                return False
            if sigma[g1.involution[d]] != g2.involution[sigma[d]]:
                return False
        for f, g in induced_face_map(g1, g2, sigma, reflect).items():
            if p1.spine.colors[f] != p2.spine.colors[g]:
                return False
            torus_map[(p1.piece_id, f)] = (p2.piece_id, g)
        for v, cycle in enumerate(g1.vertices):
            w = g2.vertex_of[sigma[cycle[0]]]
            if p1.dehn[v] != p2.dehn.get(w):
                return False
            if o1.sign(p1.piece_id, v) != o2.sign(p2.piece_id, w):
                return False

    pair_index2 = {pair: k for k, pair in enumerate(s2.pairing)}
    for k, ((src, dst), (src_label, dst_label)) in enumerate(
            zip(s1.pairing, labels)):
        image = (torus_map[src], torus_map[dst])
        k2 = pair_index2.get(image)
        if k2 is None:
            return False
        product = _mul(_mul(witness._factor(dst_label, k, left=True),
                            s1.matrices[k]),
                       witness._factor(src_label, k, left=False))
        if product != s2.matrices[k2]:
            return False
    return True
