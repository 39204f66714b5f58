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
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .errors import InputError, read_bool, read_index, read_int, read_str
from .fatgraph import induced_face_map, iter_isomorphisms_tagged
from .model import (CheckedSpec, GluingMatrix, ModelFlowSpec, ModelPiece,
                    TorusId, check_spec, seed_orientation, torus_label)

Mat = tuple[int, int, int, int]  # row major (a, b, c, d)


def _mul(m: Mat, n: Mat) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _upper(signs: tuple[int, int], twist: int, twist_first: bool) -> Mat:
    """diag(signs) . U(twist) or U(twist) . diag(signs)."""
    sv, sh = signs
    if twist_first:
        return _mul((1, twist, 0, 1), (sv, 0, 0, sh))
    return _mul((sv, 0, 0, sh), (1, twist, 0, 1))


class EquivalenceMode(enum.Enum):
    EXACT = "exact"
    ISOTOPY = "isotopy"
    ISOTOPY_WITH_TWISTS = "isotopy-with-twists"

    @classmethod
    def parse(cls, text: str) -> "EquivalenceMode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise InputError(f"unknown mode {text!r}; expected one of "
                         + ", ".join(m.value for m in cls))


@dataclass(frozen=True)
class NormalizedMatrix:
    """Canonical representative of a gluing matrix modulo vertical
    twists and basis flips on both sides: c > 0, a and d reduced mod c,
    b pinned by the surviving determinant."""

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


def normalize_matrix(matrix: GluingMatrix) -> NormalizedMatrix:
    """Orbit-canonical form of a gluing matrix.

    The moves generate, on each side, every integer matrix
    [[+-1, n], [0, +-1]].  Acting by them sends (a, d) to
    (s*a mod |c|, t*d mod |c|) for independent signs s, t, flips the
    determinant by s*t, and pins b through the determinant identity.
    The representative is the lexicographically least (c, a, d, b)
    with c > 0.
    """
    if matrix.c == 0 or abs(matrix.det) != 1:
        raise InputError(f"not a gluing matrix: {matrix.rows()} "
                         "(need |det| = 1 and c != 0)")
    c = abs(matrix.c)
    best: Optional[tuple[int, int, int]] = None
    for s, t in itertools.product((1, -1), repeat=2):
        a = (s * matrix.a) % c
        d = (t * matrix.d) % c
        det = s * t * matrix.det
        b = (a * d - det) // c
        if best is None or (a, d, b) < best:
            best = (a, d, b)
    a, d, b = best
    return NormalizedMatrix(a, b, c, d)


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
        signs = self.basis_signs.get(torus_label(entrance), (1, 1))
        left, _ = self.twists.get(pair_index, (0, 0))
        return _upper(signs, left, twist_first=False)

    def right_factor(self, exit_torus: TorusId, pair_index: int) -> Mat:
        signs = self.basis_signs.get(torus_label(exit_torus), (1, 1))
        _, right = self.twists.get(pair_index, (0, 0))
        return _upper(signs, right, twist_first=True)

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
        if not isinstance(obj, dict):
            raise InputError(f"{path or '/'}: expected an object")

        def pair(value, where: str) -> tuple[int, int]:
            return read_int(value[0], where, 0), read_int(value[1], where, 1)

        try:
            return cls(
                piece_map={str(k): read_str(v, f"{path}/piece_map", k)
                           for k, v in obj.get("piece_map", {}).items()},
                dart_maps={str(p): {read_index(d, f"{path}/dart_maps", p, d):
                                    read_int(img, f"{path}/dart_maps", p, d)
                                    for d, img in m.items()}
                           for p, m in obj.get("dart_maps", {}).items()},
                basis_signs={str(k): pair(v, f"{path}/basis_signs/{k}")
                             for k, v in obj.get("basis_signs", {}).items()},
                twists={read_index(k, f"{path}/twists", k):
                        pair(v, f"{path}/twists/{k}")
                        for k, v in obj.get("twists", {}).items()},
                reflected={str(k): read_bool(v, f"{path}/reflected", k)
                           for k, v in obj.get("reflected", {}).items()},
            )
        except (TypeError, ValueError, KeyError, IndexError) as err:
            raise InputError(f"{path}: malformed witness: {err}") from err


# ----------------------------------------------------------------------
# matrix matching per mode
# ----------------------------------------------------------------------

def _match_matrices(m1: GluingMatrix, m2: GluingMatrix, mode: EquivalenceMode
                    ) -> Optional[tuple[tuple[int, int], tuple[int, int],
                                        tuple[int, int]]]:
    """Factors turning m1 into m2 under the mode's moves.

    Returns (entrance signs, exit signs, (left twist, right twist)) or
    None.  The first solution in a fixed sign order is returned, so
    witnesses are deterministic.
    """
    if mode is EquivalenceMode.EXACT:
        if (m1.a, m1.b, m1.c, m1.d) == (m2.a, m2.b, m2.c, m2.d):
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
        product = _mul(_mul(left, (m1.a, m1.b, m1.c, m1.d)), right)
        if product == (m2.a, m2.b, m2.c, m2.d):
            # left = diag(e1, f1) . U(e1 * x), right = U(f2 * y) . diag(e2, f2)
            return (e1, f1), (e2, f2), (e1 * x, f2 * y)
    return None


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def _piece_isomorphisms(p1: ModelPiece, o1: dict[int, int],
                        p2: ModelPiece, o2: dict[int, int],
                        allow_reflection: bool
                        ) -> list[tuple[dict[int, int], bool]]:
    """Dart bijections p1 -> p2 preserving colors, coefficients and
    orbit orientations."""
    out = []
    g1, g2 = p1.spine.graph, p2.spine.graph
    for sigma, reflect in iter_isomorphisms_tagged(p1.spine, p2.spine,
                                                   allow_reflection):
        ok = True
        for v, cycle in enumerate(g1.vertices):
            w = g2.vertex_of[sigma[cycle[0]]]
            if p1.dehn[v] != p2.dehn[w] or o1[v] != o2[w]:
                ok = False
                break
        if ok:
            out.append((sigma, reflect))
    return out


def _link_counts(spec: ModelFlowSpec, pieces) -> list[list[int]]:
    """links[i][j]: how many pairs glue an exit of pieces[i] to an
    entrance of pieces[j]."""
    index = {p.piece_id: i for i, p in enumerate(pieces)}
    links = [[0] * len(pieces) for _ in pieces]
    for (src_piece, _), (dst_piece, _) in spec.pairing:
        links[index[src_piece]][index[dst_piece]] += 1
    return links


def _piece_maps(k: int, fits, perm: tuple[int, ...] = ()):
    """Piece bijections as index tuples, in ``itertools.permutations``
    order, skipping every extension ``fits(perm, j)`` rejects."""
    if len(perm) == k:
        yield perm
        return
    for j in range(k):
        if j not in perm and fits(perm, j):
            yield from _piece_maps(k, fits, perm + (j,))


def _first_combo(options, checks_at, pair_fits, combo: tuple = ()
                 ) -> Optional[tuple]:
    """First choice of one entry per list of ``options``, in
    ``itertools.product`` order, with ``pair_fits(combo, n)`` true for
    every pair ``n`` in ``checks_at[depth]`` of every depth.  The pairs
    of a depth are tested as soon as its entry is chosen."""
    depth = len(combo)
    if depth == len(options):
        return combo
    for option in options[depth]:
        extended = combo + (option,)
        if all(pair_fits(extended, n) for n in checks_at[depth]):
            found = _first_combo(options, checks_at, pair_fits, extended)
            if found is not None:
                return found
    return None


def spec_equivalent(s1: ModelFlowSpec, s2: ModelFlowSpec,
                    mode: EquivalenceMode = EquivalenceMode.ISOTOPY_WITH_TWISTS,
                    allow_reflection: bool = False
                    ) -> Optional[EquivalenceWitness]:
    """Search for an equivalence witness from s1 to s2.

    Pieces are taken in sorted id order.  A depth-first search assigns
    an image piece to each piece of s1 in turn, trying the pieces of s2
    in id order, and drops a partial assignment as soon as the number
    of pairs gluing two assigned pieces (in either direction, a piece
    with itself included) differs from the number gluing their images,
    or a piece and its image have no color-, coefficient- and
    orientation-preserving dart bijection.  For each surviving piece
    bijection a second depth-first search picks one dart bijection per
    piece, in the order ``iter_isomorphisms_tagged`` lists them, and
    checks each pair of s1 (its image must be a pair of s2 and its
    matrix must match under the mode's moves) as soon as the later of
    its two pieces is placed.  Dart bijections with their face maps
    and matrix matches are computed once per call and form the witness.

    Pruning only removes choices that cannot be completed, so the first
    witness is the one an exhaustive run over all piece permutations,
    each with the full product of its dart bijections, would find
    first.
    """
    return _search(check_spec(s1, "first specification"),
                   check_spec(s2, "second specification"),
                   mode, allow_reflection)


def _search(c1: CheckedSpec, c2: CheckedSpec, mode: EquivalenceMode,
            allow_reflection: bool) -> Optional[EquivalenceWitness]:
    """``spec_equivalent`` on checked specifications."""
    s1, s2 = c1.spec, c2.spec
    if len(s1.pieces) != len(s2.pieces):
        return None

    pieces1 = sorted(s1.pieces, key=lambda p: p.piece_id)
    pieces2 = sorted(s2.pieces, key=lambda p: p.piece_id)
    links1 = _link_counts(s1, pieces1)
    links2 = _link_counts(s2, pieces2)
    candidates: dict[tuple[int, int], list] = {}

    def isomorphisms(i: int, j: int) -> list:
        """(sigma, reflect, boundary cycle -> image torus) for the dart
        bijections pieces1[i] -> pieces2[j]."""
        if (i, j) not in candidates:
            p1, p2 = pieces1[i], pieces2[j]
            candidates[(i, j)] = [
                (sigma, reflect,
                 {f: (p2.piece_id, g) for f, g in induced_face_map(
                     p1.spine.graph, p2.spine.graph, sigma, reflect).items()})
                for sigma, reflect in _piece_isomorphisms(
                    p1, c1.signs[p1.piece_id], p2, c2.signs[p2.piece_id],
                    allow_reflection)]
        return candidates[(i, j)]

    def piece_fits(perm: tuple[int, ...], j: int) -> bool:
        i = len(perm)
        if links1[i][i] != links2[j][j]:
            return False
        if any(links1[i][a] != links2[j][b] or links1[a][i] != links2[b][j]
               for a, b in enumerate(perm)):
            return False
        return bool(isomorphisms(i, j))

    index1 = {p.piece_id: i for i, p in enumerate(pieces1)}
    checks_at: list[list[int]] = [[] for _ in pieces1]
    for n, ((src_piece, _), (dst_piece, _)) in enumerate(s1.pairing):
        checks_at[max(index1[src_piece], index1[dst_piece])].append(n)
    matches: dict[tuple[int, int], Optional[tuple]] = {}

    def pair_match(combo: tuple, n: int) -> Optional[tuple]:
        """Matrix factors from pair n of s1 to its image under ``combo``,
        or None.  Face maps keep colors, so the image is a pair of s2
        exactly when its two tori have the same pair index there."""
        src, dst = (combo[index1[piece]][2][face]
                    for piece, face in s1.pairing[n])
        k2 = c2.pair_of[src]
        if c2.pair_of[dst] != k2:
            return None
        if (n, k2) not in matches:
            matches[(n, k2)] = _match_matrices(s1.matrices[n],
                                               s2.matrices[k2], mode)
        return matches[(n, k2)]

    for perm in _piece_maps(len(pieces1), piece_fits):
        combo = _first_combo(
            [isomorphisms(i, j) for i, j in enumerate(perm)], checks_at,
            lambda partial, n: pair_match(partial, n) is not None)
        if combo is None:
            continue
        found = [pair_match(combo, n) for n in range(len(s1.pairing))]
        basis_signs: dict[str, tuple[int, int]] = {}
        for (src, dst), (signs_in, signs_out, _) in zip(s1.pairing, found):
            basis_signs[torus_label(dst)] = signs_in
            basis_signs[torus_label(src)] = signs_out
        return EquivalenceWitness(
            piece_map={p.piece_id: pieces2[j].piece_id
                       for p, j in zip(pieces1, perm)},
            dart_maps={p.piece_id: dict(sigma)
                       for p, (sigma, _, _) in zip(pieces1, combo)},
            basis_signs=basis_signs,
            twists={n: twist for n, (_, _, twist) in enumerate(found)},
            reflected={p.piece_id: reflect
                       for p, (_, reflect, _) in zip(pieces1, combo)},
        )
    return None


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

def verify_witness(s1: ModelFlowSpec, s2: ModelFlowSpec,
                   witness: EquivalenceWitness,
                   mode: EquivalenceMode = EquivalenceMode.ISOTOPY_WITH_TWISTS
                   ) -> bool:
    """Replay a witness: apply it to s1 and compare with s2.

    Shape mismatches (unknown pieces, non-bijective dart maps) raise
    ``InputError``; any value that fails to reproduce s2 returns False.
    The matrix comparison applies the witness factors and then demands
    equality entry for entry, so a wrong twist exponent or sign fails
    even in the loosest mode.
    """
    ids1 = set(s1.piece_ids())
    ids2 = set(s2.piece_ids())
    if set(witness.piece_map) != ids1:
        raise InputError("witness piece map must cover exactly the pieces "
                         "of the first specification")
    if sorted(witness.piece_map.values()) != sorted(ids2):
        raise InputError("witness piece map is not a bijection onto the "
                         "pieces of the second specification")
    if set(witness.dart_maps) != ids1:
        raise InputError("witness dart maps must cover exactly the pieces "
                         "of the first specification")

    if mode is EquivalenceMode.EXACT:
        if any(signs != (1, 1) for signs in witness.basis_signs.values()):
            return False
        if any(t != (0, 0) for t in witness.twists.values()):
            return False
    if mode is EquivalenceMode.ISOTOPY:
        if any(t[0] != 0 or t[1] != 0 for t in witness.twists.values()):
            return False

    o1 = seed_orientation(s1)
    o2 = seed_orientation(s2)
    torus_map: dict[TorusId, TorusId] = {}
    for p1 in s1.pieces:
        p2 = s2.piece(witness.piece_map[p1.piece_id])
        sigma = witness.dart_maps[p1.piece_id]
        g1, g2 = p1.spine.graph, p2.spine.graph
        if sorted(sigma) != list(g1.darts):
            raise InputError(f"dart map of piece {p1.piece_id!r} is not "
                             "defined on exactly its darts")
        if sorted(sigma.values()) != list(g2.darts):
            raise InputError(f"dart map of piece {p1.piece_id!r} is not a "
                             "bijection onto the target darts")
        reflect = witness.reflected.get(p1.piece_id, False)
        rot2 = g2.rotation if not reflect else {
            v: k for k, v in g2.rotation.items()}
        for d in g1.darts:
            if sigma[g1.rotation[d]] != rot2[sigma[d]]:
                return False
            if sigma[g1.involution[d]] != g2.involution[sigma[d]]:
                return False
        faces = induced_face_map(g1, g2, sigma, reflect)
        if faces is None:
            return False
        for f, g in faces.items():
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
    for k, (src, dst) in enumerate(s1.pairing):
        image = (torus_map[src], torus_map[dst])
        k2 = pair_index2.get(image)
        if k2 is None:
            return False
        m1 = s1.matrices[k]
        m2 = s2.matrices[k2]
        product = _mul(_mul(witness.left_factor(dst, k),
                            (m1.a, m1.b, m1.c, m1.d)),
                       witness.right_factor(src, k))
        if product != (m2.a, m2.b, m2.c, m2.d):
            return False
    return True
