import collections
import dataclasses
import hashlib
import itertools
import json
import random
from typing import Optional

import pytest

import oracles
import spineflow.equivalence as equivalence
import spineflow.fatgraph as fatgraph
from census_keys import _candidates, _exact_key
from chains import (banana_chain, chain_with_ids, relabeled_chain,
                    renamed_chain)
from spineflow import (DehnCoefficient, EquivalenceMode, EquivalenceWitness,
                       GluingMatrix, InputError, ModelFlowSpec, ModelPiece,
                       negate_seed, normalize_matrix, spec_equivalent,
                       verify_witness)
from spineflow.fatgraph import ENTRANCE, EXIT, FatGraph, Spine
from spineflow.model import (check_spec, seed_orientation, torus_label,
                             validate_spec)

MODES = list(EquivalenceMode)


def induced_face_map(g1: FatGraph, g2: FatGraph, sigma: dict[int, int],
                     reflect: bool = False) -> Optional[dict[int, int]]:
    """Boundary-cycle correspondence induced by a dart bijection, or
    None when the bijection does not respect the cycles.  Under
    reflection the image of the cycle through d is the cycle through
    involution(sigma(d)).  The per-dart reference for the first-dart
    ``fatgraph.induced_face_map``."""
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


def test_first_dart_face_map_is_the_per_dart_reference(census_spines):
    """Every face map the isomorphism lister yields between census
    spines, their relabeled copies and their mirror images is the
    per-dart one."""
    rng = random.Random(5)
    checked = collections.Counter()
    for spine in census_spines:
        images = rng.sample(range(1, 40), len(spine.graph.darts))
        copy = spine.relabeled(dict(zip(spine.graph.darts, images)))
        graph = spine.graph.reflected()
        faces = induced_face_map(spine.graph, graph,
                                 dict(zip(graph.darts, graph.darts)), True)
        mirror = Spine(graph, {g: spine.colors[f] for f, g in faces.items()})
        for s1, s2 in ((spine, spine), (spine, copy), (copy, mirror)):
            for sigma, reflect, faces in fatgraph.iter_isomorphisms_tagged(
                    s1, s2, allow_reflection=True):
                assert faces == induced_face_map(s1.graph, s2.graph, sigma,
                                                 reflect)
                checked[reflect] += 1
    assert checked[False] and checked[True]


_BIJECTIONS: dict[tuple[int, int], tuple[Spine, Spine, list]] = {}


def spine_bijections(a: Spine, b: Spine) -> list:
    """(sigma, reflect, face map) for every isomorphism of spines a -> b,
    reflected ones last, from ``oracles.edge_isomorphisms`` with the
    face maps read off ``oracles.face_walks``.  Listed once per pair of
    spine objects, which are kept with the list so that their ids stay
    theirs."""
    if (id(a), id(b)) not in _BIJECTIONS:
        walks1 = oracles.face_walks(a.graph.rotation, a.graph.involution)
        walk_of2 = {d: i for i, walk in enumerate(oracles.face_walks(
            b.graph.rotation, b.graph.involution)) for d in walk}
        _BIJECTIONS[(id(a), id(b))] = a, b, [
            (sigma, reflect,
             {f: walk_of2[b.graph.involution[sigma[walk[0]]] if reflect
                          else sigma[walk[0]]]
              for f, walk in enumerate(walks1)})
            for reflect in (False, True)
            for sigma in oracles.edge_isomorphisms(a, b, reflect)]
    return _BIJECTIONS[(id(a), id(b))][2]


def placement_order(spec) -> list[str]:
    """The piece ids of ``spec`` in the order the search places them:
    the least unplaced id that a pair links to a placed piece, or the
    least unplaced id when no pair does."""
    ids = set(spec.piece_ids())
    order: list[str] = []
    while len(order) < len(ids):
        placed = set(order)
        linked = {x for (a, _), (b, _) in spec.pairing
                  for x, y in ((a, b), (b, a)) if y in placed} - placed
        order.append(min(linked or ids - placed))
    return order


def exhaustive_spec_equivalent(s1, s2, mode, allow_reflection=False):
    """Reference search: every piece permutation in
    ``itertools.permutations`` order, each with the full
    ``itertools.product`` of its per-piece dart bijections, the pairing
    and the matrices checked only on complete combinations.  Of the
    combinations that fit, it returns the witness with the least key:
    the (image index, position of the bijection in its piece's list) of
    every piece, in ``placement_order``.

    The dart bijections of each spine pair are ``spine_bijections``;
    a piece pair keeps those that carry the (Dehn p, q, sign) of every
    dart's vertex to its image's.  Nothing here calls the isomorphism
    lister."""
    for spec, name in ((s1, "first"), (s2, "second")):
        if not validate_spec(spec).passed:
            raise InputError(f"{name} specification is invalid")
    if len(s1.pieces) != len(s2.pieces):
        return None
    o1 = seed_orientation(s1)
    o2 = seed_orientation(s2)

    def dart_labels(piece, orientation):
        """Dart -> (Dehn p, q, sign) of its vertex."""
        return {d: (piece.dehn[v].p, piece.dehn[v].q,
                    orientation.sign(piece.piece_id, v))
                for v, cycle in enumerate(piece.spine.graph.vertices)
                for d in cycle}

    pieces1 = sorted(s1.pieces, key=lambda p: p.piece_id)
    images = sorted(s2.pieces, key=lambda p: p.piece_id)
    labels1 = [dart_labels(p, o1) for p in pieces1]
    labels2 = [dart_labels(p, o2) for p in images]
    position = {p.piece_id: n for n, p in enumerate(pieces1)}
    order = [position[pid] for pid in placement_order(s1)]
    best = None
    for perm in itertools.permutations(range(len(images))):
        pieces2 = [images[j] for j in perm]
        per_piece = []
        for p1, labels, p2, j in zip(pieces1, labels1, pieces2, perm):
            per_piece.append([
                (sigma, reflect, faces) for sigma, reflect, faces
                in spine_bijections(p1.spine, p2.spine)
                if (allow_reflection or not reflect)
                and all(labels2[j][sigma[d]] == label
                        for d, label in labels.items())])
        for picks in itertools.product(*(range(len(isos))
                                         for isos in per_piece)):
            key = [(perm[n], picks[n]) for n in order]
            if best is not None and key > best[0]:
                continue
            combo = [isos[m] for isos, m in zip(per_piece, picks)]
            witness = assemble(s1, s2, pieces1, pieces2, combo, mode)
            if witness is not None:
                best = key, witness
    return None if best is None else best[1]


def assemble(s1, s2, pieces1, pieces2, combo, mode):
    """The witness of one complete combination of per-piece dart
    bijections, each with its face map, when its pairing images and
    matrices all fit, else None: the torus map, pair images and matrix
    matches are derived from scratch, apart from the search under
    test."""
    torus_map = {}
    for p1, p2, (_, _, faces) in zip(pieces1, pieces2, combo):
        for f, g in faces.items():
            torus_map[(p1.piece_id, f)] = (p2.piece_id, g)

    pair_index2 = {pair: k for k, pair in enumerate(s2.pairing)}
    basis_signs = {}
    twists = {}
    for k, (src, dst) in enumerate(s1.pairing):
        k2 = pair_index2.get((torus_map[src], torus_map[dst]))
        if k2 is None:
            return None
        match = equivalence._match_matrices(s1.matrices[k], s2.matrices[k2],
                                            mode)
        if match is None:
            return None
        entrance_signs, exit_signs, twist = match
        basis_signs[torus_label(dst)] = entrance_signs
        basis_signs[torus_label(src)] = exit_signs
        twists[k] = twist

    return EquivalenceWitness(
        piece_map={p1.piece_id: p2.piece_id
                   for p1, p2 in zip(pieces1, pieces2)},
        dart_maps={p1.piece_id: dict(sigma)
                   for p1, (sigma, _, _) in zip(pieces1, combo)},
        basis_signs=basis_signs,
        twists=twists,
        reflected={p1.piece_id: reflect
                   for p1, (_, reflect, _) in zip(pieces1, combo)},
    )


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def moved_chain(chain, mode, shift):
    """An equivalent copy of ``chain``: pieces renamed with their chain
    position shifted by ``shift``, darts renamed, pairs listed in reverse
    order and every matrix moved by factors that ``mode`` allows."""
    k = len(chain.pieces)
    piece_of = {p.piece_id: p for p in chain.pieces}
    ids = sorted(piece_of)
    new_id = {pid: f"D{(i + shift) % k}" for i, pid in enumerate(ids)}
    spine = chain.pieces[0].spine
    top = max(spine.graph.darts) + 1
    mapping = {d: top - d for d in spine.graph.darts}
    moved = spine.relabeled(mapping)
    face = {f: moved.graph.face_of()[mapping[cycle[0]]]
            for f, cycle in enumerate(spine.graph.boundary_cycles())}
    vertex = {v: moved.graph.vertex_of[mapping[cycle[0]]]
              for v, cycle in enumerate(spine.graph.vertices)}
    pieces = tuple(ModelPiece(new_id[pid], moved,
                              {vertex[v]: coeff for v, coeff
                               in piece_of[pid].dehn.items()})
                   for pid in ids)
    pairs = []
    for n, ((src, out), (dst, into)) in enumerate(chain.pairing):
        m = chain.matrices[n]
        entries = (m.a, m.b, m.c, m.d)
        if mode is not EquivalenceMode.EXACT:
            sign = (-1) ** n
            twist = n if mode is EquivalenceMode.ISOTOPY_WITH_TWISTS else 0
            entries = _mul(_mul(_mul((sign, 0, 0, 1), (1, twist, 0, 1)),
                                entries), (1, -twist, 0, -sign))
        pairs.append((((new_id[src], face[out]), (new_id[dst], face[into])),
                      GluingMatrix(*entries)))
    pairs.reverse()
    seeds = {new_id[pid]: (vertex[v], s)
             for pid, (v, s) in chain.orientation_seed.items()}
    return ModelFlowSpec(pieces, tuple(p for p, _ in pairs),
                         tuple(m for _, m in pairs), seeds)


def random_gluing_matrix(rng: random.Random) -> GluingMatrix:
    entries = (1, 0, 0, 1)
    for _ in range(rng.randrange(1, 7)):
        kind = rng.randrange(3)
        n = rng.randint(-3, 3)
        if kind == 0:
            factor = (1, n, 0, 1)
        elif kind == 1:
            factor = (1, 0, n, 1)
        else:
            factor = (rng.choice((1, -1)), 0, 0, rng.choice((1, -1)))
        entries = _mul(entries, factor)
    if entries[2] == 0:
        a, b, c, d = entries
        entries = (c, d, a, b)  # swap rows: keeps |det| = 1, makes c = a != 0
    if entries[2] == 0:
        return random_gluing_matrix(rng)
    return GluingMatrix(*entries)


def with_dehn(spec, piece_id, vertex):
    """``spec`` with the Dehn coefficient (1, 1) at one vertex."""
    pieces = tuple(ModelPiece(p.piece_id, p.spine,
                              {**p.dehn, vertex: DehnCoefficient(1, 1)})
                   if p.piece_id == piece_id else p for p in spec.pieces)
    return ModelFlowSpec(pieces, spec.pairing, spec.matrices,
                         spec.orientation_seed)


def with_matrices(spec, matrices):
    return ModelFlowSpec(spec.pieces, spec.pairing, tuple(matrices),
                         spec.orientation_seed)


def twisted_at(spec, n):
    """``spec`` with matrix n moved by a left vertical twist: the same
    flow up to twists, a different one in the finer modes."""
    matrices = list(spec.matrices)
    m = matrices[n]
    matrices[n] = GluingMatrix(m.a + m.c, m.b + m.d, m.c, m.d)
    return with_matrices(spec, matrices)


def swapped(spec, n, m):
    """``spec`` with the matrices of pairs n and m exchanged."""
    matrices = list(spec.matrices)
    matrices[n], matrices[m] = matrices[m], matrices[n]
    return with_matrices(spec, matrices)


def twist_move(rng: random.Random, m: GluingMatrix) -> GluingMatrix:
    left = _mul((rng.choice((1, -1)), 0, 0, rng.choice((1, -1))),
                (1, rng.randint(-5, 5), 0, 1))
    right = _mul((1, rng.randint(-5, 5), 0, 1),
                 (rng.choice((1, -1)), 0, 0, rng.choice((1, -1))))
    entries = _mul(_mul(left, (m.a, m.b, m.c, m.d)), right)
    return GluingMatrix(*entries)


class TestNormalizeMatrix:
    def test_lower_unipotent_example(self):
        normal = normalize_matrix(GluingMatrix(1, 0, 5, 1))
        assert (normal.a, normal.b, normal.c, normal.d) == (1, 0, 5, 1)
        assert oracles.least_normal_candidate((1, 0, 5, 1), 6) == (1, 0, 5, 1)

    def test_invariant_under_left_twist(self):
        m = GluingMatrix(1, 0, 5, 1)
        twisted = GluingMatrix(1 + 3 * 5, 0 + 3 * 1, 5, 1)  # U(3) . m
        assert normalize_matrix(twisted) == normalize_matrix(m)

    def test_antidiagonal_example(self):
        normal = normalize_matrix(GluingMatrix(0, 1, 1, 0))
        assert (normal.c, normal.a, normal.d) == (1, 0, 0)
        assert (normal.a, normal.b, normal.c, normal.d) == \
            oracles.least_normal_candidate((0, 1, 1, 0), 6)

    def test_canonical_range(self):
        rng = random.Random(23)
        for _ in range(200):
            m = random_gluing_matrix(rng)
            n = normalize_matrix(m)
            assert n.c > 0
            assert 0 <= n.a < n.c or (n.c == 1 and n.a == 0)
            assert 0 <= n.d < n.c or (n.c == 1 and n.d == 0)
            assert abs(n.det) == 1
            if n.c == 1:
                assert n.a == n.d == 0

    def test_idempotent_and_orbit_constant(self):
        rng = random.Random(7)
        for _ in range(200):
            m = random_gluing_matrix(rng)
            n = normalize_matrix(m)
            again = normalize_matrix(GluingMatrix(n.a, n.b, n.c, n.d))
            assert again == n
            moved = twist_move(rng, m)
            assert normalize_matrix(moved) == n

    def test_agrees_with_bounded_orbit_search(self):
        rng = random.Random(41)
        for _ in range(25):
            m = random_gluing_matrix(rng)
            if max(abs(m.a), abs(m.b), abs(m.c), abs(m.d)) > 30:
                continue
            n = normalize_matrix(m)
            span = 6 + max(abs(m.a), abs(m.d)) // max(1, abs(m.c))
            assert (n.a, n.b, n.c, n.d) == \
                oracles.least_normal_candidate((m.a, m.b, m.c, m.d), span)

    def test_mode_forms_decide_matching(self):
        """Equal mode forms are exactly the matrix pairs that
        ``_match_matrices`` matches, on every ordered pair of the 572
        gluing matrices with entries in [-5, 5], in every mode."""
        span = range(-5, 6)
        matrices = [GluingMatrix(*entries)
                    for entries in itertools.product(span, repeat=4)
                    if entries[2] != 0
                    and abs(entries[0] * entries[3] - entries[1] * entries[2]) == 1]
        assert len(matrices) == 572
        for mode in MODES:
            forms = equivalence._matrix_forms(matrices, mode)
            for (m1, f1), (m2, f2) in itertools.product(zip(matrices, forms),
                                                        repeat=2):
                assert (f1 == f2) == (
                    equivalence._match_matrices(m1, m2, mode) is not None)

    def test_rejects_upper_triangular(self):
        with pytest.raises(InputError):
            normalize_matrix(GluingMatrix(1, 5, 0, 1))
        with pytest.raises(InputError):
            normalize_matrix(GluingMatrix(2, 1, 2, 1))


class TestSpecEquivalent:
    def test_self_equivalence_identity_witness(self, banana_spec):
        witness = spec_equivalent(banana_spec, banana_spec,
                                  EquivalenceMode.EXACT)
        assert witness is not None
        assert witness.piece_map == {"P": "P"}
        assert verify_witness(banana_spec, banana_spec, witness,
                              EquivalenceMode.EXACT)

    def test_twisted_copy_modes(self, banana_spec, twisted_spec):
        assert spec_equivalent(banana_spec, twisted_spec,
                               EquivalenceMode.EXACT) is None
        assert spec_equivalent(banana_spec, twisted_spec,
                               EquivalenceMode.ISOTOPY) is None
        witness = spec_equivalent(banana_spec, twisted_spec,
                                  EquivalenceMode.ISOTOPY_WITH_TWISTS)
        assert witness is not None
        assert verify_witness(banana_spec, twisted_spec, witness,
                              EquivalenceMode.ISOTOPY_WITH_TWISTS)

    def test_seed_negation_inequivalent(self, banana_spec):
        negated = negate_seed(banana_spec, "P")
        for mode in MODES:
            assert spec_equivalent(banana_spec, negated, mode) is None

    def test_dart_relabeled_copy_exact(self, banana_spec):
        piece = banana_spec.pieces[0]
        mapping = {d: d + 40 for d in piece.spine.graph.darts}
        relabeled = ModelPiece("P", piece.spine.relabeled(mapping),
                               dict(piece.dehn))
        other = ModelFlowSpec((relabeled,), banana_spec.pairing,
                              banana_spec.matrices,
                              dict(banana_spec.orientation_seed))
        witness = spec_equivalent(banana_spec, other, EquivalenceMode.EXACT)
        assert witness is not None
        assert witness.dart_maps["P"] == mapping
        assert verify_witness(banana_spec, other, witness,
                              EquivalenceMode.EXACT)

    def test_every_matrix_twisted(self, banana_spec):
        # right-multiply every gluing matrix by U(2)
        def right_twist(m):
            return GluingMatrix(m.a, 2 * m.a + m.b, m.c, 2 * m.c + m.d)

        other = ModelFlowSpec(
            banana_spec.pieces, banana_spec.pairing,
            tuple(right_twist(m) for m in banana_spec.matrices),
            dict(banana_spec.orientation_seed))
        assert spec_equivalent(banana_spec, other,
                               EquivalenceMode.EXACT) is None
        witness = spec_equivalent(banana_spec, other,
                                  EquivalenceMode.ISOTOPY_WITH_TWISTS)
        assert witness is not None
        assert verify_witness(banana_spec, other, witness,
                              EquivalenceMode.ISOTOPY_WITH_TWISTS)

    def test_mode_hierarchy_with_witness_reuse(self, census_specs):
        for a, b in itertools.combinations(census_specs, 2):
            exact = spec_equivalent(a, b, EquivalenceMode.EXACT)
            isotopy = spec_equivalent(a, b, EquivalenceMode.ISOTOPY)
            twists = spec_equivalent(a, b, EquivalenceMode.ISOTOPY_WITH_TWISTS)
            if exact is not None:
                assert isotopy is not None
                # an exact witness replays under the looser modes as is
                assert verify_witness(a, b, exact, EquivalenceMode.ISOTOPY)
                assert verify_witness(a, b, exact,
                                      EquivalenceMode.ISOTOPY_WITH_TWISTS)
            if isotopy is not None:
                assert twists is not None
                assert verify_witness(a, b, isotopy,
                                      EquivalenceMode.ISOTOPY_WITH_TWISTS)

    def test_equivalence_relation_on_census(self, census_specs):
        specs = list(census_specs)
        for mode in MODES:
            related = {}
            for i, a in enumerate(specs):
                witness = spec_equivalent(a, a, mode)
                assert witness is not None
                assert verify_witness(a, a, witness, mode)
            for (i, a), (j, b) in itertools.combinations(enumerate(specs), 2):
                forward = spec_equivalent(a, b, mode)
                backward = spec_equivalent(b, a, mode)
                assert (forward is None) == (backward is None)
                related[(i, j)] = forward is not None
            for (i, j), (k, l) in itertools.combinations(related, 2):
                if j == k and related[(i, j)] and related[(k, l)]:
                    assert related[(i, l)]

    def test_dehn_coefficients_matter(self, banana_spec):
        from spineflow import DehnCoefficient
        piece = banana_spec.pieces[0]
        changed = ModelPiece("P", piece.spine,
                             {0: DehnCoefficient(2, 3),
                              1: DehnCoefficient(1, 0)})
        other = ModelFlowSpec((changed,), banana_spec.pairing,
                              banana_spec.matrices,
                              dict(banana_spec.orientation_seed))
        for mode in MODES:
            assert spec_equivalent(banana_spec, other, mode) is None

    def test_invalid_inputs_rejected(self, banana_spec):
        from spineflow import GluingMatrix
        broken = ModelFlowSpec(banana_spec.pieces, banana_spec.pairing,
                               (GluingMatrix(1, 5, 0, 1),
                                banana_spec.matrices[1]),
                               dict(banana_spec.orientation_seed))
        with pytest.raises(InputError):
            spec_equivalent(banana_spec, broken, EquivalenceMode.EXACT)


class TestVerifyWitness:
    def test_round_trip_for_all_census_self_witnesses(self, census_specs):
        for spec in census_specs:
            for mode in MODES:
                witness = spec_equivalent(spec, spec, mode)
                assert verify_witness(spec, spec, witness, mode)

    def test_replay_reads_each_image_piece_once(self, banana_spec,
                                                 monkeypatch):
        """Replay takes the image pieces from one table of the second
        specification, not from ``ModelFlowSpec.piece``, which scans
        every piece: a scan per piece made replay quadratic in k."""
        chain = banana_chain(banana_spec, [2] * 24)
        renamed = renamed_chain(chain)
        witnesses = {mode: spec_equivalent(chain, renamed, mode)
                     for mode in MODES}

        def scanning(spec, piece_id):
            raise AssertionError(f"piece {piece_id} looked up by a scan")

        monkeypatch.setattr(ModelFlowSpec, "piece", scanning)
        for mode, witness in witnesses.items():
            assert verify_witness(chain, renamed, witness, mode)

    def test_wrong_twist_exponent_fails(self, banana_spec, twisted_spec):
        mode = EquivalenceMode.ISOTOPY_WITH_TWISTS
        witness = spec_equivalent(banana_spec, twisted_spec, mode)
        twists = dict(witness.twists)
        key = next(k for k, t in twists.items() if t != (0, 0))
        twists[key] = (twists[key][0], twists[key][1] + 1)
        perturbed = EquivalenceWitness(witness.piece_map, witness.dart_maps,
                                       witness.basis_signs, twists,
                                       witness.reflected)
        assert not verify_witness(banana_spec, twisted_spec, perturbed, mode)

    def test_wrong_sign_fails(self, banana_spec):
        mode = EquivalenceMode.ISOTOPY
        witness = spec_equivalent(banana_spec, banana_spec, mode)
        signs = dict(witness.basis_signs)
        label = sorted(signs)[0]
        signs[label] = (-signs[label][0], signs[label][1])
        perturbed = EquivalenceWitness(witness.piece_map, witness.dart_maps,
                                       signs, witness.twists,
                                       witness.reflected)
        assert not verify_witness(banana_spec, banana_spec, perturbed, mode)

    def test_factors_by_torus_and_pair(self):
        """``left_factor`` is diag(entrance signs) . U(left twist) and
        ``right_factor`` U(right twist) . diag(exit signs); a torus or
        pair the witness does not name gets no sign or twist."""
        witness = EquivalenceWitness({}, {}, {"P.c1": (-1, 1), "P.c0": (1, -1)},
                                     {0: (2, -3)})
        assert witness.left_factor(("P", 1), 0) == (-1, -2, 0, 1)
        assert witness.right_factor(("P", 0), 0) == (1, 3, 0, -1)
        assert witness.left_factor(("P", 3), 1) == (1, 0, 0, 1)
        assert witness.right_factor(("Q", 0), 1) == (1, 0, 0, 1)

    def test_wrong_dart_image_fails(self, banana_spec):
        mode = EquivalenceMode.EXACT
        witness = spec_equivalent(banana_spec, banana_spec, mode)
        darts = dict(witness.dart_maps["P"])
        a, b = sorted(darts)[:2]
        darts[a], darts[b] = darts[b], darts[a]
        perturbed = EquivalenceWitness(witness.piece_map, {"P": darts},
                                       witness.basis_signs, witness.twists,
                                       witness.reflected)
        assert not verify_witness(banana_spec, banana_spec, perturbed, mode)

    def test_altered_coefficient_detected(self, banana_spec):
        from spineflow import DehnCoefficient
        witness = spec_equivalent(banana_spec, banana_spec,
                                  EquivalenceMode.EXACT)
        piece = banana_spec.pieces[0]
        changed = ModelPiece("P", piece.spine,
                             {0: DehnCoefficient(3, 2),
                              1: DehnCoefficient(1, 0)})
        other = ModelFlowSpec((changed,), banana_spec.pairing,
                              banana_spec.matrices,
                              dict(banana_spec.orientation_seed))
        assert not verify_witness(banana_spec, other, witness,
                                  EquivalenceMode.EXACT)

    def test_shape_mismatch_raises(self, banana_spec, necklace_spec):
        witness = spec_equivalent(banana_spec, banana_spec,
                                  EquivalenceMode.EXACT)
        with pytest.raises(InputError):
            verify_witness(banana_spec, necklace_spec, witness,
                           EquivalenceMode.EXACT)
        bad = EquivalenceWitness({"P": "P"}, {"P": {1: 1}})
        with pytest.raises(InputError):
            verify_witness(banana_spec, banana_spec, bad,
                           EquivalenceMode.EXACT)

    def test_list_values_replay_in_every_mode(self, banana_spec):
        """Basis signs and twists given as lists, as code may build
        them, replay as the tuples of ``from_json`` do, in every mode."""
        witness = spec_equivalent(banana_spec, banana_spec,
                                  EquivalenceMode.EXACT)
        listed = dataclasses.replace(
            witness,
            basis_signs={label: list(signs) for label, signs
                         in witness.basis_signs.items()},
            twists={n: list(twist) for n, twist in witness.twists.items()})
        assert [verify_witness(banana_spec, banana_spec, listed, mode)
                for mode in MODES] == [True, True, True]

    def test_witness_json_round_trip(self, banana_spec, twisted_spec):
        witness = spec_equivalent(banana_spec, twisted_spec,
                                  EquivalenceMode.ISOTOPY_WITH_TWISTS)
        back = EquivalenceWitness.from_json(witness.to_json())
        assert back == witness
        assert verify_witness(banana_spec, twisted_spec, back,
                              EquivalenceMode.ISOTOPY_WITH_TWISTS)

    @pytest.mark.parametrize("pointer, edit", [
        ("/w/dart_maps/P/1", lambda w: w["dart_maps"]["P"].update({"1": "2"})),
        ("/w/basis_signs/P.c0/1",
         lambda w: w["basis_signs"]["P.c0"].__setitem__(1, True)),
        ("/w/twists/0/0", lambda w: w["twists"]["0"].__setitem__(0, 1.0)),
        ("/w/dart_maps/P/01",
         lambda w: w["dart_maps"]["P"].update({"01": w["dart_maps"]["P"]["1"]})),
        ("/w/dart_maps/P/ 2",
         lambda w: w["dart_maps"]["P"].update({" 2": w["dart_maps"]["P"]["2"]})),
        ("/w/twists/00", lambda w: w["twists"].update({"00": [0, 0]})),
        ("/w/twists/-1", lambda w: w["twists"].update({"-1": [0, 0]})),
        ("/w/twists/0", lambda w: w["twists"]["0"].append(7)),
        ("/w/twists/0", lambda w: w["twists"].update({"0": [0]})),
        ("/w/basis_signs/P.c0",
         lambda w: w["basis_signs"].update({"P.c0": {"1": 1, "-1": 1}})),
        ("/w/piece_map", lambda w: w.update(piece_map=[])),
        ("/w/dart_maps/P", lambda w: w.update(dart_maps={"P": [1, 2]})),
        ("/w/twists", lambda w: w.update(twists=5)),
        ("/w/reflected", lambda w: w.update(reflected="x")),
        ("/w/basis_signs", lambda w: w.update(basis_signs=None)),
    ])
    def test_witness_json_rejects_non_integers(self, banana_spec, pointer,
                                               edit):
        witness = spec_equivalent(banana_spec, banana_spec,
                                  EquivalenceMode.ISOTOPY).to_json()
        edit(witness)
        with pytest.raises(InputError, match=f"^{pointer}: "):
            EquivalenceWitness.from_json(witness, "/w")

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_witness_json_rejects_non_boolean_reflection(self, banana_spec,
                                                         value):
        witness = spec_equivalent(banana_spec, banana_spec,
                                  EquivalenceMode.ISOTOPY).to_json()
        witness["reflected"] = {"P": value}
        with pytest.raises(InputError, match="^/w/reflected/P: "):
            EquivalenceWitness.from_json(witness, "/w")

    @pytest.mark.parametrize("value", [1, True, None])
    def test_witness_json_rejects_non_string_piece_images(self, banana_spec,
                                                          value):
        witness = spec_equivalent(banana_spec, banana_spec,
                                  EquivalenceMode.ISOTOPY).to_json()
        witness["piece_map"] = {"P": value}
        with pytest.raises(InputError, match="^/w/piece_map/P: "):
            EquivalenceWitness.from_json(witness, "/w")

    def test_witness_json_reads_boolean_reflection(self, banana_spec):
        witness = spec_equivalent(banana_spec, banana_spec,
                                  EquivalenceMode.ISOTOPY).to_json()
        witness["reflected"] = {"P": False}
        assert EquivalenceWitness.from_json(witness).reflected == {"P": False}


class TestVerifyWitnessRejects:
    """Each per-dart, per-face, per-vertex and per-pair test of the
    replay rejects a witness that passes every test before it."""

    MODE = EquivalenceMode.EXACT

    @staticmethod
    def identity(spec) -> EquivalenceWitness:
        piece = spec.pieces[0]
        darts = piece.spine.graph.darts
        return EquivalenceWitness({piece.piece_id: piece.piece_id},
                                  {piece.piece_id: dict(zip(darts, darts))})

    @staticmethod
    def with_piece(spec, piece) -> ModelFlowSpec:
        return ModelFlowSpec((piece,), spec.pairing, spec.matrices,
                             dict(spec.orientation_seed))

    def test_identity_replays(self, banana_spec):
        assert verify_witness(banana_spec, banana_spec,
                              self.identity(banana_spec), self.MODE)

    def test_involution_mismatch_fails(self, banana_spec):
        # one vertex turned a step, the other fixed: commutes with the
        # rotation, but the edges of the turned darts go elsewhere
        graph = banana_spec.pieces[0].spine.graph
        turned, fixed = graph.vertices
        sigma = {d: graph.rotation[d] for d in turned}
        sigma.update((d, d) for d in fixed)
        assert all(sigma[graph.rotation[d]] == graph.rotation[sigma[d]]
                   for d in graph.darts)
        witness = EquivalenceWitness({"P": "P"}, {"P": sigma})
        assert not verify_witness(banana_spec, banana_spec, witness, self.MODE)

    def test_color_mismatch_fails(self, banana_spec):
        piece = banana_spec.pieces[0]
        swapped = {f: EXIT if c == ENTRANCE else ENTRANCE
                   for f, c in piece.spine.colors.items()}
        other = self.with_piece(banana_spec, ModelPiece(
            "P", Spine(piece.spine.graph, swapped), piece.dehn))
        assert not verify_witness(banana_spec, other,
                                  self.identity(banana_spec), self.MODE)

    def test_sign_mismatch_fails(self, banana_spec):
        assert not verify_witness(banana_spec, negate_seed(banana_spec, "P"),
                                  self.identity(banana_spec), self.MODE)

    def test_image_pair_not_a_pair_fails(self, banana_spec):
        (src0, dst0), (src1, dst1) = banana_spec.pairing
        permuted = ModelFlowSpec(banana_spec.pieces,
                                 ((src0, dst1), (src1, dst0)),
                                 banana_spec.matrices,
                                 dict(banana_spec.orientation_seed))
        assert not verify_witness(banana_spec, permuted,
                                  self.identity(banana_spec), self.MODE)


class TestVerifyWitnessUnknownKeys:
    """A basis sign, twist or reflection keyed by nothing of the first
    specification raises ``InputError`` in every mode, even beside the
    self-witness that replays."""

    @staticmethod
    def self_witness(spec, **extra) -> EquivalenceWitness:
        witness = spec_equivalent(spec, spec, EquivalenceMode.EXACT)
        return dataclasses.replace(
            witness, **{name: {**getattr(witness, name), **entries}
                        for name, entries in extra.items()})

    @pytest.mark.parametrize("mode", list(EquivalenceMode))
    def test_known_keys_replay(self, banana_spec, mode):
        witness = self.self_witness(
            banana_spec, basis_signs={"P.c0": (1, 1)}, twists={1: (0, 0)},
            reflected={"P": False})
        assert verify_witness(banana_spec, banana_spec, witness, mode)

    @pytest.mark.parametrize("mode", list(EquivalenceMode))
    def test_unknown_torus_label(self, banana_spec, mode):
        witness = self.self_witness(banana_spec,
                                    basis_signs={"nosuch.c7": (1, 1)})
        with pytest.raises(InputError, match="basis signs name 'nosuch.c7'"):
            verify_witness(banana_spec, banana_spec, witness, mode)

    @pytest.mark.parametrize("mode", list(EquivalenceMode))
    def test_unknown_pairing_index(self, banana_spec, mode):
        witness = self.self_witness(banana_spec, twists={99: (0, 0)})
        with pytest.raises(InputError, match="twists name 99"):
            verify_witness(banana_spec, banana_spec, witness, mode)

    @pytest.mark.parametrize("mode", list(EquivalenceMode))
    def test_unknown_reflected_piece(self, banana_spec, mode):
        witness = self.self_witness(banana_spec, reflected={"ghost": False})
        with pytest.raises(InputError, match="reflection names 'ghost'"):
            verify_witness(banana_spec, banana_spec, witness, mode)


class TestAgainstExhaustiveSearch:
    """The propagating search returns exactly the least witness of the
    exhaustive permutation-times-product search, by the key of
    ``exhaustive_spec_equivalent``, or None with it."""

    @staticmethod
    def assert_same(s1, s2, mode, allow_reflection):
        found = spec_equivalent(s1, s2, mode, allow_reflection)
        expected = exhaustive_spec_equivalent(s1, s2, mode, allow_reflection)
        if expected is None:
            assert found is None
        else:
            assert found is not None
            assert found.to_json() == expected.to_json()
        return found

    def test_census_specs_and_seed_negations(self, census_specs):
        specs = list(census_specs) + [negate_seed(spec, pid)
                                      for spec in census_specs
                                      for pid in spec.piece_ids()]
        for a, b in itertools.product(specs, repeat=2):
            for mode in MODES:
                for allow_reflection in (False, True):
                    self.assert_same(a, b, mode, allow_reflection)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_banana_chains(self, banana_spec, k):
        # distinct lower-left entries pin every pair; equal ones leave
        # many witnesses, so the first one is a real choice
        for cs in (list(range(2, 2 + 2 * k)), [2] * (2 * k)):
            chain = banana_chain(banana_spec, cs)
            for mode in MODES:
                copy = moved_chain(chain, mode, shift=1)
                matrix_miss = ModelFlowSpec(
                    copy.pieces, copy.pairing,
                    (GluingMatrix(1, 0, 99, 1),) + copy.matrices[1:],
                    copy.orientation_seed)
                seed_miss = negate_seed(copy, "D0")
                # the exhaustive search takes seconds per k = 5 case
                # with reflection
                for allow_reflection in (False, True)[:2 if k <= 4 else 1]:
                    hit = self.assert_same(chain, copy, mode, allow_reflection)
                    assert hit is not None
                    assert verify_witness(chain, copy, hit, mode)
                    assert self.assert_same(chain, matrix_miss, mode,
                                            allow_reflection) is None
                    self.assert_same(chain, seed_miss, mode, allow_reflection)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_relabeled_chains(self, banana_spec, k):
        """Each piece of the copy on a relabeled spine of its own, as
        in the moved copies read from JSON, where alike pieces share no
        spine.  The seed negation is a miss only without reflection:
        under it the banana's mirror automorphism makes it a hit."""
        for cs in (list(range(2, 2 + 2 * k)), [2] * (2 * k)):
            chain = banana_chain(banana_spec, cs)
            copy = relabeled_chain(chain)
            assert len({id(p.spine) for p in copy.pieces}) == k
            seed_miss = negate_seed(copy, "C0")
            for mode in MODES:
                for allow_reflection in (False, True):
                    hit = self.assert_same(chain, copy, mode, allow_reflection)
                    assert hit is not None
                    assert verify_witness(chain, copy, hit, mode)
                assert self.assert_same(chain, seed_miss, mode, False) is None

    @pytest.mark.parametrize("k", [3, 4])
    def test_every_id_order(self, banana_spec, k):
        """Equal-matrix chains whose pieces carry the ids P0..P(k-1) in
        every order along the chain, against the relabeled plain chain:
        in most of them the placement order is not the id order."""
        chain = banana_chain(banana_spec, [2] * (2 * k))
        copy = relabeled_chain(chain)
        for ids in itertools.permutations([f"P{i}" for i in range(k)]):
            first = chain_with_ids(chain, ids)
            for mode in MODES:
                for allow_reflection in (False, True):
                    hit = self.assert_same(first, copy, mode, allow_reflection)
                    assert hit is not None

    def test_least_witness_in_placement_order(self, banana_spec):
        """A 5-piece equal-matrix chain with ids P3, P1, P2, P0, P4 in
        chain order, with reflection allowed: the search places P0, P2,
        P1, P3, P4 (each time the least piece next to a placed one) and
        returns the least witness in that order.  It reflects no piece;
        the first witness in permutation-then-product order reflects P2
        and P4."""
        chain = banana_chain(banana_spec, [2] * 10)
        first = chain_with_ids(chain, ["P3", "P1", "P2", "P0", "P4"])
        assert placement_order(first) == ["P0", "P2", "P1", "P3", "P4"]
        for mode in MODES:
            found = self.assert_same(first, relabeled_chain(chain), mode, True)
            assert found is not None and not any(found.reflected.values())

    def test_double_cover_and_braid(self, banana_spec):
        """A 4-piece equal-matrix chain against two 2-piece chains, which
        it covers twice, and against a braid, where the two exits of each
        piece go to the next piece and to the one after.  Every piece key
        agrees, and neither is equivalent to the chain: the search must
        reject an image that is used already, and a piece whose pairs to
        placed pieces name two images."""
        chain = banana_chain(banana_spec, [2] * 8)
        halves = [chain_with_ids(banana_chain(banana_spec, [2] * 4), ids)
                  for ids in (["C0", "C1"], ["C2", "C3"])]
        cover = ModelFlowSpec(
            halves[0].pieces + halves[1].pieces,
            halves[0].pairing + halves[1].pairing,
            halves[0].matrices + halves[1].matrices,
            {**halves[0].orientation_seed, **halves[1].orientation_seed})
        spine = banana_spec.pieces[0].spine
        exits, entrances = spine.boundary_ids(EXIT), spine.boundary_ids(ENTRANCE)
        braid = ModelFlowSpec(
            chain.pieces,
            tuple(((f"C{i}", exits[n]), (f"C{(i + 1 + n) % 4}", entrances[n]))
                  for i in range(4) for n in (0, 1)),
            chain.matrices, chain.orientation_seed)
        for other in (cover, braid):
            for a, b in ((chain, other), (other, chain)):
                for mode in MODES:
                    for allow_reflection in (False, True):
                        assert self.assert_same(a, b, mode,
                                                allow_reflection) is None

    def test_census_variants(self, census_specs):
        """Each census spec against its Dehn-perturbed and twisted-matrix
        variants, and those against each other: two variants changed in
        different places can agree in every invariant and leave the
        decision to the search."""
        for spec in census_specs:
            family = ([spec]
                      + [with_dehn(spec, piece.piece_id, v)
                         for piece in spec.pieces for v in piece.vertices()]
                      + [twisted_at(spec, n) for n in range(len(spec.matrices))])
            for a, b in itertools.product(family, repeat=2):
                for mode in MODES:
                    for allow_reflection in (False, True):
                        self.assert_same(a, b, mode, allow_reflection)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_banana_chain_variants(self, banana_spec, k):
        """A chain and its one-coefficient change against Dehn-perturbed,
        twisted-matrix and matrix-swapped variants of its moved copy."""
        for cs in (list(range(2, 2 + 2 * k)), [2] * (2 * k)):
            chain = banana_chain(banana_spec, cs)
            sources = [chain, with_dehn(chain, "C0", 0)]
            for mode in MODES:
                copy = moved_chain(chain, mode, shift=1)
                targets = ([with_dehn(copy, pid, 0) for pid in copy.piece_ids()]
                           + [twisted_at(copy, 0)]
                           + [swapped(copy, 0, n) for n in range(1, 2 * k)])
                for a, b in itertools.product(sources, targets):
                    for allow_reflection in (False, True):
                        self.assert_same(a, b, mode, allow_reflection)


def count_listings(monkeypatch) -> collections.Counter:
    """The search's ``iter_isomorphisms_tagged`` calls, counted by spine
    pair (as object ids), reflection flag and label pair."""
    listings = collections.Counter()
    real = equivalence.iter_isomorphisms_tagged

    def counting(s1, s2, allow_reflection=False, labels=None):
        listings[(id(s1), id(s2), allow_reflection, labels)] += 1
        return real(s1, s2, allow_reflection, labels)

    monkeypatch.setattr(equivalence, "iter_isomorphisms_tagged", counting)
    return listings


def test_chain_miss_builds_each_candidate_list_once(banana_spec, monkeypatch):
    """An inequivalent 7-piece chain builds the candidate dart
    bijections of each spine pair and label pair once: its pieces share
    one spine and one labeling, and the negated seed gives one piece of
    the copy another, so 2 listings, where filtering per piece pair
    made up to k^2 candidate lists and trying every piece permutation
    about k! * k."""
    listings = count_listings(monkeypatch)
    k = 7
    chain = banana_chain(banana_spec, [2] * (2 * k))
    copy = moved_chain(chain, EquivalenceMode.ISOTOPY, shift=3)
    # with equal matrices a negated seed keeps every invariant, the
    # extended piece keys included, so the search runs and exhausts
    miss = negate_seed(copy, "D0")
    assert spec_equivalent(chain, miss, EquivalenceMode.ISOTOPY) is None
    assert list(listings.values()) == [1, 1]


@pytest.mark.parametrize("mode", MODES)
def test_distinct_matrix_chain_tries_one_piece_map(banana_spec, monkeypatch,
                                                   mode):
    """With distinct matrices every piece of a chain has its own
    extended key, so a decision on an 8-piece chain tries one image per
    piece.  The pieces share one spine and one labeling, so the renamed
    copy lists the candidates of one spine pair and label pair, and its
    seed negation, whose piece C0 has labels of its own, of two, with
    and without reflection.  Filtering per piece pair built 8 candidate
    lists here; with the plain keys, the renamed copy built 16 and its
    seed negation 64.  Under reflection the seed negation comes out
    equivalent, through the banana piece's mirror automorphism."""
    listings = count_listings(monkeypatch)
    k = 8
    chain = banana_chain(banana_spec, list(range(2, 2 + 2 * k)))
    renamed = renamed_chain(chain)
    for target, hit in ((renamed, True), (negate_seed(renamed, "C0"), False)):
        for allow_reflection in (False, True):
            listings.clear()
            found = spec_equivalent(chain, target, mode, allow_reflection)
            assert (found is not None) is (hit or allow_reflection)
            assert found is None or verify_witness(chain, target, found, mode)
            assert list(listings.values()) == [1] * (1 if hit else 2)


@pytest.mark.parametrize("target", ["hit", "miss", "seed"])
def test_alike_chain_lists_one_spine_pair(banana_spec, monkeypatch, target):
    """The pieces of a 7-piece chain share one spine and one labeling,
    and so do those of its moved copy: one decision lists the
    isomorphisms of that one spine pair once, where it listed them once
    per piece pair.  A changed matrix fails the mode forms and lists
    nothing; a negated seed keeps every invariant, gives one piece of
    the copy labels of its own, so the one spine pair is listed under
    two label pairs, and is rejected by the search."""
    listings = count_listings(monkeypatch)
    k = 7
    chain = banana_chain(banana_spec, list(range(2, 2 + 2 * k)))
    copy = moved_chain(chain, EquivalenceMode.ISOTOPY, shift=3)
    if target == "miss":
        copy = ModelFlowSpec(copy.pieces, copy.pairing,
                             copy.matrices[:-1] + (GluingMatrix(1, 0, 99, 1),),
                             copy.orientation_seed)
    elif target == "seed":
        copy = negate_seed(copy, "D0")
    assert len({id(p.spine) for p in chain.pieces + copy.pieces}) == 2
    found = spec_equivalent(chain, copy, EquivalenceMode.ISOTOPY)
    assert (found is None) == (target != "hit")
    spines = (id(chain.pieces[0].spine), id(copy.pieces[0].spine), False)
    assert all(key[:3] == spines for key in listings)
    assert list(listings.values()) == {"hit": [1], "miss": [],
                                       "seed": [1, 1]}[target]


def test_repeated_chain_decision_walks_nothing(banana_spec, monkeypatch):
    """Every dart walk is cached on its spine or graph: deciding the
    same 7-piece chain pair again makes no map walk at all."""
    k = 7
    chain = banana_chain(banana_spec, list(range(2, 2 + 2 * k)))
    copy = moved_chain(chain, EquivalenceMode.EXACT, shift=3)
    first = spec_equivalent(chain, copy, EquivalenceMode.EXACT)
    assert first is not None
    walks = []
    real = fatgraph._map_code

    def counting(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(fatgraph, "_map_code", counting)
    again = spec_equivalent(chain, copy, EquivalenceMode.EXACT)
    assert again.to_json() == first.to_json()
    assert walks == []


@pytest.mark.parametrize("mode", MODES)
def test_matrices_are_matched_only_for_the_witness(banana_spec, monkeypatch,
                                                   mode):
    """The mode forms decide every matrix match of the search, and
    ``_match_matrices`` only solves the factors of a witness: on a
    6-piece chain with equal matrices, the seed negation of its renamed
    copy exhausts the search without matching a matrix (120 matches
    when the search matched each pair it completed), and the renamed
    copy matches each of its 12 pairs once."""
    calls = []
    real = equivalence._match_matrices

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(equivalence, "_match_matrices", counting)
    k = 6
    chain = banana_chain(banana_spec, [2] * (2 * k))
    renamed = renamed_chain(chain)
    assert spec_equivalent(chain, negate_seed(renamed, "C0"), mode) is None
    assert calls == []
    found = spec_equivalent(chain, renamed, mode)
    assert found is not None and verify_witness(chain, renamed, found, mode)
    assert len(calls) == 2 * k


@pytest.mark.parametrize("mode", MODES)
def test_search_nodes_on_equal_matrix_chains(banana_spec, monkeypatch, mode):
    """Each call of the ``options`` that ``_search`` hands to
    ``_choices`` is one node of the search.  On a chain of k pieces
    with equal matrices, its renamed copy takes exactly k nodes, one per
    piece, and the copy's seed negation, which agrees in every key,
    exhausts the search within 2k^2 nodes: each of the k root images
    walks the chain at most twice.  The two-level search took about
    k^4.7 steps there."""
    nodes = []
    real = equivalence._choices

    def counting(depth, options):
        def counted(prefix):
            nodes.append(prefix)
            return options(prefix)
        return real(depth, counted)

    monkeypatch.setattr(equivalence, "_choices", counting)
    for k in (8, 16, 32, 64):
        chain = banana_chain(banana_spec, [2] * (2 * k))
        renamed = renamed_chain(chain)
        nodes.clear()
        assert spec_equivalent(chain, renamed, mode) is not None
        assert len(nodes) == k
        nodes.clear()
        assert spec_equivalent(chain, negate_seed(renamed, "C0"), mode) is None
        assert len(nodes) <= 2 * k * k


def test_chain_search_is_pinned(banana_spec, monkeypatch):
    """Chains with k = 2..6 pieces, with distinct and with equal
    matrices, against a moved copy (pieces renamed cyclically), its
    seed negation and the copy with one changed matrix, in every mode
    with and without reflection: the witnesses are the ones recorded
    when each level of the search had a walk of its own, and the count
    of matrix matches is the one with the mode forms and piece keys
    checked first (before them: 3585), the piece keys extended by the
    forms of their pairs and the matrices matched only to write a
    witness (before that: 1650 matrix matches).  The isomorphisms are
    listed once per spine pair and label pair of a decision: 180
    listings, where listing once per spine pair made 120 and the
    piece-pair filters of those lists 690 calls (2160 before the mode
    forms and piece keys, 1080 before the extended keys)."""
    calls = collections.Counter()
    real = equivalence._match_matrices

    def counting(*args):
        calls["_match_matrices"] += 1
        return real(*args)

    monkeypatch.setattr(equivalence, "_match_matrices", counting)
    listings = count_listings(monkeypatch)
    listed = 0
    witnesses = []
    for k in range(2, 7):
        for cs in (list(range(2, 2 + 2 * k)), [2] * (2 * k)):
            chain = banana_chain(banana_spec, cs)
            for mode in MODES:
                copy = moved_chain(chain, mode, shift=1)
                changed = ModelFlowSpec(
                    copy.pieces, copy.pairing,
                    (GluingMatrix(1, 0, 99, 1),) + copy.matrices[1:],
                    copy.orientation_seed)
                for target in (copy, negate_seed(copy, "D0"), changed):
                    for allow_reflection in (False, True):
                        listings.clear()
                        found = spec_equivalent(chain, target, mode,
                                                allow_reflection)
                        witnesses.append(found and found.to_json())
                        assert set(listings.values()) <= {1}
                        listed += len(listings)
    digest = hashlib.sha256(json.dumps(witnesses).encode()).hexdigest()
    assert sum(w is not None for w in witnesses) == 90
    assert digest == ("79b3f53e9f1a5e5a9d4b77a8389fdeb8"
                      "a154de18582f185d4ab356c96d9e9569")
    assert calls == {"_match_matrices": 720}
    assert listed == 180


class TestChoices:
    """``_choices(depth, options)`` is ``itertools.product`` over the
    levels, each level's entries those that ``options`` offers after
    the prefix: same entries, same order."""

    def test_matches_filtered_product(self):
        rng = random.Random(7)
        for _ in range(300):
            lists = [list(range(rng.randrange(4)))
                     for _ in range(rng.randrange(5))]
            verdicts: dict[tuple, bool] = {}

            def fits(prefix, entry):
                return verdicts.setdefault(prefix + (entry,),
                                           rng.random() < 0.7)

            def options(prefix):
                return [e for e in lists[len(prefix)] if fits(prefix, e)]

            found = list(equivalence._choices(len(lists), options))
            expected = [t for t in itertools.product(*lists)
                        if all(fits(t[:m], t[m]) for m in range(len(t)))]
            assert found == expected

    def test_no_lists_yield_the_empty_choice_once(self):
        asked = []
        only = list(equivalence._choices(0, asked.append))
        assert only == [()] and asked == []

    def test_an_empty_list_yields_nothing(self):
        lists = [[0, 1], [], [0, 1]]
        assert list(equivalence._choices(
            3, lambda prefix: lists[len(prefix)])) == []

    def test_more_lists_than_the_recursion_limit(self):
        """3,000 one-entry levels, three times Python's default recursion
        limit: one choice per piece of a 3,000-piece search."""
        found = list(equivalence._choices(3000, lambda prefix: [len(prefix)]))
        assert found == [tuple(range(3000))]

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_specifications_are_equivalent(self, mode):
        empty = ModelFlowSpec((), (), (), {})
        for allow_reflection in (False, True):
            found = spec_equivalent(empty, empty, mode, allow_reflection)
            assert found == EquivalenceWitness({}, {})


def search_decisions(census_specs, banana_spec):
    """The (first, second, mode) decisions of the families of
    ``TestAgainstExhaustiveSearch``: census specifications and their
    seed negations, banana chains against their moved copies, matrix
    and seed misses, their relabeled copies, and the census and chain
    variants."""
    specs = list(census_specs) + [negate_seed(spec, pid)
                                  for spec in census_specs
                                  for pid in spec.piece_ids()]
    pairs = list(itertools.product(specs, repeat=2))
    for spec in census_specs:
        family = ([spec]
                  + [with_dehn(spec, piece.piece_id, v)
                     for piece in spec.pieces for v in piece.vertices()]
                  + [twisted_at(spec, n) for n in range(len(spec.matrices))])
        pairs += itertools.product(family, repeat=2)
    for a, b in pairs:
        for mode in MODES:
            yield a, b, mode
    for k in (2, 3, 4, 5):
        for cs in (list(range(2, 2 + 2 * k)), [2] * (2 * k)):
            chain = banana_chain(banana_spec, cs)
            relabeled = relabeled_chain(chain)
            for mode in MODES:
                copy = moved_chain(chain, mode, shift=1)
                matrix_miss = ModelFlowSpec(
                    copy.pieces, copy.pairing,
                    (GluingMatrix(1, 0, 99, 1),) + copy.matrices[1:],
                    copy.orientation_seed)
                targets = [copy, matrix_miss, negate_seed(copy, "D0"),
                           relabeled, negate_seed(relabeled, "C0")]
                for target in targets:
                    yield chain, target, mode
                if k == 5:
                    continue
                variants = ([with_dehn(copy, pid, 0)
                             for pid in copy.piece_ids()]
                            + [twisted_at(copy, 0)]
                            + [swapped(copy, 0, n) for n in range(1, 2 * k)])
                for a, b in itertools.product(
                        [chain, with_dehn(chain, "C0", 0)], variants):
                    yield a, b, mode


def summary_keys(spec, mode) -> dict[str, tuple]:
    """The ``_summary`` key of each piece of ``spec``, by piece id."""
    pieces = sorted(spec.pieces, key=lambda p: p.piece_id)
    index = {p.piece_id: i for i, p in enumerate(pieces)}
    forms = equivalence._matrix_forms(spec.matrices, mode)
    _, keys = equivalence._summary(check_spec(spec), pieces, index, forms)
    return {p.piece_id: key for p, key in zip(pieces, keys)}


class TestSummaryKeys:
    """The one piece key of ``_summary``, which the search compares
    sorted before it lists an isomorphism and per piece pair after, is
    kept by every witness."""

    def test_witnesses_keep_every_piece_key(self, census_specs,
                                            banana_spec):
        found = collections.Counter()
        for a, b, mode in search_decisions(census_specs, banana_spec):
            keys_a, keys_b = summary_keys(a, mode), summary_keys(b, mode)
            for allow_reflection in (False, True):
                witness = spec_equivalent(a, b, mode, allow_reflection)
                if witness is None:
                    continue
                found[allow_reflection] += 1
                for pid, image in witness.piece_map.items():
                    assert keys_a[pid] == keys_b[image], (pid, image, mode)
        assert found[False] and found[True]

    @pytest.mark.parametrize("mode", MODES)
    def test_self_pairs_leave_and_enter(self, banana_spec, mode):
        """Both pairs of the banana piece glue it to itself, so each is
        in its leaving and its entering forms; with one matrix twisted
        the two forms differ except up to twists."""
        for spec in (banana_spec, twisted_at(banana_spec, 0)):
            forms = equivalence._matrix_forms(spec.matrices, mode)
            [key] = summary_keys(spec, mode).values()
            _, _, loops, leaving, entering = key
            assert loops == len(spec.pairing) == 2
            assert leaving == entering == tuple(sorted(forms))
        assert ((len(set(forms)) == 1)
                is (mode is EquivalenceMode.ISOTOPY_WITH_TWISTS))


class TestExactKey:
    """``_exact_key`` equality is the EXACT, unreflected decision of
    ``_search``, for every ordered pair of a spec set with equal pieces,
    piece automorphisms and seed negations."""

    @staticmethod
    def spec_set(banana_spec):
        base = [c.spec for c in (_candidates(2, 4) + _candidates(1, 6))]
        specs = base + [negate_seed(spec, pid)
                        for spec in base for pid in spec.piece_ids()]
        for k in (2, 3, 4):
            for cs in (list(range(2, 2 + 2 * k)), [2] * (2 * k)):
                chain = banana_chain(banana_spec, cs)
                specs += [chain, negate_seed(chain, "C1")]
        return [check_spec(spec) for spec in specs]

    def test_agrees_with_search(self, banana_spec):
        checked = self.spec_set(banana_spec)
        keys = [_exact_key(c) for c in checked]
        equivalent = 0
        for (c1, k1), (c2, k2) in itertools.product(zip(checked, keys),
                                                    repeat=2):
            found = equivalence._search(c1, c2, EquivalenceMode.EXACT, False)
            assert (found is not None) == (k1 == k2)
            equivalent += found is not None
        assert (len(checked), equivalent) == (132, 1110)

    def test_independent_of_piece_and_pair_order(self, banana_spec):
        chain = banana_chain(banana_spec, [2, 3, 2, 3, 2, 3])
        shuffled = ModelFlowSpec(chain.pieces[::-1], chain.pairing[::-1],
                                 chain.matrices[::-1], chain.orientation_seed)
        assert (_exact_key(check_spec(chain))
                == _exact_key(check_spec(shuffled)))
