import itertools
import random

import pytest

import oracles
import spineflow.equivalence as equivalence
from chains import banana_chain
from spineflow import (EquivalenceMode, EquivalenceWitness, GluingMatrix,
                       InputError, ModelFlowSpec, ModelPiece, negate_seed,
                       normalize_matrix, spec_equivalent, verify_witness)
from spineflow.fatgraph import induced_face_map
from spineflow.model import seed_orientation, torus_label, validate_spec

MODES = list(EquivalenceMode)


def exhaustive_spec_equivalent(s1, s2, mode, allow_reflection=False):
    """Reference search: every piece permutation in
    ``itertools.permutations`` order, each with the full
    ``itertools.product`` of its per-piece dart bijections, the pairing
    and the matrices checked only on complete combinations."""
    for spec, name in ((s1, "first"), (s2, "second")):
        if not validate_spec(spec).passed:
            raise InputError(f"{name} specification is invalid")
    if len(s1.pieces) != len(s2.pieces):
        return None
    o1 = seed_orientation(s1)
    o2 = seed_orientation(s2)
    pieces1 = sorted(s1.pieces, key=lambda p: p.piece_id)
    for pieces2 in itertools.permutations(
            sorted(s2.pieces, key=lambda p: p.piece_id)):
        per_piece = [equivalence._piece_isomorphisms(
            p1, {v: o1.sign(p1.piece_id, v) for v in p1.vertices()},
            p2, {v: o2.sign(p2.piece_id, v) for v in p2.vertices()},
            allow_reflection)
            for p1, p2 in zip(pieces1, pieces2)]
        for combo in itertools.product(*per_piece):
            witness = assemble(s1, s2, pieces1, pieces2, combo, mode)
            if witness is not None:
                return witness
    return None


def assemble(s1, s2, pieces1, pieces2, combo, mode):
    """The witness of one complete combination of per-piece dart
    bijections when its pairing images and matrices all fit, else
    None: the torus map, pair images and matrix matches are derived
    from scratch, apart from the search under test."""
    torus_map = {}
    for p1, p2, (sigma, reflect) in zip(pieces1, pieces2, combo):
        faces = induced_face_map(p1.spine.graph, p2.spine.graph, sigma, reflect)
        if faces is None:
            return None
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
                   for p1, (sigma, _) in zip(pieces1, combo)},
        basis_signs=basis_signs,
        twists=twists,
        reflected={p1.piece_id: reflect
                   for p1, (_, reflect) in zip(pieces1, combo)},
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


class TestAgainstExhaustiveSearch:
    """The propagating search returns exactly the first witness of the
    exhaustive permutation-times-product search, or None with it."""

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


def test_chain_miss_builds_each_candidate_list_once(banana_spec, monkeypatch):
    """An inequivalent 7-piece chain lists the dart bijections of each
    piece pair at most once: at most k^2 isomorphism searches, where
    trying every piece permutation made about k! * k."""
    calls = []
    real = equivalence.iter_isomorphisms_tagged

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(equivalence, "iter_isomorphisms_tagged", counting)
    k = 7
    chain = banana_chain(banana_spec, list(range(2, 2 + 2 * k)))
    copy = moved_chain(chain, EquivalenceMode.ISOTOPY, shift=3)
    miss = ModelFlowSpec(copy.pieces, copy.pairing,
                         copy.matrices[:-1] + (GluingMatrix(1, 0, 99, 1),),
                         copy.orientation_seed)
    assert spec_equivalent(chain, miss, EquivalenceMode.ISOTOPY) is None
    assert 0 < len(calls) <= k * k
