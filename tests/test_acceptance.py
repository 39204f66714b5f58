"""Acceptance suite.

One test per criterion; each prints a single ``ACCEPTANCE n (...): PASS``
or ``FAIL`` line (visible with ``pytest -s``).  Every comparison is
exact; the brute-force sides live in ``oracles.py``.
"""

import itertools
import random
from contextlib import contextmanager

import pytest

import oracles
from conftest import load_spec
from spineflow import (EquivalenceMode, EquivalenceWitness, FatGraph,
                       GluingMatrix, ItineraryWord, ModelFlowSpec,
                       build_flow_graph, is_transitive, negate_seed,
                       normalize_matrix, orientation_classes, path_sign,
                       periodic_words, seed_orientation, spec_census,
                       spec_equivalent, surface_invariants,
                       trace_boundary_cycles, validate_itinerary,
                       validate_spine, verify_witness, word_counts)

MODES = list(EquivalenceMode)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def all_rotation_systems(edge_count):
    """Every rotation system on 2 * edge_count darts over the standard
    pairing (2k-1, 2k), including disconnected and odd-valence ones."""
    darts = list(range(1, 2 * edge_count + 1))
    pairs = [[2 * k + 1, 2 * k + 2] for k in range(edge_count)]
    for perm in itertools.permutations(darts):
        mapping = dict(zip(darts, perm))
        seen, cycles = set(), []
        for d in darts:
            if d in seen:
                continue
            cycle = [d]
            seen.add(d)
            x = mapping[d]
            while x != d:
                cycle.append(x)
                seen.add(x)
                x = mapping[x]
            cycles.append(cycle)
        yield cycles, pairs


def spec_with_seeds(spec, assignment):
    seeds = {pid: (0, assignment.sign(pid, 0)) for pid in spec.piece_ids()}
    return ModelFlowSpec(spec.pieces, spec.pairing, spec.matrices, seeds)


def random_unimodular(rng):
    entries = (1, 0, 0, 1)
    for _ in range(rng.randrange(1, 7)):
        n = rng.randint(-3, 3)
        kind = rng.randrange(3)
        factor = ((1, n, 0, 1), (1, 0, n, 1),
                  (rng.choice((1, -1)), 0, 0, rng.choice((1, -1))))[kind]
        a, b, c, d = entries
        e, f, g, h = factor
        entries = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    if entries[2] == 0:
        a, b, c, d = entries
        entries = (c, d, a, b)
    if entries[2] == 0:
        return random_unimodular(rng)
    return GluingMatrix(*entries)


def test_criterion_1_spine_validation_vs_oracle():
    with criterion(1, "spine validation vs oracle, <= 4 edges exhaustive"):
        checked = 0
        for e in range(1, 5):
            for cycles, pairs in all_rotation_systems(e):
                graph = FatGraph(cycles, pairs)
                faces = trace_boundary_cycles(graph)
                for mask in range(2 ** len(faces)):
                    colors = {i: ("ENTRANCE" if (mask >> i) & 1 else "EXIT")
                              for i in range(len(faces))}
                    report = validate_spine(graph, colors)
                    named = {c.name: c.passed for c in report.checks}
                    expected = oracles.spine_conditions(
                        cycles, [tuple(p) for p in pairs], colors)
                    assert named["condition 1 (connected)"] == \
                        expected["connected"]
                    assert named["condition 2 (even valences)"] == \
                        expected["even_valences"]
                    assert named["condition 3 (sides alternate colors)"] == \
                        expected["sides_differ"]
                    assert named["condition 4 (even boundary cycles)"] == \
                        expected["even_faces"]
                    if report.passed:
                        inv = surface_invariants(graph)
                        assert inv.euler_characteristic == \
                            inv.vertex_count - inv.edge_count
                        assert inv.euler_characteristic == \
                            2 - 2 * inv.genus - inv.boundary_count
                        assert inv.genus >= 0
                    checked += 1
        assert checked > 40000


def test_criterion_2_orientation_class_count(necklace_spec):
    with criterion(2, "2^k orientation classes on a 2-piece fixture"):
        count, reps = orientation_classes(necklace_spec)
        assert count == 4 and len(reps) == 4
        variants = [spec_with_seeds(necklace_spec, rep) for rep in reps]
        pairs = list(itertools.combinations(variants, 2))
        assert len(pairs) == 6
        for a, b in pairs:
            for mode in MODES:
                assert spec_equivalent(a, b, mode) is None


def test_criterion_3_orientation_reversal_rigidity(census_specs):
    with criterion(3, "seed negation inequivalent over the census"):
        assert census_specs, "census must not be empty"
        for spec in census_specs:
            for pid in spec.piece_ids():
                negated = negate_seed(spec, pid)
                for mode in MODES:
                    assert spec_equivalent(spec, negated, mode) is None


def test_criterion_4_vertical_twist_triviality(banana_spec, twisted_spec):
    with criterion(4, "vertical twists act trivially"):
        rng = random.Random(2026)

        def mul(x, y):
            a, b, c, d = x
            e, f, g, h = y
            return (a * e + b * g, a * f + b * h,
                    c * e + d * g, c * f + d * h)

        for _ in range(1000):
            m = random_unimodular(rng)
            n = normalize_matrix(m)
            assert normalize_matrix(GluingMatrix(n.a, n.b, n.c, n.d)) == n
            left = mul((rng.choice((1, -1)), 0, 0, rng.choice((1, -1))),
                       (1, rng.randint(-5, 5), 0, 1))
            right = mul((1, rng.randint(-5, 5), 0, 1),
                        (rng.choice((1, -1)), 0, 0, rng.choice((1, -1))))
            moved = GluingMatrix(*mul(mul(left, (m.a, m.b, m.c, m.d)), right))
            assert normalize_matrix(moved) == n

        assert spec_equivalent(banana_spec, twisted_spec,
                               EquivalenceMode.ISOTOPY_WITH_TWISTS) is not None
        assert spec_equivalent(banana_spec, twisted_spec,
                               EquivalenceMode.EXACT) is None


def test_criterion_5_transitivity_vs_closure(census_specs, banana_spec):
    with criterion(5, "strong connectivity vs reachability closure"):
        for spec in list(census_specs) + [banana_spec]:
            graph = build_flow_graph(spec)
            arcs = {(e.src, e.dst) for e in graph.edges}
            expected = oracles.strongly_connected_by_closure(
                list(graph.torus_vertices), arcs)
            assert is_transitive(graph) == expected
        assert is_transitive(build_flow_graph(banana_spec))


def test_criterion_6_itinerary_realizability(census_specs):
    with criterion(6, "itinerary words vs path enumeration, body <= 6"):
        for spec in census_specs:
            graph = build_flow_graph(spec)
            tori = list(graph.torus_vertices)
            orbits = list(graph.orbit_vertices)
            arcs = {(e.src, e.dst) for e in graph.edges}
            language = oracles.itinerary_language(
                tori, arcs, set(graph.accumulation_edges), orbits, 6)
            heads = [None] + orbits
            tails = [None] + orbits
            for head, tail in itertools.product(heads, tails):
                word = ItineraryWord((), head, tail)
                assert validate_itinerary(graph, word) == \
                    ((head, (), tail) in language)
            for length in range(1, 7):
                for body in itertools.product(tori, repeat=length):
                    for head, tail in itertools.product(heads, tails):
                        word = ItineraryWord(body, head, tail)
                        assert validate_itinerary(graph, word) == \
                            ((head, body, tail) in language)


def test_criterion_7_periodic_word_census(banana_spec):
    with criterion(7, "closed walks up to rotation"):
        graph = build_flow_graph(banana_spec)
        words = periodic_words(graph, 4)
        cycles = [w.cycle for w in words]
        assert len(set(cycles)) == len(cycles)
        for cycle in cycles:
            rotations = {cycle[i:] + cycle[:i] for i in range(len(cycle))}
            assert min(rotations) == cycle
        expected = oracles.closed_walks_up_to_rotation(
            [(e.label, e.src, e.dst) for e in graph.edges], 4)
        assert set(cycles) == expected
        expected_counts = {}
        for cycle in expected:
            expected_counts[len(cycle)] = expected_counts.get(len(cycle), 0) + 1
        assert word_counts(words) == expected_counts


def test_criterion_8_sign_calculus(census_specs, banana_spec):
    with criterion(8, "return-map sign calculus"):
        rng = random.Random(77)
        graphs = [build_flow_graph(s) for s in census_specs] + \
            [build_flow_graph(banana_spec)]
        outgoing = []
        for graph in graphs:
            table = {}
            for e in graph.edges:
                table.setdefault(e.src, []).append(e)
            outgoing.append(table)

        for _ in range(1000):
            i = rng.randrange(len(graphs))
            graph, table = graphs[i], outgoing[i]
            start = rng.choice(graph.torus_vertices)
            walk, here = [], start
            for _ in range(rng.randrange(0, 9)):
                edge = rng.choice(table[here])
                walk.append(edge.label)
                here = edge.dst
            cut = rng.randrange(0, len(walk) + 1)
            assert path_sign(graph, walk) == \
                path_sign(graph, walk[:cut]) * path_sign(graph, walk[cut:])

        for spec in census_specs:
            base = build_flow_graph(spec)
            orientation = seed_orientation(spec)
            for pid in spec.piece_ids():
                flipped = build_flow_graph(spec, orientation.negated(pid))
                for e_base, e_flip in zip(base.edges, flipped.edges):
                    assert (e_base.src, e_base.dst) == (e_flip.src, e_flip.dst)
                    if e_base.piece == pid:
                        assert e_flip.sign == -e_base.sign
                    else:
                        assert e_flip.sign == e_base.sign


def test_criterion_9_witness_replay(census_specs, banana_spec, twisted_spec):
    with criterion(9, "witness replay and perturbation"):
        collected = []
        for spec in census_specs:
            for mode in MODES:
                witness = spec_equivalent(spec, spec, mode)
                assert witness is not None
                collected.append((spec, spec, witness, mode))
        witness = spec_equivalent(banana_spec, twisted_spec,
                                  EquivalenceMode.ISOTOPY_WITH_TWISTS)
        assert witness is not None
        collected.append((banana_spec, twisted_spec, witness,
                          EquivalenceMode.ISOTOPY_WITH_TWISTS))
        for s1, s2, w, mode in collected:
            assert verify_witness(s1, s2, w, mode)

        perturbed_checked = 0
        for s1, s2, w, mode in collected:
            # wrong twist exponent
            if w.twists:
                key = sorted(w.twists)[0]
                twists = dict(w.twists)
                twists[key] = (twists[key][0] + 1, twists[key][1])
                bad = EquivalenceWitness(w.piece_map, w.dart_maps,
                                         w.basis_signs, twists, w.reflected)
                assert not verify_witness(s1, s2, bad, mode)
                perturbed_checked += 1
            # wrong dart image
            pid = sorted(w.dart_maps)[0]
            darts = dict(w.dart_maps[pid])
            if len(darts) >= 2:
                a, b = sorted(darts)[:2]
                darts[a], darts[b] = darts[b], darts[a]
                bad = EquivalenceWitness(w.piece_map,
                                         {**w.dart_maps, pid: darts},
                                         w.basis_signs, w.twists, w.reflected)
                assert not verify_witness(s1, s2, bad, mode)
                perturbed_checked += 1
        assert perturbed_checked > 0
