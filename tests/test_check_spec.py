"""``check_spec`` decides validity without a report; these tests hold it
to the itemized ``validate_spec``.  On every specification,
``check_spec`` raises ``InputError`` exactly when the report fails,
with the message that names the report's failed checks; it raises what
``validate_spec`` raises; and on a valid specification its signs are
those of each seed propagated alone.  ``check_spec`` runs first, on
spines whose cached conditions are not built yet."""

import itertools
import json
import random

import pytest

import spineflow.fatgraph as fatgraph
from chains import banana_chain
from spineflow import (ENTRANCE, EXIT, DehnCoefficient, EquivalenceMode,
                       FatGraph, GluingMatrix, InputError, ModelFlowSpec,
                       ModelPiece, Spine, negate_seed, propagate_orientations,
                       spec_from_json, unsurgered_piece)
from spineflow.census import STANDARD_GLUING
from spineflow.model import check_spec, validate_spec
from test_equivalence import moved_chain
from test_fuzz import MUTANTS, SEED, SPECS, mutate
from test_model import all_rotation_systems


def outcome(call):
    try:
        return call(), None
    except Exception as err:  # the two calls must fail alike
        return None, err


def assert_agree(spec: ModelFlowSpec) -> bool:
    """Compare the two on ``spec`` and return the report's verdict
    (False when both raise)."""
    checked, raised = outcome(lambda: check_spec(spec, "spec"))
    report, report_raised = outcome(lambda: validate_spec(spec))
    if report_raised is not None:
        assert type(raised) is type(report_raised)
        assert str(raised) == str(report_raised)
        return False
    if not report.passed:
        names = ", ".join(c.name for c in report.failures)
        assert type(raised) is InputError
        assert str(raised) == f"spec is invalid ({names})"
        return False
    assert raised is None
    assert checked.signs == {
        piece.piece_id: propagate_orientations(
            piece, spec.orientation_seed[piece.piece_id])
        for piece in spec.pieces}
    assert checked.pair_of == {torus: k for k, pair in enumerate(spec.pairing)
                               for torus in pair}
    return True


def test_fuzz_mutants_that_parse():
    rng = random.Random(SEED)
    fixtures = [json.loads(path.read_text()) for path in SPECS]
    verdicts = []
    for n in range(MUTANTS):
        try:
            spec = spec_from_json(mutate(rng, fixtures[n % len(fixtures)]))
        except InputError:
            continue
        verdicts.append(assert_agree(spec))
    # 33 of the 500 parse; both verdicts occur among them
    assert 0 < verdicts.count(True) < len(verdicts)


def exhaustive_search_specs(census_specs, banana_spec):
    """The specifications that ``TestAgainstExhaustiveSearch`` compares."""
    specs = list(census_specs) + [negate_seed(spec, pid)
                                  for spec in census_specs
                                  for pid in spec.piece_ids()]
    for k in (2, 3, 4, 5):
        for cs in (list(range(2, 2 + 2 * k)), [2] * (2 * k)):
            chain = banana_chain(banana_spec, cs)
            specs.append(chain)
            for mode in EquivalenceMode:
                copy = moved_chain(chain, mode, shift=1)
                specs += [copy, negate_seed(copy, "D0"), ModelFlowSpec(
                    copy.pieces, copy.pairing,
                    (GluingMatrix(1, 0, 99, 1),) + copy.matrices[1:],
                    copy.orientation_seed)]
    return specs


def test_exhaustive_search_specs(census_specs, banana_spec):
    specs = exhaustive_search_specs(census_specs, banana_spec)
    assert all(assert_agree(spec) for spec in specs)


def test_balanced_colorings_of_small_rotation_systems():
    """One piece on every rotation system with at most three edges,
    under every coloring with as many exits as entrances, its i-th exit
    glued to its i-th entrance.  Every spine condition fails on some of
    them, and on some the spine conditions are all that fail."""
    failed, spine_only = set(), 0
    for graph in all_rotation_systems(3):
        faces = range(len(graph.boundary_cycles()))
        for colors in itertools.product((ENTRANCE, EXIT), repeat=len(faces)):
            if 2 * colors.count(EXIT) != len(colors):
                continue
            piece = unsurgered_piece("P", Spine(graph, dict(zip(faces, colors))))
            pairing = tuple(zip(piece.exits(), piece.entrances()))
            spec = ModelFlowSpec((piece,), pairing,
                                 tuple(STANDARD_GLUING for _ in pairing),
                                 {"P": (0, 1)})
            if assert_agree(spec):
                continue
            names = [c.name.split(" (")[0] for c in validate_spec(spec).failures]
            failed.update(names)
            spine_only += all(name.startswith("piece P: spine ") for name in names)
    assert {f"piece P: spine condition {n}" for n in "1234"} <= failed
    assert spine_only == 192


def loop_piece(piece_id, colors=None):
    graph = FatGraph([[1, 2]], [[1, 2]])
    return unsurgered_piece(
        piece_id, Spine(graph, {0: EXIT, 1: ENTRANCE} if colors is None else colors))


def planted_defects(banana_spec):
    """Named specifications, each with one defect planted in the banana
    fixture or in a three-piece chain of it."""
    base = banana_spec
    piece = base.pieces[0]
    chain = banana_chain(base, [2] * 6)
    c1 = chain.pieces[1]

    def spec(pieces=base.pieces, pairing=base.pairing, matrices=base.matrices,
             seeds=base.orientation_seed, of=None):
        if of is not None:
            pieces, pairing, matrices, seeds = (
                of.pieces, of.pairing, of.matrices, of.orientation_seed)
        return ModelFlowSpec(pieces, pairing, matrices, dict(seeds))

    def with_dehn(p, v, coeff):
        return ModelPiece(p.piece_id, p.spine, {**p.dehn, v: coeff})

    def chain_with(i, p, seeds=chain.orientation_seed):
        pieces = chain.pieces[:i] + (p,) + chain.pieces[i + 1:]
        return ModelFlowSpec(pieces, chain.pairing, chain.matrices, dict(seeds))

    (src0, dst0), (src1, dst1) = base.pairing
    bad_dehn_c0 = with_dehn(chain.pieces[0], 0, DehnCoefficient(2, 4))
    return {
        "valid": spec(),
        "valid-chain": spec(of=chain),
        "det 4": spec(matrices=(GluingMatrix(2, 0, 1, 2),) + base.matrices[1:]),
        "c = 0": spec(matrices=base.matrices[:1] + (GluingMatrix(1, 0, 0, 1),)),
        "non-coprime dehn": spec(pieces=(with_dehn(piece, 1, DehnCoefficient(2, 4)),)),
        "zero dehn": spec(pieces=(with_dehn(piece, 0, DehnCoefficient(0, 0)),)),
        "missing dehn": spec(pieces=(ModelPiece("P", piece.spine, {0: piece.dehn[0]}),)),
        "extra dehn": spec(pieces=(with_dehn(piece, 7, DehnCoefficient(1, 0)),)),
        "zero seed": spec(seeds={"P": (0, 0)}),
        "missing seed": spec(seeds={}),
        "seed off the piece": spec(seeds={"P": (5, 1)}),
        "pairing reversed": spec(pairing=((dst0, src0), (src1, dst1))),
        "pairing short": spec(pairing=base.pairing[:1], matrices=base.matrices[:1]),
        "pairing doubled": spec(pairing=((src0, dst0), (src0, dst1))),
        "matrix missing": spec(matrices=base.matrices[:1]),
        "ids repeated": spec(pieces=(piece, piece), seeds={"P": (0, 1)}),
        "chain dehn": chain_with(1, with_dehn(c1, 0, DehnCoefficient(2, 4))),
        "chain seed": chain_with(2, chain.pieces[2],
                                 {**chain.orientation_seed, "C2": (0, 3)}),
        "loop edge": spec(pieces=(loop_piece("P"),), pairing=(), matrices=(),
                          seeds={"P": (0, 1)}),
        # validate_spec raises at the first piece with a partial
        # coloring, after a failure in an earlier piece too
        "partial coloring": spec(pieces=(loop_piece("P", {}),), pairing=(),
                                 matrices=(), seeds={"P": (0, 1)}),
        "partial coloring after a failure": ModelFlowSpec(
            (bad_dehn_c0, ModelPiece("C1", Spine(c1.spine.graph, {}), c1.dehn))
            + chain.pieces[2:], chain.pairing, chain.matrices,
            dict(chain.orientation_seed)),
    }


def test_planted_defects(banana_spec):
    defects = planted_defects(banana_spec)
    verdicts = {name: assert_agree(spec) for name, spec in defects.items()}
    assert {name for name, passed in verdicts.items() if passed} \
        == {"valid", "valid-chain"}
    for name in ("partial coloring", "partial coloring after a failure"):
        with pytest.raises(InputError, match="coloring must assign"):
            check_spec(defects[name])


def pairing_defects(banana_spec):
    """Named copies of a three-piece chain, each with one defect planted
    in its pairing, and the chain itself with its pairs in two orders;
    the two unbalanced specifications of ``unbalanced`` too."""
    chain = banana_chain(banana_spec, [2, 3, 4, 5, 6, 7])
    pairs, matrices = chain.pairing, chain.matrices
    (src0, dst0), (src1, dst1) = pairs[:2]
    entrance = pairs[-1][1]  # an entrance of C0, the target of the last pair

    def spec(*edits, pairing=pairs, matrices=matrices):
        pairing = list(pairing)
        for n, pair in edits:
            pairing[n] = pair
        return ModelFlowSpec(chain.pieces, tuple(pairing), matrices,
                             dict(chain.orientation_seed))

    return {
        "valid": spec(),
        "valid reversed order": spec(pairing=pairs[::-1], matrices=matrices[::-1]),
        "repeated source": spec((1, (src0, dst1))),
        "source on an unknown piece": spec((0, (("X", src0[1]), dst0))),
        "entrance as a source": spec((0, (entrance, dst0))),
        "face past the cycles": spec((0, ((src0[0], 4), dst0))),
        "target face past the cycles": spec((0, (src0, (dst0[0], 4)))),
        "pair dropped": spec(pairing=pairs[:-1], matrices=matrices[:-1]),
        "pair added": spec(pairing=pairs + pairs[:1],
                           matrices=matrices + matrices[:1]),
        "ends swapped": spec((0, (dst0, src0))),
        "torus of three entries": spec((0, (src0 + (0,), dst0))),
        "exit left unpaired": unbalanced(banana_spec, EXIT),
        "entrance left unpaired": unbalanced(banana_spec, ENTRANCE),
    }


def unbalanced(banana_spec, left):
    """The banana piece glued to a piece with one exit and two
    entrances, or with the colors flipped two exits and one entrance,
    in three pairs: one torus of color ``left`` stays unpaired, with
    every pairing torus distinct and of the right color."""
    graph = FatGraph([[1, 3], [2, 4, 5, 7], [6, 8]],
                     [[1, 2], [3, 4], [5, 6], [7, 8]])
    other = {EXIT: ENTRANCE, ENTRANCE: EXIT}[left]
    u = unsurgered_piece("U", Spine(graph, {0: left, 1: other, 2: left}))
    b = banana_spec.pieces[0]
    if left == EXIT:
        pairing = (*zip(u.exits(), b.entrances()), (b.exits()[0], u.entrances()[0]))
    else:
        pairing = (*zip(b.exits(), u.entrances()), (u.exits()[0], b.entrances()[0]))
    return ModelFlowSpec((b, u), pairing, (STANDARD_GLUING,) * 3,
                         {b.piece_id: (0, 1), "U": (0, 1)})


def test_pairing_defects(banana_spec):
    """``check_spec`` decides the pairing rules in one pass over the
    pairing; it raises exactly when the report fails a pairing check,
    and then only the pairing checks fail."""
    pairing_checks = {"pairing sources are the exit tori",
                      "pairing targets are the entrance tori"}
    for name, spec in pairing_defects(banana_spec).items():
        valid = name.startswith("valid")
        assert assert_agree(spec) is valid, name
        failed = {c.name for c in validate_spec(spec).failures}
        assert bool(failed) is not valid, name
        assert failed <= pairing_checks, name


def test_spine_conditions_are_checked_once(banana_spec, monkeypatch):
    calls = []
    real = fatgraph._conditions

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fatgraph, "_conditions", counting)
    chain = banana_chain(banana_spec, [2] * 8)
    for _ in range(3):
        check_spec(chain)
        validate_spec(chain)
    # the four pieces share the fixture's one Spine
    assert len(calls) == 1
    assert all(c.passed for c in chain.pieces[0].spine.conditions)
    assert list(itertools.islice(validate_spec(chain).checks, 1, 6)) == [
        c._replace(name=f"piece C0: spine {c.name}")
        for c in chain.pieces[0].spine.conditions]
