"""Seeded mutation fuzz tests of the CLI on the specification fixtures
and of the witness reader.

Each mutant changes one value of a fixture at a random JSON path: it
replaces the value, deletes it, or adds a new one beside it.  Every
subcommand that reads a specification must then end with exit status
0, 1 or 2, with no exception escaping ``cli.run`` and no traceback on
stderr: a malformed input is an ``InputError`` and exit 2, never a
crash.  Likewise a mutated witness is read or rejected with an
``InputError``, and one that is read replays to a verdict or an
``InputError``.
"""

import copy
import json
import random
from pathlib import Path

from spineflow import (EquivalenceMode, EquivalenceWitness, InputError,
                       spec_equivalent, verify_witness)
from spineflow.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
SPECS = sorted(FIXTURES.glob("*_spec*.json"))
WORD = str(FIXTURES / "word_body.json")

SEED = 2026
MUTANTS = 500

SCALARS = (None, True, False, 0, 1, -1, 2, 7, 10**30, 1.5, -0.0, "", "0",
           "01", "-1", "x", "ENTRANCE", "EXIT", "T0", "P.c0", "A.c9", "P.v0")
KEYS = ("0", "1", "9", "-1", "01", "x", "id", "dehn", "bases", "colors")


def paths(value, prefix=()):
    """Every JSON path in ``value``, the root first, as key tuples."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from paths(item, prefix + (index,))


def at(value, path):
    for key in path:
        value = value[key]
    return value


def random_value(rng, doc):
    """A scalar, a small container, or a copy of a subtree of ``doc``."""
    roll = rng.random()
    if roll < 0.5:
        return rng.choice(SCALARS)
    if roll < 0.7:
        return rng.choice(([], {}, [1, 2], [[1, 2]], {"0": 1}, ["T0"]))
    return copy.deepcopy(at(doc, rng.choice(list(paths(doc)))))


def mutate(rng, doc):
    """A copy of ``doc`` with one value replaced, deleted or added."""
    doc = copy.deepcopy(doc)
    value = random_value(rng, doc)
    action = rng.choice(("replace", "delete", "add"))
    if action == "add":
        target = at(doc, rng.choice([p for p in paths(doc) if isinstance(
            at(doc, p), (dict, list))]))
        if isinstance(target, dict):
            target[rng.choice(KEYS)] = value
        else:
            target.insert(rng.randrange(len(target) + 1), value)
        return doc
    path = rng.choice(list(paths(doc))[1:])
    parent, key = at(doc, path[:-1]), path[-1]
    if action == "replace":
        parent[key] = value
    else:
        del parent[key]
    return doc


def commands(mutant, original):
    return (["validate", mutant], ["build-graph", mutant],
            ["transitive", mutant], ["orient", mutant],
            ["periodic", mutant], ["equiv", mutant, original],
            ["itinerary", mutant, WORD])


def test_mutants_never_crash_the_cli(tmp_path, capsys):
    rng = random.Random(SEED)
    fixtures = [(str(path), json.loads(path.read_text())) for path in SPECS]
    mutant = str(tmp_path / "mutant.json")
    for n in range(MUTANTS):
        original, doc = fixtures[n % len(fixtures)]
        text = json.dumps(mutate(rng, doc))
        with open(mutant, "w") as handle:
            handle.write(text)
        for argv in commands(mutant, original):
            try:
                code = run(argv)
            except Exception as err:  # report the mutant, not just the error
                raise AssertionError(
                    f"{argv[0]} raised {err!r} on mutant {n}: {text}") from err
            err_text = capsys.readouterr().err
            assert code in (0, 1, 2), (argv[0], n, text)
            assert "Traceback" not in err_text, (argv[0], n, text)


def test_witness_mutants_read_or_raise_input_error(banana_spec):
    rng = random.Random(SEED)
    doc = spec_equivalent(banana_spec, banana_spec,
                          EquivalenceMode.ISOTOPY).to_json()
    for n in range(MUTANTS):
        mutant = mutate(rng, doc)
        try:
            witness = EquivalenceWitness.from_json(mutant)
            for mode in EquivalenceMode:
                verify_witness(banana_spec, banana_spec, witness, mode)
        except InputError:
            continue
        except Exception as err:  # report the mutant, not just the error
            raise AssertionError(
                f"raised {err!r} on witness mutant {n}: {mutant}") from err
