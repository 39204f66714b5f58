import copy
import gc
import json
import random
import sys
from itertools import count, repeat

import pytest

from spineflow import EquivalenceMode, FatGraph, InputError, spec_equivalent
from spineflow.errors import (_EXPECTED, _QUOTE, Opt, Table, _index, _Mismatch,
                              _within_limits, conform, pointer_token, quote,
                              read_index)
from spineflow.equivalence import WITNESS_SHAPE
from spineflow.fatgraph import SPINE_SHAPE, PairingError
from spineflow.flowgraph import WORD_SHAPE
from spineflow.model import MATRIX_SHAPE, SPEC_SHAPE, spec_from_json
from test_fuzz import FIXTURES, MUTANTS, SEED, SPECS, at, mutate, paths


class TestReadIndex:
    @pytest.mark.parametrize("text, value", [("0", 0), ("17", 17)])
    def test_canonical_decimal_is_read(self, text, value):
        assert read_index(text, "/k") == value

    @pytest.mark.parametrize("text", ["\u00b2", "\u0661\u0662", "", "01",
                                      "-1", " 1", "+1", "1_0", "00", "1 "])
    def test_other_text_is_rejected(self, text):
        with pytest.raises(InputError, match="^/k/x: expected a non-negative"):
            read_index(text, "/k", "x")

    @pytest.mark.parametrize("value", [1, None, b"1"])
    def test_non_strings_are_rejected(self, value):
        with pytest.raises(InputError, match="^/k: "):
            read_index(value, "/k")


class TestReadPair:
    """The pair shape ``(s, t)`` of ``conform``."""

    def test_two_entries(self):
        conform([1, "a"], (None, None), "/p/0")
        conform([1, "a"], (int, str), "/p/0")

    @pytest.mark.parametrize("value", [[1], [1, 2, 3], [], (1, 2), "ab",
                                       {"a": 1, "b": 2}, None])
    def test_anything_else_is_rejected(self, value):
        with pytest.raises(InputError,
                           match="^/p/0: expected an array of two entries"):
            conform(value, (None, None), "/p/0")


class TestQuote:
    """Input values in messages are quoted short: a huge value never
    makes a huge message, and a short one reads as ``repr``."""

    @pytest.mark.parametrize("value", ["12", 1.5, None, True, [1, "a"],
                                       {"b": 1, "a": [2, 3]}, list(range(10))])
    def test_short_values_read_as_repr(self, value):
        assert quote(value) == repr(value)

    @pytest.mark.parametrize("value", [list(range(100_000)), "x" * 50_000,
                                       {str(k): [k] * 100 for k in range(1000)},
                                       [[["deep"] * 100] * 100] * 100])
    def test_long_values_are_cut(self, value):
        assert len(quote(value)) < 1000
        assert "..." in quote(value)


def _random_value(rng: random.Random, depth: int):
    """A leaf or a container near the limits of ``quote``: strings of
    0 to 45 characters with quotes, backslashes, control characters and
    non-ASCII; integers near 40 digits; sets, and containers of 0 to 12
    entries nested up to ``depth``."""
    kind = rng.randrange(10 if depth else 5)
    if kind == 0:
        return "".join(rng.choice("ab'\"\\\n\x07éλ\u2028\U0001f600")
                       for _ in range(rng.randrange(46)))
    if kind == 1:
        return rng.choice((1, -1)) * rng.randrange(10 ** rng.randrange(42))
    if kind == 2:
        return rng.choice((True, False, None, 1.5, -0.0))
    if kind in (3, 4):
        return rng.choice(("id", "P", 7, 0))
    size = rng.randrange(13)
    if kind == 5:
        return {_random_value(rng, 0): _random_value(rng, depth - 1)
                for _ in range(size)}
    if kind == 6:
        return {rng.randrange(50) for _ in range(size)}
    entries = [_random_value(rng, depth - 1) for _ in range(size)]
    return tuple(entries) if kind == 7 else entries


class TestQuoteFastPath:
    def test_random_values_read_as_the_reprlib_walk(self):
        """Values within the limits are written by ``repr``; the text is
        byte-identical to the ``reprlib`` walk, within the limits and
        past them."""
        rng = random.Random(SEED)
        within = 0
        for _ in range(5_000):
            value = _random_value(rng, rng.randrange(5))
            assert quote(value) == _QUOTE.repr(value), value
            within += _within_limits((value,), _QUOTE.maxlevel)
        assert 1_000 < within < 4_000

    @pytest.mark.parametrize("value", [
        "x" * 38, "x" * 39, "'\"" * 19, 10 ** 38, -10 ** 38, 10 ** 39,
        list(range(10)), list(range(11)), tuple(range(6)), tuple(range(7)),
        {str(k): k for k in range(10)}, {str(k): k for k in range(11)},
        [[1, [2]]], [[1, []]], [{1: 2}], {3, 1, 2}, frozenset({2, 1})])
    def test_limits(self, value):
        assert quote(value) == _QUOTE.repr(value)


class TestLibraryMessages:
    """Library calls quote the input they reject: a huge value never
    makes a huge message, and a short one reads as before."""

    def test_unknown_mode(self):
        with pytest.raises(InputError) as huge:
            EquivalenceMode.parse("x" * 50_000)
        assert len(str(huge.value)) < 200
        with pytest.raises(InputError) as short:
            EquivalenceMode.parse("exact2")
        assert str(short.value) == ("unknown mode 'exact2'; expected one of "
                                    "exact, isotopy, isotopy-with-twists")

    def test_bad_edge_pair(self):
        with pytest.raises(PairingError) as huge:
            FatGraph([[1, 2]], [tuple(range(1, 100_001))])
        assert len(str(huge.value)) < 200
        with pytest.raises(PairingError) as short:
            FatGraph([[1, 2]], [(1, 1)])
        assert str(short.value) == ("edge pair (1, 1) is not two distinct "
                                    "integer darts")


class TestPointerEscape:
    """Object keys in a JSON pointer are escaped as RFC 6901 asks."""

    def test_tilde_and_slash(self):
        assert pointer_token("a~b/c") == "a~0b~1c"
        assert pointer_token("~1") == "~01"
        assert pointer_token(3) == "3"

    def test_long_key_is_cut_before_escaping(self):
        assert pointer_token("x" * 40) == "x" * 40
        assert pointer_token("x" * 41) == "x" * 40 + "..."
        assert pointer_token("a/" * 30) == "a~1" * 20 + "..."
        assert pointer_token("~" * 50_000) == "~0" * 40 + "..."


# ----------------------------------------------------------------------
# shapes of many entries against the reference walk
# ----------------------------------------------------------------------

def _reference_walk(value, shape) -> None:
    """The shape walk before ``conform`` tested arrays of two-leaf
    entries, arrays of leaf arrays and tables of int keys in bulk: it
    goes entry by entry wherever the values are not all leaves."""
    if shape is None:
        return
    kind = type(shape)
    if kind is type:
        if type(value) is not shape:
            raise _Mismatch(f"expected {_EXPECTED[shape]}, got {quote(value)}")
        return
    if kind is tuple:
        if type(value) is not list or len(value) != 2:
            raise _Mismatch(f"expected an array of two entries, got {quote(value)}")
        if type(value[0]) is shape[0] and type(value[1]) is shape[1]:
            return  # two right leaves
        entries = ((0, value[0], shape[0]), (1, value[1], shape[1]))
    elif kind is list:
        if type(value) is not list:
            raise _Mismatch("expected an array")
        if type(shape[0]) is type and set(map(type, value)) <= {shape[0]}:
            return  # leaves are tested without a call per entry
        entries = zip(count(), value, repeat(shape[0]))
    elif type(value) is not dict:
        raise _Mismatch("expected an object")
    elif kind is Table:
        if shape.keys is int:
            for key in value:
                _index(key, key)
        inner = shape.values
        if type(inner) is type and set(map(type, value.values())) <= {inner}:
            return
        entries = zip(value, value.values(), repeat(inner))
    else:
        entries = []
        for key, member in shape.items():
            if type(member) is Opt:
                if key not in value or (member.null and value[key] is None):
                    continue
                member = member.shape
            elif key not in value:
                raise _Mismatch("missing", key)
            entries.append((key, value[key], member))
    key = None
    try:
        for key, item, inner in entries:
            _reference_walk(item, inner)
    except _Mismatch as wrong:
        wrong.keys.append(key)
        raise


def _reference_conform(value, shape, path: str) -> None:
    try:
        _reference_walk(value, shape)
    except _Mismatch as wrong:
        raise wrong.at(path) from None


def _outcome(read, value, shape):
    """The ``InputError`` text of ``read`` at the pointer ``/x``, or
    None when the value has the shape."""
    try:
        read(value, shape, "/x")
    except InputError as err:
        return str(err)
    return None


#: index keys around the digit limits: 639 digits always read, 640 is
#: the smallest limit Python allows, 5,000 is past the default one
INDEX_KEYS = ("0", "7", "10", "01", "00", "-1", "+1", " 1", "1 ", "1_0", "",
              "²", "١", "1²", "3١", "1" * 639, "1" * 640, "1" * 641, "1" * 5000)
ODD_LEAVES = (None, True, False, 0, -3, 1.0, -0.0, "1", "", [], {}, [1, 2],
              [[1, 2]], {"0": 1})

#: shapes of arrays and tables of many entries, which ``conform`` walks
#: entry by entry as the reference does, and a way to make a valid value
#: of each with n entries
BULK_SHAPES = {
    "pairs of int": ([(int, int)], lambda rng, n: [
        [rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(n)]),
    "pairs of str": ([(str, str)], lambda rng, n: [
        [f"A.c{rng.randint(0, 9)}", f"B.c{rng.randint(0, 9)}"] for _ in range(n)]),
    "leaf arrays": ([[int]], lambda rng, n: [
        [rng.randint(1, 9) for _ in range(rng.randint(0, 4))] for _ in range(n)]),
    "int table of str": (Table(int, str), lambda rng, n: {
        str(k): rng.choice(("ENTRANCE", "EXIT")) for k in range(n)}),
    "int table of pairs": (Table(int, (int, int)), lambda rng, n: {
        str(k): [1, rng.randint(-3, 3)] for k in rng.sample(range(3 * n + 1), n)}),
    "int table of int": (Table(int, int), lambda rng, n: {
        str(k): k + 1 for k in range(n)}),
    "int table of matrices": (Table(int, ((int, int), (int, int))), lambda rng, n: {
        str(k): [[1, 0], [rng.randint(1, 5), 1]] for k in range(n)}),
    "str table of pairs": (Table(str, (int, int)), lambda rng, n: {
        f"P{k}": [rng.randint(0, 3), rng.choice((1, -1))] for k in range(n)}),
}


def _key_mutant(rng, table):
    """``table`` with one key replaced by one of ``INDEX_KEYS`` or by a
    non-string, at a random place in the key order."""
    items = list(table.items())
    new_key = rng.choice(INDEX_KEYS + (1, None))
    at = rng.randrange(len(items) + 1)
    value = items[at - 1][1] if items else 0
    if items and rng.random() < 0.5:
        del items[at - 1]
        at -= 1
    items.insert(at, (new_key, value))
    return dict(items)


def _leaf_mutant(rng, value):
    """``value`` with one leaf or entry, at any depth, replaced by one of
    ``ODD_LEAVES``, or one array entry dropped or doubled."""
    value = copy.deepcopy(value)
    spots = [p for p in paths(value)][1:]
    if not spots:
        return rng.choice(ODD_LEAVES)
    path = rng.choice(spots)
    parent, last = at(value, path[:-1]), path[-1]
    roll = rng.random()
    if isinstance(parent, list) and roll < 0.2:
        del parent[last]
    elif isinstance(parent, list) and roll < 0.4:
        parent.insert(last, copy.deepcopy(parent[last]))
    else:
        parent[last] = copy.deepcopy(rng.choice(ODD_LEAVES))
    return value


@pytest.mark.parametrize("limit", [None, 640, 0])
@pytest.mark.parametrize("name", BULK_SHAPES)
def test_bulk_shapes_match_the_walk(name, limit):
    """Seeded mutations of each shape of many entries, at sizes from 0
    to 100 entries, under the default, the least and no digit limit:
    ``conform`` gives the reference walk's text, or no error where it
    gives none."""
    if limit is not None and not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no integer-string conversion limit in this Python")
    shape, make = BULK_SHAPES[name]
    rng = random.Random(f"bulk:{name}")
    old = limit is not None and sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        verdicts = []
        for n in range(300):
            value = make(rng, rng.choice((0, 1, 2, 3, 5, 8, 20, 100)))
            mutants = [value, _leaf_mutant(rng, value)]
            if value:
                mutants.append(mutate(rng, value))
            if isinstance(value, dict):
                mutants.append(_key_mutant(rng, value))
            for mutant in mutants:
                expected = _outcome(_reference_conform, mutant, shape)
                assert _outcome(conform, mutant, shape) == expected, (name, mutant)
                verdicts.append(expected is None)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(old)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("key", INDEX_KEYS,
                         ids=lambda k: f"{len(k)} digits" if len(k) > 9 else repr(k))
def test_index_keys_match_the_walk(key):
    for shape in (Table(int, str), Table(int, (int, int))):
        for table in ({key: "EXIT"}, {"0": "EXIT", key: "EXIT", "5": "EXIT"}):
            table = {k: [1, 0] if shape.values != str else v for k, v in table.items()}
            assert (_outcome(conform, table, shape)
                    == _outcome(_reference_conform, table, shape)), (key, shape)


def test_specification_mutants_match_the_walk():
    """The mutants of ``test_fuzz`` through the specification and spine
    shapes, dict members included."""
    rng = random.Random(SEED)
    docs = [json.loads(path.read_text()) for path in SPECS]
    for n in range(MUTANTS):
        mutant = mutate(rng, docs[n % len(docs)])
        assert (_outcome(conform, mutant, SPEC_SHAPE)
                == _outcome(_reference_conform, mutant, SPEC_SHAPE)), n
        pieces = mutant.get("pieces") if isinstance(mutant, dict) else None
        for piece in pieces if isinstance(pieces, list) else []:
            spine = piece.get("spine") if isinstance(piece, dict) else piece
            assert (_outcome(conform, spine, SPINE_SHAPE)
                    == _outcome(_reference_conform, spine, SPINE_SHAPE)), n


def _fixture(name: str):
    return json.loads((FIXTURES / name).read_text())


def _shape_values():
    """A value of each shape constant that a reader conforms: a word
    both with its orbits absent and with them null."""
    spec = _fixture("banana_spec.json")
    twisted = _fixture("banana_spec_twisted.json")
    witness = spec_equivalent(spec_from_json(spec), spec_from_json(twisted),
                              EquivalenceMode.ISOTOPY_WITH_TWISTS, True)
    return {
        "specification": (SPEC_SHAPE, spec),
        "spine": (SPINE_SHAPE, spec["pieces"][0]["spine"]),
        "matrix": (MATRIX_SHAPE, _fixture("matrix.json")),
        "word": (WORD_SHAPE, {"body": ["T0", "T1", "T0"]}),
        "word with null orbits": (WORD_SHAPE, {"body": ["T0"], "head_orbit": None,
                                               "tail_orbit": None}),
        "witness": (WITNESS_SHAPE, witness.to_json()),
    }


def _objects_at(value):
    """The paths of the objects in ``value``, the root first."""
    return [path for path in paths(value) if isinstance(at(value, path), dict)]


def _replace_at(value, path, new):
    if not path:
        return new
    at(value, path[:-1])[path[-1]] = new
    return value


def _nested_key_mutant(rng, value):
    """``value`` with one of its objects, at any depth, replaced by its
    ``_key_mutant``."""
    value = copy.deepcopy(value)
    path = rng.choice(_objects_at(value))
    return _replace_at(value, path, _key_mutant(rng, at(value, path)))


def _members_mutant(rng, value):
    """``value`` with one of its objects, at any depth, keeping a random
    subset of its members in a random order, so that several members
    can be missing at once."""
    value = copy.deepcopy(value)
    path = rng.choice(_objects_at(value))
    items = [item for item in at(value, path).items() if rng.random() < 0.6]
    rng.shuffle(items)
    return _replace_at(value, path, dict(items))


@pytest.mark.parametrize("name", list(_shape_values()))
def test_shape_constants_match_the_walk(name):
    """Seeded mutants of a value of each shape constant: ``conform``
    gives the reference walk's text, or no error where it gives none,
    object members, null orbits and missing members included."""
    shape, value = _shape_values()[name]
    rng = random.Random(f"shapes:{name}")
    verdicts = []
    for n in range(400):
        mutants = [value, _leaf_mutant(rng, value), mutate(rng, value)]
        if isinstance(value, dict):
            mutants += [_nested_key_mutant(rng, value), _members_mutant(rng, value)]
        for mutant in mutants:
            expected = _outcome(_reference_conform, mutant, shape)
            assert _outcome(conform, mutant, shape) == expected, (name, n, mutant)
            verdicts.append(expected is None)
    assert True in verdicts and False in verdicts


def test_a_checker_never_outlives_its_shape():
    """Fresh shapes, each dropped after one use: a checker kept by the
    identity of a shape must never answer for a later shape that takes
    the same identity."""
    table = {"0": "EXIT", "1": "ENTRANCE"}
    for n in range(300):
        shape = Table(int, str) if n % 2 else Table(int, int)
        verdict = _outcome(conform, table, shape)
        assert verdict == _outcome(_reference_conform, table, shape), n
        assert (verdict is None) == (n % 2 == 1), n
        del shape
        gc.collect()
