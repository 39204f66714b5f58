"""Exception classes shared by all spineflow modules, and ``conform``,
the one shape check that every JSON reader runs before it builds
anything.  Shapes:

* ``int``, ``str`` and ``bool`` match only that exact JSON type
  (``true``, ``1.0`` and ``"1"`` are not integers);
* ``[s]`` is an array of ``s``; ``(s, t)`` an array of exactly two;
* a dict is an object with those members, each required unless it is
  an ``Opt``; other members are left alone;
* ``Table(keys, s)`` is an object with any keys, each of its values an
  ``s``; ``int`` keys must be canonical decimal indices (``read_index``);
* ``None`` is any value, left to the reader's semantic checks.

``conform`` compiles each shape once, on its first use, into a checker
of nested closures, one per array, pair, table or object, and keeps the
checker with the shape; a shape is not changed after it is used.  Each
container's own loop tests its leaf entries by type, with no call per
value.  The first wrong value raises ``InputError`` naming its JSON
pointer, the deepest wrong value: a string among a spine's edge pairs
is reported at the entry, not at the array; its keys are escaped by
``pointer_token`` and its value quoted by ``quote``.  The members of an
object are checked for presence, in the shape's order, before their
values.  Each value is tested once, so readers then build their objects
with no type tests, and shape errors come first.
"""

import reprlib
from itertools import chain, islice
from typing import Callable, NamedTuple, Optional


class SpineflowError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(SpineflowError):
    """Malformed combinatorial data: bad darts, non-permutations, fixed
    points of the edge involution, and similar structural defects."""


class OrientabilityError(SpineflowError):
    """Surface invariants are inconsistent with a compact orientable
    surface (negative or non-integer genus)."""


class InputError(SpineflowError):
    """A well-formed request that refers to unknown ids, partial data or
    otherwise violates an operation's precondition.  Distinct from a
    condition *failing*: failures are reported, not raised."""


class CapacityError(SpineflowError):
    """A desk-scale enumeration limit was exceeded."""


class OrientationConflictError(SpineflowError):
    """No orientation assignment exists; carries an odd cycle witness.

    ``cycle`` is a list of vertex ids; a loop edge shows up as the
    one-element cycle ``[v]``.
    """

    def __init__(self, message, cycle):
        super().__init__(message)
        self.cycle = list(cycle)


#: the longest string or number that messages quote in full
_MAX_TEXT = 40


class _Quote(reprlib.Repr):
    """``repr`` cut with ``...`` past ten entries, two levels, or 40
    characters of a string or number; objects keep their key order."""

    def __init__(self):
        super().__init__()
        self.maxlevel, self.maxlist, self.maxdict = 2, 10, 10
        self.maxstring = self.maxother = _MAX_TEXT

    def repr_dict(self, x, level):
        if level <= 0 and x:
            return "{...}"
        items = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}"
                 for k, v in islice(x.items(), self.maxdict)]
        return "{%s}" % ", ".join(items + ["..."] * (len(x) > self.maxdict))


_QUOTE = _Quote()
#: the entries ``_Quote`` writes in full, by container type
_ENTRIES = {list: _QUOTE.maxlist, tuple: _QUOTE.maxtuple, dict: _QUOTE.maxdict}
#: integers inside this bound have at most 40 characters
_INT_BOUND = 10 ** (_MAX_TEXT - 1)


def _within_limits(values, level: int) -> bool:
    """True when ``_Quote`` writes each of ``values`` at ``level`` as
    ``repr`` does: a str, int, bool or None of at most 40 characters,
    or, above level 0, a list, tuple or dict of at most its entry limit
    whose entries are within the limits one level down.  Sets are left
    out, as ``_Quote`` sorts them."""
    for value in values:
        kind = type(value)
        if kind is str:
            if len(value) > _MAX_TEXT or len(repr(value)) > _MAX_TEXT:
                return False
        elif kind is int:
            if not -_INT_BOUND < value < _INT_BOUND:
                return False
        elif kind is not bool and value is not None:
            limit = _ENTRIES.get(kind)
            if limit is None or level == 0 or len(value) > limit:
                return False
            entries = (chain.from_iterable(value.items()) if kind is dict
                       else value)
            if not _within_limits(entries, level - 1):
                return False
    return True


def quote(value) -> str:
    """How messages quote input values: short ones as ``repr``, huge
    ones short.  Values within ``_Quote``'s limits skip its walk."""
    if _within_limits((value,), _QUOTE.maxlevel):
        return repr(value)
    return _QUOTE.repr(value)


def shorten(text: str) -> str:
    """``text`` past ``quote``'s 40 characters cut to its first 40 and
    ``...``, for ids that messages name unquoted."""
    return text[:_MAX_TEXT] + "..." * (len(text) > _MAX_TEXT)


def pointer_token(key) -> str:
    """A JSON pointer token, ``~`` as ``~0`` and ``/`` as ``~1``, a key
    ``shorten``ed first."""
    return shorten(str(key)).replace("~", "~0").replace("/", "~1")


class Opt(NamedTuple):
    """A member that may be absent, and also null when ``null``."""

    shape: object
    null: bool = False


class Table(NamedTuple):
    keys: type
    values: object


class _Mismatch(Exception):
    """A value of the wrong shape.  ``keys`` gathers its JSON pointer,
    innermost key first, as the checkers unwind, so no pointer is built
    unless a value is wrong."""

    def __init__(self, problem: str, *keys):
        super().__init__(problem)
        self.keys = list(keys)

    def at(self, path: str) -> InputError:
        pointer = "/".join((path, *map(pointer_token, reversed(self.keys))))
        return InputError(f"{pointer or '/'}: {self}")


_EXPECTED = {int: "an integer", str: "a string", bool: "true or false"}

#: an absent member, which no JSON value is
_ABSENT = object()
#: keys that ``_index`` reads without a doubt: the canonical decimal
#: texts of the indices below 1024
_SHORT_INDICES = frozenset(map(str, range(1024)))
#: each shape's checker by ``id(shape)``, kept with the shape so that
#: no other shape takes its id while the checker is kept
_CHECKERS: dict[int, tuple[object, Callable]] = {}
#: the shapes kept at once; past that the table starts again, so
#: shapes built per call are not kept forever
_MAX_CHECKERS = 256


def conform(value, shape, path: str = "") -> None:
    """Raise ``InputError`` at ``path`` plus the JSON pointer of the
    first value in ``value`` that does not have ``shape``.  The checker
    of ``shape`` is compiled on its first use and kept with it."""
    entry = _CHECKERS.get(id(shape))
    if entry is None:
        if len(_CHECKERS) >= _MAX_CHECKERS:
            _CHECKERS.clear()
        entry = _CHECKERS[id(shape)] = (shape, _compile(shape))
    try:
        entry[1](value)
    except _Mismatch as wrong:
        raise wrong.at(path) from None


def _compile(shape) -> Callable:
    """The checker of ``shape``: a function that raises ``_Mismatch``
    at the first value that does not have it, one closure per array,
    pair, table or object."""
    if shape is None:
        return _anything
    kind = type(shape)
    if kind is type:
        return _leaf(shape)
    if kind is tuple:
        return _pair(shape)
    if kind is list:
        return _array(shape[0])
    if kind is Table:
        return _table(shape)
    return _object(shape)


def _anything(value) -> None:
    pass


def _leaf(leaf: type) -> Callable:
    expected = _EXPECTED[leaf]

    def check(value):
        if type(value) is not leaf:
            raise _Mismatch(f"expected {expected}, got {quote(value)}")
    return check


def _entry(shape) -> tuple[Optional[type], Callable]:
    """How a container tests an entry of ``shape``: a leaf type that
    passes it with no call, or None, and the checker to call when its
    type is not that leaf type.  ``type(x) is not None`` always holds."""
    return (shape if type(shape) is type else None), _compile(shape)


def _pair(shape) -> Callable:
    (leaf0, check0), (leaf1, check1) = map(_entry, shape)

    def check(value):
        if type(value) is not list or len(value) != 2:
            raise _Mismatch(f"expected an array of two entries, got {quote(value)}")
        first, second = value
        key = 0
        try:
            if type(first) is not leaf0:
                check0(first)
            key = 1
            if type(second) is not leaf1:
                check1(second)
        except _Mismatch as wrong:
            wrong.keys.append(key)
            raise
    return check


def _array(inner) -> Callable:
    leaf, check_entry = _entry(inner)

    def check(value):
        if type(value) is not list:
            raise _Mismatch("expected an array")
        for item in value:
            if type(item) is not leaf:
                try:
                    check_entry(item)
                except _Mismatch as wrong:
                    wrong.keys.append(_position(value, item))
                    raise
    return check


def _position(value: list, item) -> int:
    """The index of ``item`` in ``value``, the first by identity: a
    checker gives the same verdict each time it sees one object, so the
    first place that holds the wrong entry is where the walk stopped."""
    return next(i for i, entry in enumerate(value) if entry is item)


def _table(shape: Table) -> Callable:
    index_keys = shape.keys is int
    leaf, check_entry = _entry(shape.values)

    def check(value):
        if type(value) is not dict:
            raise _Mismatch("expected an object")
        if index_keys:
            for key in value:
                if key not in _SHORT_INDICES:
                    _index(key, key)
        for key, item in value.items():
            if type(item) is not leaf:
                try:
                    check_entry(item)
                except _Mismatch as wrong:
                    wrong.keys.append(key)
                    raise
    return check


def _object(shape: dict) -> Callable:
    """Members are checked for presence, in the shape's order, before
    any value is; a member of shape None is only checked for presence."""
    required = tuple(key for key, member in shape.items() if type(member) is not Opt)
    members = []
    for key, member in shape.items():
        null = False
        if type(member) is Opt:
            member, null = member
        if member is not None:
            members.append((key, null, *_entry(member)))

    def check(value):
        if type(value) is not dict:
            raise _Mismatch("expected an object")
        for key in required:
            if key not in value:
                raise _Mismatch("missing", key)
        for key, null, leaf, check_member in members:
            item = value.get(key, _ABSENT)
            if type(item) is not leaf and item is not _ABSENT and not (
                    null and item is None):
                try:
                    check_member(item)
                except _Mismatch as wrong:
                    wrong.keys.append(key)
                    raise
    return check



def _index(value, *keys) -> int:
    if (type(value) is str and value.isascii() and value.isdigit()
            and (value[0] != "0" or value == "0")):
        try:
            return int(value)
        except ValueError:
            problem = f"an index of {len(value)} digits is too long"
    else:
        problem = (f"expected a non-negative integer in canonical decimal, "
                   f"got {quote(value)}")
    raise _Mismatch(problem, *keys)


def read_index(value, path: str, *index) -> int:
    """A non-negative index from text such as a JSON object key, in
    canonical ASCII decimal only.  Anything else, including ``" 1"``,
    ``"01"`` and ``"-1"``, raises ``InputError`` naming the JSON pointer
    ``path`` followed by the ``index`` components, so two distinct keys
    never read as one index.  So does a key with more digits than
    Python's integer-string conversion limit
    (``sys.get_int_max_str_digits``)."""
    try:
        return _index(value, *reversed(index))
    except _Mismatch as wrong:
        raise wrong.at(path) from None
