"""Exception classes shared by all spineflow modules, and ``conform``,
the one shape walk that every JSON reader runs before it builds
anything.  Shapes:

* ``int``, ``str`` and ``bool`` match only that exact JSON type
  (``true``, ``1.0`` and ``"1"`` are not integers);
* ``[s]`` is an array of ``s``; ``(s, t)`` an array of exactly two;
* a dict is an object with those members, each required unless it is
  an ``Opt``; other members are left alone;
* ``Table(keys, s)`` is an object with any keys, each of its values an
  ``s``; ``int`` keys must be canonical decimal indices (``read_index``);
* ``None`` is any value, left to the reader's semantic checks.

The first wrong value raises ``InputError`` naming its JSON pointer,
the deepest wrong value: a string among a spine's edge pairs is
reported at the entry, not at the array; its keys are escaped by
``pointer_token`` and its value quoted by ``quote``.  The walk tests
each value once, entry by entry, skipping only a pair of two right
leaves and an object member that is a right leaf.  Readers then build
their objects with no type tests, so shape errors come first.
"""

import reprlib
from itertools import chain, count, islice, repeat
from typing import NamedTuple


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
    innermost key first, as the walk unwinds, so no pointer is built
    unless a value is wrong."""

    def __init__(self, problem: str, *keys):
        super().__init__(problem)
        self.keys = list(keys)

    def at(self, path: str) -> InputError:
        pointer = "/".join((path, *map(pointer_token, reversed(self.keys))))
        return InputError(f"{pointer or '/'}: {self}")


_EXPECTED = {int: "an integer", str: "a string", bool: "true or false"}


def conform(value, shape, path: str = "") -> None:
    """Raise ``InputError`` at ``path`` plus the JSON pointer of the
    first value in ``value`` that does not have ``shape``."""
    try:
        _walk(value, shape)
    except _Mismatch as wrong:
        raise wrong.at(path) from None


def _walk(value, shape) -> None:
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
        entries = zip(count(), value, repeat(shape[0]))
    elif type(value) is not dict:
        raise _Mismatch("expected an object")
    elif kind is Table:
        if shape.keys is int:
            for key in value:
                _index(key, key)
        entries = zip(value, value.values(), repeat(shape.values))
    else:
        entries = []
        for key, member in shape.items():
            if type(member) is Opt:
                if key not in value or (member.null and value[key] is None):
                    continue
                member = member.shape
            elif key not in value:
                raise _Mismatch("missing", key)
            if member is not None and type(value[key]) is not member:
                entries.append((key, value[key], member))  # not a right leaf
    key = None
    try:
        for key, item, inner in entries:
            _walk(item, inner)
    except _Mismatch as wrong:
        wrong.keys.append(key)
        raise


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
