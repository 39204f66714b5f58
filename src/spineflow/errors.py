"""Exception classes shared by all spineflow modules, and the strict
integer, index, boolean and string readers that every JSON parser uses."""

import re


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


def read_int(value, path: str, *index) -> int:
    """An integer from parsed JSON.  Anything else, including ``true``,
    ``1.0`` and ``"1"``, raises ``InputError`` naming the JSON pointer
    ``path`` followed by the ``index`` components, instead of being
    coerced.  The pointer is only built on failure: parsers call this
    once per number."""
    if type(value) is not int:
        pointer = "/".join((path, *map(str, index)))
        raise InputError(f"{pointer}: expected an integer, got {value!r}")
    return value


def read_index(value, path: str, *index) -> int:
    """A non-negative index from text such as a JSON object key, in
    canonical ASCII decimal only.  Anything else, including ``" 1"``,
    ``"01"`` and ``"-1"``, raises ``InputError`` naming the JSON pointer
    like ``read_int``, so two distinct keys never read as one index."""
    if type(value) is not str or not re.fullmatch(r"0|[1-9][0-9]*", value):
        pointer = "/".join((path, *map(str, index)))
        raise InputError(f"{pointer}: expected a non-negative integer in "
                         f"canonical decimal, got {value!r}")
    return int(value)


def read_bool(value, path: str, *index) -> bool:
    """A boolean from parsed JSON: only ``true`` and ``false``.  Anything
    else, including ``"false"``, ``0`` and ``null``, raises
    ``InputError`` naming the JSON pointer like ``read_int``."""
    if type(value) is not bool:
        pointer = "/".join((path, *map(str, index)))
        raise InputError(f"{pointer}: expected true or false, got {value!r}")
    return value


def read_str(value, path: str, *index) -> str:
    """A string from parsed JSON.  Anything else, including ``1``,
    ``true`` and ``null``, raises ``InputError`` naming the JSON pointer
    like ``read_int``, instead of being turned into its ``str()``."""
    if type(value) is not str:
        pointer = "/".join((path, *map(str, index)))
        raise InputError(f"{pointer}: expected a string, got {value!r}")
    return value
