import pytest

from spineflow import EquivalenceMode, FatGraph, InputError
from spineflow.errors import conform, pointer_token, quote, read_index
from spineflow.fatgraph import PairingError


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
