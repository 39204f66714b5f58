import pytest

from spineflow import InputError
from spineflow.errors import conform, read_index


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
