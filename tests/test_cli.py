import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chains import banana_chain
from spineflow import spec_from_json, spec_to_json
from spineflow.cli import _json_text, run

FIXTURES = Path(__file__).parent / "fixtures"
BANANA = str(FIXTURES / "banana_spec.json")
TWISTED = str(FIXTURES / "banana_spec_twisted.json")
NECKLACE = str(FIXTURES / "necklace_spec.json")
WORD_BODY = str(FIXTURES / "word_body.json")
WORD_TAIL = str(FIXTURES / "word_tail.json")
MATRIX = str(FIXTURES / "matrix.json")


def load(path):
    with open(path) as handle:
        return json.load(handle)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_banana_passes_with_condition_lines(self, capsys):
        code, out, _ = invoke(capsys, "validate", BANANA, "--format", "text")
        assert code == 0
        for n in (1, 2, 3, 4):
            assert f"condition {n}" in out
        assert "overall: pass" in out

    def test_json_payload(self, capsys):
        code, out, _ = invoke(capsys, "validate", BANANA)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert any("condition 1" in c["name"] for c in payload["checks"])

    def test_failing_spec_exits_one(self, capsys, tmp_path):
        spec = load(BANANA)
        spec["matrices"]["0"] = [[1, 5], [0, 1]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, _ = invoke(capsys, "validate", str(bad))
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestTransitive:
    def test_banana_is_transitive(self, capsys):
        code, out, _ = invoke(capsys, "transitive", BANANA)
        assert code == 0
        assert json.loads(out) == {"transitive": True}


class TestBuildGraph:
    def test_text_edge_list(self, capsys):
        code, out, _ = invoke(capsys, "build-graph", BANANA,
                              "--format", "text")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["T0", "T1", "-1", "P.e0"]

    def test_json_deterministic(self, capsys):
        _, first, _ = invoke(capsys, "build-graph", BANANA)
        _, second, _ = invoke(capsys, "build-graph", BANANA)
        assert first == second
        payload = json.loads(first)
        assert {"vertices", "edges", "accumulation"} <= set(payload)


class TestOrient:
    def test_counts(self, capsys):
        code, out, _ = invoke(capsys, "orient", BANANA)
        assert code == 0
        assert json.loads(out)["count"] == 2
        code, out, _ = invoke(capsys, "orient", NECKLACE)
        assert json.loads(out)["count"] == 4

    @pytest.mark.parametrize("edit", [
        lambda s: s["matrices"].update({"0": [[2, 1], [2, 3]]}),
        lambda s: s.update(pairing=s["pairing"][:1],
                           matrices={"0": s["matrices"]["0"]}),
    ], ids=["non-unimodular-matrix", "one-pair"])
    def test_invalid_spec_exits_two_like_build_graph(self, capsys, tmp_path,
                                                     edit):
        spec = load(BANANA)
        edit(spec)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        for command in ("orient", "build-graph"):
            code, out, err = invoke(capsys, command, str(bad))
            assert code == 2
            assert out == ""
            assert err.startswith("error: specification is invalid (")


    def test_seventeen_piece_chain_exits_two(self, capsys, tmp_path):
        banana = spec_from_json(load(BANANA))
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(spec_to_json(banana_chain(banana, [2] * 34))))
        code, out, err = invoke(capsys, "orient", str(chain))
        assert (code, out) == (2, "")
        assert err == ("error: orientation classes are listed for at most "
                       "16 pieces, got 17\n")


class TestEquiv:
    def test_twisted_copy(self, capsys):
        code, out, _ = invoke(capsys, "equiv", BANANA, TWISTED,
                              "--mode", "isotopy-with-twists")
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True
        assert "witness" in payload

        code, out, _ = invoke(capsys, "equiv", BANANA, TWISTED,
                              "--mode", "exact")
        assert code == 1
        assert json.loads(out)["equivalent"] is False

    def test_invalid_input_exits_two(self, capsys, tmp_path):
        spec = load(BANANA)
        spec["matrices"]["0"] = [[1, 5], [0, 1]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, _, err = invoke(capsys, "equiv", BANANA, str(bad))
        assert code == 2
        assert "error" in err


class TestItinerary:
    def test_body_word(self, capsys):
        code, out, _ = invoke(capsys, "itinerary", BANANA, WORD_BODY)
        assert code == 0
        assert json.loads(out) == {"realizable": True}

    def test_tail_word(self, capsys):
        code, out, _ = invoke(capsys, "itinerary", BANANA, WORD_TAIL)
        assert code == 0

    def test_unrealizable_word(self, capsys, tmp_path):
        word = tmp_path / "word.json"
        word.write_text(json.dumps(
            {"body": [], "head_orbit": "P.v0", "tail_orbit": "P.v1"}))
        code, out, _ = invoke(capsys, "itinerary", BANANA, str(word))
        assert code == 1
        assert json.loads(out) == {"realizable": False}


class TestCensus:
    def test_two_edges(self, capsys):
        code, out, _ = invoke(capsys, "census", "--max-edges", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        assert len(payload["spines"]) == 1

    def test_deterministic(self, capsys):
        _, first, _ = invoke(capsys, "census", "--max-edges", "4")
        _, second, _ = invoke(capsys, "census", "--max-edges", "4")
        assert first == second

    def test_five_edges_print_the_four_edge_spines(self, capsys):
        _, four, _ = invoke(capsys, "census", "--max-edges", "4")
        code, five, _ = invoke(capsys, "census", "--max-edges", "5")
        assert code == 0
        assert five == four
        assert json.loads(five)["count"] == 9

    def test_seven_edges_print_the_six_edge_spines(self, capsys):
        _, six, _ = invoke(capsys, "census", "--max-edges", "6")
        code, seven, _ = invoke(capsys, "census", "--max-edges", "7")
        assert code == 0
        assert seven == six
        assert json.loads(seven)["count"] == 91

    def test_nine_edges_print_the_eight_edge_spines(self, capsys):
        _, eight, _ = invoke(capsys, "census", "--max-edges", "8")
        code, nine, _ = invoke(capsys, "census", "--max-edges", "9")
        assert code == 0
        assert nine == eight
        assert json.loads(nine)["count"] == 3181

    def test_ten_edges_over_capacity(self, capsys):
        code, out, err = invoke(capsys, "census", "--max-edges", "10")
        assert code == 2
        assert out == ""
        assert "max_edges" in err


class TestPeriodic:
    def test_counts(self, capsys):
        code, out, _ = invoke(capsys, "periodic", BANANA, "--max-len", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == {"1": 2, "2": 3}


class TestNormalizeMatrix:
    def test_example(self, capsys):
        code, out, _ = invoke(capsys, "normalize-matrix", MATRIX)
        assert code == 0
        assert json.loads(out) == {"normalized": [[1, 0], [5, 1]]}

    def test_upper_triangular_rejected(self, capsys, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text("[[1, 5], [0, 1]]")
        code, _, err = invoke(capsys, "normalize-matrix", str(bad))
        assert code == 2


class TestErrors:
    def test_unknown_flag_exits_two(self, capsys):
        code, _, err = invoke(capsys, "transitive", BANANA, "--bogus")
        assert code == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate", BANANA)
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "validate", "no_such_file.json")
        assert code == 2
        assert "no_such_file.json" in err

    def test_json_syntax_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"pieces": [\n  broken\n]}')
        code, _, err = invoke(capsys, "validate", str(bad))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("opening", ["[", '{"a":'])
    def test_deep_nesting_exits_two(self, capsys, tmp_path, opening):
        bad = tmp_path / "deep.json"
        bad.write_text(opening * 200_000)
        code, out, err = invoke(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: ")
        assert "Traceback" not in err

    def test_schema_error_reports_pointer(self, capsys, tmp_path):
        spec = load(BANANA)
        del spec["matrices"]["1"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, _, err = invoke(capsys, "validate", str(bad))
        assert code == 2
        assert "/matrices/1" in err


def rename_piece(spec, new_id):
    """Give the banana fixture's one piece the id ``new_id`` and rename
    its seed key and torus labels to ``str(new_id)``, so that only the
    type of the id is wrong."""
    name = str(new_id)
    spec["pieces"][0]["id"] = new_id
    spec["orientation_seed"] = {name: spec["orientation_seed"]["P"]}
    spec["pairing"] = [[label.replace("P.", name + ".") for label in pair]
                       for pair in spec["pairing"]]


class TestShapeErrors:
    """Wrong JSON shapes, numbers that are not JSON integers, and ids
    that are not JSON strings exit 2 naming a JSON pointer, never a
    traceback or a silent coercion."""

    @pytest.mark.parametrize("kind, pointer, edit", [
        ("spec", "/bases", lambda s: s.update(bases=[1])),
        ("spec", "/pieces/0/dehn", lambda s: s["pieces"][0].update(dehn=[1])),
        ("spec", "/pieces/0/spine/darts",
         lambda s: s["pieces"][0]["spine"].update(darts=None)),
        ("spec", "/pieces/0/spine/edges",
         lambda s: s["pieces"][0]["spine"].update(edges="ab")),
        ("word", "/head_orbit", lambda w: w.update(head_orbit=["x"])),
        ("spec", "/pieces/0/spine/darts/0",
         lambda s: s["pieces"][0]["spine"]["darts"].__setitem__(0, "1")),
        ("spec", "/pieces/0/spine/edges/0",
         lambda s: s["pieces"][0]["spine"].update(
             edges=["12", "34", "56", "78"])),
        ("spec", "/matrices/0/1/0",
         lambda s: s["matrices"]["0"][1].__setitem__(0, 1.9)),
        ("spec", "/orientation_seed/P/1",
         lambda s: s["orientation_seed"]["P"].__setitem__(1, True)),
        ("spec", "/pieces/0/id", lambda s: rename_piece(s, True)),
        ("spec", "/pieces/0/id", lambda s: rename_piece(s, 1)),
        ("spec", "/pieces/0/id", lambda s: rename_piece(s, 1.0)),
        ("word", "/body/0", lambda w: w["body"].__setitem__(0, 0)),
        ("word", "/body/0", lambda w: w["body"].__setitem__(0, ["T0"])),
        ("spec", "/pieces/0/spine/colors/ 1",
         lambda s: s["pieces"][0]["spine"]["colors"].update(
             {" 1": s["pieces"][0]["spine"]["colors"].pop("1")})),
        ("spec", "/pieces/0/spine/colors/01",
         lambda s: s["pieces"][0]["spine"]["colors"].update({"01": "EXIT"})),
        ("spec", "/pieces/0/dehn/00",
         lambda s: s["pieces"][0]["dehn"].update({"00": [3, 1]})),
        ("spec", "/pairing/1/0",
         lambda s: s["pairing"][1].__setitem__(0, "P.c00")),
        ("spec", "/orientation_seed/GHOST",
         lambda s: s["orientation_seed"].update(GHOST=[7, 1])),
        ("spec", "/pairing/0",
         lambda s: s["pairing"].__setitem__(
             0, {label: n for n, label in enumerate(s["pairing"][0], 1)})),
        ("spec", "/pairing/0",
         lambda s: s["pairing"][0].append(s["pairing"][0][1])),
        ("spec", "/pairing/0/1",
         lambda s: s["pairing"][0].__setitem__(1, 1)),
        ("spec", "/pieces/0/spine/edges",
         lambda s: s["pieces"][0]["spine"]["edges"].__setitem__(0, [1, 1])),
        ("spec", "/pieces/0/spine/edges/0",
         lambda s: s["pieces"][0]["spine"]["edges"].__setitem__(0, [1, 2, 3])),
        ("spec", "/pieces/0/spine/rotation",
         lambda s: s["pieces"][0]["spine"].update(rotation=[])),
        ("spec", "/pieces/0/spine/rotation",
         lambda s: s["pieces"][0]["spine"].update(rotation=[[1, 2], []])),
    ], ids=["bases", "dehn", "darts", "edges", "head_orbit", "string-dart",
            "string-edges", "float-matrix-entry", "bool-seed-sign",
            "bool-piece-id", "int-piece-id", "float-piece-id",
            "int-body-letter", "list-body-letter", "spaced-color-key",
            "duplicate-color-key", "duplicate-dehn-key", "padded-torus-label",
            "unknown-seed-piece", "object-pair", "three-entry-pair",
            "int-torus-label", "repeated-edge-dart", "three-dart-edge",
            "no-rotation-cycles", "empty-rotation-cycle"])
    def test_exits_two_with_pointer(self, capsys, tmp_path, kind, pointer, edit):
        data = load(BANANA if kind == "spec" else WORD_TAIL)
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        argv = (["validate", str(bad)] if kind == "spec"
                else ["itinerary", BANANA, str(bad)])
        code, _, err = invoke(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {bad}{pointer}: ")


class TestLongValues:
    """A huge input value is quoted short in the error, at its pointer;
    a short one reads in full."""

    @pytest.mark.parametrize("pointer, edit", [
        ("/pairing/0",
         lambda s: s["pairing"].__setitem__(0, list(range(100_000)))),
        ("/pieces/0/dehn/0",
         lambda s: s["pieces"][0]["dehn"].__setitem__("0", "9" * 50_000)),
        ("/pairing/0/0",
         lambda s: s["pairing"][0].__setitem__(0, "P" * 50_000)),
        ("/pairing/0/0",
         lambda s: s["pairing"][0].__setitem__(0, "P.c" + "x" * 50_000)),
        ("/pieces/0/spine/colors",
         lambda s: s["pieces"][0]["spine"]["colors"].update(
             {str(k): "EXIT" for k in range(100_000)})),
        ("/pieces/0/spine/colors",
         lambda s: s["pieces"][0]["spine"]["colors"].__setitem__(
             "0", "EXIT" * 20_000)),
        ("/orientation_seed/" + "x" * 40 + ".../1",
         lambda s: s["orientation_seed"].__setitem__("x" * 50_000, [0, "+"])),
        ("/orientation_seed/" + "x" * 40 + "...",
         lambda s: s["orientation_seed"].__setitem__("x" * 50_000, [0, 1])),
        ("/matrices/" + "9" * 40 + "...",
         lambda s: s["matrices"].__setitem__("9" * 4000, [[0, 1], [1, 0]])),
    ], ids=["pair-entry", "dehn-value", "torus-label", "torus-index",
            "color-keys", "color-value", "seed-key-bad-sign",
            "seed-key-unknown-piece", "matrix-key"])
    def test_message_is_short(self, capsys, tmp_path, pointer, edit):
        data = load(BANANA)
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = invoke(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}{pointer}: ")
        assert len(err) < 1000
        assert "..." in err

    @pytest.mark.parametrize("pointer, word", [
        ("/body/1", {"body": ["T0", "T" + "0" * 50_000]}),
        ("/head_orbit", {"body": ["T0"], "head_orbit": "P.v" + "0" * 50_000}),
        ("/tail_orbit", {"body": ["T0"], "tail_orbit": "O" * 50_000}),
    ], ids=["body-letter", "head-orbit", "tail-orbit"])
    def test_long_word_id_is_cut(self, capsys, tmp_path, pointer, word):
        bad = tmp_path / "word.json"
        bad.write_text(json.dumps(word))
        code, out, err = invoke(capsys, "itinerary", BANANA, str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}{pointer}: unknown ")
        assert len(err) < 1000
        assert "..." in err

    @pytest.mark.parametrize("command", ["build-graph", "orient", "equiv"])
    def test_long_piece_id_is_cut(self, capsys, tmp_path, command):
        data = load(BANANA)
        pid = "P" * 50_000
        data["pieces"][0]["id"] = pid
        data["pairing"] = [[pid + src[1:], pid + dst[1:]]
                           for src, dst in data["pairing"]]
        data["orientation_seed"] = {pid: [0, -2]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        files = [str(bad)] * (2 if command == "equiv" else 1)
        code, out, err = invoke(capsys, command, *files)
        assert (code, out) == (2, "")
        assert f"(orientation of piece {'P' * 40}...)" in err
        assert len(err) < 1000
        assert "Traceback" not in err

    @pytest.mark.parametrize("sign, status", [(1, 0), (-2, 1)])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_long_piece_id_report_is_cut(self, capsys, tmp_path, fmt, sign,
                                         status):
        # whole ids made about 450,000 bytes of report
        data = load(BANANA)
        pid = "P" * 50_000
        data["pieces"][0]["id"] = pid
        data["pairing"] = [[pid + src[1:], pid + dst[1:]]
                           for src, dst in data["pairing"]]
        data["orientation_seed"] = {pid: [0, sign]}
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps(data))
        code, out, err = invoke(capsys, "validate", str(bad), "--format", fmt)
        assert (code, err) == (status, "")
        assert len(out) < 5000
        if fmt == "text":
            assert f"exit tori: pass (sources [('{'P' * 17}..." in out
        else:
            assert json.loads(out)["passed"] is (sign == 1)

    @pytest.mark.parametrize("seed", [[int("9" * 4000), 1], [0, int("9" * 4000)]],
                             ids=["vertex", "sign"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_seed_report_is_cut(self, capsys, tmp_path, fmt, seed):
        # the whole seed made a 5,811-byte text report
        data = load(BANANA)
        data["orientation_seed"] = {"P": seed}
        bad = tmp_path / "seed.json"
        bad.write_text(json.dumps(data))
        code, out, err = invoke(capsys, "validate", str(bad), "--format", fmt)
        assert (code, err) == (1, "")
        assert len(out) < 5000
        assert "9" * 18 + "..." in out

    def test_short_value_reads_in_full(self, capsys, tmp_path):
        data = load(BANANA)
        data["pieces"][0]["spine"]["edges"][0] = "12"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        _, _, err = invoke(capsys, "validate", str(bad))
        assert err == (f"error: {bad}/pieces/0/spine/edges/0: expected an "
                       "array of two entries, got '12'\n")


class TestPointerEscape:
    """Object keys in error pointers are escaped as RFC 6901 asks: ``~``
    as ``~0`` and ``/`` as ``~1``.  The file name is not escaped."""

    @pytest.mark.parametrize("pointer, seeds", [
        ("/orientation_seed/P~10/1", {"P": [0, 1], "P/0": [0, True]}),
        ("/orientation_seed/a~0b~1c", {"P": [0, 1], "a~b/c": [0, 1]}),
    ], ids=["bad-sign", "unknown-piece"])
    def test_seed_key(self, capsys, tmp_path, pointer, seeds):
        data = load(BANANA)
        data["orientation_seed"] = seeds
        bad = tmp_path / "b~a/d.json"
        bad.parent.mkdir()
        bad.write_text(json.dumps(data))
        code, _, err = invoke(capsys, "validate", str(bad))
        assert code == 2
        assert err.startswith(f"error: {bad}{pointer}: ")


#: characters for random strings: ASCII, quotes and escapes, control
#: characters, non-ASCII from several planes, a lone surrogate
CHARS = "aZ09 -_.\"\\/\n\t\r\x00\x01\x1f\x7f\u00e9\u00fc\u2603\u20ac\ud800\U0001F600"


def random_payload(rng, depth: int):
    """A random payload of the types ``_json_text`` writes, ``depth``
    containers deep at most."""
    def text():
        return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 6)))

    def leaf():
        return rng.choice((text, lambda: rng.randint(-10 ** 20, 10 ** 20),
                           lambda: rng.randint(-3, 3),
                           lambda: rng.choice((True, False, None))))()

    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return leaf()
    n = rng.choice((0, 1, 2, 5))
    if roll < 0.4:
        return [text() for _ in range(n)]
    if roll < 0.5:
        return [rng.randint(-99, 99) for _ in range(n)]
    if roll < 0.55:
        return [rng.choice((True, False)) for _ in range(n)]
    if roll < 0.7:
        items = [random_payload(rng, depth - 1) for _ in range(n)]
        return tuple(items) if rng.random() < 0.3 else items
    return {text(): random_payload(rng, depth - 1) for _ in range(n)}


class TestJsonWriter:
    """``_json_text`` writes the bytes of ``json.dumps(indent=2,
    sort_keys=True)`` for the payload types, and refuses the rest."""

    @pytest.mark.parametrize("value", [
        {},
        [],
        {"b": [1, -2, {"c": [], "a": {}}], "a": (True, False, None, 0, 1)},
        [[[]], [{}], {"x": [[-7]]}],
        {"ünï": "cödé \u2603 \U0001F600 \"quoted\" \\ \n\t\x01"},
        {"true": 1, "one": True, "zero": 0, "false": False, "big": -10 ** 30},
        "plain",
        -3,
        None,
    ], ids=["empty-dict", "empty-list", "nested", "deep-lists", "non-ascii",
            "bool-versus-int", "bare-string", "bare-int", "null"])
    def test_same_bytes_as_json_dumps(self, value):
        out = []
        _json_text(value, out)
        assert "".join(out) == json.dumps(value, indent=2, sort_keys=True)

    def test_random_payloads(self):
        """Seeded payloads: arrays of strings, of integers and of mixed
        values, tuples, empty containers, nested objects, non-ASCII and
        control characters."""
        rng = random.Random(2027)
        for _ in range(3000):
            value = random_payload(rng, 3)
            out = []
            _json_text(value, out)
            assert "".join(out) == json.dumps(value, indent=2, sort_keys=True), value

    @pytest.mark.parametrize("value", [
        1.5, {1: "int key"}, {"set": {1}}, [b"bytes"]],
        ids=["float", "int-key", "set", "bytes"])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            _json_text(value, [])


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no integer-string conversion limit")
class TestOverlongIntegers:
    """Integers past Python's integer-string conversion limit exit 2
    naming the file or the JSON pointer, not with a traceback."""

    def test_matrix_entry(self, capsys, tmp_path):
        spec = load(BANANA)
        bad = tmp_path / "bad.json"
        digits = "9" * (sys.get_int_max_str_digits() + 701)
        # json.dumps cannot write such an int, so it is spliced into text
        text = json.dumps(spec).replace("[[0, 1], [1, 0]]",
                                        f"[[0, 1], [1, {digits}]]", 1)
        assert digits in text
        bad.write_text(text)
        code, out, err = invoke(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: ")

    def test_dehn_key(self, capsys, tmp_path):
        spec = load(BANANA)
        key = "1" * (sys.get_int_max_str_digits() + 700)
        spec["pieces"][0]["dehn"][key] = [1, 0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = invoke(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert err == (f"error: {bad}/pieces/0/dehn/{key[:40]}...: "
                       f"an index of {len(key)} digits is too long\n")


def test_non_utf8_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = invoke(capsys, "validate", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: ")


class TestPropagationCount:
    """Validation and the later orientation readers of one request read
    one vertex 2-coloring per graph, and a changed seed reads the same
    coloring again."""

    @pytest.fixture
    def counter(self, monkeypatch):
        import spineflow.fatgraph as fatgraph
        calls = []
        original = fatgraph.two_color

        def counting(root, neighbors):
            calls.append(root)
            return original(root, neighbors)

        monkeypatch.setattr(fatgraph, "two_color", counting)
        return calls

    def test_transitive_colors_once(self, capsys, counter):
        code, _, _ = invoke(capsys, "transitive", BANANA)
        assert code == 0
        assert counter == [0]

    def test_exact_equiv_colors_once_per_graph(self, capsys, counter):
        code, _, _ = invoke(capsys, "equiv", BANANA, TWISTED, "--mode", "exact")
        assert code == 1
        assert counter == [0, 0]

    def test_changed_seed_takes_effect(self, banana_spec, counter):
        from spineflow import build_flow_graph
        first = build_flow_graph(banana_spec)
        assert counter == [0]
        banana_spec.orientation_seed["P"] = (0, -1)
        second = build_flow_graph(banana_spec)
        assert [e.sign for e in second.edges] == [-e.sign for e in first.edges]
        assert counter == [0]


class TestThinAdapter:
    """CLI payloads are the library outputs, serialized."""

    @pytest.mark.parametrize("argv, lines_of", [
        (["build-graph", BANANA], "spineflow.cli.flow_graph_to_edge_text"),
        (["validate", BANANA], "spineflow.report.ValidationReport.lines"),
    ])
    def test_text_lines_only_for_text(self, capsys, monkeypatch, argv, lines_of):
        """JSON output builds no text lines."""
        def refuse(*args):
            raise AssertionError("text lines built for JSON output")

        monkeypatch.setattr(lines_of, refuse)
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)

    def test_validate_payload(self, capsys, banana_spec):
        from spineflow import validate_spec
        _, out, _ = invoke(capsys, "validate", BANANA)
        assert json.loads(out) == validate_spec(banana_spec).to_json()

    def test_build_graph_payload(self, capsys, banana_spec):
        from spineflow import build_flow_graph, flow_graph_to_json
        _, out, _ = invoke(capsys, "build-graph", BANANA)
        assert json.loads(out) == flow_graph_to_json(
            build_flow_graph(banana_spec))

    def test_orient_payload(self, capsys, banana_spec):
        from spineflow import orientation_classes
        _, out, _ = invoke(capsys, "orient", BANANA)
        count, reps = orientation_classes(banana_spec)
        payload = json.loads(out)
        assert payload["count"] == count
        assert payload["classes"] == [rep.to_json() for rep in reps]


class TestConsoleScript:
    def test_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "spineflow.cli", "transitive", BANANA],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"transitive": True}
