import json
import subprocess
import sys
from pathlib import Path

import pytest

from spineflow.cli import run

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

    def test_six_edges_over_capacity(self, capsys):
        code, out, err = invoke(capsys, "census", "--max-edges", "6")
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
        ("spec", "/pieces/0/spine/edges",
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
    ], ids=["bases", "dehn", "darts", "edges", "head_orbit", "string-dart",
            "string-edges", "float-matrix-entry", "bool-seed-sign",
            "bool-piece-id", "int-piece-id", "float-piece-id",
            "int-body-letter", "list-body-letter", "spaced-color-key",
            "duplicate-color-key", "duplicate-dehn-key", "padded-torus-label"])
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


class TestPropagationCount:
    """Validation and the later orientation readers of one request share
    one propagation per piece and seed."""

    @pytest.fixture
    def counter(self, monkeypatch):
        import spineflow.model as model
        calls = []
        original = model.propagate_orientations

        def counting(piece, seed):
            calls.append((piece.piece_id, tuple(seed)))
            return original(piece, seed)

        monkeypatch.setattr(model, "propagate_orientations", counting)
        return calls

    def test_transitive_propagates_once(self, capsys, counter):
        code, _, _ = invoke(capsys, "transitive", BANANA)
        assert code == 0
        assert counter == [("P", (0, 1))]

    def test_exact_equiv_propagates_once_per_piece(self, capsys, counter):
        code, _, _ = invoke(capsys, "equiv", BANANA, TWISTED, "--mode", "exact")
        assert code == 1
        assert counter == [("P", (0, 1)), ("P", (0, 1))]

    def test_changed_seed_takes_effect(self, banana_spec, counter):
        from spineflow import build_flow_graph
        first = build_flow_graph(banana_spec)
        banana_spec.orientation_seed["P"] = (0, -1)
        second = build_flow_graph(banana_spec)
        assert [e.sign for e in second.edges] == [-e.sign for e in first.edges]
        assert counter == [("P", (0, 1)), ("P", (0, -1))]
        build_flow_graph(banana_spec)
        assert len(counter) == 2


class TestThinAdapter:
    """CLI payloads are the library outputs, serialized."""

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
