"""Command-line front end.

Every subcommand is a thin adapter over the library: it parses JSON
input files, calls one library operation and serializes the result.
Exit status 0 means pass / true / equivalent, 1 means fail / false /
inequivalent, 2 means a usage or parse error.  Output is deterministic
byte for byte for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .census import spine_census
from .equivalence import (EquivalenceMode, normalize_matrix, spec_equivalent)
from .errors import InputError, SpineflowError
from .fatgraph import spine_to_json
from .flowgraph import (ItineraryWord, build_flow_graph, flow_graph_to_edge_text,
                        flow_graph_to_json, is_transitive, periodic_words,
                        validate_itinerary, word_counts)
from .model import (GluingMatrix, orientation_classes, spec_from_json,
                    validate_spec)

USAGE_ERROR = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built by the first ``run`` call, not at import, and reused by
    every later one: parsing keeps no state in the parser, and usage,
    help and version text go to whatever ``sys.stdout`` and
    ``sys.stderr`` are at the time of each call."""
    parser = argparse.ArgumentParser(
        prog="spineflow",
        description="validate, query and compare model-flow specifications")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, files=()):
        p = sub.add_parser(name, help=help_text)
        for f in files:
            p.add_argument(f, help=f"path to {f}")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    add("validate", "check a specification against all conditions",
        files=("spec",))
    add("build-graph", "build the quotient oriented graph", files=("spec",))
    add("transitive", "decide strong connectivity of the quotient graph",
        files=("spec",))
    add("orient", "enumerate the 2^k orientation classes", files=("spec",))
    p = add("equiv", "decide equivalence of two specifications",
            files=("spec_a", "spec_b"))
    p.add_argument("--mode", default="isotopy-with-twists",
                   choices=[m.value for m in EquivalenceMode])
    p.add_argument("--allow-reflection", action="store_true")
    p = add("itinerary", "check a symbolic itinerary word",
            files=("spec", "word"))
    p = add("census", "enumerate valid spines up to isomorphism")
    p.add_argument("--max-edges", type=int, default=4)
    p = add("periodic", "census closed walks of the quotient graph",
            files=("spec",))
    p.add_argument("--max-len", type=int, default=4)
    add("normalize-matrix", "canonical form of a gluing matrix",
        files=("matrix",))
    return parser


def _load_json(path: str):
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
        if "\r" in text:
            # the newlines of text mode, which error positions count in
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except OSError as err:
        raise InputError(f"{path}: {err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise InputError(
            f"{path}: line {err.lineno} column {err.colno}: {err.msg}") from err
    except RecursionError as err:
        raise InputError(f"{path}: nested too deeply to read") from err
    except ValueError as err:
        # not UTF-8, or an integer past Python's int-string digit limit
        raise InputError(f"{path}: {err}") from err


def _load_spec(path: str):
    return spec_from_json(_load_json(path), path=path)


def _json_text(value, out: list, newline: str = "\n") -> None:
    """Append the bytes of ``json.dumps(value, indent=2, sort_keys=True)``
    to ``out``.  With an indent the standard library runs its
    pure-Python encoder; this writer covers only the payload types
    (dicts with string keys, lists and tuples, strings, integers,
    booleans and None) and raises ``TypeError`` on anything else.  It
    tests the exact types of the payload first, and writes an array of
    strings or integers in one join."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict or kind is list or kind is tuple:
        if not value:
            out.append("{}" if kind is dict else "[]")
            return
        inner = newline + "  "
        if kind is dict:
            out.append("{")
            for i, key in enumerate(sorted(value)):
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be strings, got {key!r}")
                out.append((inner if i == 0 else "," + inner)
                           + encode_basestring_ascii(key) + ": ")
                _json_text(value[key], out, inner)
            out.append(newline + "}")
            return
        kinds = set(map(type, value))
        if kinds == {str} or kinds == {int}:
            out.append("[" + inner + ("," + inner).join(map(
                encode_basestring_ascii if kinds == {str} else int.__repr__, value))
                + newline + "]")
            return
        out.append("[")
        for i, item in enumerate(value):
            out.append(inner if i == 0 else "," + inner)
            _json_text(item, out, inner)
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _emit(payload: dict, text_lines, fmt: str) -> None:
    """Write ``payload`` as JSON, or for ``--format text`` the lines
    that the callable ``text_lines`` returns; it runs only then."""
    if fmt == "json":
        out: list[str] = []
        _json_text(payload, out)
        out.append("\n")
        sys.stdout.write("".join(out))
    else:
        for line in text_lines():
            sys.stdout.write(line + "\n")


def run(argv) -> int:
    """One request: parse ``argv``, dispatch, return the exit status.
    May be called any number of times in one process."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else USAGE_ERROR

    try:
        return _dispatch(args)
    except SpineflowError as err:
        sys.stderr.write(f"error: {err}\n")
        return USAGE_ERROR


def _dispatch(args) -> int:
    if args.command == "validate":
        spec = _load_spec(args.spec)
        report = validate_spec(spec)
        _emit(report.to_json(), report.lines, args.format)
        return 0 if report.passed else 1

    if args.command == "build-graph":
        graph = build_flow_graph(_load_spec(args.spec))
        _emit(flow_graph_to_json(graph),
              lambda: flow_graph_to_edge_text(graph).splitlines(), args.format)
        return 0

    if args.command == "transitive":
        graph = build_flow_graph(_load_spec(args.spec))
        verdict = is_transitive(graph)
        _emit({"transitive": verdict},
              lambda: [f"transitive: {str(verdict).lower()}"], args.format)
        return 0 if verdict else 1

    if args.command == "orient":
        count, reps = orientation_classes(_load_spec(args.spec))
        payload = {"count": count, "classes": [rep.to_json() for rep in reps]}
        _emit(payload, lambda: [f"count: {count}"] + [
            " ".join(f"{pid}.v{v}={s:+d}" for (pid, v), s in sorted(rep.signs.items()))
            for rep in reps], args.format)
        return 0

    if args.command == "equiv":
        spec_a = _load_spec(args.spec_a)
        spec_b = _load_spec(args.spec_b)
        mode = EquivalenceMode.parse(args.mode)
        witness = spec_equivalent(spec_a, spec_b, mode,
                                  allow_reflection=args.allow_reflection)
        if witness is None:
            _emit({"equivalent": False, "mode": mode.value},
                  lambda: ["inequivalent"], args.format)
            return 1
        _emit({"equivalent": True, "mode": mode.value,
               "witness": witness.to_json()},
              lambda: ["equivalent"], args.format)
        return 0

    if args.command == "itinerary":
        graph = build_flow_graph(_load_spec(args.spec))
        word = ItineraryWord.from_json(_load_json(args.word), path=args.word)
        verdict = validate_itinerary(graph, word, path=args.word)
        _emit({"realizable": verdict},
              lambda: [f"realizable: {str(verdict).lower()}"], args.format)
        return 0 if verdict else 1

    if args.command == "census":
        spines = spine_census(args.max_edges)
        payload = {"count": len(spines),
                   "spines": [spine_to_json(s) for s in spines]}
        _emit(payload, lambda: [f"count: {len(spines)}"] + [
            json.dumps(s, sort_keys=True) for s in payload["spines"]], args.format)
        return 0

    if args.command == "periodic":
        graph = build_flow_graph(_load_spec(args.spec))
        words = periodic_words(graph, args.max_len)
        counts = word_counts(words)
        payload = {"counts": {str(k): v for k, v in counts.items()},
                   "words": [list(w.cycle) for w in words]}
        _emit(payload, lambda: [f"length {k}: {v}" for k, v in counts.items()]
              + [" ".join(w.cycle) for w in words], args.format)
        return 0

    if args.command == "normalize-matrix":
        rows = _load_json(args.matrix)
        matrix = GluingMatrix.from_rows(rows, path=args.matrix)
        normal = normalize_matrix(matrix)
        _emit({"normalized": normal.rows()},
              lambda: [json.dumps(normal.rows())], args.format)
        return 0

    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
