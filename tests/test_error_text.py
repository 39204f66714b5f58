"""The cold path's output, pinned by one digest.

Every subcommand that reads a specification runs, in both formats, on
the seeded mutants of ``test_fuzz``, on the malformed files of the CI
job and on files that cannot be read as UTF-8 JSON: a missing file, a
file that is not UTF-8, one with a UTF-8 byte-order mark, one in UTF-16
and one whose syntax error follows CR and CRLF line ends.  One SHA-256 over every (argv, exit code, stdout, stderr)
holds them all, so a change to how files are read, shapes conformed
or spines built must leave every error text as it was.  Files are
named relative to the working directory, so the digest does not depend
on where the tests run.
"""

import hashlib
import json
import random
import shutil
from pathlib import Path

from spineflow.cli import run
from test_fuzz import MUTANTS, SEED, SPECS, WORD, commands, mutate

FORMATS = ("json", "text")

#: recorded before spines were shared by their text
DIGEST = "bc0a9579e269cfc1853913aa3c711c792f7928e6edca8574703f93a5c0263262"


def _banana():
    return json.loads((SPECS[0].parent / "banana_spec.json").read_text())


def _long_piece_id():
    spec, p = _banana(), "P" * 50000
    spec["pieces"][0]["id"] = p
    spec["pairing"] = [[p + a[1:], p + b[1:]] for a, b in spec["pairing"]]
    spec["orientation_seed"] = {p: [0, -2]}
    return spec


def _odd_files():
    """Name -> bytes of the CI job's malformed files and of the files
    that are not UTF-8 JSON."""
    float_matrix, long_pair, seed_key = _banana(), _banana(), _banana()
    float_matrix["matrices"]["0"][1][0] = 1.5
    long_pair["pairing"][0] = list(range(100000))
    seed_key["orientation_seed"]["x" * 50000] = [0, "+"]
    text = json.dumps(_banana())
    return {
        "deep.json": b"[" * 200000,
        "float.json": json.dumps(float_matrix).encode(),
        "long.json": json.dumps(long_pair).encode(),
        "seedkey.json": json.dumps(seed_key).encode(),
        "word.json": json.dumps({"body": ["T" + "0" * 50000]}).encode(),
        "pieceid.json": json.dumps(_long_piece_id()).encode(),
        "latin1.json": text.replace('"P"', '"Pé"').encode("latin-1"),
        "bom.json": text.encode("utf-8-sig"),
        "utf16.json": text.encode("utf-16"),
        "newlines.json": b'{\r\n"pieces":\r [\r\n1\r\r 2]}',
    }


def _argvs(tmp_path):
    """Every argv of the digest, writing each input file just before
    the argvs that read it."""
    for path in [*SPECS, Path(WORD)]:
        shutil.copy(path, tmp_path / path.name)
    original = SPECS[0].name
    for name, data in _odd_files().items():
        (tmp_path / name).write_bytes(data)
        yield from commands(name, original)
        yield ["equiv", original, name]
        yield ["itinerary", original, name]
    yield from commands("missing.json", original)

    rng = random.Random(SEED)
    fixtures = [(path.name, json.loads(path.read_text())) for path in SPECS]
    for n in range(MUTANTS):
        original, doc = fixtures[n % len(fixtures)]
        (tmp_path / "mutant.json").write_text(json.dumps(mutate(rng, doc)))
        yield from commands("mutant.json", original)


def test_cold_path_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv in _argvs(tmp_path):
        argv = [a.rpartition("/")[2] for a in argv]
        for fmt in FORMATS:
            code = run(argv + ["--format", fmt])
            captured = capsys.readouterr()
            digest.update(json.dumps(
                [argv, fmt, code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == DIGEST
