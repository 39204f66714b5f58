"""Byte-for-byte CLI output on the fixtures.

Each case stores the exit code and the SHA-256 of stdout of one
in-process ``cli.run`` call.  A refactor that is meant to keep
behaviour must keep every digest; a change that alters output on
purpose re-records the table and says so in CHANGES.md.  Arguments
ending in ``.json`` name files in ``tests/fixtures``.
"""

import hashlib
import random
from pathlib import Path

import pytest

from spineflow import cli
from spineflow.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
SPECS = ("banana_spec.json", "banana_spec_twisted.json", "necklace_spec.json")
FORMATS = ("json", "text")

CASES = (
    [[cmd, spec, "--format", fmt]
     for cmd in ("validate", "build-graph", "transitive", "orient")
     for spec in SPECS for fmt in FORMATS]
    + [["itinerary", "banana_spec.json", word, "--format", fmt]
       for word in ("word_body.json", "word_tail.json") for fmt in FORMATS]
    + [["periodic", spec, "--max-len", n, "--format", fmt]
       for spec in SPECS for n in ("1", "4", "8", "12") for fmt in FORMATS]
    + [["equiv", "banana_spec.json", "banana_spec_twisted.json",
        "--mode", mode, "--format", fmt]
       for mode in ("exact", "isotopy", "isotopy-with-twists")
       for fmt in FORMATS]
    + [["census", "--max-edges", "4", "--format", fmt] for fmt in FORMATS]
    + [["normalize-matrix", "matrix.json", "--format", fmt] for fmt in FORMATS]
)

GOLDEN = {
    "validate banana_spec.json --format json": (0, "0c4ca532a76df8cf7dc3b620cfe3acb124908bc9689720cd2d6400bc8948209e"),
    "validate banana_spec.json --format text": (0, "707014db53a80156e51d72587ab28d84bd16b0edb7b6a68e8a6e8034c5e65409"),
    "validate banana_spec_twisted.json --format json": (0, "0c4ca532a76df8cf7dc3b620cfe3acb124908bc9689720cd2d6400bc8948209e"),
    "validate banana_spec_twisted.json --format text": (0, "707014db53a80156e51d72587ab28d84bd16b0edb7b6a68e8a6e8034c5e65409"),
    "validate necklace_spec.json --format json": (0, "618cc5f39e469dce1e157c1b70e55cf3cdfbb36a61d6d5d3dfcee17377c54395"),
    "validate necklace_spec.json --format text": (0, "98b2f818ac16db67e3a571d84d496c8ef61e6bbc9da3434dc292cd36ed4cda30"),
    "build-graph banana_spec.json --format json": (0, "b41e2f0962c30795a904580a6edf2a5ea897523701f1d37d974a006bd0e926b3"),
    "build-graph banana_spec.json --format text": (0, "ca8a9b487d6bf3d95f81e570343b224d4e5a6c54c9bcfbbb434ab344ba1a2e97"),
    "build-graph banana_spec_twisted.json --format json": (0, "b41e2f0962c30795a904580a6edf2a5ea897523701f1d37d974a006bd0e926b3"),
    "build-graph banana_spec_twisted.json --format text": (0, "ca8a9b487d6bf3d95f81e570343b224d4e5a6c54c9bcfbbb434ab344ba1a2e97"),
    "build-graph necklace_spec.json --format json": (0, "4a2d37dbda6681fd29de9174dc32a540335765ca374c957fe98903c4e3b0fc4c"),
    "build-graph necklace_spec.json --format text": (0, "93df4f1ef5280083ca7162d7ec40dbec69fa7cc2ec36691eb9cb3722363decbf"),
    "transitive banana_spec.json --format json": (0, "27b62e83a434d9729825a88de3199420014c836c8a28475710b06f4c3f988c5a"),
    "transitive banana_spec.json --format text": (0, "b897d69a209a5a03f6b84ad394765d67cece519ce9230dad2a8f22a827a5df38"),
    "transitive banana_spec_twisted.json --format json": (0, "27b62e83a434d9729825a88de3199420014c836c8a28475710b06f4c3f988c5a"),
    "transitive banana_spec_twisted.json --format text": (0, "b897d69a209a5a03f6b84ad394765d67cece519ce9230dad2a8f22a827a5df38"),
    "transitive necklace_spec.json --format json": (0, "27b62e83a434d9729825a88de3199420014c836c8a28475710b06f4c3f988c5a"),
    "transitive necklace_spec.json --format text": (0, "b897d69a209a5a03f6b84ad394765d67cece519ce9230dad2a8f22a827a5df38"),
    "orient banana_spec.json --format json": (0, "e791a8b179ceef6723f4a465727205a39557a6518e48e612ba7ab48723263dc6"),
    "orient banana_spec.json --format text": (0, "575655820f86d10434f7c20dca907958b302b120ed6f4343f6ad6491ec34f4b3"),
    "orient banana_spec_twisted.json --format json": (0, "e791a8b179ceef6723f4a465727205a39557a6518e48e612ba7ab48723263dc6"),
    "orient banana_spec_twisted.json --format text": (0, "575655820f86d10434f7c20dca907958b302b120ed6f4343f6ad6491ec34f4b3"),
    "orient necklace_spec.json --format json": (0, "4ac3baa84b8462e87d1f88bc3a46b539ec0372c20534b7e557c7c1378755a40e"),
    "orient necklace_spec.json --format text": (0, "32c22d01bb578d29f75b19b89cbdc225489f59c204df3051410a4d8dd6f968dd"),
    "itinerary banana_spec.json word_body.json --format json": (0, "8e40ae796f46ac24b82603dcf61fbc21facfe40c69c4f8c7a13665016d438b79"),
    "itinerary banana_spec.json word_body.json --format text": (0, "036fead82af0746450ce114f44299c63e421376a4206f03ab26175e1ae03fae7"),
    "itinerary banana_spec.json word_tail.json --format json": (0, "8e40ae796f46ac24b82603dcf61fbc21facfe40c69c4f8c7a13665016d438b79"),
    "itinerary banana_spec.json word_tail.json --format text": (0, "036fead82af0746450ce114f44299c63e421376a4206f03ab26175e1ae03fae7"),
    "periodic banana_spec.json --max-len 1 --format json": (0, "5df225fd9bc089111e0281038c1a50bf2d02350f9893905ff020910a77ad5739"),
    "periodic banana_spec.json --max-len 1 --format text": (0, "9b4dd9262b6d1956fc4dc6e3d62da99abbb5bf155a99793efa59ad3e778309b9"),
    "periodic banana_spec.json --max-len 4 --format json": (0, "9181c19b0fbe971a704955deaede5dae2cfca65f3b7be8f90dc5c911d978cce0"),
    "periodic banana_spec.json --max-len 4 --format text": (0, "701f09759c91ed2a49eca97c9dbd290371a7ec908b2016df78d5bbe9c29124fb"),
    "periodic banana_spec.json --max-len 8 --format json": (0, "848bcc0e0bc016c1ca6c03f3ba74691c686d22fe9f45c7cd32b87310bd5ec35b"),
    "periodic banana_spec.json --max-len 8 --format text": (0, "e19737b6aaa37859684a61ea5a3ebc955840f769d0c50a41b405f9b847d4ac79"),
    "periodic banana_spec.json --max-len 12 --format json": (0, "a0a3ffb8513d34d1688c088e202f67b5ef387ffbd015502e4af3b6979ae78ede"),
    "periodic banana_spec.json --max-len 12 --format text": (0, "fa7a7e34957ec6d237976b11ec0370a3411934452e9b74c4dfe490259a5f6ead"),
    "periodic banana_spec_twisted.json --max-len 1 --format json": (0, "5df225fd9bc089111e0281038c1a50bf2d02350f9893905ff020910a77ad5739"),
    "periodic banana_spec_twisted.json --max-len 1 --format text": (0, "9b4dd9262b6d1956fc4dc6e3d62da99abbb5bf155a99793efa59ad3e778309b9"),
    "periodic banana_spec_twisted.json --max-len 4 --format json": (0, "9181c19b0fbe971a704955deaede5dae2cfca65f3b7be8f90dc5c911d978cce0"),
    "periodic banana_spec_twisted.json --max-len 4 --format text": (0, "701f09759c91ed2a49eca97c9dbd290371a7ec908b2016df78d5bbe9c29124fb"),
    "periodic banana_spec_twisted.json --max-len 8 --format json": (0, "848bcc0e0bc016c1ca6c03f3ba74691c686d22fe9f45c7cd32b87310bd5ec35b"),
    "periodic banana_spec_twisted.json --max-len 8 --format text": (0, "e19737b6aaa37859684a61ea5a3ebc955840f769d0c50a41b405f9b847d4ac79"),
    "periodic banana_spec_twisted.json --max-len 12 --format json": (0, "a0a3ffb8513d34d1688c088e202f67b5ef387ffbd015502e4af3b6979ae78ede"),
    "periodic banana_spec_twisted.json --max-len 12 --format text": (0, "fa7a7e34957ec6d237976b11ec0370a3411934452e9b74c4dfe490259a5f6ead"),
    "periodic necklace_spec.json --max-len 1 --format json": (0, "3e5800076e63e5454913fc87cd168cd1495f27045950d97230f18bda84317359"),
    "periodic necklace_spec.json --max-len 1 --format text": (0, "596d7fb7f8132fe24578f5fa9a3b60faff7085c62632fc21e1b085ebcff495db"),
    "periodic necklace_spec.json --max-len 4 --format json": (0, "9cc9fb20d6e851a8a561bfb43dc6a9df5a630f2acdcddd4813cf617fad9b86bb"),
    "periodic necklace_spec.json --max-len 4 --format text": (0, "94448473bb1e44cbb6a7220e2df04e86e143c39f30e06696aaaf91724accd882"),
    "periodic necklace_spec.json --max-len 8 --format json": (0, "35912a9e641b5a9383e17564da95f782f55f9e61ac1a82af632d4ee4b647c57e"),
    "periodic necklace_spec.json --max-len 8 --format text": (0, "d77608be87d244b1ad86aec5554cb1fdeaac9474f4125ed676b84dc7e0513efc"),
    "periodic necklace_spec.json --max-len 12 --format json": (0, "8676ff606c6e344afdbd4a158e0ac448d23a9dee52ee36bc7823e15f3a51dcfe"),
    "periodic necklace_spec.json --max-len 12 --format text": (0, "2eb32e143ae760e9a80a46e65352f7bff2b4b215b1e800cf84f3fb36da1d320d"),
    "equiv banana_spec.json banana_spec_twisted.json --mode exact --format json": (1, "8873c1a5a4f55d479ad9ab4a1b049d5059bb2608068fa5efd10a1c27461c969e"),
    "equiv banana_spec.json banana_spec_twisted.json --mode exact --format text": (1, "964275db43f1a31df9dec424872d63d01f2742eed9cec07ebca8009dc17a4a37"),
    "equiv banana_spec.json banana_spec_twisted.json --mode isotopy --format json": (1, "b6799772c3640e09bbfbadb4e09dc2f3ad8a70894372b0861b18c746b68cae34"),
    "equiv banana_spec.json banana_spec_twisted.json --mode isotopy --format text": (1, "964275db43f1a31df9dec424872d63d01f2742eed9cec07ebca8009dc17a4a37"),
    "equiv banana_spec.json banana_spec_twisted.json --mode isotopy-with-twists --format json": (0, "001ee31be16269948d12528d939e6784ff0ec7823dc4fc7c9ee3f28755de4cff"),
    "equiv banana_spec.json banana_spec_twisted.json --mode isotopy-with-twists --format text": (0, "82318cd9ffcc16fc3ca438e47278ac8f9e30c523403bb7f62d0f57ccda975de4"),
    "census --max-edges 4 --format json": (0, "92f95c0a8134e6006f224c33979355a92dc1994e4c41984f3cfded9cbeab6605"),
    "census --max-edges 4 --format text": (0, "49f3f8c2b4d3b2beaeda380ae58441e8236e877b355aac3bc31e5e5dfab27c33"),
    "normalize-matrix matrix.json --format json": (0, "3e9dd6e667ff34a58f5b0eab0935b6f19fab77926daeb1874cf76b02fc749c60"),
    "normalize-matrix matrix.json --format text": (0, "31d7940e7afd0f0ee100a42ff3e0957b2bc7e3f5892e9f19d353020e22a54d71"),
}


def _argv(case):
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in case]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_digest(capsys, argv):
    code = run(_argv(argv))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[" ".join(argv)]


#: usage errors, version and help, run between the golden cases
EXTRAS = [["frobnicate", "banana_spec.json"],
          ["equiv", "banana_spec.json", "banana_spec_twisted.json",
           "--mode", "bogus"],
          ["--version"],
          ["-h"]]


def _first_call(capsys, argv):
    """Exit code, stdout and stderr of ``argv`` run on a freshly built
    parser, as the first call in a process would run it."""
    cli._build_parser.cache_clear()
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_process_matches_first_calls(capsys):
    """Every golden case, shuffled and interleaved with usage errors,
    ``--version`` and ``-h``, all in one process on one parser, gives
    exactly what it gives as a first call."""
    cases = [_argv(c) for c in CASES]
    extras = [_argv(c) for c in EXTRAS]
    expected = {tuple(argv): _first_call(capsys, argv)
                for argv in cases + extras}
    assert [expected[tuple(argv)][0] for argv in extras] == [2, 2, 0, 0]

    order = list(cases)
    random.Random(5).shuffle(order)
    stream = []
    for n, argv in enumerate(order):
        stream.append(argv)
        if n % 7 == 0:
            stream.append(extras[(n // 7) % len(extras)])
    assert all(argv in stream for argv in extras)

    cli._build_parser.cache_clear()
    for argv in stream:
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected[tuple(argv)]


def test_parser_built_once(capsys):
    cli._build_parser.cache_clear()
    argv = ["normalize-matrix", str(FIXTURES / "matrix.json")]
    for _ in range(50):
        assert run(argv) == 0
    capsys.readouterr()
    assert cli._build_parser.cache_info().misses == 1
