"""The seeded hash stream: its bytes, its provider, and the index draws
the local search makes from it."""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecic import format_matrix
from ecic._cover import _draw, _seeded_bytes

from helpers import pentagon_matrix

SRC = str(Path(__file__).resolve().parents[1] / "src")
KEYS = ("ecic:local:9", "ecic:7:0")


def reference_stream(key, q):
    """Counter-mode SHA-256 through hashlib, bytes at or above the largest
    multiple of q rejected."""
    limit = (256 // q) * q
    for counter in itertools.count():
        yield from (b for b in hashlib.sha256(f"{key}:{counter}".encode()).digest() if b < limit)


def first(stream, count=512):
    return bytes(itertools.islice(stream, count))


def run_python(code, *args):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("q", [2, 3, 5, 7, 256])
@pytest.mark.parametrize("key", KEYS)
def test_stream_is_counter_mode_sha256(key, q):
    assert first(_seeded_bytes(key, q)) == first(reference_stream(key, q))


def test_stream_falls_back_to_hashlib_without_the_builtin_module():
    out = run_python(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib, itertools, ecic\n"
        "from ecic import _cover\n"
        "assert _cover.sha256 is hashlib.sha256\n"
        "for q in (2, 3, 5, 7, 256):\n"
        "    print(bytes(itertools.islice(_cover._seeded_bytes(sys.argv[1], q), 512)).hex())\n",
        KEYS[0],
    )
    assert out.split() == [first(reference_stream(KEYS[0], q)).hex() for q in (2, 3, 5, 7, 256)]


def test_no_process_loads_openssl(tmp_path):
    """A search (tabu draws), a random construction and a seeded simulate
    all draw from the stream, and none of them imports hashlib."""
    matrix = tmp_path / "pentagon.txt"
    matrix.write_text(format_matrix(pentagon_matrix()))
    out = run_python(
        "import sys\n"
        "from ecic import builtin_instance, make_field, optimal_length_search, random_construct\n"
        "from ecic.cli import main\n"
        "pent, f2 = builtin_instance('pentagon'), make_field(2)\n"
        "assert optimal_length_search(pent, f2, 2).optimal_length == 9\n"
        "random_construct(pent, f2, 2, 16, trials=3, seed=9)\n"
        "assert main(['simulate', '--instance', 'pentagon', '--matrix', sys.argv[1],\n"
        "             '--delta', '2', '--random-errors', '5', '--seed', '7']) == 0\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n",
        str(matrix),
    )
    assert out.splitlines()[-1] == "[]"


def test_short_lists_draw_two_bytes():
    for n in (2, 3, 1000, 65535, 1 << 16):
        stream = iter(b"\xab\xcd\xef")
        assert _draw(stream, n) == 0xABCD % n
        assert list(stream) == [0xEF]
    assert _draw(iter(()), 1) == 0


def test_long_lists_reach_every_index():
    """88,573 entries, as in a tabu move list on odd-cycle-complement:5
    over GF(3): 17 bits of index and 8 more read as 4 bytes, so indices
    at and above 2^16, which two bytes never reach, are drawn too."""
    n = 88573
    stream = iter(b"\x00\x01\x00\x00\x07")
    assert _draw(stream, n) == 1 << 16
    assert list(stream) == [7]
    assert _draw(iter(b"\xff\xff\xff\xff"), n) == 0xFFFFFFFF % n
    stream = _seeded_bytes("ecic:long", 256)
    draws = [_draw(stream, n) for _ in range(64)]
    assert all(0 <= i < n for i in draws)
    assert any(i >= 1 << 16 for i in draws)
