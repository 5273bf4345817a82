"""The row-streaming verbs: the bytes they print, refusals before the first
byte, and memory that does not grow with the output.

The digests were taken from the program as it was before `classes` and
`audit-squares` streamed their rows, when each built its whole report
before writing; no benchmark digest covers these commands.
"""

import hashlib
import io
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest

from squarefibers.cli import run

PINNED = [
    ("classes --n 3 --q 5",
     "ca40a18dd1df0daf357487d045cb6f25f52165636d0730ed1d795f3bc041ec7b"),
    ("classes --n 3 --q 5 --format csv",
     "cdfec0102ab624436345ea533bd461f9dcd7db24f70cc69a85f48ea4d8e94455"),
    ("audit-squares --n 3 --q 5 --format csv",
     "d67564b1bacecc5ff7166af2ec93e31e032338becb1d1768a79d3a3b819f1db1"),
    ("audit-squares --n 2 --q 3 --oracle",
     "cb58a82f4254c5e47b432b4933e929663c38135aa83832dbe725555ddf8ef44d"),
    ("audit-squares --group sp --n 2 --q 5",
     "f791f606b6e43bed1d6b5509cdfa239d097cc21b3a0d19cc88b7a30628a88f85"),
    ("audit-squares --group sp --n 2 --q 5 --format csv",
     "27ad5ed9ab23e6552fe6033ac7a4b13397be5e8e70f22c4206714b2ece59cce3"),
    ("audit-squares --group u --n 2 --q 3",
     "e0bc4aa1b60086aa82f1a5d73533cf42a8b220868e18b2a2a26a5bae92fb70ea"),
    ("audit-squares --group u --n 2 --q 3 --format csv",
     "a19a7f153a925f4e55093819efe6fa5d7fd27626af8f82f0da64b8238c97de69"),
]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command,digest", PINNED, ids=[c for c, _ in PINNED])
def test_streamed_output_keeps_its_bytes(command, digest):
    code, out, err = invoke(command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", [
    "classes --n 1 --q 1048573",
    "classes --n 1 --q 1048573 --format csv",
    "audit-squares --n 1 --q 1048573 --format csv",
])
def test_refusal_comes_before_the_first_byte(command):
    assert invoke(command.split()) == (
        3, "", "refused: GL_1(1048573) has more than 1000000 classes\n"
    )


class _HashingSink:
    """A stdout that keeps only a digest of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def _traced_peak(argv) -> int:
    """Peak of traced allocations over one run of argv, after one earlier
    run has filled the caches; stdout goes to a hashing sink."""
    real = sys.stdout
    try:
        for traced in (False, True):
            sys.stdout = _HashingSink()
            if traced:
                tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    finally:
        sys.stdout = real
    return peak


# Peaks before streaming: 20.6 MB, 8-9 MB and 1.31 MB; streamed, about
# 0.3 MB, 0.1 MB and 0.13 MB.
@pytest.mark.parametrize("command,bound", [
    ("classes --n 2 --q 127 --format csv", 2_000_000),
    ("classes --n 2 --q 61", 2_000_000),
    ("audit-squares --n 3 --q 9", 500_000),
])
def test_peak_memory_does_not_grow_with_the_output(command, bound):
    assert _traced_peak(command.split()) < bound
