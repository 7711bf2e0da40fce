"""Compile (program, target) cells and print their image digests.

Reads a JSON list of ``[program, target]`` pairs on stdin and prints a
JSON list of ``[[program, target], sha256(text + data)]``.  The
suite-cold workload runs it under a second PYTHONHASHSEED and compares
the digests with its own: the compiler's output must not depend on the
hash seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.bench import get_benchmark  # noqa: E402
from repro.cc import build_executable, get_target  # noqa: E402


def image_digest(exe) -> str:
    """SHA-256 of a linked image's text and data bytes."""
    return hashlib.sha256(bytes(exe.text) + bytes(exe.data)).hexdigest()


def main() -> None:
    out = []
    for program, target in json.load(sys.stdin):
        exe = build_executable(get_benchmark(program).source,
                               get_target(target)).executable
        out.append([[program, target], image_digest(exe)])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
