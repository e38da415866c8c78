"""The example walk-through prints the same tour of every bundled theory.

``scripts/run_examples.py`` runs each theory through the whole pipeline and
prints the results; its output, less the final timing line, is pinned by
digest under both readings of condition 1.
"""

from __future__ import annotations

import hashlib
import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_examples.py"

#: SHA-256 of the output less its last line, by the script's flags
DIGESTS = {
    (): "ce72237bcd26b9ba687a50616e4507537102040cdaee9a488b9c5c761d9caf23",
    ("--imaginary-subargument-attacks",):
        "1fdacd1021d77b34b1f5932d59a3c053312f4b96325c5d4ad5fe689ee8d10911",
}


@pytest.mark.parametrize("flags", list(DIGESTS), ids=["narrow", "generalized"])
def test_the_example_output_is_unchanged(flags, capsys):
    script = runpy.run_path(str(SCRIPT), run_name="run_examples")
    assert script["main"](list(flags)) == 0
    *tour, timing = capsys.readouterr().out.splitlines(keepends=True)
    assert timing.startswith("ran 4 theories in ")
    assert hashlib.sha256("".join(tour).encode()).hexdigest() == DIGESTS[flags]
