"""Shared fixtures: golden theories, seeded random corpora, the ladder script and a CLI runner.

The corpora are those of ``scripts/run_property_corpora.py``, which holds
their one definition: seeds are drawn by deterministic iteration from
zero, filtered by argument count only (never by outcome), so every run
sees the same instances.
"""

from __future__ import annotations

import importlib.util
import io
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import pytest

from deonarg import ArgumentSet, AttackGraph, Theory, build_arguments, compute_attacks, parse_theory
from deonarg.corpus import BUILTIN_THEORIES

# ---------------------------------------------------------------------------
# golden theories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedTheory:
    """A parsed theory with its argument set and attack graph."""

    name: str
    text: str
    theory: Theory
    arguments: ArgumentSet
    graph: AttackGraph


def _prepare(name: str, text: str) -> PreparedTheory:
    theory = parse_theory(text)
    arguments = build_arguments(theory)
    return PreparedTheory(name, text, theory, arguments, compute_attacks(arguments, theory))


@pytest.fixture(scope="session")
def goldens() -> dict[str, PreparedTheory]:
    return {name: _prepare(name, text) for name, text in BUILTIN_THEORIES.items()}


@pytest.fixture(scope="session")
def two_obligations(goldens) -> PreparedTheory:
    """One atom, two empty-body rules obliging each polarity."""
    return goldens["two-obligations"]


@pytest.fixture(scope="session")
def chained(goldens) -> PreparedTheory:
    """Two conflicts, a chain through obl(q), and a perm_w rule body."""
    return goldens["chained-obligations"]


@pytest.fixture(scope="session")
def support_undercut(goldens) -> PreparedTheory:
    """The support/undercut exhibit (perm(~b) against a derived obl(b))."""
    return goldens["support-undercut"]


@pytest.fixture(scope="session")
def facultative_priorities(goldens) -> PreparedTheory:
    """Two conflicts, one adjudicated by superiority (n3 > n4)."""
    return goldens["facultative"]


# ---------------------------------------------------------------------------
# the scripts, and the seeded random corpora of the property script
# ---------------------------------------------------------------------------

CORPUS_SIZE = 200


def _script(name: str) -> ModuleType:
    """``scripts/<name>.py``, loaded once as the module ``name``, so that a script
    importing another by name (``from ladder import RUNGS``) finds it."""
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture(scope="session")
def ladder() -> ModuleType:
    """``scripts/ladder.py``, loaded once: its theory texts and ``retained_mb``."""
    return _script("ladder")


@pytest.fixture(scope="session")
def corpora(ladder) -> ModuleType:
    """``scripts/run_property_corpora.py``, which holds the one definition of the corpora."""
    return _script("run_property_corpora")


@pytest.fixture(scope="session")
def conflict_corpus(corpora) -> tuple:
    return corpora.build_corpus(corpora.conflict_params, count=CORPUS_SIZE)


@pytest.fixture(scope="session")
def no_superiority_corpus(corpora) -> tuple:
    return corpora.build_corpus(corpora.no_superiority_params, count=CORPUS_SIZE, cap=None)


@pytest.fixture(scope="session")
def oracle_corpus(corpora) -> tuple:
    return corpora.build_corpus(corpora.oracle_params, count=CORPUS_SIZE)


# ---------------------------------------------------------------------------
# in-process CLI runs
# ---------------------------------------------------------------------------


class _Tee(io.StringIO):
    """A captured stream that also copies each write into a shared one, in write order."""

    def __init__(self, shared: io.StringIO) -> None:
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    output: str  # stdout and stderr, interleaved in write order
    stdout: str
    stderr: str
    exception: BaseException | None  # a non-zero SystemExit, or what the command raised


class CommandRunner:
    """Runs ``main(args=..., prog_name="deonarg")`` in this process on a given stdin."""

    def invoke(self, main, args, input: str = "") -> CommandResult:
        output = io.StringIO()
        stdout, stderr = _Tee(output), _Tee(output)
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin = io.TextIOWrapper(io.BytesIO(input.encode()), encoding="utf-8")
        sys.stdout, sys.stderr = stdout, stderr
        exception, exit_code = None, 0
        try:
            main(args=list(args), prog_name="deonarg")
        except SystemExit as exit_:
            exit_code = exit_.code or 0
            exception = exit_ if exit_code else None
        except Exception as error:
            exception, exit_code = error, 1
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return CommandResult(
            exit_code, output.getvalue(), stdout.getvalue(), stderr.getvalue(), exception
        )


@pytest.fixture()
def runner() -> CommandRunner:
    return CommandRunner()
