"""Shared fixtures: golden theories, seeded random corpora, the ladder script and a CLI runner.

Corpus seeds are drawn by deterministic iteration from zero, filtered by
argument count only (never by outcome), so every run sees the same
instances.
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
from deonarg.testkit import GeneratorParams, generate_theory

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
# seeded random corpora
# ---------------------------------------------------------------------------

CORPUS_SIZE = 200
ARGUMENT_CAP = 15


@dataclass(frozen=True)
class CorpusCase:
    seed: int
    theory: Theory
    arguments: ArgumentSet
    graph: AttackGraph


def build_corpus(make_params, *, count: int = CORPUS_SIZE, cap: int | None = ARGUMENT_CAP):
    cases: list[CorpusCase] = []
    seed = 0
    while len(cases) < count:
        theory = generate_theory(make_params(seed))
        arguments = build_arguments(theory)
        if cap is None or len(arguments) <= cap:
            cases.append(CorpusCase(seed, theory, arguments, compute_attacks(arguments, theory)))
        seed += 1
    return tuple(cases)


def conflict_params(seed: int) -> GeneratorParams:
    """Guaranteed-conflictual regime: an injected empty-body obligation pair."""
    return GeneratorParams(
        seed=seed,
        atom_count=3,
        rule_count=4,
        empty_obligation_bodies=True,
        acyclic=True,
        inject_conflict=True,
    )


def no_superiority_params(seed: int) -> GeneratorParams:
    """Free-form rule bodies except weak permissions; no superiority pairs."""
    return GeneratorParams(seed=seed, weak_permission_body_weight=0.0)


def oracle_params(seed: int) -> GeneratorParams:
    """Free-form regime for oracle comparison, superiority included."""
    return GeneratorParams(
        seed=seed,
        atom_count=3,
        rule_count=4,
        inject_conflict=True,
        superiority_count=2,
        acyclic=(seed % 2 == 0),
    )


@pytest.fixture(scope="session")
def conflict_corpus() -> tuple[CorpusCase, ...]:
    return build_corpus(conflict_params)


@pytest.fixture(scope="session")
def no_superiority_corpus() -> tuple[CorpusCase, ...]:
    return build_corpus(no_superiority_params, cap=None)


@pytest.fixture(scope="session")
def oracle_corpus() -> tuple[CorpusCase, ...]:
    return build_corpus(oracle_params)


# ---------------------------------------------------------------------------
# the ladder script
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def ladder() -> ModuleType:
    """``scripts/ladder.py``, loaded once: its theory texts and ``retained_mb``."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "ladder.py"
    spec = importlib.util.spec_from_file_location("ladder", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
