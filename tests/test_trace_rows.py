"""The weak-permission trace is kept as rows and decoded to steps only when read.

``wp_extension`` records every status change as a position row; the
``TraceStep`` records are built each time ``WpExtension.steps`` is read.
``trace_section`` and ``verify_theorems`` never read them.  The trace is
that of ``testkit.reference_wp``, and the public constructor, pickling and
copying keep it.  ``steps``, like the attack graph's ``edges`` and
``suppressed``, decodes the rows to what the sections write.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from deonarg import (
    TraceStep,
    WpExtension,
    build_arguments,
    compute_attacks,
    parse_theory,
    verify_theorems,
    wp_extension,
)
from deonarg.schema import attacks_section, trace_section
from deonarg.testkit import reference_wp


def _graph(text: str):
    theory = parse_theory(text)
    return compute_attacks(build_arguments(theory), theory)


@pytest.fixture(scope="module")
def graphs(goldens, ladder) -> dict[str, object]:
    found = {name: prepared.graph for name, prepared in goldens.items()}
    found["chain-40"] = _graph(ladder.chain(40))
    found["fan-4"] = _graph(ladder.fan(4))
    return found


def _count_steps(monkeypatch) -> dict[str, int]:
    """Count every ``TraceStep`` built from here on."""
    made = {"TraceStep": 0}
    build = TraceStep.__init__

    def counted(self, *values, **named):
        made["TraceStep"] += 1
        build(self, *values, **named)

    monkeypatch.setattr(TraceStep, "__init__", counted)
    return made


def test_the_fixed_point_its_trace_section_and_the_check_build_no_trace_record(
    graphs, monkeypatch
):
    made = _count_steps(monkeypatch)
    for name, graph in graphs.items():
        extension = wp_extension(graph)
        assert extension.iterations > 0, name
        assert trace_section(extension), name
        verify_theorems(graph)
    assert made == {"TraceStep": 0}


def _changes(section: list[dict]) -> tuple[tuple, ...]:
    """A side of a ``trace_section`` step as ``(argument, clause, witnesses)`` tuples."""
    return tuple((c["argument"], c["clause"], tuple(c["witnesses"])) for c in section)


def test_the_decoders_are_the_sections_decoded_on_each_read(graphs, monkeypatch):
    """``edges``, ``suppressed`` and ``steps`` stay public until perfbench reads the rows."""
    made = _count_steps(monkeypatch)
    for name, graph in graphs.items():
        section = attacks_section(graph)
        for key, records in (("edges", graph.edges), ("suppressed", graph.suppressed)):
            assert [tuple(record.values()) for record in section[key]] == list(records), name
        extension = wp_extension(graph)
        before = made["TraceStep"]
        steps = extension.steps  # reading the steps decodes them
        assert made["TraceStep"] == before + extension.iterations, name
        assert [(step.index, step.newly_rejected, step.newly_justified) for step in steps] == [
            (step["step"], _changes(step["rejected"]), _changes(step["justified"]))
            for step in trace_section(extension)
        ], name
        assert extension.steps == steps  # and each read decodes them again: nothing is kept
        assert made["TraceStep"] == before + 2 * extension.iterations, name


def _extensions(graphs, corpora):
    for name, graph in graphs.items():
        yield name, graph
    for corpus in corpora:
        for case in corpus:
            yield case.seed, case.graph


def test_decoded_steps_are_the_reference_steps(
    graphs, conflict_corpus, no_superiority_corpus, oracle_corpus
):
    corpora = (conflict_corpus, no_superiority_corpus, oracle_corpus)
    for label, graph in _extensions(graphs, corpora):
        extension, reference = wp_extension(graph), reference_wp(graph)
        assert extension.rows == reference.rows, label
        assert extension.iterations == len(trace_section(reference)), label
        assert trace_section(extension) == trace_section(reference), label


def test_the_constructor_keeps_the_trace_section_and_the_steps(graphs, oracle_corpus):
    for label, graph in _extensions(graphs, (oracle_corpus,)):
        extension = wp_extension(graph)
        section = trace_section(extension)
        rebuilt = WpExtension(extension.ids, extension.rows)
        assert trace_section(rebuilt) == section, label
        assert rebuilt == extension and hash(rebuilt) == hash(extension), label
        assert rebuilt.rows == extension.rows and rebuilt.iterations == extension.iterations
        named = WpExtension(ids=extension.ids, rows=extension.rows)
        assert named == extension and trace_section(named) == section, label


def test_pickles_and_deep_copies_keep_the_trace(graphs):
    for label, graph in graphs.items():
        for fresh in (True, False):  # pickled before and after the trace is first read
            extension = wp_extension(graph)
            if not fresh:
                trace_section(extension)
            for twin in (pickle.loads(pickle.dumps(extension)), copy.deepcopy(extension)):
                assert twin == extension, label
                assert twin.rows == extension.rows, label
                assert trace_section(twin) == trace_section(extension), label
