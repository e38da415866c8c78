"""The weak-permission trace is kept as rows and decoded to records only when read.

``wp_extension`` records every status change as a position row; the
``TraceStep`` and ``StatusChange`` records are built each time
``WpExtension.steps`` is read.  ``trace_section`` and ``verify_theorems``
never read them.  The decoded steps are those of ``testkit.reference_wp``,
and the public constructor, pickling and copying keep the trace.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from deonarg import (
    StatusChange,
    TraceStep,
    WpExtension,
    build_arguments,
    compute_attacks,
    parse_theory,
    verify_theorems,
    wp_extension,
)
from deonarg.schema import trace_section
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


def _count_records(monkeypatch) -> dict[str, int]:
    """Count every ``StatusChange`` and ``TraceStep`` built from here on."""
    made = {"StatusChange": 0, "TraceStep": 0}
    for cls in (StatusChange, TraceStep):
        build = cls.__init__

        def counted(self, *values, _build=build, _name=cls.__name__, **named):
            made[_name] += 1
            _build(self, *values, **named)

        monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_the_fixed_point_its_trace_section_and_the_check_build_no_trace_record(
    graphs, monkeypatch
):
    made = _count_records(monkeypatch)
    for name, graph in graphs.items():
        extension = wp_extension(graph)
        assert extension.iterations > 0, name
        assert trace_section(extension), name
        verify_theorems(graph)
    assert made == {"StatusChange": 0, "TraceStep": 0}
    extension.steps  # noqa: B018  (reading the steps decodes them)
    assert made["TraceStep"] == extension.iterations and made["StatusChange"] > 0
    before = dict(made)
    extension.steps  # noqa: B018  (and each read decodes them again: nothing is kept)
    assert made == {name: 2 * count for name, count in before.items()}


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
        assert extension.steps == reference.steps, label
        assert extension.iterations == len(reference.steps), label
        assert trace_section(extension) == trace_section(reference), label


def test_the_constructor_keeps_the_trace_section_and_the_steps(graphs, oracle_corpus):
    for label, graph in _extensions(graphs, (oracle_corpus,)):
        extension = wp_extension(graph)
        section = trace_section(extension)
        rebuilt = WpExtension(extension.ids, extension.rows)
        assert trace_section(rebuilt) == section, label
        assert rebuilt == extension and hash(rebuilt) == hash(extension), label
        assert rebuilt.steps == extension.steps and rebuilt.iterations == extension.iterations
        named = WpExtension(ids=extension.ids, rows=extension.rows)
        assert named == extension and trace_section(named) == section, label


def test_pickles_and_deep_copies_keep_the_trace(graphs):
    for label, graph in graphs.items():
        for fresh in (True, False):  # pickled before and after the steps are first read
            extension = wp_extension(graph)
            if not fresh:
                extension.steps  # noqa: B018
            for twin in (pickle.loads(pickle.dumps(extension)), copy.deepcopy(extension)):
                assert twin == extension, label
                assert twin.steps == extension.steps, label
                assert trace_section(twin) == trace_section(extension), label
