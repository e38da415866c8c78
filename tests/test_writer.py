"""The JSON writer: byte for byte ``json.dumps(document, indent=2)``, on every kind of document."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deonarg import evaluate, verify_theorems, wp_extension
from deonarg.schema import (
    SCHEMA,
    arguments_section,
    attacks_section,
    theory_section,
    trace_section,
    write_document,
)


def written(document) -> str:
    pieces: list[str] = []
    write_document(document, pieces.append)
    return "".join(pieces)


def documents(graph) -> list[dict]:
    """The documents the CLI writes on the graph: every section, and a check report."""
    arguments = graph.arguments
    extension = wp_extension(graph)
    stable = evaluate(graph, "stable", argument_limit=len(arguments))
    result = {
        "semantics": "stable",
        "extensions": [sorted(members, key=arguments.index) for members in stable.extensions],
        "justified_arguments": sorted(extension.justified, key=arguments.index),
        "rejected_arguments": sorted(extension.rejected, key=arguments.index),
        "justified_conclusions": [],
        "flags": {"imaginary_subargument_attacks": graph.generalized, "fixpoint_guards": True},
    }
    theory = theory_section(arguments.theory)
    report = verify_theorems(graph)
    checks = [{"name": r.name, "status": r.status, "detail": r.detail} for r in report.results]
    return [
        {
            "theory": theory,
            "arguments": arguments_section(arguments),
            "attacks": attacks_section(graph),
            "result": result,
            "trace": trace_section(extension),
        },
        {"theory": theory, "checks": checks},
    ]


def test_the_goldens_documents_are_written_as_json_dumps_writes_them(goldens):
    for prepared in goldens.values():
        for document in documents(prepared.graph):
            assert written(document) == json.dumps(document, indent=2), prepared.name


@pytest.mark.parametrize("corpus", ["conflict_corpus", "no_superiority_corpus", "oracle_corpus"])
def test_the_corpora_documents_are_written_as_json_dumps_writes_them(request, corpus):
    for case in request.getfixturevalue(corpus):
        for document in documents(case.graph):
            assert written(document) == json.dumps(document, indent=2), case.seed


def test_flat_records_span_several_batches_and_empty_records_are_not_flat():
    edges = [{"attacker": f"A{n}", "target": f"A{n + 1}", "condition": n % 4 + 1, "witness": "I1"}
             for n in range(5000)]
    document = {"attacks": {"edges": edges, "suppressed": edges[:1]}, "checks": edges[:2048],
                "empty": [{}, {}]}
    assert written(document) == json.dumps(document, indent=2)


#: strings with what an encoder must escape, and one that looks like the separator between records
_STRINGS = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x3F)),
    st.just('"},\n    {"'),
    st.just('},\n        {'),
)


def _shape(schema: dict) -> st.SearchStrategy:
    """Values of one ``SCHEMA`` node; its lists and its records without required fields may be empty."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == ["string", "null"]:
        return st.one_of(st.none(), _STRINGS)
    if kind == "object":
        properties = {key: _shape(node) for key, node in schema["properties"].items()}
        required = set(schema.get("required", ()))
        return st.fixed_dictionaries(
            {key: value for key, value in properties.items() if key in required},
            optional={key: value for key, value in properties.items() if key not in required},
        )
    if kind == "array":
        return st.lists(_shape(schema["items"]), max_size=4)
    return {"string": _STRINGS, "integer": st.integers(), "boolean": st.booleans()}[kind]


@settings(max_examples=300, deadline=None)
@given(_shape(SCHEMA))
def test_any_document_of_the_schema_is_written_as_json_dumps_writes_it(document):
    assert written(document) == json.dumps(document, indent=2)
