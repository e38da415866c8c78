"""The value records keep the contract of the frozen dataclasses they replaced.

For each record class the table below writes down the dataclass's field
list, its compared fields and its repr fields (the same names, except for
the indexes that ``ArgumentSet`` and ``AttackGraph`` build on
construction, which took no part in either).  ``ArgumentSet`` and
``WpExtension`` are records of their rows: they compare and hash as the
rows and the ids they index, and ``ordered`` and ``steps`` are views decoded
from the rows.  The two engine tables are made only by ``build_arguments``
and ``compute_attacks``, whose results their constructors take, so a twin
of one is a copy, which reruns construction.
The records are drawn from the golden theories and from generated ones.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from deonarg import (
    ArgumentLimitExceeded,
    ArgumentSet,
    AttackGraph,
    CheckReport,
    CheckResult,
    ConflictPair,
    DeonticLiteral,
    Literal,
    ParseError,
    Rule,
    SemanticsResult,
    SourceSpan,
    Theory,
    TraceStep,
    Violation,
    WpExtension,
    build_arguments,
    compute_attacks,
    conflict_pairs,
    evaluate,
    lit,
    obl,
    parse_theory,
    perm_w,
    validate_theory,
    verify_theorems,
    wp_extension,
)
from deonarg.arguments import _KIND_RANKS, Argument
from deonarg.corpus import BUILTIN_THEORIES
from deonarg.model import conclusion_sort_key
from deonarg.parser import serialize_theory
from deonarg.testkit import (
    GeneratorParams,
    OracleResult,
    OracleSizeError,
    brute_force_extensions,
    generate_theory,
)

_ARGUMENT_SET_INDEXES = (
    "_ordered", "_positions", "_by_conclusion", "_parents", "natural",
)
_ATTACK_GRAPH_INDEXES = (
    "_attackers", "_targets", "_witnesses",
)

#: class -> (the dataclass's fields, the compared and repr fields)
RECORDS: dict[type, tuple[tuple[str, ...], tuple[str, ...]]] = {
    Literal: (("atom", "positive"),) * 2,
    DeonticLiteral: (("operator", "literal"),) * 2,
    Rule: (("label", "body", "head"),) * 2,
    Theory: (("facts", "rules", "superiority"),) * 2,
    Violation: (("message", "label"),) * 2,
    SourceSpan: (("line", "column", "lexeme"),) * 2,
    Argument: (("kind", "rule", "conclusion", "children"),) * 2,
    ArgumentSet: (
        ("theory", "ids", "rows", "ordered", *_ARGUMENT_SET_INDEXES), ("theory", "ids", "rows")
    ),
    AttackGraph: (
        ("arguments", "rows", "suppressed_rows", "generalized", *_ATTACK_GRAPH_INDEXES),
        ("arguments", "rows", "suppressed_rows", "generalized"),
    ),
    SemanticsResult: (("semantics", "extensions", "justified", "no_extensions"),) * 2,
    TraceStep: (("index", "newly_rejected", "newly_justified"),) * 2,
    WpExtension: (("ids", "rows", "justified", "rejected", "steps"), ("ids", "rows")),
    ConflictPair: (("literal", "supporting_rule", "opposing_rule"),) * 2,
    CheckResult: (("name", "status", "detail"),) * 2,
    CheckReport: (("results",),) * 2,
    GeneratorParams: ((
        "seed", "atom_count", "fact_count", "rule_count", "max_body_len",
        "obligation_head_bias", "permission_head_weight", "deontic_body_weight",
        "weak_permission_body_weight", "acyclic", "inject_conflict",
        "empty_obligation_bodies", "superiority_count",
    ),) * 2,
    OracleResult: (("grounded", "complete", "stable"),) * 2,
}

#: the engine tables, whose constructors take what construction found besides the fields
_TABLES = (ArgumentSet, AttackGraph)

#: records of each class compared pairwise, at most this many
PAIRWISE = 40


_PARAMS = [
    GeneratorParams(seed=seed, inject_conflict=True, superiority_count=seed % 3)
    for seed in range(6)
]

#: texts that fail to parse, each at a different kind of token
_MALFORMED = [
    "r1: => obl(p", "fact a", "r1: => $.", "r1 => obl(p).", "a > .", "r1: a,, b => c.\n",
    "% c\nr1: => obl(p).\nr2: => perm_w(\n",
]


def _sources() -> list[str]:
    texts = list(BUILTIN_THEORIES.values())
    for params in _PARAMS:
        texts.append(serialize_theory(generate_theory(params)))
    return texts


def _collect() -> dict[type, list]:
    found: dict[type, list] = {cls: [] for cls in RECORDS}

    def add(*records) -> None:
        for record in records:
            found[type(record)].append(record)

    for text in _MALFORMED:
        with pytest.raises(ParseError) as error:
            parse_theory(text)
        add(error.value.span)
    for text in _sources():
        theory = parse_theory(text)
        arguments = build_arguments(theory)
        graph = compute_attacks(arguments, theory)
        extension = wp_extension(graph)
        add(theory, *theory.rules, *theory.literal_universe, arguments, graph)
        add(*(argument for _, argument in arguments))
        conclusions = {argument.conclusion for _, argument in arguments}
        add(*(c for c in conclusions if isinstance(c, DeonticLiteral)))
        # trace steps over the rows' positions, as ``steps`` builds them over ids
        add(extension, *(TraceStep(index, *sides) for index, sides in enumerate(extension.rows, 1)))
        for semantics in ("grounded", "stable"):
            try:
                add(evaluate(graph, semantics))
            except ArgumentLimitExceeded:
                pass
        try:
            add(brute_force_extensions(graph))
        except OracleSizeError:
            pass
        add(*conflict_pairs(arguments))
        add(*conflict_pairs(arguments, extension.justified))
        checks = verify_theorems(theory)
        add(checks, *checks.results)
    bad = Theory(
        rules=(Rule("r", (), perm_w(lit("p"))), Rule("r", (), obl(lit("q")))),
        superiority=frozenset({("r", "r"), ("r", "s")}),
    )
    add(*validate_theory(bad), Violation("unlabelled"), *_PARAMS)
    return found


@pytest.fixture(scope="module")
def records() -> dict[type, list]:
    found = _collect()
    assert all(found.values()), [cls.__name__ for cls, listed in found.items() if not listed]
    return found


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in RECORDS[type(record)][1])


def test_every_former_dataclass_is_a_slotted_record(records):
    assert len(RECORDS) == 17
    for cls, listed in records.items():
        assert not hasattr(cls, "__dataclass_fields__"), cls
        assert not hasattr(listed[0], "__dict__"), cls


def test_equality_holds_exactly_for_the_same_class_with_equal_fields(records):
    everything = [record for listed in records.values() for record in listed[:PAIRWISE]]
    for cls, listed in records.items():
        sample = listed[:PAIRWISE]
        for x in sample:
            for y in everything if x is sample[0] else sample:
                expected = type(x) is type(y) and _values(x) == _values(y)
                assert (x == y) is expected, (x, y)
                assert (x != y) is not expected, (x, y)
            assert x != _values(x)
            twin = copy.copy(x) if cls in _TABLES else cls(*_values(x))
            assert twin == x and hash(twin) == hash(x)


def test_a_record_hashes_as_its_compared_fields(records):
    for cls, listed in records.items():
        for record in listed:
            if isinstance(record, Argument):
                # an argument hashes as its key's head and its children's hashes
                head = (
                    record.height,
                    _KIND_RANKS[record.kind],
                    record.top_rule or "",
                    conclusion_sort_key(record.conclusion),
                )
                children = tuple(hash(child) for child in record.children)
                assert hash(record) == hash((head, children)), record
            else:  # an argument set too: its theory, ids and rows
                assert hash(record) == hash(_values(record)), cls


def test_repr_names_the_class_and_the_compared_fields(records):
    for cls, listed in records.items():
        for record in listed[:PAIRWISE]:
            shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in RECORDS[cls][1])
            assert repr(record) == f"{cls.__qualname__}({shown})"
    assert repr(lit("~p")) == "Literal(atom='p', positive=False)"


def test_assigning_or_deleting_any_attribute_raises(records):
    for cls, listed in records.items():
        record = listed[0]
        fields = RECORDS[cls][0]
        before = tuple(getattr(record, name) for name in fields)
        for name in (*fields, "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in fields) == before


def test_keyword_construction_and_defaults(records):
    for cls, listed in records.items():
        record = listed[0]
        if cls not in _TABLES:
            assert cls(**dict(zip(RECORDS[cls][1], _values(record)))) == record
    assert Literal("p", positive=False) == lit("~p")
    assert Literal("p").positive is True
    rule = Rule("r1", (lit("a"), lit("a")), obl(lit("p")))
    assert rule.body == (lit("a"),)
    theory = Theory(rules=(Rule("r2", (), lit("b")), rule))
    assert [r.label for r in theory.rules] == ["r1", "r2"]
    assert theory.facts == frozenset() and theory.superiority == frozenset()
    assert Theory() == Theory(frozenset(), (), frozenset())
    assert Violation("broken").label is None
    assert SourceSpan(1, 2).lexeme == ""
    assert SemanticsResult("grounded", (), frozenset()).no_extensions is False
    arguments = build_arguments(theory)
    assert compute_attacks(arguments).generalized is False


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CheckResult("disjoint", "pass"), "missing required arguments: detail"),
        (lambda: GeneratorParams(), "missing required arguments: seed"),
        (lambda: CheckResult("disjoint", "pass", "", "more"), "takes 3 arguments but 4 were given"),
        (lambda: GeneratorParams(1, colour=2), "unexpected keyword argument 'colour'"),
        (lambda: CheckResult("disjoint", "pass", name="other", detail=""),
         "multiple values for argument 'name'"),
    ],
    ids=["missing", "missing-without-default", "extra-positional", "unknown-keyword", "twice"],
)
def test_the_shared_constructor_binds_fields_as_a_function_call_would(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_copies_and_pickles_are_equal_records(records):
    for listed in records.values():
        for record in listed[:3]:
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record
