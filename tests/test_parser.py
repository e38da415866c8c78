"""Unit tests for the theory language parser and serializer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deonarg import (
    ParseError,
    Theory,
    TheoryValidationError,
    lit,
    obl,
    parse_theory,
    perm,
    serialize_theory,
)
from deonarg.testkit import GeneratorParams, generate_theory


def test_parses_facts_rules_and_superiority():
    theory = parse_theory("fact a.\nfact ~b.\nr1: a => obl(c).\nr2: => obl(~c).\nr1 > r2.\n")
    assert theory.facts == frozenset({lit("a"), lit("~b")})
    assert [str(r) for r in theory.rules] == ["r1: a => obl(c)", "r2: => obl(~c)"]
    assert theory.superiority == frozenset({("r1", "r2")})


def test_comments_and_blank_lines_are_ignored():
    theory = parse_theory("% leading comment\n\nfact a.  % trailing\n")
    assert theory.facts == frozenset({lit("a")})


def test_fact_is_a_valid_rule_label_too():
    # 'fact' only introduces a fact statement when followed by a literal
    theory = parse_theory("fact: a => b.\n")
    assert theory.rules[0].label == "fact"


def test_outer_negation_on_deontic_elements_is_normalised_at_parse_time():
    theory = parse_theory("r1: ~obl(p) => s.\nr2: ~perm(p) => s.\nr3: ~perm_w(p) => s.\n")
    bodies = {rule.label: rule.body[0] for rule in theory.rules}
    assert bodies["r1"] == perm(lit("~p"))
    assert bodies["r2"] == obl(lit("~p"))
    assert bodies["r3"] == obl(lit("~p"))


def test_negated_obligation_head_becomes_permission_head():
    theory = parse_theory("r1: => ~obl(p).\n")
    assert theory.rules[0].head == perm(lit("~p"))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("fact a", "'.'"),
        ("r1: => obl(p", "')'"),
        ("r1 a => b.", "after 'r1'"),
        ("r1: => .", "unexpected '.'"),
        ("!", "unexpected character"),
    ],
)
def test_syntax_errors_carry_position_and_expectation(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_theory(text)
    assert fragment in str(err.value)


def test_parse_error_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_theory("fact a.\nr1: => obl(p]\n")
    assert err.value.span.line == 2


def test_well_formedness_is_checked_unless_disabled():
    text = "r1: => obl(a).\nr1: => obl(b).\n"
    with pytest.raises(TheoryValidationError):
        parse_theory(text)
    theory = parse_theory(text, validate=False)
    assert len(theory.rules) == 2


def test_serializer_emits_canonical_order():
    theory = parse_theory("r2: => obl(b).\nfact ~z.\nfact a.\nr1: => obl(a).\nr2 > r1.\n")
    assert serialize_theory(theory) == (
        "fact a.\nfact ~z.\nr1: => obl(a).\nr2: => obl(b).\nr2 > r1.\n"
    )


def test_serializing_the_empty_theory_yields_empty_text():
    assert serialize_theory(parse_theory("")) == ""


@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_identity_on_generated_theories(seed):
    theory = generate_theory(
        GeneratorParams(seed=seed, superiority_count=seed % 3, inject_conflict=seed % 2 == 0)
    )
    assert parse_theory(serialize_theory(theory)) == theory


@given(st.integers(min_value=0, max_value=10_000))
def test_serialization_is_a_fixed_point(seed):
    text = serialize_theory(generate_theory(GeneratorParams(seed=seed)))
    assert serialize_theory(parse_theory(text)) == text


#: tokens and whole statements of the language, plus near-misses it rejects
_TOKENS = (
    "fact", "obl", "perm", "perm_w", "a", "b", "r1", "r2", "~", ":", ",", ".",
    "(", ")", ">", "=>", "=", "%", " ", "\n", "$", "1", "obl(", "~obl(", "perm_w(~",
    "fact ~a.\n", "r1: => obl(a).\n", "r2: a, perm_w(~b) => ~obl(a).\n",
    "r1: => perm_w(a).\n", "r1 > r2.\n", "r2 > r1.\n",
)


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join) | st.text(max_size=30))
def test_any_token_string_parses_or_raises_a_documented_error(text):
    try:
        theory = parse_theory(text)
    except (ParseError, TheoryValidationError):
        return
    assert isinstance(theory, Theory)
    assert parse_theory(serialize_theory(theory)) == theory
