"""Unit tests for the theory language parser and serializer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deonarg import (
    DeonticLiteral,
    Literal,
    ParseError,
    Theory,
    TheoryValidationError,
    lit,
    obl,
    parse_theory,
    perm,
    perm_w,
    serialize_theory,
)
from deonarg.schema import theory_section
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


def _assert_text_written_once(theory: Theory) -> None:
    """The document's theory section, the serializer and the records' own text agree."""
    section = theory_section(theory)
    assert section["source"] == serialize_theory(theory)
    assert section["facts"] == [str(fact) for fact in sorted(theory.facts, key=Literal.sort_key)]
    assert [(rule["label"], rule["body"], rule["head"]) for rule in section["rules"]] == [
        (rule.label, [str(element) for element in rule.body], str(rule.head))
        for rule in theory.rules
    ]
    lines = [f"fact {fact}." for fact in section["facts"]] + [f"{rule}." for rule in theory.rules]
    lines += [f"{superior} > {inferior}." for superior, inferior in sorted(theory.superiority)]
    assert section["source"] == "".join(f"{line}\n" for line in lines)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["acyclic", "cyclic", "sup"]))
def test_theory_text_is_written_in_one_place_on_generated_theories(seed, kind):
    params = GeneratorParams(
        seed=seed, atom_count=5, fact_count=seed % 4, rule_count=8, acyclic=kind == "acyclic",
        superiority_count=2 if kind == "sup" else 0, inject_conflict=seed % 2 == 0,
    )
    _assert_text_written_once(generate_theory(params))


@pytest.mark.parametrize(
    "text, facts, rules",
    [
        ("fact ~b.\nfact a.\nfact ~a.\n", ["a", "~a", "~b"], []),
        ("r1: ~obl(p), a => q.\n", [], [("r1", ["perm(~p)", "a"], "q")]),
        ("fact a.\nr2: => obl(~a).\nr1: a, perm_w(~b) => c.\n", ["a"],
         [("r1", ["a", "perm_w(~b)"], "c"), ("r2", [], "obl(~a)")]),
        ("r1: => obl(a).\nr2: => obl(~a).\nr1 > r2.\n", [],
         [("r1", [], "obl(a)"), ("r2", [], "obl(~a)")]),
        ("", [], []),
    ],
)
def test_theory_text_is_written_in_one_place_on_hand_written_theories(text, facts, rules):
    theory = parse_theory(text)
    _assert_text_written_once(theory)
    section = theory_section(theory)
    assert section["facts"] == facts
    assert [(rule["label"], rule["body"], rule["head"]) for rule in section["rules"]] == rules


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


def _parsed_values(theory: Theory) -> list:
    """Every literal and deontic literal of a theory, inner literals included."""
    found = [*theory.facts, *(e for rule in theory.rules for e in (*rule.body, rule.head))]
    return found + [e.literal for e in found if isinstance(e, DeonticLiteral)]


def _assert_interned(theory: Theory) -> None:
    first: dict = {}
    for value in _parsed_values(theory):
        assert first.setdefault(value, value) is value, value


_SHARING = (
    "fact a.\nfact ~b.\n"
    "r1: a, ~b, obl(a) => obl(~b).\n"
    "r2: ~obl(b), perm_w(a), a => a.\n"
    "r3: perm(~b), ~perm_w(~a) => ~b.\n"
)


def test_equal_values_of_one_parse_are_one_object():
    theory = parse_theory(_SHARING)
    _assert_interned(theory)
    rules = {rule.label: rule for rule in theory.rules}
    # the normalised ~obl(b) is the same object as the perm(~b) written out
    assert rules["r2"].body[0] is rules["r3"].body[0] == perm(lit("~b"))
    assert rules["r3"].body[1] is rules["r1"].body[2] == obl(lit("a"))
    assert rules["r2"].head is rules["r1"].body[0] is rules["r2"].body[2]


def test_separate_parses_and_hand_built_values_stay_equal_with_equal_hashes():
    first, second = parse_theory(_SHARING), parse_theory(_SHARING)
    assert first == second and hash(first) == hash(second)
    for one, other in zip(_parsed_values(first), _parsed_values(second)):
        assert one == other and hash(one) == hash(other)
        assert hash(one) == hash(tuple(getattr(one, name) for name in one._fields))
    built = {lit("a"), lit("~b"), obl(lit("a")), obl(lit("~b")), perm(lit("~b")), perm_w(lit("a"))}
    for value in built:
        assert any(value == found and hash(value) == hash(found)
                   for found in _parsed_values(first)), value


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join))
def test_token_strings_parse_to_interned_values(text):
    try:
        theory = parse_theory(text, validate=False)
    except ParseError:
        return
    _assert_interned(theory)
    again = parse_theory(text, validate=False)
    for one, other in zip(_parsed_values(theory), _parsed_values(again)):
        assert one == other and hash(one) == hash(other)


#: malformed inputs -> str(error), span line, column and lexeme, and ``expected``
_STATEMENT = "a statement ('fact', a rule label, or a superiority pair)"
_AFTER_LABEL = "':' to start a rule, '>' for superiority, or a literal after 'fact'"
_ELEMENT = "an atom name or deontic operator"
PARSE_ERRORS = [
    ("!", "line 1, column 1: unexpected character '!'", 1, 1, "!", None),
    ("é", "line 1, column 1: unexpected character 'é'", 1, 1, "é", None),
    # the whole text is scanned before any statement is parsed
    ("fact a b. !", "line 1, column 11: unexpected character '!'", 1, 11, "!", None),
    ("fact a", "line 1, column 7: unexpected end of input (expected '.')", 1, 7, "", "'.'"),
    ("fact", f"line 1, column 5: unexpected end of input after 'fact' (expected {_AFTER_LABEL})",
     1, 5, "", _AFTER_LABEL),
    ("r1: => obl(p", "line 1, column 13: unexpected end of input (expected ')')", 1, 13, "", "')'"),
    ("r1: a, ", f"line 1, column 8: unexpected end of input (expected {_ELEMENT})",
     1, 8, "", _ELEMENT),
    ("r1: a =>", f"line 1, column 9: unexpected end of input (expected {_ELEMENT})",
     1, 9, "", _ELEMENT),
    ("~", f"line 1, column 1: unexpected '~' (expected {_STATEMENT})", 1, 1, "~", _STATEMENT),
    ("=> a.", f"line 1, column 1: unexpected '=>' (expected {_STATEMENT})",
     1, 1, "=>", _STATEMENT),
    ("fact ~.", "line 1, column 7: unexpected '.' (expected an atom name)",
     1, 7, ".", "an atom name"),
    ("r1: => obl(", "line 1, column 12: unexpected end of input (expected an atom name)",
     1, 12, "", "an atom name"),
    ("obl(", f"line 1, column 4: unexpected '(' after 'obl' (expected {_AFTER_LABEL})",
     1, 4, "(", _AFTER_LABEL),
    ("r1: => obl(.", "line 1, column 12: unexpected '.' (expected an atom name)",
     1, 12, ".", "an atom name"),
    ("r1: => obl().", "line 1, column 12: unexpected ')' (expected an atom name)",
     1, 12, ")", "an atom name"),
    ("r1: => ~~a.", f"line 1, column 9: unexpected '~' (expected {_ELEMENT})",
     1, 9, "~", _ELEMENT),
    ("r1: a b => c.", "line 1, column 7: unexpected 'b' (expected '=>')", 1, 7, "b", "'=>'"),
    ("r1: a,, b => c.", f"line 1, column 7: unexpected ',' (expected {_ELEMENT})",
     1, 7, ",", _ELEMENT),
    ("fact a b.", "line 1, column 8: unexpected 'b' (expected '.')", 1, 8, "b", "'.'"),
    ("r1 > .", "line 1, column 6: unexpected '.' (expected a rule label)",
     1, 6, ".", "a rule label"),
    ("r1 > r2", "line 1, column 8: unexpected end of input (expected '.')", 1, 8, "", "'.'"),
    ("r1 a => b.", f"line 1, column 4: unexpected 'a' after 'r1' (expected {_AFTER_LABEL})",
     1, 4, "a", _AFTER_LABEL),
    ("% comment\nr1: => ob$.", "line 2, column 10: unexpected character '$'", 2, 10, "$", None),
    ("fact a. % trailing comment\n% another\nr1: => obl(p) r2.",
     "line 3, column 15: unexpected 'r2' (expected '.')", 3, 15, "r2", "'.'"),
    ("\tfact\ta\t!", "line 1, column 9: unexpected character '!'", 1, 9, "!", None),
    ("fact a.\r\nr1: => obl(p]\r\n", "line 2, column 13: unexpected character ']'",
     2, 13, "]", None),
    ("fact a.\r\n\r\nr1 > r2", "line 3, column 8: unexpected end of input (expected '.')",
     3, 8, "", "'.'"),
    ("fact a.\xa0fact b", "line 1, column 15: unexpected end of input (expected '.')",
     1, 15, "", "'.'"),
    ("fact a.\n\u2003r1 a => b.",
     f"line 2, column 5: unexpected 'a' after 'r1' (expected {_AFTER_LABEL})",
     2, 5, "a", _AFTER_LABEL),
    # only '\n' starts a line; '\r' and U+2028 are whitespace within it
    ("\u3000fact a.\u2028r1: =>",
     f"line 1, column 16: unexpected end of input (expected {_ELEMENT})", 1, 16, "", _ELEMENT),
    ("fact a.\rr1: => !", "line 1, column 16: unexpected character '!'", 1, 16, "!", None),
    ("fact a.\nfact b.\nr1: => perm(~).",
     "line 3, column 14: unexpected ')' (expected an atom name)", 3, 14, ")", "an atom name"),
    ("fact a.\n\n  r1: => obl(p) r2", "line 3, column 17: unexpected 'r2' (expected '.')",
     3, 17, "r2", "'.'"),
]


@pytest.mark.parametrize("text, message, line, column, lexeme, expected", PARSE_ERRORS)
def test_parse_errors_match_the_golden_table(text, message, line, column, lexeme, expected):
    with pytest.raises(ParseError) as err:
        parse_theory(text)
    error = err.value
    assert str(error) == message
    assert (error.span.line, error.span.column, error.span.lexeme) == (line, column, lexeme)
    assert error.expected == expected


#: characters that start no token: a digit only continues an identifier
_STRAYS = ("$", "1", "é")


def _first_stray(text: str) -> tuple[int, int, str] | None:
    """Line, column and text of the first character outside a comment that starts no token
    (a ``$`` put inside ``=>`` leaves a lone ``=``), found one character at a time."""
    line, column, comment, word = 1, 0, False, False
    for offset, char in enumerate(text):
        column += 1
        if char == "\n":
            line, column, comment, word = line + 1, 0, False, False
        elif not comment:
            continues = char.isascii() and (char.isalnum() or char == "_")
            word = continues and (word or not char.isdigit())
            token = word or char in "~:,.()>" or text.startswith("=>", offset)
            if char == "%":
                comment = True
            elif not (token or char.isspace()):
                return line, column, char
    return None


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(_STRAYS), st.data())
def test_a_character_that_starts_no_token_is_reported_where_it_stands(seed, stray, data):
    text = serialize_theory(generate_theory(GeneratorParams(seed=seed)))
    offset = data.draw(st.integers(min_value=0, max_value=len(text)))
    broken = text[:offset] + stray + text[offset:]
    expected = _first_stray(broken)
    try:
        parse_theory(broken, validate=False)
    except ParseError as error:
        if expected is not None:
            assert error.reason == f"unexpected character {expected[2]!r}"
            assert (error.span.line, error.span.column, error.span.lexeme) == expected
        else:  # the digit joined an identifier
            assert not error.reason.startswith("unexpected character")
    else:
        assert expected is None
    # inside a comment, the same character is skipped with the rest of its line
    lines = text.split("\n")
    row = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    lines[row] += f" %{stray}"
    commented = "\n".join(lines)
    assert parse_theory(commented, validate=False) == parse_theory(text, validate=False)
