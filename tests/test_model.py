"""Unit tests for literals, deontic literals, rules and theory validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deonarg import (
    DeonticOperator,
    Rule,
    Theory,
    TheoryValidationError,
    complement,
    ensure_valid,
    lit,
    obl,
    perm,
    perm_w,
    push_negation,
    validate_theory,
)

atom_names = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
literals = st.builds(lambda name, pos: lit(name if pos else f"~{name}"), atom_names, st.booleans())


@given(literals)
def test_complement_is_an_involution(literal):
    assert complement(complement(literal)) == literal
    assert complement(literal) != literal
    assert complement(literal).atom == literal.atom


def test_literal_text_forms():
    assert str(lit("p")) == "p"
    assert str(lit("~p")) == "~p"
    assert lit("~p") == complement(lit("p"))


def test_deontic_literal_text_forms():
    forms = [str(make(lit(text))) for make in (obl, perm, perm_w) for text in ("a", "~a")]
    assert forms == ["obl(a)", "obl(~a)", "perm(a)", "perm(~a)", "perm_w(a)", "perm_w(~a)"]


def test_operator_text_is_its_keyword():
    operators = (DeonticOperator.OBLIGATION, DeonticOperator.PERMISSION, DeonticOperator.WEAK_PERMISSION)
    assert [str(operator) for operator in operators] == ["obl", "perm", "perm_w"]
    assert list(DeonticOperator) == list(operators)


@given(literals)
def test_negated_obligation_becomes_permission_of_complement(literal):
    assert push_negation(obl(literal)) == perm(complement(literal))


@given(literals)
def test_negated_permissions_become_obligation_of_complement(literal):
    assert push_negation(perm(literal)) == obl(complement(literal))
    assert push_negation(perm_w(literal)) == obl(complement(literal))


def test_operator_rank_orders_obligation_before_permissions():
    ranks = [DeonticOperator.OBLIGATION.rank, DeonticOperator.PERMISSION.rank,
             DeonticOperator.WEAK_PERMISSION.rank]
    assert ranks == sorted(ranks) and len(set(ranks)) == 3


def test_rule_body_drops_exact_duplicates_keeping_order():
    rule = Rule("r1", (lit("a"), lit("b"), lit("a")), obl(lit("c")))
    assert rule.body == (lit("a"), lit("b"))


def test_rule_text_with_and_without_body():
    assert str(Rule("r1", (), obl(lit("p")))) == "r1: => obl(p)"
    assert str(Rule("r2", (lit("a"), perm_w(lit("p"))), lit("s"))) == "r2: a, perm_w(p) => s"


def test_theory_sorts_rules_by_label_and_freezes_collections():
    theory = Theory(
        facts=[lit("b"), lit("a")],
        rules=(Rule("r2", (), lit("x")), Rule("r1", (), lit("y"))),
        superiority=[("r1", "r2")],
    )
    assert [r.label for r in theory.rules] == ["r1", "r2"]
    assert isinstance(theory.facts, frozenset)
    assert isinstance(theory.superiority, frozenset)


def test_atom_universe_covers_facts_bodies_and_heads():
    theory = Theory(
        facts=[lit("a")],
        rules=(Rule("r1", (lit("b"),), obl(lit("~c"))),),
    )
    assert tuple(literal.atom for literal in theory.literal_universe[::2]) == ("a", "b", "c")
    assert [str(l) for l in theory.literal_universe] == ["a", "~a", "b", "~b", "c", "~c"]


def test_validation_flags_duplicate_labels():
    theory = Theory(rules=(Rule("r1", (), lit("a")), Rule("r1", (), lit("b"))))
    messages = [v.message for v in validate_theory(theory)]
    assert "duplicate rule label" in messages


def test_validation_flags_weak_permission_heads():
    theory = Theory(rules=(Rule("r1", (), perm_w(lit("a"))),))
    assert any("weak permission" in v.message for v in validate_theory(theory))


def test_validation_flags_bad_superiority_pairs():
    theory = Theory(rules=(Rule("r1", (), lit("a")),), superiority=[("r1", "r1"), ("r1", "zz")])
    messages = " ".join(v.message for v in validate_theory(theory))
    assert "reflexive" in messages
    assert "unknown rule label 'zz'" in messages


def test_ensure_valid_raises_with_all_violations_attached():
    theory = Theory(rules=(Rule("r1", (), perm_w(lit("a"))), Rule("r1", (), lit("b"))))
    with pytest.raises(TheoryValidationError) as err:
        ensure_valid(theory)
    assert len(err.value.violations) == 2


def test_ensure_valid_returns_the_theory_unchanged_when_clean():
    theory = Theory(facts=[lit("a")])
    assert ensure_valid(theory) is theory
