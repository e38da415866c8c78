"""Unit tests for the random theory generator and the brute-force oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deonarg import (
    ArgumentSet,
    AttackGraph,
    DeonticLiteral,
    DeonticOperator,
    build_arguments,
    compute_attacks,
    conflicted_literals,
    parse_theory,
    serialize_theory,
    validate_theory,
)
from deonarg.testkit import (
    GeneratorParams,
    OracleSizeError,
    brute_force_extensions,
    generate_theory,
    reference_attacks,
    reference_grounded,
    reference_wp,
)

# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2_000))
def test_same_seed_generates_identical_text(seed):
    params = GeneratorParams(seed=seed, superiority_count=seed % 3)
    assert serialize_theory(generate_theory(params)) == serialize_theory(generate_theory(params))


@given(st.integers(min_value=0, max_value=2_000))
def test_generated_theories_are_well_formed(seed):
    theory = generate_theory(GeneratorParams(seed=seed, superiority_count=2))
    assert validate_theory(theory) == ()


def test_zero_rules_yields_a_facts_only_theory():
    theory = generate_theory(GeneratorParams(seed=7, rule_count=0))
    assert theory.rules == ()
    assert theory.facts


def test_conflict_injection_guarantees_a_conflicted_literal():
    for seed in range(40):
        theory = generate_theory(GeneratorParams(seed=seed, inject_conflict=True))
        assert conflicted_literals(build_arguments(theory))


def test_empty_obligation_bodies_strips_every_obligation_rule():
    for seed in range(20):
        theory = generate_theory(GeneratorParams(seed=seed, empty_obligation_bodies=True))
        for rule in theory.rules:
            head = rule.head
            if isinstance(head, DeonticLiteral) and head.operator is DeonticOperator.OBLIGATION:
                assert rule.body == ()


def test_acyclic_theories_have_an_acyclic_atom_dependency_graph():
    for seed in range(20):
        theory = generate_theory(GeneratorParams(seed=seed, acyclic=True, rule_count=8))
        edges: dict[str, set[str]] = {}
        for rule in theory.rules:
            head = rule.head
            head_atom = (head.literal if isinstance(head, DeonticLiteral) else head).atom
            for element in rule.body:
                body_atom = (
                    element.literal if isinstance(element, DeonticLiteral) else element
                ).atom
                edges.setdefault(head_atom, set()).add(body_atom)

        def reaches(start, goal, seen=frozenset()):
            if start == goal and seen:
                return True
            return any(
                reaches(nxt, goal, seen | {start})
                for nxt in edges.get(start, ())
                if nxt not in seen
            )

        assert not any(reaches(atom, atom) for atom in edges)


def test_superiority_pairs_reference_generated_rules():
    theory = generate_theory(GeneratorParams(seed=3, superiority_count=3))
    labels = {rule.label for rule in theory.rules}
    for superior, inferior in theory.superiority:
        assert superior in labels and inferior in labels and superior != inferior


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_reproduces_the_mutual_conflict_extensions(two_obligations):
    oracle = brute_force_extensions(two_obligations.graph)
    assert oracle.grounded == frozenset()
    assert [sorted(e) for e in oracle.complete] == [[], ["A0", "A2", "I1"], ["A1", "A3", "I2"]]
    assert [sorted(e) for e in oracle.stable] == [["A0", "A2", "I1"], ["A1", "A3", "I2"]]


def test_oracle_on_an_unattacked_graph(support_undercut):
    oracle = brute_force_extensions(support_undercut.graph)
    assert oracle.grounded in set(oracle.complete)
    for extension in oracle.stable:
        assert extension in set(oracle.complete)


def test_oracle_grounded_is_the_minimal_complete_extension(two_obligations):
    oracle = brute_force_extensions(two_obligations.graph)
    assert all(oracle.grounded <= extension for extension in oracle.complete)


def test_oracle_refuses_graphs_above_its_budget(chained, support_undercut):
    with pytest.raises(OracleSizeError):
        brute_force_extensions(chained.graph)
    with pytest.raises(OracleSizeError):
        brute_force_extensions(support_undercut.graph, max_arguments=10)
    # an explicit budget admits a graph the default budget already covers
    oracle = brute_force_extensions(support_undercut.graph, max_arguments=14)
    assert sorted(oracle.grounded) == [
        "A0", "A3", "I1", "I2", "I3", "I5", "I6", "I7", "I8",
    ]


def test_the_oracles_read_no_index_of_the_engine(goldens):
    def answers(graph):
        return (reference_attacks(graph.arguments), reference_grounded(graph),
                brute_force_extensions(graph), reference_wp(graph))

    for name in ("two-obligations", "support-undercut"):
        intact = goldens[name].graph
        # a second build of the same theory, its conclusion, attacker and target indexes emptied
        hollow = compute_attacks(build_arguments(parse_theory(goldens[name].text)))
        ArgumentSet._by_conclusion.__set__(hollow.arguments, {})
        for index in (AttackGraph._attackers, AttackGraph._targets):
            index.__set__(hollow, ((),) * len(hollow.arguments))
        assert hollow.rows == intact.rows
        assert answers(hollow) == answers(intact)
