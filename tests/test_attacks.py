"""Unit tests for attack computation, condition tagging and suppression."""

import copy
from itertools import groupby
from operator import itemgetter

import pytest

from deonarg import (
    AttackGraph,
    build_arguments,
    complete_extensions,
    compute_attacks,
    evaluate,
    lit,
    obl,
    parse_theory,
    serialize_theory,
    stable_extensions,
    verify_theorems,
    wp_extension,
)
from deonarg.cli import main
from deonarg.schema import arguments_section, attacks_section, trace_section
from deonarg.semantics import SEMANTICS_NAMES
from deonarg.testkit import GeneratorParams, generate_theory, reference_attacks


def decoded(graph, rows):
    """The attack rows as ``(attacker, target, condition, witness)`` ids."""
    ids = graph.arguments.ids
    return [(ids[a], ids[t], c, ids[w]) for a, t, c, w in rows]


def table(graph):
    return set(decoded(graph, graph.rows))


def indexed(graph, index, identifier):
    """An argument's entry in one of the graph's indexes (those wp reads), decoded."""
    return graph.arguments._decode(getattr(graph, index)[graph.arguments.index(identifier)])


def attackers_of(graph, target):
    """The distinct attackers of an argument, in id order, off the pairs."""
    return tuple(sorted({a for a, t in graph.pairs if t == target}, key=graph.arguments.index))


def targets_of(graph, attacker):
    """The distinct targets of an argument, in id order, off the pairs."""
    return tuple(sorted({t for a, t in graph.pairs if a == attacker}, key=graph.arguments.index))


def witnesses_of(graph, attacker):
    """The natural witnesses an argument attacks at, decoded from the index wp reads."""
    return indexed(graph, "_witnesses", attacker)


def runs_by_pair(graph):
    """Each pair's records as ``(attacker, target, condition, witness)`` ids, read as one run
    of the sorted rows per pair, as the attacks writers read them."""
    ids = graph.arguments.ids
    found = {}
    for (a, t), run in groupby(graph.rows, itemgetter(0, 1)):
        assert (ids[a], ids[t]) not in found  # one run per pair
        found[ids[a], ids[t]] = [(ids[a], ids[t], c, ids[w]) for _, _, c, w in run]
    return found


def natural_witnesses(arguments, witnesses):
    """The distinct natural witnesses among those given, in position order."""
    natural = {w for w in witnesses if arguments.kind(w) != "imaginary"}
    return tuple(sorted(natural, key=arguments.index))


def test_two_obligation_conflict_attack_table(two_obligations):
    assert table(two_obligations.graph) == {
        ("A0", "A1", 3, "A1"),
        ("A0", "A3", 3, "A1"),
        ("A0", "A3", 3, "A3"),
        ("A0", "I2", 1, "I2"),
        ("A1", "A0", 3, "A0"),
        ("A1", "A2", 3, "A0"),
        ("A1", "A2", 3, "A2"),
        ("A1", "I1", 1, "I1"),
        ("A2", "A1", 4, "A1"),
        ("A2", "A3", 4, "A1"),
        ("A3", "A0", 4, "A0"),
        ("A3", "A2", 4, "A0"),
    }


def test_obligation_attacks_both_polar_obligation_and_its_permission(two_obligations):
    # condition 3: obl(~a) hits obl(a) and, through the subargument, perm(a)
    assert targets_of(two_obligations.graph, "A1") == ("A0", "A2", "I1")


def test_permission_attacks_lift_through_subarguments(chained):
    # perm(~p) rebuts the obl(p) premise inside every taller argument over it
    assert targets_of(chained.graph, "A7") == ("A1", "A4", "A6", "A9", "A10")
    assert all(
        witness == "A1"
        for target in ("A4", "A6", "A9", "A10")
        for _, _, _, witness in runs_by_pair(chained.graph)["A7", target]
    )


def test_obligations_attack_opposite_imaginary_arguments_only_narrowly(chained):
    # condition 1 puts the imaginary argument itself as target and witness
    records = decoded(chained.graph, chained.graph.rows)
    assert [e for e in records if e[2] == 1] == [
        e for e in records if e[1].startswith("I") and e[3] == e[1]
    ]
    assert ("A2", "I3") in chained.graph.pairs
    # narrow reading: A5 contains I3 but is not itself a condition-1 target
    assert ("A2", "A5") not in chained.graph.pairs


def test_generalized_flag_lifts_imaginary_attacks_to_containing_arguments(support_undercut):
    narrow = support_undercut.graph
    wide = compute_attacks(
        support_undercut.arguments, support_undercut.theory, imaginary_subargument_attacks=True
    )
    extra = table(wide) - table(narrow)
    # A3 concludes d from perm_w(~b); obl(b) now reaches it through I4
    assert extra == {("A2", "A3", 1, "I4")}


def test_imaginary_arguments_never_attack(goldens):
    for prepared in goldens.values():
        for attacker, _, _, _ in decoded(prepared.graph, prepared.graph.rows):
            assert prepared.arguments.argument(attacker).kind != "imaginary"


def test_every_witness_is_a_subargument_of_its_target(goldens):
    for prepared in goldens.values():
        for _, target, _, witness in decoded(prepared.graph, prepared.graph.rows):
            assert witness in prepared.arguments.sub_ids(target)


def test_superiority_suppresses_attacks_on_derivations_of_the_superior_rule(
    facultative_priorities,
):
    graph = facultative_priorities.graph
    suppressed = set(decoded(graph, graph.suppressed_rows))
    # n3 > n4: the n4-topped attackers lose every attack witnessed at an n3 derivation
    assert suppressed == {
        ("A6", "A5", 3, "A5"),
        ("A6", "A9", 3, "A5"),
        ("A6", "A9", 3, "A9"),
        ("A10", "A5", 4, "A5"),
        ("A10", "A9", 4, "A5"),
    }
    assert ("A6", "A5") not in facultative_priorities.graph.pairs
    assert ("A6", "A9") not in facultative_priorities.graph.pairs


def test_condition_one_attacks_survive_superiority(facultative_priorities):
    # the imaginary target is not a derivation of any rule, so no suppression
    assert ("A6", "I3") in facultative_priorities.graph.pairs


def test_suppression_is_pairwise_not_global():
    # superiority only silences the named inferior rule, not other attackers
    theory = parse_theory(
        "r1: => obl(a).\nr2: => obl(~a).\nr3: => obl(~a).\nr1 > r2.\n"
    )
    arguments = build_arguments(theory)
    graph = compute_attacks(arguments, theory)
    (obl_a,) = arguments.concluders(obl(lit("a")))
    attackers = set(attackers_of(graph, obl_a))
    labels = {arguments.argument(i).top_rule for i in attackers}
    assert labels == {"r3"}


def test_a_theory_other_than_the_arguments_own_is_refused():
    text = "r1: => obl(a).\nr2: => obl(~a).\n"
    theory = parse_theory(text + "r1 > r2.\n")
    arguments = build_arguments(theory)
    with pytest.raises(ValueError, match="not the one the arguments were built from"):
        compute_attacks(arguments, parse_theory(text))
    # the same theory, or an equal one, suppresses by its superiority
    for given in (None, theory, parse_theory(text + "r1 > r2.\n")):
        graph = compute_attacks(arguments, given)
        assert (len(graph.rows), len(graph.suppressed_rows)) == (7, 5)


def test_attack_free_theory_has_empty_graph():
    theory = parse_theory("fact a.\nr1: a => b.\n")
    graph = compute_attacks(build_arguments(theory), theory)
    assert graph.rows == ()
    assert graph.suppressed_rows == ()
    assert graph.pairs == frozenset()


def test_indexes_agree_with_the_edge_list(chained, goldens):
    graph = chained.graph
    runs = runs_by_pair(graph)
    for attacker, target in graph.pairs:
        assert target in indexed(graph, "_targets", attacker)
        assert attacker in indexed(graph, "_attackers", target)
        assert runs[attacker, target]
    # every index equals a scan of the surviving records
    for prepared in goldens.values():
        graph, index = prepared.graph, prepared.arguments.index
        runs = runs_by_pair(graph)
        records = decoded(graph, graph.rows)
        for identifier in prepared.arguments.ids:
            attackers = {a for a, t, _, _ in records if t == identifier}
            targets = {t for a, t, _, _ in records if a == identifier}
            witnesses = [w for a, _, _, w in records if a == identifier]
            assert indexed(graph, "_attackers", identifier) == tuple(sorted(attackers, key=index))
            assert indexed(graph, "_targets", identifier) == tuple(sorted(targets, key=index))
            assert witnesses_of(graph, identifier) == natural_witnesses(
                prepared.arguments, witnesses
            )
            for other in prepared.arguments.ids:
                assert runs.get((identifier, other), []) == [
                    record for record in records if record[:2] == (identifier, other)
                ]


def attack_corpus():
    for seed in range(60):
        params = GeneratorParams(
            seed=seed,
            atom_count=3 + seed % 3,
            rule_count=5 + seed % 4,
            fact_count=2,
            inject_conflict=True,
            superiority_count=1 + seed % 4,
            acyclic=seed % 2 == 0,
        )
        theory = generate_theory(params)
        arguments = build_arguments(theory)
        if len(arguments) <= 80:
            yield seed, theory, arguments


def test_compute_attacks_matches_a_target_first_scan():
    checked = suppressed_seen = 0
    for seed, theory, arguments in attack_corpus():
        for generalized in (False, True):
            graph = compute_attacks(
                arguments, theory, imaginary_subargument_attacks=generalized
            )
            edges, suppressed = reference_attacks(
                arguments, imaginary_subargument_attacks=generalized
            )
            assert decoded(graph, graph.rows) == edges, (seed, generalized)
            assert decoded(graph, graph.suppressed_rows) == suppressed, (seed, generalized)
            assert graph.pairs == {(a, t) for a, t, _, _ in edges}
            order = arguments.index
            for identifier in arguments.ids:
                attackers = {a for a, t, _, _ in edges if t == identifier}
                targets = {t for a, t, _, _ in edges if a == identifier}
                witnesses = [w for a, _, _, w in edges if a == identifier]
                assert indexed(graph, "_attackers", identifier) == tuple(
                    sorted(attackers, key=order)
                )
                assert indexed(graph, "_targets", identifier) == tuple(sorted(targets, key=order))
                assert witnesses_of(graph, identifier) == natural_witnesses(arguments, witnesses)
            runs = runs_by_pair(graph)
            for attacker, target in graph.pairs:
                assert runs[attacker, target] == [r for r in edges if r[:2] == (attacker, target)]
            checked += 1
            suppressed_seen += bool(suppressed)
    assert checked >= 100 and suppressed_seen >= 20


def test_the_request_path_builds_no_attack_records(
    goldens, conflict_corpus, no_superiority_corpus, oracle_corpus, monkeypatch, runner
):
    def refuse(*args, **kwargs):
        raise AssertionError("the attack records were decoded")

    theories = [prepared.theory for prepared in goldens.values()] + [
        case.theory for corpus in (conflict_corpus, no_superiority_corpus, oracle_corpus)
        for case in corpus
    ]
    graphs = []
    with monkeypatch.context() as patch:
        patch.setattr(AttackGraph, "edges", property(refuse))
        patch.setattr(AttackGraph, "suppressed", property(refuse))
        for source in theories:
            text = serialize_theory(source)
            theory = parse_theory(text)
            arguments = build_arguments(theory)
            limit = len(arguments)
            arguments_section(arguments)
            for generalized in (False, True):
                graph = compute_attacks(arguments, theory, imaginary_subargument_attacks=generalized)
                for semantics in SEMANTICS_NAMES:
                    evaluate(graph, semantics, argument_limit=limit)
                complete_extensions(graph, argument_limit=limit)
                stable_extensions(graph, argument_limit=limit)
                trace_section(wp_extension(graph))
                attacks_section(graph)
                verify_theorems(graph, argument_limit=limit)
                flags = ["--imaginary-subargument-attacks"] if generalized else []
                for fmt in ("text", "json", "dot"):  # the attacks command's writers
                    result = runner.invoke(main, ["attacks", "-f", fmt, *flags, "-"], input=text)
                    assert result.exit_code == 0, result.output
                graphs.append(graph)
    assert len(graphs) == 2 * len(theories)

    for graph in graphs:
        edges, suppressed = reference_attacks(
            graph.arguments, imaginary_subargument_attacks=graph.generalized
        )
        assert decoded(graph, graph.rows) == edges
        assert decoded(graph, graph.suppressed_rows) == suppressed
        assert graph.pairs == {(a, t) for a, t, _, _ in edges}
        runs = runs_by_pair(graph)
        for attacker, target in graph.pairs:
            assert runs[attacker, target] == [r for r in edges if r[:2] == (attacker, target)]
        assert attacks_section(graph) == {
            "edges": [dict(zip(("attacker", "target", "condition", "witness"), r)) for r in edges],
            "suppressed": [
                dict(zip(("attacker", "target", "condition", "witness"), r)) for r in suppressed
            ],
        }


def fanout_conflicts(fanouts):
    """Layer ``l`` derives ``x_l`` by ``fanouts[l-1]`` alternative rules and adds an
    ``obl(y_l)`` / ``obl(~y_l)`` / ``perm(~y_l)`` conflict; odd layers rank ``o_l``
    above ``n_l``."""
    lines = ["fact x_0."]
    for layer, fanout in enumerate(fanouts, start=1):
        lines += [f"r{layer}_{j}: x_{layer - 1} => x_{layer}." for j in range(1, fanout + 1)]
        lines += [
            f"o{layer}: x_{layer} => obl(y_{layer}).",
            f"n{layer}: x_{layer - 1} => obl(~y_{layer}).",
            f"q{layer}: x_{layer} => perm(~y_{layer}).",
        ]
        if layer % 2:
            lines.append(f"o{layer} > n{layer}.")
    return parse_theory("\n".join(lines) + "\n")


@pytest.mark.parametrize("fanouts", [(2, 2, 2, 2), (3, 2, 2), (2, 3, 2)])
@pytest.mark.parametrize("generalized", [False, True])
def test_fanout_conflicts_fill_the_rows_and_indexes_of_the_reference(fanouts, generalized):
    arguments = build_arguments(fanout_conflicts(fanouts))
    graph = compute_attacks(arguments, imaginary_subargument_attacks=generalized)
    index, size = arguments.index, len(arguments)

    def positions(records):
        return [(index(a), index(t), c, index(w)) for a, t, c, w in records]

    edges, suppressed = reference_attacks(arguments, imaginary_subargument_attacks=generalized)
    assert list(graph.rows) == positions(edges)
    assert list(graph.suppressed_rows) == positions(suppressed)
    assert graph.suppressed_rows
    # every index equals a scan of the surviving rows
    attackers, targets, witnesses = ([set() for _ in range(size)] for _ in range(3))
    for a, t, _, w in graph.rows:
        attackers[t].add(a)
        targets[a].add(t)
        if arguments.rows[w][0] != "imaginary":
            witnesses[a].add(w)
    indexes = tuple(
        tuple(tuple(sorted(found)) for found in scan) for scan in (attackers, targets, witnesses)
    )
    assert (graph._attackers, graph._targets, graph._witnesses) == indexes
    # a copy reruns construction on the set, under the same reading, to the same indexes
    twin = copy.copy(graph)
    assert twin == graph
    assert (twin._attackers, twin._targets, twin._witnesses) == indexes
    # some attacker hits witnesses under two conditions, so its records are merged
    conditions = {}
    for a, _, c, _ in graph.rows:
        conditions.setdefault(a, set()).add(c)
    assert any(len(found) > 1 for found in conditions.values())
