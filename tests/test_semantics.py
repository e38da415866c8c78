"""Unit tests for grounded, complete and stable extension computation."""

import itertools
import random
import re
from collections import Counter

import pytest

from deonarg import (
    ArgumentLimitExceeded,
    build_arguments,
    complete_extensions,
    compute_attacks,
    evaluate,
    grounded_extension,
    is_conflict_free,
    justified_conclusions,
    parse_theory,
    serialize_theory,
    stable_extensions,
)
from deonarg.semantics import _clashing, _components, _stable_core
from deonarg.testkit import (
    GeneratorParams,
    brute_force_extensions,
    generate_theory,
    reference_grounded,
)


def prepared_graph(text):
    theory = parse_theory(text)
    arguments = build_arguments(theory)
    return arguments, compute_attacks(arguments, theory)


def test_single_unattacked_rule_is_justified_under_every_semantics():
    arguments, graph = prepared_graph("r1: => obl(p).\n")
    # obl(p) expels the imaginary perm_w(~p); everything else stands
    expected = frozenset({"A0", "A1", "I1"})
    assert grounded_extension(graph) == expected
    assert complete_extensions(graph) == (expected,)
    assert stable_extensions(graph) == (expected,)
    conclusions = justified_conclusions(arguments, expected)
    assert {str(c) for c in conclusions} == {"obl(p)", "perm(p)", "perm_w(p)"}


def test_mutual_conflict_yields_empty_grounded_and_two_stable_extensions(two_obligations):
    graph = two_obligations.graph
    assert grounded_extension(graph) == frozenset()
    assert [sorted(e) for e in complete_extensions(graph)] == [
        [],
        ["A0", "A2", "I1"],
        ["A1", "A3", "I2"],
    ]
    assert [sorted(e) for e in stable_extensions(graph)] == [
        ["A0", "A2", "I1"],
        ["A1", "A3", "I2"],
    ]


def test_sceptical_justification_intersects_extensions(two_obligations):
    result = evaluate(two_obligations.graph, "stable")
    assert result.justified == frozenset()
    assert result.no_extensions is False


def test_grounded_extension_of_the_chained_theory(chained):
    assert sorted(grounded_extension(chained.graph)) == [
        "A0", "A5", "I1", "I10", "I2", "I7", "I8", "I9",
    ]


def test_grounded_extension_with_superiority(facultative_priorities):
    # n3 > n4 silences the attacks on the obl(c) derivation, so it survives
    assert sorted(grounded_extension(facultative_priorities.graph)) == [
        "A0", "A1", "A2", "A5", "A9", "I10", "I3", "I5", "I6", "I7", "I8", "I9",
    ]


def test_generalized_imaginary_attacks_change_the_grounded_extension(support_undercut):
    wide_graph = compute_attacks(
        support_undercut.arguments, support_undercut.theory, imaginary_subargument_attacks=True
    )
    narrow = grounded_extension(support_undercut.graph)
    wide = grounded_extension(wide_graph)
    assert narrow - wide == {"A3"}


def test_engine_matches_brute_force_oracle_on_small_goldens(
    two_obligations, support_undercut, oracle_corpus
):
    def size_then_members(extension, order):
        return (len(extension), sorted(order(i) for i in extension))

    # a multi-argument component with members forced OUT by an upstream
    # IN attacker: the leaf check must count them as attacked
    _, forced_out = prepared_graph(
        "fact ~a.\nr1: a => obl(~a).\nr2: => obl(a).\nr3: a => obl(a).\n"
        "r5: => a.\nr6: => obl(~a).\nr3 > r6.\n"
    )
    assert len(forced_out.arguments) == 12
    graphs = [two_obligations.graph, support_undercut.graph, forced_out]
    graphs += [case.graph for case in oracle_corpus]
    for graph in graphs:
        oracle = brute_force_extensions(graph)
        assert grounded_extension(graph) == oracle.grounded
        for semantics, found, expected in (
            ("complete", complete_extensions(graph), oracle.complete),
            ("stable", stable_extensions(graph), oracle.stable),
        ):
            # the oracle lists extensions in subset-enumeration order
            assert len(found) == len(expected) and set(found) == set(expected)
            assert evaluate(graph, semantics).extensions == found
            order = graph.arguments.index
            assert list(found) == sorted(found, key=lambda e: size_then_members(e, order))


def test_theory_without_stable_extensions_is_flagged():
    arguments, _ = prepared_graph("r1: perm_w(p) => obl(~p).\n")
    cases = [
        (arguments, compute_attacks(arguments, imaginary_subargument_attacks=True)),
        # narrowly, obl(~a) and perm(~a) attack themselves and each other: one component
        # of several members with no stable labelling
        prepared_graph("r1: perm(a) => obl(~a).\nr2: => obl(a).\nr1 > r2.\n"),
    ]
    for arguments, graph in cases:
        result = evaluate(graph, "stable")
        assert result.no_extensions is True
        assert result.extensions == ()
        # sceptical justification over zero extensions is vacuous
        assert result.justified == frozenset(arguments.ids)


def test_the_same_theory_has_a_stable_extension_under_narrow_attacks():
    arguments, graph = prepared_graph("r1: perm_w(p) => obl(~p).\n")
    assert [sorted(e) for e in stable_extensions(graph)] == [["A0", "A1", "I2"]]


def test_enumeration_refuses_to_run_above_the_argument_limit(chained):
    with pytest.raises(ArgumentLimitExceeded) as err:
        evaluate(chained.graph, "stable", argument_limit=3)
    assert err.value.count == 21
    assert err.value.limit == 3
    # grounded is polynomial and ignores the limit
    evaluate(chained.graph, "grounded", argument_limit=3)


def test_unknown_semantics_name_is_rejected(two_obligations):
    with pytest.raises(ValueError):
        evaluate(two_obligations.graph, "preferred")


def test_conflict_freeness_predicate(two_obligations):
    graph = two_obligations.graph
    assert is_conflict_free(graph, {"A0", "A2", "I1"})
    assert not is_conflict_free(graph, {"A0", "A1"})
    assert is_conflict_free(graph, set())
    # an id the set does not hold is an error, not left out of the question
    for members in ({"A0", "nope"}, {"A0", "A1", "nope"}):
        with pytest.raises(KeyError):
            is_conflict_free(graph, members)


def test_extensions_are_sorted_by_size_then_membership(two_obligations):
    sizes = [len(e) for e in complete_extensions(two_obligations.graph)]
    assert sizes == sorted(sizes)


def test_justified_conclusions_deduplicate_and_sort(chained):
    conclusions = justified_conclusions(chained.arguments, grounded_extension(chained.graph))
    rendered = [str(c) for c in conclusions]
    assert rendered == sorted(set(rendered), key=rendered.index)
    assert rendered[0] == "a"  # plain literals precede deontic conclusions


def _prefixed(text, prefix):
    """Put ``prefix`` in front of every atom and rule label of a theory."""
    keywords = {"fact", "obl", "perm", "perm_w"}
    return re.sub(
        r"\b[A-Za-z_][A-Za-z0-9_]*\b",
        lambda m: m.group(0) if m.group(0) in keywords else prefix + m.group(0),
        text,
    )


def test_extensions_of_a_disjoint_union_are_the_product_of_the_parts(oracle_corpus):
    # unions of 3 and 4 consecutive corpus theories, windows over 14 of them;
    # each part has at most 15 arguments and every union more than 24
    oracles = {}
    for start in range(10):
        cases = oracle_corpus[start:start + 3 + start % 2]
        prefixes = [f"u{i}_" for i in range(len(cases))]
        text = "".join(
            _prefixed(serialize_theory(case.theory), prefix)
            for case, prefix in zip(cases, prefixes)
        )
        arguments, graph = prepared_graph(text)
        assert len(arguments) > 24
        assert len(arguments) == sum(len(case.arguments) for case in cases)
        # a union argument is its part's argument with the prefix removed
        part_ids = [{repr(a): i for i, a in case.arguments} for case in cases]
        owner = {}
        for identifier, argument in arguments:
            shown = repr(argument)
            part = next(i for i, prefix in enumerate(prefixes) if prefix in shown)
            owner[identifier] = (part, part_ids[part][shown.replace(prefixes[part], "")])

        def project(extension):
            split = [set() for _ in cases]
            for identifier in extension:
                part, part_id = owner[identifier]
                split[part].add(part_id)
            return tuple(frozenset(members) for members in split)

        for case in cases:
            if case.seed not in oracles:
                oracles[case.seed] = brute_force_extensions(case.graph)
        parts = [oracles[case.seed] for case in cases]
        limit = len(arguments)
        complete = complete_extensions(graph, argument_limit=limit)
        stable = stable_extensions(graph, argument_limit=limit)
        assert Counter(map(project, complete)) == Counter(
            itertools.product(*(part.complete for part in parts))
        )
        assert Counter(map(project, stable)) == Counter(
            itertools.product(*(part.stable for part in parts))
        )


def _disjoint_union(cases):
    """One theory holding every case, each with its own prefix."""
    return "".join(
        _prefixed(serialize_theory(case.theory), f"u{i}_") for i, case in enumerate(cases)
    )


def test_factorised_answers_equal_the_enumerated_intersections(goldens, oracle_corpus):
    # goldens, the oracle corpus, and unions of 3 and 4 corpus theories
    graphs = [prepared.graph for prepared in goldens.values()]
    graphs += [case.graph for case in oracle_corpus]
    for start in range(0, 40, 4):
        cases = oracle_corpus[start:start + 3 + start % 8 // 4]
        graphs.append(prepared_graph(_disjoint_union(cases))[1])
    # one part without a stable extension, beside one with two
    arguments, _ = prepared_graph("r1: perm_w(p) => obl(~p).\nr2: => obl(q).\nr3: => obl(~q).\n")
    graphs.append(compute_attacks(arguments, imaginary_subargument_attacks=True))
    for graph in graphs:
        limit = len(graph.arguments)
        position = graph.arguments.index

        def reference_sort(extensions):
            return sorted(extensions, key=lambda e: (len(e), sorted(map(position, e))))

        complete = complete_extensions(graph, argument_limit=limit)
        stable = stable_extensions(graph, argument_limit=limit)
        assert list(complete) == reference_sort(complete)
        assert list(stable) == reference_sort(stable)
        grounded = grounded_extension(graph)
        assert frozenset.intersection(*complete) == grounded
        core = _stable_core(graph, limit)
        if stable:
            assert core == frozenset.intersection(*stable)
        else:
            assert core is None
        result = evaluate(graph, "complete", argument_limit=limit)
        assert (result.extensions, result.justified) == (complete, grounded)
        result = evaluate(graph, "stable", argument_limit=limit)
        everything = frozenset(graph.arguments.ids)
        assert (result.extensions, result.justified) == (
            stable, everything if core is None else core
        )
        assert result.no_extensions == (core is None)


def test_the_stable_core_applies_the_argument_limit(chained):
    with pytest.raises(ArgumentLimitExceeded) as err:
        _stable_core(chained.graph, 3)
    assert (err.value.count, err.value.limit) == (21, 3)


def test_a_600_step_chain_enumerates_without_deep_recursion(ladder):
    arguments, graph = prepared_graph(ladder.chain(600))
    assert len(arguments) == 1809
    limit = len(arguments)
    assert len(complete_extensions(graph, argument_limit=limit)) == 3
    assert len(stable_extensions(graph, argument_limit=limit)) == 2


def test_conflicting_members_equal_a_scan_of_the_attack_pairs(goldens, oracle_corpus):
    graphs = [prepared.graph for prepared in goldens.values()]
    graphs += [case.graph for case in oracle_corpus[:50]]
    rng = random.Random(0)
    for graph in graphs:
        ids = graph.arguments.ids
        for _ in range(20):
            chosen = {identifier for identifier in ids if rng.random() < 0.5}
            touching = {identifier for identifier in ids if rng.random() < 0.3}
            inside = [(a, t) for a, t in graph.pairs if a in chosen and t in chosen]
            expected = {member for pair in inside for member in pair}
            near = {member for pair in inside if set(pair) & touching for member in pair}
            order = graph.arguments.index
            # every clash of the set, as verify_theorems reads them
            positions = graph.arguments._positions
            members = {positions[member] for member in chosen}
            clash = graph.arguments._decode(sorted(_clashing(graph, members, members)))
            assert clash == tuple(sorted(expected, key=order))
            # the clashes of the members just added, as wp_extension reads them
            added = members & {positions[member] for member in touching}
            clash = graph.arguments._decode(sorted(_clashing(graph, members, added)))
            assert clash == tuple(sorted(near, key=order))
            assert is_conflict_free(graph, chosen) == (not expected)


def test_grounded_is_the_least_fixpoint_of_the_characteristic_function(
    goldens, conflict_corpus, no_superiority_corpus, oracle_corpus, ladder
):
    graphs = [prepared.graph for prepared in goldens.values()]
    for corpus in (conflict_corpus, no_superiority_corpus, oracle_corpus):
        graphs += [case.graph for case in corpus]
    for seed in range(200):
        params = GeneratorParams(
            seed=seed, atom_count=4, rule_count=6, fact_count=2, acyclic=seed % 2 == 0,
            inject_conflict=True,
        )
        graphs.append(prepared_graph(serialize_theory(generate_theory(params)))[1])
    for seed in range(100):  # superiority pairs: arguments with several grounded attackers
        params = GeneratorParams(
            seed=seed, atom_count=8, fact_count=4, rule_count=20, inject_conflict=True,
            superiority_count=3, max_body_len=2,
        )
        arguments = build_arguments(generate_theory(params))
        graphs += [compute_attacks(arguments, imaginary_subargument_attacks=generalized)
                   for generalized in (False, True)]
    for text in (ladder.chain(1000), ladder.fan(8), ladder.generated()):
        graphs.append(prepared_graph(text)[1])
    for graph in graphs:
        assert grounded_extension(graph) == reference_grounded(graph)


def _parts(graph):
    """The positions of each part: arguments in an attack, joined by chains of attacks."""
    attackers, targets = graph._attackers, graph._targets
    seen, parts = set(), []
    for root in range(len(attackers)):
        if root in seen or not (attackers[root] or targets[root]):
            continue
        seen.add(root)
        members = [root]
        for k in members:
            for j in (*attackers[k], *targets[k]):
                if j not in seen:
                    seen.add(j)
                    members.append(j)
        parts.append(members)
    return parts


def test_components_are_the_strongly_connected_ones_of_each_part_in_topological_order(
    conflict_corpus, no_superiority_corpus, oracle_corpus, ladder
):
    graphs = [case.graph for corpus in (conflict_corpus, no_superiority_corpus, oracle_corpus)
              for case in corpus]
    graphs += [prepared_graph(text)[1] for text in (ladder.conflicts(12), ladder.generated())]
    crossing = 0  # attacks between two components of a part
    for graph in graphs:
        attackers, targets = graph._attackers, graph._targets
        for members in _parts(graph):
            components = _components(members, attackers, targets)
            # a partition of the part
            place = {k: c for c, component in enumerate(components) for k in component}
            assert sum(map(len, components)) == len(place) and place.keys() == set(members)
            for c, component in enumerate(components):
                # strongly connected: the first member reaches every member, and is reached
                # from each, along attacks inside the component
                for edges in (attackers, targets):
                    reached, stack = {component[0]}, [component[0]]
                    while stack:
                        for j in edges[stack.pop()]:
                            if place[j] == c and j not in reached:
                                reached.add(j)
                                stack.append(j)
                    assert reached == set(component)
                # every attacker in this component or an earlier one
                for k in component:
                    assert all(place[a] <= c for a in attackers[k])
                    crossing += sum(place[a] < c for a in attackers[k])
    assert crossing  # the order is tested on attacks between components


def _documented_order(graph, extensions):
    """Extensions sorted by size, then by their sorted member positions."""
    position = graph.arguments.index
    return sorted(extensions, key=lambda e: (len(e), sorted(map(position, e))))


def _assert_oracle_order(graph, complete, stable):
    """The engine's lists equal the given extensions in the documented order."""
    limit = len(graph.arguments)
    assert list(complete_extensions(graph, argument_limit=limit)) == _documented_order(
        graph, complete
    )
    assert list(stable_extensions(graph, argument_limit=limit)) == _documented_order(graph, stable)


def test_extensions_of_unions_equal_the_oracle_in_the_documented_order(oracle_corpus):
    # unions of 3 and 4 corpus theories, whose positions interleave the
    # parts: the product of the parts' oracle extensions, lifted to the
    # union's ids.  On the small goldens and the corpus,
    # test_engine_matches_brute_force_oracle_on_small_goldens already pins
    # the exact lists: the same set and length, sorted.
    oracles = {case.seed: brute_force_extensions(case.graph) for case in oracle_corpus[:14]}
    for start in range(10):
        cases = oracle_corpus[start:start + 3 + start % 2]
        arguments, graph = prepared_graph(_disjoint_union(cases))
        lift = [{} for _ in cases]
        for identifier, argument in arguments:
            shown = repr(argument)
            part = next(i for i in range(len(cases)) if f"u{i}_" in shown)
            lift[part][shown.replace(f"u{part}_", "")] = identifier
        parts = []
        for case, names in zip(cases, lift):
            by_id = {i: names[repr(a)] for i, a in case.arguments}
            oracle = oracles[case.seed]
            parts.append([[frozenset(map(by_id.get, e)) for e in found]
                          for found in (oracle.complete, oracle.stable)])

        def product(which):
            return [frozenset().union(*picked)
                    for picked in itertools.product(*(part[which] for part in parts))]

        _assert_oracle_order(graph, product(0), product(1))


def test_attack_free_edge_cases_match_the_oracle():
    # the empty theory: one empty extension under both semantics
    _, empty = prepared_graph("")
    assert complete_extensions(empty) == stable_extensions(empty) == (frozenset(),)
    # one fact: every argument is attack-free, one extension equal to grounded
    _, fact = prepared_graph("fact a.\n")
    assert not fact.pairs
    assert complete_extensions(fact) == stable_extensions(fact) == (grounded_extension(fact),)
    for graph in (empty, fact):
        oracle = brute_force_extensions(graph)
        _assert_oracle_order(graph, oracle.complete, oracle.stable)
    # a self-attacking argument next to attack-free ones: with obl(p) it is
    # OUT in the stable extension and UNDEC in the grounded one; alone it
    # leaves no stable extension
    for text, counts in (("fact a.\nr1: perm_w(p) => obl(~p).\nr2: => obl(p).\n", (2, 1)),
                         ("fact a.\nfact b.\nr1: perm_w(p) => obl(~p).\n", (1, 0))):
        arguments = build_arguments(parse_theory(text))
        graph = compute_attacks(arguments, imaginary_subargument_attacks=True)
        assert any(attacker == target for attacker, target in graph.pairs)
        free = frozenset(arguments.ids) - {member for pair in graph.pairs for member in pair}
        assert len(free) >= 3
        oracle = brute_force_extensions(graph)
        assert (len(oracle.complete), len(oracle.stable)) == counts
        assert all(free <= extension for extension in oracle.complete)
        _assert_oracle_order(graph, oracle.complete, oracle.stable)


def test_attack_free_arguments_of_a_fan_join_every_extension_of_a_conflict(ladder):
    conflict = "c1: => obl(q).\nc2: => obl(~q).\n"
    arguments, graph = prepared_graph(ladder.fan(6) + conflict)
    free = frozenset(arguments.ids) - {member for pair in graph.pairs for member in pair}
    assert len(free) > 1000
    # the conflict alone, through the oracle, lifted by argument to the fan's ids
    small_arguments, small_graph = prepared_graph(conflict)
    oracle = brute_force_extensions(small_graph)
    by_repr = {repr(argument): identifier for identifier, argument in arguments}
    by_id = {i: by_repr[repr(a)] for i, a in small_arguments}

    def lift(extensions):
        return [free | frozenset(map(by_id.get, extension)) for extension in extensions]

    _assert_oracle_order(graph, lift(oracle.complete), lift(oracle.stable))
    limit = len(arguments)
    complete = complete_extensions(graph, argument_limit=limit)
    stable = stable_extensions(graph, argument_limit=limit)
    assert (len(complete), len(stable)) == (3, 2)
    assert all(free <= extension for extension in complete + stable)


def test_stable_extensions_are_the_complete_ones_that_attack_every_outsider():
    # 26 arguments, above the brute-force oracle's cap; 90 complete, 16 of them stable
    params = GeneratorParams(
        seed=696, atom_count=5, fact_count=2, rule_count=10, inject_conflict=True, max_body_len=2
    )
    theory = generate_theory(params)
    arguments = build_arguments(theory)
    graph = compute_attacks(arguments, theory)
    limit = len(arguments)
    assert limit == 26
    stable = stable_extensions(graph, argument_limit=limit)
    complete = complete_extensions(graph, argument_limit=limit)
    everything = frozenset(arguments.ids)
    attacking = [
        extension for extension in complete
        if extension | {target for attacker, target in graph.pairs if attacker in extension}
        == everything
    ]
    assert (len(complete), len(stable)) == (90, 16)
    assert stable == tuple(attacking)
