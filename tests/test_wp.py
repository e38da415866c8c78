"""Unit tests for the weak-permission fixed point and its trace."""

import random

import pytest

from deonarg import (
    FixpointInvariantError,
    build_arguments,
    compute_attacks,
    is_conflict_free,
    parse_theory,
    wp_extension,
)
from deonarg.schema import trace_section
from deonarg.testkit import (
    reference_graph,
    reference_wp,
    supported_by,
    undercut_by,
    undercuts,
)


def changes(ext, index, side):
    """One side of a trace step, off ``trace_section``: ``(argument, clause, witnesses)``."""
    return [(c["argument"], c["clause"], c["witnesses"]) for c in trace_section(ext)[index][side]]


# ---------------------------------------------------------------------------
# support and undercut (the testkit's reference predicates)
# ---------------------------------------------------------------------------


def test_the_empty_set_supports_exactly_the_premise_free_arguments(support_undercut):
    view = reference_graph(support_undercut.graph)
    assert sorted(supported_by(view, frozenset())) == [
        "A0", "A1", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8",
    ]


def test_support_grows_with_the_supporting_set(support_undercut):
    view = reference_graph(support_undercut.graph)
    base = supported_by(view, frozenset())
    grown = supported_by(view, frozenset({"A0"}))
    assert grown - base == {"A2"}
    assert "A2" in supported_by(view, {"A0"})
    assert "A2" not in supported_by(view, set())


def test_undercut_requires_a_supported_attacker_at_a_proper_natural_subargument(
    support_undercut,
):
    view = reference_graph(support_undercut.graph)
    # perm(~b) needs no premises, so its attack at the obl(b) premise of
    # perm(b) is grounded even by the empty set
    assert undercut_by(view, frozenset()) == {"A5"}
    # with the fact for a supported, obl(b) grounds the attack into e's premise
    assert undercut_by(view, frozenset({"A0"})) == {"A4", "A5"}
    assert undercuts(view, {"A0"}, "A4")
    assert not undercuts(view, {"A0"}, "A3")  # its only premise is imaginary


def test_rebuttals_at_the_argument_itself_never_undercut(support_undercut):
    # A1 attacks A2 at A2's own conclusion; that is not an undercut of A2
    view = reference_graph(support_undercut.graph)
    assert not undercuts(view, {"A0"}, "A2")


# ---------------------------------------------------------------------------
# golden fixed points
# ---------------------------------------------------------------------------


def test_mutual_conflict_rejects_everything_natural_then_accepts_the_imaginary(
    two_obligations,
):
    ext = wp_extension(two_obligations.graph)
    assert ext.iterations == 2
    assert changes(ext, 0, "rejected") == [
        ("A0", "attacker-supported", ["A1"]),
        ("A1", "attacker-supported", ["A0"]),
        ("A2", "attacker-supported", ["A1"]),
        ("A3", "attacker-supported", ["A0"]),
    ]
    assert changes(ext, 1, "justified") == [
        ("I1", "attackers-all-rejected", ["A1"]),
        ("I2", "attackers-all-rejected", ["A0"]),
    ]
    assert ext.justified == {"I1", "I2"}
    assert ext.rejected == {"A0", "A1", "A2", "A3"}


def test_chained_theory_fixed_point(chained):
    ext = wp_extension(chained.graph)
    assert ext.iterations == 3
    assert ext.justified == {
        "A0", "A3", "A5", "A8", "I1", "I2", "I3", "I4", "I6", "I7", "I8", "I9", "I10",
    }
    assert ext.rejected == {"A1", "A2", "A4", "A6", "A7", "A9", "A10", "I5"}


def test_support_undercut_theory_fixed_point(support_undercut):
    ext = wp_extension(support_undercut.graph)
    assert ext.iterations == 3
    # the derivation of e falls with its undercut premise; d survives on
    # its imaginary premise
    assert changes(ext, 1, "rejected") == [
        ("A1", "attacker-supported", ["A2"]),
        ("A4", "attacker-supported", ["A2"]),
    ]
    assert changes(ext, 2, "justified") == [("A3", "supported-and-defended", [])]
    assert ext.justified == {"A0", "A3", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"}
    assert ext.rejected == {"A1", "A2", "A4", "A5"}


def test_superiority_lets_the_protected_obligation_reach_justification(
    facultative_priorities,
):
    ext = wp_extension(facultative_priorities.graph)
    assert ext.iterations == 5
    assert changes(ext, 3, "rejected") == [
        ("A6", "attacker-supported", ["A5"]),
        ("A10", "attacker-supported", ["A5"]),
    ]
    assert changes(ext, 4, "rejected") == [("I4", "attacker-justified", ["A5"])]
    assert ext.justified == {
        "A0", "A1", "A2", "A5", "A9", "I1", "I2", "I3", "I5", "I6", "I7", "I8", "I9", "I10",
    }
    assert ext.rejected == {"A3", "A4", "A6", "A7", "A8", "A10", "I4"}


def test_rejection_propagates_through_subarguments_with_its_own_clause():
    theory = parse_theory("r1: => obl(~p).\nr2: perm_w(p) => s.\n")
    arguments = build_arguments(theory)
    ext = wp_extension(compute_attacks(arguments, theory))
    by_clause = {
        c["argument"]: (c["clause"], c["witnesses"])
        for step in trace_section(ext)
        for c in step["rejected"]
    }
    assert by_clause["I1"] == ("attacker-justified", ["A0"])
    # the s derivation falls only because its weak-permission premise fell
    assert by_clause["A1"] == ("subargument-rejected", ["I1"])


def test_cumulative_step_sets_grow_monotonically(goldens):
    # every step adds arguments new to both sets, and the changes add up to the extension
    for prepared in goldens.values():
        ext = wp_extension(prepared.graph)
        justified, rejected = set(), set()
        for step in trace_section(ext):
            newly_j = {change["argument"] for change in step["justified"]}
            newly_r = {change["argument"] for change in step["rejected"]}
            assert len(newly_j) == len(step["justified"])
            assert len(newly_r) == len(step["rejected"])
            assert newly_j.isdisjoint(justified | rejected)
            assert newly_r.isdisjoint(justified | rejected)
            assert newly_j.isdisjoint(newly_r)
            justified |= newly_j
            rejected |= newly_r
        assert justified == ext.justified
        assert rejected == ext.rejected


def test_justified_sets_are_conflict_free_on_all_goldens(goldens):
    for prepared in goldens.values():
        ext = wp_extension(prepared.graph)
        assert is_conflict_free(prepared.graph, ext.justified)


def test_disabling_the_update_guards_breaches_disjointness(chained):
    with pytest.raises(FixpointInvariantError) as err:
        wp_extension(chained.graph, fixpoint_guards=False)
    assert err.value.kind == "overlap"
    assert err.value.step == 2
    assert {"A1", "A2"} <= set(err.value.members)


def test_facts_only_theory_settles_in_one_step():
    theory = parse_theory("fact a.\nfact ~b.\n")
    arguments = build_arguments(theory)
    ext = wp_extension(compute_attacks(arguments, theory))
    assert ext.iterations == 1
    assert ext.rejected == frozenset()
    assert ext.justified == frozenset(arguments.ids)


def test_conflict_free_chains_accept_one_level_per_step():
    theory = parse_theory("fact a.\nr1: a => b.\nr2: b => c.\n")
    arguments = build_arguments(theory)
    ext = wp_extension(compute_attacks(arguments, theory))
    assert ext.iterations == 3
    assert ext.rejected == frozenset()
    assert ext.justified == frozenset(arguments.ids)


# ---------------------------------------------------------------------------
# the engine against the reference iteration
# ---------------------------------------------------------------------------


def outcome(run, graph, guards):
    """The trace and sets of a fixed point, or the payload of its breach."""
    try:
        ext = run(graph, fixpoint_guards=guards)
    except FixpointInvariantError as error:
        return ("breach", error.step, error.kind, error.members, str(error))
    return ("fixed point", trace_section(ext), ext.justified, ext.rejected)


def assert_matches_reference(graph, label):
    """Compare every step, status change, clause and witness, under both guards."""
    breaches = 0
    for guards in (True, False):
        engine = outcome(wp_extension, graph, guards)
        reference = outcome(reference_wp, graph, guards)
        if engine[0] == reference[0] == "fixed point":
            for ours, theirs in zip(engine[1], reference[1]):  # first differing step
                assert ours == theirs, (label, guards, ours["step"])
        assert engine == reference, (label, guards)
        breaches += engine[0] == "breach"
    return breaches


def random_chain(rng):
    """A rule chain with deontic rules hung off random links.

    Rules may also lean on a weak permission that a self-undermining rule
    leaves undecided, and superiority may shield one side of a conflict.
    """
    steps = rng.randint(2, 8)
    links = [f"a{i}" for i in range(steps + 1)]
    lines = ["fact a0."] + [f"c{i}: a{i - 1} => a{i}." for i in range(1, steps + 1)]
    if rng.random() < 0.5:
        lines += ["u0: perm_w(u) => obl(~u).", "u1: perm_w(u) => g."]
        links.append("g")

    def literal():
        return f"{rng.choice(['', '~'])}{rng.choice('pqc')}"

    labels = []
    for k in range(rng.randint(2, 6)):
        head = rng.choice([f"obl({literal()})", f"obl({literal()})", f"perm({literal()})", literal()])
        body = ", ".join(rng.sample(links, rng.randint(0, 2)))
        labels.append(f"d{k}")
        lines.append(f"d{k}: {body} => {head}.")
    if rng.random() < 0.5:
        lines.append(f"w0: perm_w({literal()}), {rng.choice(links)} => b.")
        lines.append(f"w1: b => obl({literal()}).")
    for _ in range(rng.randint(0, 2)):
        superior, inferior = rng.sample(labels, 2)
        lines.append(f"{superior} > {inferior}.")
    return "\n".join(lines) + "\n"


def random_fan(rng):
    """Layers of alternative rules, each layer carrying an obligation conflict."""
    layers, width = rng.randint(1, 3), rng.randint(1, 3)
    lines = ["fact x0."]
    for i in range(1, layers + 1):
        lines += [f"f{i}_{j}: x{i - 1} => x{i}." for j in range(width)]
        lines += [f"o{i}: x{i} => obl(y{i}).", f"n{i}: x{i} => obl(~y{i})."]
        if rng.random() < 0.5:
            lines.append(f"m{i}: x{i - 1} => perm(~y{i}).")
        if rng.random() < 0.5:
            lines.append(f"o{i} > n{i}.")
    return "\n".join(lines) + "\n"


def test_an_undercut_attacker_stops_blocking_in_the_round_it_is_undercut():
    # obl(~q) (A8) is never supported: its premise g rests on perm_w(u),
    # which u0 leaves undecided.  Once d is justified, ~c (A10) is supported
    # and undercuts A8 through its premise c, so obl(q) (A2), whose own
    # attack on A8 is suppressed by s > x, is accepted in that very round,
    # while A8 is rejected
    theory = parse_theory(
        "fact f.\nr1: f => e.\nr2: e => d.\nb: d => ~c.\nw: => c.\n"
        "u0: perm_w(u) => obl(~u).\nu1: perm_w(u) => g.\n"
        "s: c, g => obl(~q).\nx: => obl(q).\ns > x.\n"
    )
    arguments = build_arguments(theory)
    graph = compute_attacks(arguments, theory)
    ext = wp_extension(graph)
    assert changes(ext, 3, "rejected") == [
        ("A8", "attacker-supported", ["A10"]),
        ("A11", "attacker-supported", ["A10"]),
    ]
    assert changes(ext, 3, "justified") == [
        ("A2", "supported-and-defended", ["A8", "A11"]),
    ]
    assert_matches_reference(graph, "undercut")


def readings(arguments):
    """The attack graph under each reading of condition 1, and how many of its records
    witness an imaginary argument inside a natural target (only the generalized reading's)."""
    for generalized in (False, True):
        graph = compute_attacks(arguments, imaginary_subargument_attacks=generalized)
        lifted = sum(t < arguments.natural <= w for _, t, _, w in graph.rows)
        yield generalized, graph, lifted


def test_engine_trace_matches_the_reference_iteration_on_goldens(goldens):
    lifted = 0
    for name, prepared in goldens.items():
        for generalized, graph, found in readings(prepared.arguments):
            assert_matches_reference(graph, (name, generalized))
            lifted += found
    assert lifted > 0  # imaginary witnesses with attackers were read too


def test_engine_trace_matches_the_reference_iteration_on_the_corpora(
    conflict_corpus, no_superiority_corpus, oracle_corpus
):
    breaches = lifted = 0
    for corpus in (conflict_corpus, no_superiority_corpus, oracle_corpus):
        for case in corpus:
            for generalized, graph, found in readings(case.arguments):
                breaches += assert_matches_reference(graph, (case.seed, generalized))
                lifted += found
    assert breaches > 0  # the unguarded breach payloads were compared too
    assert lifted > 0


def test_engine_trace_matches_the_reference_iteration_on_chains_and_fans():
    rng = random.Random(2024)
    breaches = 0
    for n in range(60):
        text = random_chain(rng) if n % 2 == 0 else random_fan(rng)
        theory = parse_theory(text)
        arguments = build_arguments(theory)
        for generalized in (False, True):
            graph = compute_attacks(arguments, theory, imaginary_subargument_attacks=generalized)
            breaches += assert_matches_reference(graph, text)
    assert breaches > 0
