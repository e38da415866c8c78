"""Acceptance suite: end-to-end guarantees the package ships with.

Golden expectations are frozen values; corpus-wide properties run over the seeded
random corpora from conftest (deterministic seeds, filtered by argument
count only).
"""

import time

from deonarg import (
    build_arguments,
    compute_attacks,
    evaluate,
    justified_conclusions,
    parse_theory,
    serialize_theory,
    wp_extension,
)
from deonarg.analysis import conflicted_literals, wp_conflicted_literals
from deonarg.corpus import BUILTIN_THEORIES
from deonarg.schema import trace_section
from deonarg.semantics import grounded_extension, is_conflict_free
from deonarg.testkit import (
    GeneratorParams,
    generate_theory,
    reference_graph,
    supported_by,
    undercut_by,
)


def conclusion_names(arguments, justified):
    return {str(c) for c in justified_conclusions(arguments, justified)}


def imaginary_for(arguments, literal):
    """Id of the imaginary weak-permission argument for a literal."""
    from deonarg import perm_w

    (identifier,) = (
        i for i in arguments.concluders(perm_w(literal)) if arguments.kind(i) == "imaginary"
    )
    return identifier


# ---------------------------------------------------------------------------
# mutual obligation conflict: extensions
# ---------------------------------------------------------------------------


def test_mutual_obligation_conflict_has_empty_grounded_and_two_stable_extensions():
    started = time.perf_counter()
    theory = parse_theory(BUILTIN_THEORIES["two-obligations"])
    arguments = build_arguments(theory)
    graph = compute_attacks(arguments, theory)

    grounded = evaluate(graph, "grounded")
    assert grounded.extensions == (frozenset(),)

    stable = evaluate(graph, "stable")
    assert [sorted(e) for e in stable.extensions] == [
        ["A0", "A2", "I1"],
        ["A1", "A3", "I2"],
    ]

    for result in (grounded, stable):
        names = conclusion_names(arguments, result.justified)
        assert "perm_w(a)" not in names
        assert "perm_w(~a)" not in names
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# chained theory: full argument and attack tables
# ---------------------------------------------------------------------------


def test_chained_theory_builds_the_exact_argument_and_attack_tables():
    started = time.perf_counter()
    theory = parse_theory(BUILTIN_THEORIES["chained-obligations"])
    arguments = build_arguments(theory)
    graph = compute_attacks(arguments, theory)

    listing = {
        i: (str(a.conclusion), list(arguments.sub_ids(i))) for i, a in arguments
    }
    assert listing == {
        "A0": ("a", ["A0"]),
        "A1": ("obl(p)", ["A1"]),
        "A2": ("obl(~p)", ["A2"]),
        "A3": ("obl(~q)", ["A3"]),
        "A4": ("obl(q)", ["A1", "A4"]),
        "A5": ("s", ["A0", "A5", "I3"]),
        "A6": ("perm(p)", ["A1", "A6"]),
        "A7": ("perm(~p)", ["A2", "A7"]),
        "A8": ("perm(~q)", ["A3", "A8"]),
        "A9": ("perm(q)", ["A1", "A4", "A9"]),
        "A10": ("t", ["A1", "A4", "A9", "A10"]),
        "I1": ("perm_w(a)", ["I1"]),
        "I2": ("perm_w(~a)", ["I2"]),
        "I3": ("perm_w(p)", ["I3"]),
        "I4": ("perm_w(~p)", ["I4"]),
        "I5": ("perm_w(q)", ["I5"]),
        "I6": ("perm_w(~q)", ["I6"]),
        "I7": ("perm_w(s)", ["I7"]),
        "I8": ("perm_w(~s)", ["I8"]),
        "I9": ("perm_w(t)", ["I9"]),
        "I10": ("perm_w(~t)", ["I10"]),
    }

    ids = graph.arguments.ids
    table = {(ids[a], ids[t], c, ids[w]) for a, t, c, w in graph.rows}
    assert table == {
        ("A1", "A2", 3, "A2"),
        ("A1", "A7", 3, "A2"),
        ("A1", "A7", 3, "A7"),
        ("A1", "I4", 1, "I4"),
        ("A2", "A1", 3, "A1"),
        ("A2", "A4", 3, "A1"),
        ("A2", "A6", 3, "A1"),
        ("A2", "A6", 3, "A6"),
        ("A2", "A9", 3, "A1"),
        ("A2", "A10", 3, "A1"),
        ("A2", "I3", 1, "I3"),
        ("A3", "A4", 3, "A4"),
        ("A3", "A9", 3, "A4"),
        ("A3", "A9", 3, "A9"),
        ("A3", "A10", 3, "A4"),
        ("A3", "A10", 3, "A9"),
        ("A3", "I5", 1, "I5"),
        ("A4", "A3", 3, "A3"),
        ("A4", "A8", 3, "A3"),
        ("A4", "A8", 3, "A8"),
        ("A4", "I6", 1, "I6"),
        ("A6", "A2", 4, "A2"),
        ("A6", "A7", 4, "A2"),
        ("A7", "A1", 4, "A1"),
        ("A7", "A4", 4, "A1"),
        ("A7", "A6", 4, "A1"),
        ("A7", "A9", 4, "A1"),
        ("A7", "A10", 4, "A1"),
        ("A8", "A4", 4, "A4"),
        ("A8", "A9", 4, "A4"),
        ("A8", "A10", 4, "A4"),
        ("A9", "A3", 4, "A3"),
        ("A9", "A8", 4, "A3"),
    }
    assert graph.suppressed_rows == ()
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# chained theory: fixed-point trace, step by step
# ---------------------------------------------------------------------------


def test_fixed_point_trace_reaches_the_known_sets_iteration_by_iteration(chained):
    ext = wp_extension(chained.graph)
    # imaginary arguments with no incident attack are compared separately
    involved = {argument for pair in chained.graph.pairs for argument in pair}
    uninvolved = set(chained.arguments.imaginary_ids()) - involved
    assert uninvolved == {"I1", "I2", "I7", "I8", "I9", "I10"}

    assert ext.iterations == 3
    # the sets after step k, at k: the union of the changes up to it
    justified, rejected = [set()], [set()]
    for step in trace_section(ext):
        justified.append(justified[-1] | {c["argument"] for c in step["justified"]})
        rejected.append(rejected[-1] | {c["argument"] for c in step["rejected"]})
    assert justified[1] - uninvolved == {"A0", "A3"}
    assert uninvolved <= justified[1]
    assert rejected[1] == {"A1", "A2", "A4", "A6", "A7", "A9", "A10"}

    assert justified[2] - uninvolved == {"A0", "A3", "A8", "I3", "I4", "I6"}
    assert rejected[2] == rejected[1] | {"I5"}

    assert justified[3] - uninvolved == {"A0", "A3", "A8", "I3", "I4", "I6", "A5"}
    assert rejected[3] == rejected[2]

    assert ext.justified == justified[3]
    assert ext.rejected == rejected[3]


# ---------------------------------------------------------------------------
# chained theory: wp-justified conclusions
# ---------------------------------------------------------------------------


def test_chained_theory_wp_justified_conclusions_are_exact(chained):
    ext = wp_extension(chained.graph)
    names = conclusion_names(chained.arguments, ext.justified)
    unopposed = {
        "perm_w(a)", "perm_w(~a)", "perm_w(s)", "perm_w(~s)", "perm_w(t)", "perm_w(~t)",
    }
    assert unopposed <= names
    assert names - unopposed == {
        "a", "obl(~q)", "perm(~q)", "s", "perm_w(p)", "perm_w(~p)", "perm_w(~q)",
    }


# ---------------------------------------------------------------------------
# superiority adjudication
# ---------------------------------------------------------------------------


def test_superiority_adjudication_keeps_weak_permissions_and_the_winning_obligation(
    facultative_priorities,
):
    ext = wp_extension(facultative_priorities.graph)
    names = conclusion_names(facultative_priorities.arguments, ext.justified)
    assert {"perm_w(a)", "perm_w(~a)", "obl(c)"} <= names
    # the losing obligation's derivation lands in the rejected set
    from deonarg import lit, obl

    obl_not_c = facultative_priorities.arguments.concluders(obl(lit("~c")))
    assert set(obl_not_c) == {"A6"}
    assert "A6" in ext.rejected
    assert ext.justified == frozenset(
        {"A0", "A1", "A2", "A5", "A9",
         "I1", "I2", "I3", "I5", "I6", "I7", "I8", "I9", "I10"}
    )
    assert ext.rejected == frozenset({"A3", "A4", "A6", "A7", "A8", "A10", "I4"})


# ---------------------------------------------------------------------------
# support and undercut sets
# ---------------------------------------------------------------------------


def test_support_and_undercut_sets_match_the_frozen_values(support_undercut):
    arguments, graph = support_undercut.arguments, support_undercut.graph
    view = reference_graph(graph)
    imaginary = set(arguments.imaginary_ids())

    # the engine's closures agree with the reference support sets
    base = supported_by(view, frozenset())
    assert base == imaginary | {"A0", "A1"}
    grown = supported_by(view, frozenset({"A0"}))
    assert grown == imaginary | {"A0", "A1", "A2"}
    proper = {i: set(arguments.sub_ids(i)) - {i} for i in arguments.ids}
    for members, supported in ((set(), base), ({"A0"}, grown)):
        assert {i for i in arguments.ids if proper[i] <= members} == supported

    with_fact = undercut_by(view, frozenset({"A0"}))
    assert "A4" in with_fact
    assert "A3" not in with_fact  # its only premise is imaginary, never undercut
    # divergence note: under the witness-at-a-proper-subargument reading the
    # empty set undercuts only the derived permission, not the obligation
    # argument it rebuts directly
    assert undercut_by(view, frozenset()) == {"A5"}
    assert with_fact == {"A4", "A5"}


# ---------------------------------------------------------------------------
# conflicted literals exclude weak permissions (corpus)
# ---------------------------------------------------------------------------


def test_conflicted_literals_never_justify_weak_permissions_grounded_or_stable(
    conflict_corpus,
):
    started = time.perf_counter()
    checked = 0
    for case in conflict_corpus:
        conflicted = conflicted_literals(case.arguments)
        assert conflicted, f"seed {case.seed} lost its injected conflict"
        justified_sets = [evaluate(case.graph, "grounded").justified]
        stable = evaluate(case.graph, "stable")
        if not stable.no_extensions:
            justified_sets.append(stable.justified)
        for literal in conflicted:
            for polarity in (literal, literal.negated):
                weak = imaginary_for(case.arguments, polarity)
                for justified in justified_sets:
                    assert weak not in justified, (case.seed, str(polarity))
                    checked += 1
    assert checked >= 2 * len(conflict_corpus)
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# fixed-point invariants on every corpus
# ---------------------------------------------------------------------------


def test_fixed_point_sets_are_disjoint_and_conflict_free_everywhere(
    goldens, conflict_corpus, no_superiority_corpus, oracle_corpus
):
    everything = [(p.arguments, p.graph) for p in goldens.values()]
    everything += [
        (c.arguments, c.graph)
        for corpus in (conflict_corpus, no_superiority_corpus, oracle_corpus)
        for c in corpus
    ]
    for arguments, graph in everything:
        ext = wp_extension(graph)
        assert ext.justified.isdisjoint(ext.rejected)
        assert is_conflict_free(graph, ext.justified)


# ---------------------------------------------------------------------------
# wp-conflicts recover both weak permissions (corpus)
# ---------------------------------------------------------------------------


def test_wp_conflicted_literals_keep_both_weak_permissions(conflict_corpus):
    seen_conflicts = 0
    for case in conflict_corpus:
        ext = wp_extension(case.graph)
        for literal in wp_conflicted_literals(case.arguments, ext):
            seen_conflicts += 1
            for polarity in (literal, literal.negated):
                weak = imaginary_for(case.arguments, polarity)
                assert weak in ext.justified, (case.seed, str(polarity))
    # the corpus construction guarantees live conflicts, so the check ran
    assert seen_conflicts >= len(conflict_corpus)


# ---------------------------------------------------------------------------
# grounded inclusion without superiority (corpus)
# ---------------------------------------------------------------------------


def test_grounded_justified_arguments_are_wp_justified_without_superiority(
    no_superiority_corpus,
):
    for case in no_superiority_corpus:
        assert not case.theory.superiority
        grounded = grounded_extension(case.graph)
        ext = wp_extension(case.graph)
        assert grounded <= ext.justified, case.seed


# ---------------------------------------------------------------------------
# subargument closure of wp-justified sets
# ---------------------------------------------------------------------------


def test_wp_justified_sets_are_closed_under_subarguments(
    goldens, conflict_corpus, no_superiority_corpus, oracle_corpus
):
    everything = [(p.arguments, p.graph) for p in goldens.values()]
    everything += [
        (c.arguments, c.graph)
        for corpus in (conflict_corpus, no_superiority_corpus, oracle_corpus)
        for c in corpus
    ]
    for arguments, graph in everything:
        ext = wp_extension(graph)
        for identifier in ext.justified:
            assert set(arguments.sub_ids(identifier)) <= ext.justified


# ---------------------------------------------------------------------------
# parse / serialize round trip
# ---------------------------------------------------------------------------


def test_parse_serialize_round_trip_is_the_identity_on_goldens_and_500_generated():
    for text in BUILTIN_THEORIES.values():
        theory = parse_theory(text)
        assert parse_theory(serialize_theory(theory)) == theory
    for seed in range(500):
        params = GeneratorParams(
            seed=seed,
            superiority_count=seed % 3,
            inject_conflict=seed % 2 == 0,
            empty_obligation_bodies=seed % 5 == 0,
            acyclic=seed % 4 != 3,
        )
        theory = generate_theory(params)
        text = serialize_theory(theory)
        assert parse_theory(text) == theory
        assert serialize_theory(parse_theory(text)) == text
