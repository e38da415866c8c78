"""Unit tests for conflict diagnostics, facultative status and the verifiers."""

from deonarg import (
    ConflictPair,
    DeonticOperator,
    FixpointInvariantError,
    build_arguments,
    compute_attacks,
    conflict_pairs,
    conflicted_literals,
    facultative_status,
    grounded_extension,
    justified_conclusions,
    lit,
    parse_theory,
    semantics,
    verify_theorems,
    wp_conflicted_literals,
    wp_extension,
)
from deonarg.corpus import BUILTIN_THEORIES
from deonarg.testkit import GeneratorParams, generate_theory


def literal_names(literals):
    return {str(l) for l in literals}


def wp_conclusions(prepared):
    ext = wp_extension(prepared.graph)
    return justified_conclusions(prepared.arguments, ext.justified)


# ---------------------------------------------------------------------------
# conflicted literals
# ---------------------------------------------------------------------------


def test_conflicted_literals_on_the_goldens(goldens):
    expected = {
        "two-obligations": {"a"},
        "chained-obligations": {"p", "q"},
        "support-undercut": set(),
        "facultative": {"a", "c"},
    }
    for name, prepared in goldens.items():
        found = conflicted_literals(prepared.arguments)
        assert literal_names(found) == expected[name], name


def test_conflicts_need_derivable_rule_bodies():
    # obl(~a)'s body atom has no argument, so the pair never fires
    theory = parse_theory("r1: => obl(a).\nr2: q => obl(~a).\n")
    assert conflicted_literals(build_arguments(theory)) == frozenset()


def test_wp_conflicts_require_wp_justified_bodies(chained):
    # obl(q) hangs off the rejected obl(p) derivation, so only p stays
    ext = wp_extension(chained.graph)
    found = wp_conflicted_literals(chained.arguments, ext)
    assert literal_names(found) == {"p"}


def test_wp_conflicts_exclude_pairs_adjudicated_by_superiority(facultative_priorities):
    ext = wp_extension(facultative_priorities.graph)
    found = wp_conflicted_literals(facultative_priorities.arguments, ext)
    assert literal_names(found) == {"a"}
    # without the n3 > n4 pair the c conflict is live again
    text = BUILTIN_THEORIES["facultative"].replace("n3 > n4.\n", "")
    theory = parse_theory(text)
    arguments = build_arguments(theory)
    ext = wp_extension(compute_attacks(arguments, theory))
    assert literal_names(wp_conflicted_literals(arguments, ext)) == {"a", "c"}


def test_conflict_report_pairs_carry_the_rule_labels(facultative_priorities):
    arguments = facultative_priorities.arguments
    justified = wp_extension(facultative_priorities.graph).justified
    plain = {(str(p.literal), p.supporting_rule, p.opposing_rule)
             for p in conflict_pairs(arguments)}
    assert plain == {("a", "n1", "n2"), ("c", "n3", "n4")}
    assert literal_names({p.literal for p in conflict_pairs(arguments, justified)}) == {"a"}


def _pairs_from_bodies(arguments, justified=None):
    """``conflict_pairs`` restated from the rule bodies: an obligation rule counts when each body
    element has a concluder (a justified one, given a justified set); given one, pairs ordered by
    a declared superiority drop."""
    theory, by_head = arguments.theory, {}
    for rule in theory.rules:
        if getattr(rule.head, "operator", None) is DeonticOperator.OBLIGATION and all(
            any(justified is None or found in justified for found in arguments.concluders(element))
            for element in rule.body
        ):
            by_head.setdefault(rule.head.literal, []).append(rule.label)
    pairs = [
        ConflictPair(literal, supporting, opposing)
        for literal, labels in by_head.items() if literal.positive
        for supporting in labels
        for opposing in by_head.get(literal.negated, ())
        if justified is None or not (theory.is_superior(supporting, opposing)
                                     or theory.is_superior(opposing, supporting))
    ]
    pairs.sort(key=lambda pair: (pair.literal.sort_key(), pair.supporting_rule, pair.opposing_rule))
    return tuple(pairs)


def test_a_rule_applies_when_each_body_element_has_a_concluder():
    # the table's reading (one of the rule's own application rows, with justified children given
    # a wp extension's justified set) agrees with the bodies' on seeded theories, cyclic and not,
    # with superiority pairs, under both attack readings and with the guards on and off
    counts = {"pairs": 0, "dropped by the justified set": 0}
    for seed in range(300):
        params = GeneratorParams(seed=seed, atom_count=4, rule_count=7, obligation_head_bias=0.5,
                                 acyclic=seed % 2 == 0, inject_conflict=seed % 3 == 0,
                                 superiority_count=seed % 3)
        arguments = build_arguments(generate_theory(params))
        plain = _pairs_from_bodies(arguments)
        assert conflict_pairs(arguments) == plain, seed
        counts["pairs"] += len(plain)
        for generalized in (False, True):
            graph = compute_attacks(arguments, imaginary_subargument_attacks=generalized)
            for guards in (True, False):
                try:
                    justified = wp_extension(graph, fixpoint_guards=guards).justified
                except FixpointInvariantError:
                    continue
                expected = _pairs_from_bodies(arguments, justified)
                assert conflict_pairs(arguments, justified) == expected, (seed, generalized, guards)
                counts["dropped by the justified set"] += len(plain) > len(expected)
    assert counts["pairs"] >= 200 and counts["dropped by the justified set"] >= 50, counts


# ---------------------------------------------------------------------------
# facultative status
# ---------------------------------------------------------------------------


def test_adjacent_permissions_make_a_literal_weakly_facultative(facultative_priorities):
    conclusions = wp_conclusions(facultative_priorities)
    assert facultative_status(lit("a"), conclusions) == "weakly-facultative"


def test_one_sided_permissions_are_not_facultative(facultative_priorities):
    conclusions = wp_conclusions(facultative_priorities)
    # obl(c) won: perm(~c) and perm_w(~c) both fell with the n4 derivation
    assert facultative_status(lit("c"), conclusions) == "neither"


def test_unopposed_atoms_keep_both_weak_permissions(facultative_priorities):
    conclusions = wp_conclusions(facultative_priorities)
    assert facultative_status(lit("f"), conclusions) == "weakly-facultative"


def test_grounded_conclusions_of_a_conflict_support_no_facultative_reading(
    facultative_priorities,
):
    from deonarg import evaluate

    grounded = evaluate(facultative_priorities.graph, "grounded")
    conclusions = justified_conclusions(facultative_priorities.arguments, grounded.justified)
    assert facultative_status(lit("a"), conclusions) == "neither"


def test_both_strong_permissions_make_a_literal_facultative_over_the_weak_reading():
    theory = parse_theory("r1: => perm(a).\nr2: => perm(~a).\n")
    arguments = build_arguments(theory)
    graph = compute_attacks(arguments, theory)
    for justified in (grounded_extension(graph), wp_extension(graph).justified):
        conclusions = justified_conclusions(arguments, justified)
        # the weak reading holds as well, and the strong one takes precedence
        assert {"perm(a)", "perm(~a)", "perm_w(a)", "perm_w(~a)"} <= literal_names(conclusions)
        assert facultative_status(lit("a"), conclusions) == "facultative"


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

CHECK_NAMES = (
    "conflicted-weak-permissions-not-grounded",
    "conflicted-weak-permissions-not-stable",
    "wp-sets-disjoint-and-conflict-free",
    "wp-conflicts-recover-weak-permissions",
    "grounded-subset-of-wp-justified",
    "wp-justified-subargument-closure",
)


def statuses(report):
    return {r.name: r.status for r in report.results}


def test_all_checks_pass_on_the_superiority_free_goldens(chained, two_obligations):
    for prepared in (chained, two_obligations):
        report = verify_theorems(prepared.theory)
        assert not report.failed
        assert statuses(report) == {name: "pass" for name in CHECK_NAMES}


def test_superiority_narrows_check_scope_without_failing(facultative_priorities):
    report = verify_theorems(facultative_priorities.theory)
    assert not report.failed
    assert statuses(report) == {
        "conflicted-weak-permissions-not-grounded": "skipped",
        "conflicted-weak-permissions-not-stable": "skipped",
        "wp-sets-disjoint-and-conflict-free": "pass",
        "wp-conflicts-recover-weak-permissions": "pass",
        "grounded-subset-of-wp-justified": "skipped",
        "wp-justified-subargument-closure": "pass",
    }


def test_grounded_inclusion_check_reports_weak_permission_premise_counterexamples():
    # the s derivation rests on perm_w(p); grounded keeps it, the fixed
    # point rejects it once obl(~p) lands
    report = verify_theorems(parse_theory("r1: => obl(~p).\nr2: perm_w(p) => s.\n"))
    assert report.failed
    failing = {r.name: r.detail for r in report.results if r.status == "fail"}
    assert failing == {"grounded-subset-of-wp-justified": "grounded but not wp-justified: A1"}


def test_self_undermining_conflicts_defeat_recovery_and_stable_exclusion():
    report = verify_theorems(parse_theory("r1: => obl(p).\nr2: obl(p) => obl(~p).\n"))
    failing = {r.name for r in report.results if r.status == "fail"}
    assert failing == {
        "conflicted-weak-permissions-not-stable",
        "wp-conflicts-recover-weak-permissions",
    }


def test_unadjudicated_depth_mixed_conflicts_fail_recovery():
    text = BUILTIN_THEORIES["facultative"].replace("n3 > n4.\n", "")
    report = verify_theorems(parse_theory(text))
    failing = {r.name: r.detail for r in report.results if r.status == "fail"}
    assert failing == {
        "wp-conflicts-recover-weak-permissions": (
            "weak permission not justified despite a fully justified conflict: c (I3)"
        )
    }


def test_disabled_guards_surface_as_a_disjointness_failure(chained):
    report = verify_theorems(chained.theory, fixpoint_guards=False)
    assert report.failed
    by_name = {r.name: r for r in report.results}
    breached = by_name["wp-sets-disjoint-and-conflict-free"]
    assert breached.status == "fail"
    assert "overlap involving A1, A2" in breached.detail
    for name in (
        "wp-conflicts-recover-weak-permissions",
        "grounded-subset-of-wp-justified",
        "wp-justified-subargument-closure",
    ):
        assert by_name[name].status == "skipped"
        assert "unavailable" in by_name[name].detail


def test_argument_limit_skips_only_the_stable_check(chained):
    report = verify_theorems(chained.theory, argument_limit=3)
    assert not report.failed
    by_name = statuses(report)
    assert by_name["conflicted-weak-permissions-not-stable"] == "skipped"
    assert by_name["conflicted-weak-permissions-not-grounded"] == "pass"


def test_stable_check_reads_the_core_without_listing_the_extensions(monkeypatch):
    # 24 independent obl(p_i) / obl(~p_i) conflicts: 144 arguments and
    # 2**24 stable extensions, far too many to list
    text = "".join(f"c{i}: => obl(p{i}).\nd{i}: => obl(~p{i}).\n" for i in range(24))

    def unlisted(*args):
        raise AssertionError("the stable check built the product of the parts")

    monkeypatch.setattr(semantics, "_product", unlisted)
    report = verify_theorems(parse_theory(text), argument_limit=1000)
    by_name = statuses(report)
    assert by_name["conflicted-weak-permissions-not-stable"] == "pass"
    assert not report.failed
