"""``verify_theorems`` on the attack graph its caller already built.

The graph form checks the graph as it was built, so on every theory and
under every option it reports what the theory form reports after building
the same graph itself.
"""

from __future__ import annotations

import pytest

from deonarg import build_arguments, compute_attacks, verify_theorems
from deonarg.semantics import DEFAULT_ARGUMENT_LIMIT


def test_checking_the_graph_reports_what_checking_the_theory_does(
    goldens, conflict_corpus, no_superiority_corpus, oracle_corpus
):
    theories = [prepared.theory for prepared in goldens.values()]
    theories += [case.theory for corpus in (conflict_corpus, no_superiority_corpus,
                                            oracle_corpus) for case in corpus]
    seen = set()
    for theory in theories:
        arguments = build_arguments(theory)
        for generalized in (False, True):
            graph = compute_attacks(arguments, imaginary_subargument_attacks=generalized)
            for guards in (True, False):
                for limit in (DEFAULT_ARGUMENT_LIMIT, 3):
                    options = {"argument_limit": limit, "fixpoint_guards": guards}
                    report = verify_theorems(
                        theory, imaginary_subargument_attacks=generalized, **options
                    )
                    assert verify_theorems(graph, **options) == report
                    if generalized:
                        assert verify_theorems(graph, imaginary_subargument_attacks=True,
                                               **options) == report
                    seen.update((result.name, result.status) for result in report.results)
    # every way a check can end is reached
    assert {status for _, status in seen} == {"pass", "fail", "skipped"}
    assert ("wp-sets-disjoint-and-conflict-free", "fail") in seen
    assert ("conflicted-weak-permissions-not-stable", "skipped") in seen


def test_the_generalized_reading_of_a_plain_graph_is_refused(chained):
    assert not chained.graph.generalized
    with pytest.raises(ValueError, match="imaginary_subargument_attacks"):
        verify_theorems(chained.graph, imaginary_subargument_attacks=True)
