"""``verify_theorems`` on the attack graph its caller already built.

The graph form checks the graph as it was built, under its own attack
reading.  The theory form builds the default-reading graph itself, so on
every theory and under every option the two report the same for it.
"""

from __future__ import annotations

import hashlib
import json

from deonarg import build_arguments, compute_attacks, parse_theory, verify_theorems
from deonarg.cli import main
from deonarg.semantics import DEFAULT_ARGUMENT_LIMIT

#: SHA-256 of each rung's report, ``[[name, status, detail], ...]`` as JSON, with the argument
#: limit raised to the argument count, by fixpoint guard setting
PINNED_REPORTS = {
    ("conflicts-4", True): "536939086faa4181b5fc9159f1185d9b1bdf633874e32bf106e543a932de18bc",
    ("conflicts-4", False): "1a85e8174916fb3c4370f01cf749d6488397e3f9383b922d013f8aef906db42f",
    ("chain-160", True): "2cd0ff3e843d5f33ce0cc05a2d520a1a2aff1c5178fdcda561decea1c5892c89",
    ("chain-160", False): "5b4e64e32dafcb57d93f45756435107f3ff8a0e3f9cdc64eca6601eec2672285",
    ("fan-6", True): "9962a2e354eabaeb7dacfd5899df0456517c6cdd8c61ef4146102454d9c602d9",
    ("fan-6", False): "9962a2e354eabaeb7dacfd5899df0456517c6cdd8c61ef4146102454d9c602d9",
    ("gen-3", True): "0e1dbb3e717af28535dfab44c60d7b3e172b1b59728f39d2454d74273a204cfc",
    ("gen-3", False): "6480173d65c6dc3f0b61e4155f3c675494cf32080eab070892ae124af9a39a2e",
}


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
                    report = verify_theorems(graph, **options)
                    if not generalized:
                        assert verify_theorems(theory, **options) == report
                    seen.update((result.name, result.status) for result in report.results)
    # every way a check can end is reached
    assert {status for _, status in seen} == {"pass", "fail", "skipped"}
    assert ("wp-sets-disjoint-and-conflict-free", "fail") in seen
    assert ("conflicted-weak-permissions-not-stable", "skipped") in seen


def test_the_rung_reports_are_the_pinned_ones(ladder):
    for name in ("conflicts-4", "chain-160", "fan-6", "gen-3"):
        graph = compute_attacks(build_arguments(parse_theory(ladder.RUNGS[name][0]())))
        for guards in (True, False):
            report = verify_theorems(graph, argument_limit=len(graph.arguments),
                                     fixpoint_guards=guards)
            shown = json.dumps([[r.name, r.status, r.detail] for r in report.results])
            assert hashlib.sha256(shown.encode()).hexdigest() == PINNED_REPORTS[name, guards]


def test_an_attack_free_graph_is_checked_without_a_conflict_scan(ladder, runner, monkeypatch):
    text = ladder.fan(6)
    graph = compute_attacks(build_arguments(parse_theory(text)))
    assert not graph.rows
    expected = verify_theorems(graph)

    def scanned(*args):
        raise AssertionError("the check scanned an attack-free graph for conflicts")

    monkeypatch.setattr("deonarg.semantics._clashing", scanned)
    monkeypatch.setattr("deonarg.analysis._clashing", scanned, raising=False)
    assert verify_theorems(graph) == expected
    assert not expected.failed
    result = runner.invoke(main, ["check", "-"], input=text)
    assert (result.exit_code, result.exception) == (0, None), result.output
