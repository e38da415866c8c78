#!/usr/bin/env python3
"""Re-run the seeded property corpora outside pytest and report statistics.

Three corpora mirror the acceptance suite:

* conflict corpus: injected empty-body obligation conflicts, no
  superiority; checks that conflicted literals never justify their weak
  permissions (grounded and stable) and that wp-conflicted literals keep
  both weak permissions in the fixed point;
* no-superiority corpus: free-form bodies without weak-permission
  premises; checks grounded inclusion in the wp-justified set;
* oracle corpus: free-form theories incl. superiority, capped at 15
  arguments; checks engine extensions against subset enumeration.

Every corpus also re-checks disjointness, conflict-freeness and
subargument closure of the fixed point, and compares the fixed point's
trace (or, with the update guards off, its invariant breach) with the
round-by-round ``testkit.reference_wp`` under both guard settings.  On
every case the stable core read from the per-part labellings
(``semantics._stable_core``) is compared with the intersection of the
enumerated stable extensions, and the grounded extension with that of
the complete ones.  Under both readings of condition 1, every case's
attack rows and suppressed rows are compared with the target-first
``testkit.reference_attacks``, and the graph's three indexes (the
attackers and targets of each argument and the natural witnesses each
argument attacks at) with scans of the rows.  Exit code 1 if any
property fails.

``--ladder`` runs the polynomial oracles at ladder scale instead of the
corpora, on rungs of ``scripts/ladder.py``.  On conflicts-12, chain-160,
fan-9 and gen-3 it compares ``testkit.reference_grounded`` (Dung's
characteristic function iterated over the attacking pairs) with
``grounded_extension``, and ``testkit.reference_wp`` with
``wp_extension`` under both guard settings (the justified and rejected
sets and the ``trace_section`` rows, or the same invariant breach).  On
fan-6 and gen-3 it compares the argument table with
``testkit.reference_arguments`` (the decoded arguments, and every
subargument closure both as ``sub_ids`` walks it and as the
children-first pass of the outputs builds it).  It also compares the two
grounded extensions on 200 seeded theories with superiority pairs, under
both readings: their shape, an argument with several grounded attackers,
is one no rung has.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from dataclasses import dataclass

from deonarg import (
    ArgumentSet,
    AttackGraph,
    Theory,
    build_arguments,
    complete_extensions,
    compute_attacks,
    FixpointInvariantError,
    evaluate,
    grounded_extension,
    is_conflict_free,
    parse_theory,
    stable_extensions,
    wp_extension,
)
from deonarg.analysis import conflicted_literals, wp_conflicted_literals
from deonarg.schema import trace_section
from deonarg.semantics import _stable_core
from deonarg.testkit import (
    GeneratorParams,
    brute_force_extensions,
    generate_theory,
    reference_arguments,
    reference_attacks,
    reference_grounded,
    reference_wp,
)
from ladder import RUNGS

ARGUMENT_CAP = 15


@dataclass(frozen=True)
class CorpusCase:
    seed: int
    theory: Theory
    arguments: ArgumentSet
    graph: AttackGraph


def build_corpus(make_params, *, count: int, cap: int | None = ARGUMENT_CAP):
    """Deterministic seed iteration from zero, filtered by argument count only."""
    cases: list[CorpusCase] = []
    seed = 0
    while len(cases) < count:
        theory = generate_theory(make_params(seed))
        arguments = build_arguments(theory)
        if cap is None or len(arguments) <= cap:
            cases.append(CorpusCase(seed, theory, arguments, compute_attacks(arguments, theory)))
        seed += 1
    return tuple(cases)


def conflict_params(seed: int) -> GeneratorParams:
    """Guaranteed-conflictual regime: an injected empty-body obligation pair."""
    return GeneratorParams(
        seed=seed,
        atom_count=3,
        rule_count=4,
        empty_obligation_bodies=True,
        acyclic=True,
        inject_conflict=True,
    )


def no_superiority_params(seed: int) -> GeneratorParams:
    """Free-form rule bodies except weak permissions; no superiority pairs."""
    return GeneratorParams(seed=seed, weak_permission_body_weight=0.0)


def oracle_params(seed: int) -> GeneratorParams:
    """Free-form regime for oracle comparison, superiority included."""
    return GeneratorParams(
        seed=seed,
        atom_count=3,
        rule_count=4,
        inject_conflict=True,
        superiority_count=2,
        acyclic=(seed % 2 == 0),
    )


def superiority_params(seed: int) -> GeneratorParams:
    """Wider theories with superiority pairs, where some argument has several grounded
    attackers and a target with another attacker: dropping ``grounded_extension``'s ``out``
    guard counts that argument out more than once and changes the extension on some of
    these theories, and on no ladder rung."""
    return GeneratorParams(seed=seed, atom_count=8, fact_count=4, rule_count=20,
                           inject_conflict=True, superiority_count=3, max_body_len=2)


def imaginary_for(arguments, literal):
    from deonarg import perm_w

    (identifier,) = (
        i for i in arguments.concluders(perm_w(literal)) if arguments.kind(i) == "imaginary"
    )
    return identifier


def wp_outcome(run, graph, guards: bool):
    """The ``trace_section`` rows and sets of a fixed point, or the payload of its breach."""
    try:
        ext = run(graph, fixpoint_guards=guards)
    except FixpointInvariantError as error:
        return ("breach", error.step, error.kind, error.members)
    return ("fixed point", trace_section(ext), ext.justified, ext.rejected)


def factorised_cores(case, failures: list[str]) -> None:
    """The cores read without the product equal the enumerated intersections."""
    limit = len(case.arguments)
    complete = complete_extensions(case.graph, argument_limit=limit)
    if grounded_extension(case.graph) != frozenset.intersection(*complete):
        failures.append(f"seed {case.seed}: grounded differs from the complete intersection")
    stable = stable_extensions(case.graph, argument_limit=limit)
    expected = frozenset.intersection(*stable) if stable else None
    if _stable_core(case.graph, limit) != expected:
        failures.append(f"seed {case.seed}: factorised stable core differs from the intersection")


def attack_tables(case, failures: list[str]) -> None:
    """Both readings' rows equal the target-first reference, and the indexes scans of the rows."""
    arguments = case.arguments
    index, size = arguments.index, len(arguments)
    for generalized in (False, True):
        graph = compute_attacks(arguments, imaginary_subargument_attacks=generalized)
        reading = f"generalized {generalized}"
        edges, suppressed = reference_attacks(arguments, imaginary_subargument_attacks=generalized)
        for name, rows, expected in (("rows", graph.rows, edges),
                                     ("suppressed rows", graph.suppressed_rows, suppressed)):
            if list(rows) != [(index(a), index(t), c, index(w)) for a, t, c, w in expected]:
                failures.append(f"seed {case.seed}: attack {name} differ from reference_attacks "
                                f"({reading})")
        scans: dict[str, list[set[int]]] = {
            name: [set() for _ in range(size)] for name in ("_attackers", "_targets", "_witnesses")
        }
        for a, t, _, w in graph.rows:
            scans["_attackers"][t].add(a)
            scans["_targets"][a].add(t)
            if arguments.rows[w][0] != "imaginary":
                scans["_witnesses"][a].add(w)
        for name, scan in scans.items():
            if getattr(graph, name) != tuple(tuple(sorted(found)) for found in scan):
                failures.append(f"seed {case.seed}: {name} differs from a scan of the rows ({reading})")


def shared_invariants(case, failures: list[str]) -> None:
    attack_tables(case, failures)
    factorised_cores(case, failures)
    for guards in (True, False):
        if wp_outcome(wp_extension, case.graph, guards) != wp_outcome(
            reference_wp, case.graph, guards
        ):
            failures.append(f"seed {case.seed}: wp trace differs from reference_wp (guards {guards})")
    ext = wp_extension(case.graph)
    if not ext.justified.isdisjoint(ext.rejected):
        failures.append(f"seed {case.seed}: justified/rejected overlap")
    if not is_conflict_free(case.graph, ext.justified):
        failures.append(f"seed {case.seed}: justified set not conflict-free")
    for identifier in ext.justified:
        if not set(case.arguments.sub_ids(identifier)) <= ext.justified:
            failures.append(f"seed {case.seed}: {identifier} justified without its subarguments")


def run_conflict_corpus(count: int) -> list[str]:
    failures: list[str] = []
    stats: Counter[str] = Counter()
    corpus = build_corpus(conflict_params, count=count)
    for case in corpus:
        shared_invariants(case, failures)
        conflicted = conflicted_literals(case.arguments)
        stats["conflicted literals"] += len(conflicted)
        justified_sets = [evaluate(case.graph, "grounded").justified]
        stable = evaluate(case.graph, "stable")
        if stable.no_extensions:
            stats["no stable extension"] += 1
        else:
            justified_sets.append(stable.justified)
        for literal in conflicted:
            for polarity in (literal, literal.negated):
                weak = imaginary_for(case.arguments, polarity)
                if any(weak in justified for justified in justified_sets):
                    failures.append(f"seed {case.seed}: perm_w({polarity}) justified despite conflict")
        ext = wp_extension(case.graph)
        for literal in wp_conflicted_literals(case.arguments, ext):
            stats["wp-conflicted literals"] += 1
            for polarity in (literal, literal.negated):
                if imaginary_for(case.arguments, polarity) not in ext.justified:
                    failures.append(f"seed {case.seed}: perm_w({polarity}) lost in the fixed point")
    print(f"  {len(corpus)} theories, {stats['conflicted literals']} conflicted literals, "
          f"{stats['wp-conflicted literals']} wp-conflicted, "
          f"{stats['no stable extension']} without stable extensions")
    return failures


def run_no_superiority_corpus(count: int) -> list[str]:
    failures: list[str] = []
    included = 0
    corpus = build_corpus(no_superiority_params, count=count, cap=None)
    for case in corpus:
        shared_invariants(case, failures)
        grounded = grounded_extension(case.graph)
        ext = wp_extension(case.graph)
        if grounded <= ext.justified:
            included += 1
        else:
            failures.append(f"seed {case.seed}: grounded not within wp-justified")
    print(f"  {len(corpus)} theories, grounded included in wp-justified on {included}")
    return failures


def run_oracle_corpus(count: int) -> list[str]:
    failures: list[str] = []
    corpus = build_corpus(oracle_params, count=count)
    for case in corpus:
        shared_invariants(case, failures)
        oracle = brute_force_extensions(case.graph)
        if grounded_extension(case.graph) != oracle.grounded:
            failures.append(f"seed {case.seed}: grounded disagrees with the oracle")
        for semantics, expected in (("complete", oracle.complete), ("stable", oracle.stable)):
            found = evaluate(case.graph, semantics).extensions
            if len(found) != len(expected) or set(found) != set(expected):
                failures.append(f"seed {case.seed}: {semantics} extensions disagree with the oracle")
    print(f"  {len(corpus)} theories checked against subset enumeration")
    return failures


def run_ladder_semantics(name: str) -> list[str]:
    failures: list[str] = []
    graph = compute_attacks(build_arguments(parse_theory(RUNGS[name][0]())))
    grounded = grounded_extension(graph)
    if grounded != reference_grounded(graph):
        failures.append(f"{name}: grounded differs from reference_grounded")
    print(f"  grounded: {len(grounded)} of {len(graph.arguments)} arguments")
    for guards in (True, False):
        found, expected = (wp_outcome(run, graph, guards) for run in (wp_extension, reference_wp))
        if found != expected:
            failures.append(f"{name}: wp differs from reference_wp (guards {guards})")
        print(f"  guards {guards}: {found[0]}" + (f" ({found[2]})" if found[0] == "breach" else ""))
    return failures


def run_grounded_corpus(count: int) -> list[str]:
    failures: list[str] = []
    corpus = build_corpus(superiority_params, count=count, cap=None)
    for case in corpus:
        for generalized in (False, True):
            graph = compute_attacks(case.arguments, imaginary_subargument_attacks=generalized)
            if grounded_extension(graph) != reference_grounded(graph):
                failures.append(f"seed {case.seed}: grounded differs from reference_grounded "
                                f"(generalized {generalized})")
    print(f"  {len(corpus)} theories, both readings")
    return failures


def run_ladder_arguments(name: str) -> list[str]:
    failures: list[str] = []
    theory = parse_theory(RUNGS[name][0]())
    arguments = build_arguments(theory)
    ordered, closures = reference_arguments(theory)
    if arguments.ordered != ordered:
        failures.append(f"{name}: the arguments differ from reference_arguments")
    if {identifier: arguments.sub_ids(identifier) for identifier in arguments.ids} != closures:
        failures.append(f"{name}: sub_ids differs from the reference closures")
    if dict(zip(arguments.ids, map(tuple, arguments._closures()))) != closures:
        failures.append(f"{name}: the closures of the outputs differ from the reference ones")
    print(f"  {len(arguments)} arguments")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200, help="instances per corpus")
    parser.add_argument("--ladder", action="store_true",
                        help="run the polynomial oracles on ladder rungs instead of the corpora")
    options = parser.parse_args(argv)

    if options.ladder:
        runs = [(f"{name} grounded and wp", run_ladder_semantics, name)
                for name in ("conflicts-12", "chain-160", "fan-9", "gen-3")]
        runs += [(f"{name} arguments", run_ladder_arguments, name) for name in ("fan-6", "gen-3")]
        runs += [("superiority corpus grounded", run_grounded_corpus, 200)]
    else:
        runs = [("conflict corpus", run_conflict_corpus, options.count),
                ("no-superiority corpus", run_no_superiority_corpus, options.count),
                ("oracle corpus", run_oracle_corpus, options.count)]
    failures: list[str] = []
    for name, runner, argument in runs:
        print(f"{name}:")
        started = time.perf_counter()
        failures += runner(argument)
        print(f"  done in {time.perf_counter() - started:.2f}s")

    if failures:
        print(f"\n{len(failures)} failure(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nall properties hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
