"""Metamorphic property: an order-preserving renaming and a reversed source.

Putting one token in front of every atom and rule label keeps every sort
order the engine reads (the same prefix on every identifier), and the
order of the rules in the source text is not part of a theory.  So the
variant must number, connect and settle its arguments exactly as the
original does: the same argument ids, kinds and children, the same
attack rows as ids, the same wp trace, the same grounded extension and
complete and stable extension lists (ids, in order), and the renamed
conclusions and top rules.  The tall and wide ladder rungs reach the construction's rank
and universe paths at sizes the oracle corpus does not.

A second relation adds a rule over a fresh atom, which no attack joins to the
rest: every old argument keeps its grounded and wp status under both readings.
The ids may shift, so arguments are matched as decoded ``Argument`` objects.
A third joins a theory with its renamed copy: no attack crosses the two, so
the union's complete and stable extensions are the pairs of theirs (the counts
square), every argument keeps its counterpart's statuses, and without
superiority pairs the stable core is the two cores together.
"""

from __future__ import annotations

import math
import re

from deonarg import (
    build_arguments,
    complete_extensions,
    compute_attacks,
    grounded_extension,
    parse_theory,
    serialize_theory,
    stable_extensions,
    wp_extension,
)
from deonarg.schema import arguments_section, attacks_section, trace_section
from deonarg.semantics import _factorise, _stable_core
from deonarg.testkit import GeneratorParams, generate_theory

TOKEN = "Tmq_"
_KEYWORDS = frozenset({"fact", "obl", "perm", "perm_w"})
_IDENTIFIER = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")


def renamed(text: str) -> str:
    """The text with ``TOKEN`` in front of every atom and rule label."""
    return _IDENTIFIER.sub(
        lambda m: m.group(0) if m.group(0) in _KEYWORDS else TOKEN + m.group(0), text
    )


def variant(text: str) -> str:
    """The renamed text with its statements in reverse order."""
    lines = renamed(text).splitlines()
    return "\n".join(reversed(lines)) + "\n"


def outputs(text: str, rename=lambda value: value) -> tuple:
    """Every output the property compares, with conclusions and rules passed through ``rename``."""
    theory = parse_theory(text)
    arguments = build_arguments(theory)
    graph = compute_attacks(arguments, theory)
    ids = arguments.ids
    children = [tuple(ids[child] for child in row[3]) for row in arguments.rows]
    listed = [
        (
            entry["id"],
            entry["kind"],
            children[n],
            entry["sub"],
            rename(entry["conclusion"]),
            None if entry["top_rule"] is None else rename(entry["top_rule"]),
        )
        for n, entry in enumerate(arguments_section(arguments))
    ]
    limit = len(arguments)
    extensions = (
        grounded_extension(graph),
        complete_extensions(graph, argument_limit=limit),
        stable_extensions(graph, argument_limit=limit),
    )
    return listed, attacks_section(graph), trace_section(wp_extension(graph)), extensions


def check(text: str) -> None:
    assert outputs(variant(text)) == outputs(text, renamed), text


def test_the_variant_reads_as_intended():
    text = "fact a_0.\nr2: a_0, perm_w(~b) => obl(c).\nr1: => perm(b).\nr2 > r1.\n"
    assert variant(text) == (
        "Tmq_r2 > Tmq_r1.\nTmq_r1: => perm(Tmq_b).\n"
        "Tmq_r2: Tmq_a_0, perm_w(~Tmq_b) => obl(Tmq_c).\nfact Tmq_a_0.\n"
    )


def test_renaming_and_reversing_the_goldens_and_the_corpora_changes_nothing(
    goldens, conflict_corpus, no_superiority_corpus, oracle_corpus
):
    for prepared in goldens.values():
        check(prepared.text)
    for corpus in (conflict_corpus, no_superiority_corpus, oracle_corpus):
        for case in corpus:
            check(serialize_theory(case.theory))


def test_renaming_and_reversing_generated_theories_changes_nothing():
    for seed in range(200):
        params = GeneratorParams(
            seed=seed,
            atom_count=4,
            fact_count=2,
            rule_count=6,
            acyclic=seed % 2 == 0,
            inject_conflict=seed % 3 != 0,
            superiority_count=seed % 3,
        )
        check(serialize_theory(generate_theory(params)))


def test_renaming_and_reversing_the_tall_and_wide_rungs_changes_nothing(ladder):
    for text in (ladder.chain(160), ladder.fan(6)):
        check(text)


FRESH_RULE = "zz: => obl(fresh).\n"


def statuses(text: str, generalized: bool) -> dict:
    """Each argument's grounded membership and wp membership of the justified and rejected sets."""
    arguments = build_arguments(parse_theory(text))
    graph = compute_attacks(arguments, imaginary_subargument_attacks=generalized)
    grounded, extension = grounded_extension(graph), wp_extension(graph)
    return {
        argument: (i in grounded, i in extension.justified, i in extension.rejected)
        for i, argument in arguments
    }


def test_a_rule_over_a_fresh_atom_leaves_every_old_status_unchanged(goldens, conflict_corpus):
    texts = [prepared.text for prepared in goldens.values()]
    texts += [serialize_theory(case.theory) for case in conflict_corpus]
    for text in texts:
        assert not re.search(r"\b(zz|fresh)\b", text)
        for generalized in (False, True):
            before = statuses(text, generalized)
            after = statuses(text + FRESH_RULE, generalized)
            # obl(fresh), perm(fresh) and the imaginary perm_w(fresh) and perm_w(~fresh)
            assert len(after) == len(before) + 4
            assert {argument: after[argument] for argument in before} == before, text


def counts(graph) -> tuple[int, int]:
    """The complete and stable extension counts, the product of the parts' labelling counts."""
    found = []
    for stable in (False, True):
        factors = _factorise(graph, len(graph.arguments), stable)
        live = [bin(alive).count("1") for _, alive in factors.choices] if factors else [0]
        found.append(math.prod(live))
    return found[0], found[1]


def joined(text: str, generalized: bool) -> tuple:
    """The statuses, extension counts and stable core (as ``Argument`` objects) of a theory."""
    arguments = build_arguments(parse_theory(text))
    graph = compute_attacks(arguments, imaginary_subargument_attacks=generalized)
    core = _stable_core(graph, len(arguments))
    core = None if core is None else {arguments.argument(i) for i in core}
    return statuses(text, generalized), counts(graph), core


def test_a_union_with_a_renamed_copy_squares_the_counts_and_keeps_each_status(
    goldens, conflict_corpus
):
    texts = [prepared.text for prepared in goldens.values()]
    texts += [serialize_theory(case.theory) for case in conflict_corpus]
    squared = cored = 0  # cases with more than one complete extension, and with a core
    for text in texts:
        assert TOKEN not in text
        copy = renamed(text)
        for generalized in (False, True):
            status, (complete, stable), core = joined(text, generalized)
            copied, copied_counts, copied_core = joined(copy, generalized)
            union, union_counts, union_core = joined(text + copy, generalized)
            assert copied_counts == (complete, stable)
            assert union_counts == (complete**2, stable**2), text
            assert union == {**status, **copied}, text
            if not parse_theory(text).superiority:
                assert union_core == (None if core is None else core | copied_core), text
                cored += core is not None
            squared += complete > 1
    assert squared and cored
