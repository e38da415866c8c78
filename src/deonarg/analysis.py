"""Theory-level diagnostics and structural self-checks.

Detects conflicting obligation rule pairs, classifies literals as
facultative or weakly facultative, and re-verifies the engine's
structural guarantees on a concrete theory.  A rule applies when the
argument table holds one of its own ``rule-application`` rows (given a
justified set, one whose children are all justified); ``conflict_pairs``
is the one place that asks.  The verifiers are production code surfaced
through the ``check`` command: they recompute each guarantee from first
principles instead of trusting the engine's internal invariants, mapping
the justified set to positions once and scanning no attack-free graph
for conflicts.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .arguments import ArgumentSet, build_arguments
from .attacks import AttackGraph, compute_attacks
from .model import (
    Conclusion,
    DeonticOperator,
    Literal,
    Record,
    Theory,
    complement,
    perm,
    perm_w,
)
from .semantics import (
    DEFAULT_ARGUMENT_LIMIT,
    ArgumentLimitExceeded,
    grounded_extension,
    _clashing,
    _stable_core,
)
from .wp import FixpointInvariantError, WpExtension, _members, wp_extension

# ---------------------------------------------------------------------------
# conflict detection
# ---------------------------------------------------------------------------


class ConflictPair(Record):
    """Two rules obliging a literal and its complement.

    ``literal`` is reported in positive polarity; ``supporting_rule``
    concludes the obligation of that literal and ``opposing_rule`` the
    obligation of its complement.
    """

    __slots__ = _fields = ("literal", "supporting_rule", "opposing_rule")


def conflict_pairs(
    arguments: ArgumentSet, justified: frozenset[str] | None = None
) -> tuple[ConflictPair, ...]:
    """Rule pairs obliging a literal both ways where both rules have an application; given a
    wp extension's justified set, applications with justified children, and
    superiority-adjudicated pairs drop."""
    theory, rows, decode = arguments.theory, arguments.rows, arguments.ids.__getitem__
    # the obligation rules with an application (a row of theirs concluding the head), by literal
    by_head: dict[Literal, list[str]] = {}
    for rule in theory.rules:
        head = rule.head
        if getattr(head, "operator", None) is DeonticOperator.OBLIGATION:
            for n in arguments._by_conclusion.get(head, ()):
                _, top, _, children = rows[n]
                if top.label == rule.label and (justified is None
                                                or justified.issuperset(map(decode, children))):
                    by_head.setdefault(head.literal, []).append(rule.label)
                    break
    pairs = [
        ConflictPair(head, supporting, opposing)
        for head, supporting_labels in by_head.items()
        if head.positive
        for supporting in supporting_labels
        for opposing in by_head.get(head.negated, ())
        if justified is None
        or not (theory.is_superior(supporting, opposing)
                or theory.is_superior(opposing, supporting))
    ]
    pairs.sort(key=lambda p: (p.literal.sort_key(), p.supporting_rule, p.opposing_rule))
    return tuple(pairs)


def conflicted_literals(arguments: ArgumentSet) -> frozenset[Literal]:
    """Literals obliged both ways by rules that both have an application."""
    return frozenset(pair.literal for pair in conflict_pairs(arguments))


def wp_conflicted_literals(arguments: ArgumentSet, extension: WpExtension) -> frozenset[Literal]:
    """Conflicted literals whose rules both have an application with justified children; a
    pair where one rule is declared superior to the other does not count: the priority
    adjudicates the conflict, so the two obligations never stand unresolved side by side."""
    return frozenset(pair.literal for pair in conflict_pairs(arguments, extension.justified))


# ---------------------------------------------------------------------------
# facultative classification
# ---------------------------------------------------------------------------


def facultative_status(literal: Literal, justified: Iterable[Conclusion]) -> str:
    """Classify a literal from the justified conclusions of a semantics.

    Facultative means both strong permissions (of the literal and its
    complement) are justified; weakly facultative means both weak
    permissions are.  The strong reading wins when both apply.  The status
    is ``"facultative"``, ``"weakly-facultative"`` or ``"neither"``.
    """
    conclusions = frozenset(justified)
    other = complement(literal)
    if perm(literal) in conclusions and perm(other) in conclusions:
        return "facultative"
    if perm_w(literal) in conclusions and perm_w(other) in conclusions:
        return "weakly-facultative"
    return "neither"


# ---------------------------------------------------------------------------
# structural verifiers
# ---------------------------------------------------------------------------


class CheckResult(Record):
    # status: "pass" | "fail" | "skipped"
    __slots__ = _fields = ("name", "status", "detail")


class CheckReport(Record):
    __slots__ = _fields = ("results",)

    @property
    def failed(self) -> bool:
        return any(result.status == "fail" for result in self.results)


def _imaginary_id(arguments: ArgumentSet, literal: Literal) -> str:
    found = arguments._by_conclusion.get(perm_w(literal), ())  # positions: the imaginary last
    if not found or found[-1] < arguments.natural:
        raise AssertionError(f"no imaginary argument for {literal}")
    return arguments.ids[found[-1]]


def _verdict(
    name: str, problems: Sequence[str], failure_prefix: str, success_detail: str
) -> CheckResult:
    """Fail listing the problems after the prefix, or pass with the detail."""
    if problems:
        return CheckResult(name, "fail", failure_prefix + ", ".join(problems))
    return CheckResult(name, "pass", success_detail)


#: the checks in the order they run: two on the extension-based semantics,
#: then four on the weak-permission fixed point
_EXCLUSION_CHECKS = (
    "conflicted-weak-permissions-not-grounded",
    "conflicted-weak-permissions-not-stable",
)
_WP_CHECKS = (
    "wp-sets-disjoint-and-conflict-free",
    "wp-conflicts-recover-weak-permissions",
    "grounded-subset-of-wp-justified",
    "wp-justified-subargument-closure",
)


def _weak_permission_exclusion(
    name: str, weak: dict[Literal, tuple[str, ...]], members: frozenset[str]
) -> CheckResult:
    """``weak`` maps each conflicted literal to the arguments concluding either weak permission."""
    offending = sorted(str(literal) for literal, found in weak.items()
                       if not members.isdisjoint(found))
    return _verdict(
        name,
        offending,
        "weak permission justified for conflicted literal(s): ",
        f"{len(weak)} conflicted literal(s), no justified weak permission",
    )


def verify_theorems(
    theory: Theory | AttackGraph,
    *,
    argument_limit: int = DEFAULT_ARGUMENT_LIMIT,
    fixpoint_guards: bool = True,
) -> CheckReport:
    """Re-verify every structural guarantee on one theory.

    Given a ``Theory``, its arguments and attack graph are built first,
    under the default attack reading.  Given the ``AttackGraph`` built
    from a theory, that graph is checked as it was built, under its own
    reading (``graph.generalized``).  Checks that hold only for
    restricted theory classes (no superiority pairs, or a stable extension
    that actually exists) are reported as skipped outside their scope
    rather than counted as failures.
    """
    graph = theory if isinstance(theory, AttackGraph) else compute_attacks(build_arguments(theory))
    arguments = graph.arguments
    theory = arguments.theory
    superiority_free = not theory.superiority
    grounded = grounded_extension(graph)

    # Conflicted weak permissions stay out of the grounded extension and
    # out of the sceptical stable core.
    not_grounded, not_stable = _EXCLUSION_CHECKS
    if not superiority_free:
        adjudicated = "superiority pairs adjudicate conflicts; out of scope"
        results = [CheckResult(name, "skipped", adjudicated) for name in _EXCLUSION_CHECKS]
    else:
        weak = {
            literal: arguments.concluders(perm_w(literal))
            + arguments.concluders(perm_w(complement(literal)))
            for literal in conflicted_literals(arguments)
        }
        results = [_weak_permission_exclusion(not_grounded, weak, grounded)]
        try:
            core = _stable_core(graph, argument_limit)
            vacuous = "no stable extensions; sceptical quantification is vacuous"
        except ArgumentLimitExceeded as error:
            core, vacuous = None, str(error)
        results.append(
            CheckResult(not_stable, "skipped", vacuous)
            if core is None
            else _weak_permission_exclusion(not_stable, weak, core)
        )

    disjoint, recover, subset, closure = _WP_CHECKS
    try:
        extension = wp_extension(graph, fixpoint_guards=fixpoint_guards)
    except FixpointInvariantError as error:
        results.append(CheckResult(disjoint, "fail", str(error)))
        unavailable = "weak-permission fixed point unavailable"
        results += [CheckResult(name, "skipped", unavailable) for name in _WP_CHECKS[1:]]
        return CheckReport(tuple(results))
    justified, rejected = extension.justified, extension.rejected
    held, rows = set(_members(extension.rows, 1)), arguments.rows  # the trace's positions

    # Justified and rejected sets are disjoint; justified set conflict-free (no attacks, no scan).
    overlap = sorted(justified & rejected, key=arguments.index)
    results.append(_verdict(
        disjoint,
        overlap or arguments._decode(sorted(graph.rows and _clashing(graph, held, held))),
        "overlapping arguments: " if overlap else "justified arguments attack each other: ",
        f"{len(justified)} justified, {len(rejected)} rejected, disjoint and conflict-free",
    ))

    # Unresolved conflicts with fully justified premises recover both weak permissions: a rule's
    # premises are fully justified when one of its applications has justified children, by the
    # closure the last check tests.
    backed = conflict_pairs(arguments, justified)
    offending = {
        f"{literal} ({identifier})"
        for pair in backed
        for literal in (pair.literal, complement(pair.literal))
        if (identifier := _imaginary_id(arguments, literal)) not in justified
    }
    results.append(_verdict(
        recover,
        sorted(offending),
        "weak permission not justified despite a fully justified conflict: ",
        f"{len(backed)} fully justified conflict pair(s)",
    ))

    # Grounded acceptance implies justification under the fixed point.
    if superiority_free:
        results.append(_verdict(
            subset,
            sorted(grounded - justified, key=arguments.index),
            "grounded but not wp-justified: ",
            f"{len(grounded)} grounded argument(s) all wp-justified",
        ))
    else:
        scope = "stated for theories without superiority pairs"
        results.append(CheckResult(subset, "skipped", scope))

    # Every subargument of a justified argument is justified (children suffice, by induction).
    broken = sorted(n for n in held if not held.issuperset(rows[n][3]))
    results.append(_verdict(
        closure,
        arguments._decode(broken),
        "justified argument with unjustified subargument: ",
        "closure holds",
    ))

    return CheckReport(tuple(results))
