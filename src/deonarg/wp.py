"""Weak-permission fixed-point semantics.

Computes the unique pair of justified and rejected argument sets by a
monotone iteration over support, undercut, acceptability and rejection
predicates, together with a per-iteration trace explaining every status
change.

Within one iteration all predicates read the previous snapshot, so the
result is deterministic and order-independent.  Newly rejected
arguments are collected before newly justified ones, and each side
excludes arguments already on the other: these exclusion guards keep
the justified and rejected sets disjoint and the justified set
conflict-free.  Disabling them (``fixpoint_guards=False``) reproduces
the unguarded textbook recursion, which breaches those invariants on
some theories; the breach is then reported as
:class:`FixpointInvariantError` rather than silently returned.

``wp_extension`` evaluates the iteration as a worklist.  Every predicate
is monotone in the snapshot, so an argument whose inputs did not change
cannot change status; each iteration re-tests only the arguments woken
by the previous one (semi-naive evaluation), in id order, so the trace
is the round-by-round one.  Support is a counter of direct subarguments
not yet justified, as in linear-time Horn satisfiability: the justified
set is closed under subarguments, so an argument is supported when its
counter reaches 0.  An argument becoming supported wakes itself and its
targets, and marks the superarguments of every witness it attacks as
undercut, waking their targets; an argument becoming rejected wakes its
superarguments and its targets; an argument becoming justified wakes its
targets.  Each argument changes each of these states once, so the work
is about linear in the arguments, subargument links and attack records,
plus one copy of the justified set per iteration for the trace.  The
public predicates below (``supports``, ``undercuts``, ``wp_acceptable``,
``wp_rejected``) are the direct definitions, evaluated by scanning.
"""

from __future__ import annotations

from typing import Iterable

from .arguments import ArgumentSet
from .attacks import AttackGraph
from .model import Record
from .semantics import conflicting_members

# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class FixpointInvariantError(Exception):
    """The iteration produced an inconsistent justified/rejected state.

    ``kind`` is ``"overlap"`` when an argument landed in both sets and
    ``"conflict"`` when two justified arguments attack each other.
    """

    def __init__(self, step: int, kind: str, members: tuple[str, ...]) -> None:
        listing = ", ".join(members)
        super().__init__(
            f"fixed-point invariant breached at iteration {step}: "
            f"{kind} involving {listing}"
        )
        self.step = step
        self.kind = kind
        self.members = members


# ---------------------------------------------------------------------------
# support and undercut
# ---------------------------------------------------------------------------


def supports(arguments: ArgumentSet, members: Iterable[str], identifier: str) -> bool:
    """True when every proper subargument of the argument is a member."""
    return frozenset(arguments.proper_sub_ids(identifier)) <= frozenset(members)


def supported_by(arguments: ArgumentSet, members: Iterable[str]) -> frozenset[str]:
    chosen = frozenset(members)
    return frozenset(
        identifier
        for identifier in arguments.ids
        if frozenset(arguments.proper_sub_ids(identifier)) <= chosen
    )


def undercuts(graph: AttackGraph, members: Iterable[str], identifier: str) -> bool:
    """True when the set supports an attack on a proper natural subargument.

    Only attack records whose witness is a proper, non-imaginary
    subargument of the argument count; a rebuttal witnessed at the
    argument itself never undercuts it.
    """
    chosen = frozenset(members)
    arguments = graph.arguments
    for witness in arguments.proper_sub_ids(identifier):
        if arguments.argument(witness).is_imaginary:
            continue
        for attacker in graph.attackers_at(witness):
            if supports(arguments, chosen, attacker):
                return True
    return False


def undercut_by(graph: AttackGraph, members: Iterable[str]) -> frozenset[str]:
    chosen = frozenset(members)
    return frozenset(
        identifier
        for identifier in graph.arguments.ids
        if undercuts(graph, chosen, identifier)
    )


# ---------------------------------------------------------------------------
# trace records
# ---------------------------------------------------------------------------


class StatusChange(Record):
    """One argument changing status, with the clause that fired.

    Acceptance clauses: ``attackers-all-rejected`` (imaginary) and
    ``supported-and-defended`` (natural).  Rejection clauses:
    ``attacker-justified`` (imaginary), ``subargument-rejected`` and
    ``attacker-supported`` (natural).  ``witnesses`` lists the
    arguments the clause quantified over.
    """

    __slots__ = _fields = ("argument", "clause", "witnesses")

    def __init__(self, argument: str, clause: str, witnesses: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "argument", argument)
        object.__setattr__(self, "clause", clause)
        object.__setattr__(self, "witnesses", witnesses)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.argument, self.clause, self.witnesses) == (
                other.argument, other.clause, other.witnesses
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.argument, self.clause, self.witnesses))


class TraceStep(Record):
    __slots__ = _fields = ("index", "newly_rejected", "newly_justified", "rejected", "justified")

    def __init__(
        self,
        index: int,
        newly_rejected: tuple[StatusChange, ...],
        newly_justified: tuple[StatusChange, ...],
        rejected: frozenset[str],
        justified: frozenset[str],
    ) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "newly_rejected", newly_rejected)
        object.__setattr__(self, "newly_justified", newly_justified)
        object.__setattr__(self, "rejected", rejected)
        object.__setattr__(self, "justified", justified)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.index, self.newly_rejected, self.newly_justified, self.rejected, self.justified
            ) == (
                other.index, other.newly_rejected, other.newly_justified, other.rejected,
                other.justified,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            (self.index, self.newly_rejected, self.newly_justified, self.rejected, self.justified)
        )


class WpExtension(Record):
    __slots__ = _fields = ("justified", "rejected", "steps")

    def __init__(
        self, justified: frozenset[str], rejected: frozenset[str], steps: tuple[TraceStep, ...]
    ) -> None:
        object.__setattr__(self, "justified", justified)
        object.__setattr__(self, "rejected", rejected)
        object.__setattr__(self, "steps", steps)

    @property
    def iterations(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# the fixed point
# ---------------------------------------------------------------------------


def wp_acceptable(
    graph: AttackGraph,
    identifier: str,
    rejected: Iterable[str],
    justified: Iterable[str],
) -> bool:
    """Acceptability of one argument against a rejected/justified snapshot.

    An imaginary argument is acceptable when every attacker is already
    rejected.  A natural argument is acceptable when the justified set
    supports it and every attacker is either rejected or undercut by
    the justified set.
    """
    arguments = graph.arguments
    rejected = frozenset(rejected)
    justified = frozenset(justified)
    attackers = graph.attackers_of(identifier)
    if arguments.argument(identifier).is_imaginary:
        return all(attacker in rejected for attacker in attackers)
    if not supports(arguments, justified, identifier):
        return False
    return all(
        attacker in rejected or undercuts(graph, justified, attacker)
        for attacker in attackers
    )


def wp_rejected(
    graph: AttackGraph,
    identifier: str,
    rejected: Iterable[str],
    justified: Iterable[str],
) -> bool:
    """Rejection of one argument against a rejected/justified snapshot.

    An imaginary argument is rejected when some attacker is justified.
    A natural argument is rejected when some proper subargument is
    already rejected or some attacker is supported by the justified
    set.
    """
    arguments = graph.arguments
    rejected = frozenset(rejected)
    justified = frozenset(justified)
    if arguments.argument(identifier).is_imaginary:
        return any(a in justified for a in graph.attackers_of(identifier))
    if any(sub in rejected for sub in arguments.proper_sub_ids(identifier)):
        return True
    return any(
        supports(arguments, justified, attacker)
        for attacker in graph.attackers_of(identifier)
    )


def wp_extension(graph: AttackGraph, *, fixpoint_guards: bool = True) -> WpExtension:
    """Iterate to the least fixed point, recording every status change.

    Each iteration first extends the rejected set, then the justified
    set; both predicate evaluations read the previous snapshot only.
    With guards enabled (the default) an argument rejected by the time
    the justified side is formed can no longer be accepted, and an
    argument already justified is never rejected.  The disjointness and
    conflict-freeness invariants are checked after every iteration
    regardless of the guard setting.

    The first iteration evaluates every argument; each later one only
    the arguments whose inputs the previous iteration changed (see the
    module docstring).
    """
    arguments = graph.arguments
    ids = arguments.ids
    position = arguments._positions
    proper_subs = arguments._proper_sub_ids
    supers = arguments._super_ids
    attackers_of = graph.attackers_of
    targets_of = graph.targets_of
    imaginary = frozenset(arguments.imaginary_ids())

    # support: each argument counts its direct subarguments not yet justified
    waiting: dict[str, int] = {}
    parents: dict[str, list[str]] = {identifier: [] for identifier in ids}
    for identifier, argument in arguments:
        children = {arguments.id_of(child) for child in argument.children}
        waiting[identifier] = len(children)
        for child in children:
            parents[child].append(identifier)
    # undercut: the natural witnesses each argument attacks at
    attacks_at: dict[str, list[str]] = {}
    for witness in ids:
        if witness not in imaginary:
            for attacker in graph.attackers_at(witness):
                attacks_at.setdefault(attacker, []).append(witness)

    justified: set[str] = set()
    rejected: set[str] = set()
    supported: set[str] = set()  # by the justified set
    undercut: set[str] = set()  # by the justified set
    fallen: set[str] = set()  # arguments whose closure holds a rejected argument
    live: set[str] = set()  # witnesses with a supported attacker

    def support(identifier: str, woken: set[str]) -> None:
        supported.add(identifier)
        woken.add(identifier)
        woken.update(targets_of(identifier))
        for witness in attacks_at.get(identifier, ()):
            if witness in live:
                continue
            live.add(witness)
            for above in supers[witness]:
                if above != witness and above not in undercut:
                    undercut.add(above)
                    woken.update(targets_of(above))

    def rejection(identifier: str) -> StatusChange | None:
        attackers = attackers_of(identifier)
        if identifier in imaginary:
            hits = tuple(a for a in attackers if a in justified)
            if hits:
                return StatusChange(identifier, "attacker-justified", hits)
            return None
        if identifier in fallen:
            hits = tuple(s for s in proper_subs[identifier] if s in rejected)
            return StatusChange(identifier, "subargument-rejected", hits)
        hits = tuple(a for a in attackers if a in supported)
        if hits:
            return StatusChange(identifier, "attacker-supported", hits)
        return None

    def acceptance(identifier: str) -> StatusChange | None:
        attackers = attackers_of(identifier)
        if identifier in imaginary:
            if all(a in rejected for a in attackers):
                return StatusChange(identifier, "attackers-all-rejected", attackers)
            return None
        if identifier not in supported:
            return None
        if all(a in rejected or a in undercut for a in attackers):
            return StatusChange(identifier, "supported-and-defended", attackers)
        return None

    first: set[str] = set()  # the first iteration evaluates every argument anyway
    for identifier in ids:
        if not waiting[identifier]:
            support(identifier, first)
    candidates = list(ids)
    snapshot_rejected: frozenset[str] = frozenset()
    steps: list[TraceStep] = []
    for index in range(1, 2 * len(ids) + 2):
        # every predicate reads the previous snapshot: the sets change after both sides
        newly_rejected: list[StatusChange] = []
        for identifier in candidates:
            if identifier in rejected:
                continue
            if fixpoint_guards and identifier in justified:
                continue
            change = rejection(identifier)
            if change is not None:
                newly_rejected.append(change)
        removed = {change.argument for change in newly_rejected}
        newly_justified: list[StatusChange] = []
        for identifier in candidates:
            if identifier in justified:
                continue
            if fixpoint_guards and (identifier in rejected or identifier in removed):
                continue
            change = acceptance(identifier)
            if change is not None:
                newly_justified.append(change)
        added = [change.argument for change in newly_justified]
        rejected.update(removed)
        justified.update(added)

        overlap = {i for i in removed if i in justified} | {i for i in added if i in rejected}
        if overlap:
            raise FixpointInvariantError(
                index, "overlap", tuple(sorted(overlap, key=arguments.index))
            )
        clash = conflicting_members(graph, justified, added)
        if clash:
            raise FixpointInvariantError(index, "conflict", clash)

        if not newly_rejected and not newly_justified:
            break
        if newly_rejected:
            snapshot_rejected = frozenset(rejected)
        steps.append(
            TraceStep(
                index,
                tuple(newly_rejected),
                tuple(newly_justified),
                snapshot_rejected,
                frozenset(justified),
            )
        )

        # wake the arguments whose predicates read what just changed
        woken = set()
        for identifier in removed:
            fallen.update(supers[identifier])
            woken.update(supers[identifier])  # subargument-rejected
            woken.update(targets_of(identifier))  # an attacker rejected
        for identifier in added:
            woken.update(targets_of(identifier))  # attacker-justified
            for parent in parents[identifier]:
                waiting[parent] -= 1
                if not waiting[parent]:
                    support(parent, woken)
        candidates = sorted(woken, key=position.__getitem__)
    else:
        raise AssertionError("weak-permission iteration failed to stabilize")
    return WpExtension(frozenset(justified), frozenset(rejected), tuple(steps))
