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
is about linear in the arguments, subargument links and attack records.
It runs on positions; the trace records once the order in which
arguments became rejected and justified, and each step's sets are
prefixes of those orders, built when read.  The public predicates
``supports`` and ``undercuts`` are the direct definitions, evaluated by
scanning.
"""

from __future__ import annotations

from typing import Iterable

from .arguments import ArgumentSet, ImaginaryArgument
from .attacks import AttackGraph
from .model import Record
from .semantics import _clashing

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
    return frozenset(i for i in arguments.ids if supports(arguments, chosen, i))


def undercuts(graph: AttackGraph, members: Iterable[str], identifier: str) -> bool:
    """True when the set supports an attack on a proper natural subargument.

    Only attack records whose witness is a proper, non-imaginary
    subargument of the argument count; a rebuttal witnessed at the
    argument itself never undercuts it.
    """
    chosen = frozenset(members)
    arguments = graph.arguments
    for witness in arguments.proper_sub_ids(identifier):
        if arguments.kind(witness) == "imaginary":
            continue
        for attacker in graph.attackers_at(witness):
            if supports(arguments, chosen, attacker):
                return True
    return False


def undercut_by(graph: AttackGraph, members: Iterable[str]) -> frozenset[str]:
    chosen = frozenset(members)
    return frozenset(i for i in graph.arguments.ids if undercuts(graph, chosen, i))


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
    _defaults = {"witnesses": ()}


def _held(members: frozenset[str] | tuple[list[str], int]) -> frozenset[str]:
    """A step's set: held as is, or as an order that only grows and the length of its prefix."""
    return members if isinstance(members, frozenset) else frozenset(members[0][: members[1]])


class TraceStep(Record):
    """One iteration: its status changes, then the rejected and justified sets.

    ``wp_extension`` records once the order in which arguments became
    rejected and justified, and each step holds only a prefix of each
    order: ``rejected`` and ``justified`` are built when read.
    """

    _fields = ("index", "newly_rejected", "newly_justified", "rejected", "justified")
    __slots__ = ("index", "newly_rejected", "newly_justified", "_rejected", "_justified")

    @property
    def rejected(self) -> frozenset[str]:
        return _held(self._rejected)

    @property
    def justified(self) -> frozenset[str]:
        return _held(self._justified)


class WpExtension(Record):
    __slots__ = _fields = ("justified", "rejected", "steps")

    @property
    def iterations(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# the fixed point
# ---------------------------------------------------------------------------


def wp_extension(graph: AttackGraph, *, fixpoint_guards: bool = True) -> WpExtension:
    """Iterate to the least fixed point, recording every status change.

    Each iteration first extends the rejected set, then the justified
    set; both predicate evaluations read the previous snapshot only.
    With guards enabled (the default) an argument rejected by the time
    the justified side is formed can no longer be accepted, and an
    argument already justified is never rejected.  The disjointness and
    conflict-freeness invariants are checked after every iteration
    regardless of the guard setting.

    The first iteration evaluates every argument (the unattacked imaginary
    ones as a block, see below); each later one only the arguments whose
    inputs the previous iteration changed, on positions, and the steps'
    sets are prefixes of the recorded orders (see the module docstring).
    """
    arguments = graph.arguments
    ids = arguments.ids
    decode = arguments._decode
    rows = arguments._rows
    subs, supers = arguments._subs, arguments._supers
    attackers_of, targets_of = graph._attackers, graph._targets
    imaginary = [row[0] is ImaginaryArgument for row in rows]

    # support: each argument counts its direct subarguments not yet justified
    waiting: list[int] = []
    parents: list[list[int]] = [[] for _ in ids]
    for n, row in enumerate(rows):
        children = set(row[3]) if row[3] else ()
        waiting.append(len(children))
        for child in children:
            parents[child].append(n)
    # undercut: the natural witnesses each argument attacks at
    attacks_at: list[list[int]] = [[] for _ in ids]
    for witness, attackers in enumerate(graph._at_witness):
        if attackers and not imaginary[witness]:
            for attacker in attackers:
                attacks_at[attacker].append(witness)

    # every set below holds positions
    justified: set[int] = set()
    rejected: set[int] = set()
    supported: set[int] = set()  # by the justified set
    undercut: set[int] = set()  # by the justified set
    fallen: set[int] = set()  # arguments whose closure holds a rejected argument
    live: set[int] = set()  # witnesses with a supported attacker

    def support(n: int, woken: set[int]) -> None:
        supported.add(n)
        woken.add(n)
        woken.update(targets_of[n])
        for witness in attacks_at[n]:
            if witness in live:
                continue
            live.add(witness)
            for above in supers[witness]:
                if above != witness and above not in undercut:
                    undercut.add(above)
                    woken.update(targets_of[above])

    def rejection(n: int) -> StatusChange | None:
        attackers = attackers_of[n]
        if imaginary[n]:
            hits = [a for a in attackers if a in justified]
            return StatusChange(ids[n], "attacker-justified", decode(hits)) if hits else None
        if n in fallen:
            hits = [sub for sub in subs[n] if sub in rejected]  # n itself is not rejected
            return StatusChange(ids[n], "subargument-rejected", decode(hits))
        hits = [a for a in attackers if a in supported]
        return StatusChange(ids[n], "attacker-supported", decode(hits)) if hits else None

    def acceptance(n: int) -> StatusChange | None:
        attackers = attackers_of[n]
        if imaginary[n]:
            holds, clause = rejected.issuperset(attackers), "attackers-all-rejected"
        else:
            holds = n in supported and all(a in rejected or a in undercut for a in attackers)
            clause = "supported-and-defended"
        return StatusChange(ids[n], clause, decode(attackers)) if holds else None

    supported.update([n for n, count in enumerate(waiting) if not count])
    for n in [n for n in supported if attacks_at[n]]:  # their undercuts; what they wake
        support(n, set())  # is read anyway, as the first iteration evaluates every argument
    # an imaginary argument with no attackers is justified in the first iteration, with
    # no witnesses, and never woken again: those after the last natural argument are
    # settled as one block at the end of that iteration's justified list
    end = len(ids) - imaginary[::-1].index(False) if False in imaginary else 0
    settled = [n for n in range(end, len(ids)) if not attackers_of[n]]
    candidates: Iterable[int] = [*range(end), *(n for n in range(end, len(ids)) if attackers_of[n])]
    # the order in which arguments became rejected and justified, as ids
    rejected_order: list[str] = []
    justified_order: list[str] = []
    steps: list[TraceStep] = []
    for index in range(1, 2 * len(ids) + 2):
        # every predicate reads the previous snapshot: the sets change after both sides
        newly_rejected: list[StatusChange] = []
        removed: list[int] = []
        for n in candidates:
            if n in rejected or (fixpoint_guards and n in justified):
                continue
            change = rejection(n)
            if change is not None:
                newly_rejected.append(change)
                removed.append(n)
        gone = set(removed)
        newly_justified: list[StatusChange] = []
        added: list[int] = []
        for n in candidates:
            if n in justified:
                continue
            if fixpoint_guards and (n in rejected or n in gone):
                continue
            change = acceptance(n)
            if change is not None:
                newly_justified.append(change)
                added.append(n)
        if index == 1:  # the settled block
            newly_justified += [StatusChange(ids[n], "attackers-all-rejected", ()) for n in settled]
            added += settled
        rejected.update(removed)
        justified.update(added)

        overlap = justified.intersection(removed) | rejected.intersection(added)
        if overlap:
            raise FixpointInvariantError(index, "overlap", decode(sorted(overlap)))
        clash = _clashing(graph, justified, added)
        if clash:
            raise FixpointInvariantError(index, "conflict", decode(sorted(clash)))

        if not newly_rejected and not newly_justified:
            break
        rejected_order += map(ids.__getitem__, removed)
        justified_order += map(ids.__getitem__, added)
        steps.append(TraceStep(
            index, tuple(newly_rejected), tuple(newly_justified),
            (rejected_order, len(rejected_order)),  # type: ignore[arg-type]
            (justified_order, len(justified_order)),  # type: ignore[arg-type]
        ))

        # wake the arguments whose predicates read what just changed
        woken: set[int] = set()
        for n in removed:
            fallen.update(supers[n])
            woken.update(supers[n])  # subargument-rejected
            woken.update(targets_of[n])  # an attacker rejected
        for n in added:
            woken.update(targets_of[n])  # attacker-justified
            for parent in parents[n]:
                waiting[parent] -= 1
                if not waiting[parent]:
                    support(parent, woken)
        candidates = sorted(woken)
    else:
        raise AssertionError("weak-permission iteration failed to stabilize")
    return WpExtension(frozenset(justified_order), frozenset(rejected_order), tuple(steps))
