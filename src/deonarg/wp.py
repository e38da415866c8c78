"""Weak-permission fixed-point semantics.

Computes the unique pair of justified and rejected argument sets by a
monotone iteration over support, undercut, acceptability and rejection
predicates, with a trace of every status change, step by step.

Within one iteration all predicates read the previous snapshot, so the
result is order-independent.  Newly rejected arguments are collected
before newly justified ones, and each side excludes arguments already on
the other: these exclusion guards keep the two sets disjoint and the
justified set conflict-free.  Without them (``fixpoint_guards=False``)
the textbook recursion breaches those invariants on some theories, and
the breach raises :class:`FixpointInvariantError`.

``wp_extension`` evaluates the iteration as a worklist on positions.
Every predicate is monotone in the snapshot, so the first iteration
tests every argument and each later one re-tests, in id order, only the
arguments whose inputs the previous one changed (semi-naive
evaluation), and the trace is the round-by-round one.
Support is a counter of direct subarguments not yet justified, as in
linear-time Horn satisfiability.  An argument becoming supported wakes
itself and its targets, and marks the superarguments of every natural
witness it attacks at (kept by the graph) as undercut, waking their
targets; one becoming rejected wakes its superarguments and targets; one
becoming justified wakes its targets.  Superarguments are walks up the
argument set's parents index that stop at a set closed upward, so the
work is about linear in the arguments, subargument links and attack
records.  The rejection walk stops at ``fallen``, the arguments above a
rejected one.  The undercut walk stops at ``beaten``, the rejected and
the undercut arguments, whose natural members are closed upward.
Undercut is closed upward by construction, and a natural argument is
rejected in one of two ways:

* by ``attacker-supported``: its supported attackers attack every
  superargument at the same witness, with the same top rules, so they
  reject the superarguments in the same iteration (narrow condition 1
  only ever targets imaginary arguments);
* by ``subargument-rejected``: every superargument is then in ``fallen``,
  and rejected in the same iteration too.

Imaginary arguments are never parents, so the undercut walk, which
starts above a natural witness, never reaches an imaginary member of
``beaten``.  The predicates are written out in the loop, and each status
change is kept as a row of positions, ``(argument, clause, witnesses)``,
with no record built.  The rows are the result: ``WpExtension`` derives
its justified and rejected sets from them, ``schema.trace_section`` reads
them, and ``WpExtension.steps`` decodes them when read.  The counters
are the engine's only test of support; ``testkit`` states support and
undercut over the trees.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

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
        super().__init__(f"fixed-point invariant breached at iteration {step}: "
                         f"{kind} involving {', '.join(members)}")
        self.step, self.kind, self.members = step, kind, members


# ---------------------------------------------------------------------------
# trace records
# ---------------------------------------------------------------------------


class TraceStep(Record):
    """One iteration: the arguments it rejected, then those it justified.

    Each change is an ``(argument, clause, witnesses)`` id tuple, where
    ``witnesses`` lists the arguments the clause quantified over.
    Acceptance clauses: ``attackers-all-rejected`` (imaginary) and
    ``supported-and-defended`` (natural).  Rejection clauses:
    ``attacker-justified`` (imaginary), ``subargument-rejected`` and
    ``attacker-supported`` (natural).
    """

    __slots__ = _fields = ("index", "newly_rejected", "newly_justified")


def _members(rows: tuple[tuple, ...], side: int) -> Iterator[int]:
    """The positions that trace rows change on one side: 0 rejected, 1 justified."""
    return map(itemgetter(0), chain.from_iterable(map(itemgetter(side), rows)))


class WpExtension(Record):
    """The fixed point as its trace: the rows, and the sets they add up to.

    The fields are ``ids`` and the trace's ``rows``: per step a tuple of
    rejected and a tuple of justified changes, each a row ``(argument,
    clause, witnesses)`` of positions into ``ids``, tuples all the way
    down, so that ``Record``'s equality, hash and pickling work on them as
    they are.  The constructor derives the ``justified`` and ``rejected``
    id sets from the rows.  ``iterations`` and ``schema.trace_section`` read
    the rows; ``steps`` decodes them to ids each time it is read.
    """

    _fields = ("ids", "rows")
    __slots__ = (*_fields, "justified", "rejected")

    def __init__(self, ids: tuple[str, ...], rows: tuple[tuple, ...]) -> None:
        sets = [frozenset(map(ids.__getitem__, _members(rows, side))) for side in (1, 0)]
        for setter, value in zip(self._setters, (ids, rows, *sets)):
            setter(self, value)

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        """The rows decoded to ids, by iteration; only perfbench's traced counters read it."""
        ids = self.ids

        def changes(side: tuple) -> tuple[tuple, ...]:
            return tuple([(ids[n], clause, tuple([ids[w] for w in hits]))
                          for n, clause, hits in side])

        return tuple([TraceStep(index, *map(changes, sides))
                      for index, sides in enumerate(self.rows, 1)])

    @property
    def iterations(self) -> int:
        return len(self.rows)


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
    """
    arguments = graph.arguments
    ids, decode, natural = arguments.ids, arguments._decode, arguments.natural
    parents, attacked_by, targets = arguments._parents, graph._attackers, graph._targets
    attacks_at = graph._witnesses  # undercut: the natural witnesses each argument attacks at

    # support: each argument counts its direct subarguments not yet justified
    waiting = [len(row[3]) for row in arguments.rows]  # a child listed twice is met twice

    # every set below holds positions
    justified: set[int] = set()
    rejected: set[int] = set()
    supported: set[int] = set()  # by the justified set
    beaten: set[int] = set()  # rejected, or undercut by the justified set
    live: set[int] = set()  # witnesses with a supported attacker
    fallen: set[int] = set()  # arguments whose closure holds a rejected argument

    def support(n: int, woken: set[int]) -> None:
        supported.add(n)
        woken.add(n)
        woken.update(targets[n])
        for witness in attacks_at[n]:
            if witness not in live:
                live.add(witness)
                for parent in parents[witness]:  # closed upward: see the module docstring
                    for above in arguments._walk(parent, True, beaten):
                        woken.update(targets[above])

    supported.update([n for n, count in enumerate(waiting) if not count])
    for n in [n for n in supported if attacks_at[n]]:  # their undercuts; what they wake
        support(n, set())  # is read anyway, as the first iteration evaluates every argument
    candidates: Iterable[int] = range(len(ids))
    steps: list[tuple[tuple, tuple]] = []
    for index in range(1, 2 * len(ids) + 2):
        # every predicate reads the previous snapshot: the sets change after both sides
        newly_rejected: list[tuple] = []
        for n in candidates:  # the rejection clauses
            if n in rejected or (fixpoint_guards and n in justified):
                continue
            attackers = attacked_by[n]
            if n >= natural:  # imaginary
                if not justified.isdisjoint(attackers):
                    hits = tuple(filter(justified.__contains__, attackers))
                    newly_rejected.append((n, "attacker-justified", hits))
            elif n in fallen:  # n itself is not rejected
                below = sorted(arguments._walk(n, False, set()))
                hits = tuple(filter(rejected.__contains__, below))
                newly_rejected.append((n, "subargument-rejected", hits))
            elif not supported.isdisjoint(attackers):
                hits = tuple(filter(supported.__contains__, attackers))
                newly_rejected.append((n, "attacker-supported", hits))
        gone = {change[0] for change in newly_rejected} if newly_rejected else ()
        newly_justified: list[tuple] = []
        added: list[int] = []
        for n in candidates:  # the acceptance clauses
            if n in justified or (fixpoint_guards and (n in rejected or n in gone)):
                continue
            attackers = attacked_by[n]
            if n >= natural:  # imaginary
                if rejected.issuperset(attackers):
                    newly_justified.append((n, "attackers-all-rejected", attackers))
                    added.append(n)
            elif n in supported and beaten.issuperset(attackers):
                newly_justified.append((n, "supported-and-defended", attackers))
                added.append(n)
        if gone:
            rejected.update(gone)
            beaten.update(gone)
        justified.update(added)

        if not (justified.isdisjoint(gone) and rejected.isdisjoint(added)):
            overlap = justified.intersection(gone) | rejected.intersection(added)
            raise FixpointInvariantError(index, "overlap", decode(sorted(overlap)))
        clash = added and graph.rows and _clashing(graph, justified, added)  # needs an attack
        if clash:
            raise FixpointInvariantError(index, "conflict", decode(sorted(clash)))

        if not newly_rejected and not newly_justified:
            break
        steps.append((tuple(newly_rejected), tuple(newly_justified)))

        # wake the arguments whose predicates read what just changed
        woken: set[int] = set()
        for n in gone:
            woken.update(arguments._walk(n, True, fallen))  # subargument-rejected
            woken.update(targets[n])  # an attacker rejected
        for n in added:
            woken.update(targets[n])  # attacker-justified
            for parent in parents[n]:
                waiting[parent] -= 1
                if not waiting[parent]:
                    support(parent, woken)
        candidates = sorted(woken)
    else:
        raise AssertionError("weak-permission iteration failed to stabilize")
    return WpExtension(ids, tuple(steps))
