"""Argument construction.

Four argument forms exist:

* imaginary arguments, one per literal of the atom universe, concluding the
  weak permission of that literal;
* fact arguments, one per fact;
* rule applications, one per rule and per tuple of already-built arguments
  matching the rule body (forward chaining to saturation);
* permission arguments derived from obligations: every argument concluding
  ``obl(l)`` spawns one argument concluding ``perm(l)``.

Construction always terminates: a rule label may not occur twice on any
root-to-leaf path of an argument tree, which bounds tree depth even for
cyclic rule sets.
"""

from __future__ import annotations

import itertools
from typing import ClassVar, Iterable, Iterator

from .model import (
    Conclusion,
    DeonticLiteral,
    DeonticOperator,
    Literal,
    Record,
    Rule,
    Theory,
    conclusion_sort_key,
)

ArgumentId = str

# ---------------------------------------------------------------------------
# argument forms
# ---------------------------------------------------------------------------


class Argument(Record):
    """Base class; concrete forms are the four records below.

    Arguments are immutable trees, so every value derived from a tree (its
    height, hash, rule labels and structural key) is computed once, from the
    children's stored values, when the argument is constructed.  Equality
    compares a form's own fields; the hash is the stored one.
    """

    __slots__ = ("_height", "_hash", "_labels", "_key")
    kind: ClassVar[str]  # each form's name, as the JSON output spells it

    def _derive(self, children: tuple[Argument, ...], labels: frozenset[str]) -> None:
        height = 1 + max(child._height for child in children) if children else 0
        rank = _KIND_RANKS[self.kind]
        head = (height, rank, self.top_rule or "", conclusion_sort_key(self.conclusion))
        object.__setattr__(self, "_height", height)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_key", (*head, tuple(child._key for child in children)))
        object.__setattr__(self, "_hash", hash((head, tuple(child._hash for child in children))))

    # a class defining ``__eq__`` loses the ``__hash__`` it inherits, so each
    # form sets ``__hash__ = Argument.__hash__`` again
    def __hash__(self) -> int:
        return self._hash

    @property
    def conclusion(self) -> Conclusion:
        raise NotImplementedError

    @property
    def children(self) -> tuple[Argument, ...]:
        """Direct subarguments (one per body element, or the obligation base)."""
        return ()

    @property
    def is_imaginary(self) -> bool:
        return isinstance(self, ImaginaryArgument)

    @property
    def height(self) -> int:
        return self._height

    @property
    def top_rule(self) -> str | None:
        """Label of the last rule applied; permission arguments inherit it."""
        return None

    def subarguments(self) -> frozenset[Argument]:
        """The subargument closure, including the argument itself."""
        out: set[Argument] = {self}
        for child in self.children:
            out |= child.subarguments()
        return frozenset(out)

    def tree_labels(self) -> frozenset[str]:
        """Labels of every rule applied anywhere in the tree."""
        return self._labels


class ImaginaryArgument(Argument):
    """Concludes the weak permission of its literal; has no premises."""

    kind = "imaginary"
    __slots__ = _fields = ("literal",)

    def __init__(self, literal: Literal) -> None:
        object.__setattr__(self, "literal", literal)
        self._derive((), frozenset())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.literal,) == (other.literal,)
        return NotImplemented

    __hash__ = Argument.__hash__

    @property
    def conclusion(self) -> Conclusion:
        return DeonticLiteral(DeonticOperator.WEAK_PERMISSION, self.literal)


class FactArgument(Argument):
    kind = "fact"
    __slots__ = _fields = ("literal",)

    def __init__(self, literal: Literal) -> None:
        object.__setattr__(self, "literal", literal)
        self._derive((), frozenset())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.literal,) == (other.literal,)
        return NotImplemented

    __hash__ = Argument.__hash__

    @property
    def conclusion(self) -> Conclusion:
        return self.literal


class RuleApplication(Argument):
    """A rule applied to one matching argument per body element."""

    kind = "rule-application"
    __slots__ = _fields = ("rule", "subs")

    def __init__(self, rule: Rule, subs: tuple[Argument, ...]) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "subs", subs)
        self._derive(subs, frozenset((rule.label,)).union(*(child._labels for child in subs)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.rule, self.subs) == (other.rule, other.subs)
        return NotImplemented

    __hash__ = Argument.__hash__

    @property
    def conclusion(self) -> Conclusion:
        return self.rule.head

    @property
    def children(self) -> tuple[Argument, ...]:
        return self.subs

    @property
    def top_rule(self) -> str | None:
        return self.rule.label


class DAxiomArgument(Argument):
    """Obligation implies permission: built over an ``obl(l)`` argument."""

    kind = "permission-axiom"
    __slots__ = _fields = ("base",)

    def __init__(self, base: Argument) -> None:
        object.__setattr__(self, "base", base)
        self._derive((base,), base._labels)  # a permission argument shares its base's labels

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.base,) == (other.base,)
        return NotImplemented

    __hash__ = Argument.__hash__

    @property
    def conclusion(self) -> Conclusion:
        base_conclusion = self.base.conclusion
        assert isinstance(base_conclusion, DeonticLiteral)
        return DeonticLiteral(DeonticOperator.PERMISSION, base_conclusion.literal)

    @property
    def children(self) -> tuple[Argument, ...]:
        return (self.base,)

    @property
    def top_rule(self) -> str | None:
        return self.base.top_rule


#: each kind's place in the structural key; imaginary arguments are numbered
#: apart from the natural ones, so their rank only feeds the hash
_KIND_RANKS = {"fact": 0, "rule-application": 1, "permission-axiom": 2, "imaginary": 2}


def structural_key(argument: Argument) -> tuple:
    """Total deterministic order on natural arguments (used for id assignment).

    ``(height, kind rank, top rule, conclusion key, children's keys)``,
    stored on the argument when it is constructed.
    """
    return argument._key


# ---------------------------------------------------------------------------
# the built argument set
# ---------------------------------------------------------------------------


class ArgumentSet(Record):
    """All arguments of a theory with stable ids (``A0..`` natural, ``I1..`` imaginary).

    Every lookup index is built once, when the set is constructed; the
    indexes take no part in equality or ``repr``.
    """

    _fields = ("theory", "ordered")
    __slots__ = (*_fields, "_ids", "_by_id", "_id_of", "_positions", "_by_conclusion",
                 "_sub_ids", "_proper_sub_ids", "_super_ids")

    def __init__(self, theory: Theory, ordered: tuple[tuple[ArgumentId, Argument], ...]) -> None:
        object.__setattr__(self, "theory", theory)
        object.__setattr__(self, "ordered", ordered)
        ids = tuple(identifier for identifier, _ in ordered)
        positions = {identifier: n for n, identifier in enumerate(ids)}
        id_of = {argument: identifier for identifier, argument in ordered}
        by_conclusion: dict[Conclusion, list[ArgumentId]] = {}
        for identifier, argument in ordered:
            by_conclusion.setdefault(argument.conclusion, []).append(identifier)
        # subargument closures as positions, children (lower height) first,
        # then the reverse closures, parents first
        children = [[positions[id_of[child]] for child in a.children] for _, a in ordered]
        by_height = sorted(range(len(ids)), key=lambda n: ordered[n][1].height)
        closures: list[set[int]] = [set() for _ in ids]
        for n in by_height:
            closures[n].add(n)
            for child in children[n]:
                closures[n] |= closures[child]
        supers: list[set[ArgumentId]] = [set() for _ in ids]
        for n in reversed(by_height):
            supers[n].add(ids[n])
            for child in children[n]:
                supers[child] |= supers[n]
        as_id = ids.__getitem__
        sub_ids: dict[ArgumentId, tuple[ArgumentId, ...]] = {}
        proper_sub_ids: dict[ArgumentId, tuple[ArgumentId, ...]] = {}
        for n, identifier in enumerate(ids):
            order = sorted(closures[n])
            closure = tuple(map(as_id, order))
            own = order.index(n)
            sub_ids[identifier] = closure
            proper_sub_ids[identifier] = closure[:own] + closure[own + 1 :]
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_by_id", dict(ordered))
        object.__setattr__(self, "_id_of", id_of)
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_by_conclusion", {k: tuple(v) for k, v in by_conclusion.items()})
        object.__setattr__(self, "_sub_ids", sub_ids)
        object.__setattr__(self, "_proper_sub_ids", proper_sub_ids)
        object.__setattr__(
            self, "_super_ids", {ids[n]: frozenset(found) for n, found in enumerate(supers)}
        )

    def __iter__(self) -> Iterator[tuple[ArgumentId, Argument]]:
        return iter(self.ordered)

    def __len__(self) -> int:
        return len(self.ordered)

    @property
    def ids(self) -> tuple[ArgumentId, ...]:
        return self._ids

    def argument(self, identifier: ArgumentId) -> Argument:
        return self._by_id[identifier]

    def id_of(self, argument: Argument) -> ArgumentId:
        return self._id_of[argument]

    def concluders(self, conclusion: Conclusion) -> tuple[ArgumentId, ...]:
        """Ids of every argument with the given conclusion."""
        return self._by_conclusion.get(conclusion, ())

    def natural_ids(self) -> tuple[ArgumentId, ...]:
        return tuple(i for i, a in self.ordered if not a.is_imaginary)

    def imaginary_ids(self) -> tuple[ArgumentId, ...]:
        return tuple(i for i, a in self.ordered if a.is_imaginary)

    def index(self, identifier: ArgumentId) -> int:
        return self._positions[identifier]

    def sub_ids(self, identifier: ArgumentId) -> tuple[ArgumentId, ...]:
        """Subargument closure as ids (index order), including the argument."""
        return self._sub_ids[identifier]

    def proper_sub_ids(self, identifier: ArgumentId) -> tuple[ArgumentId, ...]:
        """Subargument closure without the argument itself (index order)."""
        return self._proper_sub_ids[identifier]

    def super_ids(self, identifier: ArgumentId) -> frozenset[ArgumentId]:
        """Every argument whose closure contains this one, including the argument."""
        return self._super_ids[identifier]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _new_combinations(
    pools: list[list[Argument]], done: list[int], sizes: list[int]
) -> Iterator[tuple[Argument, ...]]:
    """Combinations of the first ``sizes`` members of each pool that use a
    member past the first ``done`` of its pool.

    Each is yielded once, by the position ``j`` of its first new member:
    positions before ``j`` take old members, position ``j`` a new one and
    later positions any member.  The pools may grow meanwhile.
    """
    for j in range(len(pools)):
        if done[j] < sizes[j]:
            yield from itertools.product(
                *(pool[:old] for pool, old in zip(pools[:j], done)),
                pools[j][done[j] : sizes[j]],
                *(pool[:size] for pool, size in zip(pools[j + 1 :], sizes[j + 1 :])),
            )


def build_arguments(theory: Theory) -> ArgumentSet:
    """Build every argument of the theory and assign deterministic ids.

    Rules are applied in rounds until a round adds nothing.  The
    candidate pools only grow, so each rule remembers how much of every
    pool it has combined and afterwards tries only the combinations with
    a new member (semi-naive evaluation): each such combination is tried
    once, by the position of its first new member.
    """
    imaginary = [ImaginaryArgument(literal) for literal in theory.literal_universe]
    naturals: list[Argument] = []
    # conclusion -> arguments, grown as arguments are found: the candidate pools
    by_conclusion: dict[Conclusion, list[Argument]] = {}
    for argument in imaginary:
        by_conclusion.setdefault(argument.conclusion, []).append(argument)

    def add(argument: Argument) -> None:
        found = [argument]
        conclusion = argument.conclusion
        if (
            isinstance(conclusion, DeonticLiteral)
            and conclusion.operator is DeonticOperator.OBLIGATION
        ):
            found.append(DAxiomArgument(argument))  # every obligation spawns its permission
        for new in found:
            naturals.append(new)
            by_conclusion.setdefault(new.conclusion, []).append(new)

    for literal in sorted(theory.facts, key=lambda l: l.sort_key()):
        add(FactArgument(literal))

    # equal rules would build equal arguments, so each is applied once
    rules = tuple(dict.fromkeys(theory.rules))
    # per rule, the pool sizes it has combined (None before its first visit)
    combined: list[list[int] | None] = [None] * len(rules)
    changed = True
    while changed:
        changed = False
        for r, rule in enumerate(rules):
            pools = [by_conclusion.get(element, []) for element in rule.body]
            sizes = [len(pool) for pool in pools]
            done, combined[r] = combined[r], sizes
            # the first visit tries every combination, which fires an empty body once
            combos: Iterable[tuple[Argument, ...]] = (
                itertools.product(*pools) if done is None else _new_combinations(pools, done, sizes)
            )
            for combo in combos:
                if any(rule.label in sub.tree_labels() for sub in combo):
                    continue  # label already used on a path below: blocks cyclic growth
                add(RuleApplication(rule, combo))
                changed = True

    naturals.sort(key=structural_key)
    ordered: list[tuple[ArgumentId, Argument]] = [
        (f"A{n}", argument) for n, argument in enumerate(naturals)
    ]
    ordered.extend((f"I{n + 1}", argument) for n, argument in enumerate(imaginary))
    return ArgumentSet(theory, tuple(ordered))
