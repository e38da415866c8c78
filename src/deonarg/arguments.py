"""Argument construction.

An argument has one of four kinds:

* ``imaginary``: one per literal of the atom universe, concluding the weak
  permission of that literal;
* ``fact``: one per fact;
* ``rule-application``: one per rule and per tuple of already-built
  arguments matching the rule body (forward chaining to saturation);
* ``permission-axiom``: every argument concluding ``obl(l)`` spawns one
  argument concluding ``perm(l)``.

Construction always terminates: a rule label may not occur twice on any
root-to-leaf path of an argument tree, which bounds tree depth even for
cyclic rule sets.

The built ``ArgumentSet`` is a record of its table, the theory, the ids
and the position rows, whose indexes construction fills as it writes the
rows, without building an ``Argument``; an ``Argument`` is a row with its
children decoded, made from the rows only when asked for (hash-consed:
one object per argument, children shared; Filliatre & Conchon, 2006).
"""

from __future__ import annotations

from itertools import chain, product, repeat
from typing import Iterable, Iterator, Sequence

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
# arguments
# ---------------------------------------------------------------------------


class Argument(Record):
    """One argument: a table row with its children decoded.

    ``kind`` is the argument's form as the JSON output spells it;
    ``rule`` is the rule whose label is its top rule (for a permission
    axiom, its base's rule; None for facts and imaginary arguments);
    ``children`` are its direct subarguments (one per body element, or
    the obligation base).  These are ASPIC+'s Conc, TopRule and Sub
    (Modgil & Prakken, AIJ 195, 2013).  Arguments are immutable trees.
    An argument also stores two values derived from its tree, its height
    and hash, computed once from the children's when it is constructed;
    nothing it stores grows with the tree below it.  Equality compares
    the kind, rule and conclusion down the trees, and ``repr``, pickling
    and copying walk them, all without recursion; the hash is the stored
    one.
    """

    _fields = ("kind", "rule", "conclusion", "children")
    __slots__ = (*_fields, "height", "_hash")

    def __init__(self, kind: str, rule: Rule | None, conclusion: Conclusion,
                 children: tuple[Argument, ...] = ()) -> None:
        height = 1 + max(child.height for child in children) if children else 0
        head = (height, _KIND_RANKS[kind], "" if rule is None else rule.label,
                conclusion_sort_key(conclusion))
        set_kind, set_rule, set_conclusion, set_children, set_height, set_hash = self._setters
        set_kind(self, kind)
        set_rule(self, rule)
        set_conclusion(self, conclusion)
        set_children(self, children)
        set_height(self, height)
        set_hash(self, hash((head, tuple([child._hash for child in children]))))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs, seen = [(self, other)], set()  # a shared subtree is compared once
        while pairs:  # no recursion: trees may be thousands of levels tall
            left, right = pairs.pop()
            if left is right or (id(left), id(right)) in seen:
                continue
            seen.add((id(left), id(right)))
            if left._hash != right._hash or len(left.children) != len(right.children):
                return False
            if (left.kind, left.rule, left.conclusion) != (right.kind, right.rule, right.conclusion):
                return False
            pairs.extend(zip(left.children, right.children))
        return True

    def __hash__(self) -> int:
        return self._hash

    @property
    def top_rule(self) -> str | None:
        """Label of the last rule applied; permission arguments inherit it."""
        return None if self.rule is None else self.rule.label

    def __repr__(self) -> str:  # each distinct node's text is made once, shown in its parents'
        shown: list[_Shown] = []
        for _, (*plain, children) in _flat(self):
            values = (*plain, tuple([shown[child] for child in children]))
            fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, values))
            shown.append(_Shown(f"Argument({fields})"))
        return str(shown[-1])

    def __reduce__(self) -> tuple:
        # flat, so that pickle and deepcopy do not recurse down a tall tree
        return _rebuild, ([row for _, row in _flat(self)],)

    def subarguments(self) -> frozenset[Argument]:
        """The subargument closure, including the argument itself."""
        return frozenset([node for node, _ in _flat(self)])


class _Shown(str):
    """A subtree's repr, shown as is inside its parent's."""

    __repr__ = str.__str__


def _flat(root: Argument) -> list[tuple[Argument, tuple]]:
    """The distinct nodes (by identity) of the root's tree, each after its children, with its
    row: its kind, rule, conclusion and its children's places in the list.  The root is last."""
    place: dict[int, int] = {}
    flat: list[tuple[Argument, tuple]] = []
    stack = [root]
    while stack:  # no recursion: trees may be thousands of levels tall
        node = stack[-1]
        waiting = [child for child in node.children if id(child) not in place]
        if waiting:
            stack += waiting
        elif id(stack.pop()) not in place:
            place[id(node)] = len(flat)
            children = tuple([place[id(child)] for child in node.children])
            flat.append((node, (node.kind, node.rule, node.conclusion, children)))
    return flat


def _decoded(rows: Sequence[tuple], order: Iterable[int]) -> list[Argument]:
    """One ``Argument`` per row, made in the given order, which has each row's children first."""
    made: list[Argument] = [None] * len(rows)  # type: ignore[list-item]
    for n in order:
        kind, rule, conclusion, children = rows[n]
        made[n] = Argument(kind, rule, conclusion, tuple([made[child] for child in children]))
    return made


def _rebuild(rows: list[tuple]) -> Argument:
    """The argument ``Argument.__reduce__`` flattened, built children first."""
    return _decoded(rows, range(len(rows)))[-1]


#: each kind's place in the id order and the hash; imaginary arguments are
#: numbered apart from the natural ones, and their rank orders them as children
_KIND_RANKS = {"fact": 0, "rule-application": 1, "permission-axiom": 2, "imaginary": 2}


# ---------------------------------------------------------------------------
# the built argument set
# ---------------------------------------------------------------------------

class ArgumentSet(Record):
    """All arguments of a theory with stable ids (``A0..`` natural, ``I1..`` imaginary).

    The fields are the table: the theory, the ids and the rows by position,
    ``(kind, rule, conclusion, children)``: the argument's kind, the rule
    whose label is its top rule (None for facts and imaginary arguments),
    its conclusion and its children's positions.  Equality, hash and
    ``repr`` are ``Record``'s, on these three fields, so none decodes an
    argument or recurses into a tree; a copy or a pickle reruns
    ``build_arguments`` on the theory.  It is the constructor's one
    caller and fills the indexes, positions by id, rows by conclusion,
    each row's parents and ``natural`` (the natural count), once, as it
    writes the rows: the natural rows, each after its natural children,
    then the imaginary rows as one block, so the imaginary rows, then the
    natural ones, come children first.  No index is larger than the table:
    closures are walks of the children or of the parents index, and the
    id-keyed views decode or slice the ids.
    The ``ordered`` pairs hold the rows decoded to ``Argument`` objects,
    made when first read and then kept, so an argument is always one object.
    """

    _fields = ("theory", "ids", "rows")
    __slots__ = (*_fields, "_ordered", "_positions", "_by_conclusion", "_parents", "natural")

    def __init__(self, theory: Theory, ids: tuple[ArgumentId, ...], rows: tuple[tuple, ...],
                 by_conclusion: dict, parents: dict[int, list[int]], natural: int) -> None:
        positions = {identifier: n for n, identifier in enumerate(ids)}
        parents = tuple(map(parents.get, range(len(rows)), repeat(())))
        values = (theory, ids, rows, None, positions, by_conclusion, parents, natural)
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __reduce__(self) -> tuple:
        return build_arguments, (self.theory,)

    @property
    def ordered(self) -> tuple[tuple[ArgumentId, Argument], ...]:
        """``(id, Argument)`` pairs in id order, decoded from the rows once."""
        if self._ordered is None:  # children first: the imaginary rows, then the natural ones
            size, natural = len(self.rows), self.natural
            made = _decoded(self.rows, chain(range(natural, size), range(natural)))
            ArgumentSet._ordered.__set__(self, tuple(zip(self.ids, made)))
        return self._ordered

    def __iter__(self) -> Iterator[tuple[ArgumentId, Argument]]:
        return iter(self.ordered)

    def __len__(self) -> int:
        return len(self.ids)

    def _decode(self, positions: Iterable[int]) -> tuple[ArgumentId, ...]:
        return tuple(map(self.ids.__getitem__, positions))

    def _walk(self, n: int, up: bool, seen: set[int]) -> list[int]:
        """``n`` and the positions below it (its subarguments), or above it with ``up``, that
        are not in ``seen``, a set closed in that direction, to which the walk adds them."""
        rows, parents, reached, stack = self.rows, self._parents, [], [n]
        while stack:
            k = stack.pop()
            if k not in seen:
                seen.add(k)
                reached.append(k)
                stack += parents[k] if up else rows[k][3]
        return reached

    def _closures(self) -> list[list[ArgumentId]]:
        """Every row's subargument closure as ids in position order, built in one pass children
        first: for the outputs that print them all, at their size."""
        rows, ids, index = self.rows, self.ids, self._positions.__getitem__
        subs = [[name] for name in ids]
        for n in chain(range(self.natural, len(rows)), range(self.natural)):
            children = rows[n][3]
            if len(children) == 1 and index(subs[children[0]][-1]) < n:  # most rows: n after
                subs[n] = subs[children[0]] + subs[n]  # the child's closure, as in a chain
            elif children:
                subs[n] = sorted({ids[n]}.union(*[subs[child] for child in children]), key=index)
        return subs

    def argument(self, identifier: ArgumentId) -> Argument:
        return self.ordered[self._positions[identifier]][1]

    def kind(self, identifier: ArgumentId) -> str:
        """The argument's kind, as the JSON output spells it."""
        return self.rows[self._positions[identifier]][0]

    def conclusion(self, identifier: ArgumentId) -> Conclusion:
        return self.rows[self._positions[identifier]][2]

    def concluders(self, conclusion: Conclusion) -> tuple[ArgumentId, ...]:
        """Ids of every argument with the given conclusion."""
        return self._decode(self._by_conclusion.get(conclusion, ()))

    def natural_ids(self) -> tuple[ArgumentId, ...]:
        return self.ids[: self.natural]

    def imaginary_ids(self) -> tuple[ArgumentId, ...]:
        return self.ids[self.natural :]

    #: an id's position: the position dict's own lookup, no Python call per sort key
    index = property(lambda self: self._positions.__getitem__)

    def sub_ids(self, identifier: ArgumentId) -> tuple[ArgumentId, ...]:
        """Subargument closure as ids (index order), including the argument."""
        return self._decode(sorted(self._walk(self._positions[identifier], False, set())))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_arguments(theory: Theory) -> ArgumentSet:
    """Build every argument of the theory as a table row and assign deterministic ids.

    Rules are applied in rounds until a round adds nothing.  The
    candidate pools (rows by conclusion) only grow, so each rule
    remembers how much of every pool it has combined and afterwards tries
    only the combinations with a new member (semi-naive evaluation): each
    such combination is tried once, by the position of its first new
    member.  A combination whose rule-label bitset holds the rule's own
    label is skipped.  The natural ids follow the structural key, ``(height,
    kind rank, top rule, conclusion key, children's keys)``, ranked one
    height at a time: a row's key holds its children's ranks in place of
    their keys.  The imaginary rows rank last at height 0, in universe order, so
    they take those ranks without a key.  No ``Argument`` object is built.
    """
    universe = theory.literal_universe
    imaginary = len(universe)
    # rows in the order found, the imaginary ones first:
    # (kind, rule, conclusion, children, height, label bitset)
    found: list[tuple] = [("imaginary", None, n, (), 0, 0) for n in range(imaginary)]
    # conclusions as indexes into ``pools``, the rows by conclusion (the candidate pools)
    weak = DeonticOperator.WEAK_PERMISSION
    interned = {DeonticLiteral(weak, literal): n for n, literal in enumerate(universe)}
    pools: list[list[int]] = [[n] for n in range(imaginary)]

    def intern(conclusion: Conclusion) -> int:
        index = interned.setdefault(conclusion, len(pools))
        if index == len(pools):
            pools.append([])
        return index

    for literal in sorted(theory.facts, key=Literal.sort_key):
        conclusion = intern(literal)
        pools[conclusion].append(len(found))
        found.append(("fact", None, conclusion, (), 0, 0))

    # equal rules would build equal arguments, so each is applied once (the
    # rules are sorted by label, so equal ones are neighbours)
    rules = theory.rules
    bits: dict[str, int] = {}
    plans = []  # per rule: its body's pools, label bit, head and the head's permission
    for k, rule in enumerate(rules):
        if k and rule.label == rules[k - 1].label and rule in rules[:k]:
            continue
        head, permission = rule.head, None  # every obligation spawns its permission
        if head.__class__ is DeonticLiteral and head.operator is DeonticOperator.OBLIGATION:
            permission = intern(DeonticLiteral(DeonticOperator.PERMISSION, head.literal))
        body = [pools[intern(element)] for element in rule.body]
        plans.append((rule, body, bits.setdefault(rule.label, 1 << len(bits)), intern(head),
                      permission))
    # per rule, how much of its pools it has combined: a one-element body's pool size, other
    # bodies' pool sizes (None before the first visit)
    combined: list[int | list[int] | None] = [0 if len(plan[1]) == 1 else None for plan in plans]
    changed = True
    while changed:
        changed = False
        for r, (rule, body, own, head, permission) in enumerate(plans):
            done = combined[r]
            if len(body) == 1:  # most rules: one combination per new member
                pool = body[0]
                if done == len(pool):
                    continue
                combined[r] = len(pool)
                combos = [((sub,), found[sub][5], found[sub][4]) for sub in pool[done:]]
            else:  # the first visit tries every combination, which fires an empty body once;
                # later ones each combination with a new member once, by the position j of its
                # first new member: old members before j, a new one at j and any member after j
                sizes = [*map(len, body)]
                if done == sizes:
                    continue  # no pool has a new member
                combined[r] = sizes
                combos = []
                for children in product(*body) if done is None else chain.from_iterable([
                    product(*[pool[:old] for pool, old in zip(body[:j], done)], body[j][old:size],
                            *[pool[:size] for pool, size in zip(body[j + 1:], sizes[j + 1:])])
                    for j, (old, size) in enumerate(zip(done, sizes)) if old < size
                ]):
                    below, top = 0, -1
                    for sub in children:
                        _, _, _, _, level, labels = found[sub]
                        below |= labels
                        top = max(top, level)
                    combos.append((children, below, top))
            for children, below, top in combos:
                if below & own:
                    continue  # label already used on a path below: blocks cyclic growth
                n = len(found)
                pools[head].append(n)
                found.append(("rule-application", rule, head, children, top + 1, below | own))
                if permission is not None:  # a permission argument shares its base's labels
                    pools[permission].append(n + 1)
                    found.append(("permission-axiom", rule, permission, (n,), top + 2,
                                  below | own))
                changed = True

    # rank-compressed structural keys, one height at a time; a level of one
    # row needs no key, and a conclusion's key is made when first needed
    conclusions = list(interned)
    keys: dict[int, tuple] = {}

    def key(n: int) -> tuple:
        kind, rule, conclusion, children, _, _ = found[n]
        if conclusion not in keys:
            keys[conclusion] = conclusion_sort_key(conclusions[conclusion])
        return (_KIND_RANKS[kind], rule.label if rule else "", keys[conclusion],
                tuple([rank[child] for child in children]))

    levels: dict[int, list[int]] = {}
    for n in range(imaginary, len(found)):
        levels.setdefault(found[n][4], []).append(n)
    # the imaginary rows rank after the natural ones of height 0, before all others
    rank = [0] * len(found)
    ground = len(levels.get(0, ()))
    rank[:imaginary] = range(ground, ground + imaginary)
    order: list[int] = []  # the natural rows in key order
    for height in sorted(levels):
        if len(levels[height]) > 1:
            levels[height].sort(key=key)
        for n in levels[height]:
            rank[n] = len(order) + (height and imaginary)  # ranks only follow the key's order
            order.append(n)
    count = len(order)
    where = [*range(count, count + imaginary), *[0] * count]  # the imaginary rows go last
    # the rows, their parents and each conclusion's positions, a row after its children
    rows, parents, held = [], {}, [[] for _ in conclusions]
    for position, n in enumerate(order):
        where[n] = position
        kind, rule, conclusion, children, _, _ = found[n]
        children = tuple(map(where.__getitem__, children))
        for child in children:
            parents.setdefault(child, []).append(position)
        held[conclusion].append(position)
        rows.append((kind, rule, conclusions[conclusion], children))
    for n in range(imaginary):
        held[n].append(count + n)
        rows.append(("imaginary", None, conclusions[n], ()))
    ids = (*[f"A{n}" for n in range(count)], *[f"I{n}" for n in range(1, imaginary + 1)])
    return ArgumentSet(theory, ids, tuple(rows), {c: p for c, p in zip(conclusions, held) if p},
                       parents, count)
