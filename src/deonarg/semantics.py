"""Acceptability semantics over an attack graph.

Implements grounded, complete and stable extensions on the
post-suppression attack relation, plus the sceptical notion of a
justified argument (member of every extension under the chosen
semantics).

The grounded extension is computed by labelling propagation over the
graph's attacker and target position tuples (Modgil & Caminada, "Proof
theories and algorithms for abstract argumentation frameworks", 2009).
Complete and stable extensions are enumerated SCC-recursively (Baroni,
Giacomin & Guida, AIJ 2005): the strongly connected components, found
over the same tuples, are labelled IN, OUT or UNDEC in topological
order, each conditioned on the labels of its upstream attackers, by a
backtracking search with constraint propagation inside the component.
A singleton component has one consistent label and needs no search.
Stable extensions are searched directly, with UNDEC forbidden in every
component, rather than filtered from the complete ones.  The search
alone runs on bitmasks of graph positions, which ``_factorise`` builds
from the tuples once per call.

The labellings are kept per part (arguments joined by no attack either
way fall in different parts), and each part's labellings are checked
once against the exact definition over that part's members.  Parts with
one labelling fold into a constant base.  The sceptical answers are read
from this factorised form without building the product: an extension
exists only if every part has one, the stable core is the union of the
per-part intersections, and the complete core is the grounded extension.
Only the extension lists build the product, decoded by walking set bits
and sorted by size, then by member positions.  The enumeration refuses
to start when the whole graph has more than ``argument_limit``
arguments, because the worst case is exponential.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import AbstractSet, Container, Iterable, Iterator, Sequence

from .arguments import ArgumentSet
from .attacks import AttackGraph
from .model import Conclusion, Record, conclusion_sort_key

# ---------------------------------------------------------------------------
# configuration and errors
# ---------------------------------------------------------------------------

DEFAULT_ARGUMENT_LIMIT = 24

SEMANTICS_NAMES = ("grounded", "complete", "stable")


class ArgumentLimitExceeded(Exception):
    """Raised when an extension enumeration would be too large to run."""

    def __init__(self, count: int, limit: int) -> None:
        super().__init__(
            f"theory produces {count} arguments, above the enumeration "
            f"limit of {limit}; raise the limit to force the search"
        )
        self.count = count
        self.limit = limit


# ---------------------------------------------------------------------------
# bitmask internals
# ---------------------------------------------------------------------------


def _attacked_by(mask: int, targets: Sequence[int]) -> int:
    acc = 0
    while mask:
        low = mask & -mask
        acc |= targets[low.bit_length() - 1]
        mask ^= low
    return acc


def _defended(attacked: int, targets: Sequence[int], own: int) -> int:
    """Members of ``own`` that no member of ``own`` outside ``attacked``
    attacks: those whose attackers in ``own`` are all in ``attacked``
    (for the complete and stable search and its part check)."""
    return own & ~_attacked_by(own & ~attacked, targets)


def _masks(index: Sequence[Sequence[int]]) -> list[int]:
    """One bitmask per position of an attacker or target tuple index."""
    return [sum(1 << j for j in found) if found else 0 for found in index]


def _positions(mask: int) -> list[int]:
    """Positions of the set bits, lowest first, one step per set bit.

    The binary string is scanned by ``str.find``: stripping the low bit
    of a wide int instead costs a pass over all its digits per bit.
    """
    bits = bin(mask)[:1:-1]
    found = []
    k = bits.find("1")
    while k >= 0:
        found.append(k)
        k = bits.find("1", k + 1)
    return found


def _to_ids(mask: int, ids: tuple[str, ...]) -> frozenset[str]:
    return frozenset(ids[k] for k in _positions(mask))


# ---------------------------------------------------------------------------
# set predicates
# ---------------------------------------------------------------------------


def _clashing(graph: AttackGraph, members: Container[int], touching: Iterable[int]) -> set[int]:
    """Positions in ``members`` that attack, or are attacked by, a member in ``touching``.

    ``wp_extension`` passes the members it just added: any new conflict involves one of them."""
    clash: set[int] = set()
    for member in touching:
        for target in graph._targets[member]:
            if target in members:
                clash.update((member, target))
        for attacker in graph._attackers[member]:
            if attacker in members:
                clash.update((attacker, member))
    return clash


def conflicting_members(graph: AttackGraph, members: AbstractSet[str]) -> tuple[str, ...]:
    """Members that attack, or are attacked by, a member of the set, in id order."""
    positions = graph.arguments._positions
    chosen = {positions[member] for member in members if member in positions}
    return graph.arguments._decode(sorted(_clashing(graph, chosen, chosen)))


def is_conflict_free(graph: AttackGraph, members: Iterable[str]) -> bool:
    """True when no member of the set attacks another member (or itself)."""
    return not conflicting_members(graph, frozenset(members))


def is_admissible(graph: AttackGraph, members: Iterable[str]) -> bool:
    """Conflict-free and every attacker of a member is counter-attacked."""
    chosen = frozenset(members)
    if not is_conflict_free(graph, chosen):
        return False
    attacked = {
        target for member in chosen for target in graph.targets_of(member)
    }
    return all(
        attacker in attacked
        for member in chosen
        for attacker in graph.attackers_of(member)
    )


# ---------------------------------------------------------------------------
# grounded semantics
# ---------------------------------------------------------------------------


def grounded_extension(graph: AttackGraph) -> frozenset[str]:
    """Least fixpoint of the characteristic function, by labelling propagation.

    An argument is IN once every attacker is OUT, and OUT once an attacker
    is IN; the rest are UNDEC.  ``pending`` counts the attackers not yet
    OUT, so each attack is read at most twice: as its attacker turns IN
    and as it turns OUT.
    """
    attackers, targets = graph._attackers, graph._targets
    pending = [len(found) for found in attackers]
    out = [False] * len(pending)
    accepted = [k for k, count in enumerate(pending) if not count]
    for k in accepted:  # grows while it is read
        for t in targets[k]:
            if out[t]:
                continue
            out[t] = True
            for u in targets[t]:
                pending[u] -= 1
                if not pending[u]:
                    accepted.append(u)
    ids = graph.arguments.ids
    return frozenset([ids[k] for k in accepted])


# ---------------------------------------------------------------------------
# complete and stable semantics
# ---------------------------------------------------------------------------


def _components(attackers: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components, each after every component attacking it.

    Iterative Tarjan that follows attacker edges: a component is emitted
    only once every component upstream of it has been, so the list is in
    topological order.  Successors are read from the attacker tuples.
    """
    n = len(attackers)
    order = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    work: list[tuple[int, Iterator[int]]] = []  # (argument, attackers not yet visited)
    components: list[list[int]] = []
    counter = itertools.count()

    def enter(v: int) -> None:
        order[v] = low[v] = next(counter)
        stack.append(v)
        on_stack[v] = True
        work.append((v, iter(attackers[v])))

    for root in range(n):
        if order[root] >= 0:
            continue
        enter(root)
        while work:
            v, pending = work[-1]
            w = next(pending, -1)
            if w >= 0:
                if order[w] < 0:
                    enter(w)
                elif on_stack[w]:
                    low[v] = min(low[v], order[w])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == order[v]:
                members: list[int] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                components.append(sorted(members))
    return components


def _parts(attackers: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]) -> list[int]:
    """Part number of every argument; arguments joined by attacks share one."""
    part = [-1] * len(attackers)
    count = 0
    for root in range(len(attackers)):
        if part[root] >= 0:
            continue
        part[root] = count
        todo = [root]
        while todo:
            k = todo.pop()
            for j in attackers[k] + targets[k]:
                if part[j] < 0:
                    part[j] = count
                    todo.append(j)
        count += 1
    return part


def _component_labellings(
    attackers: Sequence[int],
    targets: Sequence[int],
    own: int,
    forced_out: int,
    barred: int,
    stable: bool,
) -> list[tuple[int, int]]:
    """IN and UNDEC masks of one component's complete (or stable) labellings.

    ``own`` is the component's mask; the search reads only the attacks
    inside it.  ``forced_out`` members have an IN attacker upstream;
    ``barred`` (a superset) also holds members with an UNDEC attacker
    upstream, which can never be IN.  Every other member's upstream
    attackers are all OUT.

    The search decides each member in or out of the IN set and
    propagates three consequences before branching: attacked members
    are excluded, members whose attackers are all attacked are
    committed, and a branch dies when an attacker of a committed member
    can no longer be attacked.  With ``stable`` a branch also dies when
    an excluded member can no longer be attacked, since no member may
    be UNDEC.  Leaves are checked against the exact definition inside
    the component, so the propagation only has to be sound.  An
    explicit stack keeps the depth flat.
    """
    found: list[tuple[int, int]] = []
    stack = [(0, barred)]
    while stack:
        in_mask, out_mask = stack.pop()
        alive = True
        changed = True
        while alive and changed:
            changed = False
            attacked = forced_out | _attacked_by(in_mask, targets)
            scan = own & ~(in_mask | out_mask)
            while scan:
                bit = scan & -scan
                scan ^= bit
                k = bit.bit_length() - 1
                if (in_mask | out_mask) & bit:
                    continue
                if attacked & bit:
                    out_mask |= bit
                    changed = True
                elif attackers[k] & own & ~attacked == 0:
                    if targets[k] & in_mask:
                        alive = False
                        break
                    in_mask |= bit
                    out_mask |= (attackers[k] | targets[k]) & own & ~bit
                    changed = True
            if not alive or changed:
                continue
            unattacked = own & _attacked_by(in_mask, attackers) & ~attacked
            if stable:
                unattacked |= out_mask & ~attacked
            while unattacked:
                bit = unattacked & -unattacked
                unattacked ^= bit
                if attackers[bit.bit_length() - 1] & own & ~out_mask == 0:
                    alive = False
                    break
        if not alive:
            continue
        pending = own & ~(in_mask | out_mask)
        if pending:
            bit = pending & -pending
            k = bit.bit_length() - 1
            stack.append((in_mask, out_mask | bit))
            conflicts = (attackers[k] | targets[k]) & own
            if not conflicts & (in_mask | bit):
                stack.append((in_mask | bit, out_mask | conflicts))
            continue
        attacked = forced_out | _attacked_by(in_mask, targets)
        undecided = own & ~(in_mask | attacked)
        if (
            in_mask == _defended(attacked, targets, own) & ~barred
            and not in_mask & attacked
            and not (stable and undecided)
        ):
            found.append((in_mask, undecided))
    return found


def _label_component(
    members: list[int],
    attackers: Sequence[int],
    targets: Sequence[int],
    partial: list[tuple[int, int]],
    stable: bool,
) -> list[tuple[int, int]]:
    """Extend every partial labelling (IN and UNDEC masks) over one component.

    The partial labellings already label every argument upstream of the
    component.  A component's own labellings depend only on the labels
    of its upstream attackers, so they are computed once per distinct
    combination of those labels.
    """
    own = sum(1 << k for k in members)
    upstream = functools.reduce(operator.or_, (attackers[k] for k in members)) & ~own
    extended: list[tuple[int, int]] = []
    if len(members) == 1:  # one consistent label, no branching
        self_attacking = attackers[members[0]] & own
        for in_mask, undec_mask in partial:
            if upstream & in_mask:
                extended.append((in_mask, undec_mask))
            elif self_attacking or upstream & undec_mask:
                if not stable:
                    extended.append((in_mask, undec_mask | own))
            else:
                extended.append((in_mask | own, undec_mask))
        return extended
    memo: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for in_mask, undec_mask in partial:
        key = (in_mask & upstream, undec_mask & upstream)
        choices = memo.get(key)
        if choices is None:
            forced_out = own & _attacked_by(key[0], targets)
            barred = forced_out | own & _attacked_by(key[1], targets)
            choices = memo[key] = _component_labellings(
                attackers, targets, own, forced_out, barred, stable
            )
        for chosen, undecided in choices:
            extended.append((in_mask | chosen, undec_mask | undecided))
    return extended


def _is_extension(mask: int, targets: Sequence[int], full: int, stable: bool) -> bool:
    """Complete over the ``full`` members (conflict-free and equal to the set
    of them it defends); with ``stable`` also attacking every other one."""
    attacked = _attacked_by(mask, targets)
    return (
        not mask & attacked
        and mask == _defended(attacked, targets, full)
        and not (stable and (mask | attacked) != full)
    )


class _Factors(Record):
    """Complete (or stable) extensions factorised over the parts of a graph.

    Every extension is ``base`` joined with one IN mask of each tuple in
    ``choices``: ``base`` holds the members chosen by the parts with
    exactly one labelling, and ``choices`` the IN masks of every part
    with more than one.
    """

    __slots__ = _fields = ("ids", "base", "choices")


def _factorise(graph: AttackGraph, argument_limit: int, stable: bool) -> _Factors | None:
    """Labellings of every part, or None when some part has no extension.

    Components are labelled in topological order, each extending the
    partial labellings of the arguments upstream of it.  Arguments of
    different parts (joined by no chain of attacks either way) are
    labelled independently.  No attack crosses parts, so a set is
    complete (stable) exactly when its members in each part are complete
    (stable) there: each part's labellings are checked once against the
    exact definition, over that part's members.
    """
    count = len(graph.arguments)
    if count > argument_limit:
        raise ArgumentLimitExceeded(count, argument_limit)
    part = _parts(graph._attackers, graph._targets)
    attackers, targets = _masks(graph._attackers), _masks(graph._targets)
    labellings: dict[int, list[tuple[int, int]]] = {}
    for members in _components(graph._attackers):
        owner = part[members[0]]
        labellings[owner] = _label_component(
            members, attackers, targets, labellings.get(owner, [(0, 0)]), stable
        )
    owned = [0] * len(labellings)
    for k, owner in enumerate(part):
        owned[owner] |= 1 << k
    base = 0
    choices: list[tuple[int, ...]] = []
    for owner, partial in labellings.items():
        full = owned[owner]
        found = tuple(
            in_mask for in_mask, _ in partial if _is_extension(in_mask, targets, full, stable)
        )
        if not found:
            return None
        if len(found) == 1:
            base |= found[0]
        else:
            choices.append(found)
    return _Factors(graph.arguments.ids, base, tuple(choices))


def _core(factors: _Factors) -> frozenset[str]:
    """Members of every extension: the union of the per-part intersections."""
    core = factors.base
    for masks in factors.choices:
        core |= functools.reduce(operator.and_, masks)
    return _to_ids(core, factors.ids)


def _product(factors: _Factors) -> tuple[frozenset[str], ...]:
    """Every extension, by size and then by sorted member positions.

    The base is in every extension, and of two sets of one size the one
    holding the least position in only one of them sorts first; that
    position is never a base member, so the key leaves the base out.
    """
    ids, base, choices = factors.ids, factors.base, factors.choices
    decoded = [
        [(positions, frozenset(ids[k] for k in positions)) for positions in map(_positions, masks)]
        for masks in choices
    ]
    keyed = []
    for picked in itertools.product(*decoded):
        positions = sorted(itertools.chain.from_iterable(p for p, _ in picked))
        keyed.append(((len(positions), positions), picked))
    keyed.sort(key=operator.itemgetter(0))
    common = _to_ids(base, ids)
    return tuple(common.union(*(members for _, members in picked)) for _, picked in keyed)


def _extensions(
    graph: AttackGraph, argument_limit: int, stable: bool
) -> tuple[frozenset[str], ...]:
    factors = _factorise(graph, argument_limit, stable)
    return () if factors is None else _product(factors)


def complete_extensions(
    graph: AttackGraph, *, argument_limit: int = DEFAULT_ARGUMENT_LIMIT
) -> tuple[frozenset[str], ...]:
    return _extensions(graph, argument_limit, stable=False)


def stable_extensions(
    graph: AttackGraph, *, argument_limit: int = DEFAULT_ARGUMENT_LIMIT
) -> tuple[frozenset[str], ...]:
    """Complete extensions that attack every outside argument.

    Searched directly: no component may take an UNDEC label.
    """
    return _extensions(graph, argument_limit, stable=True)


def _stable_core(graph: AttackGraph, argument_limit: int) -> frozenset[str] | None:
    """Arguments in every stable extension, or None when there is none.

    Read from the per-part labellings without building their product:
    a stable extension exists only when every part has one, and the
    core is the union of the per-part intersections.
    """
    factors = _factorise(graph, argument_limit, stable=True)
    return None if factors is None else _core(factors)


# ---------------------------------------------------------------------------
# evaluation report
# ---------------------------------------------------------------------------


class SemanticsResult(Record):
    """Extensions under one semantics plus the sceptical core.

    ``justified`` holds the arguments in every extension.  When the
    stable semantics admits no extension at all, the sceptical
    intersection is vacuous: ``justified`` then contains every argument
    and ``no_extensions`` is set so callers can flag the degenerate
    case instead of trusting it.
    """

    __slots__ = _fields = ("semantics", "extensions", "justified", "no_extensions")
    _defaults = {"no_extensions": False}


def evaluate(
    graph: AttackGraph,
    semantics: str = "grounded",
    *,
    argument_limit: int = DEFAULT_ARGUMENT_LIMIT,
) -> SemanticsResult:
    if semantics not in SEMANTICS_NAMES:
        raise ValueError(
            f"unknown semantics {semantics!r}; expected one of {SEMANTICS_NAMES}"
        )
    if semantics == "grounded":
        extension = grounded_extension(graph)
        return SemanticsResult("grounded", (extension,), extension)
    if semantics == "complete":
        # the least complete extension is the grounded one (Dung, AIJ 1995)
        extensions = complete_extensions(graph, argument_limit=argument_limit)
        return SemanticsResult("complete", extensions, grounded_extension(graph))
    factors = _factorise(graph, argument_limit, stable=True)
    if factors is None:
        return SemanticsResult("stable", (), frozenset(graph.arguments.ids), no_extensions=True)
    return SemanticsResult("stable", _product(factors), _core(factors))


def justified_conclusions(
    arguments: ArgumentSet, justified: Iterable[str]
) -> tuple[Conclusion, ...]:
    """Distinct conclusions of the justified arguments, in display order."""
    seen = {arguments.conclusion(identifier) for identifier in justified}
    return tuple(sorted(seen, key=conclusion_sort_key))
