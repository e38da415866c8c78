"""Acceptability semantics over an attack graph.

Implements grounded, complete and stable extensions on the
post-suppression attack relation, the sceptical notion of a justified
argument (member of every extension under the chosen semantics), and
conflict-freeness: ``_clashing`` on positions, which ``wp_extension``
and ``verify_theorems`` call, wrapped on ids by ``is_conflict_free``.

The grounded extension is computed by labelling propagation over the
graph's attacker and target position tuples (Modgil & Caminada, "Proof
theories and algorithms for abstract argumentation frameworks", 2009).

Complete and stable extensions are enumerated SCC-recursively (Baroni,
Giacomin & Guida, AIJ 2005).  An argument in no attack either way is IN
in every complete extension, so it goes straight into a constant base
and is never searched.  The others fall into parts (arguments joined by
no chain of attacks either way fall in different parts), labelled one
part at a time.  A part's strongly connected components, found over the
same tuples by Kosaraju's two passes (Sharir, 1981), come out in
topological order and are labelled IN, OUT or UNDEC in it, each
conditioned on the labels of its upstream attackers.  The part's partial
labellings are held transposed, as columns with one bit per labelling,
so a singleton component costs a few ORs and ANDs of its attackers'
columns.  A larger component is searched, with constraint propagation,
on bitmasks of its own members, once per distinct way its upstream
attackers constrain it; a member is retested only when one of its
attackers is newly attacked.  Stable extensions are searched directly,
with UNDEC forbidden in every component, not filtered from the complete.

Parts with one labelling fold into the base.  The sceptical answers are
read from this factorised form without building the product: an
extension exists only if every part has one, the stable core is the
union of the per-part intersections (the members IN in every live row of
the columns), and the complete core is the grounded extension.  Only the
extension lists build the product, sorted by size, then by member
positions, through one additive integer key per labelling of a part.
The enumeration refuses to start when the whole graph has more than
``argument_limit`` arguments, because the worst case is exponential.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Sequence

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
# set predicates
# ---------------------------------------------------------------------------


def _clashing(graph: AttackGraph, members: set[int], touching: Iterable[int]) -> set[int]:
    """Positions in ``members`` that attack, or are attacked by, a member in ``touching``:
    every conflict of the set when ``touching`` is ``members``, and every new one when it holds
    the members just added, as ``wp_extension`` passes them."""
    clash: set[int] = set()
    for member in touching:
        targets, attackers = graph._targets[member], graph._attackers[member]
        if not (members.isdisjoint(targets) and members.isdisjoint(attackers)):
            clash.add(member)
            clash.update(members.intersection(targets), members.intersection(attackers))
    return clash


def is_conflict_free(graph: AttackGraph, members: Iterable[str]) -> bool:
    """True when no member of the set attacks another member (or itself); an id the graph's
    arguments do not hold raises ``KeyError``."""
    chosen = set(map(graph.arguments.index, members))
    return not _clashing(graph, chosen, chosen)


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


def _components(
    members: Sequence[int], attackers: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Strongly connected components of one part, each after every component attacking it.

    Kosaraju's two passes (Sharir, 1981): an iterative depth-first pass
    along target edges lists the part's arguments by finishing time;
    then, latest-finished first, each unplaced argument collects its
    component along attacker edges, so the list is in topological order.
    """
    seen: set[int] = set()
    finished: list[int] = []
    for root in members:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(targets[root]))]  # (argument, targets not yet visited)
        while work:
            v, pending = work[-1]
            for w in pending:
                if w not in seen:
                    seen.add(w)
                    if not seen.issuperset(targets[w]):
                        work.append((w, iter(targets[w])))
                        break
                    finished.append(w)  # nothing new to visit: it finishes at once
            else:
                work.pop()
                finished.append(v)
    components: list[list[int]] = []
    for root in reversed(finished):
        if root in seen:  # unplaced: ``seen`` now holds the arguments not yet placed
            seen.remove(root)
            component = [root]
            for k in component:  # grows while it is read
                for a in attackers[k]:
                    if a in seen:
                        seen.remove(a)
                        component.append(a)
            components.append(component)
    return components


def _attacked_by(mask: int, targets: Sequence[int]) -> int:
    """The union of ``targets`` over the set bits of a component's mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= targets[low.bit_length() - 1]
        mask ^= low
    return acc


def _component_labellings(
    attackers: Sequence[int],
    targets: Sequence[int],
    forced_out: int,
    barred: int,
    stable: bool,
) -> list[tuple[int, int]]:
    """IN and UNDEC masks of one component's complete (or stable) labellings.

    The masks are over the component's own members, and ``attackers``
    and ``targets`` hold only the attacks inside it.  ``forced_out``
    members have an IN attacker upstream; ``barred`` (a superset) also
    holds members with an UNDEC attacker upstream, which can never be
    IN.  Every other member's upstream attackers are all OUT.

    The search decides each member in or out of the IN set.  It starts
    from ``barred``, and a member entering the IN set puts its attackers
    and targets out, so no open member is attacked or attacks an IN
    member.  Two consequences propagate before branching: members whose
    attackers are all attacked are committed, and a branch dies when an
    attacker of a committed member can no longer be attacked.  With
    ``stable`` a branch also dies when an excluded member can no longer
    be attacked, since no member may be UNDEC.  Leaves are checked
    against the exact definition inside the component, so the
    propagation only has to be sound.  An explicit stack keeps the depth
    flat.
    """
    own = (1 << len(attackers)) - 1
    found: list[tuple[int, int]] = []
    # per node: the IN and the decided members, those attacked (forced out or by an IN one),
    # the IN ones' attackers, and those to test for commitment: whose attacker was newly
    # attacked (each member has an attacker inside, so none is committed before)
    stack = [(0, barred, forced_out, 0, _attacked_by(forced_out, targets))]
    while stack:
        in_mask, out_mask, attacked, threats, scan = stack.pop()
        while scan:
            bit = scan & -scan
            scan ^= bit
            k = bit.bit_length() - 1
            if (in_mask | out_mask) & bit or attackers[k] & ~attacked:
                continue
            in_mask |= bit
            out_mask |= (attackers[k] | targets[k]) & ~bit
            scan |= _attacked_by(targets[k] & ~attacked, targets)
            attacked |= targets[k]
            threats |= attackers[k]
        unattacked = threats & ~attacked  # members that must end attacked
        if stable:
            unattacked |= out_mask & ~attacked
        while unattacked:  # the branch dies at one that no open member can attack
            bit = unattacked & -unattacked
            if attackers[bit.bit_length() - 1] & ~out_mask == 0:
                break
            unattacked ^= bit
        if unattacked:
            continue
        pending = own & ~(in_mask | out_mask)
        if pending:
            bit = pending & -pending
            k = bit.bit_length() - 1
            stack.append((in_mask, out_mask | bit, attacked, threats, 0))
            conflicts = attackers[k] | targets[k]
            if not conflicts & (in_mask | bit):
                stack.append((in_mask | bit, out_mask | conflicts, attacked | targets[k],
                              threats | attackers[k],
                              _attacked_by(targets[k] & ~attacked, targets)))
            continue
        undecided = own & ~(in_mask | attacked)
        defended = own & ~_attacked_by(own & ~attacked, targets)  # inside attackers all OUT
        if (
            in_mask == defended & ~barred
            and not in_mask & attacked
            and not (stable and undecided)
        ):
            found.append((in_mask, undecided))
    return found


def _label_part(
    components: list[list[int]], attackers: Sequence[Sequence[int]], stable: bool
) -> tuple[dict[int, int], int]:
    """Every complete (or stable) labelling of one part, as its IN columns and live rows.

    The part's partial labellings are held transposed: ``inn[k]`` has
    bit r set when labelling (row) r labels argument k IN, ``und[k]``
    when it labels it UNDEC; rows outside ``alive`` are dead, and none is
    live when the part has no labelling.  The
    components are labelled in topological order.  A singleton's columns
    are a few ORs and ANDs over its attackers' columns.  A larger
    component splits the live rows by the labels of its upstream
    attackers, searches once per distinct split, and, when a split has
    several labellings, copies every column once per labelling: block b
    of the rows takes each split's labelling b.
    """
    inn: dict[int, int] = {}
    und: dict[int, int] = {}
    rows = alive = full = 1  # ``full``: every row
    for component in components:
        if len(component) == 1:  # one consistent label, no branching
            k = component[0]
            found = attackers[k]
            inn[k] = und[k] = hit = undecided = 0
            for a in found:
                hit |= inn[a]
                undecided |= und[a]
            if k in found:  # UNDEC unless an attacker is IN
                undecided = full
            inn[k] = full & ~(hit | undecided)
            undecided &= ~hit
            if not stable:
                und[k] = undecided
            elif undecided:  # no stable row labels k UNDEC
                alive &= ~undecided
                if not alive:
                    return inn, 0
            continue
        local = {k: c for c, k in enumerate(component)}
        inside_attackers = [0] * len(component)
        inside_targets = [0] * len(component)
        upstream: dict[int, int] = {}  # attacker outside -> the members it attacks
        for c, k in enumerate(component):
            for a in attackers[k]:
                j = local.get(a)
                if j is None:
                    upstream[a] = upstream.get(a, 0) | 1 << c
                else:
                    inside_attackers[c] |= 1 << j
                    inside_targets[j] |= 1 << c
        split = {(0, 0): alive}  # (forced_out, barred) -> live rows
        for a, hit in upstream.items():
            refined: dict[tuple[int, int], int] = {}
            for (forced_out, barred), live in split.items():
                for key, part in (((forced_out | hit, barred | hit), live & inn[a]),
                                  ((forced_out, barred | hit), live & und[a]),
                                  ((forced_out, barred), live & ~(inn[a] | und[a]))):
                    if part:
                        refined[key] = refined.get(key, 0) | part
            split = refined
        labelled = [
            (live, _component_labellings(inside_attackers, inside_targets, *key, stable))
            for key, live in split.items()
        ]
        copies = max(len(choices) for _, choices in labelled)
        if not copies:
            return inn, 0
        if copies > 1:
            spread = ((1 << copies * rows) - 1) // ((1 << rows) - 1)  # a bit per block of rows
            for columns in (inn, und):
                for k in columns:
                    columns[k] *= spread
        alive = 0
        for k in component:
            inn[k] = und[k] = 0
        for live, choices in labelled:
            for b, (chosen, undecided) in enumerate(choices):
                block = live << b * rows
                alive |= block
                for c, k in enumerate(component):
                    if chosen >> c & 1:
                        inn[k] |= block
                    elif undecided >> c & 1:
                        und[k] |= block
        rows *= copies
        full = (1 << rows) - 1
    return inn, alive


class _Factors(Record):
    """Complete (or stable) extensions factorised over the parts of a graph.

    Every extension is ``base`` joined with the IN members of one live
    row of each part in ``choices``: ``base`` holds the arguments in no
    attack and the IN members of the parts with one labelling, ``choices``
    the IN columns and live rows (``_label_part``'s) of every other part.
    """

    __slots__ = _fields = ("ids", "base", "choices")


def _factorise(graph: AttackGraph, argument_limit: int, stable: bool) -> _Factors | None:
    """Labellings of every part, or None when some part has no extension.

    Arguments in no attack go straight into the base.  No attack crosses
    parts, so a set is complete (stable) exactly when its members in each
    part are complete (stable) there.  Each component's labellings are
    exact given its upstream labels (the search checks its leaves), so
    their composition in topological order is exact (SCC-recursiveness).
    """
    count = len(graph.arguments)
    if count > argument_limit:
        raise ArgumentLimitExceeded(count, argument_limit)
    attackers, targets = graph._attackers, graph._targets
    seen = [False] * count
    base: list[int] = []
    choices: list[tuple[dict[int, int], int]] = []
    for root in range(count):
        if seen[root]:
            continue
        if not attackers[root] and not targets[root]:
            base.append(root)
            continue
        seen[root] = True
        members = [root]
        for k in members:  # grows while it is read
            for j in attackers[k] + targets[k]:
                if not seen[j]:
                    seen[j] = True
                    members.append(j)
        inn, alive = _label_part(_components(members, attackers, targets), attackers, stable)
        if not alive:
            return None
        if alive & (alive - 1):  # two live rows or more
            choices.append((inn, alive))
        else:
            base += [k for k, column in inn.items() if column & alive]
    return _Factors(graph.arguments.ids, base, tuple(choices))


def _core(factors: _Factors) -> frozenset[str]:
    """Members of every extension: the union of the per-part intersections, the members IN
    in every live row, read off the columns."""
    core = set(factors.base)
    for inn, alive in factors.choices:
        core.update([k for k, column in inn.items() if column & alive == alive])
    ids = factors.ids
    return frozenset([ids[k] for k in core])


def _product(factors: _Factors) -> tuple[frozenset[str], ...]:
    """Every extension, by size and then by sorted member positions.

    Of two sets of one size, the one holding the least position in only
    one of them sorts first, which is the order of their masks with the
    bits reversed, taken descending.  Each part's choice is keyed once
    by its size shifted above its reversed mask, less that mask; parts
    are disjoint, so an extension's key is the sum of its choices' keys.
    The base is in every extension, so the key leaves it out.
    """
    ids, width = factors.ids, len(factors.ids)
    keys, members = [], []
    for inn, alive in factors.choices:
        chosen_by: list[list[int]] = [[] for _ in range(alive.bit_length())]  # by row
        for k, column in inn.items():
            column &= alive
            while column:
                low = column & -column
                chosen_by[low.bit_length() - 1].append(k)
                column ^= low
        labellings = [chosen for r, chosen in enumerate(chosen_by) if alive >> r & 1]
        part_keys = []
        for chosen in labellings:
            reversed_mask = bytearray(b"0" * width)  # position k weighs 2**(width - 1 - k)
            for k in chosen:
                reversed_mask[k] = 49  # "1"
            part_keys.append((len(chosen) << width) - int(reversed_mask, 2))
        ordered = sorted(zip(part_keys, labellings))  # so the product comes nearly sorted
        keys.append([key for key, _ in ordered])
        members.append([frozenset([ids[k] for k in chosen]) for _, chosen in ordered])
    keyed = sorted(
        zip(map(sum, itertools.product(*keys)), itertools.product(*members)),
        key=operator.itemgetter(0),
    )
    common = frozenset([ids[k] for k in factors.base])
    return tuple(common.union(*picked) for _, picked in keyed)


def complete_extensions(
    graph: AttackGraph, *, argument_limit: int = DEFAULT_ARGUMENT_LIMIT
) -> tuple[frozenset[str], ...]:
    factors = _factorise(graph, argument_limit, stable=False)
    return () if factors is None else _product(factors)


def stable_extensions(
    graph: AttackGraph, *, argument_limit: int = DEFAULT_ARGUMENT_LIMIT
) -> tuple[frozenset[str], ...]:
    """Complete extensions that attack every outside argument.

    Searched directly: no component may take an UNDEC label.
    """
    factors = _factorise(graph, argument_limit, stable=True)
    return () if factors is None else _product(factors)


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
