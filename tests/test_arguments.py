"""Unit tests for argument construction and the argument set."""

import copy
import gc
import pickle
import tracemalloc

import pytest

from deonarg import (
    Argument,
    Rule,
    Theory,
    build_arguments,
    complete_extensions,
    compute_attacks,
    evaluate,
    lit,
    obl,
    parse_theory,
    perm,
    perm_w,
    serialize_theory,
    stable_extensions,
    verify_theorems,
    wp_extension,
)
from deonarg.arguments import _KIND_RANKS
from deonarg.cli import main
from deonarg.schema import SCHEMA, arguments_section, attacks_section, trace_section
from deonarg.semantics import SEMANTICS_NAMES
from deonarg.testkit import GeneratorParams, generate_theory, reference_arguments


def super_ids(arguments, identifier):
    """The superargument closure, by the walk up the parents index that attacks and wp read."""
    return frozenset(arguments._decode(arguments._walk(arguments.index(identifier), True, set())))


def test_two_obligation_theory_builds_exactly_six_arguments(two_obligations):
    listing = [
        (i, str(a.conclusion), a.top_rule, list(two_obligations.arguments.sub_ids(i)))
        for i, a in two_obligations.arguments
    ]
    assert listing == [
        ("A0", "obl(a)", "r1", ["A0"]),
        ("A1", "obl(~a)", "r2", ["A1"]),
        ("A2", "perm(a)", "r1", ["A0", "A2"]),
        ("A3", "perm(~a)", "r2", ["A1", "A3"]),
        ("I1", "perm_w(a)", None, ["I1"]),
        ("I2", "perm_w(~a)", None, ["I2"]),
    ]


def test_imaginary_arguments_cover_both_polarities_of_every_atom(goldens):
    for prepared in goldens.values():
        imaginary = {
            prepared.arguments.argument(i).conclusion for i in prepared.arguments.imaginary_ids()
        }
        expected = {perm_w(literal) for literal in prepared.theory.literal_universe}
        assert imaginary == expected


def test_every_obligation_argument_spawns_a_permission_argument(goldens):
    for prepared in goldens.values():
        for identifier, argument in prepared.arguments:
            conclusion = argument.conclusion
            if str(conclusion).startswith("obl("):
                derived = perm(conclusion.literal)
                partners = [
                    j
                    for j in prepared.arguments.concluders(derived)
                    if prepared.arguments.argument(j).kind == "permission-axiom"
                    and prepared.arguments.argument(j).children == (argument,)
                ]
                assert len(partners) == 1
                partner = prepared.arguments.argument(partners[0])
                assert partner.top_rule == argument.top_rule


def test_rule_bodies_may_be_satisfied_by_imaginary_arguments(chained):
    a5 = chained.arguments.argument("A5")
    assert a5.kind == "rule-application"
    assert str(a5.conclusion) == "s"
    assert list(chained.arguments.sub_ids("A5")) == ["A0", "A5", "I3"]
    assert any(c.kind == "imaginary" for c in a5.children)


def test_chained_rule_arguments_nest_their_premises(chained):
    assert list(chained.arguments.sub_ids("A10")) == ["A1", "A4", "A9", "A10"]
    a10 = chained.arguments.argument("A10")
    assert a10.height == 3


def test_rule_labels_never_repeat_on_a_root_to_leaf_path():
    theory = parse_theory("fact p.\nr1: p => q.\nr2: q => p.\n")
    arguments = build_arguments(theory)

    def path_labels_unique(argument, seen):
        if argument.kind == "rule-application":
            if argument.rule.label in seen:
                return False
            seen = seen | {argument.rule.label}
        return all(path_labels_unique(child, seen) for child in argument.children)

    naturals = [arguments.argument(i) for i in arguments.natural_ids()]
    assert all(path_labels_unique(a, frozenset()) for a in naturals)
    # fact p, r1 over it, r2 over that; a second r1 application would repeat r1
    assert len(naturals) == 3


def test_self_referential_rule_applies_once():
    theory = parse_theory("fact p.\nr1: p => p.\n")
    arguments = build_arguments(theory)
    conclusions = [str(arguments.argument(i).conclusion) for i in arguments.natural_ids()]
    assert conclusions == ["p", "p"]


def test_a_repeated_rule_builds_the_arguments_of_the_rule_once():
    theory = parse_theory("fact a.\nr1: a => obl(b).\nr2: => obl(~b).\n")
    repeated = Theory(theory.facts, theory.rules + (theory.rules[0],), theory.superiority)
    assert repeated.rules.count(theory.rules[0]) == 2
    once, twice = build_arguments(theory), build_arguments(repeated)
    assert (twice.ids, twice.rows) == (once.ids, once.rows)


def test_rules_with_underivable_bodies_produce_no_arguments():
    theory = parse_theory("r1: q => p.\n")
    arguments = build_arguments(theory)
    assert arguments.natural_ids() == ()
    assert len(arguments.imaginary_ids()) == 4


def test_facts_build_leaf_arguments(facultative_priorities):
    for identifier in ("A0", "A1", "A2"):
        argument = facultative_priorities.arguments.argument(identifier)
        assert argument.kind == "fact"
        assert argument.height == 0
        assert facultative_priorities.arguments.sub_ids(identifier) == (identifier,)


def test_sub_ids_are_index_ordered_and_include_self(goldens):
    for prepared in goldens.values():
        for identifier, _ in prepared.arguments:
            subs = prepared.arguments.sub_ids(identifier)
            assert identifier in subs
            positions = [prepared.arguments.index(s) for s in subs]
            assert positions == sorted(positions)
            assert subs.count(identifier) == 1 and len(set(subs)) == len(subs)


def test_id_lookup_round_trips(chained):
    named = {argument: identifier for identifier, argument in chained.arguments}
    for identifier, argument in chained.arguments:
        assert named[argument] == identifier
        assert chained.arguments.argument(identifier) is argument
    # an argument not in the set: its conclusion is one the set has, or one it lacks
    for stranger in (Argument("imaginary", None, lit("a")), Argument("fact", None, lit("zz"))):
        with pytest.raises(KeyError):
            named[stranger]


def test_concluders_group_arguments_by_conclusion(two_obligations):
    arguments = two_obligations.arguments
    assert arguments.concluders(obl(lit("a"))) == ("A0",)
    assert arguments.concluders(perm_w(lit("~a"))) == ("I2",)
    assert arguments.concluders(lit("zz")) == ()


def test_construction_is_deterministic_across_repeated_builds(chained):
    rebuilt = build_arguments(parse_theory(chained.text))
    assert rebuilt.ids == chained.arguments.ids
    assert [str(rebuilt.argument(i).conclusion) for i in rebuilt.ids] == [
        str(chained.arguments.argument(i).conclusion) for i in chained.arguments.ids
    ]


# values every argument stores at construction, recomputed here by plain
# recursion over the tree from their definitions


def _height(argument):
    return 1 + max(_height(c) for c in argument.children) if argument.children else 0


def _rebuild(argument):
    children = tuple(_rebuild(c) for c in argument.children)
    return Argument(argument.kind, argument.rule, argument.conclusion, children)


def test_stored_argument_values_match_their_definitions():
    corpus = [
        (seed, atoms, rules, acyclic)
        for atoms, rules in ((4, 5), (8, 14), (12, 24), (16, 40))
        for acyclic in (True, False)
        for seed in range(4)
    ]
    for seed, atoms, rules, acyclic in corpus:
        params = GeneratorParams(
            seed=seed,
            atom_count=atoms,
            rule_count=rules,
            fact_count=atoms // 2,
            acyclic=acyclic,
            inject_conflict=True,
        )
        arguments = build_arguments(generate_theory(params))
        named = {argument: identifier for identifier, argument in arguments}
        for position, (identifier, argument) in enumerate(arguments):
            assert argument.height == _height(argument)
            subs = {named[sub] for sub in argument.subarguments()}
            assert arguments.sub_ids(identifier) == tuple(sorted(subs, key=arguments.index))
            rebuilt = _rebuild(argument)
            assert rebuilt == argument and hash(rebuilt) == hash(argument)
            assert arguments.index(identifier) == position
            assert arguments.argument(identifier) is argument
            assert named[rebuilt] == identifier


def test_stored_closures_and_ids_match_their_definitions(goldens):
    sets = [prepared.arguments for prepared in goldens.values()]
    for seed in range(8):
        params = GeneratorParams(
            seed=seed, atom_count=6, rule_count=10, fact_count=3, acyclic=seed % 2 == 0
        )
        sets.append(build_arguments(generate_theory(params)))
    for arguments in sets:
        assert arguments.ids == tuple(identifier for identifier, _ in arguments)
        assert arguments.ids is arguments.ids  # stored, not rebuilt per call
        named = {argument: identifier for identifier, argument in arguments}
        closures = {
            identifier: {named[sub] for sub in argument.subarguments()}
            for identifier, argument in arguments
        }
        for identifier in arguments.ids:
            proper = closures[identifier] - {identifier}
            assert tuple(i for i in arguments.sub_ids(identifier) if i != identifier) == tuple(
                sorted(proper, key=arguments.index)
            )
            assert super_ids(arguments, identifier) == {
                other for other, closure in closures.items() if identifier in closure
            }
        for unknown in ("A-1", f"I{len(arguments) + 1}", "x"):
            with pytest.raises(KeyError):
                arguments.index(unknown)


def test_the_kinds_are_the_schema_enum_and_every_row_has_one(conflict_corpus):
    # the kind string is the one encoding of an argument's form: the table's, the
    # nodes', the id order's and the JSON output's
    enum = SCHEMA["properties"]["arguments"]["items"]["properties"]["kind"]["enum"]
    assert sorted(_KIND_RANKS) == sorted(enum)
    drawn = set()
    for case in conflict_corpus:
        arguments = build_arguments(case.theory)
        kinds = {kind for kind, _, _, _ in arguments.rows}
        assert kinds <= set(enum), kinds
        assert kinds == {argument.kind for _, argument in arguments}
        drawn |= kinds
    assert drawn == set(enum)  # the corpus draws every kind


def test_the_natural_and_imaginary_ids_are_slices_of_the_ids(goldens):
    for prepared in goldens.values():
        arguments = prepared.arguments
        assert arguments.natural_ids() == tuple(i for i, a in arguments if a.kind != "imaginary")
        assert arguments.imaginary_ids() == tuple(i for i, a in arguments if a.kind == "imaginary")


def test_a_built_table_retains_memory_linear_in_the_arguments(ladder):
    # the table stores no closure, so a chain four times as long retains at most five times
    # the memory; a stored closure per argument grows with the square of the chain
    retained = {}
    for steps in (1000, 4000):
        theory = parse_theory(ladder.chain(steps))
        gc.collect()
        tracemalloc.start()
        try:
            arguments = build_arguments(theory)
            gc.collect()
            retained[steps] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(arguments) == 3 * steps + 9
        del arguments
    assert retained[4000] <= 5 * retained[1000], retained


def test_tall_argument_sets_compare_without_recursion(ladder):
    theory = parse_theory(ladder.chain(1000))
    first, second = build_arguments(theory), build_arguments(theory)
    assert first == second and first is not second
    rules = list(theory.rules)
    rules[500] = Rule(rules[500].label, rules[500].body, lit("b"))
    changed = build_arguments(Theory(theory.facts, tuple(rules), theory.superiority))
    assert first != changed
    # the top argument is the permission of the final obligation
    top = first.argument(first.natural_ids()[-1])
    assert top.kind == "permission-axiom" and str(top.conclusion) == "perm(z)"
    assert len(top.subarguments()) == 1003


def test_an_argument_stores_only_its_fields_height_and_hash():
    slots = {slot for cls in Argument.__mro__ for slot in cls.__dict__.get("__slots__", ())}
    assert slots == {*Argument._fields, "height", "_hash"}


def test_decoding_a_tall_chain_holds_little_memory(ladder):
    # one record per argument, its children shared: nothing a node stores grows
    # with the height of the tree below it
    arguments = build_arguments(parse_theory(ladder.chain(1000)))
    assert ladder.retained_mb(lambda: arguments.ordered) < 4
    assert len(arguments.ordered) == len(arguments)


def test_hashing_a_set_or_its_graph_decodes_no_argument(ladder):
    theory = parse_theory(ladder.chain(160))
    first, second = build_arguments(theory), build_arguments(theory)
    assert hash(first) == hash(second)
    assert hash(compute_attacks(first)) == hash(compute_attacks(second))
    assert first._ordered is None and second._ordered is None
    # decoding the arguments leaves the hash as it was, and a copy hashes the same
    before = hash(first)
    assert len(first.ordered) == len(first)
    assert hash(copy.copy(first)) == hash(first) == before


def test_tall_arguments_compare_without_recursion(ladder):
    for steps in (300, 1000):
        theory = parse_theory(ladder.chain(steps))
        first, second = build_arguments(theory), build_arguments(theory)
        top, twin = (built.argument(built.natural_ids()[-1]) for built in (first, second))
        assert top is not twin and top.height == steps + 2
        assert top == twin and hash(top) == hash(twin)
        # r150 reads a_148 instead of a_149: the chain holds, one step shorter
        rules = tuple(
            Rule(rule.label, (lit("a_148"),), rule.head) if rule.label == "r150" else rule
            for rule in theory.rules
        )
        changed = build_arguments(Theory(theory.facts, rules, theory.superiority))
        other = changed.argument(changed.natural_ids()[-1])
        assert str(other.conclusion) == "perm(z)" and other.height == steps + 1
        assert top != other
    # every a_i and b_i reads both a_{i-1} and b_{i-1}: 2^40 root-to-leaf
    # paths over 82 shared subtrees, each pair compared once
    lines = ["fact a_0.", "fact b_0."]
    for i in range(1, 41):
        lines += [f"{label}{i}: a_{i - 1}, b_{i - 1} => {atom}_{i}." for label, atom in ("ra", "sb")]
    first, second = (build_arguments(parse_theory("\n".join(lines) + "\n")) for _ in range(2))
    assert first.argument(first.natural_ids()[-1]) == second.argument(second.natural_ids()[-1])


def _recursive_repr(value) -> str:
    """The record repr of a value, by recursion: an oracle for short trees."""
    if isinstance(value, Argument):
        fields = ", ".join(f"{name}={_recursive_repr(getattr(value, name))}" for name in value._fields)
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, tuple) and value and isinstance(value[0], Argument):
        shown = ", ".join(map(_recursive_repr, value))
        return f"({shown},)" if len(value) == 1 else f"({shown})"
    return repr(value)


def test_tall_arguments_show_copy_and_pickle_without_recursion(ladder):
    lines = ["fact a.", "r1: a, perm_w(~b) => obl(b).", "r2: obl(b), perm(b), a => c."]
    for text in (ladder.chain(40), ladder.fan(3), "\n".join(lines) + "\n"):
        for _, argument in build_arguments(parse_theory(text)):
            assert repr(argument) == _recursive_repr(argument)
    arguments = build_arguments(parse_theory(ladder.chain(1000)))
    top = arguments.argument(arguments.natural_ids()[-1])
    assert top.height == 1002
    text = repr(top)
    assert str(top) == text
    assert text.startswith("Argument(kind='permission-axiom', rule=Rule(label='z1', ")
    assert text.count("Argument(kind='rule-application', ") == 1001
    assert text.count("Argument(kind='fact', ") == 1
    for twin in (pickle.loads(pickle.dumps(top)), copy.deepcopy(top), copy.copy(top)):
        assert twin == top and hash(twin) == hash(top) and twin is not top
    assert twin.subarguments() == top.subarguments()
    # an argument set shows its table, whose rows hold their children's positions
    tall = build_arguments(parse_theory(ladder.chain(200)))
    assert repr(tall) == f"ArgumentSet(theory={tall.theory!r}, ids={tall.ids!r}, rows={tall.rows!r})"
    assert pickle.loads(pickle.dumps(tall)) == tall


def _theories(goldens, corpora):
    theories = [prepared.theory for prepared in goldens.values()]
    return theories + [case.theory for corpus in corpora for case in corpus]


def test_the_table_matches_the_reference_construction(
    goldens, conflict_corpus, no_superiority_corpus, oracle_corpus
):
    theories = _theories(goldens, (conflict_corpus, no_superiority_corpus, oracle_corpus))
    for seed in range(200):
        params = GeneratorParams(
            seed=seed, atom_count=4, rule_count=6, fact_count=2, acyclic=seed % 2 == 0,
            inject_conflict=True,
        )
        theories.append(generate_theory(params))
    # one-element and longer bodies take different chaining paths: cyclic and acyclic draws of both
    for max_body_len in (1, 3):
        for seed in range(40):
            params = GeneratorParams(
                seed=seed, atom_count=4, rule_count=6, fact_count=2, max_body_len=max_body_len,
                acyclic=seed % 2 == 0, inject_conflict=True,
            )
            theories.append(generate_theory(params))
    for theory in theories:
        arguments = build_arguments(theory)
        ordered, closures = reference_arguments(theory)
        assert arguments.ordered == ordered
        assert dict(zip(arguments.ids, map(tuple, arguments._closures()))) == closures
        for identifier, closure in closures.items():
            assert arguments.sub_ids(identifier) == closure
            assert arguments.sub_ids(identifier).count(identifier) == 1  # the rest are proper
            assert super_ids(arguments, identifier) == {
                other for other, found in closures.items() if identifier in found
            }


def test_the_request_path_builds_no_argument_objects(
    goldens, conflict_corpus, no_superiority_corpus, oracle_corpus, monkeypatch, runner
):
    def refuse(*args, **kwargs):
        raise AssertionError("an Argument object was built")

    theories = _theories(goldens, (conflict_corpus, no_superiority_corpus, oracle_corpus))
    with monkeypatch.context() as patch:
        patch.setattr(Argument, "__init__", refuse)
        for source in theories:
            text = serialize_theory(source)
            theory = parse_theory(text)
            arguments = build_arguments(theory)
            limit = len(arguments)
            arguments_section(arguments)
            result = runner.invoke(main, ["args", "-"], input=text)
            assert result.exit_code == 0, result.output + str(result.exception)
            for generalized in (False, True):
                graph = compute_attacks(
                    arguments, theory, imaginary_subargument_attacks=generalized
                )
                for semantics in SEMANTICS_NAMES:
                    evaluate(graph, semantics, argument_limit=limit)
                complete_extensions(graph, argument_limit=limit)
                stable_extensions(graph, argument_limit=limit)
                trace_section(wp_extension(graph))
                attacks_section(graph)
                verify_theorems(graph, argument_limit=limit)
                flag = ["--imaginary-subargument-attacks"] if generalized else []
                result = runner.invoke(main, ["attacks", "-f", "dot", *flag, "-"], input=text)
                assert result.exit_code == 0, result.output + str(result.exception)
