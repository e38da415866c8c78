"""Command-line interface.

Subcommands: ``args`` (argument listing), ``eval`` (extensions and
justified conclusions), ``trace`` (weak-permission iteration log),
``attacks`` (attack table or DOT graph), ``check`` (structural
verifiers) and ``gen`` (random theory generator).

Exit codes: 0 success, 1 parse error, 2 theory validation error,
3 fixed-point invariant breach, 4 argument-limit exceeded, 5 failed
check.
"""

from __future__ import annotations

import sys
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Any

import click

from . import __version__
from .arguments import ArgumentSet, build_arguments
from .attacks import AttackGraph, compute_attacks
from .model import Theory, TheoryValidationError
from .parser import ParseError, parse_theory, serialize_theory
from .schema import arguments_section, attacks_section, theory_section, trace_section
from .semantics import (
    DEFAULT_ARGUMENT_LIMIT,
    ArgumentLimitExceeded,
    evaluate,
    justified_conclusions,
)
from .wp import FixpointInvariantError, WpExtension, wp_extension

EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3
EXIT_SIZE = 4
EXIT_CHECK = 5


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _load_theory(source: str) -> Theory:
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            click.echo(f"error: cannot read {source}: {error}", err=True)
            sys.exit(EXIT_PARSE)
    try:
        return parse_theory(text)
    except ParseError as error:
        click.echo(f"parse error: {error}", err=True)
        sys.exit(EXIT_PARSE)
    except TheoryValidationError as error:
        for violation in error.violations:
            click.echo(f"validation error: {violation.message}", err=True)
        sys.exit(EXIT_VALIDATION)


def _load_graph(source: str, imaginary_subargument_attacks: bool) -> AttackGraph:
    theory = _load_theory(source)
    return compute_attacks(
        build_arguments(theory),
        theory=theory,
        imaginary_subargument_attacks=imaginary_subargument_attacks,
    )


def _fixpoint(graph: AttackGraph, no_fixpoint_guards: bool) -> WpExtension:
    try:
        return wp_extension(graph, fixpoint_guards=not no_fixpoint_guards)
    except FixpointInvariantError as error:
        click.echo(f"invariant breach: {error}", err=True)
        sys.exit(EXIT_INVARIANT)


def _emit_json(
    arguments: ArgumentSet, graph: AttackGraph | None = None, **sections: Any
) -> None:
    """Write the theory, its arguments and (given a graph) attacks, then the sections."""
    document: dict[str, Any] = {
        "theory": theory_section(arguments.theory),
        "arguments": arguments_section(arguments),
    }
    if graph is not None:
        document["attacks"] = attacks_section(graph)
    document.update(sections)
    _echo_json(document)


def _echo_json(document: dict[str, Any]) -> None:
    import json  # only the JSON formats need it

    click.echo(json.dumps(document, indent=2))


def _in_order(arguments: ArgumentSet, members) -> list[str]:
    return sorted(members, key=arguments.index)


def _braced(items) -> str:
    return "{" + ", ".join(items) + "}"


def _conclusions(arguments: ArgumentSet, members) -> list[str]:
    return [str(c) for c in justified_conclusions(arguments, members)]


def _wp_result(
    arguments: ArgumentSet, extension: WpExtension, flags: dict[str, Any]
) -> dict[str, Any]:
    return {
        "semantics": "wp",
        "justified_arguments": _in_order(arguments, extension.justified),
        "rejected_arguments": _in_order(arguments, extension.rejected),
        "justified_conclusions": _conclusions(arguments, extension.justified),
        "flags": flags,
    }


_THEORY_ARGUMENT = click.argument("theory_file", metavar="THEORY")
_TEXT_OR_JSON = click.option(
    "--format", "-f", "fmt", type=click.Choice(["text", "json"]), default="text"
)
_GENERALIZED_FLAG = click.option(
    "--imaginary-subargument-attacks",
    is_flag=True,
    help="Let obligations attack natural arguments through their imaginary "
    "subarguments (generalized reading; default targets only the imaginary "
    "argument itself).",
)
_LIMIT_OPTION = click.option(
    "--argument-limit",
    type=int,
    default=DEFAULT_ARGUMENT_LIMIT,
    show_default=True,
    help="Refuse complete/stable enumeration above this many arguments.",
)
_GUARDS_FLAG = click.option(
    "--no-fixpoint-guards",
    is_flag=True,
    help="Drop the exclusion guards from the weak-permission iteration "
    "(diagnostic; breaches the disjointness invariant on some theories).",
)


@click.group()
@click.version_option(version=__version__, prog_name="deonarg")
def main() -> None:
    """Deontic argumentation engine."""


# ---------------------------------------------------------------------------
# args
# ---------------------------------------------------------------------------


@main.command(name="args")
@_THEORY_ARGUMENT
@_TEXT_OR_JSON
def cmd_args(theory_file: str, fmt: str) -> None:
    """List every argument of the theory."""
    arguments = build_arguments(_load_theory(theory_file))
    if fmt == "json":
        _emit_json(arguments)
        return
    for identifier in arguments.ids:
        kind, top_rule = arguments.kind(identifier), arguments.top_rule(identifier)
        tag = kind if kind == "imaginary" else f"natural/{kind}"
        if top_rule is not None:
            tag += f" {top_rule}"
        subs = " ".join(arguments.sub_ids(identifier))
        click.echo(f"{identifier}: {arguments.conclusion(identifier)} [{tag}] sub={{{subs}}}")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


@main.command(name="eval")
@_THEORY_ARGUMENT
@click.option(
    "--semantics",
    "-s",
    type=click.Choice(["grounded", "complete", "stable", "wp"]),
    default="grounded",
    show_default=True,
)
@_TEXT_OR_JSON
@_GENERALIZED_FLAG
@_LIMIT_OPTION
@_GUARDS_FLAG
def cmd_eval(
    theory_file: str,
    semantics: str,
    fmt: str,
    imaginary_subargument_attacks: bool,
    argument_limit: int,
    no_fixpoint_guards: bool,
) -> None:
    """Compute extensions and sceptically justified conclusions."""
    graph = _load_graph(theory_file, imaginary_subargument_attacks)
    arguments = graph.arguments
    flags: dict[str, Any] = {
        "imaginary_subargument_attacks": imaginary_subargument_attacks,
    }
    if semantics == "wp":
        flags["fixpoint_guards"] = not no_fixpoint_guards
        result = _wp_result(arguments, _fixpoint(graph, no_fixpoint_guards), flags)
    else:
        try:
            outcome = evaluate(graph, semantics, argument_limit=argument_limit)
        except ArgumentLimitExceeded as error:
            click.echo(f"size limit: {error}", err=True)
            sys.exit(EXIT_SIZE)
        if outcome.no_extensions:
            flags["no_stable_extensions"] = True
            click.echo(
                "warning: no stable extensions; the sceptical justified set is vacuous",
                err=True,
            )
        result = {
            "semantics": semantics,
            "extensions": [_in_order(arguments, members) for members in outcome.extensions],
            "justified_arguments": _in_order(arguments, outcome.justified),
            "justified_conclusions": _conclusions(arguments, outcome.justified),
            "flags": flags,
        }
    if fmt == "json":
        _emit_json(arguments, graph, result=result)
        return
    click.echo(f"semantics: {semantics}")
    if "extensions" in result:
        click.echo(f"extensions: {len(result['extensions'])}")
        for number, members in enumerate(result["extensions"], start=1):
            click.echo(f"extension {number}: {_braced(members)}")
    click.echo(f"justified arguments: {_braced(result['justified_arguments'])}")
    if "rejected_arguments" in result:
        click.echo(f"rejected arguments: {_braced(result['rejected_arguments'])}")
    click.echo(f"justified conclusions: {_braced(result['justified_conclusions'])}")


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


@main.command(name="trace")
@_THEORY_ARGUMENT
@_TEXT_OR_JSON
@_GENERALIZED_FLAG
@_GUARDS_FLAG
def cmd_trace(
    theory_file: str,
    fmt: str,
    imaginary_subargument_attacks: bool,
    no_fixpoint_guards: bool,
) -> None:
    """Log every weak-permission iteration with reasons."""
    graph = _load_graph(theory_file, imaginary_subargument_attacks)
    arguments = graph.arguments
    extension = _fixpoint(graph, no_fixpoint_guards)
    if fmt == "json":
        flags = {
            "imaginary_subargument_attacks": imaginary_subargument_attacks,
            "fixpoint_guards": not no_fixpoint_guards,
        }
        _emit_json(
            arguments,
            graph,
            result=_wp_result(arguments, extension, flags),
            trace=trace_section(extension),
        )
        return
    for step in extension.steps:
        click.echo(f"step {step.index}:")
        for verb, changes in (
            ("rejected", step.newly_rejected),
            ("justified", step.newly_justified),
        ):
            for change in changes:
                witnesses = ", ".join(change.witnesses)
                suffix = f": {witnesses}" if witnesses else ""
                click.echo(f"  {verb} {change.argument} [{change.clause}{suffix}]")
    click.echo(f"fixpoint after {extension.iterations} step(s)")
    click.echo(f"justified: {_braced(_in_order(arguments, extension.justified))}")
    click.echo(f"rejected: {_braced(_in_order(arguments, extension.rejected))}")


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------


def _dot_graph(arguments: ArgumentSet, graph: AttackGraph) -> str:
    lines = ["digraph attacks {", "  rankdir=LR;"]
    for identifier in arguments.ids:
        style = ", style=dashed" if arguments.kind(identifier) == "imaginary" else ""
        lines.append(
            f'  "{identifier}" [label="{identifier}: {arguments.conclusion(identifier)}"{style}];'
        )
    # the edges come in (attacker, target) id order, each pair's records together
    for (attacker, target), records in groupby(
        graph.edges, attrgetter("attacker", "target")
    ):
        conditions = ",".join(str(c) for c in sorted({e.condition for e in records}))
        lines.append(f'  "{attacker}" -> "{target}" [label="{conditions}"];')
    lines.append("}")
    return "\n".join(lines)


@main.command(name="attacks")
@_THEORY_ARGUMENT
@click.option(
    "--format", "-f", "fmt", type=click.Choice(["text", "json", "dot"]), default="text"
)
@_GENERALIZED_FLAG
def cmd_attacks(
    theory_file: str, fmt: str, imaginary_subargument_attacks: bool
) -> None:
    """Show the attack relation as a table or DOT graph."""
    graph = _load_graph(theory_file, imaginary_subargument_attacks)
    if fmt == "json":
        _emit_json(graph.arguments, graph)
        return
    if fmt == "dot":
        click.echo(_dot_graph(graph.arguments, graph))
        return
    for identifier in graph.arguments.ids:
        targets = graph.targets_of(identifier)
        if targets:
            click.echo(f"{identifier} -> {', '.join(targets)}")
    for edge in graph.suppressed:
        click.echo(
            f"suppressed: {edge.attacker} -> {edge.target} "
            f"[condition {edge.condition}, witness {edge.witness}]"
        )


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@main.command(name="check")
@_THEORY_ARGUMENT
@_TEXT_OR_JSON
@_GENERALIZED_FLAG
@_LIMIT_OPTION
@_GUARDS_FLAG
def cmd_check(
    theory_file: str,
    fmt: str,
    imaginary_subargument_attacks: bool,
    argument_limit: int,
    no_fixpoint_guards: bool,
) -> None:
    """Re-verify the engine's structural guarantees on the theory."""
    from .analysis import verify_theorems  # only this command needs the analysis layer

    graph = _load_graph(theory_file, imaginary_subargument_attacks)
    report = verify_theorems(
        graph, argument_limit=argument_limit, fixpoint_guards=not no_fixpoint_guards
    )
    if fmt == "json":
        checks = [{"name": r.name, "status": r.status, "detail": r.detail} for r in report.results]
        _echo_json({"theory": theory_section(graph.arguments.theory), "checks": checks})
    else:
        for result in report.results:
            click.echo(f"{result.name}: {result.status} ({result.detail})")
    if report.failed:
        sys.exit(EXIT_CHECK)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


_COUNT = click.IntRange(min=0)


@main.command(name="gen")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--atoms", "atom_count", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--facts", "fact_count", type=_COUNT, default=2, show_default=True)
@click.option("--rules", "rule_count", type=_COUNT, default=5, show_default=True)
@click.option("--max-body", "max_body_len", type=_COUNT, default=2, show_default=True)
@click.option("--superiority", "superiority_count", type=_COUNT, default=0, show_default=True)
@click.option(
    "--obligation-bias", "obligation_head_bias", type=float, default=0.3, show_default=True
)
@click.option(
    "--permission-weight", "permission_head_weight", type=float, default=0.1, show_default=True
)
@click.option("--deontic-body-weight", type=float, default=0.2, show_default=True)
@click.option(
    "--weak-permission-weight",
    "weak_permission_body_weight",
    type=float,
    default=0.15,
    show_default=True,
)
@click.option("--acyclic/--no-acyclic", default=True, show_default=True)
@click.option("--inject-conflict", is_flag=True)
@click.option("--empty-obligation-bodies", is_flag=True)
def cmd_gen(**fields: Any) -> None:
    """Generate a random theory in the input language."""
    # imported here: only this command needs the generator
    from .testkit import GeneratorParams, generate_theory

    # each option is named after the generator field it sets
    click.echo(serialize_theory(generate_theory(GeneratorParams(**fields))), nl=False)
