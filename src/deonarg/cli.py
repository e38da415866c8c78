"""Command-line interface.

Subcommands: ``args`` (argument listing), ``eval`` (extensions and
justified conclusions), ``trace`` (weak-permission iteration log),
``attacks`` (attack table or DOT graph), ``check`` (structural
verifiers) and ``gen`` (random theory generator).

Exit codes: 0 success, 1 parse error, 2 theory validation error,
3 fixed-point invariant breach, 4 argument-limit exceeded, 5 failed
check.  ``main`` runs a command and raises ``SystemExit``; ``run``, the
process entry point, runs ``main`` and ends the process without teardown.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, NoReturn

from . import __version__
from .arguments import ArgumentSet, build_arguments
from .attacks import AttackGraph, compute_attacks
from .model import Theory, TheoryValidationError
from .parser import ParseError, parse_theory, serialize_theory
from .schema import (arguments_section, attacks_section, theory_section, trace_section,
                     write_document)
from .semantics import (
    DEFAULT_ARGUMENT_LIMIT,
    SEMANTICS_NAMES,
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


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    """Write to the current stdout (or stderr), then flush, so the two interleave in order."""
    stream = sys.stderr if err else sys.stdout
    stream.write(f"{message}\n" if nl else message)
    stream.flush()


def _load_theory(source: str) -> Theory:
    try:  # stdin decodes as files do, strict UTF-8, whatever codec the host gave it
        if source == "-" and hasattr(sys.stdin, "reconfigure"):  # a StringIO has no codec
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
        text = sys.stdin.read() if source == "-" else Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        _echo(f"error: cannot read {source}: {error}", err=True)
        sys.exit(EXIT_PARSE)
    try:
        return parse_theory(text)
    except ParseError as error:
        _echo(f"parse error: {error}", err=True)
        sys.exit(EXIT_PARSE)
    except TheoryValidationError as error:
        for violation in error.violations:
            _echo(f"validation error: {violation.message}", err=True)
        sys.exit(EXIT_VALIDATION)


def _load_graph(source: str, imaginary_subargument_attacks: bool) -> AttackGraph:
    return compute_attacks(
        build_arguments(_load_theory(source)),
        imaginary_subargument_attacks=imaginary_subargument_attacks,
    )


def _fixpoint(graph: AttackGraph, no_fixpoint_guards: bool) -> WpExtension:
    try:
        return wp_extension(graph, fixpoint_guards=not no_fixpoint_guards)
    except FixpointInvariantError as error:
        _echo(f"invariant breach: {error}", err=True)
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
    write_document(document, sys.stdout.write)
    _echo("")


def _in_order(arguments: ArgumentSet, members) -> list[str]:
    return sorted(members, key=arguments.index)


def _braced(items) -> str:
    return "{" + ", ".join(items) + "}"


def _conclusions(arguments: ArgumentSet, members) -> list[str]:
    return [str(c) for c in justified_conclusions(arguments, members)]


def _wp_result(
    arguments: ArgumentSet,
    extension: WpExtension,
    imaginary_subargument_attacks: bool,
    no_fixpoint_guards: bool,
) -> dict[str, Any]:
    return {
        "semantics": "wp",
        "justified_arguments": _in_order(arguments, extension.justified),
        "rejected_arguments": _in_order(arguments, extension.rejected),
        "justified_conclusions": _conclusions(arguments, extension.justified),
        "flags": {
            "imaginary_subargument_attacks": imaginary_subargument_attacks,
            "fixpoint_guards": not no_fixpoint_guards,
        },
    }


#: command name -> the function that runs it, and its options
_COMMANDS: dict[str, tuple[Callable[..., None], tuple]] = {}


def _option(*flags: str, **settings: Any) -> tuple:
    """One ``add_argument`` call's flags and settings; an option with a default shows it."""
    if "default" in settings:
        settings["help"] = f"{settings.get('help', '')} [default: %(default)s]".lstrip()
    return flags, settings


def _command(name: str, *options: tuple) -> Callable:
    """Register the decorated function as the subcommand ``name``; its docstring is the help."""

    def register(function: Callable[..., None]) -> Callable[..., None]:
        _COMMANDS[name] = (function, options)
        return function

    return register


class _InRange(argparse.Action):
    """Store a number in ``const``, a ``(low, high)`` pair, high None for no upper bound; one
    outside it (or nan) is a usage error naming the option.  A third member names a partner on
    one cumulative scale with it, which ``main`` checks once the parse is done."""

    def __call__(self, parser, namespace, value, option_string=None) -> None:
        low, high = self.const[:2]
        if not (low <= value and (high is None or value <= high)):
            bounds = f"x>={low}" if high is None else f"{low}<=x<={high}"
            parser.error(
                f"Invalid value for '{option_string}': {value} is not in the range {bounds}."
            )
        given = vars(namespace).setdefault("given", {})
        given.pop(option_string, None)  # in the order of each option's last value
        given[option_string] = (parser, value, self.const)
        setattr(namespace, self.dest, value)


_THEORY_ARGUMENT = _option("theory_file", metavar="THEORY", help="theory file, or - for stdin")
_TEXT_OR_JSON = _option("-f", "--format", dest="fmt", choices=["text", "json"], default="text")
_GENERALIZED_FLAG = _option(
    "--imaginary-subargument-attacks",
    action="store_true",
    help="Let obligations attack natural arguments through their imaginary "
    "subarguments (generalized reading; default targets only the imaginary "
    "argument itself).",
)
_LIMIT_OPTION = _option(
    "--argument-limit",
    type=int,
    action=_InRange,
    const=(0, None),
    default=DEFAULT_ARGUMENT_LIMIT,
    help="Refuse complete/stable enumeration above this many arguments.",
)
_GUARDS_FLAG = _option(
    "--no-fixpoint-guards",
    action="store_true",
    help="Drop the exclusion guards from the weak-permission iteration "
    "(diagnostic; breaches the disjointness invariant on some theories).",
)


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run the command in ``args`` (default ``sys.argv[1:]``); always ends in ``SystemExit``."""
    parser = argparse.ArgumentParser(
        prog=prog_name or "deonarg", description="Deontic argumentation engine.", allow_abbrev=False
    )
    parser.add_argument("--version", action="version", version=f"deonarg, version {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    args = sys.argv[1:] if args is None else list(args)
    # only the named command's parser is built; help, the version and a missing or
    # unknown command list every command, so they build them all
    for name in args[:1] if args and args[0] in _COMMANDS else _COMMANDS:
        function, options = _COMMANDS[name]
        summary = function.__doc__
        command = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        for flags, settings in options:
            command.add_argument(*flags, **settings)
        command.set_defaults(run=function)
    chosen, seen = vars(parser.parse_args(args)), {}
    # the last values of two partners, both given, may not sum above their ``high`` (alone, one
    # leaves the other's default what is left); the first pair given in full is named
    for option, (subparser, value, (_, high, *partner)) in chosen.pop("given", {}).items():
        if partner and partner[0] in seen and not value + seen[partner[0]] <= high:
            total, pair = value + seen[partner[0]], f"'{partner[0]}' plus '{option}'"
            subparser.error(f"Invalid value for {pair}: {total} is not in the range x<={high}.")
        seen[option] = value
    del chosen["command"]
    try:
        chosen.pop("run")(**chosen)
    except BrokenPipeError:  # the reader stopped early, as ``| head`` does
        _silence_stdout()
        sys.exit(1)
    sys.exit(0)


def _silence_stdout() -> None:
    """Point stdout at the null device, so that no later flush meets the closed pipe."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run() -> NoReturn:
    """Run ``main`` as a whole process: ``python -m deonarg`` and the ``deonarg`` script.

    On ``main``'s ``SystemExit`` the process ends as the interpreter would
    end it, less the teardown: a code that is neither None nor an integer is
    printed to stderr and becomes 1, the ``atexit`` callbacks run, and both
    streams are flushed (stdout into a closed pipe exits 1, as in ``main``).
    Then ``os._exit`` ends the process at once: modules and objects are not
    torn down, so no finalizer runs.  Any other exception propagates.
    """
    try:
        main()
    except SystemExit as exit_:
        code = exit_.code
    if code is not None and not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()
        code = 1
    sys.stderr.flush()
    os._exit(code or 0)


# ---------------------------------------------------------------------------
# args
# ---------------------------------------------------------------------------


@_command("args", _THEORY_ARGUMENT, _TEXT_OR_JSON)
def cmd_args(theory_file: str, fmt: str) -> None:
    """List every argument of the theory."""
    arguments = build_arguments(_load_theory(theory_file))
    if fmt == "json":
        _emit_json(arguments)
        return
    for row in arguments_section(arguments):  # its closures are built in one pass
        tag = row["kind"] if row["kind"] == "imaginary" else f"natural/{row['kind']}"
        if row["top_rule"] is not None:
            tag += f" {row['top_rule']}"
        _echo(f"{row['id']}: {row['conclusion']} [{tag}] sub={{{' '.join(row['sub'])}}}")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


@_command(
    "eval",
    _THEORY_ARGUMENT,
    _option("-s", "--semantics", choices=[*SEMANTICS_NAMES, "wp"], default="grounded"),
    _TEXT_OR_JSON,
    _GENERALIZED_FLAG,
    _LIMIT_OPTION,
    _GUARDS_FLAG,
)
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
    if semantics == "wp":
        extension = _fixpoint(graph, no_fixpoint_guards)
        result = _wp_result(arguments, extension, imaginary_subargument_attacks, no_fixpoint_guards)
    else:
        try:
            outcome = evaluate(graph, semantics, argument_limit=argument_limit)
        except ArgumentLimitExceeded as error:
            _echo(f"size limit: {error}", err=True)
            sys.exit(EXIT_SIZE)
        flags: dict[str, Any] = {"imaginary_subargument_attacks": imaginary_subargument_attacks}
        if outcome.no_extensions:
            flags["no_stable_extensions"] = True
            _echo(
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
    _echo(f"semantics: {semantics}")
    if "extensions" in result:
        _echo(f"extensions: {len(result['extensions'])}")
        for number, members in enumerate(result["extensions"], start=1):
            _echo(f"extension {number}: {_braced(members)}")
    _echo(f"justified arguments: {_braced(result['justified_arguments'])}")
    if "rejected_arguments" in result:
        _echo(f"rejected arguments: {_braced(result['rejected_arguments'])}")
    _echo(f"justified conclusions: {_braced(result['justified_conclusions'])}")


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


@_command("trace", _THEORY_ARGUMENT, _TEXT_OR_JSON, _GENERALIZED_FLAG, _GUARDS_FLAG)
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
    result = _wp_result(arguments, extension, imaginary_subargument_attacks, no_fixpoint_guards)
    if fmt == "json":
        _emit_json(arguments, graph, result=result, trace=trace_section(extension))
        return
    for step in trace_section(extension):
        _echo(f"step {step['step']}:")
        for verb in ("rejected", "justified"):
            for change in step[verb]:
                witnesses = ", ".join(change["witnesses"])
                suffix = f": {witnesses}" if witnesses else ""
                _echo(f"  {verb} {change['argument']} [{change['clause']}{suffix}]")
    _echo(f"fixpoint after {extension.iterations} step(s)")
    _echo(f"justified: {_braced(result['justified_arguments'])}")
    _echo(f"rejected: {_braced(result['rejected_arguments'])}")


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------


def _dot_graph(arguments: ArgumentSet, graph: AttackGraph) -> str:
    lines, ids = ["digraph attacks {", "  rankdir=LR;"], arguments.ids
    for identifier in ids:
        style = ", style=dashed" if arguments.kind(identifier) == "imaginary" else ""
        lines.append(
            f'  "{identifier}" [label="{identifier}: {arguments.conclusion(identifier)}"{style}];'
        )
    # the rows come in (attacker, target) order, each pair's records together
    for (attacker, target), records in groupby(graph.rows, itemgetter(0, 1)):
        conditions = ",".join(str(c) for c in sorted({row[2] for row in records}))
        lines.append(f'  "{ids[attacker]}" -> "{ids[target]}" [label="{conditions}"];')
    lines.append("}")
    return "\n".join(lines)


@_command(
    "attacks",
    _THEORY_ARGUMENT,
    _option("-f", "--format", dest="fmt", choices=["text", "json", "dot"], default="text"),
    _GENERALIZED_FLAG,
)
def cmd_attacks(theory_file: str, fmt: str, imaginary_subargument_attacks: bool) -> None:
    """Show the attack relation as a table or DOT graph."""
    graph = _load_graph(theory_file, imaginary_subargument_attacks)
    if fmt == "json":
        _emit_json(graph.arguments, graph)
        return
    if fmt == "dot":
        _echo(_dot_graph(graph.arguments, graph))
        return
    ids = graph.arguments.ids
    for identifier, targets in zip(ids, graph._targets):  # the distinct targets, in id order
        if targets:
            _echo(f"{identifier} -> {', '.join([ids[t] for t in targets])}")
    for attacker, target, condition, witness in graph.suppressed_rows:
        _echo(
            f"suppressed: {ids[attacker]} -> {ids[target]} "
            f"[condition {condition}, witness {ids[witness]}]"
        )


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@_command(
    "check", _THEORY_ARGUMENT, _TEXT_OR_JSON, _GENERALIZED_FLAG, _LIMIT_OPTION, _GUARDS_FLAG
)
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
            _echo(f"{result.name}: {result.status} ({result.detail})")
    if report.failed:
        sys.exit(EXIT_CHECK)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _count(flag: str, dest: str, default: int, minimum: int = 0) -> tuple:
    return _option(flag, dest=dest, type=int, action=_InRange, const=(minimum, None),
                   default=default, metavar="N")


def _weight(flag: str, dest: str, default: float, partner: str) -> tuple:
    return _option(flag, dest=dest, type=float, action=_InRange, const=(0, 1, partner),
                   default=default)


@_command(
    "gen",
    _option("--seed", type=int, default=0),
    _count("--atoms", "atom_count", 4, minimum=1),
    _count("--facts", "fact_count", 2),
    _count("--rules", "rule_count", 5),
    _count("--max-body", "max_body_len", 2),
    _count("--superiority", "superiority_count", 0),
    _weight("--obligation-bias", "obligation_head_bias", 0.3, "--permission-weight"),
    _weight("--permission-weight", "permission_head_weight", 0.1, "--obligation-bias"),
    _weight("--deontic-body-weight", "deontic_body_weight", 0.2, "--weak-permission-weight"),
    _weight("--weak-permission-weight", "weak_permission_body_weight", 0.15,
            "--deontic-body-weight"),
    _option("--acyclic", action="store_true", default=True),
    _option("--no-acyclic", dest="acyclic", action="store_false"),
    _option("--inject-conflict", action="store_true"),
    _option("--empty-obligation-bodies", action="store_true"),
)
def cmd_gen(**fields: Any) -> None:
    """Generate a random theory in the input language."""
    # imported here: only this command needs the generator
    from .testkit import GeneratorParams, generate_theory

    # each option is named after the generator field it sets
    _echo(serialize_theory(generate_theory(GeneratorParams(**fields))), nl=False)
