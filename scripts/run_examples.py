#!/usr/bin/env python3
"""Walk every bundled theory through the full pipeline and print the results.

For each theory: the argument listing, the attack table (with suppressed
records), the grounded/complete/stable extensions, the weak-permission
fixed point with its trace, the conflict diagnostics and the verifier
report.  Useful as a quick end-to-end smoke run and as a worked tour of
the engine's outputs.
"""

from __future__ import annotations

import argparse
import sys
import time

from deonarg import (
    build_arguments,
    compute_attacks,
    conflicted_literals,
    evaluate,
    facultative_status,
    justified_conclusions,
    parse_theory,
    verify_theorems,
    wp_conflicted_literals,
    wp_extension,
)
from deonarg.corpus import BUILTIN_THEORIES
from deonarg.schema import trace_section


def render_ids(members) -> str:
    ordered = sorted(members, key=lambda i: (i[0], int(i[1:])))
    return "{" + ", ".join(ordered) + "}"


def run_theory(name: str, text: str, *, generalized: bool) -> None:
    print(f"\n=== {name} " + "=" * max(0, 60 - len(name)))
    print(text.rstrip())

    theory = parse_theory(text)
    arguments = build_arguments(theory)
    graph = compute_attacks(arguments, theory, imaginary_subargument_attacks=generalized)

    print(f"\narguments ({len(arguments)}):")
    for identifier, argument in arguments:
        tag = "imaginary" if argument.kind == "imaginary" else f"natural, top rule {argument.top_rule}"
        print(f"  {identifier}: {argument.conclusion}  [{tag}]")

    ids = arguments.ids
    print(f"\nattacks ({len(graph.rows)} records, {len(graph.suppressed_rows)} suppressed):")
    for a, t, c, w in graph.rows:
        print(f"  {ids[a]} > {ids[t]}  [condition {c}, witness {ids[w]}]")
    for a, t, c, _ in graph.suppressed_rows:
        print(f"  suppressed {ids[a]} > {ids[t]}  [condition {c}]")

    for semantics in ("grounded", "complete", "stable"):
        result = evaluate(graph, semantics)
        extensions = ", ".join(render_ids(e) for e in result.extensions) or "(none)"
        print(f"\n{semantics}: {extensions}")
        names = [str(c) for c in justified_conclusions(arguments, result.justified)]
        print(f"  justified conclusions: {', '.join(names) or '(none)'}")

    ext = wp_extension(graph)
    print(f"\nweak-permission fixed point ({ext.iterations} iteration(s)):")
    for step in trace_section(ext):
        for change in step["rejected"]:
            extra = f": {', '.join(change['witnesses'])}" if change["witnesses"] else ""
            print(f"  [{step['step']}] rejected {change['argument']} ({change['clause']}{extra})")
        for change in step["justified"]:
            print(f"  [{step['step']}] justified {change['argument']} ({change['clause']})")
    print(f"  justified: {render_ids(ext.justified)}")
    print(f"  rejected:  {render_ids(ext.rejected)}")

    conflicted = conflicted_literals(arguments)
    wp_conflicted = wp_conflicted_literals(arguments, ext)
    print(f"\nconflicted literals: {', '.join(sorted(map(str, conflicted))) or '(none)'}")
    print(f"wp-conflicted literals: {', '.join(sorted(map(str, wp_conflicted))) or '(none)'}")
    conclusions = justified_conclusions(arguments, ext.justified)
    for literal in sorted(conflicted, key=lambda l: l.sort_key()):
        print(f"  {literal}: {facultative_status(literal, conclusions)}")

    checks = verify_theorems(graph)
    print("\nchecks:")
    for result in checks.results:
        print(f"  {result.name}: {result.status} ({result.detail})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help=f"theories to run (default: all of {', '.join(BUILTIN_THEORIES)})",
    )
    parser.add_argument(
        "--imaginary-subargument-attacks",
        action="store_true",
        help="let attacks on imaginary premises reach the containing arguments",
    )
    options = parser.parse_args(argv)

    unknown = [name for name in options.names if name not in BUILTIN_THEORIES]
    if unknown:
        parser.error(f"unknown theory name(s): {', '.join(unknown)}")
    names = options.names or list(BUILTIN_THEORIES)
    started = time.perf_counter()
    for name in names:
        run_theory(name, BUILTIN_THEORIES[name], generalized=options.imaginary_subargument_attacks)
    print(f"\nran {len(names)} theories in {time.perf_counter() - started:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
