#!/usr/bin/env python3
"""Time the public pipeline stages on a fixed ladder of theories.

Each rung is one theory.  The stages are timed one by one from outside
the engine with ``time.process_time``, each the median of ``REPEAT`` (5)
runs: ``build`` (``build_arguments``), ``attacks`` (``compute_attacks``),
``grounded``, ``complete`` and ``stable`` (the extension lists, with the
argument limit raised to the argument count), ``wp`` (``wp_extension``)
and ``verify_theorems`` (the whole check on the theory, limit raised).

The ladder:

* ``conflicts-k``: k disjoint two-obligation conflicts ``obl(p_i)`` /
  ``obl(~p_i)``, k = 4, 8, 12; 6k arguments, 3^k complete and 2^k stable
  extensions.  ``complete`` is left out at k = 12: its 531,441
  extensions would hold over a gigabyte of sets.
* ``chain-n``: ``fact a_0`` and ``a_{i-1} => a_i`` for n steps, ending in
  an ``obl(z)`` / ``obl(~z)`` conflict, n = 160, 320, 640, 1000.
* ``gen-3``: ``deonarg gen --seed 3 --atoms 32 --facts 16 --rules 100
  --inject-conflict``, 5,368 arguments; ``complete`` is left out (75,816
  extensions).

The results are merged into ``--out`` under the column named by
``--column``, rung by rung, so one file can hold the timings of two
checkouts; running them rung by rung (``--rungs``) in alternation
spreads the host's drift over both:

    PYTHONPATH=<parent checkout>/src python3 scripts/ladder.py --out BENCH.json --column parent
    PYTHONPATH=src python3 scripts/ladder.py --out BENCH.json --column change

Every rung also records SHA-256 digests of the extension lists and of the
check report, so columns taken on different code can be compared for
identical output.  The ratios of each column's medians against the first
column are printed at the end.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

from deonarg import (
    build_arguments,
    complete_extensions,
    compute_attacks,
    grounded_extension,
    parse_theory,
    serialize_theory,
    stable_extensions,
    verify_theorems,
    wp_extension,
)
from deonarg.testkit import GeneratorParams, generate_theory

#: runs per stage; the median is reported
REPEAT = 5

STAGES = ("build", "attacks", "grounded", "complete", "stable", "wp", "verify_theorems")


def conflicts(k: int) -> str:
    return "".join(f"c{i}: => obl(p{i}).\nd{i}: => obl(~p{i}).\n" for i in range(k))


def chain(n: int) -> str:
    lines = ["fact a_0."]
    lines += [f"r{i}: a_{i - 1} => a_{i}." for i in range(1, n + 1)]
    lines += [f"z1: a_{n} => obl(z).", "z2: => obl(~z)."]
    return "\n".join(lines) + "\n"


def generated() -> str:
    params = GeneratorParams(
        seed=3, atom_count=32, fact_count=16, rule_count=100, inject_conflict=True
    )
    return serialize_theory(generate_theory(params))


#: rung name -> (theory text factory, stages left out)
RUNGS: dict[str, tuple[Callable[[], str], frozenset[str]]] = {
    "conflicts-4": (lambda: conflicts(4), frozenset()),
    "conflicts-8": (lambda: conflicts(8), frozenset()),
    "conflicts-12": (lambda: conflicts(12), frozenset({"complete"})),
    "chain-160": (lambda: chain(160), frozenset()),
    "chain-320": (lambda: chain(320), frozenset()),
    "chain-640": (lambda: chain(640), frozenset()),
    "chain-1000": (lambda: chain(1000), frozenset()),
    "gen-3": (generated, frozenset({"complete"})),
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            return next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or "unknown"


def digest(value: object) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def timed(function: Callable[[], object]) -> tuple[list[float], object]:
    runs: list[float] = []
    for _ in range(REPEAT):
        result = None  # free the previous run's result first
        gc.collect()
        started = time.process_time()
        result = function()
        runs.append(round(time.process_time() - started, 6))
    return runs, result


def run_rung(name: str) -> dict:
    make, left_out = RUNGS[name]
    theory = parse_theory(make())
    arguments = build_arguments(theory)
    limit = len(arguments)
    graph = compute_attacks(arguments, theory)
    order = arguments.index
    calls: dict[str, Callable[[], object]] = {
        "build": lambda: build_arguments(theory),
        "attacks": lambda: compute_attacks(arguments, theory),
        "grounded": lambda: grounded_extension(graph),
        "complete": lambda: complete_extensions(graph, argument_limit=limit),
        "stable": lambda: stable_extensions(graph, argument_limit=limit),
        "wp": lambda: wp_extension(graph),
        "verify_theorems": lambda: verify_theorems(theory, argument_limit=limit),
    }
    rung: dict = {"arguments": len(arguments), "pairs": len(graph.pairs), "stages": {}}
    digests: dict[str, str] = {}
    for stage in STAGES:
        if stage in left_out:
            continue
        runs, result = timed(calls[stage])
        rung["stages"][stage] = {"median_s": statistics.median(runs), "runs_s": runs}
        if stage in ("grounded", "complete", "stable"):
            found = (result,) if stage == "grounded" else result
            rung[f"{stage}_extensions"] = len(found)
            digests[stage] = digest([sorted(members, key=order) for members in found])
        elif stage == "verify_theorems":
            digests[stage] = digest([[r.name, r.status, r.detail] for r in result.results])
        print(f"  {stage:16} {statistics.median(runs):9.4f} s", flush=True)
    rung["digests"] = digests
    return rung


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--column", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to merge into, e.g. BENCH_8.json")
    parser.add_argument("--rungs", nargs="*", choices=list(RUNGS), default=list(RUNGS))
    options = parser.parse_args(argv)

    document = json.loads(options.out.read_text()) if options.out.exists() else {}
    document.setdefault("ladder", "scripts/ladder.py")
    document["stages"] = list(STAGES)
    columns = document.setdefault("columns", {})
    column = columns.setdefault(options.column, {"rungs": {}})
    column.update(
        python=platform.python_version(),
        machine=platform.machine(),
        cpu=cpu_model(),
        repeat=REPEAT,
    )
    for name in options.rungs:
        print(f"{name}:", flush=True)
        column["rungs"][name] = run_rung(name)
    options.out.write_text(json.dumps(document, indent=2) + "\n")

    first, *others = columns
    for other in others:
        print(f"\n{first} / {other} (median ratio, digests):")
        for name, rung in columns[other]["rungs"].items():
            base = columns[first]["rungs"].get(name)
            if base is None:
                continue
            same = "same" if base["digests"] == rung["digests"] else "DIFFERENT"
            ratios = "  ".join(
                f"{stage} {base['stages'][stage]['median_s'] / max(timing['median_s'], 1e-6):.2f}x"
                for stage, timing in rung["stages"].items()
                if stage in base["stages"]
            )
            print(f"  {name:13} {same:9} {ratios}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
