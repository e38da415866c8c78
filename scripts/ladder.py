#!/usr/bin/env python3
"""Time the public pipeline stages on a fixed ladder of theories.

Each rung is one theory.  The stages are timed one by one from outside
the engine with ``time.process_time``, each the median of ``REPEAT`` (9)
runs: ``parse`` (``parse_theory`` on the rung's text, validation
included), ``build`` (``build_arguments``), ``decode`` (reading
``ordered`` of the built set, which decodes its rows to ``Argument``
records; the records are freed between runs, outside the timing),
``attacks`` (``compute_attacks``), ``grounded``, ``complete`` and
``stable`` (the extension lists, with the argument limit raised to the
argument count), ``core`` (``semantics._stable_core``, the sceptical
stable core that the stable check reads, limit raised), ``wp``
(``wp_extension``), ``trace``
(``deonarg.schema.trace_section`` of one ``wp`` result, so that the cost
of turning the trace into records shows wherever it lies), ``sections``
(``theory_section``, ``arguments_section`` and ``attacks_section`` of the
rung's theory, argument set and attack graph, the other sections of the
JSON document), ``verify_theorems`` (the whole check on the theory,
limit raised) and ``check`` (``verify_theorems`` on the rung's attack
graph, limit raised: the checks and their engine calls, without the
build).  Each rung also records and prints the checks' own time,
``check_own``: in ``REPEAT`` more calls of ``verify_theorems`` on the
graph, alternated between the columns, the call's time less that of the
engine calls it makes (``grounded_extension``, ``_stable_core`` and
``wp_extension``), timed by wrappers installed on ``deonarg.analysis``
for those calls only; the median of these differences, and that of the
engine calls, ``engine_median_s``.

The ladder:

* ``conflicts-k``: k disjoint two-obligation conflicts ``obl(p_i)`` /
  ``obl(~p_i)``, k = 4, 8, 12; 6k arguments, 3^k complete and 2^k stable
  extensions.  ``complete`` is left out at k = 12: its 531,441
  extensions would hold over a gigabyte of sets.
* ``chain-n``: ``fact a_0`` and ``a_{i-1} => a_i`` for n steps, ending in
  an ``obl(z)`` / ``obl(~z)`` conflict, n = 160, 320, 640, 1000.
* ``fan-L``: ``fact a_0`` and three rules ``a_{i-1} => a_i`` per layer,
  for L = 6, 8, 9 layers; 3^L arguments conclude ``a_L``, 29,544
  arguments in all at L = 9, and no attacks.
* ``gen-3``: ``deonarg gen --seed 3 --atoms 32 --facts 16 --rules 100
  --inject-conflict``, 5,368 arguments; ``complete`` is left out (75,816
  extensions).  The generator's atoms are the letters a-z, so ``--atoms
  32`` gives the 26-atom theory, the one ``--atoms 26`` gives.
* ``startup``: the CLI's own cost, in fresh interpreters: the CPU of
  ``import deonarg.cli`` (``import_cli``) and of whole ``python -m
  deonarg eval -s wp -`` and ``python -m deonarg trace -f json -``
  processes on the two-obligation demo theory (``eval_wp_process`` and
  ``trace_json_process``, user plus system CPU of the child).  Each is the
  median of ``STARTUP_REPEAT`` (21) processes, run with
  ``PYTHONDONTWRITEBYTECODE`` unset after one untimed warm-up run, so they
  read current bytecode caches as an installed package does.

The results are merged into ``--out`` under the column named by
``--column``, rung by rung, so one file can hold the timings of two
checkouts.  Stages of identical code can differ by up to 2x between
processes on a shared host, so two checkouts are best compared in one
process: ``--against`` loads the ``deonarg`` package of a second
checkout beside the imported one and alternates every timed call
between the two, writing both columns (``startup`` alternates the two
checkouts' processes):

    PYTHONPATH=src python3 scripts/ladder.py --out BENCH.json --column change \
        --against <parent checkout>/src --against-column parent

Without ``--against`` each run times one checkout, the one on
``PYTHONPATH``; running the rungs (``--rungs``) of two checkouts in
alternating processes spreads the host's drift over both.

Every rung also records SHA-256 digests of its argument, attack and
trace sections (as ``deonarg.schema`` writes them), of the extension
lists and of the check report, so columns taken on different code can
be compared for identical output; ``--expect FILE`` exits 1 when a rung's
digests differ from those of any column of FILE that has the rung.  The
``sections`` stage adds no digest: its output is the argument and attack
digests' and the source text's; nor do ``core``, whose core the
``verify_theorems`` report reads, ``check``, whose report is
``verify_theorems``', and ``trace_json_process``, whose output the test
suite's CLI digests pin.  The
chain and fan rungs also record the MB that one built argument set
retains (``build_retained_mb``) and that decoding its records adds
(``decoded_retained_mb``), by ``tracemalloc``, untimed.  At the end, for
each stage and for ``check_own``, the ratio of the first column's median
to each other column's is printed (n/a unless both are above zero), then
how many of the alternated pairs of runs (run ``i`` of both columns) the
other column won, and the ratio of the minima: a median of 9 on a shared
host can swing by a third, and the pair count and minima show whether a
ratio is more than that.  Without
``--out`` nothing is written:

    PYTHONPATH=src python3 scripts/ladder.py --column ci --rungs conflicts-4 chain-160 \
        --expect BENCH_12.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import ModuleType
from typing import Callable

import deonarg
from deonarg import serialize_theory
from deonarg.corpus import TWO_OBLIGATIONS
from deonarg.testkit import GeneratorParams, generate_theory

#: runs per stage; the median is reported
REPEAT = 9

STAGES = (
    "parse", "build", "decode", "attacks", "grounded", "complete", "stable", "core", "wp",
    "trace", "sections", "verify_theorems", "check",
)

#: the engine calls ``verify_theorems`` makes, by the names ``deonarg.analysis`` calls them by
ENGINE_CALLS = ("grounded_extension", "_stable_core", "wp_extension")

#: fresh interpreters per start-up stage; the median is reported
STARTUP_REPEAT = 21

#: prints the CPU seconds that importing the CLI takes
_IMPORT_PROBE = (
    "import time; started = time.process_time(); import deonarg.cli; "
    "print(time.process_time() - started)"
)

#: start-up stage -> (child command line, its standard input)
STARTUP_STAGES: dict[str, tuple[list[str], str]] = {
    "import_cli": ([sys.executable, "-c", _IMPORT_PROBE], ""),
    "eval_wp_process": (
        [sys.executable, "-m", "deonarg", "eval", "-s", "wp", "-"],
        TWO_OBLIGATIONS,
    ),
    "trace_json_process": (
        [sys.executable, "-m", "deonarg", "trace", "-f", "json", "-"],
        TWO_OBLIGATIONS,
    ),
}


def conflicts(k: int) -> str:
    return "".join(f"c{i}: => obl(p{i}).\nd{i}: => obl(~p{i}).\n" for i in range(k))


def chain(n: int) -> str:
    lines = ["fact a_0."]
    lines += [f"r{i}: a_{i - 1} => a_{i}." for i in range(1, n + 1)]
    lines += [f"z1: a_{n} => obl(z).", "z2: => obl(~z)."]
    return "\n".join(lines) + "\n"


def fan(layers: int) -> str:
    lines = ["fact a_0."]
    lines += [f"f{i}_{k}: a_{i - 1} => a_{i}." for i in range(1, layers + 1) for k in (1, 2, 3)]
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
    "fan-6": (lambda: fan(6), frozenset()),
    "fan-8": (lambda: fan(8), frozenset()),
    "fan-9": (lambda: fan(9), frozenset()),
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


def load_checkout(src: Path, name: str) -> ModuleType:
    """Import the ``deonarg`` package under ``src`` as ``name``, beside this one."""
    package = src / "deonarg"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def stage_calls(engine: ModuleType, text: str) -> tuple[dict, dict[str, Callable], Callable]:
    """A rung's sizes and attack digest on one engine, its timed calls and id order."""
    theory = engine.parse_theory(text)
    arguments = engine.build_arguments(theory)
    limit = len(arguments)
    graph = engine.compute_attacks(arguments, theory)
    schema = importlib.import_module(f"{engine.__name__}.schema")
    semantics = importlib.import_module(f"{engine.__name__}.semantics")
    rung = {"arguments": limit, "pairs": len(graph.pairs), "stages": {}, "digests": {}}
    rung["digests"]["arguments"] = digest(schema.arguments_section(arguments))
    rung["digests"]["attacks"] = digest(schema.attacks_section(graph))
    extension = engine.wp_extension(graph)
    rung["digests"]["trace"] = digest(schema.trace_section(extension))
    calls: dict[str, Callable[[], object]] = {
        "parse": lambda: engine.parse_theory(text),
        "build": lambda: engine.build_arguments(theory),
        "decode": decode_call(arguments),
        "attacks": lambda: engine.compute_attacks(arguments, theory),
        "grounded": lambda: engine.grounded_extension(graph),
        "complete": lambda: engine.complete_extensions(graph, argument_limit=limit),
        "stable": lambda: engine.stable_extensions(graph, argument_limit=limit),
        "core": lambda: semantics._stable_core(graph, limit),
        "wp": lambda: engine.wp_extension(graph),
        "trace": lambda: schema.trace_section(extension),
        "sections": lambda: (schema.theory_section(theory), schema.arguments_section(arguments),
                             schema.attacks_section(graph)),
        "verify_theorems": lambda: engine.verify_theorems(theory, argument_limit=limit),
        "check": lambda: engine.verify_theorems(graph, argument_limit=limit),
    }
    calls["check_own"] = check_own_call(engine, graph, limit)
    return rung, calls, arguments.index


def check_own_call(engine: ModuleType, graph: object, limit: int) -> Callable[[], tuple]:
    """One ``verify_theorems(graph)`` call: its CPU seconds less its engine calls', and those.

    The engine calls are timed by wrappers on ``ENGINE_CALLS`` in the
    engine's ``analysis`` module, installed for this call only.
    """
    analysis = importlib.import_module(f"{engine.__name__}.analysis")
    spent = [0.0]

    def timed(function: Callable) -> Callable:
        def call(*args, **kwargs):
            started = time.process_time()
            try:
                return function(*args, **kwargs)
            finally:
                spent[0] += time.process_time() - started

        return call

    def check_own() -> tuple[float, float]:
        originals = {name: getattr(analysis, name) for name in ENGINE_CALLS}
        spent[0] = 0.0
        try:
            for name, function in originals.items():
                setattr(analysis, name, timed(function))
            started = time.process_time()
            engine.verify_theorems(graph, argument_limit=limit)
            total = time.process_time() - started
        finally:
            for name, function in originals.items():
                setattr(analysis, name, function)
        return total - spent[0], spent[0]

    return check_own


def decode_call(arguments: object) -> Callable[[], object]:
    """Reads the set's ``ordered``, decoded afresh on every call.

    The call empties the set's cache after reading it, so that the records
    it returns are freed with the result, after the timing, not in the next call.
    """
    cache = type(arguments)._ordered
    cache.__set__(arguments, None)

    def decode() -> object:
        ordered = arguments.ordered
        cache.__set__(arguments, None)
        return ordered

    return decode


def retained_mb(build: Callable[[], object]) -> float:
    """MB still allocated, by ``tracemalloc``, while one build's result is alive."""
    gc.collect()
    tracemalloc.start()
    result = build()  # noqa: F841  (kept alive until the memory is read)
    gc.collect()
    current = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return round(current / 1e6, 2)


def result_digest(stage: str, result: object, rung: dict, order: Callable[[str], int]) -> None:
    if stage in ("grounded", "complete", "stable"):
        found = (result,) if stage == "grounded" else result
        rung[f"{stage}_extensions"] = len(found)
        rung["digests"][stage] = digest([sorted(members, key=order) for members in found])
    elif stage == "verify_theorems":
        rung["digests"][stage] = digest([[r.name, r.status, r.detail] for r in result.results])


def child_cpu(command: list[str], stdin: str, env: dict[str, str]) -> tuple[float, str]:
    """User plus system CPU seconds of one child process, and its stdout."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    completed = subprocess.run(
        command, input=stdin, capture_output=True, text=True, env=env, check=True
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return cpu, completed.stdout


def run_startup(sources: dict[str, Path]) -> dict[str, dict]:
    """The start-up stages on every checkout (column), processes alternating between them."""
    base = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    envs = {column: {**base, "PYTHONPATH": str(src)} for column, src in sources.items()}
    columns = list(sources)
    rungs: dict[str, dict] = {column: {"stages": {}, "digests": {}} for column in columns}
    for column in columns:  # warm-up: writes each checkout's bytecode caches
        for command, stdin in STARTUP_STAGES.values():
            child_cpu(command, stdin, envs[column])
    for stage, (command, stdin) in STARTUP_STAGES.items():
        runs: dict[str, list[float]] = {column: [] for column in columns}
        for repeat in range(STARTUP_REPEAT):
            for column in columns if repeat % 2 == 0 else columns[::-1]:
                cpu, stdout = child_cpu(command, stdin, envs[column])
                if stage == "import_cli":
                    cpu = float(stdout)
                elif stage == "eval_wp_process":
                    rungs[column]["digests"][stage] = hashlib.sha256(stdout.encode()).hexdigest()
                runs[column].append(round(cpu, 6))
        for column in columns:
            median = statistics.median(runs[column])
            rungs[column]["stages"][stage] = {"median_s": median, "runs_s": runs[column]}
            print(f"  {stage:22} {column:8} {median:9.4f} s", flush=True)
    return rungs


def run_rung(name: str, engines: dict[str, ModuleType]) -> dict[str, dict]:
    """One rung on every engine (column), each timed call alternating between them."""
    make, left_out = RUNGS[name]
    text = make()
    rungs: dict[str, dict] = {}
    calls: dict[str, dict[str, Callable[[], object]]] = {}
    orders: dict[str, Callable[[str], int]] = {}
    for column, engine in engines.items():
        rungs[column], calls[column], orders[column] = stage_calls(engine, text)
    columns = list(engines)
    if name.startswith(("chain-", "fan-")):
        for column in columns:
            rung = rungs[column]
            rung["build_retained_mb"] = retained_mb(calls[column]["build"])
            rung["decoded_retained_mb"] = retained_mb(calls[column]["decode"])
            print(f"  {'retained MB':16} {column:8} {rung['build_retained_mb']:9.2f} build "
                  f"{rung['decoded_retained_mb']:9.2f} decoded")
    for stage in STAGES:
        if stage in left_out:
            continue
        runs: dict[str, list[float]] = {column: [] for column in columns}
        for repeat in range(REPEAT):
            for column in columns if repeat % 2 == 0 else columns[::-1]:
                result = None  # free the previous run's result first
                gc.collect()
                started = time.process_time()
                result = calls[column][stage]()
                runs[column].append(round(time.process_time() - started, 6))
                if repeat == REPEAT - 1:
                    result_digest(stage, result, rungs[column], orders[column])
        result = None
        for column in columns:
            median = statistics.median(runs[column])
            rungs[column]["stages"][stage] = {"median_s": median, "runs_s": runs[column]}
            print(f"  {stage:16} {column:8} {median:9.4f} s", flush=True)
    own: dict[str, list[float]] = {column: [] for column in columns}
    engine_runs: dict[str, list[float]] = {column: [] for column in columns}
    for repeat in range(REPEAT):
        for column in columns if repeat % 2 == 0 else columns[::-1]:
            gc.collect()
            checks, engine = calls[column]["check_own"]()
            own[column].append(round(checks, 6))
            engine_runs[column].append(round(engine, 6))
    for column in columns:
        median, engine = statistics.median(own[column]), statistics.median(engine_runs[column])
        rungs[column]["check_own"] = {"median_s": median, "runs_s": own[column],
                                      "engine_median_s": engine}
        print(f"  {'check own':16} {column:8} {median:9.4f} s, "
              f"{median / max(engine, 1e-6):.2f} of the engine calls' {engine:.4f} s")
    return rungs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--column", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", type=Path, help="JSON file to merge into, e.g. BENCH_8.json")
    parser.add_argument(
        "--expect", type=Path, metavar="FILE", help="exit 1 unless every digest matches FILE's"
    )
    rungs = [*RUNGS, "startup"]
    parser.add_argument("--rungs", nargs="*", choices=rungs, default=rungs)
    parser.add_argument(
        "--against",
        type=Path,
        metavar="SRC",
        help="the src directory of a second checkout, timed in this process, call by call in turn",
    )
    parser.add_argument("--against-column", default="parent", help="column name for --against")
    options = parser.parse_args(argv)

    engines = {options.column: deonarg}
    sources = {options.column: Path(deonarg.__file__).resolve().parents[1]}
    if options.against is not None:  # listed first, so the ratios read against it
        engines = {options.against_column: load_checkout(options.against, "deonarg_against")}
        engines[options.column] = deonarg
        sources = {options.against_column: options.against.resolve(), **sources}
    out = options.out
    document = json.loads(out.read_text()) if out is not None and out.exists() else {}
    document.setdefault("ladder", "scripts/ladder.py")
    document["stages"] = [*STAGES, *STARTUP_STAGES]
    columns = document.setdefault("columns", {})
    for name in engines:
        columns.setdefault(name, {"rungs": {}}).update(
            python=platform.python_version(),
            machine=platform.machine(),
            cpu=cpu_model(),
            repeat=REPEAT,
            alternated_with=[other for other in engines if other != name],
        )
    for name in options.rungs:
        print(f"{name}:", flush=True)
        measured = run_startup(sources) if name == "startup" else run_rung(name, engines)
        for column, rung in measured.items():
            columns[column]["rungs"][name] = rung
    if out is not None:
        out.write_text(json.dumps(document, indent=2) + "\n")

    first, *others = columns
    for other in others:
        print(f"\n{first} / {other} (digests; per stage the median ratio, "
              f"the pairs {other} won, the ratio of the minima):")
        for name, rung in columns[other]["rungs"].items():
            base = columns[first]["rungs"].get(name)
            if base is None:
                continue
            same = "same" if base["digests"] == rung["digests"] else "DIFFERENT"
            timings = {**rung["stages"], "check_own": rung.get("check_own")}
            held = {**base["stages"], "check_own": base.get("check_own")}
            ratios = "  ".join(
                f"{stage} {compare(held[stage], timing)}"
                for stage, timing in timings.items()
                if timing and held.get(stage)
            )
            print(f"  {name:13} {same:9} {ratios}")
    if options.expect is not None:
        return expect(options.expect, {name: columns[name] for name in engines}, options.rungs)
    return 0


def compare(base: dict, timing: dict) -> str:
    """``base`` over ``timing``: median ratio, pairs of runs won by ``timing``, ratio of minima.

    Runs of the two columns are paired by position, as they alternated; a
    column taken in another process pairs with no alternation, and the count
    then only says how the two sets of runs overlap.
    """
    pairs = list(zip(base["runs_s"], timing["runs_s"]))
    won = sum(theirs < ours for ours, theirs in pairs)
    median = ratio(base["median_s"], timing["median_s"])
    least = ratio(min(base["runs_s"]), min(timing["runs_s"]))
    return f"{median} {won}/{len(pairs)} min {least}"


def ratio(ours: float, theirs: float) -> str:
    """``ours / theirs``, or n/a unless both are above zero (a time, or a difference of times,
    below the clock's resolution)."""
    return f"{ours / theirs:.2f}x" if ours > 0 and theirs > 0 else "n/a"


def expect(path: Path, columns: dict[str, dict], rungs: list[str]) -> int:
    """1 if a measured rung's digests differ from those of any column of the file."""
    columns_held = json.loads(path.read_text())["columns"]
    expected = {column: held["rungs"] for column, held in columns_held.items()}
    problems = [
        f"{name}: {column} differs from {other}"
        for name in rungs
        for column, measured in columns.items()
        for other, held in expected.items()
        if name in held and held[name]["digests"] != measured["rungs"][name]["digests"]
    ]
    problems += [
        f"{name}: not in {path}" for name in rungs if not any(name in h for h in expected.values())
    ]
    for problem in problems:
        print(f"digest check: {problem}", file=sys.stderr)
    print(f"{len(rungs)} rung(s) checked against {path}: {'FAILED' if problems else 'same'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
