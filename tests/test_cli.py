"""End-to-end tests for the command-line interface."""

import ast
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import deonarg
from deonarg import __version__, parse_theory, serialize_theory
from deonarg.cli import main
from deonarg.corpus import BUILTIN_THEORIES
from deonarg.schema import validate_document
from deonarg.testkit import GeneratorParams, generate_theory


@pytest.fixture()
def theory_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.theory"
        path.write_text(BUILTIN_THEORIES[name])
        return str(path)

    return write


def run_ok(runner, *argv, **kwargs):
    result = runner.invoke(main, list(argv), **kwargs)
    assert result.exit_code == 0, result.output + str(result.exception)
    return result


# ---------------------------------------------------------------------------
# argument listing
# ---------------------------------------------------------------------------


def test_args_lists_every_argument_with_kind_and_subarguments(runner, theory_file):
    result = run_ok(runner, "args", theory_file("two-obligations"))
    assert result.output == (
        "A0: obl(a) [natural/rule-application r1] sub={A0}\n"
        "A1: obl(~a) [natural/rule-application r2] sub={A1}\n"
        "A2: perm(a) [natural/permission-axiom r1] sub={A0 A2}\n"
        "A3: perm(~a) [natural/permission-axiom r2] sub={A1 A3}\n"
        "I1: perm_w(a) [imaginary] sub={I1}\n"
        "I2: perm_w(~a) [imaginary] sub={I2}\n"
    )


def test_args_reads_standard_input(runner):
    result = run_ok(runner, "args", "-", input="fact p.\n")
    assert result.output.splitlines() == [
        "A0: p [natural/fact] sub={A0}",
        "I1: perm_w(p) [imaginary] sub={I1}",
        "I2: perm_w(~p) [imaginary] sub={I2}",
    ]


def test_args_on_an_empty_theory_prints_nothing(runner):
    result = run_ok(runner, "args", "-", input="")
    assert result.output == ""


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_defaults_to_grounded_semantics(runner, theory_file):
    result = run_ok(runner, "eval", theory_file("two-obligations"))
    assert result.output == (
        "semantics: grounded\n"
        "extensions: 1\n"
        "extension 1: {}\n"
        "justified arguments: {}\n"
        "justified conclusions: {}\n"
    )


def test_eval_stable_lists_every_extension(runner, theory_file):
    result = run_ok(runner, "eval", theory_file("two-obligations"), "-s", "stable")
    assert result.output == (
        "semantics: stable\n"
        "extensions: 2\n"
        "extension 1: {A0, A2, I1}\n"
        "extension 2: {A1, A3, I2}\n"
        "justified arguments: {}\n"
        "justified conclusions: {}\n"
    )


def test_eval_wp_reports_both_fixed_point_sets(runner, theory_file):
    result = run_ok(runner, "eval", theory_file("two-obligations"), "-s", "wp")
    assert result.output == (
        "semantics: wp\n"
        "justified arguments: {I1, I2}\n"
        "rejected arguments: {A0, A1, A2, A3}\n"
        "justified conclusions: {perm_w(a), perm_w(~a)}\n"
    )


def test_eval_warns_when_no_stable_extension_exists(runner, tmp_path):
    path = tmp_path / "t.theory"
    path.write_text("r1: perm_w(p) => obl(~p).\n")
    result = run_ok(
        runner, "eval", str(path), "-s", "stable", "--imaginary-subargument-attacks"
    )
    assert "no stable extensions" in result.stderr
    assert "extensions: 0" in result.output
    assert "justified arguments: {A0, A1, I1, I2}" in result.output


def test_eval_json_documents_validate_against_the_schema(runner, theory_file):
    for semantics in ("grounded", "complete", "stable", "wp"):
        result = run_ok(
            runner, "eval", theory_file("facultative"), "-s", semantics, "-f", "json"
        )
        document = json.loads(result.stdout)
        validate_document(document)
        assert document["result"]["semantics"] == semantics
        emitted = {a["id"] for a in document["arguments"]}
        for extension in document["result"].get("extensions", []):
            assert set(extension) <= emitted


def test_eval_json_records_the_no_stable_flag(runner, tmp_path):
    path = tmp_path / "t.theory"
    path.write_text("r1: perm_w(p) => obl(~p).\n")
    result = run_ok(
        runner, "eval", str(path), "-s", "stable", "--imaginary-subargument-attacks",
        "-f", "json",
    )
    document = json.loads(result.stdout)
    validate_document(document)
    assert document["result"]["flags"]["no_stable_extensions"] is True
    assert document["result"]["flags"]["imaginary_subargument_attacks"] is True


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_prints_each_step_with_clause_and_witnesses(runner, theory_file):
    result = run_ok(runner, "trace", theory_file("two-obligations"))
    assert result.output == (
        "step 1:\n"
        "  rejected A0 [attacker-supported: A1]\n"
        "  rejected A1 [attacker-supported: A0]\n"
        "  rejected A2 [attacker-supported: A1]\n"
        "  rejected A3 [attacker-supported: A0]\n"
        "step 2:\n"
        "  justified I1 [attackers-all-rejected: A1]\n"
        "  justified I2 [attackers-all-rejected: A0]\n"
        "fixpoint after 2 step(s)\n"
        "justified: {I1, I2}\n"
        "rejected: {A0, A1, A2, A3}\n"
    )


def test_trace_json_validates_and_mirrors_the_text_steps(runner, theory_file):
    result = run_ok(runner, "trace", theory_file("chained-obligations"), "-f", "json")
    document = json.loads(result.stdout)
    validate_document(document)
    assert [step["step"] for step in document["trace"]] == [1, 2, 3]
    first = document["trace"][0]
    assert {c["argument"] for c in first["rejected"]} == {
        "A1", "A2", "A4", "A6", "A7", "A9", "A10",
    }


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------


def test_attacks_text_groups_targets_by_attacker(runner, theory_file):
    result = run_ok(runner, "attacks", theory_file("support-undercut"))
    assert result.output == "A1 -> A2, A5\nA2 -> A1, A4, I4\n"


def test_attacks_text_reports_suppressed_records(runner, theory_file):
    result = run_ok(runner, "attacks", theory_file("facultative"))
    assert "suppressed: A6 -> A5 [condition 3, witness A5]" in result.output


def test_attacks_dot_output_dashes_imaginary_nodes(runner, theory_file):
    result = run_ok(runner, "attacks", theory_file("two-obligations"), "-f", "dot")
    assert result.output.startswith("digraph attacks {")
    assert '"I1" [label="I1: perm_w(a)", style=dashed]' in result.output
    assert '"A0" -> "I2" [label="1"]' in result.output
    assert result.output.rstrip().endswith("}")


def test_attacks_json_validates_against_the_schema(runner, theory_file):
    result = run_ok(runner, "attacks", theory_file("facultative"), "-f", "json")
    document = json.loads(result.stdout)
    validate_document(document)
    assert len(document["attacks"]["suppressed"]) == 5


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_passes_on_a_clean_theory(runner, theory_file):
    result = run_ok(runner, "check", theory_file("chained-obligations"))
    lines = result.output.splitlines()
    assert len(lines) == 6
    assert all(": pass (" in line for line in lines)


def test_check_exits_five_on_a_failing_verifier(runner, tmp_path):
    path = tmp_path / "t.theory"
    path.write_text("r1: => obl(~p).\nr2: perm_w(p) => s.\n")
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 5
    assert "grounded-subset-of-wp-justified: fail" in result.output


def test_check_json_validates_against_the_schema(runner, theory_file):
    result = run_ok(runner, "check", theory_file("facultative"), "-f", "json")
    document = json.loads(result.stdout)
    validate_document(document)
    assert {c["status"] for c in document["checks"]} == {"pass", "skipped"}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_gen_is_deterministic_and_parseable(runner):
    first = run_ok(runner, "gen", "--seed", "11", "--superiority", "2")
    second = run_ok(runner, "gen", "--seed", "11", "--superiority", "2")
    assert first.output == second.output
    parse_theory(first.output)


def test_gen_honours_conflict_injection(runner):
    from deonarg import build_arguments, conflicted_literals

    result = run_ok(runner, "gen", "--seed", "5", "--inject-conflict")
    theory = parse_theory(result.output)
    assert conflicted_literals(build_arguments(theory))


@pytest.mark.parametrize(
    "option, value",
    [("--atoms", "0"), ("--atoms", "-1"), ("--facts", "-1"), ("--rules", "-1"),
     ("--max-body", "-1"), ("--superiority", "-1")],
)
def test_gen_rejects_out_of_range_counts_with_a_usage_error(runner, option, value):
    result = runner.invoke(main, ["gen", option, value])
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert not isinstance(result.exception, (IndexError, ValueError))


@pytest.mark.parametrize(
    "option", ["--obligation-bias", "--permission-weight", "--deontic-body-weight",
               "--weak-permission-weight"],
)
def test_gen_rejects_a_weight_outside_zero_to_one_with_a_usage_error(runner, option):
    for value, shown in (("2.0", "2.0"), ("-1", "-1.0"), ("nan", "nan")):
        result = runner.invoke(main, ["gen", option, value])
        assert result.exit_code == 2
        assert (f"Invalid value for '{option}': {shown} is not in the range 0<=x<=1."
                in result.output)
    for value in ("0", "1"):  # the bounds are in range
        run_ok(runner, "gen", option, value)


@pytest.mark.parametrize("first, second", [("--obligation-bias", "--permission-weight"),
                                           ("--deontic-body-weight", "--weak-permission-weight")])
def test_gen_rejects_two_weights_of_one_draw_that_sum_above_one(runner, first, second):
    # the head (body) draw reads its two weights as one cumulative scale: above 1 in sum,
    # the rest of the scale (plain heads, plain body elements) could never be drawn
    for argv in ((first, "0.8", second, "0.5"), (second, "0.5", first, "0.8")):
        result = runner.invoke(main, ["gen", *argv])
        assert result.exit_code == 2
        assert (f"Invalid value for '{argv[0]}' plus '{argv[2]}': 1.3 is not in the range x<=1."
                in result.output)
    run_ok(runner, "gen", first, "0.6", second, "0.4")  # a sum of 1 is in range
    run_ok(runner, "gen", first, "1")  # given alone, the other's default gives way
    # a repeated option's last value is the one used, so it is the one checked
    repeated = run_ok(runner, "gen", first, "0.9", second, "0.5", first, "0.1")
    assert repeated.output == run_ok(runner, "gen", first, "0.1", second, "0.5").output
    result = runner.invoke(main, ["gen", first, "0.1", second, "0.5", first, "0.9"])
    assert result.exit_code == 2
    assert f"Invalid value for '{second}' plus '{first}': 1.4 is not" in result.output


@pytest.mark.parametrize("command", ["eval", "check"])
def test_a_negative_argument_limit_is_a_usage_error(runner, command):
    argv = [command, "-", "-s", "complete"] if command == "eval" else [command, "-"]
    demo = BUILTIN_THEORIES["two-obligations"]
    result = runner.invoke(main, [*argv, "--argument-limit", "-1"], input=demo)
    assert result.exit_code == 2
    assert "Invalid value for '--argument-limit': -1 is not in the range x>=0." in result.output
    # zero is a limit every theory exceeds: eval refuses the search, check skips it
    accepted = runner.invoke(main, [*argv, "--argument-limit", "0"], input=demo)
    assert accepted.exit_code == (4 if command == "eval" else 0)


def test_gen_keeps_the_alphabet_above_26_atoms(runner):
    wide = run_ok(runner, "gen", "--seed", "1", "--atoms", "32", "--rules", "40")
    alphabet = run_ok(runner, "gen", "--seed", "1", "--atoms", "26", "--rules", "40")
    assert wide.output == alphabet.output


# ---------------------------------------------------------------------------
# exit codes and determinism
# ---------------------------------------------------------------------------


def test_parse_errors_exit_one(runner):
    result = runner.invoke(main, ["args", "-"], input="r1: => obl(p")
    assert result.exit_code == 1
    assert "parse error" in result.stderr


def test_validation_errors_exit_two(runner):
    result = runner.invoke(main, ["args", "-"], input="r1: => obl(a).\nr1: => obl(b).\n")
    assert result.exit_code == 2
    assert "duplicate rule label" in result.stderr


def test_missing_files_exit_one(runner, tmp_path):
    result = runner.invoke(main, ["args", str(tmp_path / "absent.theory")])
    assert result.exit_code == 1


def test_undecodable_files_exit_one_as_unreadable(runner, tmp_path):
    path = tmp_path / "bad.dl"
    path.write_bytes(b"fact a\xff.\n")
    result = runner.invoke(main, ["eval", str(path)])
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: cannot read {path}: ")
    assert "codec can't decode" in result.stderr


def test_undecodable_stdin_under_a_strict_codec_exits_one_as_unreadable():
    completed = subprocess.run(
        [sys.executable, "-m", "deonarg", "args", "-"],
        input=b"fact a\xff.\n",
        capture_output=True,
        env={**_child_env(), "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert completed.returncode == 1
    assert completed.stderr.decode().startswith("error: cannot read -: ")
    assert "codec can't decode" in completed.stderr.decode()
    assert b"Traceback" not in completed.stderr


@pytest.mark.parametrize("codec", [None, "utf-8:surrogateescape", "latin-1"])
def test_undecodable_stdin_under_any_host_codec_fails_as_the_file_does(codec, tmp_path):
    # None is the host's default stdin codec, which is surrogateescape under a C locale
    env = _child_env()
    env.pop("PYTHONIOENCODING", None)
    if codec is not None:
        env["PYTHONIOENCODING"] = codec
    path = tmp_path / "bad.dl"
    path.write_bytes(b"fact a\xff.\n")
    piped, read = (
        subprocess.run([sys.executable, "-m", "deonarg", "args", source],
                       input=path.read_bytes(), capture_output=True, env=env)
        for source in ("-", str(path))
    )
    assert piped.returncode == read.returncode == 1
    assert piped.stderr.decode().startswith("error: cannot read -: ")
    assert piped.stderr.decode() == read.stderr.decode().replace(str(path), "-")
    assert piped.stdout == read.stdout == b""


def test_fixpoint_invariant_breaches_exit_three(runner, theory_file):
    result = runner.invoke(
        main, ["eval", theory_file("chained-obligations"), "-s", "wp", "--no-fixpoint-guards"]
    )
    assert result.exit_code == 3
    assert "invariant breach" in result.stderr


def test_size_limit_exits_four(runner, theory_file):
    result = runner.invoke(
        main, ["eval", theory_file("chained-obligations"), "-s", "stable",
               "--argument-limit", "3"]
    )
    assert result.exit_code == 4
    assert "size limit" in result.stderr


def test_identical_invocations_produce_identical_bytes(runner, theory_file):
    path = theory_file("facultative")
    outputs = {
        runner.invoke(main, ["eval", path, "-s", "wp", "-f", "json"]).output
        for _ in range(3)
    }
    assert len(outputs) == 1


def test_version_flag_reports_and_exits_cleanly(runner):
    result = run_ok(runner, "--version")
    assert result.output.strip()


def test_version_flag_prints_the_package_version_without_installation(
    runner, tmp_path
):
    expected = f"deonarg, version {__version__}"
    assert run_ok(runner, "--version").output.strip() == expected
    src = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [sys.executable, "-m", "deonarg", "--version"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == expected


# ---------------------------------------------------------------------------
# the command-line surface
# ---------------------------------------------------------------------------


def test_main_runs_like_python_m_deonarg_and_always_exits(monkeypatch, capsys, tmp_path):
    demo = BUILTIN_THEORIES["two-obligations"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(demo))
    with pytest.raises(SystemExit) as raised:
        main(args=["eval", "-", "-s", "wp"], prog_name="deonarg")
    assert raised.value.code == 0
    src = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [sys.executable, "-m", "deonarg", "eval", "-", "-s", "wp"],
        input=demo,
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("semantics: wp\n")
    assert capsys.readouterr().out == completed.stdout

    # without ``args`` the command line comes from sys.argv
    monkeypatch.setattr(sys, "argv", ["deonarg", "--version"])
    with pytest.raises(SystemExit) as raised:
        main()
    assert raised.value.code == 0
    assert capsys.readouterr().out == f"deonarg, version {__version__}\n"


#: the two ways a process enters the CLI: ``python -m deonarg``, and ``cli.run`` as the
#: installed ``deonarg`` script calls it
_ENTRIES = {"module": ["-m", "deonarg"], "script": ["-c", "from deonarg.cli import run; run()"]}

_FAILING_CHECK = "r1: => obl(~p).\nr2: perm_w(p) => s.\n"

#: one command line per way a process ends: (argv, its stdin, the exit code)
_ENDINGS = {
    "success": (["eval", "-", "-s", "wp", "-f", "json"], "two-obligations", 0),
    "parse-error": (["args", "-"], "r1: => obl(p", 1),
    "validation-error": (["args", "-"], "r1: => obl(a).\nr1: => obl(b).\n", 2),
    "usage-error": (["eval", "-", "--no-such-option"], "two-obligations", 2),
    "invariant-breach": (
        ["eval", "-", "-s", "wp", "--no-fixpoint-guards"], "chained-obligations", 3
    ),
    "size-limit": (
        ["eval", "-", "-s", "stable", "--argument-limit", "3"], "chained-obligations", 4
    ),
    "failed-check": (["check", "-", "-f", "json"], _FAILING_CHECK, 5),
    "version": (["--version"], "", 0),
    "help": (["eval", "--help"], "", 0),
}


def _child_env() -> dict[str, str]:
    """This environment with the package on the path, and stdout buffered as by default."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _process(entry: str, argv: list[str], stdin: str = "", **streams) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *_ENTRIES[entry], *argv],
        input=stdin,
        text=True,
        env=_child_env(),
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams},
    )


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("ending", list(_ENDINGS))
def test_a_process_ends_with_the_output_and_code_of_main_in_process(
    runner, monkeypatch, tmp_path, entry, ending
):
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the child
    argv, theory, code = _ENDINGS[ending]
    stdin = BUILTIN_THEORIES.get(theory, theory)
    in_process = runner.invoke(main, argv, input=stdin)
    assert in_process.exit_code == code
    piped = _process(entry, argv, stdin)
    with open(tmp_path / "stdout", "w") as stdout:
        to_file = _process(entry, argv, stdin, stdout=stdout)
    for found, stdout in ((piped, piped.stdout), (to_file, (tmp_path / "stdout").read_text())):
        assert (found.returncode, stdout, found.stderr) == (
            code, in_process.stdout, in_process.stderr
        )


def test_atexit_callbacks_run_and_what_they_write_is_flushed():
    code = (
        "import atexit, sys; atexit.register(print, 'at exit'); "
        "from deonarg.cli import run; run()"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, "check", "-"],
        input=_FAILING_CHECK,
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert completed.returncode == 5
    assert "grounded-subset-of-wp-justified: fail" in completed.stdout
    assert completed.stdout.endswith("\nat exit\n")


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_reader_that_stops_after_one_byte_gives_exit_one_and_no_traceback(ladder, entry, fmt):
    process = subprocess.Popen(  # the argument listing is far larger than a pipe holds
        [sys.executable, *_ENTRIES[entry], "args", "-", "-f", fmt],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    process.stdin.write(ladder.chain(640).encode())
    process.stdin.close()
    assert len(process.stdout.read(1)) == 1
    process.stdout.close()
    stderr = process.stderr.read()
    assert (process.wait(), stderr) == (1, b"")


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_help_into_a_pipe_with_no_reader_gives_exit_one_and_no_traceback(entry):
    read, write = os.pipe()
    os.close(read)  # argparse writes the help unflushed: the final flush meets the closed pipe
    try:
        completed = _process(entry, ["--help"], stdout=write)
    finally:
        os.close(write)
    assert (completed.returncode, completed.stderr) == (1, "")


_FORMAT = ("--format", "{text,json}", "text")
_GENERALIZED = (
    "--imaginary-subargument-attacks",
    "Let obligations attack natural arguments through their imaginary subarguments "
    "(generalized reading; default targets only the imaginary argument itself).",
    None,
)
_LIMIT = (
    "--argument-limit", "Refuse complete/stable enumeration above this many arguments.", "24"
)
_GUARDS = (
    "--no-fixpoint-guards",
    "Drop the exclusion guards from the weak-permission iteration "
    "(diagnostic; breaches the disjointness invariant on some theories).",
    None,
)

#: per command: each option its help names, with its help text (or choices) and default
_HELP = {
    "args": [_FORMAT],
    "eval": [
        ("--semantics", "{grounded,complete,stable,wp}", "grounded"),
        _FORMAT, _GENERALIZED, _LIMIT, _GUARDS,
    ],
    "trace": [_FORMAT, _GENERALIZED, _GUARDS],
    "attacks": [("--format", "{text,json,dot}", "text"), _GENERALIZED],
    "check": [_FORMAT, _GENERALIZED, _LIMIT, _GUARDS],
    "gen": [
        ("--seed", "", "0"), ("--atoms", "", "4"), ("--facts", "", "2"),
        ("--rules", "", "5"), ("--max-body", "", "2"), ("--superiority", "", "0"),
        ("--obligation-bias", "", "0.3"), ("--permission-weight", "", "0.1"),
        ("--deontic-body-weight", "", "0.2"), ("--weak-permission-weight", "", "0.15"),
        ("--acyclic", "", "True"), ("--no-acyclic", "", None),
        ("--inject-conflict", "", None), ("--empty-obligation-bodies", "", None),
    ],
}


@pytest.mark.parametrize("command", sorted(_HELP))
def test_every_command_help_names_each_option_with_its_help_and_default(runner, command):
    result = run_ok(runner, command, "--help")
    # one entry per option: its first line and the indented lines under it
    entries = [" ".join(entry.split()) for entry in re.split(r"\n(?=\S|  \S)", result.stdout)]
    for option, text, default in _HELP[command]:
        (entry,) = [e for e in entries if option in {t.rstrip(",") for t in e.split()}]
        assert text in entry, entry
        if default is None:
            assert "[default:" not in entry, entry
        else:
            assert f"[default: {default}]" in entry, entry


@pytest.mark.parametrize(
    "argv",
    [["frobnicate", "-"], ["eval", "-", "--no-such-option"], ["eval", "-", "--imag"]],
    ids=["unknown-command", "unknown-option", "abbreviated-option"],
)
def test_usage_errors_exit_two(runner, argv):
    result = runner.invoke(main, argv, input=BUILTIN_THEORIES["two-obligations"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: deonarg")


def test_importing_the_cli_leaves_jsonschema_unloaded(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, deonarg, deonarg.cli; print('jsonschema' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def test_importing_the_cli_leaves_testkit_unloaded(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, deonarg.cli; print('deonarg.testkit' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def _imported(*argv: str, stdin: str = "") -> tuple[list[str], set[str]]:
    """The stdout lines of ``python -X importtime <argv>`` and the modules it imported."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stderr.splitlines()
    return completed.stdout.splitlines(), {
        line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")
    }


def test_start_up_leaves_dataclasses_analysis_and_json_unloaded(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"

    def run(code, *argv, stdin=""):
        completed = subprocess.run(
            [sys.executable, "-c", code, *argv],
            input=stdin,
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert completed.returncode == 0, completed.stderr
        *output, last = completed.stdout.splitlines()
        return output, ast.literal_eval(last)

    unwanted = {"click", "dataclasses", "deonarg.analysis", "json"}
    _, loaded = run(
        "import sys; before = set(sys.modules); import deonarg.cli; "
        "print(sorted(set(sys.modules) - before))"
    )
    assert "deonarg.cli" in loaded
    assert unwanted.isdisjoint(loaded)

    # whole ``python -m deonarg`` processes: what each imports beyond a bare start-up
    _, start_up = _imported("-c", "pass")
    demo = BUILTIN_THEORIES["two-obligations"]
    output, loaded = _imported("-m", "deonarg", "eval", "-s", "wp", "-", stdin=demo)
    assert output[0] == "semantics: wp"
    assert "deonarg.cli" in loaded - start_up
    assert unwanted.isdisjoint(loaded - start_up)

    output, loaded = _imported("-m", "deonarg", "gen", "--seed", "3")
    assert output and output[0].startswith("fact ")
    assert unwanted.isdisjoint(loaded - start_up)

    output, loaded = _imported("-m", "deonarg", "check", "-", stdin=demo)
    assert output and all(": pass (" in line for line in output)
    assert "deonarg.analysis" in loaded - start_up

    # the package's analysis names resolve on first access, and by star import
    _, resolved = run(
        "import deonarg; print([type(getattr(deonarg, name)).__name__ for name in deonarg.__all__])"
    )
    assert len(resolved) == len(deonarg.__all__)
    _, missing = run(
        "namespace = {}; exec('from deonarg import *', namespace); "
        "import deonarg; print(sorted(set(deonarg.__all__) - set(namespace)))"
    )
    assert missing == []
    _, same = run(
        "import deonarg, deonarg.analysis; "
        "print([deonarg.verify_theorems is deonarg.analysis.verify_theorems, "
        "hasattr(deonarg, 'no_such_name')])"
    )
    assert same == [True, False]


# ---------------------------------------------------------------------------
# byte identity of every command
# ---------------------------------------------------------------------------

CLI_DIGESTS = Path(__file__).with_name("cli_digests.json")

# the verify_theorems failures of tests/test_analysis.py
_FAILING_CHECK_THEORIES = {
    "grounded-not-wp": "r1: => obl(~p).\nr2: perm_w(p) => s.\n",
    "self-undermining": "r1: => obl(p).\nr2: obl(p) => obl(~p).\n",
    "unadjudicated": BUILTIN_THEORIES["facultative"].replace("n3 > n4.\n", ""),
}


def _digest_theories():
    theories = dict(BUILTIN_THEORIES)
    for seed in range(6):
        params = GeneratorParams(
            seed=seed,
            atom_count=5,
            rule_count=8,
            inject_conflict=True,
            superiority_count=seed % 3,
        )
        theories[f"gen-{seed}"] = serialize_theory(generate_theory(params))
    theories.update(_FAILING_CHECK_THEORIES)
    return theories


def _command_matrix():
    """Every argv the digest test runs, theory file given as ``-``."""
    flag_sets = [[], ["--imaginary-subargument-attacks"]]
    flag_sets += [flags + ["--no-fixpoint-guards"] for flags in flag_sets]
    for fmt in ("text", "json"):
        yield ["args", "-", "-f", fmt]
        for semantics in ("grounded", "complete", "stable", "wp"):
            for flags in flag_sets:
                yield ["eval", "-", "-s", semantics, "-f", fmt, *flags]
            yield ["eval", "-", "-s", semantics, "-f", fmt, "--argument-limit", "3"]
        for flags in flag_sets:
            yield ["trace", "-", "-f", fmt, *flags]
            yield ["check", "-", "-f", fmt, *flags]
        yield ["check", "-", "-f", fmt, "--argument-limit", "3"]
    for fmt in ("text", "json", "dot"):
        yield ["attacks", "-", "-f", fmt]
        yield ["attacks", "-", "-f", fmt, "--imaginary-subargument-attacks"]


def _cli_digests(runner):
    digests = {}
    for name, text in _digest_theories().items():
        for argv in _command_matrix():
            result = runner.invoke(main, argv, input=text)
            payload = f"{result.exit_code}\0{result.output}".encode()
            digests[f"{name}: {' '.join(argv)}"] = hashlib.sha256(payload).hexdigest()
    return digests


def test_every_command_matches_digests_recorded_at_the_parent(runner):
    recorded = json.loads(CLI_DIGESTS.read_text())
    found = _cli_digests(runner)
    assert found.keys() == recorded.keys()
    differing = [key for key in recorded if found[key] != recorded[key]]
    assert not differing, f"{len(differing)} invocation(s) differ: {differing[:20]}"


if __name__ == "__main__":
    # re-record after an intended output change:
    # PYTHONPATH=src python tests/test_cli.py
    from conftest import CommandRunner

    CLI_DIGESTS.write_text(json.dumps(_cli_digests(CommandRunner()), indent=1, sort_keys=True) + "\n")
