"""The model table of ``crystals.cli``, read from the parser it fills.

Checks:
* for every model of ``graph`` and ``char`` and every model option of that
  subcommand (those of ``--model``'s options that some model reads) which the
  model does not read, the run exits 2 with one ``error:`` line naming the
  option and the model, prints nothing on stdout and writes no ``--out``
  file, while the same run without that option exits 0,
* an empty ``--left`` or ``--right`` is refused as a missing graph file,
* argv drawn from the parser's own subcommands, options and choices, plus
  malformed values (bad shapes, integers, tableaux, unknown choices, missing
  files), one in four with the subcommand's arguments shuffled and one in
  four rewritten in a form only argparse reads (an abbreviated option,
  ``--opt=value``, a repeated option, ``--``, ``-h``, a signed or negative
  integer, a value that starts with ``-`` or holds a space, a global option
  after the subcommand), run in-process under a small
  ``--max-vertices``: the exit code is 0 to 4, no exception but argparse's own
  exit leaves ``main``, a run exiting 0 or 1 writes nothing to stderr, and any
  other run one ``error:`` line,
* on the same argv, ``main``'s reader returns None or a namespace whose
  ``vars`` equal those of ``parse_args`` on a parser built apart from
  ``main``'s, and it reads a fair share of them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import crystals.cli as cli
from crystals.cli import main

PARSER = cli.build_parser()
SUBPARSERS = next(
    action for action in PARSER._actions if isinstance(action, argparse._SubParsersAction)
).choices


def _options(command: str) -> dict[str, argparse.Action]:
    """The optional arguments of ``command`` by dest, help excluded."""
    return {action.dest: action for action in SUBPARSERS[command]._actions
            if action.option_strings and action.dest != "help"}


def _model_options(command: str) -> list[str]:
    """The options of ``command`` that some model reads."""
    read = {option for options in cli._READS.values() for option in options}
    return [dest for dest in _options(command) if dest in read]


def _unread_cases():
    for command in ("graph", "char"):
        for model in _options(command)["model"].choices:
            for option in _model_options(command):
                if option not in cli._READS[model]:
                    yield command, model, option


def _argv(command, model, options, files):
    values = {"shape": "2,1", "n": "3", **files}
    argv = [command, "--model", model]
    for option in options:
        flag = _options(command)[option].nargs == 0
        argv += [f"--{option}"] + ([] if flag else [values[option]])
    return argv


@pytest.fixture(scope="module")
def factor_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("factors")
    for side in ("left", "right"):
        assert main(["graph", "--model", "standard", "--n", "2",
                     "--out", str(tmp / f"{side}.json")]) == 0
    return {side: str(tmp / f"{side}.json") for side in ("left", "right")}


@pytest.mark.parametrize("command, model, option", [*_unread_cases()], ids=str)
def test_every_unread_model_option_is_refused(
    tmp_path, capsys, factor_files, command, model, option
):
    out = ["--out", str(tmp_path / "g.json")] if command == "graph" else []
    reads = [o for o in cli._READS[model] if o in _options(command)]
    assert main([*_argv(command, model, reads, factor_files), *out]) == 0
    capsys.readouterr()
    (tmp_path / "g.json").unlink(missing_ok=True)
    assert main([*_argv(command, model, [*reads, option], factor_files), *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {model} model does not read --{option}\n"
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("left, right", [("", "b.json"), ("a.json", "")])
def test_an_empty_graph_file_name_is_missing(tmp_path, capsys, left, right):
    out = tmp_path / "t.json"
    argv = ["graph", "--model", "tensor", "--left", left, "--right", right, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: tensor model needs --left and --right graph files\n")
    assert not out.exists()


def test_the_unread_cases_cover_every_model():
    cases = [*_unread_cases()]
    assert {(c, m) for c, m, _ in cases} == {
        ("graph", m) for m in cli._GRAPHS} | {("char", "standard")}
    assert len(cases) == 16


# (well formed, malformed) values by option; a choice's malformed value is "bogus".
SHAPES = (("1", "2", "2,1", "3,1", "2,2", "3,2,1"),
          ("1,2", "", "x", "0", "-1", "٣", "3,,1", "9" * 5000))
INTEGERS = (("1", "2", "3", "4"), ("-1", "0", "x", "", "10000000000"))
VALUES = {
    "shape": SHAPES, "gamma": SHAPES, "delta": SHAPES, "n": INTEGERS, "i": INTEGERS,
    "tableau": (("[[1,2],[2]]", "[[1,1,2'],[2]]", "[[1,2',3],[3]]"),
                ("[[1'],[2]]", "[[", "[]", "[[0]]", "[[2,1]]")),
    "input": (("q.json", "s.json"), ("junk.json", "missing.json", "")),
    "out": (("out.txt",), ("no/such/dir/out.txt",)),
}
VALUES["left"] = VALUES["right"] = VALUES["input"]
GRAPH_FILES = {name for value in VALUES["input"] for name in value}


def _value(rnd: random.Random, action: argparse.Action) -> str:
    """One of ``action``'s values, well formed three times in four."""
    good, bad = ((action.choices, ["bogus"]) if action.choices is not None
                 else VALUES[action.dest])
    return rnd.choice([*(good if rnd.random() < 0.75 else bad)])


def _valued(argv: list[str]) -> list[int]:
    """The indices in ``argv`` of the options that take a value, the global
    ``--max-vertices`` at 0 and those of the subcommand at 2."""
    table = SUBPARSERS[argv[2]]._option_string_actions
    return [0, *(i for i, a in enumerate(argv) if i > 2 and a in table and table[a].nargs != 0)]


def _abbreviate(rnd, argv):
    i = rnd.choice([i for i, a in enumerate(argv) if a.startswith("--") and len(a) > 3])
    argv[i] = argv[i][:rnd.randint(3, len(argv[i]) - 1)]


def _join(rnd, argv):  # --opt=value
    i = rnd.choice(_valued(argv))
    argv[i:i + 2] = ["=".join(argv[i:i + 2])]


def _repeat(rnd, argv):
    i = rnd.choice(_valued(argv))
    argv[i + 2:i + 2] = argv[i:i + 2]


def _sign(rnd, argv):  # a signed integer, or a value that starts with "-" or holds a space
    i = rnd.choice(_valued(argv)) + 1
    argv[i] = rnd.choice(["+", "-", "-x", " "]) + argv[i] + rnd.choice(["", " ", ", 1"])


def _insert(rnd, argv):  # "--" or help, anywhere
    argv.insert(rnd.randint(0, len(argv)), rnd.choice(["--", "-h", "--help"]))


def _late_global(rnd, argv):  # a global option after the subcommand
    argv += [rnd.choice(["--max-vertices", "--threads"]), "5"]


# The forms only argparse reads, each rewriting an argv in place.
ARGPARSE_ONLY = (_abbreviate, _join, _repeat, _sign, _insert, _late_global)


@st.composite
def argvs(draw):
    """A subcommand and a budget, with each option given or not: nine times in
    ten for a required option or one the drawn model reads, once in ten for
    one it does not read, and otherwise one time in two; the options and the
    positional come in a shuffled order one time in four, and one argv in four
    is then rewritten in one of the forms only argparse reads."""
    rnd = draw(st.randoms(use_true_random=True))  # seeded by hypothesis
    command = rnd.choice(sorted(SUBPARSERS))
    given = []  # each option with its value, or a positional
    model = None
    for action in sorted(SUBPARSERS[command]._actions, key=lambda a: a.dest != "model"):
        if action.dest == "help":
            continue
        if action.dest in cli._MODEL_OPTIONS.get(command, ()) and model in cli._READS:
            odds = 0.9 if action.dest in cli._READS[model] else 0.1
        else:
            odds = 0.9 if action.required or not action.option_strings else 0.5
        if rnd.random() < odds:
            given.append(action.option_strings[:1])
            if action.nargs != 0:
                given[-1].append(value := _value(rnd, action))
                model = value if action.dest == "model" else model
    if rnd.random() < 0.25:
        rnd.shuffle(given)
    argv = ["--max-vertices", str(rnd.randint(-1, 40)), command, *sum(given, [])]
    if rnd.random() < 0.25:
        rnd.choice(ARGPARSE_ONLY)(rnd, argv)
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    assert main(["graph", "--model", "queer", "--shape", "2,1", "--n", "3",
                 "--out", str(tmp / "q.json")]) == 0
    assert main(["graph", "--model", "standard", "--n", "3", "--out", str(tmp / "s.json")]) == 0
    (tmp / "junk.json").write_text("{not json", encoding="utf-8")
    return tmp


def test_parsed_argv_never_escapes_main(fuzz_dir):
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(argvs())
    def run(argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [str(fuzz_dir / a) if a in GRAPH_FILES else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(["--output-dir", tmp, *argv])
                except SystemExit as exc:  # argparse refuses its own arguments
                    code = exc.code
            assert code in range(5), (argv, code)
            if code in (0, 1):  # 1: a verdict with violations, on stdout
                assert err.getvalue() == "", argv
            else:
                assert err.getvalue().count("error: ") == 1, argv

    run()


def test_the_reader_returns_what_parse_args_returns_or_nothing():
    read = []

    @settings(max_examples=3000, deadline=None, derandomize=True, database=None)
    @given(argvs())
    def run(argv):
        args = cli._read(cli._parser(), argv)
        read.append(args is not None)
        if args is not None:
            assert vars(args) == vars(PARSER.parse_args(argv)), argv

    run()
    assert len(read) / 4 < sum(read) < len(read)  # about 40% are read
