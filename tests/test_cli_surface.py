"""The full ``dragonfly-sim`` option surface, pinned.

Every option of every subcommand — its option strings, ``dest``, ``type``,
``default``, ``choices``, ``nargs``, ``required`` and action — is written out
below, so a change that drops, renames or retypes a flag fails here instead
of in a user's script.  Option order within a parser is not pinned (it only
affects ``--help``); the set of options is.
"""

from __future__ import annotations

import argparse

from repro.cli import build_parser

S = argparse.SUPPRESS
#: The ``--seed``/``--scale`` pair every parser but ``scenarios`` shares.
#: Their default is SUPPRESS, so a subcommand's unset copy never clobbers a
#: value given before the subcommand.
SHARED = {
    ("--seed",): ("seed", int, S, None, None, False, "store"),
    ("--scale",): ("scale", float, S, None, None, False, "store"),
}
DUMP = {("--dump-scenario",): ("dump_scenario", None, S, None, None, False, "store")}
WORKERS = "<os.cpu_count()>"

#: parser path -> {option strings: (dest, type, default, choices, nargs,
#: required, action)}.  A positional or subcommand is keyed ``("<dest>",)``.
SURFACE = {
    "": {
        **SHARED,
        ("<command>",): (
            "command", None, None, ["sweep", "run", "trace", "report", "scenarios"],
            argparse.PARSER, True, "parsers",
        ),
    },
    "sweep": {
        **SHARED,
        **DUMP,
        ("--scenario",): ("scenario", None, None, None, "+", True, "store"),
        ("--routings",): ("routings", None, None, None, "+", False, "store"),
        ("--placements",): ("placements", None, None, None, "+", False, "store"),
        ("--seeds",): ("seeds", int, None, None, "+", False, "store"),
        ("--start-times",): ("start_times", float, None, None, "+", False, "store"),
        ("--offered-loads",): ("offered_loads", float, None, None, "+", False, "store"),
        ("--fidelities", "--fidelity"): ("fidelities", None, None, None, "+", False, "store"),
        ("--fail-fast",): ("fail_fast", None, False, None, 0, False, "store_true"),
        ("--warmup",): ("warmup", float, None, None, None, False, "store"),
        ("--measurement",): ("measurement", float, None, None, None, False, "store"),
        ("--workers",): ("workers", int, WORKERS, None, None, False, "store"),
        ("--store",): ("store", None, None, None, None, False, "store"),
    },
    "run": {
        **SHARED,
        **DUMP,
        ("<scenario>",): ("scenario", None, None, None, None, True, "store"),
        ("--routing",): ("routing", None, None, None, None, False, "store"),
        ("--placement",): ("placement", None, None, None, None, False, "store"),
        ("--fidelity",): ("fidelity", None, None, ["packet", "flow"], None, False, "store"),
        ("--store",): ("store", None, None, None, None, False, "store"),
    },
    "trace": {
        **SHARED,
        ("<trace_command>",): (
            "trace_command", None, None, ["record", "replay"], argparse.PARSER, True, "parsers",
        ),
    },
    "trace record": {
        **SHARED,
        ("<scenario>",): ("scenario", None, None, None, None, True, "store"),
        ("--output", "-o"): ("output", None, "traces", None, None, False, "store"),
        ("--job",): ("job", None, None, None, None, False, "store"),
        ("--routing",): ("routing", None, None, None, None, False, "store"),
        ("--placement",): ("placement", None, None, None, None, False, "store"),
    },
    "trace replay": {
        **SHARED,
        ("<trace>",): ("trace", None, None, None, None, True, "store"),
        ("--routing",): ("routing", None, None, None, None, False, "store"),
        ("--placement",): ("placement", None, None, None, None, False, "store"),
        ("--name",): ("name", None, None, None, None, False, "store"),
        ("--store",): ("store", None, None, None, None, False, "store"),
    },
    "report": {
        **SHARED,
        ("<name>",): ("name", None, None, None, None, True, "store"),
        ("--store",): ("store", None, ".sweep-cache/results.sqlite", None, None, False, "store"),
        ("--format",): ("fmt", None, "table", ["csv", "markdown", "table"], None, False, "store"),
        ("--routing",): ("routing", None, None, None, None, False, "store"),
        ("--placement",): ("placement", None, None, None, None, False, "store"),
        ("--start-time",): ("start_time", float, None, None, None, False, "store"),
        ("--fidelity",): ("fidelity", None, None, ["packet", "flow"], None, False, "store"),
        ("--knob",): ("knob", None, None, None, None, False, "append"),
        ("--output", "-o"): ("output", None, None, None, None, False, "store"),
    },
    "scenarios": {
        ("<name>",): ("name", None, None, None, "?", False, "store"),
    },
}

_ACTIONS = {
    argparse._StoreAction: "store",
    argparse._StoreTrueAction: "store_true",
    argparse._AppendAction: "append",
    argparse._SubParsersAction: "parsers",
}


def _surface(parser: argparse.ArgumentParser, path: str = "") -> dict:
    """``SURFACE``'s shape, read off a live parser and its subparsers."""
    options: dict = {}
    surface = {path: options}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        key = tuple(action.option_strings) or (f"<{action.dest}>",)
        # The worker count defaults to the machine's cores (tested below).
        default = WORKERS if action.dest == "workers" else action.default
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(_surface(sub, f"{path} {name}".strip()))
            choices = list(choices)
        elif choices is not None:
            choices = list(choices)
        options[key] = (
            action.dest, action.type, default, choices, action.nargs, action.required,
            _ACTIONS[type(action)],
        )
    return surface


def test_every_subcommand_option_is_pinned():
    assert _surface(build_parser()) == SURFACE


def test_workers_defaults_to_the_core_count():
    import os

    args = build_parser().parse_args(["sweep", "--scenario", "table1/UR"])
    assert args.workers == (os.cpu_count() or 1)


def test_shared_seed_and_scale_parse_before_or_after_the_subcommand():
    parser = build_parser()
    for command in (["run", "table1/UR"], ["sweep", "--scenario", "table1/UR"],
                    ["report", "table1"], ["trace", "record", "table1/UR"],
                    ["trace", "replay", "x.trace.jsonl"]):
        after = parser.parse_args(command + ["--seed", "3", "--scale", "0.5"])
        before = parser.parse_args(["--seed", "3", "--scale", "0.5"] + command)
        assert (after.seed, after.scale) == (before.seed, before.scale) == (3, 0.5)
        unset = parser.parse_args(command)
        assert not hasattr(unset, "seed") and not hasattr(unset, "scale")
