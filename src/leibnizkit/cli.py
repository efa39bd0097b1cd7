"""Batch command-line interface.

Exit codes: 0 = all checks clean, 1 = a mathematical check failed,
2 = usage or file-format error, 130 = interrupted, 141 = standard output
closed before the output was written (a reader gone, or fd 1 closed when the
process started).  Neither of the last two prints a traceback.

How a process ends: ``python -m leibnizkit`` and the installed
``leibnizkit`` script call ``run``, which flushes standard output and
standard error after ``main`` and then ends the process with ``os._exit``.
``atexit`` hooks and the interpreter's teardown (the final cyclic
collection, the teardown of every loaded module) are skipped on that path;
the CLI leaves nothing for them to do.  Under a tracer or a profiler
(coverage, cProfile, pdb while it traces) ``run`` exits through
``sys.exit``, so their end-of-run output still appears, and ``python -m
leibnizkit.cli`` keeps that normal exit too.  ``main`` is the in-process
function.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn, Optional, Sequence

from .checks import CHECK_NAMES, CONSTRUCT_FLAGS, CONSTRUCTIONS, OBJECT_FLAGS, run_check
from .errors import (BROKEN_PIPE, CHECK_FAILED, INTERRUPTED, USAGE_ERROR, LeibnizKitError,
                     ParseError, _fail_usage)
from .io import load_spec

# ``main`` imports the handlers of construct, search and suite from
# ``commands`` only when one of them runs, so a ``check`` process compiles
# only the parser, ``cmd_check`` and the modules its check runs.


def _report_payload(report) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {
                "identity": v.identity,
                "index": list(v.index),
                "lhs": [str(x) for x in v.lhs],
                "rhs": [str(x) for x in v.rhs],
            }
            for v in report.violations
        ],
        "notes": report.notes,
    }


def cmd_check(args) -> int:
    extra = {key: getattr(args, key) for key in OBJECT_FLAGS if getattr(args, key)}
    try:
        report = run_check(load_spec(args.file), args.object, args.check, extra,
                           consequences=not args.no_consequences)
    except (OSError, ParseError) as exc:
        return _fail_usage(str(exc))
    except LeibnizKitError as exc:
        print(f"precondition failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED
    if args.format == "json":
        print(json.dumps(_report_payload(report), sort_keys=True, indent=2))
    else:
        if report.ok:
            print(f"{args.object}: {args.check}: ok")
        else:
            print(f"{args.object}: {args.check}: {report.summary()}")
        for key, val in report.notes.items():
            print(f"  note {key}: {val}")
    return 0 if report.ok else CHECK_FAILED


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The program's parser.  With ``command``, only the parser of that
    command gets its arguments, which is all a run of it reads; the program's
    help lists the commands without their arguments.  The search arguments
    take the predicate names from ``search.PREDICATES``, so only they import
    ``search``."""
    parser = argparse.ArgumentParser(
        prog="leibnizkit",
        description="Exact verification and search for operators on Leibniz algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a named check on a file object")
    if command in (None, "check"):
        p_check.add_argument("file")
        p_check.add_argument("object")
        p_check.add_argument("check", choices=CHECK_NAMES)
        for flag in OBJECT_FLAGS:
            p_check.add_argument(f"--{flag}")
        p_check.add_argument("--format", choices=("text", "json"), default="text")
        p_check.add_argument("--no-consequences", action="store_true")

    p_cons = sub.add_parser("construct", help="build derived objects and print them")
    if command in (None, "construct"):
        p_cons.add_argument("file")
        p_cons.add_argument("construction", choices=CONSTRUCTIONS)
        for flag in CONSTRUCT_FLAGS:
            p_cons.add_argument(f"--{flag}")

    p_search = sub.add_parser("search", help="exhaustively enumerate operators over F_p")
    if command in (None, "search"):
        p_search.add_argument("file")
        from .search import PREDICATES

        # each table name, hyphen spelling first
        p_search.add_argument("--predicate", required=True, choices=list(dict.fromkeys(
            spelling for name in PREDICATES for spelling in (name.replace("_", "-"), name))))
        p_search.add_argument("--field")
        p_search.add_argument("--algebra")
        p_search.add_argument("--rep")
        p_search.add_argument("--ctx")
        p_search.add_argument("--budget", type=int)  # None: search.DEFAULT_BUDGET

    p_suite = sub.add_parser("suite", help="run theorem suites over the bundled catalog")
    if command in (None, "suite"):
        p_suite.add_argument("names", nargs="*")
        p_suite.add_argument("--all", action="store_true")
        p_suite.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _command(argv: Sequence[str]) -> str:
    """The command argparse hands ``argv`` to: its first argument that is not
    an option, that is, one that does not start with ``-``, a lone ``-`` or
    one after ``--``; "" when there is none.  Where argparse takes an earlier
    argument for the command (``-1``, or one with a space), that argument
    starts with ``-``, so it names no command, and argparse stops there
    before it reads the arguments of any command."""
    after_dashes = False
    for arg in argv:
        if after_dashes or not arg.startswith("-") or arg == "-":
            return arg
        after_dashes = arg == "--"
    return ""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(_command(argv))
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits with 2 on usage errors already, and with 0 after
            # printing help, which is flushed below like any output
            code = exc.code if isinstance(exc.code, int) else USAGE_ERROR
        else:
            if args.command == "check":
                code = cmd_check(args)
            else:
                from . import commands

                code = getattr(commands, f"cmd_{args.command}")(args)
            if sys.stdout is None:
                # fd 1 was closed at start-up, so Python set no stdout and
                # ``print`` wrote nothing
                return BROKEN_PIPE
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to the null device,
        # so a later flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except KeyboardInterrupt:
        return INTERRUPTED
    return code


def run() -> NoReturn:
    """The process entry of ``python -m leibnizkit`` and of the installed
    ``leibnizkit`` script: ``main`` on ``sys.argv``, then a flush of
    standard output and error, then ``os._exit`` with main's code.  Under a
    tracer or a profiler it exits through ``sys.exit``, so that they report
    at exit."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    if sys.gettrace() is None and sys.getprofile() is None:
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    sys.exit(main())
