"""``repro`` — the umbrella command for the whole toolchain.

One entry point, five familiar tools plus trace inspection::

    repro pdl list                    # was: pdl-tool list
    repro lint machine.xml            # was: repro-lint machine.xml
    repro registry serve              # was: repro-registry serve
    repro tune calibrate ...          # was: repro-tune calibrate ...
    repro cascabel program.c ...      # was: cascabel program.c ...
    repro trace view trace.json       # new: render an exported trace
    repro explore sweep ...           # new: design-space exploration

The historical console scripts (``pdl-tool``, ``repro-lint``,
``repro-registry``, ``repro-tune``, ``cascabel``) are retired; the
``was:`` column above gives each one's umbrella spelling.

Sub-commands are dispatched by first token (not argparse subparsers) so
each tool keeps full ownership of its own flags, ``--help`` included.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional

__all__ = ["main"]

_USAGE = """\
usage: repro <command> [args...]

toolchain commands (each accepts --help):
  pdl        inspect, validate, diff and convert PDL descriptors
  lint       static analysis over descriptors and Cascabel programs
  registry   platform registry service: serve / publish / query
  tune       calibration sweeps and tuning-profile management
  cascabel   the source-to-source compiler for annotated programs
  trace      inspect exported traces (repro trace view <file>)
  explore    design-space exploration: sweep / frontier / show / spaces
  serve      online serving: run / replay / stats

options:
  -h, --help     show this message
  --version      print the toolchain version
"""


def _dispatch_pdl(argv: list) -> int:
    from repro.pdl.cli import main

    return main(argv)


def _dispatch_lint(argv: list) -> int:
    from repro.analysis.cli import main

    return main(argv)


def _dispatch_registry(argv: list) -> int:
    from repro.service.cli import main

    return main(argv)


def _dispatch_tune(argv: list) -> int:
    from repro.tune.cli import main

    return main(argv)


def _dispatch_cascabel(argv: list) -> int:
    from repro.cascabel.cli import main

    return main(argv)


def _dispatch_explore(argv: list) -> int:
    from repro.explore.cli import main

    return main(argv)


def _dispatch_serve(argv: list) -> int:
    from repro.serve.cli import main

    return main(argv)


_COMMANDS: dict = {
    "pdl": _dispatch_pdl,
    "lint": _dispatch_lint,
    "registry": _dispatch_registry,
    "tune": _dispatch_tune,
    "cascabel": _dispatch_cascabel,
    "explore": _dispatch_explore,
    "serve": _dispatch_serve,
}


# -- trace inspection --------------------------------------------------------
def _spans_from_chrome(document: dict) -> list:
    """Back-convert a Chrome trace-event document to span payloads."""
    spans = []
    for event in document.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id", None)
        parent_id = args.pop("parent_id", None)
        args.pop("trace_id", None)
        error = args.pop("error", None)
        start = event.get("ts", 0.0) / 1e6
        spans.append(
            {
                "name": event.get("name", "?"),
                "span_id": span_id,
                "parent_id": parent_id,
                "start": start,
                "end": start + event.get("dur", 0.0) / 1e6,
                "duration": event.get("dur", 0.0) / 1e6,
                "status": "error" if error is not None else "ok",
                "error": error,
                "clock": event.get("cat", "wall"),
                "attributes": args,
            }
        )
    return spans


def _trace_view(path: str) -> int:
    from repro.obs.export import render_payload_tree

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro trace: cannot read {path!r}: {exc}", file=sys.stderr)
        return 2
    if "traceEvents" in document:  # Chrome trace-event export
        document = {"spans": _spans_from_chrome(document)}
    if "spans" not in document:
        print(
            f"repro trace: {path!r} is neither a repro trace payload"
            " nor a Chrome trace-event document",
            file=sys.stderr,
        )
        return 2
    rendered = render_payload_tree(document)
    print(rendered if rendered else "(no finished spans)")
    return 0


def _dispatch_trace(argv: list) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: repro trace view <trace.json>")
        print()
        print("Render an exported trace (deterministic JSON payload or")
        print("Chrome trace-event document) as an indented span tree.")
        return 0
    if argv[0] != "view" or len(argv) != 2:
        print("usage: repro trace view <trace.json>", file=sys.stderr)
        return 2
    return _trace_view(argv[1])


_COMMANDS["trace"] = _dispatch_trace


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    if argv[0] == "--version":
        from repro import __version__

        print(f"repro {__version__}")
        return 0
    command = argv[0]
    handler = _COMMANDS.get(command)
    if handler is None:
        print(
            f"repro: unknown command {command!r}"
            f" (choose from {', '.join(sorted(_COMMANDS))})",
            file=sys.stderr,
        )
        return 2
    try:
        return handler(argv[1:])
    except BrokenPipeError:
        # downstream closed the pipe (`repro trace view ... | head`);
        # point stdout at devnull so interpreter shutdown stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
