"""``repro pdl`` command line interface.

Subcommands::

    repro pdl list                     # shipped descriptors
    repro pdl show <file-or-name>      # ASCII control-hierarchy tree
    repro pdl validate <file-or-name>  # full validation report
    repro pdl roundtrip <file-or-name> # parse + re-serialize to stdout
    repro pdl discover [--gpus ...]    # generate a descriptor for this host
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.model.visitor import render_tree
from repro.pdl.catalog import available_platforms, load_platform
from repro.pdl.parser import parse_pdl_file
from repro.pdl.validator import validate_document
from repro.pdl.writer import write_pdl

__all__ = ["main", "build_arg_parser"]


def _load(spec: str, *, validate: bool = True):
    if os.path.exists(spec):
        return parse_pdl_file(spec, validate=validate)
    return load_platform(spec, validate=validate)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro pdl", description="Platform Description Language utilities"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list shipped platform descriptors")

    show = sub.add_parser("show", help="print the control hierarchy")
    show.add_argument("platform", help="descriptor file path or shipped name")

    validate = sub.add_parser("validate", help="validate a descriptor")
    validate.add_argument("platform")
    validate.add_argument(
        "--strict", action="store_true", help="reject unknown property subschemas"
    )

    roundtrip = sub.add_parser("roundtrip", help="parse and re-serialize")
    roundtrip.add_argument("platform")

    discover = sub.add_parser(
        "discover", help="generate a descriptor for a synthetic/current host"
    )
    discover.add_argument("--name", default="discovered-host")
    discover.add_argument(
        "--gpus", nargs="*", default=[], help="GPU models to attach (e.g. 'GeForce GTX 480')"
    )

    diff = sub.add_parser("diff", help="structural diff of two descriptors")
    diff.add_argument("old")
    diff.add_argument("new")

    xsd = sub.add_parser("xsd", help="emit the derived XML Schema Definitions")
    xsd.add_argument("-o", "--output", help="directory to write .xsd files to")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)

    if args.command == "list":
        for name in available_platforms():
            print(name)
        return 0

    if args.command == "show":
        platform = _load(args.platform, validate=False)
        print(render_tree(platform))
        return 0

    if args.command == "validate":
        platform = _load(args.platform, validate=False)
        report = validate_document(platform, strict_schema=args.strict)
        print(report.summary())
        return 0 if report.ok else 1

    if args.command == "roundtrip":
        platform = _load(args.platform, validate=False)
        sys.stdout.write(write_pdl(platform))
        return 0

    if args.command == "discover":
        from repro.discovery.generator import generate_host_platform

        platform = generate_host_platform(name=args.name, gpu_models=args.gpus)
        sys.stdout.write(write_pdl(platform))
        return 0

    if args.command == "diff":
        from repro.pdl.diff import diff_platforms

        old = _load(args.old, validate=False)
        new = _load(args.new, validate=False)
        diff = diff_platforms(old, new)
        print(diff.summary())
        return 0 if diff.identical else 1

    if args.command == "xsd":
        from repro.pdl.xsd import emit_all_xsd

        documents = emit_all_xsd()
        if args.output:
            os.makedirs(args.output, exist_ok=True)
            for name, text in documents.items():
                path = os.path.join(args.output, name)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                print(f"wrote {path}")
        else:
            for name, text in documents.items():
                print(f"===== {name} =====")
                sys.stdout.write(text)
        return 0

    return 2  # pragma: no cover - argparse enforces the command set


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
