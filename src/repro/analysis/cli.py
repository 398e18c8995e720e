"""``repro lint`` command line interface.

Usage::

    repro lint <path-or-catalog-ref> ...     # .xml/.pdl → PDL pack,
                                             # .c/.cc/... → Cascabel pack
    repro lint prog.c --platform xeon_x5550_2gpu   # + cross-artifact pack
    repro lint --catalog --samples --platform xeon_x5550_2gpu
    repro lint --list-rules
    repro lint prog.c --format sarif > lint.sarif
    repro lint prog.c --select CAS --ignore CAS003 --fail-on error

Bare (non-path) arguments resolve against the shipped PDL catalog and the
shipped Cascabel samples.  Exit codes are CI-friendly: ``0`` clean, ``1``
findings at or above ``--fail-on`` (default: warning), ``2`` usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro.analysis.diagnostics import LintReport, Severity
from repro.analysis.engine import Linter
from repro.analysis.render import FORMATS, render
from repro.analysis.rules import LintConfig, default_registry
from repro.errors import PDLError, ReproError, UnknownPlatformError

__all__ = ["main", "build_arg_parser"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "static analysis for PDL descriptors and Cascabel programs"
        ),
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        help=(
            "files to lint (.xml/.pdl descriptors, .c/.cc/.cpp programs),"
            " shipped catalog descriptor names, or shipped sample names"
        ),
    )
    parser.add_argument(
        "--platform",
        action="append",
        default=[],
        metavar="REF",
        help=(
            "target descriptor (file or catalog name) for cross-artifact"
            " lint of the given programs; repeatable"
        ),
    )
    parser.add_argument(
        "--catalog",
        action="store_true",
        help="also lint every shipped catalog descriptor",
    )
    parser.add_argument(
        "--samples",
        action="store_true",
        help="also lint every shipped Cascabel sample program",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULES",
        help="only run these rule IDs/prefixes (comma-separated, repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULES",
        help="skip these rule IDs/prefixes (comma-separated, repeatable)",
    )
    parser.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="RULE=LEVEL",
        help="override a rule's severity, e.g. CAS003=note (repeatable)",
    )
    parser.add_argument(
        "--fail-on",
        choices=[s.value for s in Severity],
        default="warning",
        help="minimum severity that fails the run (default: warning)",
    )
    parser.add_argument(
        "--expert-variants",
        action="store_true",
        help="include the builtin expert variants in cross-artifact lint",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    return parser


def _split_csv(values: list[str]) -> list[str]:
    out = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out


def _parse_overrides(entries: list[str]) -> dict[str, str]:
    overrides = {}
    for entry in _split_csv(entries):
        rule_id, sep, level = entry.partition("=")
        if not sep or not rule_id or not level:
            raise ValueError(
                f"--severity takes RULE=LEVEL entries, got {entry!r}"
            )
        overrides[rule_id] = level
    return overrides


def _load_target(ref: str):
    """(label, Platform) from a file path or shipped catalog name."""
    from repro.pdl.catalog import load_platform
    from repro.pdl.parser import parse_pdl_file

    if os.path.exists(ref):
        platform = parse_pdl_file(ref, validate=False)
        return os.path.splitext(os.path.basename(ref))[0], platform
    return ref, load_platform(ref, validate=False)


def _resolve_artifact(linter: Linter, spec: str, targets, expert: bool):
    """Lint one CLI artifact argument into a list of reports."""
    from repro.cascabel.cli import available_samples, sample_source
    from repro.pdl.catalog import available_platforms, load_platform

    if os.path.exists(spec):
        return linter.lint_path(
            spec, targets=targets, expert_variants=expert
        )
    if spec in available_platforms():
        platform = load_platform(spec, validate=False)
        return [linter.lint_platform(platform, filename=spec)]
    if spec in available_samples():
        source = sample_source(spec)
        reports = [linter.lint_program(source, filename=spec)]
        if targets:
            reports.append(
                linter.lint_cross(
                    source, targets, filename=spec, expert_variants=expert
                )
            )
        return reports
    raise UnknownPlatformError(
        f"{spec!r} is neither a file, a catalog descriptor"
        f" ({available_platforms()}), nor a shipped sample"
        f" ({available_samples()})"
    )


def _list_rules(registry) -> str:
    lines = []
    for rule in registry.rules():
        lines.append(
            f"{rule.id}  {rule.severity.value:<7}  {rule.name:<32}"
            f" {rule.summary}"
        )
    return "\n".join(lines) + "\n"


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "interference":
        # `repro lint interference ...` — the whole-platform report
        from repro.analysis.interference import interference_main

        return interference_main(argv[1:])
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    registry = default_registry()
    if args.list_rules:
        sys.stdout.write(_list_rules(registry))
        return EXIT_CLEAN

    try:
        config = LintConfig.build(
            select=_split_csv(args.select) or None,
            ignore=_split_csv(args.ignore),
            severity_overrides=_parse_overrides(args.severity),
            fail_on=args.fail_on,
        )
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    linter = Linter(registry=registry, config=config)

    try:
        targets = [_load_target(ref) for ref in args.platform]
    except (OSError, ReproError) as exc:
        print(f"repro-lint: cannot load target platform: {exc}", file=sys.stderr)
        return EXIT_USAGE

    specs = list(args.artifacts)
    if args.catalog:
        from repro.pdl.catalog import available_platforms

        specs.extend(available_platforms())
    if args.samples:
        from repro.cascabel.cli import available_samples

        specs.extend(available_samples())
    if not specs:
        parser.print_usage(sys.stderr)
        print(
            "repro-lint: nothing to lint (pass files, --catalog, or"
            " --samples)",
            file=sys.stderr,
        )
        return EXIT_USAGE

    reports: list[LintReport] = []
    for spec in specs:
        try:
            reports.extend(
                _resolve_artifact(
                    linter, spec, targets, args.expert_variants
                )
            )
        except (OSError, ValueError, PDLError, UnknownPlatformError) as exc:
            print(f"repro-lint: {spec}: {exc}", file=sys.stderr)
            return EXIT_USAGE

    sys.stdout.write(render(reports, args.format, registry=registry))

    gate = config.fail_on
    failing = sum(len(r.at_least(gate)) for r in reports)
    return EXIT_FINDINGS if failing else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
