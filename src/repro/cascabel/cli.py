"""``repro cascabel`` command line interface.

Subcommands::

    repro cascabel translate input.c --platform xeon_x5550_2gpu [-o outdir]
    repro cascabel inspect input.c            # parsed pragmas / tasks
    repro cascabel samples                    # list shipped annotated programs
    repro cascabel run input.c --platform P --size N [--scheduler dmda]
"""

from __future__ import annotations

import argparse
import os
from importlib import resources

from repro.cascabel.driver import translate
from repro.cascabel.frontend import parse_program, parse_program_file
from repro.cascabel.lowering import run_translation

__all__ = ["main", "build_arg_parser", "sample_source", "available_samples"]


def available_samples() -> list[str]:
    root = resources.files("repro.cascabel").joinpath("data")
    return sorted(
        entry.name[: -len(".c")] for entry in root.iterdir() if entry.name.endswith(".c")
    )


def sample_source(name: str) -> str:
    """Source text of a shipped annotated sample program."""
    entry = resources.files("repro.cascabel").joinpath("data", f"{name}.c")
    return entry.read_text(encoding="utf-8")


def _load_program(spec: str):
    if os.path.exists(spec):
        return parse_program_file(spec)
    if spec in available_samples():
        return parse_program(sample_source(spec), filename=f"<sample:{spec}>")
    raise SystemExit(
        f"no such file or sample {spec!r}; samples: {available_samples()}"
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cascabel",
        description="PDL-parametrized source-to-source compiler for"
        " annotated task-based C/C++ programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("samples", help="list shipped annotated sample programs")

    inspect = sub.add_parser("inspect", help="show parsed tasks and call sites")
    inspect.add_argument("input", help="source file or sample name")

    trans = sub.add_parser("translate", help="translate for a target platform")
    trans.add_argument("input")
    trans.add_argument("--platform", required=True, help="PDL file or shipped name")
    trans.add_argument("-o", "--output", help="directory for generated files")

    run = sub.add_parser(
        "run", help="translate, then execute on the simulated runtime"
    )
    run.add_argument("input")
    run.add_argument("--platform", required=True)
    run.add_argument("--size", type=int, default=8192, help="problem size N")
    run.add_argument("--block", type=int, default=None, help="tile edge")
    run.add_argument("--scheduler", default="dmda")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)

    if args.command == "samples":
        for name in available_samples():
            print(name)
        return 0

    if args.command == "inspect":
        program = _load_program(args.input)
        print(program)
        for d in program.definitions:
            print(
                f"  task {d.interface} variant={d.variant_name}"
                f" targets={'/'.join(d.targets)}"
                f" fn={d.function.name}({', '.join(d.function.param_names)})"
            )
        for e in program.executions:
            dists = ", ".join(
                f"{x.name}:{x.kind}" + (f":{x.size}" if x.size else "")
                for x in e.pragma.distributions
            )
            print(
                f"  execute {e.interface} group={e.execution_group or '-'}"
                f" call={e.call.name}(...) dists=({dists})"
            )
        return 0

    platform = _resolve_platform(args.platform)

    if args.command == "translate":
        program = _load_program(args.input)
        result = translate(program, platform)
        print(result.summary())
        if args.output:
            paths = result.output.write_to(args.output)
            makefile = os.path.join(args.output, "Makefile")
            with open(makefile, "w", encoding="utf-8") as handle:
                handle.write(result.plan.as_makefile())
            print("wrote:", ", ".join(paths + [makefile]))
        return 0

    if args.command == "run":
        program = _load_program(args.input)
        result = translate(program, platform)
        run = run_translation(
            result,
            sizes={"N": args.size},
            scheduler=args.scheduler,
            block_size=args.block,
        )
        print(result.summary())
        print()
        print(run.summary())
        return 0

    return 2  # pragma: no cover


def _resolve_platform(spec: str):
    from repro.pdl.catalog import available_platforms, load_platform
    from repro.pdl.parser import parse_pdl_file

    if os.path.exists(spec):
        return parse_pdl_file(spec)
    if spec in available_platforms():
        return load_platform(spec)
    raise SystemExit(
        f"no such platform file or shipped descriptor {spec!r};"
        f" shipped: {available_platforms()}"
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
