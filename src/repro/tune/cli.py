"""``repro tune`` command line interface.

Subcommands::

    repro tune calibrate <platform> --db tuning.json [--kernels k1,k2]
               [--sizes 128,256,...] [--repeats N] [--noise F] [--seed N]
    repro tune show --db tuning.json [--platform REF]
    repro tune fill <platform> --db tuning.json [-o tuned.xml]
               [--digest D] [--no-add-missing]
    repro tune export <REF> --db tuning.json --url URL

``<platform>`` is a shipped catalog name or a PDL XML file path.  ``REF``
selects a profile inside the database: a digest, a digest prefix, or a
platform name.  ``export`` publishes the profile to a running registry
service (``repro registry serve``) so other toolchain installations can
fetch it by platform digest.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import ReproError, TuningError

__all__ = ["main", "build_arg_parser"]

_DEFAULT_URL = "http://127.0.0.1:8787"
_DEFAULT_DB = "tuning.json"


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro tune",
        description="Autotuning: calibrate, inspect, late-bind, publish",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def db_arg(p):
        p.add_argument(
            "--db", default=_DEFAULT_DB, help=f"tuning database (default {_DEFAULT_DB})"
        )

    calibrate = sub.add_parser(
        "calibrate", help="run the micro-experiment sweep for a platform"
    )
    calibrate.add_argument("platform", help="catalog name or PDL XML file")
    db_arg(calibrate)
    calibrate.add_argument(
        "--kernels", default="dgemm", help="comma-separated kernel list"
    )
    calibrate.add_argument(
        "--sizes", default="128,256,512,1024", help="comma-separated size grid"
    )
    calibrate.add_argument("--repeats", type=int, default=3)
    calibrate.add_argument(
        "--noise", type=float, default=0.0, help="relative measurement noise"
    )
    calibrate.add_argument("--seed", type=int, default=7)

    show = sub.add_parser("show", help="inspect stored profiles and curves")
    db_arg(show)
    show.add_argument(
        "--platform", help="digest, digest prefix, or platform name", default=None
    )

    fill = sub.add_parser(
        "fill", help="late-bind measured values into a descriptor"
    )
    fill.add_argument("platform", help="catalog name or PDL XML file")
    db_arg(fill)
    fill.add_argument("-o", "--output", help="write tuned XML here (default stdout)")
    fill.add_argument(
        "--digest", help="profile digest (default: the descriptor's own)"
    )
    fill.add_argument(
        "--no-add-missing",
        action="store_true",
        help="only instantiate existing unfixed slots, never append",
    )

    export = sub.add_parser(
        "export", help="publish a profile to a registry service"
    )
    export.add_argument("ref", help="digest, digest prefix, or platform name")
    db_arg(export)
    export.add_argument("--url", default=_DEFAULT_URL, help="registry base URL")
    return parser


def _load_platform(ref: str):
    """Catalog name or XML file path → Platform."""
    from repro.pdl.catalog import available_platforms, load_platform, parse_cached

    if os.path.exists(ref):
        with open(ref, "r", encoding="utf-8") as handle:
            return parse_cached(handle.read())
    if ref in available_platforms():
        return load_platform(ref)
    raise TuningError(
        f"{ref!r} is neither a file nor a catalog platform"
        f" (catalog: {available_platforms()})"
    )


def _resolve_profile(db, ref: str) -> str:
    """Digest, digest prefix, or platform name → full digest."""
    platforms = db.platforms()
    if ref in platforms:
        return ref
    by_prefix = [d for d in platforms if d.startswith(ref)]
    if len(by_prefix) == 1:
        return by_prefix[0]
    if len(by_prefix) > 1:
        raise TuningError(f"ambiguous profile prefix {ref!r}")
    # platform names use dashes, catalog keys underscores — accept both
    wanted = ref.replace("_", "-")
    by_name = [
        d for d, name in platforms.items()
        if name == ref or (name or "").replace("_", "-") == wanted
    ]
    if len(by_name) == 1:
        return by_name[0]
    if len(by_name) > 1:
        raise TuningError(
            f"platform name {ref!r} matches several profiles; use a digest"
        )
    raise TuningError(
        f"no profile for {ref!r}; stored profiles:"
        f" {[(d[:12], n) for d, n in platforms.items()]}"
    )


def _cmd_calibrate(args) -> int:
    from repro.tune.calibrate import CalibrationConfig, Calibrator
    from repro.tune.database import TuningDatabase

    platform = _load_platform(args.platform)
    config = CalibrationConfig(
        kernels=tuple(k.strip() for k in args.kernels.split(",") if k.strip()),
        sizes=tuple(int(s) for s in args.sizes.split(",") if s.strip()),
        repeats=args.repeats,
        noise=args.noise,
        seed=args.seed,
    )
    db = TuningDatabase.load(args.db)
    calibrator = Calibrator(platform, config=config)
    calibrator.run(db)
    db.save(args.db)
    print(
        f"calibrated {platform.name!r} [{calibrator.digest[:12]}]:"
        f" {db.sample_count(calibrator.digest)} samples in {args.db}"
    )
    return 0


def _cmd_show(args) -> int:
    from repro.tune.database import TuningDatabase
    from repro.tune.regression import build_curve

    db = TuningDatabase.load(args.db)
    platforms = db.platforms()
    if not platforms:
        print(f"{args.db}: no profiles")
        return 0
    if args.platform is None:
        for digest, name in platforms.items():
            print(
                f"{digest[:12]}  {name or '?'}"
                f"  samples={db.sample_count(digest)}"
                f" transfers={len(db.transfers(digest))}"
            )
        return 0
    digest = _resolve_profile(db, args.platform)
    print(f"profile {digest[:12]} ({platforms[digest] or '?'}):")
    for kernel in db.kernels(digest):
        for pu in sorted({s.pu for s in db.samples(digest, kernel=kernel)}):
            samples = db.samples(digest, kernel=kernel, pu=pu)
            curve = build_curve(samples)
            print(
                f"  {kernel} @ {pu}: {len(samples)} samples,"
                f" sizes={len(curve.table)},"
                f" t ~ {curve.fit.coefficient:.3e} * x^{curve.fit.exponent:.3f}"
            )
    for t in db.transfers(digest):
        print(
            f"  transfer {t.src}->{t.dst}: {t.nbytes:.3g} B"
            f" in {t.seconds:.3g}s ({t.bandwidth / 1024**3:.2f} GiB/s)"
        )
    return 0


def _cmd_fill(args) -> int:
    from repro.pdl.validator import validate_document
    from repro.pdl.writer import write_pdl
    from repro.tune.database import TuningDatabase
    from repro.tune.latebind import tuned_platform

    platform = _load_platform(args.platform)
    db = TuningDatabase.load(args.db)
    tuned, report = tuned_platform(
        platform,
        db,
        digest=args.digest,
        add_missing=not args.no_add_missing,
    )
    validation = validate_document(tuned)
    if not validation.ok:
        print(validation.summary(), file=sys.stderr)
        return 1
    xml = write_pdl(tuned)
    print(report.summary(), file=sys.stderr)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(xml)
        print(f"wrote tuned descriptor to {args.output}", file=sys.stderr)
    else:
        print(xml, end="")
    return 0


def _cmd_export(args) -> int:
    from repro.service.client import RegistryClient
    from repro.tune.database import TuningDatabase

    db = TuningDatabase.load(args.db)
    digest = _resolve_profile(db, args.ref)
    client = RegistryClient(args.url)
    result = client.publish_profile(digest, db.to_payload(digest))
    print(
        f"published profile {result['digest'][:12]}"
        f" ({result['samples']} samples) to {args.url}"
    )
    return 0


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    handlers = {
        "calibrate": _cmd_calibrate,
        "show": _cmd_show,
        "fill": _cmd_fill,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
