"""Command line front end: verify, check, catalog, and hist subcommands."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    CSV_COLUMNS,
    SweepConfig,
    emit_gap_histogram,
    check_instance,
    read_records,
    run_sweep,
)
from .monotone import _wyd_beta, from_key, validate_catalog_entry
from .qinfo import DEFAULT_TOL

_DEFAULT_CATALOG = ("sld", "harmonic", "wyd:0.1", "wyd:0.25", "wyd:0.5", "wyd:0.75", "wyd:0.9")

_EPILOG = f"""\
exit codes:
  0  all checks passed
  2  at least one tolerance violation was flagged
  1  usage, input or configuration error

The base tolerance defaults to {DEFAULT_TOL:g}; --tol overrides it. Per-record
the effective tolerance is tol * max(1, var_a * var_b).

Per-trial seeds are hash64(seed, dim, trial), a chained splitmix64 hash, so
a sweep configuration reproduces its record stream byte for byte.

CSV record columns, in order:
  {", ".join(CSV_COLUMNS)}
residuals and flags are semicolon-joined within their cells.
"""


def _split_keys(values: list[str] | None, fallback: tuple[str, ...]) -> list[str]:
    if not values:
        return list(fallback)
    keys: list[str] = []
    for chunk in values:
        keys.extend(k for k in (p.strip() for p in chunk.split(",")) if k)
    return keys


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1: exit code 2 means a flagged violation.

    Subparsers are built with the same class, so they inherit the exit code.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewcal",
        description="Verify uncertainty inequalities for finite-dimensional quantum states.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="run a randomized sweep and print its summary",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    verify.add_argument("--dims", default="2,3,4", help="comma-separated dimensions (default: 2,3,4)")
    verify.add_argument("--trials", type=int, default=100, help="trials per dimension (default: 100)")
    verify.add_argument(
        "--f",
        action="append",
        metavar="KEY",
        help="monotone function key (repeatable or comma-separated; default: wyd:0.5)",
    )
    verify.add_argument("--seed", type=int, default=0, help="sweep seed (default: 0)")
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL, help=f"base tolerance (default: {DEFAULT_TOL:g})")
    verify.add_argument("--gns-audit", action="store_true", help="also run the G = H identity audit per instance")
    verify.add_argument("--no-normalize", action="store_true", help="skip Frobenius normalization of observables")
    verify.add_argument("--out", default=None, help="write the record stream to this path")
    verify.add_argument("--format", choices=("jsonl", "csv"), default="jsonl", help="record format (default: jsonl)")

    check = sub.add_parser("check", help="evaluate one instance from matrix JSON files")
    check.add_argument("--rho", required=True, help="density matrix JSON file")
    check.add_argument("--a", required=True, help="first observable JSON file")
    check.add_argument("--b", required=True, help="second observable JSON file")
    check.add_argument("--f", default="wyd:0.5", help="monotone function key (default: wyd:0.5)")
    check.add_argument("--tol", type=float, default=DEFAULT_TOL, help=f"base tolerance (default: {DEFAULT_TOL:g})")

    catalog = sub.add_parser("catalog", help="list or validate monotone function entries")
    catalog.add_argument("--validate", action="store_true", help="run grid validation and print reports")
    catalog.add_argument(
        "--f",
        action="append",
        metavar="KEY",
        help=f"keys to validate (default: {','.join(_DEFAULT_CATALOG)})",
    )

    hist = sub.add_parser("hist", help="bucket a jsonl record stream into a gap histogram CSV")
    hist.add_argument("--in", dest="input", required=True, help="jsonl records from verify")
    hist.add_argument("--out", required=True, help="CSV output path")
    hist.add_argument("--buckets", type=int, default=20, help="number of log-spaced buckets (default: 20)")

    return parser


def _cmd_verify(args) -> int:
    try:
        config = SweepConfig(
            dims=tuple(int(d) for d in args.dims.split(",") if d.strip()),
            trials=args.trials,
            f_specs=tuple(_split_keys(args.f, ("wyd:0.5",))),
            seed=args.seed,
            tol=args.tol,
            normalize_observables=not args.no_normalize,
            gns_audit=args.gns_audit,
            output_path=args.out,
            format=args.format,
        )
        summary = run_sweep(config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary.to_dict()))
    return 0 if summary.violations == 0 else 2


def _cmd_check(args) -> int:
    payload, code = check_instance(args.rho, args.a, args.b, args.f, tol=args.tol)
    if code == 1:
        print(f"error: {payload['error']}", file=sys.stderr)
        return 1
    print(json.dumps(payload))
    return code


def _cmd_catalog(args) -> int:
    keys = _split_keys(args.f, _DEFAULT_CATALOG)
    try:
        if not keys:
            raise ValueError("--f gives no monotone function keys")
        entries = [(key, from_key(key)) for key in keys]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.validate:
        for key, f in entries:
            kind = "fixed" if _wyd_beta(f) is None else "parametric"
            print(f"{key}\t{kind}\tf(0) = {f.f_at_zero:g}")
        return 0
    reports = [validate_catalog_entry(f) for _, f in entries]
    print(json.dumps([r.to_dict() for r in reports]))
    return 0 if all(r.ok for r in reports) else 2


def _cmd_hist(args) -> int:
    try:
        records = read_records(args.input)
        rows = emit_gap_histogram(records, n_buckets=args.buckets, out_path=args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} buckets covering {len(records)} records to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "check": _cmd_check,
        "catalog": _cmd_catalog,
        "hist": _cmd_hist,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
