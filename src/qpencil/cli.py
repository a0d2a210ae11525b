"""Command-line harness: forward solve, reconstruction, delta sweep, roundtrip.

Exit codes: 0 success, 2 validation failure, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import NumericalError, ValidationError
from .experiments import (
    REFERENCE_DELTAS,
    SplitExperimentConfig,
    compute_split_delta_metric,
    format_table,
    make_split_data,
    roundtrip_check,
    run_table,
)
from .forward import PotentialPair, find_eigenvalues, weyl_residues
from .inverse import COND_LIMIT, default_grid, run_reconstruction
from .model import ZeroBackground
from .spectral_data import SpectralDataSet, truncate_hybrid

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

PROFILES = {
    "default": {"refine": None, "cond_limit": COND_LIMIT},    # refine: forward's rule
    "strict": {"refine": 20, "cond_limit": 1e8},
    "loose": {"refine": 3, "cond_limit": 1e12},
}


def _checked(convert, accept, what):
    """argparse ``type=`` converter: a bad value exits 2 with a usage message."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")


def _add_common(p):
    p.add_argument("--tolerance-profile", choices=sorted(PROFILES), default="default")


def _add_grid_n(p):
    p.add_argument("--grid-n", type=_positive_int, default=200,
                   help="number of grid intervals on [0, pi] (default 200)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qpencil",
        description="Forward and inverse spectral solvers for quadratic "
                    "differential pencils on (0, pi) with Dirichlet ends.")
    sub = ap.add_subparsers(dest="command", required=True)

    f = sub.add_parser("forward", help="potentials CSV -> spectral JSON")
    f.add_argument("--potentials", required=True, help="input CSV (x,re_q1,im_q1,re_sigma,im_sigma)")
    f.add_argument("--n-max", type=_positive_int, default=5)
    f.add_argument("--out", required=True, help="output spectral JSON")
    _add_common(f)

    i = sub.add_parser("inverse", help="spectral JSON -> potentials CSV")
    i.add_argument("--data", required=True, help="input spectral JSON")
    i.add_argument("--out", required=True, help="output potentials CSV, as forward reads")
    i.add_argument("--trunc-n", type=_nonnegative_int, default=None,
                   help="replace data beyond |n| <= trunc-n by the background")
    i.add_argument("--min-window", type=_nonnegative_int, default=0)
    _add_grid_n(i)
    _add_common(i)

    t = sub.add_parser("split-table", help="eigenvalue-splitting sweep -> table CSV + plot CSVs")
    t.add_argument("--deltas", default=",".join(str(d) for d in REFERENCE_DELTAS),
                   help="comma-separated splitting parameters (0 allowed)")
    t.add_argument("--contour-r", type=float, default=0.85,
                   help="radius of the contour about 0, read only with --metrics (default 0.85)")
    t.add_argument("--out-dir", default=None)
    t.add_argument("--metrics", action="store_true",
                   help="also print the contour perturbation metric per delta")
    t.add_argument("--no-verify", action="store_true",
                   help="skip the forward winding verification of the delta=0 row")
    _add_grid_n(t)

    r = sub.add_parser("roundtrip", help="reconstruct, re-solve forward, compare")
    r.add_argument("--data", required=True, help="input spectral JSON")
    r.add_argument("--n-check", type=_positive_int, default=3)
    r.add_argument("--trunc-n", type=_nonnegative_int, default=None)
    _add_grid_n(r)
    _add_common(r)
    return ap


def _cmd_forward(args) -> int:
    pot = PotentialPair.from_csv(args.potentials)
    profile = PROFILES[args.tolerance_profile]
    eigs = find_eigenvalues(pot, args.n_max, pot.omega0(), refine=profile["refine"])
    full = weyl_residues(pot, eigs, refine=profile["refine"])
    full.save_json(args.out)
    print(f"wrote {len(full.window_indices())} entries to {args.out}")
    return EXIT_OK


def _load_data(args):
    """The --data set, truncated at --trunc-n, its zero background and the profile."""
    data = SpectralDataSet.load_json(args.data)
    if args.trunc_n is not None:
        data = truncate_hybrid(data, args.trunc_n)
    return data, ZeroBackground(), PROFILES[args.tolerance_profile]


def _cmd_inverse(args) -> int:
    data, model, profile = _load_data(args)
    rec = run_reconstruction(data, model, default_grid(args.grid_n),
                             min_window=args.min_window,
                             cond_limit=profile["cond_limit"])
    rec.as_potentials().to_csv(args.out)
    print(f"wrote potentials on {args.grid_n + 1} nodes to {args.out} "
          f"(max 1-norm condition {rec.cond.max():.3e}, residual {rec.residual:.3e})")
    return EXIT_OK


def _cmd_split_table(args) -> int:
    try:
        deltas = tuple(float(s) for s in args.deltas.split(",") if s.strip() != "")
    except ValueError as err:
        raise ValidationError(f"--deltas: {err}") from None
    config = SplitExperimentConfig(delta_list=deltas, n_grid=args.grid_n)
    # before the sweep, so that a contour the metric rejects costs no reconstruction
    reference = make_split_data(0.0)
    metrics = [(d, compute_split_delta_metric(make_split_data(d), reference, n_star=1,
                                              contour_radius=args.contour_r))
               for d in deltas if d and args.metrics]
    out_dir = None
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_table(config, out_dir=out_dir, verify_multiplicity=not args.no_verify)
    print(format_table(rows))
    if args.metrics:
        print("\ncontour perturbation metric (vs double-eigenvalue data):")
        for d, metric in metrics:
            print(f"  delta={d:<8g} metric={metric:.6e}")
    if any(r.error for r in rows):
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    data, model, profile = _load_data(args)
    report = roundtrip_check(data, model, args.n_check,
                             grid=default_grid(args.grid_n),
                             refine=profile["refine"], cond_limit=profile["cond_limit"])
    print(report.format())
    # a group whose circle winds other than its size is a numerical failure
    return EXIT_NUMERICAL if any(w != m for w, m in report.windings.values()) else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"forward": _cmd_forward, "inverse": _cmd_inverse,
                "split-table": _cmd_split_table, "roundtrip": _cmd_roundtrip}
    try:
        return handlers[args.command](args)
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
