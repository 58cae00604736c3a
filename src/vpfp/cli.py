"""Command-line front end: one subcommand per measurement campaign.

Exit codes are the contract scripts rely on: 0 on success, 2 when the
config is invalid, the outputs cannot be written or a run left its certified
regime, 3 when a run failed numerically inside an otherwise valid setup.
"""

import argparse
import sys
from pathlib import Path

from .errors import VpfpError
from .experiments import EXPERIMENT_KINDS, run_experiment
from .io_config import OutputLock, parse_config, resolve_out_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpfp",
        description="relaxation and echo experiments for a weakly "
                    "collisional plasma on a spectral lattice")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="|".join(EXPERIMENT_KINDS))
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} campaign")
        p.add_argument("--config", required=True,
                       help="path to a key = value config file")
        p.add_argument("--out", default="out",
                       help="output directory (default: out; relative "
                            "paths honor $VPFP_OUT)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}",
              file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        out_dir = resolve_out_dir(args.out)
        with OutputLock(out_dir):
            run_experiment(args.experiment, config, str(out_dir))
    except VpfpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # an output path that cannot be created or written is a setup error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.experiment}: outputs written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
