"""Command-line entry point.

Exit codes: 0 success, 1 validation/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import io
from .config import load_config
from .dataset import load_dataset
from .errors import NumericalError, ValidationError, naming, shown
from .normalize import ConstantColumnWarning
from .pipeline import run_pipeline
from .rating import REPORT_FOOTER, score_agreement
from .snapshot import load_snapshot, save_snapshot, score_rows

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_VALIDATION)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relarm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--data", required=True, help="raw data CSV")
        p.add_argument("--out-dir", default=".", help="output directory")

    p_run = sub.add_parser("run", help="full pipeline: normalize, fit, cluster, assign")
    common(p_run)
    p_run.add_argument("--reference", help="reference ratings CSV for agreement scoring")
    p_run.add_argument(
        "--dump-intermediates",
        action="store_true",
        help="also write normalized matrix, weights, features, centers",
    )

    p_fit = sub.add_parser("fit", help="fit the model and write a snapshot")
    common(p_fit)

    p_assign = sub.add_parser("assign", help="score objects against a saved snapshot")
    p_assign.add_argument("--snapshot", required=True, help="snapshot JSON from 'fit'")
    p_assign.add_argument("--data", required=True, help="raw data CSV")
    p_assign.add_argument("--out-dir", default=".", help="output directory")

    p_score = sub.add_parser("score", help="compare a rating list with reference ratings")
    p_score.add_argument("--ratings", required=True, help="rating list CSV from 'run'")
    p_score.add_argument("--reference", required=True, help="reference ratings CSV")
    p_score.add_argument("--config", help="config JSON (scale and collapse table)")
    p_score.add_argument("--out-dir", default=".", help="output directory")

    return parser


def _fit(args):
    """Fit on ``--data`` with the config; returns (config, outputs).  An
    error of the fit names the data file, and a fit that stopped at the
    Lloyd cap is reported on stderr."""
    cfg = load_config(args.config)
    dataset = load_dataset(args.data, cfg.indicators)
    with naming(args.data):  # the fit rejects the data
        outputs = run_pipeline(cfg, dataset)
    if not outputs.clusters.converged:
        print(
            f"warning: k-means stopped at max_iterations={cfg.max_iterations} "
            f"before converging",
            file=sys.stderr,
        )
    return cfg, outputs


def _agreement(args, ratings, reference, labels, collapse_table):
    """Score ``ratings`` against ``reference``, read from ``--reference``;
    a category that collapses to no label is an error naming that file,
    and each reference object absent from the ratings a stderr warning."""
    with naming(args.reference):
        report = score_agreement(ratings, reference, labels=labels, collapse_table=collapse_table)
    for obj in report.skipped:
        print(f"warning: reference object {shown(obj)} absent from results; skipped",
              file=sys.stderr)
    return report


def _cmd_run(args) -> int:
    reference = io.read_reference_csv(args.reference) if args.reference else None
    cfg, outputs = _fit(args)
    # compared before anything is written, so a bad reference leaves no output
    report = None
    if reference is not None:
        report = _agreement(args, outputs.ratings, reference, cfg.labels, cfg.collapse_table)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # every file replaces its old copy only once all are written
    with io.written_together(out_dir) as stage:
        save_snapshot(outputs.snapshot, stage / "snapshot.json")
        io.write_ratings_csv(stage / "ratings.csv", outputs.ratings)
        if report is not None:
            io.write_agreement_json(stage / "agreement.json", report)
            frac = report.fraction
            print(
                "agreement: "
                + (f"{frac:.4f}" if frac is not None else "no comparable objects")
            )
        if args.dump_intermediates:
            objects = outputs.ratings.objects
            io.write_matrix_csv(
                stage / "normalized.csv",
                outputs.normalized,
                ["object"] + [s.name for s in cfg.indicators],
                row_ids=objects,
            )
            model = outputs.snapshot.model
            pc_names = [f"PC{p + 1}" for p in range(model.d)]
            io.write_matrix_csv(
                stage / "w_matrix.csv",
                model.W,
                ["indicator"] + pc_names,
                row_ids=[s.name for s in cfg.indicators],
            )
            io.write_matrix_csv(stage / "lambda.csv", model.Lambda.reshape(1, -1), pc_names)
            io.write_matrix_csv(
                stage / "features.csv",
                outputs.features,
                ["object"] + pc_names,
                row_ids=objects,
            )
            io.write_matrix_csv(
                stage / "centers.csv",
                outputs.clusters.centers,
                ["cluster"] + pc_names,
                row_ids=[str(q + 1) for q in range(outputs.clusters.k)],
            )
    print(f"rated {len(outputs.ratings.objects)} objects into {cfg.k} categories")
    print(REPORT_FOOTER)
    return EXIT_OK


def _cmd_fit(args) -> int:
    cfg, outputs = _fit(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_snapshot(outputs.snapshot, out_dir / "snapshot.json")
    print(f"wrote {out_dir / 'snapshot.json'} (d={outputs.snapshot.model.d}, k={cfg.k})")
    return EXIT_OK


def _cmd_assign(args) -> int:
    snapshot = load_snapshot(args.snapshot)

    def rate(ids, values):  # in the process that parsed the rows (load_dataset)
        # rows that the whole table's check then rejects are rated for
        # nothing: no numpy warning of theirs may print before its error
        with np.errstate(over="ignore", invalid="ignore"):
            return io.rating_rows(score_rows(snapshot, ids, values))

    table = load_dataset(args.data, snapshot.config.indicators, rate)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_rating_rows(out_dir / "ratings.csv", table.results)
    print(f"wrote {out_dir / 'ratings.csv'}")
    print(REPORT_FOOTER)
    return EXIT_OK


def _cmd_score(args) -> int:
    result = io.read_ratings_csv(args.ratings)
    reference = io.read_reference_csv(args.reference)
    if args.config:
        cfg = load_config(args.config)
        report = _agreement(args, result, reference, cfg.labels, cfg.collapse_table)
    else:
        try:
            report = _agreement(args, result, reference, None, None)
        except ValidationError as exc:
            # the scale is only the categories that the ratings file holds
            raise ValidationError(
                f"{exc} (the scale was read from the categories in the ratings "
                f"file {args.ratings}; --config gives the config's whole scale)"
            ) from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_agreement_json(out_dir / "agreement.json", report)
    if report.fraction is None:
        print("no comparable objects")
    else:
        print(f"agreement: {report.matched}/{report.compared} = {report.fraction:.4f}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "fit": _cmd_fit,
    "assign": _cmd_assign,
    "score": _cmd_score,
}


def _print_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            # a warning prints as the CLI's own do, without library source;
            # each constant column once per command, whatever the filters
            warnings.simplefilter("always", ConstantColumnWarning)
            warnings.showwarning = _print_warning
            return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
