"""Command line front end.

Subcommands: ``audit`` runs the whole pipeline and writes every artifact;
``extract`` stops after the mention list; ``stats`` rebuilds the report
tables from an existing mentions file; ``sample`` draws a labeling sheet.
Exit codes: 0 on success, 2 when a run produced zero mentions, 1 on any
fatal error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .corpus import load_source_config
from .report import (
    _FORMATS,
    AuditConfig,
    build_report,
    emit,
    extract_mentions,
    load_resources,
    read_mentions_jsonl,
    run_audit,
    sample_for_labeling,
    write_mentions_jsonl,
)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_EMPTY = 2

log = logging.getLogger(__name__)


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="article corpus, JSONL")
    p.add_argument("--sources", required=True, help="outlet config, JSON")
    p.add_argument(
        "--gazetteers",
        default=None,
        help="directory of organization gazetteers (default: shipped data)",
    )
    p.add_argument(
        "--no-outlet-suppression",
        action="store_true",
        help="keep extractions whose organization is the quoting outlet itself",
    )
    p.add_argument(
        "--paper-faithful",
        action="store_true",
        help="disable artifact improvements (equivalent to --no-outlet-suppression)",
    )


#: The AuditConfig fields ``_add_stats_args`` defines, each under its own name.
_STATS_FIELDS = ("seed", "bootstrap_iterations", "bin_width", "gender_mode")


def _add_stats_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=AuditConfig.seed, help="master random seed")
    p.add_argument(
        "--bootstrap", type=int, default=AuditConfig.bootstrap_iterations,
        dest="bootstrap_iterations", metavar="B", help="bootstrap iterations",
    )
    p.add_argument(
        "--bin-width", type=int, default=AuditConfig.bin_width,
        help="rank bin width for the binned table",
    )
    p.add_argument(
        "--gender-mode",
        choices=("first", "majority"),
        default=AuditConfig.gender_mode,
        help="unique-expert gender from first mention or majority over aliases",
    )


def _config_from(args: argparse.Namespace) -> AuditConfig:
    # a field the subcommand does not define keeps AuditConfig's default
    suppress = not (
        getattr(args, "no_outlet_suppression", False)
        or getattr(args, "paper_faithful", False)
    )
    given = {name: getattr(args, name) for name in _STATS_FIELDS if hasattr(args, name)}
    return AuditConfig(outlet_suppression=suppress, **given)


def _parse_formats(raw: str) -> set:
    formats = {f.strip() for f in raw.split(",") if f.strip()}
    unknown = formats - _FORMATS
    if unknown:
        raise ValueError(f"unknown formats: {sorted(unknown)}")
    if not formats:
        raise ValueError("at least one format is required")
    return formats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsaudit",
        description="Audit who gets quoted as an expert in a news corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="run the full pipeline and emit artifacts")
    _add_pipeline_args(audit)
    _add_stats_args(audit)
    audit.add_argument("--out", required=True, help="output directory")
    audit.add_argument(
        "--formats",
        default="json,csv,svg",
        help="comma-separated subset of json,csv,svg",
    )

    extract = sub.add_parser("extract", help="extract mentions only")
    _add_pipeline_args(extract)
    extract.add_argument("--out", required=True, help="output directory")

    stats_p = sub.add_parser(
        "stats", help="rebuild report tables from an existing mentions file"
    )
    stats_p.add_argument("--mentions", required=True, help="mentions.jsonl path")
    stats_p.add_argument("--sources", required=True, help="outlet config, JSON")
    stats_p.add_argument(
        "--gazetteers", default=None, help="gazetteer directory (default: shipped data)"
    )
    _add_stats_args(stats_p)
    stats_p.add_argument("--out", required=True, help="output directory")
    stats_p.add_argument(
        "--formats", default="json,csv,svg", help="comma-separated subset of json,csv,svg"
    )

    sample = sub.add_parser("sample", help="draw a labeling sheet from mentions")
    sample.add_argument("--mentions", required=True, help="mentions.jsonl path")
    sample.add_argument("--n", type=int, required=True, help="articles to sample")
    sample.add_argument("--seed", type=int, default=0, help="sampling seed")
    sample.add_argument("--out", required=True, help="output CSV path")

    return parser


def _cmd_audit(args: argparse.Namespace) -> int:
    config = _config_from(args)
    formats = _parse_formats(args.formats)
    report = run_audit(
        args.corpus,
        args.sources,
        gazetteer_dir=args.gazetteers,
        config=config,
        out_dir=args.out,
    )
    written = emit(report, formats, args.out)
    totals = report.data.get("totals") or {}
    print(
        f"mentions={len(report.mentions)} "
        f"unique_experts={totals.get('unique_experts', 0)} "
        f"files={len(written)}"
    )
    return EXIT_EMPTY if report.empty else EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    sources = load_source_config(args.sources)
    resources = load_resources(args.gazetteers)
    config = _config_from(args)
    mentions, _ = extract_mentions(
        args.corpus, sources, resources, outlet_suppression=config.outlet_suppression
    )
    path = write_mentions_jsonl(mentions, Path(args.out) / "mentions.jsonl")
    print(f"mentions={len(mentions)} file={path}")
    return EXIT_EMPTY if not mentions else EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    config = _config_from(args)
    formats = _parse_formats(args.formats)
    sources = load_source_config(args.sources)
    resources = load_resources(args.gazetteers)
    mentions = read_mentions_jsonl(args.mentions, sources)
    report = build_report(mentions, sources, config, resources=resources)
    written = emit(report, formats, args.out)
    totals = report.data.get("totals") or {}
    print(f"mentions={totals.get('mentions', 0)} files={len(written)}")
    return EXIT_EMPTY if report.empty else EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    path = sample_for_labeling(args.mentions, args.n, args.seed, args.out)
    print(f"sheet={path}")
    return EXIT_OK


def main(argv: "list[str] | None" = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "audit": _cmd_audit,
        "extract": _cmd_extract,
        "stats": _cmd_stats,
        "sample": _cmd_sample,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
