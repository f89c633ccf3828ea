"""Command-line entry point: build, stats, sample, query."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .config import (
    INT_FIELDS,
    PATH_FIELDS,
    UNIT_FIELDS,
    ConfigError,
    PipelineConfig,
    external_key,
    make_config,
    parse_config_file,
)
from .pipeline import REPORT_FILE, StageError, run_build
from .store import (
    GraphFormatError,
    NodeLookupError,
    format_stats,
    query_entails,
    read_graph,
    sample_for_annotation,
    stats,
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    for f in fields(PipelineConfig):
        kind = int if f.name in INT_FIELDS else float if f.name in UNIT_FIELDS else None
        parser.add_argument(f"--{external_key(f.name)}", default=None, dest=f.name, type=kind)


def _effective_config(args: argparse.Namespace):
    raw: dict[str, str] = {}
    base_dir = Path(".")
    if args.config:
        raw.update(parse_config_file(args.config))
        base_dir = Path(args.config).resolve().parent
    for f in fields(PipelineConfig):
        value = getattr(args, f.name)
        if value is not None:
            # Path flags are interpreted relative to the caller, not the config file.
            raw[external_key(f.name)] = str(
                Path(value).resolve() if f.name in PATH_FIELDS else value
            )
    return make_config(raw, base_dir, require_inputs=args.command == "build")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evgraph",
        description="Build and query an eventuality entailment graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "build": "run the full construction pipeline",
        "stats": "per-type edge counts of a built graph",
        "sample": "sample edges for annotation",
        "query": "does one eventuality entail another?",
    }
    for name, text in commands.items():
        _add_config_flags(sub.add_parser(name, help=text))
    p_sample, p_query = sub.choices["sample"], sub.choices["query"]
    p_sample.add_argument("--n", type=int, default=100, help="pairs per type")
    p_sample.add_argument("--out", default=None, help="output file (default: stdout)")
    p_query.add_argument("premise")
    p_query.add_argument("hypothesis")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
    except (ConfigError, OSError) as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 1
    if args.command == "sample" and args.n < 0:
        print(f"error[sample]: --n must be >= 0, got {args.n}", file=sys.stderr)
        return 1

    try:
        if args.command == "build":
            result = run_build(cfg)
            counts = result.report["counts"]
            print(
                f"built {counts['edges_total']} edges over "
                f"{counts['eventualities']} eventualities "
                f"({counts['paths']} predicate paths); "
                f"report: {Path(cfg.output_dir) / REPORT_FILE}"
            )
            return 0

        try:
            graph = read_graph(cfg.output_dir)
        except (GraphFormatError, OSError) as exc:
            print(f"error[graph]: {exc}", file=sys.stderr)
            return 1
        if args.command == "stats":
            sys.stdout.write(format_stats(stats(graph)))
        elif args.command == "sample":
            lines = sample_for_annotation(graph, args.n, cfg.seed)
            text = "".join(line + "\n" for line in lines)
            if args.out:
                try:
                    Path(args.out).write_text(text, encoding="utf-8")
                except OSError as exc:
                    print(f"error[sample]: {exc}", file=sys.stderr)
                    return 1
            else:
                sys.stdout.write(text)
        elif args.command == "query":
            result = query_entails(graph, args.premise, args.hypothesis)
            print(result.kind)
            for edge in result.trail:
                print(
                    f"  {graph.text(graph.row(edge.from_id))} -> "
                    f"{graph.text(graph.row(edge.to_id))} "
                    f"[{edge.provenance}, score={edge.local_score:.4f}]"
                )
        return 0
    except StageError as exc:
        print(f"error[{exc.stage}]: {exc}", file=sys.stderr)
        return 1
    except NodeLookupError as exc:
        print(f"error[query]: {exc.args[0]}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
