"""Command-line entry point.

Subcommands: build-kg, query, eval, bench, replay-verify. Exit codes:
0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import logging
import sys
from pathlib import Path

from . import evaluation, ingest, kg as kgmod, reasoning
from .config import RunConfig, build_gateway, load_config
from .errors import ConfigError, SpecKGError

logger = logging.getLogger("speckg")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML/JSON config file")
    parser.add_argument("--mode", choices=["live", "record", "replay"],
                        help="gateway mode (overrides config)")
    parser.add_argument("--fixtures", help="fixture store path (overrides config)")
    parser.add_argument("--verbose", action="store_true")


def _add_scoring(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that score a dataset: eval, bench, replay-verify."""
    only = (", repeated only with a live provider that samples (replay, record "
            "and the offline provider answer and judge once)")
    p.add_argument("--kg", required=True, help="graph store directory")
    p.add_argument("--dataset", required=True, help="QA dataset (JSON lines)")
    p.add_argument("--runs", type=int, help="answer generations per item" + only)
    p.add_argument("--judge-reps", type=int, help="judge assessments per answer" + only)
    p.add_argument("--jobs", type=int, help="parallel per-question workers")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="speckg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-kg", help="ingest a specification and persist its graph")
    _add_common(p)
    p.add_argument("--spec", required=True, help="plain-text or Markdown document")
    p.add_argument("--out", required=True, help="output store directory")

    p = sub.add_parser("query", help="answer one question over a built graph")
    _add_common(p)
    p.add_argument("--kg", required=True, help="graph store directory")
    p.add_argument("--question", required=True)
    p.add_argument("--trace", help="write the full answer record to this file")

    p = sub.add_parser("eval", help="score a QA dataset and write a report")
    _add_common(p)
    _add_scoring(p)
    p.add_argument("--out", required=True, help="report path (JSON; .txt written beside)")

    p = sub.add_parser("bench", help="run the benchmark into a run directory")
    _add_common(p)
    _add_scoring(p)
    p.add_argument("--run-dir", required=True)

    p = sub.add_parser("replay-verify",
                       help="run the benchmark twice in replay mode and compare reports")
    _add_common(p)
    _add_scoring(p)
    p.add_argument("--out", required=True, help="directory receiving both run dirs")

    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {
        "gateway.mode": getattr(args, "mode", None),
        "gateway.fixture_path": getattr(args, "fixtures", None),
        "eval.n_runs": getattr(args, "runs", None),
        "eval.n_judge": getattr(args, "judge_reps", None),
        "jobs": getattr(args, "jobs", None),
    }
    return load_config(args.config, overrides)


def cmd_build_kg(args) -> int:
    cfg = _config_from_args(args)
    gateway = build_gateway(cfg)
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise ConfigError(f"spec file not found: {spec_path}")
    document = spec_path.read_text(encoding="utf-8")
    corpus = ingest.ingest_document(gateway, document, spec_path.stem,
                                    cfg.ingest.max_passage_tokens)
    # build before saving anything, so a failed build leaves the store as it was
    graph = kgmod.build_from_corpus(corpus, gateway)
    out = Path(args.out)
    corpus.save(out)
    kgmod.save(graph, out)
    logger.info("built store=%s passages=%d entities=%d statements=%d skipped=%d",
                out, len(graph.passages), len(graph.entities),
                len(graph.statements), len(corpus.skipped))
    print(json.dumps({
        "store": str(out),
        "passages": len(graph.passages),
        "entities": len(graph.entities),
        "statements": len(graph.statements),
        "triples": len(graph.triples),
        "skipped_sentences": len(corpus.skipped),
    }, indent=2, sort_keys=True))
    return 0


def cmd_query(args) -> int:
    cfg = _config_from_args(args)
    gateway = build_gateway(cfg)
    graph = kgmod.load(args.kg)
    record = reasoning.run(args.question, graph, gateway, cfg)
    payload = record.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.trace:
        trace_path = Path(args.trace)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if not any(f.startswith("error:") for f in record.flags) else 1


def _scoring_inputs(cfg: RunConfig, args):
    """The gateway, graph and dataset of a scoring command, with checksums:
    the manifest's of ``graph.jsonl``, which loading checked the file
    against, and the dataset's, of the bytes that were parsed."""
    gateway = build_gateway(cfg)
    graph, store_checksums = kgmod.load_store(args.kg)
    data, dataset = evaluation.read_dataset(args.dataset)
    checksums = {"corpus_checksum": store_checksums["graph.jsonl"],
                 "dataset_checksum": hashlib.sha256(data).hexdigest()}
    return gateway, graph, dataset, checksums


def _exit_code(report: evaluation.EvalReport) -> int:
    """1 when any item failed, by an error or an ``error:`` flag, as ``query``
    exits; the whole report is written first either way."""
    failed = any(item.error is not None or any(f.startswith("error:") for f in item.flags)
                 for item in report.items)
    return 1 if failed else 0


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    gateway, graph, dataset, _ = _scoring_inputs(cfg, args)
    report = evaluation.run_benchmark(dataset, graph, gateway, cfg)
    out = Path(args.out)
    evaluation.write_report(report, out, out.with_suffix(".txt"))
    print(report.render_text())
    return _exit_code(report)


def _bench_into(cfg: RunConfig, args, run_dir: Path) -> evaluation.EvalReport:
    """Persist the effective config with the store's and dataset's checksums,
    score the dataset, and write the report into ``run_dir``."""
    gateway, graph, dataset, checksums = _scoring_inputs(cfg, args)
    cfg.persist(run_dir, extra=checksums)
    report = evaluation.run_benchmark(dataset, graph, gateway, cfg)
    evaluation.write_report(report, run_dir / "report.json", run_dir / "report.txt")
    return report


def cmd_bench(args) -> int:
    report = _bench_into(_config_from_args(args), args, Path(args.run_dir))
    print(report.render_text())
    return _exit_code(report)


def cmd_replay_verify(args) -> int:
    cfg = _config_from_args(args)
    if cfg.gateway.mode != "replay":
        raise ConfigError("replay-verify requires gateway.mode=replay (pass --mode replay)")
    reports = [Path(args.out) / name / "report.json" for name in ("run1", "run2")]
    for path in reports:
        _bench_into(cfg, args, path.parent)
    identical = filecmp.cmp(reports[0], reports[1], shallow=False)
    print(json.dumps({"identical": identical,
                      "reports": [str(p) for p in reports]}, indent=2))
    if not identical:
        logger.error("replay runs diverged: %s vs %s", reports[0], reports[1])
        return 1
    return 0


_COMMANDS = {
    "build-kg": cmd_build_kg,
    "query": cmd_query,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "replay-verify": cmd_replay_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="level=%(levelname)s module=%(name)s msg=%(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpecKGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
