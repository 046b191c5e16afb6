"""Factual-fidelity evaluation.

Answers are decomposed into minimal atomic claims; a judge matches generated
atoms against human-authored reference atoms one-to-one (greedy in generated
order, each reference certifying at most one candidate), and precision /
recall / F1 follow from the matched set. Whole-run statistics use the
two-sigma rule: one pass, outliers beyond two population standard deviations
dropped before averaging.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path

from . import prompts, reasoning
from .errors import FixtureMiss, InvalidInput, SpecKGError
from .gateway import Gateway
from .kg import SpecGraph
from .retrieval import RetrievalRound

logger = logging.getLogger(__name__)

QUESTION_TYPES = (
    "single-module-config-loc",
    "cross-module-config-loc",
    "behavioral-process-analysis",
    "signal-dependency",
    "control-path-tracing",
)

# Each field of a dataset record and its type; the lists hold strings.
_ITEM_FIELDS = {"qid": str, "question": str, "question_type": str, "hop_count": int,
                "gold_answer": str, "gold_atoms": list, "gold_passages": list}


@dataclass
class QAItem:
    qid: str
    question: str
    question_type: str
    hop_count: int
    gold_answer: str
    gold_atoms: list[str]
    gold_passages: list[str]

    def __post_init__(self):
        if self.question_type not in QUESTION_TYPES:
            raise InvalidInput(f"unknown question type {self.question_type!r}")
        if self.hop_count < 1:
            raise InvalidInput("hop_count must be >= 1")
        if not self.gold_atoms:
            raise InvalidInput("gold_atoms must be non-empty")

    @classmethod
    def from_dict(cls, data: dict) -> "QAItem":
        """The item a dataset record holds. A record that is not an object, or
        lacks a field or holds one at another JSON type, raises InvalidInput."""
        if not isinstance(data, dict):
            raise InvalidInput("a dataset item must be a JSON object")
        for name, kind in _ITEM_FIELDS.items():
            if name not in data:
                raise InvalidInput(f"missing field {name!r}")
            value = data[name]
            if (not isinstance(value, kind) or isinstance(value, bool)
                    or kind is list and not all(isinstance(v, str) for v in value)):
                expected = "a list of strings" if kind is list else f"a JSON {kind.__name__}"
                raise InvalidInput(f"field {name!r} must be {expected}, not {value!r}")
        return cls(
            qid=data["qid"],
            question=data["question"],
            question_type=data["question_type"],
            hop_count=data["hop_count"],
            gold_answer=data["gold_answer"],
            gold_atoms=list(data["gold_atoms"]),
            gold_passages=list(data["gold_passages"]),
        )


def load_dataset(path: str | Path) -> list[QAItem]:
    """The items of a JSON-lines QA dataset. A file that cannot be opened
    raises InvalidInput, and a line that is not JSON or not a valid item one
    naming ``path:line``."""
    items = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InvalidInput(f"cannot read dataset {path}: {exc.strerror}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                items.append(QAItem.from_dict(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise InvalidInput(f"{path}:{lineno}: not JSON: {exc}") from None
            except InvalidInput as exc:
                raise InvalidInput(f"{path}:{lineno}: {exc}") from None
    if not items:
        raise InvalidInput(f"dataset {path} is empty")
    return items


# --- atoms -------------------------------------------------------------------

def _atom_norm(text: str) -> str:
    return re.sub(r"\s+", " ", re.sub(r"[^\w\s]", "", text.lower())).strip()


def decompose(gateway: Gateway, answer: str) -> list[str]:
    """Split an answer into atomic claims, deduplicated by normalized text."""
    if not answer.strip():
        return []
    reply = gateway.chat(prompts.atom_decompose(answer))
    atoms, seen = [], set()
    for atom in reply["atoms"]:
        key = _atom_norm(atom)
        if key and key not in seen:
            seen.add(key)
            atoms.append(atom)
    return atoms


@dataclass
class MatchOutcome:
    matched: list[str]
    judge_errors: int = 0


def match(gateway: Gateway, a_gen: list[str], a_ref: list[str]) -> MatchOutcome:
    """Greedy one-to-one matching of generated atoms against references.

    Each judge call sees only the references not yet consumed, so a single
    reference can never certify two paraphrases; a judge failure scores that
    atom unmatched and is counted. A ``FixtureMiss`` is no judge failure: a
    replay without the judge's reply propagates it and fails the item.
    """
    if not a_ref:
        raise InvalidInput("reference atom set must be non-empty")
    available = list(range(len(a_ref)))
    outcome = MatchOutcome(matched=[])
    for atom in a_gen:
        refs = [a_ref[i] for i in available]
        if not refs:
            continue
        try:
            reply = gateway.chat(prompts.atom_match(atom, refs))
        except FixtureMiss:
            raise
        except SpecKGError:
            outcome.judge_errors += 1
            continue
        idx = reply["match_index"]
        if idx is not None and 0 <= idx < len(refs):
            available.pop(idx)
            outcome.matched.append(atom)
    return outcome


def score(matched: list[str], a_gen: list[str], a_ref: list[str]) -> tuple[float, float, float]:
    """P = |matched|/|gen|, R = |matched|/|ref|, F1 = 2PR/(P+R); empty sets → 0."""
    if not set(_atom_norm(m) for m in matched) <= set(_atom_norm(a) for a in a_gen):
        raise InvalidInput("matched atoms must be a subset of generated atoms")
    precision = len(matched) / len(a_gen) if a_gen else 0.0
    recall = len(matched) / len(a_ref) if a_ref else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


@dataclass
class AtomicScore:
    precision: float
    recall: float
    f1: float


def atomic_score(gateway: Gateway, answer: str, gold_atoms: list[str]) -> AtomicScore:
    a_gen = decompose(gateway, answer)
    if not a_gen:
        return AtomicScore(0.0, 0.0, 0.0)
    outcome = match(gateway, a_gen, gold_atoms)
    return AtomicScore(*score(outcome.matched, a_gen, gold_atoms))


# --- run-level metrics ----------------------------------------------------------

def system_recall_at_k(retrieval_log: list[RetrievalRound], gold_passages: list[str],
                       k: int) -> float | None:
    """Fraction of gold passages retrieved anywhere in the run, budget k.

    The retrieved pool is the union of per-round accepted sets in
    chronological acceptance order, capped at the first k distinct passages.
    Empty gold → None (not applicable).
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if not gold_passages:
        return None
    pool: list[str] = []
    seen: set[str] = set()
    for entry in retrieval_log:
        for pid in entry.accepted:
            if pid not in seen:
                seen.add(pid)
                pool.append(pid)
            if len(pool) >= k:
                break
        if len(pool) >= k:
            break
    hits = set(pool) & set(gold_passages)
    return len(hits) / len(gold_passages)


@dataclass
class TwoSigmaResult:
    mean: float
    dropped: int


def aggregate_two_sigma(scores: list[float]) -> TwoSigmaResult:
    """Single-pass outlier-trimmed mean using population sigma."""
    if not scores:
        raise InvalidInput("cannot aggregate an empty score list")
    n = len(scores)
    mean = sum(scores) / n
    sigma = math.sqrt(sum((x - mean) ** 2 for x in scores) / n)
    if sigma == 0.0:
        # one value, equal values, or squared deviations underflowed:
        # nothing to trim
        return TwoSigmaResult(mean=mean, dropped=0)
    survivors = [x for x in scores if abs(x - mean) <= 2.0 * sigma]
    if not survivors:
        survivors = list(scores)
    return TwoSigmaResult(mean=sum(survivors) / len(survivors),
                          dropped=n - len(survivors))


# --- benchmark ---------------------------------------------------------------------

@dataclass
class ItemResult:
    qid: str
    question_type: str
    hop_count: int
    answer: str
    rounds_used: int
    flags: list[str]
    precision: float
    recall: float
    f1: float
    system_recall: float | None
    samples: int  # judged answers behind the means (see repetitions)
    dropped: int
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "qid": self.qid,
            "question_type": self.question_type,
            "hop_count": self.hop_count,
            "answer": self.answer,
            "rounds_used": self.rounds_used,
            "flags": self.flags,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "system_recall": self.system_recall,
            "samples": self.samples,
            "dropped": self.dropped,
            "error": self.error,
        }


@dataclass
class EvalReport:
    items: list[ItemResult]
    per_category: dict[str, dict]
    overall_f1: float | None
    mean_system_recall: float | None
    recall_k: int
    n_runs: int
    n_judge: int

    def to_dict(self) -> dict:
        return {
            "items": [item.to_dict() for item in self.items],
            "per_category": self.per_category,
            "overall_f1": self.overall_f1,
            "mean_system_recall": self.mean_system_recall,
            "recall_k": self.recall_k,
            "n_runs": self.n_runs,
            "n_judge": self.n_judge,
        }

    def render_text(self) -> str:
        """One row per configuration, one column per question type."""
        header = ["config"] + [f"{t} AVG" for t in QUESTION_TYPES] + ["AVG", f"Recall@{self.recall_k}"]
        cells = ["this-run"]
        for qtype in QUESTION_TYPES:
            stats = self.per_category.get(qtype)
            cells.append(f"{stats['mean_f1']:.3f}" if stats else "-")
        cells.append(f"{self.overall_f1:.3f}" if self.overall_f1 is not None else "-")
        cells.append(f"{self.mean_system_recall:.3f}" if self.mean_system_recall is not None else "-")
        widths = [max(len(h), len(c)) for h, c in zip(header, cells)]
        line = " | ".join(h.ljust(w) for h, w in zip(header, widths))
        rule = "-+-".join("-" * w for w in widths)
        row = " | ".join(c.ljust(w) for c, w in zip(cells, widths))
        return "\n".join([line, rule, row]) + "\n"


def repetitions(gateway: Gateway, cfg) -> tuple[int, int]:
    """Answer generations per item and judge passes per answer.

    When the gateway's replies are fixed by the request, every repetition
    would send the first one's requests and get its replies back, so one
    answer judged once measures all there is to measure.
    """
    if gateway.replies_fixed:
        return 1, 1
    return cfg.eval.n_runs, cfg.eval.n_judge


def evaluate_item(gateway: Gateway, kg: SpecGraph, item: QAItem, cfg) -> ItemResult:
    """Answer one question n_runs times, judge each answer n_judge times;
    once each when replies are fixed (see :func:`repetitions`). A run that
    ends flagged ``error:`` fails the item with that flag as its error, as a
    failed judge call does with its own: neither answer is scored."""
    n_runs, n_judge = repetitions(gateway, cfg)
    record: reasoning.AnswerRecord | None = None
    error: str | None = None
    samples_p, samples_r, samples_f1, recalls = [], [], [], []
    try:
        for _ in range(n_runs):
            record = reasoning.run(item.question, kg, gateway, cfg)
            error = next((f for f in record.flags if f.startswith("error:")), None)
            if error is not None:
                break
            recalls.append(system_recall_at_k(record.retrieval_log, item.gold_passages,
                                              cfg.eval.recall_k))
            for _ in range(n_judge):
                result = atomic_score(gateway, record.answer, item.gold_atoms)
                samples_p.append(result.precision)
                samples_r.append(result.recall)
                samples_f1.append(result.f1)
    except SpecKGError as exc:
        error = str(exc)
    if error is not None:
        logger.error("item %s failed: %s", item.qid, error)
        return ItemResult(
            qid=item.qid, question_type=item.question_type, hop_count=item.hop_count,
            answer=record.answer if record else "",
            rounds_used=record.rounds_used if record else 0,
            flags=record.flags if record else [],
            precision=0.0, recall=0.0, f1=0.0, system_recall=None,
            samples=0, dropped=0, error=error,
        )
    agg_f1 = aggregate_two_sigma(samples_f1)
    return ItemResult(
        qid=item.qid,
        question_type=item.question_type,
        hop_count=item.hop_count,
        answer=record.answer,
        rounds_used=record.rounds_used,
        flags=record.flags,
        precision=aggregate_two_sigma(samples_p).mean,
        recall=aggregate_two_sigma(samples_r).mean,
        f1=agg_f1.mean,
        # every run retrieves on its own, so its recall is a sample like F1
        system_recall=aggregate_two_sigma(recalls).mean if item.gold_passages else None,
        samples=len(samples_f1),
        dropped=agg_f1.dropped,
    )


def run_benchmark(dataset: list[QAItem], kg: SpecGraph, gateway: Gateway, cfg) -> EvalReport:
    for item in dataset:
        for pid in item.gold_passages:
            if pid not in kg.passages:
                raise InvalidInput(f"{item.qid}: gold passage {pid!r} not in corpus")

    n_runs, n_judge = repetitions(gateway, cfg)
    logger.info("replies %s: %d run x %d judge per item (config: %d x %d)",
                "fixed by request" if gateway.replies_fixed else "sampled",
                n_runs, n_judge, cfg.eval.n_runs, cfg.eval.n_judge)
    if cfg.jobs == 1 or len(dataset) <= 1:
        items = [evaluate_item(gateway, kg, item, cfg) for item in dataset]
    else:
        # items are independent; results collected in dataset order so reports
        # stay deterministic regardless of scheduling
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            items = list(pool.map(lambda it: evaluate_item(gateway, kg, it, cfg),
                                  dataset))

    per_category: dict[str, dict] = {}
    for qtype in QUESTION_TYPES:
        scores = [r.f1 for r in items if r.question_type == qtype and r.error is None]
        if not scores:
            continue
        mean = sum(scores) / len(scores)
        std = math.sqrt(sum((x - mean) ** 2 for x in scores) / len(scores))
        per_category[qtype] = {"mean_f1": mean, "std_f1": std, "n": len(scores)}

    scored = [r.f1 for r in items if r.error is None]
    overall = sum(scored) / len(scored) if scored else None
    recalls = [r.system_recall for r in items if r.system_recall is not None]
    mean_recall = sum(recalls) / len(recalls) if recalls else None
    return EvalReport(
        items=items,
        per_category=per_category,
        overall_f1=overall,
        mean_system_recall=mean_recall,
        recall_k=cfg.eval.recall_k,
        n_runs=cfg.eval.n_runs,
        n_judge=cfg.eval.n_judge,
    )


def write_report(report: EvalReport, json_path: str | Path, text_path: str | Path | None = None) -> None:
    """Persist the structured report (no timestamps: replay runs byte-match)."""
    json_path = Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if text_path is not None:
        with open(text_path, "w", encoding="utf-8") as fh:
            fh.write(report.render_text())
