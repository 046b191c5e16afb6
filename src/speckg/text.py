"""Text utilities: tokenization, entity canonicalization, sentence segmentation,
and the package's two JSON encoders.

Segmentation is rule-based (terminal punctuation with abbreviation guards);
bullet-list items and table rows each count as one sentence. Specification
documents are list-heavy, so this deliberately favors structure over prose
heuristics.
"""

from __future__ import annotations

import json
import re

# The package's JSON encoders, each made once (json.dumps with settings builds
# one per call): ORDERED_JSON writes records in field order (corpus files,
# fixture lines); SORTED_JSON sorts keys, for bytes that must not depend on
# key order (request digests, prompt payloads, offline replies, graph.jsonl).
ORDERED_JSON = json.JSONEncoder(ensure_ascii=False)
SORTED_JSON = json.JSONEncoder(ensure_ascii=False, sort_keys=True)

ARTICLES = {"a", "an", "the"}

# Abbreviations that must not terminate a sentence ("reg." etc.).
_ABBREVIATIONS = {
    "e.g", "i.e", "etc", "cf", "vs", "fig", "figs", "eq", "sec", "no",
    "reg", "regs", "rev", "ver", "approx", "max", "min",
}

_WORD_RE = re.compile(r"[A-Za-z0-9_]+(?:\.[0-9]+)?")
_SENT_BOUNDARY_RE = re.compile(r"[.!?]+(?=\s|$)")


def tokenize(text: str) -> list[str]:
    """Lower-cased word tokens; underscores kept (signal names stay whole).

    Words are matched before lower-casing, which turns some non-ASCII letters,
    such as the Kelvin sign, into ASCII ones the pattern would match."""
    return [t.lower() for t in _WORD_RE.findall(text)]


def canonical_entity(surface: str) -> str:
    """Canonical form used for entity keys and anchor comparison.

    Case-fold, fold hyphens to spaces (underscores are identity-bearing in
    signal names and survive), collapse whitespace, strip leading articles
    and trailing sentence punctuation.
    """
    s = surface.strip().lower().replace("-", " ")
    s = re.sub(r"\s+", " ", s)
    s = s.rstrip(".,;: ")
    words = s.split(" ")
    while words and words[0] in ARTICLES:
        words = words[1:]
    return " ".join(words)


def strip_articles(phrase: str) -> str:
    """Remove articles anywhere in the phrase, preserving the rest verbatim."""
    words = [w for w in phrase.split() if w.lower() not in ARTICLES]
    return " ".join(words)


def estimate_tokens(text: str) -> int:
    """Token estimate at 4 chars/token, minimum 1 for non-empty text."""
    if not text:
        return 0
    return max(1, round(len(text) / 4))


_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ.")
_INITIALS_RE = re.compile(r"[a-z]\.[a-z]")


def _is_abbreviation_end(text: str, end: int) -> bool:
    """True when the '.' at text[end-1] belongs to a known abbreviation.

    Looks back from ``end`` over the word alone, so a prose run splits in
    time linear in its length. The word is the run of letters and dots before
    the trailing dots, or before one newline that ends them ("b.b\\n." ends
    in the initials "b.b").
    """
    stop = end
    while stop > 0 and text[stop - 1] == ".":
        stop -= 1
    if stop > 0 and text[stop - 1] == "\n":
        stop -= 1
    start = stop
    while start > 0 and text[start - 1] in _WORD_CHARS:
        start -= 1
    if start == stop:
        return False
    # "e.g." arrives as "e.g" after the strip
    word = text[start:stop].lower().rstrip(".")
    return word in _ABBREVIATIONS or _INITIALS_RE.fullmatch(word) is not None


_SPECIAL_LINE_RE = re.compile(r"^([-*+]\s|\d+[.)]\s|\|)")


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Return (start, end) character spans of sentences within ``text``.

    Spans are non-overlapping, sorted, and lie within the text bounds.
    Consecutive prose lines form one run (hard-wrapped sentences survive);
    a line starting with a bullet marker or a table pipe is one sentence
    regardless of internal punctuation.
    """
    spans: list[tuple[int, int]] = []
    prose_start: int | None = None
    prose_end = 0
    pos = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        line_start = pos + (len(line) - len(line.lstrip()))
        content_end = line_start + len(stripped)
        pos += len(line)
        special = bool(_SPECIAL_LINE_RE.match(stripped))
        if not stripped or special:
            if prose_start is not None:
                spans.extend(_split_prose(text, prose_start, prose_end))
                prose_start = None
            if special:
                spans.append((line_start, content_end))
            continue
        if prose_start is None:
            prose_start = line_start
        prose_end = content_end
    if prose_start is not None:
        spans.extend(_split_prose(text, prose_start, prose_end))
    return spans


def _split_prose(text: str, start: int, end: int) -> list[tuple[int, int]]:
    spans = []
    cursor = start
    for m in _SENT_BOUNDARY_RE.finditer(text, start, end):
        boundary = m.end()
        if _is_abbreviation_end(text, boundary):
            continue
        seg_start, seg_end = _trim(text, cursor, boundary)
        if seg_end > seg_start:
            spans.append((seg_start, seg_end))
        cursor = boundary
    seg_start, seg_end = _trim(text, cursor, end)
    if seg_end > seg_start:
        spans.append((seg_start, seg_end))
    return spans


def _trim(text: str, start: int, end: int) -> tuple[int, int]:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end
