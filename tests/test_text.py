import re
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from speckg import text as text_module
from speckg.text import canonical_entity, estimate_tokens, split_sentences, tokenize

from conftest import SPEC_DOC, load_manual_module


def spans_to_texts(text):
    return [text[s:e] for s, e in split_sentences(text)]


def test_tokenize_keeps_identifiers_whole():
    assert tokenize("the TX_READY flag and 0x0010") == ["the", "tx_ready", "flag", "and", "0x0010"]


def finditer_tokenize(text):
    """Oracle for ``tokenize``: one match object per token, each lower-cased."""
    return [m.group(0).lower() for m in text_module._WORD_RE.finditer(text)]


# The Kelvin sign and the dotted capital I lower-case to ASCII-led strings, ß
# and é are letters the pattern does not match, and full-width digits are
# digits to \d but not to [0-9].
NON_ASCII = ["\u212a", "\u212aELVIN 0x1\u212a", "\u0130NTR", "STRA\u00dfE_EN",
             "\uff11\uff12 CLK \uff13", "caf\u00e9 mod\u00e9_2.5", "\u212a\u0130\u00df\u00e9\uff10"]


def test_tokenize_matches_the_match_object_oracle():
    manual = load_manual_module().generate(0, 30).text
    for text in [manual, SPEC_DOC.read_text(encoding="utf-8")] + NON_ASCII:
        assert tokenize(text) == finditer_tokenize(text)
    # a token is matched before it is lower-cased: the Kelvin sign is no k
    assert tokenize("\u212aHz") == ["hz"]
    assert tokenize("\u0130NTR") == ["ntr"]


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(list("aZ09_. -\n") + ["\u212a", "\u0130", "\u00df",
                                                     "\u00e9", "\uff11"]), max_size=40))
def test_tokenize_matches_the_oracle_on_drawn_text(text):
    assert tokenize(text) == finditer_tokenize(text)


def test_canonical_entity_folds_case_articles_hyphens():
    assert canonical_entity("The CTRL  Register") == "ctrl register"
    assert canonical_entity("baud-rate generator") == "baud rate generator"
    assert canonical_entity("a TX FIFO status reg.") == "tx fifo status reg"


def test_split_basic_sentences():
    text = "First sentence. Second sentence! Third?"
    assert spans_to_texts(text) == ["First sentence.", "Second sentence!", "Third?"]


def test_spans_sorted_nonoverlapping_in_bounds():
    text = "One. Two.\nThree. See fig. 4 for details.\n- bullet one\n| a | b |\n"
    spans = split_sentences(text)
    last_end = 0
    for start, end in spans:
        assert 0 <= start < end <= len(text)
        assert start >= last_end
        last_end = end


def test_abbreviation_guard():
    text = "The shadow reg. holds a copy. It updates e.g. on reset."
    texts = spans_to_texts(text)
    assert texts == ["The shadow reg. holds a copy.", "It updates e.g. on reset."]


def test_hard_wrapped_sentence_stays_whole():
    text = "When a start bit is detected, the FSM enters the SYNC\nstate. Done."
    texts = spans_to_texts(text)
    assert len(texts) == 2
    assert texts[0].endswith("SYNC\nstate.")


def test_bullets_and_table_rows_are_single_sentences():
    text = "- first item. with dot\n- second item\n| REG | 0x00 |\n"
    texts = spans_to_texts(text)
    assert texts == ["- first item. with dot", "- second item", "| REG | 0x00 |"]


def test_estimate_tokens():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd" * 100) == 100
    assert estimate_tokens("x") == 1


def oracle_abbreviation_end(text, end):
    """The abbreviation guard as first written: a ``$``-anchored search over
    a copy of everything before the boundary, so quadratic in a prose run."""
    head = text[:end].rstrip(".")
    m = re.search(r"[A-Za-z.]+$", head)
    if not m:
        return False
    word = m.group(0).lower().rstrip(".")
    return word in text_module._ABBREVIATIONS or re.fullmatch(r"[a-z]\.[a-z]", word) is not None


def oracle_split(text):
    with mock.patch.object(text_module, "_is_abbreviation_end", oracle_abbreviation_end):
        return split_sentences(text)


PIECES = st.sampled_from(list("abgiyXZ.!? \n") + ["e.g.", "i.e.", "reg.", "Fig.", "etc.",
                                                    "b.b", "- ", "1. ", "| "])


@settings(max_examples=400, deadline=None)
@given(st.lists(PIECES, max_size=30).map("".join))
def test_abbreviation_guard_matches_the_oracle(text):
    # at every terminal mark, including one after a lone newline: the
    # oracle's "$" also matches just before a final newline
    for end in range(1, len(text) + 1):
        if text[end - 1] in ".!?":
            assert text_module._is_abbreviation_end(text, end) == oracle_abbreviation_end(text, end)
    assert split_sentences(text) == oracle_split(text)


def test_initials_before_a_newline_stay_unsplit():
    text = "b.b\n.  i1.g.yg..!."
    assert text_module._is_abbreviation_end(text, 5) and oracle_abbreviation_end(text, 5)
    assert split_sentences(text) == oracle_split(text)


def test_one_long_paragraph_splits_in_linear_time():
    # 188 KB of prose with no blank line is one run; the oracle took 20 s
    sentence = "The CTRL reg. holds the mode, e.g. after reset (see Fig. 3)."
    text = " ".join([sentence] * (188_000 // (len(sentence) + 1)))
    assert len(text) >= 187_000
    start = time.perf_counter()
    spans = split_sentences(text)
    assert time.perf_counter() - start < 2.0
    assert len(spans) == text.count("3).")
