"""The offline model's question resolution, pinned branch by branch.

Each case gives a question and the evidence passages, and pins the exact
``reason`` reply and ``synthesize`` text the offline model produces for them.
A sufficient ``reason`` reply carries the answer, which must be the case's
``synthesize`` text: the answer the separate call would have written.
Several branches (dependency loops, a missing reset parse, a partial event
chain) are reached by neither the fixture QA nor the benchmark manual.
"""

import hashlib
import json

import numpy as np
import pytest

from speckg import prompts
from speckg.offline import EMBED_DIM, STOPWORDS, OfflineModel, _Resolver
from speckg.text import tokenize

RESET = "When the reset input is asserted, the TX FSM returns to the IDLE state."
START = "When a start bit is detected in the IDLE state, the TX FSM enters the SYNC state."
READY = "The TX_READY flag is asserted when the FIFO_EMPTY signal goes high."
EMPTY = "The FIFO_EMPTY signal goes high when the DRAIN_DONE pulse is asserted."
DRAIN = ("When the final byte of a frame is shifted out, the DRAIN_DONE pulse is "
         "generated directly by the drain logic.")
WRITE = ("When the host writes the TX_DATA register, the TX_DATA register forwards "
         "the byte to the transmit FIFO.")
ARRIVE = ("When a byte arrives in the transmit FIFO, the transmit FIFO signals the "
          "shift engine to begin serializing the byte.")
CONTROL = "The loopback function is controlled by the LOOP_EN bit."
PLACE = "The LOOP_EN bit occupies bit position 3 of the CTRL register."
DIVISOR = "The BAUD register holds the 16-bit clock divisor for the bit engine."

CHAIN_Q = "Which source signal ultimately drives the TX_READY flag?"
ATTR_Q = "What is the default value of the BAUD register?"
LOCATE_Q = "Where is the bit that controls the loopback function located?"
PROCESS_Q = ("Describe the chain of events from a host write to the TX_DATA register "
             "until the shift engine begins serializing.")
TRANSITION_Q = ("Which state does the TX FSM reach when a start bit is detected "
                "immediately after a reset?")
INSUFFICIENT = "The retrieved evidence is insufficient to answer the question fully."


def sufficient(thought):
    return {"status": "sufficient", "thought": thought}


def gap(thought, description, sub_query, anchor_type, entity):
    return {"status": "gap", "thought": thought, "gap_description": description,
            "sub_query": sub_query,
            "target_anchor": {"anchor_type": anchor_type, "entity": entity}}


# name: (question, passages, reason reply without its answer, synthesize text)
CASES = {
    "quote": (
        'According to the line "The BAUD register defaults to 0x0010", what is the reset value?',
        [],
        sufficient("The quoted statement already contains the answer."),
        "The BAUD register defaults to 0x0010.",
    ),
    "chain-closed": (
        CHAIN_Q, [READY, EMPTY, DRAIN],
        sufficient("Chain closed: 'DRAIN_DONE pulse' originates from 'drain logic'."),
        "The TX_READY flag is driven by the FIFO_EMPTY signal. The FIFO_EMPTY signal is "
        "driven by the DRAIN_DONE pulse. The DRAIN_DONE pulse is generated directly by "
        "the drain logic.",
    ),
    "chain-link-missing": (
        CHAIN_Q, [READY, DRAIN],
        gap("No evidence yet for what drives 'FIFO_EMPTY signal'.",
            "The driver of 'FIFO_EMPTY signal' is unknown.",
            "What drives the FIFO_EMPTY signal?", "procedural", "FIFO_EMPTY signal"),
        "The TX_READY flag is driven by the FIFO_EMPTY signal.",
    ),
    "chain-loop": (
        "Which signal ultimately drives the A_SIG signal?",
        ["The A_SIG signal goes high when the B_SIG signal goes high.",
         "The B_SIG signal goes high when the A_SIG signal goes high."],
        sufficient("Dependency loop at 'A_SIG signal'; stopping."),
        "The A_SIG signal is driven by the B_SIG signal. The B_SIG signal is driven by "
        "the A_SIG signal.",
    ),
    "attribute-found": (
        ATTR_Q, [DIVISOR + " The BAUD register defaults to 0x0010."],
        sufficient("Found the default value of 'BAUD register'."),
        "The BAUD register defaults to 0x0010.",
    ),
    "attribute-missing": (
        ATTR_Q, [DIVISOR],
        gap("The default value of 'BAUD register' is not in the evidence.",
            "Missing the default value of 'BAUD register'.",
            "What is the default value of the BAUD register?", "declarative", "BAUD register"),
        INSUFFICIENT,
    ),
    "locate-no-control-bit": (
        LOCATE_Q, [PLACE],
        gap("The controlling bit of 'loopback function' is unknown.",
            "Missing: which bit controls 'loopback function'.",
            "Which bit controls the loopback function?", "declarative", "loopback function"),
        INSUFFICIENT,
    ),
    "locate-control-bit-no-location": (
        LOCATE_Q, [CONTROL],
        gap("The location of 'LOOP_EN bit' is unknown.",
            "Missing the location of 'LOOP_EN bit'.",
            "Where is the LOOP_EN bit located?", "declarative", "LOOP_EN bit"),
        "The loopback function is controlled by the LOOP_EN bit.",
    ),
    "locate-located": (
        LOCATE_Q, [CONTROL, PLACE],
        sufficient("Located 'LOOP_EN bit'."),
        "The loopback function is controlled by the LOOP_EN bit. The LOOP_EN bit "
        "occupies bit position 3 of CTRL register.",
    ),
    "locate-named-located": (
        "Where is the LOOP_EN bit located?", [PLACE],
        sufficient("Located 'LOOP_EN bit'."),
        "The LOOP_EN bit occupies bit position 3 of CTRL register.",
    ),
    "locate-named-no-location": (
        "Where is the LOOP_EN bit located?", [CONTROL],
        gap("The location of 'LOOP_EN bit' is unknown.",
            "Missing the location of 'LOOP_EN bit'.",
            "Where is the LOOP_EN bit located?", "declarative", "LOOP_EN bit"),
        INSUFFICIENT,
    ),
    "process-complete": (
        PROCESS_Q, [WRITE, ARRIVE],
        sufficient("Event chain traced through 2 steps."),
        "When the host writes TX_DATA register, the TX_DATA register forwards byte to "
        "transmit FIFO. When the byte arrives in transmit FIFO, the transmit FIFO signals "
        "shift engine to begin serializing byte.",
    ),
    "process-partial": (
        PROCESS_Q, [WRITE],
        gap("The consequence of 'TX_DATA register forwards byte to transmit FIFO' is unknown.",
            "Missing: what happens when TX_DATA register forwards byte to transmit FIFO.",
            "What happens when TX_DATA register forwards byte to transmit FIFO?",
            "procedural", "transmit FIFO"),
        "When the host writes TX_DATA register, the TX_DATA register forwards byte to "
        "transmit FIFO.",
    ),
    "transition-two-stage-no-reset-parse": (
        TRANSITION_Q, [START],
        gap("The reset state of the TX FSM is unknown.",
            "Missing the reset state of the TX FSM.",
            "Which state does the TX FSM return to when the reset input is asserted?",
            "procedural", "TX FSM"),
        "The TX FSM enters the SYNC state when the start bit detected in IDLE state.",
    ),
    "transition-no-match": (
        TRANSITION_Q, [RESET],
        gap("The transition of the TX FSM under 'a start bit is detected immediately "
            "after a reset' is unknown.",
            "Missing the TX FSM transition for 'a start bit is detected immediately "
            "after a reset'.",
            "Which state does the TX FSM enter when a start bit is detected immediately "
            "after a reset?", "procedural", "TX FSM"),
        "The TX FSM returns to the IDLE state when the reset input asserted.",
    ),
    "transition-resolved": (
        TRANSITION_Q, [RESET, START],
        sufficient("Transition resolved: the TX FSM ends in SYNC state."),
        "The TX FSM returns to the IDLE state when the reset input asserted. The TX FSM "
        "enters the SYNC state when the start bit detected in IDLE state.",
    ),
    "transition-single-stage": (
        "Which state does the TX FSM return to when the reset input is asserted?", [RESET],
        sufficient("Transition resolved: the TX FSM ends in IDLE state."),
        "The TX FSM returns to the IDLE state when the reset input asserted.",
    ),
    "fallback": (
        "How many stop bits does the UART send?", [READY],
        gap("The question does not match any resolvable evidence.",
            "Unable to locate supporting evidence.",
            "How many stop bits does the UART send?", "declarative", "UART"),
        INSUFFICIENT,
    ),
}


def context(passages):
    return [{"passage_id": f"doc#p{i:04d}", "section": "S", "text": text}
            for i, text in enumerate(passages)]


@pytest.mark.parametrize("name", list(CASES))
def test_reason_reply(name):
    question, passages, reply, text = CASES[name]
    if reply["status"] == "sufficient":
        reply = {**reply, "answer": text}
    raw = OfflineModel().chat(prompts.reason(question, [], context(passages)), "offline-chat")
    assert json.loads(raw) == reply


@pytest.mark.parametrize("name", list(CASES))
def test_synthesize_text(name):
    question, passages, _, text = CASES[name]
    request = prompts.synthesize(question, [], context(passages), False)
    assert OfflineModel().chat(request, "offline-chat") == text


@pytest.mark.parametrize("name", list(CASES))
def test_incomplete_synthesis_keeps_what_is_known(name):
    question, passages, _, text = CASES[name]
    request = prompts.synthesize(question, [], context(passages), True)
    expected = INSUFFICIENT if text == INSUFFICIENT else f"{INSUFFICIENT} Known so far: {text}"
    assert OfflineModel().chat(request, "offline-chat") == expected


SUMMARY_PASSAGES = [CONTROL, DIVISOR, f"{READY} {EMPTY}", PLACE, WRITE]


def summaries(query, cuts, passages=SUMMARY_PASSAGES):
    request = prompts.summarize(query, context(passages), cuts)
    return json.loads(OfflineModel().chat(request, "offline-chat"))["summaries"]


def test_summary_reply_is_pinned():
    # the query-relevant sentences of the passages before the cut, in order
    assert summaries(ATTR_Q, [1, 4]) == [f"No evidence relevant to: {ATTR_Q}",
                                         f"Evidence for: {ATTR_Q}\n{DIVISOR} {PLACE}"]
    assert summaries(CHAIN_Q, [3]) == [f"Evidence for: {CHAIN_Q}\n{READY} {EMPTY}"]


@pytest.mark.parametrize("query", [CHAIN_Q, ATTR_Q, LOCATE_Q, PROCESS_Q, TRANSITION_Q])
@pytest.mark.parametrize("a, b", [(1, 2), (1, 5), (2, 4), (3, 3), (4, 5)])
def test_paired_cuts_are_the_cuts_asked_alone(query, a, b):
    paired = summaries(query, [a, b])
    assert paired == summaries(query, [a]) + summaries(query, [b])
    # and each is the summary a request over that prefix alone gets
    assert paired == (summaries(query, [a], SUMMARY_PASSAGES[:a])
                      + summaries(query, [b], SUMMARY_PASSAGES[:b]))


@pytest.mark.parametrize("question, entity", [
    ("How many stop bits does the UART send?", "UART"),
    ("Which bit does the CTRL register use for parity?", "CTRL register"),
    ("What does the loopback function control?", "loopback function"),
    ("What happens to the TX FSM after reset?", "TX FSM"),
    ("What happens to the TX FSM after a reset?", "TX FSM"),
    ("How wide is the BAUD register?", "BAUD register"),
    ("Why is data bus idle?", "bus idle"),
])
def test_fallback_anchor_is_the_noun_phrase(question, entity):
    # the words after the last article outside a trailing temporal adjunct,
    # cut at a preposition, less the main verb under do-support; with no
    # article, the last two words
    assert _Resolver(question, [])._fallback()["target_anchor"]["entity"] == entity


def list_embed_one(text):
    """The embedder as it was written per text, one list of floats each: the
    oracle for the matrix ``OfflineModel.embed`` fills."""
    vec = np.zeros(EMBED_DIM, dtype=np.float64)
    tokens = [t for t in tokenize(text) if t not in STOPWORDS] or [text.strip().lower() or "empty"]
    for token in tokens:
        h = hashlib.sha256(token.encode("utf-8")).digest()
        idx = int.from_bytes(h[:4], "little") % EMBED_DIM
        sign = 1.0 if h[4] % 2 == 0 else -1.0
        vec[idx] += sign
    if not np.any(vec):
        vec[0] = 1.0
    return [float(v) for v in vec]


def cancelling_pair():
    """Two tokens that hash to one index with opposite signs: their sum is 0."""
    seen = {}
    for i in range(10_000):
        token = f"w{i}"
        h = hashlib.sha256(token.encode("utf-8")).digest()
        slot = (int.from_bytes(h[:4], "little") % EMBED_DIM, h[4] % 2)
        other = seen.get((slot[0], 1 - slot[1]))
        if other is not None:
            return other, token
        seen[slot] = token
    raise AssertionError("no cancelling pair")


def test_embed_matrix_matches_the_per_text_lists(graph):
    # every passage and entity the fixture spec's store embeds, plus a text of
    # stopwords only and one whose two tokens cancel to the all-zero row
    texts = [graph.passages[p].text for p in sorted(graph.passages)] + sorted(graph.entities)
    texts += ["the is of", " ".join(cancelling_pair()), "TX_READY TX_READY tx_ready"]
    matrix = OfflineModel().embed(texts, "offline-embed")
    assert matrix.dtype == np.float64 and matrix.shape == (len(texts), EMBED_DIM)
    assert matrix.tobytes() == np.array([list_embed_one(t) for t in texts]).tobytes()
