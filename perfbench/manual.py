"""Seeded generator of register manuals and their questions.

A manual is a run of blocks. Block ``i`` has four sections, each about one
subject, so each becomes one passage:

1. the ``CFG<i>_REG`` register: what it holds and its hex default;
2. a named function and the control bit ``<BIT>`` that controls it;
3. where that bit sits: a bit position inside some ``CFG<r>_REG`` register;
4. one link of a signal-dependency chain. Chain ``c`` has three links,
   ``READY<c>_FLAG`` <- ``EMPTY<c>_SIG`` <- ``DONE<c>_PULSE`` <- a logic unit,
   placed in three sections of three different blocks.

Identifiers follow the block or chain number, so near-identical names
(``CFG7_REG``, ``CFG37_REG``, ``CFG73_REG``) sit side by side. Function, bit
and logic-unit names, the register each bit sits in and the blocks that hold
each chain link are drawn once per block count. The seed draws the hex
defaults and the bit positions.

Every question carries the facts a correct answer states and the ids of the
passages that hold them, both worked out here from the generated text, not by
running ``speckg``. Passage ids follow the chunker's layout: the title is
passage 0 and each section is one passage after it.

To look at the benchmark's manual: ``python3 perfbench/manual.py --seed 0 --out
DIR`` writes ``DIR/regmanual.md`` and ``DIR/questions.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

KINDS = ("default", "locate", "chain")
DOC_ID = "regmanual"
# The benchmark's manual has 102 blocks: 408 sections and about 1,800 graph
# nodes, enough that the all-pairs alias map is a visible share of a build and
# PageRank and seeding dominate a question.
BLOCKS = 102

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z")
_NUCLEI = ("a", "e", "i", "o", "u")
_CODAS = ("", "n", "r", "l", "x")


@dataclass
class Question:
    qid: str
    kind: str
    question: str
    facts: list[str]
    gold_passages: list[str]


@dataclass
class Manual:
    text: str = ""
    sections: list[str] = field(default_factory=list)  # "## heading\n\nbody"
    subjects: list[str] = field(default_factory=list)  # one sentence subject per section
    questions: list[Question] = field(default_factory=list)

    def passage_id(self, section: int) -> str:
        return f"{DOC_ID}#p{section + 1:04d}"

    def passage_text(self, passage_id: str) -> str:
        return self.sections[int(passage_id.rsplit("#p", 1)[1]) - 1]


def _words(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct pronounceable two-syllable words."""
    pool = sorted({
        o1 + n1 + o2 + n2 + c
        for o1 in _ONSETS for n1 in _NUCLEI for o2 in _ONSETS for n2 in _NUCLEI
        for c in _CODAS
    })
    return rng.sample(pool, count)


def generate(seed: int, blocks: int) -> Manual:
    """The manual of ``blocks`` blocks (a multiple of 3) drawn from ``seed``."""
    if blocks < 3 or blocks % 3:
        raise ValueError("blocks must be a positive multiple of 3")
    # Names and layout are fixed by the block count, so identifier collisions
    # (and the questions they break) and the work a question takes do not
    # move with the seed; the seed draws the values.
    shape = random.Random(blocks)
    words = _words(shape, 2 * blocks + blocks // 3)
    functions = words[:blocks]
    bits = [w.upper() + "_EN" for w in words[blocks:2 * blocks]]
    units = words[2 * blocks:]
    hosts = [shape.randrange(blocks) for _ in range(blocks)]
    # link_home[c*3 + j] is the block whose fourth section holds link j of chain c
    link_home = list(range(blocks))
    shape.shuffle(link_home)
    link_at = {block: slot for slot, block in enumerate(link_home)}
    rng = random.Random(seed)
    defaults = [rng.randrange(0x10000) for _ in range(blocks)]
    positions = [rng.randrange(32) for _ in range(blocks)]

    manual = Manual()
    section_of: dict[tuple[str, int], int] = {}

    def add(key: tuple[str, int], heading: str, body: str, subject: str) -> None:
        section_of[key] = len(manual.sections)
        manual.sections.append(f"## {heading}\n\n{body}")
        manual.subjects.append(subject)

    for i in range(blocks):
        reg = f"CFG{i}_REG"
        add(("reg", i), f"{reg} register",
            f"The {reg} register holds the {functions[i]} configuration value. "
            f"The {reg} register defaults to 0x{defaults[i]:04X}.",
            f"{reg} register")
        add(("fn", i), f"{functions[i].capitalize()} control",
            f"The {functions[i]} function is controlled by the {bits[i]} bit.",
            f"{functions[i]} function")
        add(("bit", i), f"{bits[i]} placement",
            f"The {bits[i]} bit occupies bit position {positions[i]} of the "
            f"CFG{hosts[i]}_REG register. The {bits[i]} bit is cleared on reset.",
            f"{bits[i]} bit")
        chain, link = divmod(link_at[i], 3)
        ready, empty, done = f"READY{chain}_FLAG", f"EMPTY{chain}_SIG", f"DONE{chain}_PULSE"
        if link == 0:
            add(("link", i), f"{done} pulse",
                f"When the last beat of burst {chain} is shifted out, the {done} "
                f"pulse is generated directly by the {units[chain]} logic.",
                f"{done} pulse")
        elif link == 1:
            add(("link", i), f"{empty} signal",
                f"The {empty} signal goes high when the {done} pulse is asserted.",
                f"{empty} signal")
        else:
            add(("link", i), f"{ready} flag",
                f"The {ready} flag is asserted when the {empty} signal goes high.",
                f"{ready} flag")
    manual.text = "\n\n".join(["# Register Manual"] + manual.sections) + "\n"

    def pid(key: tuple[str, int]) -> str:
        return manual.passage_id(section_of[key])

    for i in range(blocks):
        reg = f"CFG{i}_REG"
        manual.questions.append(Question(
            qid=f"default-{i}", kind="default",
            question=f"What is the default value of the {reg} register?",
            facts=[reg, f"0x{defaults[i]:04X}"],
            gold_passages=[pid(("reg", i))],
        ))
        manual.questions.append(Question(
            qid=f"locate-{i}", kind="locate",
            question=f"Where is the bit that controls the {functions[i]} function located?",
            facts=[bits[i], f"bit position {positions[i]}", f"CFG{hosts[i]}_REG"],
            gold_passages=[pid(("fn", i)), pid(("bit", i))],
        ))
    for c in range(blocks // 3):
        done_home, empty_home, ready_home = link_home[3 * c:3 * c + 3]
        manual.questions.append(Question(
            qid=f"chain-{c}", kind="chain",
            question=f"Which source signal ultimately drives the READY{c}_FLAG flag?",
            facts=[f"READY{c}_FLAG", f"EMPTY{c}_SIG", f"DONE{c}_PULSE",
                   f"{units[c]} logic"],
            gold_passages=[pid(("link", ready_home)), pid(("link", empty_home)),
                           pid(("link", done_home))],
        ))
    return manual


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="write a generated manual and its questions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    m = generate(args.seed, BLOCKS)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{DOC_ID}.md").write_text(m.text, encoding="utf-8")
    with open(args.out / "questions.jsonl", "w", encoding="utf-8") as fh:
        for q in m.questions:
            fh.write(json.dumps(dataclasses.asdict(q)) + "\n")
