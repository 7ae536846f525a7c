"""Fixed pure-Python workload that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

Prints the seconds the timed part took. The host's speed drifts by tens of
percent over seconds to minutes (see README.md, "Run-to-run noise"). The
runner starts this script right before every CLI iteration and scales the
iteration's times by its reading, so that a slow phase of the host, which
slows this script too, cancels out.

The work imitates what rdfcheck spends its time on: tokenizing N-Triples
lines with a regular expression, building tuples and indexing them in dicts
of sets, with a working set of tens of MB. It uses no rdfcheck code, so a
change to the program under test cannot change the reference.
"""

from __future__ import annotations

import re
import time

LINE = re.compile(r'(<[^>]*>) (<[^>]*>) ("[^"]*"(?:@[a-z]+)?|<[^>]*>) \.')
LINES = 100_000


def work(lines: int) -> int:
    """Tokenize ``lines`` N-Triples lines in a scattered order and index them
    by subject and by predicate, as a graph build does."""
    triples = []
    spo: dict[str, dict[str, set]] = {}
    pos: dict[str, dict[str, set]] = {}
    for k in range(lines):
        i = (k * 7919) % lines
        text = (f'<http://example.org/s{i % 30011}> <http://example.org/p{i % 53}> '
                f'"value {i}"@en .')
        s, p, o = LINE.match(text).groups()
        triples.append((s, p, o))
        spo.setdefault(s, {}).setdefault(p, set()).add(o)
        pos.setdefault(p, {}).setdefault(o, set()).add(s)
    return len(triples)


def main() -> None:
    work(LINES // 10)  # warm up the regex cache and the allocator
    started = time.perf_counter()
    work(LINES)
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
