"""Read a tagged corpus from CoNLL-style text and carve it into segment pools.

Pools are the raw material for mixing: every mention, every labeled token,
and every whole sentence in the corpus becomes a draw candidate.
"""

import io
import sys

from segmix.corpus import bio_spans, parse_conll, validate_bio
from segmix.pools import (
    build_mention_pool,
    build_sequence_pool,
    build_token_pool,
)
from segmix.rng import derive_rng

TEXT = """\
west B-LOC
virginia I-LOC
reported O
flooding O

maria B-PER
lopez I-PER
visited O
oslo B-LOC
yesterday O
"""

corpus = parse_conll(TEXT)
print(f"parsed {len(corpus.sentences)} sentences, labels {corpus.label_vocab}")

for sent in corpus.sentences:
    spans = bio_spans(sent.labels)
    pretty = [(" ".join(sent.tokens[s:e]), t) for s, e, t in spans]
    print(" ", " ".join(sent.tokens), "->", pretty)

# a stray I- tag is an error in strict mode; repair promotes it to B-
broken = ("I-LOC", "I-LOC", "O")
try:
    validate_bio(broken)
except ValueError as err:
    print("strict validation:", err)
print("repaired:", validate_bio(broken, repair=True))

mentions = build_mention_pool(corpus)
tokens = build_token_pool(corpus)
sequences = build_sequence_pool(corpus)
print(f"\npools: {len(mentions)} mentions, {len(tokens)} labeled tokens, "
      f"{len(sequences)} sequences")

for entry in mentions.entries:
    print("  mention:", entry.segments[0], entry.labels[0])

# draws are uniform and reproducible given the same derived stream
rng = derive_rng(7, "demo-draws")
for _ in range(3):
    entry = mentions.entries[int(rng.integers(len(mentions)))]
    print("  drew:", " ".join(entry.segments[0]))

# pools serialize to JSON lines for inspection
buf = io.StringIO()
tokens.dump_jsonl(buf)
print("\ntoken pool as jsonl:")
sys.stdout.write(buf.getvalue())
