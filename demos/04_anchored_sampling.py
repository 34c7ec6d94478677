"""Walkthrough: two-stage anchored generation and its three-phase shape.

Generates with the anchored sampler and replays the trace to show the
conditioning -> anchoring -> resolution progression, then compares when
each group of tokens gets resolved.
"""

import numpy as np

from anchordiff import (
    AnchorConfig,
    AnchorStrategy,
    NoiseSchedule,
    SamplerConfig,
    annotate_program,
    build_corpus,
    build_vocab,
    generate,
    synth_corpus,
    unmask_order_stats,
)
from anchordiff.denoisers import ExactPosteriorDenoiser, PosteriorAnchorProfile
from anchordiff.experiments import render_ids
from anchordiff.minilang import MASK_SURFACE
from anchordiff.sampler import AnchoredPair

sources = synth_corpus(seed=20260809, n_programs=200, max_depth=6)
config = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
records = [annotate_program(s, config, str(i)) for i, s in enumerate(sources)]
vocab = build_vocab(sources)
corpus = build_corpus(records, vocab, length=64)

pair = AnchoredPair(ExactPosteriorDenoiser(corpus), PosteriorAnchorProfile(corpus))
T = 24
cfg = SamplerConfig(T=T, strategy=config, remask_rate=0.1, seed=5)
out, trace = generate([], 64, pair, cfg, NoiseSchedule(T=T))

# Replay the trace to reconstruct intermediate states.
def state_at(step_cutoff):
    ids = np.full(64, vocab.mask_id)
    for e in trace.events:
        if e.step >= step_cutoff:
            ids[e.position] = e.token if e.event == "unmask" else vocab.mask_id
    return ids

for cutoff, label in ((T, "conditioning (t ~ 1)"), (T // 2, "anchoring (t ~ 0.5)"),
                      (1, "resolution (t ~ 0)")):
    ids = state_at(cutoff)
    print(f"--- {label}: state after reverse steps down to i={cutoff}")
    print(render_ids(ids, vocab).replace(MASK_SURFACE, "?"))
    print()

print("final sample (parses:", end=" ")
from anchordiff import is_syntactically_valid

text = render_ids(out, vocab)
print(f"{is_syntactically_valid(text)}):")
print(text)

ri = int(np.flatnonzero((corpus.ids == out[None, :]).all(axis=1))[0])
stats = unmask_order_stats(trace, corpus.depth[ri], corpus.omega[ri])
print("mean normalized unmask time by (depth, anchor?): 0 = resolved first")
for (depth, anchored), (mean, n) in stats.items():
    print(f"  depth {depth}, {'anchor    ' if anchored else 'non-anchor'}: "
          f"{mean:.3f}  (n={n})")
print("\nAnchors surface before non-anchors, and shallow anchors before deep")
print("ones: generation follows the tree from the top down.")
