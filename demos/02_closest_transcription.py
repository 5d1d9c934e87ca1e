"""Extractive selection: pick the best existing transcription of a line.

Unlike consensus voting, this never synthesizes a new string; it returns the
input closest to the reliability-weighted aggregate, so the chosen text is
always something a real annotator (or model) produced.
"""

from aggrescribe import distance_matrix, rasa_select

candidates = [
    "délibération sur les travaux du pont",
    "déliberation sur les travaux du pont",
    "délibération sur les travaux du pont",
    "les travaux du pont",
]

matrix = distance_matrix(candidates)
print("Pairwise normalized character distances:")
for row in matrix:
    print("  ".join(f"{d:.3f}" for d in row))

pick = rasa_select(candidates)
print(f"\nSelected index {pick.index}: {candidates[pick.index]!r}")
print("Reliability weights:", "  ".join(f"{w:.4f}" for w in pick.weights))
# With exact duplicates the weights keep creeping toward the duplicate pair,
# so the update runs to its 50-iteration cap; the pick itself is stable long
# before that.
print(f"Iterations: {pick.iterations} (tolerance met: {pick.converged})")

# The truncated reading ends up with the smallest weight: it sits far from
# the weighted aggregate, so it contributes least to the scores.
assert pick.weights[3] == min(pick.weights)

# A strict majority always wins, however noisy the rest is.
noisy = ["chat", "chien", "chat", "cheval", "chat"]
assert noisy[rasa_select(noisy).index] == "chat"
print("\nMajority dominance holds on", noisy)
