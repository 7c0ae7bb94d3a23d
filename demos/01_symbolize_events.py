"""From raw trajectories to spatial-change events.

A two-dimensional toy trajectory is normalized per dimension, each step is
classified as up / flat / down against the delta dead zone, and the two
per-dimension symbols fuse into a single event code per step. The decoded
explanations at the end show why the code sequence stays human-readable.
"""

import numpy as np

from stemts import (
    MtsSample,
    SymbolizerConfig,
    alphabet_size,
    decode_event,
    explain_event,
    normalize_sample,
    symbolize_dimension,
    symbolize_sample,
)

# a hand-drawn gesture: x sweeps right then back, y rises the whole time
x = [0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0, 0.0]
y = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4]
sample = MtsSample("gesture", "demo", np.array([x, y]))

normalized = normalize_sample(sample)
print("normalized x:", np.round(normalized.values[0], 3))
print("normalized y:", np.round(normalized.values[1], 3))

config = SymbolizerConfig(delta=0.05)
print("\nper-dimension motion symbols (delta = 0.05):")
print("  x:", symbolize_dimension(normalized.values[0], config.delta))
print("  y:", symbolize_dimension(normalized.values[1], config.delta))

sequence = symbolize_sample(normalized, config)
print("\nevent codes:", list(sequence.codes))
print("alphabet size for 2 dimensions:", alphabet_size(2))

print("\ndecoded, step by step:")
for t, code in enumerate(sequence.codes):
    print(f"  t={t}: code {code} = {decode_event(code, 2)}  ->  {explain_event(code, 2)}")
