"""Communication cost against the information-theoretic floor.

Any protocol that pins down c ordered samples per category must broadcast
at least log2(e) * c bits per category.  The refinement stage's frame
bits average about e * c, i.e. within e/log2(e) ~ 1.88 of the floor.  The
refinement stage sends no header, so the full ledger adds only the coarse
header (ceil(log2(96/log2 n)) + ceil(log2 c) bits) and one stop bit per
category.  Those fade as c grows.  The ratios measured at n = 100 and
the acceptance bounds they are held to are recorded in README's
"Acceptance status".
"""

import math
import statistics

import numpy as np

from rfid_sampler import cost_ratio_limit, generate_population, run_optc
from rfid_sampler.analysis import LOG2_E, lower_bound_bits
from rfid_sampler.protocol import optc1_header_bits

K, N, TRIALS = 30, 100, 5

print(f"K = {K} categories of n = {N}; asymptotic frame-bit ratio "
      f"{cost_ratio_limit():.4f}")
print(f"{'c':>4} {'ledger ratio':>13} {'frame-bit ratio':>16}")
for c in (5, 10, 25, 50):
    full, frames = [], []
    for trial in range(TRIALS):
        rng = np.random.default_rng((c, trial))
        pop = generate_population([(N, c)] * K, rng_seed=trial)
        _, ledger = run_optc(pop, rng)
        lb = lower_bound_bits([c] * K)
        full.append(ledger.bits_reader_to_tag / lb)
        frames.append(ledger.payload_bits / lb)
    print(f"{c:>4} {statistics.fmean(full):>13.3f} {statistics.fmean(frames):>16.3f}")

print("\nthe frame-bit column sits near e/log2(e) = 1.88; the ledger column")
print("adds the coarse header and the stop bit, which fade as c grows")
bound10 = (1.15 * math.e * 10 + optc1_header_bits(N, 10) + 1) / (LOG2_E * 10)
print(f"acceptance bounds: {bound10:.3f} at c = 10 "
      f"(1.15*e*c frame bits + {optc1_header_bits(N, 10)}-bit coarse header + stop bit), "
      "2.1 at c = 50")
