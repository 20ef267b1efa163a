"""Walk one category through both sampling stages, printing every frame.

The reader wants exactly c random tags out of n, with unique reporting
orders, while broadcasting as few bits as possible.  Stage one thins the
category down to roughly c tags with one hashed threshold test; stage two
repeatedly broadcasts a bit vector marking singleton hash slots until
exactly c tags hold the orders 1..c.
"""

import numpy as np

from rfid_sampler import generate_population, optc1_round, optc2_round

N, C = 40, 6
rng = np.random.default_rng(2)

pop = generate_population([(N, C)], rng_seed=14)
hi, lo = pop.halves(1)  # the category's IDs as high and low 48-bit halves

coarse = optc1_round(hi, lo, C, rng)
selected = coarse.positions  # where the selected tags sit in hi and lo
print(f"category of {N} tags, want c = {C}")
print(f"stage 1: tested {coarse.seed_tests} seed(s), "
      f"{len(selected)} tags selected, header {coarse.bits_sent} bits")

refined = optc2_round((hi[selected], lo[selected]), C)
print(f"stage 2: {refined.iterations} frame(s), "
      f"{refined.payload_bits} frame bits + stop bit = {refined.bits_sent} bits total")

print("\nreporting order -> tag ID")
for tag_id, order in refined.ready:
    print(f"  {order:>2}  {tag_id:024x}")

leftover = len(selected) - len(refined.ready)
print(f"\n{leftover} selected tags were demoted once the quota filled")
