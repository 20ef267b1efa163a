"""From a threshold to C1G2 Select commands.

Selecting every tag whose hash is at most tau could take tau + 1 exact
match commands; merging shared binary prefixes cuts that to at most
popcount(tau) + 1.  This prints the filter sets for a few thresholds and
then runs the full Select-command realization on a small population.
"""

import numpy as np

from rfid_sampler import generate_population, run_optc_impl, selgen_commands, selgen_filters
from rfid_sampler.baselines import naive_threshold_bits, run_random_select
from rfid_sampler.selgen import commands_bit_cost

for tau, width in ((5, 3), (10, 4), (44, 6)):
    filters = selgen_filters(tau, width)
    cost = commands_bit_cost(selgen_commands(tau, width))
    naive = naive_threshold_bits(tau, width)
    print(f"tau = {tau:>2} ({width} bits): filters {filters}")
    print(f"    {len(filters)} commands, {cost} bits "
          f"(one command per value would cost {naive} bits)")

print("\nfull run: 8 categories, alternating sizes 20/30, c = 6 each")
pop = generate_population([(20, 6), (30, 6)] * 4, rng_seed=5)
rng = np.random.default_rng(9)
results = run_optc_impl(pop, rng)
impl_bits = sum(r.bits for r in results)
impl_cmds = sum(r.command_count for r in results)

pop2 = generate_population([(20, 6), (30, 6)] * 4, rng_seed=5)
baseline_bits = sum(r.bits for r in run_random_select(pop2, np.random.default_rng(9)))

print(f"threshold realization: {impl_cmds} Select commands, {impl_bits} bits")
print(f"per-tag ID matching:   {baseline_bits} bits")
print(f"saving: {1 - impl_bits / baseline_bits:.1%}")
