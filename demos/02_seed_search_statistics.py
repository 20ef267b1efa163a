"""How hard is it to find a suitable random seed?

A seed is suitable when the hashed threshold test selects between c and
c + 6*sqrt(c) tags.  Theory puts the per-seed success probability above
1 - mu(c) - rho(c) > 0.4, so a handful of tests should always suffice.
This sweep measures the empirical numbers against those bounds.
"""

from rfid_sampler import mu, rho, seed_trial_statistics

print(f"{'c':>4} {'avg tests':>10} {'max tests':>10} "
      f"{'first-seed ok':>14} {'theory floor':>13}")
for c in (1, 2, 5, 10, 20, 50, 100):
    stats = seed_trial_statistics(n=1000, c=c, trials=300, rng_seed=100 + c)
    floor = 1.0 - mu(c) - rho(c)
    print(f"{c:>4} {stats['avg_tests']:>10.3f} {stats['most_tests']:>10} "
          f"{stats['suitable_fraction']:>14.3f} {floor:>13.3f}")

print("\nevery row should show: avg near 1, max well under 6, and the")
print("first-seed success fraction above the theory floor")
