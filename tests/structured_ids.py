"""SGTIN-96-like tag populations, for checking the protocols on IDs that
are not uniformly random.

In an SGTIN-96 (GS1 EPC Tag Data Standard), bits 1-58 hold the header,
filter, partition, company prefix and item reference, and bits 59-96 hold
a 38-bit serial.  Within one product category only the serial varies, so
here each category has one random 58-bit prefix, and its serials are
either sequential from a random base, as when a batch of tags is encoded
in one run, or distinct uniform 38-bit draws.
"""

import numpy as np

from rfid_sampler.population import HALF_BITS, ID_BITS, Population, check_categories

SERIAL_BITS = 38
PREFIX_BITS = ID_BITS - SERIAL_BITS
SERIAL_KINDS = ("sequential", "uniform")


def structured_population(
    category_sizes: list[tuple[int, int]], rng: np.random.Generator, serials: str
) -> Population:
    """A population of (n_k, c_k) categories whose IDs share a fixed 58-bit
    prefix per category and differ only in their 38-bit serials, drawn as
    `serials` (one of SERIAL_KINDS) says."""
    ns, cs = check_categories([n for n, _ in category_sizes], [c for _, c in category_sizes])
    prefixes = rng.choice(1 << PREFIX_BITS, size=len(ns), replace=False).tolist()
    his, los = [], []
    for n, prefix in zip(ns.tolist(), prefixes):
        if serials == "sequential":
            base = int(rng.integers(0, (1 << SERIAL_BITS) - n + 1))
            serial = np.arange(base, base + n, dtype=np.uint64)
        else:
            serial = rng.choice(1 << SERIAL_BITS, size=n, replace=False).astype(np.uint64)
        # the prefix's low bits sit above the serial in the low half
        low_prefix = prefix & ((1 << (HALF_BITS - SERIAL_BITS)) - 1)
        his.append(np.full(n, prefix >> (HALF_BITS - SERIAL_BITS), dtype=np.uint64))
        los.append(np.uint64(low_prefix << SERIAL_BITS) | serial)
    offsets = np.zeros(len(ns) + 1, dtype=np.int64)
    np.cumsum(ns, out=offsets[1:])
    return Population(np.concatenate(his), np.concatenate(los), offsets, cs)
