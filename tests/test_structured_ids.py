"""OPT-C and optc-impl on SGTIN-96-like IDs: a fixed 58-bit prefix per
category and 38-bit serials, sequential or uniform.  Uniform samples and
the e·c cost assume uniformly random IDs; exactness must not."""

import numpy as np
import pytest
from structured_ids import SERIAL_BITS, SERIAL_KINDS, structured_population

from rfid_sampler.population import halves_to_ids
from rfid_sampler.protocol import run_optc
from rfid_sampler.selgen import run_optc_impl

SHAPES = [(20, 5), (100, 10), (1000, 50)]


@pytest.mark.parametrize("serials", SERIAL_KINDS)
def test_builder_fixes_each_prefix_and_varies_the_serial(serials):
    pop = structured_population(SHAPES, np.random.default_rng(3), serials)
    prefixes = set()
    for cat in pop.categories:
        ids = halves_to_ids(cat.hi, cat.lo)
        assert len(set(ids)) == cat.n
        prefixes |= {i >> SERIAL_BITS for i in ids}
        if serials == "sequential":
            assert ids == list(range(ids[0], ids[0] + cat.n))
    assert len(prefixes) == len(SHAPES)


@pytest.mark.parametrize("serials", SERIAL_KINDS)
def test_every_category_ends_with_c_ready_tags_in_order(serials):
    # any ProtocolError (an iteration cap, a window exhausted) fails the test
    rng = np.random.default_rng(np.random.SeedSequence([9, SERIAL_KINDS.index(serials)]))
    for _ in range(80):
        pop = structured_population(SHAPES, rng, serials)
        outcomes, _ = run_optc(pop, rng)
        impl = run_optc_impl(pop, rng)
        for cat, out, res in zip(pop.categories, outcomes, impl):
            ids = set(halves_to_ids(cat.hi, cat.lo))
            for ready in (out.ready, res.ready):
                assert [order for _, order in ready] == list(range(1, cat.c + 1))
                tags = {tid for tid, _ in ready}
                assert len(tags) == cat.c and tags <= ids
