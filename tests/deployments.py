"""The three small-testbed deployment shapes, one list of scenario points
each, and the Select-command budget that optc-impl is held to on them."""

import math

from rfid_sampler.harness import ScenarioConfig


def deployment_shapes(trials: int, seed: int) -> list[list[ScenarioConfig]]:
    """Growing K (n = 20, c = 5); K = 8 with growing n (c = 4); K = 8 with
    sizes alternating 20/30 and growing c."""
    shapes = [
        [(f"deploy-1-K{K}", [20] * K, [5] * K) for K in (2, 4, 6, 8, 10)],
        [(f"deploy-2-n{n}", [n] * 8, [4] * 8) for n in (10, 15, 20, 25)],
        [(f"deploy-3-c{c}", [20, 30] * 4, [c] * 8) for c in (2, 4, 6, 8, 10)],
    ]
    return [
        [ScenarioConfig(sid, ns=ns, cs=cs, trials=trials, rng_seed=seed,
                        protocols=("optc-impl", "random-select")) for sid, ns, cs in shape]
        for shape in shapes
    ]


def command_budget(c: int) -> int:
    """Per-category bound on Select commands: both stages pay at most
    ceil(log2 tau) + 1 each, with tau of order c."""
    return 3 * math.ceil(math.log2(c)) + 3
