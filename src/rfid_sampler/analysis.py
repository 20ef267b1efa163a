"""Closed-form quantities: transmission time, communication lower bound,
expected protocol cost, seed-search probability bounds and reliability
sizing under missing tags.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError
from .population import check_categories
from .protocol import optc1_header_bits

LOG2_E = math.log2(math.e)

# 96 bits at 26.7 kbps plus one 302 us inter-transmission gap; the
# per-96-bit value is conventionally quoted to 0.1 us and treated as exact.
T96_SECONDS = 3897.5e-6


def transmission_time(bits: float) -> float:
    """Seconds to broadcast the given number of reader-to-tag bits, prorated
    on the 96-bit time (cost is linear in broadcast bits)."""
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    return bits * T96_SECONDS / 96.0


def lower_bound_bits(cs) -> float:
    """Information-theoretic floor: any protocol solving the sampling
    problem must broadcast at least sum_k log2(e) * c_k bits."""
    if not len(cs):
        raise ValueError("need at least one category")
    _check_c(min(cs))
    return LOG2_E * float(sum(cs))


def expected_protocol_bits(ns, cs) -> float:
    """Expected broadcast cost, summed over categories: e*c_k frame bits plus the
    coarse header and stop bit that `run_optc`'s records charge.  The frame term
    assumes the coarse stage leaves about c + 3*sqrt(c) tags (n = c = 30
    measures about 113 bits, not 92.6)."""
    ns, cs = check_categories(ns, cs)
    headers = sum(map(optc1_header_bits, ns.tolist(), cs.tolist()))
    return math.e * sum(cs.tolist()) + headers + len(ns)


def cost_ratio_limit() -> float:
    """Ratio of expected protocol bits to the lower bound as c grows:
    e*c / (log2(e)*c) = e / log2(e), about 1.8842."""
    return math.e / LOG2_E


def mu(c: int) -> float:
    """Upper bound on the probability that a random seed over-selects,
    i.e. picks more than c + 6*sqrt(c) of the expected c + 3*sqrt(c) tags.
    Strictly decreasing in c; mu(1) is about 0.3996."""
    _check_c(c)
    r = 3.0 * math.sqrt(c)
    return math.exp(r) * (1.0 + r / (c + r)) ** (-(c + 2.0 * r))


def rho(c: int) -> float:
    """Upper bound on the probability that a random seed under-selects,
    i.e. picks fewer than c tags.  Strictly decreasing in c; rho(1) is
    about 0.1991."""
    _check_c(c)
    r = 3.0 * math.sqrt(c)
    return math.exp(-r) * (1.0 - r / (c + r)) ** (-c)


def seed_success_lower_bound(c: int) -> float:
    """A random seed is suitable with probability at least 1 - mu(c) - rho(c),
    which exceeds 0.4 for every c >= 1."""
    return 1.0 - mu(c) - rho(c)


def reliability_number(alpha: float, epsilon: float) -> int:
    """Smallest c with alpha^c <= epsilon: sampling c tags from a category
    with missing rate alpha succeeds except with probability epsilon.  Both
    logs are finite and negative on (0, 1), subnormals included, so c >= 1."""
    for name, x in (("alpha", alpha), ("epsilon", epsilon)):
        if not 0.0 < x < 1.0:
            raise ConfigurationError(f"{name} must lie in (0, 1), got {x}")
    return math.ceil(math.log(epsilon) / math.log(alpha))


def success_probability(n: int, missing: int, c: int) -> float:
    """Exact chance that at least one of c tags sampled without replacement
    from a category of n (with `missing` of them gone) is present."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= missing <= n:
        raise ValueError(f"missing must be in [0, n], got {missing}")
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}")
    if c > missing:
        return 1.0
    p_all_missing = 1.0
    for i in range(c):
        p_all_missing *= (missing - i) / (n - i)
    return 1.0 - p_all_missing


def success_probability_approx(alpha: float, c: int) -> float:
    """With-replacement approximation 1 - alpha^c; a lower bound on the
    exact without-replacement probability."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    _check_c(c)
    return 1.0 - alpha**c


def _check_c(c: int):
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
