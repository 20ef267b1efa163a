"""Select-command generation and the COTS realization of the protocol.

A threshold tau over L-bit hash values is turned into a short list of
prefix filters (strings over {0, 1, *}) that jointly match exactly the
values in [0, tau].  Each filter becomes one Select command, and a
command is its mask: the filter without its trailing stars, as a string
of bits, MSB first.  A command costs the fixed C1G2 fields plus its mask
length (`select_bits`).  Where the hash window starts is recorded per
stage (`ImplRoundResult.coarse_seed`, `refine_seed`), not per command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .hashing import (
    SeedSpec,
    seed_windows,
    substring_values,
    suitable_upper,
)
from .population import Population, ReadyTags

# Target(3) + Action(3) + MemBank(2) + Pointer(16) + Length(8): every
# field except the mask, charged at full width whatever its value
SELECT_FIXED_BITS = 3 + 3 + 2 + 16 + 8


def select_bits(mask_bits: int) -> int:
    """Air-time of one Select command whose mask is `mask_bits` long."""
    return SELECT_FIXED_BITS + mask_bits


def selgen_commands(tau: int, width: int) -> list[str]:
    """The Select commands' masks, i.e. each filter without its trailing stars.

    Scans tau's bits from the most significant end: every 1-bit yields the
    mask "prefix 0", covering all values that first fall below tau there.
    The closing mask covers tau itself; it ends above tau's trailing ones
    (or at the MSB when tau is all ones), where the remaining bits cover
    every completion.
    """
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    if not 0 <= tau < (1 << width):
        raise ConfigurationError(f"tau={tau} does not fit in {width} bits")
    bits = format(tau, f"0{width}b")
    # (~tau & (tau + 1)).bit_length() is one more than tau's trailing ones
    close = width - min((~tau & (tau + 1)).bit_length(), width)
    masks = [bits[:pos] + "0" for pos in range(close + 1) if bits[pos] == "1"]
    masks.append(bits[: close + 1])
    return masks


def selgen_filters(tau: int, width: int) -> list[str]:
    """Prefix filters over {0,1,*} jointly matching the values 0..tau."""
    return [m.ljust(width, "*") for m in selgen_commands(tau, width)]


def command_count(tau: int, width: int) -> int:
    """Closed form for len(selgen_filters(tau, width)).

    With t trailing ones in tau, the closer absorbs those positions, so
    the count is popcount(tau >> (t+1)) + 1; an all-ones tau still pays
    its leading step-(3) filter, giving 2.  One empty-mask Select (32 bits)
    would keep every tag too, but priced at one it makes stage one keep
    every tag more often, and stage two's bigger pools cost more (sim-deploy
    airtime_ratio 12.07 -> 12.17); it waits for a choice by whole-plan cost.
    """
    if tau == (1 << width) - 1:
        return 2
    return (tau >> (~tau & (tau + 1)).bit_length()).bit_count() + 1


def commands_bit_cost(masks: list[str]) -> int:
    """Air-time of the Select commands with these masks, in bits."""
    return sum(select_bits(len(m)) for m in masks)


def best_threshold(lo: int, hi: int, width: int) -> int:
    """Cheapest tau in [lo, hi]: the one needing the fewest Select commands
    (ties: smallest tau).

    Each stage calls it with the range of thresholds that select what it
    needs, so every tau in [lo, hi] selects the same tags (stage two) or a
    suitable count of them (stage one).  Only lo and, for each j, the
    smallest tau >= lo ending in j ones can win: any other tau costs more
    than the one whose j indexes (from 0) the highest bit where tau and lo
    differ.  These candidates ascend with j, so the scan stops at the first
    one past hi.
    """
    best, best_cost = lo, command_count(lo, width)
    for j in range(1, width + 1):
        tau = ((lo >> j) + 1 << j) - 1
        if tau > hi:
            break
        cost = command_count(tau, width)
        if cost < best_cost:
            best, best_cost = tau, cost
    return best


@dataclass
class ImplRoundResult(ReadyTags):
    """Per-category record of one full run on the Select-command realization."""

    coarse_seed: SeedSpec
    coarse_redraws: int  # windows drawn until one leaves a tau keeping c..c + 6*sqrt(c) tags
    refine_seed: SeedSpec
    refine_redraws: int
    tau_coarse: int
    tau_refine: int | None  # None when stage one kept exactly c tags and stage two sent nothing
    commands: list[str]  # the Select commands' masks, coarse stage first; stage two's may be none

    @property
    def bits_sent(self) -> int:
        return commands_bit_cost(self.commands)


def run_impl_category(
    hi: np.ndarray,
    lo: np.ndarray,
    c: int,
    rng: np.random.Generator,
) -> ImplRoundResult:
    """Both stages for one category, given its tags' ID halves (hi, lo),
    returning the full command transcript.

    Stage one draws a hash window and sends the cheapest threshold that
    keeps between c and c + 6*sqrt(c) tags: any tau from the c-th smallest
    raw hash up to just below the (floor(c + 6*sqrt(c)) + 1)-th does.  It
    draws another window only when ties leave no such tau.  Stage two
    redraws a wider window until the c smallest raw hashes are distinct and
    separated from the (c+1)-th, then selects them with the cheapest
    threshold between the two.  When stage one kept exactly c tags, stage
    two still draws its window, which orders the picks, but sends nothing.
    """
    n = len(hi)
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")

    # stage one: coarse selection by threshold on an L1-bit raw hash
    L1 = max(1, math.ceil(math.log2(n)))
    top = math.floor(suitable_upper(c))  # the most tags stage one may keep
    for redraws1, coarse_seed in enumerate(seed_windows(L1, rng), start=1):
        vals = substring_values(hi, lo, coarse_seed)
        part = vals.copy()  # the method on a copy skips np.partition's dispatch cost
        part.partition((c - 1, min(top, n - 1)))
        lo1 = int(part[c - 1])
        hi1 = int(part[top]) - 1 if top < n else (1 << L1) - 1
        if lo1 <= hi1:
            break
    else:
        raise ProtocolError(f"no coarse hash window suits n={n}, c={c}")

    tau1 = best_threshold(lo1, hi1, L1)
    if not lo1 <= tau1 <= hi1:
        raise ProtocolError(f"threshold {tau1} does not keep c={c} to {top} of n={n} tags")
    mask = vals <= np.array(tau1, dtype=np.uint64)  # 0-d operands are faster than scalars
    cmds = selgen_commands(tau1, L1)

    # stage two: exact selection among the l survivors
    s_hi, s_lo = hi[mask], lo[mask]
    l = len(s_hi)
    L2 = max(1, math.ceil(math.log2(l * l)))
    for redraws2, refine_seed in enumerate(seed_windows(L2, rng), start=1):
        vals = substring_values(s_hi, s_lo, refine_seed)
        # one stable sort: its first c rows are the picked tags in hash
        # order, and the c + 1 smallest values decide the draw
        rank = vals.argsort(kind="stable")
        head = vals[rank[: c + 1]].tolist()
        if len(set(head[:c])) == c and (c == l or head[c - 1] < head[c]):
            break
    else:
        raise ProtocolError(f"no refine hash window separates c={c} of l={l} tags")

    tau2 = None  # stage one kept exactly c tags: nothing is left to narrow
    if c < l:
        lo2, hi2 = head[c - 1], head[c] - 1
        tau2 = best_threshold(lo2, hi2, L2)
        if not lo2 <= tau2 <= hi2:
            raise ProtocolError(f"threshold {tau2} does not pick exactly c={c} of l={l} tags")
        cmds += selgen_commands(tau2, L2)

    return ImplRoundResult(
        coarse_seed=coarse_seed,
        coarse_redraws=redraws1,
        refine_seed=refine_seed,
        refine_redraws=redraws2,
        tau_coarse=tau1,
        tau_refine=tau2,
        commands=cmds,
        # reporting orders follow the refine hash rank; the hashes are distinct
        pool=(s_hi, s_lo),  # the coarse survivors' halves
        positions=rank[:c],
    )


def run_optc_impl(population: Population, rng: np.random.Generator) -> list[ImplRoundResult]:
    """The Select-command realization over every category in turn."""
    return [run_impl_category(hi, lo, c, rng) for hi, lo, c in population.segments()]
