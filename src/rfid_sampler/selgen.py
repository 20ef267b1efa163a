"""Select-command generation and the COTS realization of the protocol.

A threshold tau over L-bit hash values is turned into a short list of
prefix filters (strings over {0, 1, *}) that jointly match exactly the
values in [0, tau].  Each filter becomes one Select command whose mask is
the filter without its trailing stars, so a command costs the fixed C1G2
fields (SELECT_FIXED_BITS) plus its mask length.  Where the hash window
starts is recorded per stage (`ImplRoundResult.coarse_seed`,
`refine_seed`), not per command.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError
from .hashing import (
    SeedSpec,
    selection_threshold,
    substring_values,
    suitable_from_count,
    window_starts,
)
from .population import Population, halves_to_ids

# Target(3) + Action(3) + MemBank(2) + Pointer(16) + Length(8): every
# field except the mask, charged at full width whatever its value
SELECT_FIXED_BITS = 3 + 3 + 2 + 16 + 8


@dataclass(frozen=True)
class SelectCommand:
    """One C1G2 Select command, costed by its mask: the bit pattern, MSB
    first, that a tag compares against its EPC's hash window."""

    mask: str

    @property
    def length(self) -> int:
        return len(self.mask)

    @property
    def bit_cost(self) -> int:
        return SELECT_FIXED_BITS + self.length


def selgen_filters(tau: int, width: int) -> list[str]:
    """Prefix filters over {0,1,*} jointly matching the values 0..tau.

    Scans tau's bits from the most significant end: every 1-bit at
    position i yields the filter "prefix 0 ***" covering all values that
    first fall below tau there; a closing filter covering tau itself is
    emitted when the remaining low bits are all ones (or are exhausted).
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if not 0 <= tau < (1 << width):
        raise ValueError(f"tau={tau} does not fit in {width} bits")
    bits = format(tau, f"0{width}b")
    filters = []
    for pos, b in enumerate(bits):  # pos 0 is the MSB, i = width - pos
        i = width - pos
        if b == "1":
            filters.append(bits[:pos] + "0" + "*" * (i - 1))
        if i == 1 or all(x == "1" for x in bits[pos + 1:]):
            filters.append(bits[: pos + 1] + "*" * (i - 1))
            break
    return filters


def command_count(tau: int, width: int) -> int:
    """Closed form for len(selgen_filters(tau, width)).

    With t trailing ones in tau, the closer absorbs those positions, so
    the count is popcount(tau >> (t+1)) + 1; an all-ones tau still pays
    its leading step-(3) filter, giving 2.
    """
    if tau == (1 << width) - 1:
        return 2
    t = 0
    while (tau >> t) & 1:
        t += 1
    return bin(tau >> (t + 1)).count("1") + 1


def selgen_commands(tau: int, width: int) -> list[SelectCommand]:
    """Select commands for the filters; stars become a shorter compare length."""
    return [SelectCommand(mask=filt.rstrip("*")) for filt in selgen_filters(tau, width)]


def commands_bit_cost(cmds: list[SelectCommand]) -> int:
    return sum(c.bit_cost for c in cmds)


def best_threshold(sorted_values: list[int], c: int, width: int) -> int:
    """Cheapest tau that selects exactly the c smallest hash values.

    Any tau in [v_c, v_{c+1} - 1] selects the same set, so pick the one
    needing the fewest Select commands (ties: smallest tau).  Only lo and,
    for each j, the smallest tau >= lo ending in j ones can win: any other
    tau costs more than the one whose j indexes (from 0) the highest bit
    where tau and lo differ.  These candidates ascend with j.
    """
    lo = sorted_values[c - 1]
    hi = sorted_values[c] - 1 if c < len(sorted_values) else (1 << width) - 1
    best, best_cost = lo, command_count(lo, width)
    for tau in (((lo + (1 << j)) >> j << j) - 1 for j in range(1, width + 1)):
        if tau <= hi and command_count(tau, width) < best_cost:
            best, best_cost = tau, command_count(tau, width)
    return best


@dataclass
class ImplRoundResult:
    """Per-category record of one full run on the Select-command realization."""

    k: int
    coarse_seed: SeedSpec
    coarse_redraws: int
    coarse_selected: int
    refine_seed: SeedSpec
    refine_redraws: int
    tau_coarse: int
    tau_refine: int
    commands: list[SelectCommand]
    ready: list[tuple[int, int]]  # (tag ID, reporting order)

    @property
    def command_count(self) -> int:
        return len(self.commands)

    @property
    def bits(self) -> int:
        return commands_bit_cost(self.commands)


def scaled_coarse_threshold(n: int, c: int, width: int) -> int:
    """Map the mod-n threshold c + 3*sqrt(c) onto the raw L-bit hash range."""
    tau = math.ceil(selection_threshold(c) * (1 << width) / n)
    return min(tau, (1 << width) - 1)


def _draw_windows(length: int, rng: np.random.Generator) -> Iterator[SeedSpec]:
    """The search's seeds in random order, each built when the search reaches it."""
    starts = window_starts(length)
    for i in rng.permutation(len(starts)):
        yield SeedSpec(start=starts[i], length=length)


def run_impl_category(
    hi: np.ndarray,
    lo: np.ndarray,
    c: int,
    rng: np.random.Generator,
    *,
    k: int = 1,
) -> ImplRoundResult:
    """Both stages for category k, given its tags' ID halves (hi, lo),
    returning the full command transcript.

    Stage one redraws the hash window until the number of tags under the
    coarse threshold is in [c, c + 6*sqrt(c)].  Stage two redraws a wider
    window until the c smallest raw hashes are distinct and separated
    from the (c+1)-th, then selects them with a threshold filter set.
    """
    n = len(hi)
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")

    # stage one: coarse selection by threshold on an L1-bit raw hash
    L1 = max(1, math.ceil(math.log2(n)))
    tau1 = scaled_coarse_threshold(n, c, L1)
    coarse_seed = None
    coarse_vals = None
    redraws1 = 0
    for seed in _draw_windows(L1, rng):
        vals = substring_values(hi, lo, seed).astype(np.int64)
        count = int((vals <= tau1).sum())
        redraws1 += 1
        if suitable_from_count(count, c):
            coarse_seed, coarse_vals = seed, vals
            break
    if coarse_seed is None:
        raise ProtocolError(f"no coarse hash window suits n={n}, c={c}")
    sel_idx = np.flatnonzero(coarse_vals <= tau1)
    cmds = selgen_commands(tau1, L1)

    # stage two: exact selection among the l survivors
    l = len(sel_idx)
    L2 = max(1, math.ceil(math.log2(l * l))) if l > 1 else 1
    s_hi, s_lo = hi[sel_idx], lo[sel_idx]
    refine_seed = None
    refine_vals = None
    redraws2 = 0
    for seed in _draw_windows(L2, rng):
        vals = substring_values(s_hi, s_lo, seed).astype(np.int64)
        redraws2 += 1
        order = np.sort(vals)
        distinct = len(set(order[:c].tolist())) == c
        separated = c == l or order[c - 1] < order[c]
        if distinct and separated:
            refine_seed, refine_vals = seed, vals
            break
    if refine_seed is None:
        raise ProtocolError(f"no refine hash window separates c={c} of l={l} tags")

    tau2 = best_threshold(np.sort(refine_vals).tolist(), c, L2)
    cmds += selgen_commands(tau2, L2)

    picked = np.flatnonzero(refine_vals <= tau2)
    if len(picked) != c:
        raise ProtocolError(f"threshold {tau2} picked {len(picked)} tags, want {c}")
    # reporting orders follow the refine hash rank; the hashes are distinct
    picked = picked[np.argsort(refine_vals[picked])]
    ids = halves_to_ids(s_hi[picked], s_lo[picked])
    ready = [(tid, rank) for rank, tid in enumerate(ids, start=1)]

    return ImplRoundResult(
        k=k,
        coarse_seed=coarse_seed,
        coarse_redraws=redraws1,
        coarse_selected=l,
        refine_seed=refine_seed,
        refine_redraws=redraws2,
        tau_coarse=tau1,
        tau_refine=tau2,
        commands=cmds,
        ready=ready,
    )


def run_optc_impl(
    population: Population,
    rng: np.random.Generator,
) -> list[ImplRoundResult]:
    """The Select-command realization over every category in turn."""
    results = []
    for spec in population.categories:
        hi, lo = population.halves(spec.k)
        results.append(run_impl_category(hi, lo, spec.c, rng, k=spec.k))
    return results


def command_budget(c: int) -> int:
    """Per-category bound on Select commands: both stages pay at most
    ceil(log2 tau) + 1 each, with tau of order c."""
    return 3 * math.ceil(math.log2(c)) + 3
