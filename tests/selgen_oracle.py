"""Position-scan reference for Select-filter generation.

`selgen_filters` here walks tau's bits one position at a time and tests
the remaining low bits for all ones at each step, as the filter rule is
stated.  The package finds the closing filter from tau's trailing-ones
count instead; its filters, command masks and command counts must match
these strings exactly.
"""

from __future__ import annotations


def selgen_filters(tau: int, width: int) -> list[str]:
    """Prefix filters over {0,1,*} jointly matching the values 0..tau.

    Scans tau's bits from the most significant end: every 1-bit at
    position i yields the filter "prefix 0 ***" covering all values that
    first fall below tau there; a closing filter covering tau itself is
    emitted when the remaining low bits are all ones (or are exhausted).
    """
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
