"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 protocol or runtime
failure, 4 verification failure.  RFID_SAMPLER_SEED overrides the seed
found in config files.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import (
    expected_protocol_bits, lower_bound_bits, reliability_number, transmission_time,
)
from .errors import ConfigurationError, ProtocolError
from .harness import parse_ints, run_scenarios
from .population import HALF_BITS, check_population_cap
from .selgen import commands_bit_cost, select_bits, selgen_commands, selgen_filters
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_VERIFY = 4


def _env_seed() -> int | None:
    raw = os.environ.get("RFID_SAMPLER_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"RFID_SAMPLER_SEED must be an integer, got {raw!r}")


def _per_category(raw: str, K: int, flag: str) -> list[int]:
    """One value repeats; otherwise there must be exactly K values."""
    values = parse_ints(raw, flag)
    if len(values) == 1:
        return values * K
    if len(values) != K:
        raise ConfigurationError(f"{flag}: need 1 or K={K} values, got {len(values)}")
    return values


def _parse_float_range(raw: str) -> list[float]:
    # either one float or lo:hi:step
    try:
        parts = [float(x) for x in raw.split(":")]
    except ValueError:
        raise ConfigurationError(f"not a float or lo:hi:step range: {raw!r}") from None
    if len(parts) == 1:
        return parts
    if len(parts) != 3:
        raise ConfigurationError(f"not a float or lo:hi:step range: {raw!r}")
    lo, hi, step = parts
    if step <= 0 or hi < lo:
        raise ConfigurationError(f"bad range {raw!r}")
    # each point from its index, so float error does not build up along the
    # sweep; the slack keeps an end point that lies on the grid
    last = (hi - lo) / step + 1e-9
    if not last < 10_000:  # also rejects nan and inf
        raise ConfigurationError(f"range {raw!r} has over 10000 points")
    return [round(lo + i * step, 10) for i in range(int(last) + 1)]


def cmd_simulate(args) -> int:
    run_scenarios(args.config, args.out, seed_override=_env_seed())
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, fast=args.fast)
    for check in checks:
        print(check.line())
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY


def cmd_selgen(args) -> int:
    if not 1 <= args.bits <= HALF_BITS:  # the widest hash window any stage reads
        raise ConfigurationError(f"need 1 <= bits <= {HALF_BITS}, got bits={args.bits}")
    filters = selgen_filters(args.tau, args.bits)
    commands = selgen_commands(args.tau, args.bits)
    print(f"threshold {args.tau} over {args.bits}-bit hashes: "
          f"{len(commands)} Select commands")
    for filt, mask in zip(filters, commands):
        print(f"  filter {filt}  mask {mask}  "
              f"length {len(mask)}  cost {select_bits(len(mask))} bits")
    print(f"total {commands_bit_cost(commands)} bits")
    return EXIT_OK


def cmd_bounds(args) -> int:
    K = args.k
    check_population_cap(K)  # before any K-length list is built
    cs = _per_category(args.c, K, "--c")
    ns = _per_category(args.n, K, "--n") if args.n else [max(c * 10, 2) for c in cs]
    expected = expected_protocol_bits(ns, cs)  # checks every (n, c), so the next call cannot raise
    gamma = lower_bound_bits(cs)
    print(f"K={K} sum_c={sum(cs)} "
          f"lower_bound={gamma:.1f} bits ({transmission_time(gamma) * 1e3:.3f} ms)  "
          f"expected={expected:.1f} bits ({transmission_time(expected) * 1e3:.3f} ms)  "
          f"ratio={expected / gamma:.4f}")
    return EXIT_OK


def cmd_reliability(args) -> int:
    alphas = _parse_float_range(args.alpha)
    cs = [reliability_number(a, args.epsilon) for a in alphas]  # a bad sweep prints nothing
    for alpha, c in zip(alphas, cs):
        print(f"alpha={alpha:.3f} epsilon={args.epsilon:g} -> c={c}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfid-sampler",
        description="Category-information sampling protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run scenarios from a config file")
    p.add_argument("--config", required=True, help="INI scenario file")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--fast", action="store_true",
                   help="shrink Monte-Carlo grids for a quick smoke run")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("selgen", help="show Select commands for a threshold")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--bits", type=int, required=True, help="hash width in bits")
    p.set_defaults(fn=cmd_selgen)

    p = sub.add_parser("bounds", help="lower bound vs expected protocol cost")
    p.add_argument("--k", type=int, required=True, help="number of categories")
    p.add_argument("--c", required=True, help="sample count (int or comma list)")
    p.add_argument("--n", help="category size (int or comma list)")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("reliability", help="sample counts for a success target")
    p.add_argument("--alpha", required=True,
                   help="missing-tag rate, a float or lo:hi:step sweep")
    p.add_argument("--epsilon", type=float, required=True,
                   help="allowed failure probability")
    p.set_defaults(fn=cmd_reliability)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
