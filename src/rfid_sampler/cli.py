"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 protocol or runtime
failure, 4 verification failure.  RFID_SAMPLER_SEED overrides the seed
found in config files.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigurationError, ProtocolError

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


def _parse_int_list(raw: str) -> int | list[int]:
    parts = [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigurationError(f"empty integer list: {raw!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ConfigurationError(f"not an integer list: {raw!r}") from None
    return values[0] if len(values) == 1 else values


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
    from .harness import run_scenarios

    run_scenarios(args.config, args.out, seed_override=_env_seed())
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    checks = run_suite(args.suite, fast=args.fast)
    for check in checks:
        print(check.line())
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY


def cmd_selgen(args) -> int:
    from .population import ID_BITS
    from .selgen import commands_bit_cost, selgen_commands, selgen_filters

    if not 1 <= args.bits <= ID_BITS:  # a hash window is a substring of the ID
        raise ConfigurationError(f"need 1 <= bits <= {ID_BITS}, got bits={args.bits}")
    if not 0 <= args.tau < (1 << args.bits):
        raise ConfigurationError(
            f"need 0 <= tau < 2^bits, got tau={args.tau}, bits={args.bits}"
        )
    filters = selgen_filters(args.tau, args.bits)
    commands = selgen_commands(args.tau, args.bits)
    print(f"threshold {args.tau} over {args.bits}-bit hashes: "
          f"{len(commands)} Select commands")
    for filt, mask in zip(filters, commands):
        print(f"  filter {filt}  mask {mask or '(empty)'}  "
              f"length {len(mask)}  cost {commands_bit_cost([mask])} bits")
    print(f"total {commands_bit_cost(commands)} bits")
    return EXIT_OK


def cmd_bounds(args) -> int:
    from .analysis import transmission_time
    from .harness import bounds_report

    row = bounds_report(args.k, _parse_int_list(args.c),
                        _parse_int_list(args.n) if args.n else None)
    print(f"K={row['K']} sum_c={row['sum_c']} "
          f"lower_bound={row['lower_bound_bits']:.1f} bits "
          f"({transmission_time(row['lower_bound_bits']) * 1e3:.3f} ms)  "
          f"expected={row['expected_bits']:.1f} bits "
          f"({transmission_time(row['expected_bits']) * 1e3:.3f} ms)  "
          f"ratio={row['ratio']:.4f}")
    return EXIT_OK


def cmd_reliability(args) -> int:
    from .harness import reliability_report

    alphas = _parse_float_range(args.alpha)
    for row in reliability_report(alphas, args.epsilon):
        print(f"alpha={row['alpha']:.3f} epsilon={row['epsilon']:g} "
              f"-> c={row['c']}")
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
    from .verify import SUITES

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
