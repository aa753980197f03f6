"""Command-line front end: contracts | select | simulate | table3.

Defaults reproduce the reference setup (uniform types on [50, 300],
K=10, N=16, c=1).  A JSON config file supplies experiment parameters;
explicit flags override file values.  Exit codes: 0 success, 2 usage,
1 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from enum import EnumMeta
from pathlib import Path

from .contracts import menu_to_csv
from .distributions import TypeDistribution
from .selection import (
    SelectionProblem,
    best_snr_baseline,
    offers_from_csv,
    overall_heuristic,
    relaxed_upper_bound,
    selection_to_csv,
)
from .simulate import (
    ExperimentConfig,
    Information,
    MenuKind,
    broadcast_menu,
    reproduce_table3,
    run_experiment,
    table3_to_csv,
)

_DIST_ARGS = {
    "uniform": ("low", "high"),
    "truncated_exponential": ("low", "high", "rate"),
    "empirical": ("cdf_points",),
}


def _parse_dist(spec) -> TypeDistribution:
    if not isinstance(spec, dict):
        raise ValueError("expected a JSON object")
    unknown = set(spec) - {"kind"}.union(*_DIST_ARGS.values())
    if unknown:
        raise ValueError(f"unknown distribution keys: {sorted(unknown)}")
    kind = spec.get("kind", "uniform")
    if kind not in _DIST_ARGS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    missing = [key for key in _DIST_ARGS[kind] if key not in spec]
    if missing:
        raise ValueError(f"{kind} distribution needs keys {missing}")
    return getattr(TypeDistribution, kind)(*(spec[key] for key in _DIST_ARGS[kind]))


def _sweep(kind):
    """Parser of a sweep tuple from one value, comma-separated text or a JSON list."""

    def sweep(value):
        parts = [str(p) for p in value] if isinstance(value, list) else str(value).split(",")
        values = tuple(kind(p) for p in parts if p.strip())
        if not values:
            raise ValueError("expected a value or a comma-separated sweep")
        return values

    return sweep


# One row per experiment parameter: JSON key and flag name, ExperimentConfig
# field, parser of a flag or JSON value, flag help (None: config file only).
_CONFIG = (
    ("dist", "dist", _parse_dist, None),
    ("seed", "seed", int, "master random seed"),
    ("budget", "budget", _sweep(float), "budget or comma-separated sweep"),
    ("relays", "relays", _sweep(int), "relay count or comma-separated sweep"),
    ("subcarriers", "subcarriers", int, "number of OFDM subcarriers"),
    ("quant", "quant", int, "quantization factor K"),
    ("cost", "cost_coeff", float, "cost per unit relay power c"),
    ("trials", "trials", int, "Monte Carlo trials per sweep cell"),
    ("resolution", "resolution", int, "money units per 1.0 for the knapsack DP"),
    ("menu", "menu_kind", MenuKind, "broadcast menu kind"),
    ("information", "information", Information, "information regime"),
)


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config file values, then explicit flags over them."""
    raw = {}
    if args.config is not None:
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(raw) - {row[0] for row in _CONFIG}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, field, parse, _ in _CONFIG:
        if key in raw:
            value = raw[key] if isinstance(raw[key], (dict, list)) else str(raw[key])
            try:
                kwargs[field] = parse(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        if getattr(args, key, None) is not None:
            kwargs[field] = getattr(args, key)
    return ExperimentConfig(**kwargs)


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON experiment config file")
    for key, _, parse, help_text in _CONFIG:
        if help_text is None:
            continue
        choices = [c.value for c in parse] if isinstance(parse, EnumMeta) else None
        metavar = "{" + ",".join(choices) + "}" if choices else None
        sub.add_argument(f"--{key}", type=parse, metavar=metavar, help=help_text)
    sub.add_argument("--out", help="output CSV path (default: stdout)")


def _at_least(kind, low, message):
    """Flag parser that refuses values below `low` (NaN passes through)."""

    def parse(text):
        value = kind(text)
        if value < low:
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid float value" names it
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaycontracts",
        description="Contract menus and budgeted relay selection for OFDM relaying",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    contracts = commands.add_parser(
        "contracts", help="emit a contract menu as CSV (k, delta, snr, transfer, rent)"
    )
    contracts.set_defaults(run=_cmd_contracts)
    _add_experiment_flags(contracts)

    select = commands.add_parser(
        "select", help="run the selection methods over an offers CSV"
    )
    select.set_defaults(run=_cmd_select)
    select.add_argument("offers", help="offers CSV (m,n,gamma_linear,transfer)")
    select.add_argument(
        "--budget", type=_at_least(float, 0.0, "budget must be non-negative"),
        default=16.0, help="total budget",
    )
    select.add_argument(
        "--resolution", type=_at_least(int, 1, "resolution must be >= 1"), default=1000
    )
    select.add_argument("--out", help="output CSV path (default: stdout)")

    simulate = commands.add_parser(
        "simulate", help="Monte Carlo capacity experiment, metrics CSV per sweep cell"
    )
    simulate.set_defaults(run=_cmd_simulate)
    _add_experiment_flags(simulate)

    table3 = commands.add_parser(
        "table3", help="first/second-best contract table at the reference defaults"
    )
    table3.set_defaults(run=_cmd_table3)
    table3.add_argument("--cost", type=float, default=1.0)
    table3.add_argument("--out", help="output CSV path (default: stdout)")

    return parser


# `main` parses with one parser per process; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def _cmd_contracts(args: argparse.Namespace) -> str:
    return menu_to_csv(broadcast_menu(_experiment_config(args)))


def _cmd_select(args: argparse.Namespace) -> str:
    offers = offers_from_csv(Path(args.offers).read_text())
    problem = SelectionProblem(offers, args.budget, args.resolution)
    results = [overall_heuristic(problem), best_snr_baseline(problem)]
    bound = relaxed_upper_bound(problem)
    return selection_to_csv(results, bounds={"Relaxed": bound})


def _cmd_simulate(args: argparse.Namespace) -> str:
    return run_experiment(_experiment_config(args)).to_csv()


def _cmd_table3(args: argparse.Namespace) -> str:
    return table3_to_csv(reproduce_table3(args.cost))


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = args.run(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
