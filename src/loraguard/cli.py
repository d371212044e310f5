"""Command-line front end: run scenarios, query airtimes, evaluate the model.

Exit codes: 0 success, 2 unreadable input, 3 invalid scenario, 4 runtime
failure, 5 validation mismatch (``validate`` only).  ``validate`` builds the
run once, reads the model's inputs from it and runs it.  It exits 0 without
running when no reporter's downlinks reach a receive window: the model then
has no control downlinks to predict.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .analytic import PlrModelParams, plr_approx, plr_exact_fixed, plr_marginal, verdict
from .metrics import emit_report
from .phy import RadioParams, airtime_us
from .scenario import Scenario, ScenarioError, load_scenario
from .simulation import Simulation

EXIT_OK = 0
EXIT_READ_ERROR = 2
EXIT_INVALID = 3
EXIT_RUNTIME = 4
EXIT_MISMATCH = 5

UP_LATENCY_BUDGET_US = 500_000


def _say(args: argparse.Namespace, text: str) -> None:
    if not args.quiet:
        print(text)


def _load(args: argparse.Namespace) -> Scenario | int:
    """The scenario file, built once with the ``--seed`` override in place.

    If it cannot be loaded, the reason goes to stderr and the exit code is
    returned instead.
    """
    try:
        return load_scenario(args.scenario, args.seed)
    except OSError as exc:
        print(f"error: cannot read {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_READ_ERROR
    except ScenarioError as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args)
    if isinstance(scenario, int):
        return scenario
    try:
        started = time.perf_counter()
        report = Simulation(scenario).run()
        elapsed = time.perf_counter() - started
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    text = emit_report(report, args.format)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        _say(args, f"report written to {args.out} ({elapsed:.1f} s)")
    else:
        print(text, end="")
    if not args.quiet and "UP" in report["kinds"]:
        up = report["kinds"]["UP"]
        if "plr" in up:
            lo, hi = up["plr_ci95"]
            _say(args, f"UP PLR {100 * up['plr']:.3f}% "
                       f"(95% CI {100 * lo:.3f}%..{100 * hi:.3f}%)")
    return EXIT_OK


def cmd_airtime(args: argparse.Namespace) -> int:
    try:
        params = RadioParams(sf=args.sf, bw_hz=args.bw, coding_rate=args.cr,
                             preamble_symbols=args.preamble)
        total_us = airtime_us(params, args.payload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(f"sf={args.sf} bw={args.bw} Hz cr=4/{4 + args.cr} payload={args.payload} B")
    print(f"symbol_time_ms={params.symbol_time_us / 1000:.3f} ldro={'on' if params.ldro else 'off'}")
    print(f"airtime_ms={total_us / 1000:.3f}")
    if total_us > UP_LATENCY_BUDGET_US:
        print(f"note: exceeds the {UP_LATENCY_BUDGET_US // 1000} ms urgent-delivery "
              f"budget; unusable for urgent uplinks")
    return EXIT_OK


def _parse_dist(text: str, label: str) -> tuple[tuple[float, float], ...]:
    # "0.0822:0.5,0.1439:0.5" -> ((0.0822, 0.5), (0.1439, 0.5))
    pairs = []
    for chunk in text.split(","):
        value, _, prob = chunk.partition(":")
        try:
            pairs.append((float(value), float(prob) if prob else 1.0))
        except ValueError as exc:
            raise ValueError(f"bad {label} entry {chunk!r}: {exc}") from exc
    return tuple(pairs)


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        # Built first, so that every method rejects a mixture that does not sum to 1.
        params = PlrModelParams(
            n_senders=args.senders, period_s=args.period_s, sigma_s=args.sigma_s,
            dcp_airtimes=_parse_dist(args.dcp_s, "dcp"), up_airtimes=_parse_dist(args.up_s, "up"))
        mean_dcp = sum(v * p for v, p in params.dcp_airtimes)
        mean_up = sum(v * p for v, p in params.up_airtimes)
        results = []
        if args.method in ("approx", "all"):
            results.append(plr_approx(args.senders, mean_dcp, mean_up, args.period_s))
        if args.method in ("exact", "all"):
            results.append(plr_exact_fixed([mean_dcp] * args.senders, mean_up,
                                           args.period_s, args.sigma_s))
        if args.method in ("marginal", "all"):
            results.append(plr_marginal(params))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    for result in results:
        note = "" if result.in_regime else "  [outside validity regime]"
        print(f"{result.method:8s} plr={100 * result.plr:.4f}%  "
              f"p_collision_free={result.collision_free_probability:.6f}{note}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    if isinstance(scenario, int):
        return scenario
    sim = Simulation(scenario)
    try:
        inputs = sim.model_inputs()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if inputs is None:
        # Without downlinks that reach a window the downlink-load model has
        # nothing to predict, so nothing is run.
        print("validate: not applicable (no gateway sends control downlinks)")
        return EXIT_OK

    check = verdict(inputs, sim.run())
    if check is None:
        print("error: scenario produced no urgent uplinks to validate", file=sys.stderr)
        return EXIT_RUNTIME
    lo, hi = check.ci95
    line = (f"observed UP PLR {100 * check.observed:.3f}% "
            f"(CI {100 * lo:.3f}%..{100 * hi:.3f}%), "
            f"predicted {100 * check.predicted:.3f}%")
    ok = check.inside
    if args.rel_tolerance is not None:
        rel = abs(check.observed - check.predicted) / check.predicted
        ok = rel <= args.rel_tolerance
        line += f", relative gap {100 * rel:.1f}%"
    print(line)
    if not ok:
        print("validate: MISMATCH between simulation and model")
        return EXIT_MISMATCH
    print("validate: OK")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loraguard",
        description="Simulator and analytic model for urgent-alarm delivery over LoRaWAN")
    parser.add_argument("--quiet", action="store_true", help="suppress progress chatter")
    sub = parser.add_subparsers(dest="command", required=True)
    # --quiet also accepted after the subcommand.  SUPPRESS keeps the
    # subparser from writing its default over a --quiet given up front.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress progress chatter")

    p_run = sub.add_parser("run", parents=[common],
                           help="run a scenario and emit its report")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="write the report to this file")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.set_defaults(func=cmd_run)

    p_air = sub.add_parser("airtime", parents=[common], help="time-on-air for one frame")
    p_air.add_argument("--sf", type=int, required=True)
    p_air.add_argument("--payload", type=int, required=True, help="PHY payload bytes")
    p_air.add_argument("--bw", type=int, default=125_000, help="bandwidth in Hz")
    p_air.add_argument("--cr", type=int, default=1, help="coding rate index (1=4/5)")
    p_air.add_argument("--preamble", type=int, default=8, help="preamble symbols")
    p_air.set_defaults(func=cmd_airtime)

    p_an = sub.add_parser("analyze", parents=[common], help="evaluate the downlink-load loss model")
    p_an.add_argument("--senders", type=int, required=True,
                      help="number of periodic-report senders")
    p_an.add_argument("--period-s", type=float, required=True, help="report period, s")
    p_an.add_argument("--sigma-s", type=float, default=0.05, help="clock jitter std, s")
    p_an.add_argument("--dcp-s", required=True,
                      help="downlink airtime seconds, 'v[:p],v[:p],...'")
    p_an.add_argument("--up-s", required=True,
                      help="urgent airtime seconds, 'v[:p],v[:p],...'")
    p_an.add_argument("--method", choices=("approx", "exact", "marginal", "all"),
                      default="all")
    p_an.set_defaults(func=cmd_analyze)

    p_val = sub.add_parser("validate", parents=[common],
                           help="run a scenario and check it against the model")
    p_val.add_argument("scenario", help="scenario YAML file")
    p_val.add_argument("--seed", type=int, default=None)
    p_val.add_argument("--rel-tolerance", type=float, default=None,
                       help="accept within this relative gap instead of the CI test")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
