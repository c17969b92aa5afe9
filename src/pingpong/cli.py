"""Command-line surface: demo, report, simulate, sweep, verify.

Exit codes are a stable contract: 0 success, 2 I/O or usage trouble,
3 validation failure, 1 internal error or failed numeric check.  All
output is deterministic given flags and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys

from . import attack as attack_mod
from . import checks as checks_mod
from . import files as files_mod
from . import metrics
from . import protocol as protocol_mod
from . import search as search_mod

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE_IO = 2
EXIT_VALIDATION = 3


def _fmt(value: float) -> str:
    return f"{value:.12f}"


def _render_report(report: metrics.InfoReport, config: protocol_mod.ProtocolConfig) -> list[str]:
    lines = [
        f"d = {_fmt(report.d)}",
        f"I0t = {_fmt(report.i0t)}",
        f"I0a = {_fmt(report.i0a)}",
        f"I0c = {_fmt(report.i0c)} (computed)",
        "",
        f"Holevo(travel) = {_fmt(report.holevo_t)}",
        f"Holevo(composite) = {_fmt(report.holevo_c)}",
    ]
    if config.decoding_states is None:
        lines += ["", "no message: the encoded images of the sent state are not orthogonal, "
                      "so Bob cannot decode any bit"]
    deviation = report.claim_deviation
    if deviation is not None:
        lines += [
            "",
            "claimed vs computed I0c:",
            f"  claimed I0c  = {_fmt(deviation.claimed)}",
            f"  computed I0c = {_fmt(deviation.computed)}",
            f"  delta        = {_fmt(deviation.delta)}",
        ]
        if abs(deviation.delta) > 1e-9:
            lines.append(
                f"  DEVIATION: computed I0c differs from the claimed value by {_fmt(deviation.delta)}"
            )
        else:
            lines.append("  MATCH: computed I0c reproduces the claimed value")
    return lines


def cmd_demo(args: argparse.Namespace) -> int:
    spec = attack_mod.builtin_attack("counterexample")
    config = protocol_mod.make_config("simplified")
    report = metrics.information_report(spec, config)
    print("counterexample attack audit")
    print("mode simplified, Bob sends |0>, encoding {I, Z} with equal priors")
    print()
    print("\n".join(_render_report(report, config)))
    solid = abs(report.d - 0.5) <= 1e-9 and abs(report.i0t - 1.0) <= 1e-9
    return EXIT_OK if solid else EXIT_INTERNAL


def _load_attack(path: str) -> attack_mod.AttackSpec | int:
    """Parsed attack file, or an exit code; consumers validate the attack itself."""
    try:
        return files_mod.load_attack(path)
    except OSError as exc:
        print(f"cannot read attack file: {exc}", file=sys.stderr)
        return EXIT_USAGE_IO
    except files_mod.AttackFileError as exc:
        print(f"invalid attack file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def cmd_report(args: argparse.Namespace) -> int:
    spec = _load_attack(args.attack_file)
    if isinstance(spec, int):
        return spec
    config = protocol_mod.make_config(args.mode, encoding=args.encoding)
    report = metrics.information_report(spec, config)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    else:
        print(f"attack report ({args.mode} mode, encoding {args.encoding})")
        print()
        print("\n".join(_render_report(report, config)))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.rounds > protocol_mod.MAX_ROUNDS:
        print(f"too many rounds: {args.rounds} is above the cap of {protocol_mod.MAX_ROUNDS}",
              file=sys.stderr)
        return EXIT_USAGE_IO
    spec = _load_attack(args.attack_file)
    if isinstance(spec, int):
        return spec
    # All simulated rounds are control rounds so --rounds sets the
    # binomial sample size for the empirical-vs-analytic comparison.
    config = protocol_mod.make_config(
        args.mode, encoding=args.encoding, control_probability=1.0
    )
    stats = protocol_mod.monte_carlo(config, spec, rounds=args.rounds, seed=args.seed)
    analytic = stats.analytic_d
    n = stats.counts["control_rounds"]
    sigma = math.sqrt(analytic * (1.0 - analytic) / n)
    if sigma == 0.0:
        z = 0.0 if stats.empirical_d == analytic else math.inf
    else:
        z = (stats.empirical_d - analytic) / sigma
    print(f"analytic d = {_fmt(analytic)}")
    print(f"empirical d = {_fmt(stats.empirical_d)}")
    print(f"control rounds = {n}")
    print(f"z-score = {z:.6f}")
    return EXIT_OK if abs(z) <= 4.0 else EXIT_INTERNAL


# Bits by which i0a or i0c must beat i0t, both feasible, for a grid point to be flagged.
EXCEEDANCE_MARGIN = 0.01


def _render_summary(points: tuple[search_mod.CurvePoint, ...], objectives: tuple[str, ...]) -> list[str]:
    rows, flagged = [], 0
    by_target = itertools.groupby(sorted(points, key=lambda p: p.d_target), lambda p: p.d_target)
    for d_target, group in by_target:
        here = {p.objective: p for p in group}
        best = {name: p.best_value for name, p in here.items() if p.feasible}
        parts = [f"{name}={best[name]:.6f}" for name in objectives if name in best]
        notes = [
            f"{name} exceeds i0t by {best[name] - best['i0t']:.6f}"
            for name in ("i0c", "i0a")
            if "i0t" in best and name in best and best[name] > best["i0t"] + EXCEEDANCE_MARGIN
        ]
        flagged += bool(notes)
        infeasible = sorted(name for name, p in here.items() if not p.feasible)
        if infeasible:
            notes.append("infeasible: " + ",".join(infeasible))
        suffix = "; ".join(notes) if notes else "no exceedance"
        rows.append(f"  d_target {d_target:.4f}: " + " ".join(parts) + f" | {suffix}")
    return [
        "sweep summary: empirical max found; "
        "search values are lower bounds with no optimality certificate",
        *rows,
        f"flagged grid points: {flagged} of {len(rows)}",
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    objectives = (args.objective,) if args.objective else search_mod.OBJECTIVES
    try:
        sweep_cfg = search_mod.SweepConfig(
            d_grid=args.grid,
            restarts=args.restarts,
            budget_per_restart=args.budget,
            seed=args.seed,
            objectives=objectives,
        )
    except ValueError as exc:
        print(f"bad sweep configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE_IO
    family_builder = {
        "full": search_mod.full_unitary_family,
        "product": search_mod.product_family,
    }[args.family]
    family = family_builder(args.ancilla_dim)
    config = protocol_mod.make_config(args.mode, encoding=args.encoding)
    try:
        points = search_mod.sweep(family, config, sweep_cfg)
    except search_mod.SearchTooLargeError as exc:
        print(f"bad sweep configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE_IO
    summary_lines = _render_summary(points, objectives)
    if args.out:
        try:
            files_mod.save_curve_csv(points, args.out)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE_IO
        print("\n".join(summary_lines))
    else:
        files_mod.write_curve_csv(points, sys.stdout)
        print("\n".join(summary_lines), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = checks_mod.run_all()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name:<34} margin={result.margin:+.3e}  {result.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results)} suites: {len(results) - failed} passed, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_INTERNAL


# Most points a start:stop:step grid may expand to.
_MAX_GRID_POINTS = 10_001


def _parse_grid(text: str) -> tuple[float, ...]:
    """argparse type: the detection targets of a comma list or a start:stop:step range."""
    try:
        values = _grid_values(text.strip())
        if not values:
            raise ValueError("no detection targets")
        return values
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc


def _grid_values(stripped: str) -> tuple[float, ...]:
    if not stripped:
        return ()
    if ":" in stripped:
        parts = stripped.split(":")
        if len(parts) != 3:
            raise ValueError("expected start:stop:step")
        start, stop, step = _finite_floats(parts)
        if step <= 0:
            raise ValueError("step must be positive")
        span = (stop + 1e-9 - start) / step  # ±inf when the range overflows
        if span < 0:  # stop below start: no points
            return ()
        if not span < _MAX_GRID_POINTS:
            raise ValueError(f"more than {_MAX_GRID_POINTS} points")
        values = []
        # floor(span) + 1 points, give or take one for rounding
        for k in range(math.floor(span) + 2):
            value = start + k * step
            if value > stop + 1e-9:
                break
            # Clamp float noise at the interval edges only.
            if -1e-9 < value < 0.0:
                value = 0.0
            if 1.0 < value < 1.0 + 1e-9:
                value = 1.0
            values.append(value)
        return tuple(values)
    return _finite_floats(stripped.split(","))


def _finite_floats(parts: list[str]) -> tuple[float, ...]:
    values = tuple(float(part) for part in parts)
    if not all(math.isfinite(v) for v in values):
        raise ValueError("values must be finite")
    return values


def _int_at_least(lowest: int, kind: str):
    """argparse type: an integer >= ``lowest``, or a usage error naming ``kind``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lowest - 1
        if value < lowest:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _add_attack_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("attack_file", help="JSON attack file (ancilla_dim, chi, unitary)")
    parser.add_argument("--mode", choices=protocol_mod.MODES, default="simplified")
    parser.add_argument("--encoding", choices=protocol_mod.ENCODING_NAMES, default="iz")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pingpong",
        description="Ping-pong protocol eavesdropping simulator and analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="audit the built-in counterexample attack")
    demo.set_defaults(func=cmd_demo)

    report = sub.add_parser("report", help="information report for an attack file")
    _add_attack_io(report)
    report.add_argument("--json", action="store_true", help="machine-readable output")
    report.set_defaults(func=cmd_report)

    simulate = sub.add_parser("simulate", help="Monte Carlo check of the analytic d")
    _add_attack_io(simulate)
    simulate.add_argument("--rounds", type=_positive_int, default=100_000,
                          help=f"control rounds, at most {protocol_mod.MAX_ROUNDS}")
    simulate.add_argument("--seed", type=_non_negative_int, default=0)
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="map the information-vs-detection frontier")
    sweep.add_argument("--grid", type=_parse_grid, default=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                       help="comma list or start:stop:step of detection targets")
    sweep.add_argument("--objective", choices=search_mod.OBJECTIVES, default=None,
                       help="optimize one objective (default: all three)")
    sweep.add_argument("--seed", type=_non_negative_int, default=0)
    sweep.add_argument("--out", default=None, help="CSV path (default: stdout)")
    sweep.add_argument("--mode", choices=protocol_mod.MODES, default="simplified")
    sweep.add_argument("--encoding", choices=protocol_mod.ENCODING_NAMES, default="iz")
    sweep.add_argument("--restarts", type=_positive_int, default=20)
    sweep.add_argument("--budget", type=_positive_int, default=2000,
                       help="objective evaluations per restart")
    sweep.add_argument("--family", choices=("full", "product"), default="full")
    sweep.add_argument("--ancilla-dim", type=_positive_int, default=2)
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run the full invariant suite")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE_IO
    try:
        return args.func(args)
    except attack_mod.InvalidAttackError as exc:
        for violation in str(exc).splitlines():
            print(f"invalid attack: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:  # the reader closed stdout: an I/O end, not an internal error
        return EXIT_USAGE_IO
    except Exception as exc:  # stable exit-code contract over stack traces
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Point fd 1 at devnull so the interpreter's own last flush of the
        # buffered rest prints no "Exception ignored" line.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE_IO
    sys.exit(code)


if __name__ == "__main__":
    run()
