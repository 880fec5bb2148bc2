"""Command-line interface: deterministic CSV tables for every quantity.

Subcommands map onto the library modules: ``static`` for single-probe
information reports, ``energy`` for the eigen-vs-bump comparison on a shared
energy axis, ``time`` for the evolved parabolic probe, ``entangled`` for the
pair-gain grid, and ``montecarlo`` for the estimation-bound experiment.
Everything is written as CSV with 12 significant digits so repeated runs
with the same flags are byte-identical.

Exit codes: 0 on success, 2 for unparsable flags or descriptors, 3 when a
computation fails at runtime.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace

from .dynamics import _relative_change, qfi_parabolic_time
from .entangled import _pair_formulas
from .inference import crlb_experiment
from .metrology import fi_energy, fi_position, qfi_static, qsnr_eigen, qsnr_polynomial
from .states import Custom, Eigen, Parabolic, Polynomial, ProbeState, Superposition
from .well import WellConfig

__all__ = ["main"]


class UsageError(Exception):
    """Bad flag value or state descriptor; message names the offending token."""


def _fmt(value: float) -> str:
    return format(value, ".12g")


def parse_state(text: str) -> ProbeState:
    """Parse a state descriptor like eigen:2 or super:1:3:0.3."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "eigen" and len(parts) == 2:
            return Eigen(int(parts[1]))
        if kind == "super" and len(parts) == 4:
            return Superposition(int(parts[1]), int(parts[2]), float(parts[3]))
        if kind == "poly" and len(parts) == 2:
            return Polynomial(int(parts[1]))
        if kind == "parabolic" and len(parts) == 1:
            return Parabolic()
        if kind == "custom" and len(parts) == 2 and parts[1].startswith("@"):
            path = parts[1][1:]
            try:
                with open(path) as fh:
                    coeff = [float(tok) for tok in fh.read().split()]
            except OSError as exc:
                raise UsageError(f"cannot read coefficient file {path!r}: {exc}") from exc
            return Custom(tuple(coeff))
    except ValueError as exc:
        raise UsageError(f"bad state descriptor {text!r}: {exc}") from exc
    raise UsageError(f"bad state descriptor {text!r}")


def parse_grid(text: str) -> list[float]:
    """Parse a non-empty comma list of finite reals or an inclusive start:stop:count range."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad range {text!r}: expected start:stop:count")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise UsageError(f"bad range {text!r}: {exc}") from exc
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise UsageError(f"bad range {text!r}: start and stop must be finite")
        if count < 1 or stop < start:
            raise UsageError(f"bad range {text!r}: need count >= 1 and start <= stop")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad number list {text!r}: {exc}") from exc
    if not values or not all(math.isfinite(v) for v in values):
        raise UsageError(f"bad number list {text!r}: need one or more finite values")
    return values


def parse_index_range(text: str) -> list[int]:
    """Parse an inclusive lo:hi range or a comma list of level indices >= 1."""
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise UsageError(f"bad index range {text!r}: stop below start")
            indices = list(range(lo, hi + 1))
        else:
            indices = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad index range {text!r}: {exc}") from exc
    if not indices or min(indices) < 1:
        raise UsageError(f"bad index range {text!r}: need indices >= 1")
    return indices


def _int_at_least(low: int):
    """Argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"need an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _emit(path: str | None, header: list[str], rows) -> None:
    stream, owned = _open_output(path)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    finally:
        if owned:
            stream.close()


def cmd_static(args) -> None:
    states = [parse_state(s) for s in args.state]
    widths = parse_grid(args.a)
    rows = []
    for text, state in zip(args.state, states):
        for a in widths:
            cfg = WellConfig(width=a, truncation=args.truncation)
            qfi = qfi_static(state, cfg)
            rows.append(
                [
                    text,
                    _fmt(a),
                    _fmt(qfi),
                    _fmt(fi_position(state, cfg)),
                    _fmt(fi_energy(state, cfg)),
                    _fmt(a * a * qfi),
                ]
            )
    _emit(args.output, ["state", "a", "qfi", "fi_position", "fi_energy", "qsnr"], rows)


def _poly_order_for_energy(energy: float) -> float | None:
    """Continuous bump order whose mean energy matches, if one exists >= 1.

    Inverts (1+6p+8p^2)/(4p-1) = E (unit width); returns None below the
    p=1 mean energy of 5.
    """
    disc = (4.0 * energy - 6.0) ** 2 - 32.0 * (1.0 + energy)
    if disc < 0.0:
        return None
    p = ((4.0 * energy - 6.0) + math.sqrt(disc)) / 16.0
    if p < 1.0:
        return None
    return p


def cmd_energy(args) -> None:
    rows = []
    for n in range(1, args.nmax + 1):
        energy = 0.5 * (n * math.pi) ** 2
        p = _poly_order_for_energy(energy)
        poly_field = "" if p is None else _fmt(qsnr_polynomial(p))
        rows.append([_fmt(energy), _fmt(qsnr_eigen(n)), poly_field])
    _emit(args.output, ["energy", "qsnr_eigen", "qsnr_poly"], rows)


def cmd_time(args) -> None:
    widths = parse_grid(args.a)
    times = parse_grid(args.t)
    if min(times) < 0.0:
        raise UsageError(f"bad time grid {args.t!r}: times must be >= 0")
    rows = []
    for a in widths:
        cfg = WellConfig(width=a, truncation=args.truncation)
        fine_cfg = replace(cfg, truncation=2 * args.truncation)
        qfi = qfi_parabolic_time(cfg, times)
        residual = _relative_change(qfi, qfi_parabolic_time(fine_cfg, times))
        for t, q, r in zip(times, qfi, residual):
            rows.append([_fmt(a), _fmt(t), _fmt(a * a * q), _fmt(r)])
    _emit(args.output, ["a", "t", "qsnr", "residual"], rows)


def cmd_entangled(args) -> None:
    indices = parse_index_range(args.range)
    joint, single = _pair_formulas(args.family)
    rows = []
    for i in indices:
        for j in indices:
            q_sum = single(i) + single(j)
            if i == j:
                rows.append([args.family, str(i), str(j), "", _fmt(q_sum), ""])
            else:
                q = joint(i, j)
                rows.append(
                    [args.family, str(i), str(j), _fmt(q), _fmt(q_sum), _fmt(q / q_sum)]
                )
    _emit(args.output, ["kind", "i", "j", "q_joint", "q_sum", "gamma"], rows)


def cmd_montecarlo(args) -> None:
    state = parse_state(args.state)
    widths = parse_grid(args.a)
    sizes = parse_grid(args.M)
    if not all(m.is_integer() and m >= 1 for m in sizes):
        raise UsageError(f"bad sample sizes {args.M!r}: need whole numbers >= 1")
    sizes = [int(m) for m in sizes]
    rows = []
    for a in widths:
        cfg = WellConfig(width=a, truncation=args.truncation)
        for m in sizes:
            result = crlb_experiment(state, cfg, m, args.replicas, args.seed)
            rows.append(
                [
                    args.state,
                    _fmt(a),
                    str(m),
                    str(args.replicas),
                    _fmt(result.variance),
                    _fmt(result.crlb_ratio),
                ]
            )
    _emit(
        args.output,
        ["state", "a", "M", "replicas", "variance", "crlb_ratio"],
        rows,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellprobe",
        description=(
            "Width-estimation tables for a particle in a box "
            "(natural units, widths in your length unit, ratios dimensionless)."
        ),
    )
    parser.add_argument(
        "--truncation",
        type=_int_at_least(1),
        default=50,
        help="eigenbasis size for truncated expansions (default 50)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_static = sub.add_parser("static", help="QFI / FI / QSNR of static probes")
    p_static.add_argument(
        "--state",
        action="append",
        required=True,
        help="state descriptor (eigen:<n>, super:<n>:<m>:<alpha>, poly:<p>, parabolic, custom:@<file>); repeatable",
    )
    p_static.add_argument("--a", default="1", help="width or comma list or start:stop:count")
    p_static.add_argument("--output", default=None, help="output CSV path (default stdout)")
    p_static.set_defaults(func=cmd_static)

    p_energy = sub.add_parser("energy", help="eigen vs bump-family QSNR on a shared energy axis")
    p_energy.add_argument("--nmax", type=_int_at_least(1), default=30, help="highest level (default 30)")
    p_energy.add_argument("--output", default=None)
    p_energy.set_defaults(func=cmd_energy)

    p_time = sub.add_parser("time", help="evolved parabolic probe QSNR over a (width, time) grid")
    p_time.add_argument("--a", default="1", help="width grid")
    p_time.add_argument("--t", default="0:2:101", help="time grid (start:stop:count)")
    p_time.add_argument("--output", default=None)
    p_time.set_defaults(func=cmd_time)

    p_ent = sub.add_parser("entangled", help="two-particle gain grid")
    p_ent.add_argument("--family", choices=["eigen", "poly"], required=True)
    p_ent.add_argument("--range", default="2:15", help="index range lo:hi (inclusive)")
    p_ent.add_argument("--output", default=None)
    p_ent.set_defaults(func=cmd_entangled)

    p_mc = sub.add_parser("montecarlo", help="estimation-bound Monte Carlo experiment")
    p_mc.add_argument("--state", default="poly:3", help="state descriptor")
    p_mc.add_argument("--a", default="1", help="true width(s)")
    p_mc.add_argument("--M", default="2000", help="samples per replica (comma list allowed)")
    p_mc.add_argument("--replicas", type=_int_at_least(2), default=200)
    p_mc.add_argument("--seed", type=_int_at_least(0), default=0)
    p_mc.add_argument("--output", default=None)
    p_mc.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"wellprobe: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"wellprobe: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
