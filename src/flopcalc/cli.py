"""Command-line front end.

Subcommands: bott, cohomology, functor, flop, koszul, ext, verify.  Every
subcommand supports --json; text output renders the same data.  JSON output
is schema-stable: keys sorted, no timestamps, all numbers exact decimal
integers.  Exit codes: 0 success / all checks pass, 1 any FAIL, 2 malformed
input (with a one-line diagnostic naming the offending token), 3 any
UNDERDETERMINED without a FAIL.

Defaults may come from a config file of key=value lines (keys: max_n,
format) named by --config or the FLOPCALC_CONFIG environment variable;
explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

from . import flop, homalg, verify
from .bwb import bott_cohomology, parse_weight, shorten
from .pbundle import ModelVariety, Side, XLineBundle, cohomology_X


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    max_n: int = 4
    output_format: str = "text"
    out_path: str | None = None
    trace: bool = False

    def __post_init__(self):
        if self.max_n < 2:
            raise UsageError(f"max_n must be >= 2, got {self.max_n}")
        if self.output_format not in ("text", "json", "markdown"):
            raise UsageError(f"unknown output format {self.output_format!r}")


def load_config_file(path):
    """Parse key=value lines; unknown keys or bad values are usage errors."""
    overrides = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise UsageError(f"config line {line!r} is not key=value")
        if key == "max_n":
            try:
                overrides["max_n"] = int(value)
            except ValueError:
                raise UsageError(f"config max_n value {value!r} is not an integer") from None
        elif key == "format":
            overrides["output_format"] = value
        else:
            raise UsageError(f"unknown config key {key!r}")
    return overrides


def build_config(args):
    path = getattr(args, "config", None) or os.environ.get("FLOPCALC_CONFIG")
    overrides = load_config_file(path) if path else {}
    if getattr(args, "max_n", None) is not None:
        overrides["max_n"] = args.max_n
    if getattr(args, "json", False) and getattr(args, "markdown", False):
        raise UsageError("--json and --markdown cannot be combined; pick one")
    if getattr(args, "json", False):
        overrides["output_format"] = "json"
    if getattr(args, "markdown", False):
        overrides["output_format"] = "markdown"
    if getattr(args, "out", None):
        overrides["out_path"] = args.out
    if getattr(args, "trace", False):
        overrides["trace"] = True
    return RunConfig(**overrides)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_arg(text):
    """argparse type for integer flags; an over-long literal is not echoed in full."""
    try:
        return int(text)
    except ValueError:
        shown = shorten(text, repr)
        raise argparse.ArgumentTypeError(f"invalid int value: {shown}") from None


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process; parse_args keeps no state."""
    parser = _Parser(prog="flopcalc", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="config file of key=value lines")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        # default=SUPPRESS keeps a pre-subcommand --config from being clobbered
        p.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    p = sub.add_parser("bott", help="cohomology table of a weight on P^n")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--weight", required=True, help='literal "l1,...,ln|t"')
    common(p)

    p = sub.add_parser("cohomology", help="cohomology of O(j) (x) pi*O(k)")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--side", choices=["x", "xplus"], default="x")
    p.add_argument("--j", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    common(p)

    p = sub.add_parser("functor", help="apply phi, phiprime or psi to a class")
    p.add_argument("name", choices=["phi", "phiprime", "psi"])
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--j", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    common(p)

    p = sub.add_parser("flop", help="lattice data of the flop")
    p.add_argument("what", choices=["picard"])
    p.add_argument("--n", type=_int_arg, required=True)
    common(p)

    p = sub.add_parser("koszul", help="Koszul resolution of the ideal sheaf")
    p.add_argument("--n", type=_int_arg, required=True)
    common(p)

    p = sub.add_parser("ext", help="Ext computations")
    p.add_argument("what", choices=["oy-oy", "ideal-self"])
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--trace", action="store_true", help="emit chase traces")
    common(p)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("check", help="a check id or 'all'")
    p.add_argument("--n", type=_int_arg, default=None)
    p.add_argument("--max-n", dest="max_n", type=_int_arg, default=None)
    p.add_argument("--markdown", action="store_true")
    p.add_argument("--out", help="write the report to this path")
    common(p)

    return parser


def emit_json(payload, out):
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")), file=out)


def table_payload(n, table, **extra):
    return {"n": n, "dims": {str(i): d for i, d in table.dims().items()}, **extra}


def print_table(table, out):
    if table.is_zero():
        print("zero in every degree", file=out)
        return
    for i, d in table.dims().items():
        print(f"h^{i} = {d}", file=out)


def emit_table(n, config, out, table, header, flags, **extra):
    """Render a cohomology table. A dimension with more digits than Python
    converts to text (``sys.get_int_max_str_digits``) is blamed on ``flags``."""
    try:
        if config.output_format == "json":
            emit_json(table_payload(n, table, **extra), out)
        else:
            print(header, file=out)
            print_table(table, out)
    except ValueError:
        raise UsageError(
            f"{flags} too large: a dimension of the result has too many digits to print"
        ) from None


def _cmd_bott(args, config, out):
    weight = parse_weight(args.weight)
    if weight.n != args.n:
        raise UsageError(
            f"--weight {shorten(args.weight, repr)} has length {weight.n}, "
            f"expected n={shorten(str(args.n))}"
        )
    table = bott_cohomology(weight)
    header = f"cohomology of {weight.literal()} on P^{args.n}:"
    emit_table(args.n, config, out, table, header, "--weight")
    return 0


def _cmd_cohomology(args, config, out):
    side = Side.X if args.side == "x" else Side.X_PLUS
    lb = XLineBundle(ModelVariety(args.n, side), args.j, args.k)
    table = cohomology_X(lb)
    header = f"cohomology of O({args.j}) (x) pi*O({args.k}) on side {args.side}:"
    emit_table(args.n, config, out, table, header, "--j/--k", j=args.j, k=args.k)
    return 0


def _cmd_functor(args, config, out):
    n = args.n
    if args.name == "phiprime":
        source = XLineBundle(ModelVariety(n, Side.X_PLUS), args.j, args.k)
        image = flop.apply_phi_prime(source)
        payload = {"tag": "line", "j": image.j, "k": image.k}
        text = f"phiprime({args.j},{args.k}) = O({image.j}) (x) pi*O({image.k}) on x"
    else:
        source = XLineBundle(ModelVariety(n, Side.X), args.j, args.k)
        if args.name == "phi":
            image = flop.apply_phi(source)
            payload = {
                "tag": image.kind.value,
                "j": image.bundle.j,
                "k": image.bundle.k,
            }
            suffix = " (x) I_Y+" if image.kind is flop.ImageKind.IDEAL_TWIST else ""
            text = (
                f"phi({args.j},{args.k}) = O({image.bundle.j}) (x) "
                f"pi*O({image.bundle.k}){suffix} on xplus"
            )
        else:
            image = flop.apply_psi(source)
            payload = {"tag": "line", "j": image.j, "k": image.k}
            text = f"psi({args.j},{args.k}) = O({image.j}) (x) pi*O({image.k}) on xplus"
    if config.output_format == "json":
        emit_json(payload, out)
    else:
        print(text, file=out)
    return 0


def _cmd_flop(args, config, out):
    pic = flop.phi_pullback(args.n)
    if config.output_format == "json":
        emit_json(
            {
                "n": args.n,
                "matrix": [list(r) for r in pic.rows],
                "involution": pic.is_involution(),
            },
            out,
        )
    else:
        print(f"picard transport for n={args.n} in the (j, k) basis:", file=out)
        for row in pic.rows:
            print(f"  {list(row)}", file=out)
        print(f"involution: {pic.is_involution()}", file=out)
    return 0


def _cmd_koszul(args, config, out):
    res = homalg.koszul_resolution(args.n)
    if config.output_format == "json":
        emit_json(
            {
                "n": args.n,
                "terms": [
                    {
                        "p": t.p,
                        "j": t.line_class.j,
                        "theta_wedge": t.theta_wedge.literal(),
                        "rank": t.rank,
                    }
                    for t in res.terms
                ],
                "alternating_rank_sum": res.alternating_rank_sum(),
            },
            out,
        )
    else:
        print(f"resolution of the ideal sheaf for n={args.n}:", file=out)
        for t in res.terms:
            print(
                f"  p={t.p}: O({t.line_class.j}) (x) pi*Wedge^{t.p}(Theta) "
                f"[weight {t.theta_wedge.literal()}, rank {t.rank}]",
                file=out,
            )
        print(f"alternating rank sum = {res.alternating_rank_sum()}", file=out)
    return 0


def _cmd_ext(args, config, out):
    if args.what == "oy-oy":
        if config.trace:
            raise UsageError("--trace only applies to 'ext ideal-self'")
        table = homalg.ext_table_OY(args.n)
        if config.output_format == "json":
            emit_json(table_payload(args.n, table), out)
        else:
            print(f"Ext^i(O_Y, O_Y) on the 2n-fold, n={args.n}:", file=out)
            for i, d in table.dims().items():
                print(f"Ext^{i} = {d}", file=out)
        return 0
    if args.n != 2:
        raise UsageError("ext ideal-self is only computed at --n 2")
    value = homalg.ext2_ideal_self(2)
    if config.trace:
        for name, steps in homalg.ext2_ideal_self_trace(2):
            for label, rule, solved in steps:
                print(f"[{name}] {label}: {rule} -> {solved}", file=out)
    if config.output_format == "json":
        emit_json({"n": 2, "ext2_ideal_self": value}, out)
    else:
        print(f"Ext^2(I, I) = {value}", file=out)
    return 0


def _render_verify_text(results):
    lines = [f"{r.check_id} n={r.n}: {r.status.value}" for r in results]
    counts = {s.value: sum(1 for r in results if r.status is s) for s in verify.Status}
    lines.append(
        f"total: {len(results)} checks, {counts['PASS']} pass, "
        f"{counts['FAIL']} fail, {counts['UNDERDETERMINED']} underdetermined"
    )
    return "\n".join(lines) + "\n"


def _render_verify_markdown(results):
    lines = ["# Verification report", ""]
    for r in results:
        lines.append(f"## {r.check_id} (n={r.n}): {r.status.value}")
        lines.append("")
        lines.append("| key | value |")
        lines.append("| --- | --- |")
        for key in sorted(r.evidence):
            lines.append(f"| {key} | {r.evidence[key]!r} |")
        lines.append("")
    return "\n".join(lines)


def _render_verify_json(results):
    payload = [
        {
            "check_id": r.check_id,
            "n": r.n,
            "status": r.status.value,
            "evidence": {k: _jsonable(v) for k, v in sorted(r.evidence.items())},
        }
        for r in results
    ]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _cmd_verify(args, config, out):
    if args.check == "all":
        if args.n is not None:
            raise UsageError("--n does not apply to 'verify all'; use --max-n")
        results = verify.run_all(config.max_n)
    elif args.check in verify.ALL_CHECK_IDS:
        if args.max_n is not None:
            raise UsageError(f"--max-n only applies to 'verify all', not to {args.check}")
        n = args.n if args.n is not None else 2
        if args.check in verify.PINNED_CHECKS and n != 2:
            raise UsageError(f"{args.check} is pinned to n = 2, got --n {shorten(str(n))}")
        results = [verify.run_check(args.check, n)]
    else:
        raise UsageError(
            f"unknown check {shorten(args.check, repr)}; "
            f"known: all, {', '.join(verify.ALL_CHECK_IDS)}"
        )
    if config.output_format == "json":
        report = _render_verify_json(results)
    elif config.output_format == "markdown":
        report = _render_verify_markdown(results)
    else:
        report = _render_verify_text(results)
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        out.write(report)
    return verify.exit_code(results)


_COMMANDS = {
    "bott": _cmd_bott,
    "cohomology": _cmd_cohomology,
    "functor": _cmd_functor,
    "flop": _cmd_flop,
    "koszul": _cmd_koszul,
    "ext": _cmd_ext,
    "verify": _cmd_verify,
}


def main(argv=None):
    # the whole report is rendered before any of it is written, so a
    # command that fails leaves stdout empty
    out = io.StringIO()
    try:
        args = build_parser().parse_args(argv)
        config = build_config(args)
        code = _COMMANDS[args.command](args, config, out)
    except UsageError as exc:
        print(f"flopcalc: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, flop.FunctorRangeError) as exc:
        print(f"flopcalc: error: {exc}", file=sys.stderr)
        return 2
    except homalg.ChaseUnderdeterminedError as exc:
        print(f"flopcalc: underdetermined: {exc}", file=sys.stderr)
        return 3
    except homalg.ChaseInconsistencyError as exc:
        print(f"flopcalc: inconsistent: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
