"""Command-line front end.

Subcommands: bott, cohomology, functor, flop, koszul, ext, verify.  Each
returns a Report of its data, and ``render`` writes it once, as JSON
(--json), text, or for verify Markdown (--markdown), to stdout or to
verify's --out file.  JSON output is schema-stable: no timestamps, exact
decimal integers, keys sorted as strings (degree "10" before "2").
``ext ideal-self --trace`` writes its chase lines first, also before the
JSON line.  Exit codes: 0 success / all checks pass, 1 any FAIL, 2
malformed input (with a one-line diagnostic naming the offending token), 3
any UNDERDETERMINED without a FAIL.

Arguments are read from the table ``_COMMANDS``, left to right, by each
subcommand's exact flag names.  A flag is spelled in full (--weight) or as
-h.  A value flag takes its value after "=" or from the next token as
written (--j -5), unless that token is a flag of the subcommand's own; a
flag given twice is refused.  A token that does not start with "-" fills
the positional; every other token is unrecognized, and unrecognized tokens
are named together ahead of a missing flag.  Before a subcommand only -h or
--help is read.  Help, once reached, goes to stdout with unpinned bytes;
``main`` returns 0.
"""

import os
import re
import sys
from collections import Counter, namedtuple
from types import SimpleNamespace

from . import flop, homalg, verify
from .bwb import bott_cohomology, parse_weight, read_int, shorten
from .pbundle import ModelVariety, Side, XLineBundle, cohomology_X


class UsageError(Exception):
    pass


class Report(namedtuple("Report", "payload text markdown code trace blame",
                        defaults=(None, 0, (), "--n"))):
    """A subcommand's result.  ``payload`` is what --json writes; ``text``
    and ``markdown`` (verify only, else None) return its lines when called,
    so JSON output never formats them.  ``code`` is the exit code,
    ``trace`` the lines written before the report in any format, and
    ``blame`` the flags a number past the digit limit came from."""

    __slots__ = ()


def _table(n, table, blame, header, row="h^{} = {}", **extra):
    """Report of a cohomology table; ``header`` returns its first line."""

    def text():
        rows = [row.format(i, d) for i, d in table.dims().items()]
        return [header(), *(rows or ["zero in every degree"])]

    return Report({"n": n, "dims": table.dims(), **extra}, text, blame=blame)


def _cmd_bott(args):
    weight = parse_weight(args.weight)
    if weight.n != args.n:
        raise UsageError(f"--weight {shorten(args.weight, repr)} has length {weight.n}, "
                         f"expected n={shorten(str(args.n))}")
    return _table(args.n, bott_cohomology(weight), "--weight",
                  lambda: f"cohomology of {weight.literal()} on P^{args.n}:")


def _cmd_cohomology(args):
    side = Side.X if args.side == "x" else Side.X_PLUS
    table = cohomology_X(XLineBundle(ModelVariety(args.n, side), args.j, args.k))
    return _table(args.n, table, "--j/--k",
                  lambda: f"cohomology of O({args.j}) (x) pi*O({args.k}) on side {args.side}:",
                  j=args.j, k=args.k)


_FUNCTORS = {"phi": flop.apply_phi, "phiprime": flop.apply_phi_prime, "psi": flop.apply_psi}


def _cmd_functor(args):
    side = Side.X_PLUS if args.name == "phiprime" else Side.X
    image = _FUNCTORS[args.name](XLineBundle(ModelVariety(args.n, side), args.j, args.k))
    kind, line = (image.kind, image.bundle) if args.name == "phi" else (flop.ImageKind.LINE, image)
    suffix = " (x) I_Y+" if kind is flop.ImageKind.IDEAL_TWIST else ""
    return Report({"tag": kind.value, "j": line.j, "k": line.k},
                  lambda: [f"{args.name}({args.j},{args.k}) = O({line.j}) (x) pi*O({line.k})"
                           f"{suffix} on {line.variety.side.value}"], blame="--j/--k")


def _cmd_flop(args):
    pic = flop.phi_pullback(args.n)
    involution = pic.is_involution()
    return Report({"n": args.n, "matrix": pic.rows, "involution": involution},
                  lambda: [f"picard transport for n={args.n} in the (j, k) basis:",
                           *(f"  {list(row)}" for row in pic.rows), f"involution: {involution}"])


def _cmd_koszul(args):
    res = homalg.koszul_resolution(args.n)
    total = res.alternating_rank_sum()
    terms = [{"p": t.p, "j": t.line_class.j, "theta_wedge": t.theta_wedge.literal(),
              "rank": t.rank} for t in res.terms]
    return Report({"n": args.n, "terms": terms, "alternating_rank_sum": total},
                  lambda: [f"resolution of the ideal sheaf for n={args.n}:",
                           *(f"  p={t['p']}: O({t['j']}) (x) pi*Wedge^{t['p']}(Theta) "
                             f"[weight {t['theta_wedge']}, rank {t['rank']}]" for t in terms),
                           f"alternating rank sum = {total}"])


def _cmd_ext(args):
    if args.what == "oy-oy":
        if args.trace:
            raise UsageError("--trace only applies to 'ext ideal-self'")
        return _table(args.n, homalg.ext_table_OY(args.n), "--n",
                      lambda: f"Ext^i(O_Y, O_Y) on the 2n-fold, n={args.n}:", row="Ext^{} = {}")
    if args.n != 2:
        raise UsageError("ext ideal-self is only computed at --n 2")
    value, traces = homalg.ext2_ideal_self_with_trace(2)
    trace = tuple(f"[{name}] {label}: {rule} -> {solved}" for name, steps in traces
                  for label, rule, solved in steps) if args.trace else ()
    return Report({"n": 2, "ext2_ideal_self": value}, lambda: [f"Ext^2(I, I) = {value}"],
                  trace=trace)


def _cmd_verify(args):
    if args.json and args.markdown:
        raise UsageError("--json and --markdown cannot be combined; pick one")
    if args.check == "all":
        if args.n is not None:
            raise UsageError("--n does not apply to 'verify all'; use --max-n")
        results = verify.run_all() if args.max_n is None else verify.run_all(args.max_n)
    elif args.check in verify.ALL_CHECK_IDS:
        if args.max_n is not None:
            raise UsageError(f"--max-n only applies to 'verify all', not to {args.check}")
        n = args.n if args.n is not None else 2
        if args.check in verify.PINNED_CHECKS and n != 2:
            raise UsageError(f"{args.check} is pinned to n = 2, got --n {shorten(str(n))}")
        results = [verify.run_check(args.check, n)]
    else:
        raise UsageError(f"unknown check {shorten(args.check, repr)}; "
                         f"known: all, {', '.join(verify.ALL_CHECK_IDS)}")

    def text():
        count = Counter(r.status.value for r in results)
        return [*(f"{r.check_id} n={r.n}: {r.status.value}" for r in results),
                f"total: {len(results)} checks, {count['PASS']} pass, {count['FAIL']} fail, "
                f"{count['UNDERDETERMINED']} underdetermined"]

    def markdown():
        lines = ["# Verification report"]
        for r in results:
            lines += ["", f"## {r.check_id} (n={r.n}): {r.status.value}", "",
                      "| key | value |", "| --- | --- |"]
            lines += [f"| {key} | {r.evidence[key]!r} |" for key in sorted(r.evidence)]
        return lines

    payload = [{"check_id": r.check_id, "n": r.n, "status": r.status.value,
                "evidence": r.evidence} for r in results]
    return Report(payload, text, markdown, verify.exit_code(results))


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r",
            "\t": "\\t"}


def _escape(match):
    char = match.group()
    if char in _ESCAPES:
        return _ESCAPES[char]
    code = ord(char) - 0x10000
    if code < 0:  # a BMP character or a lone surrogate, as itself
        return "\\u%04x" % ord(char)
    return "\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF)


def _json_str(text):
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    return '"' + re.sub(r'[\\"]|[^ -~]', _escape, text) + '"'


def to_json(value):
    """The bytes ``json.dumps(value, sort_keys=True, separators=(",", ":"))``
    writes once every dict key is made ``str(key)`` (the last value wins
    when two keys make one string): ``ensure_ascii`` escapes, ints in
    decimal.  Text is joined with ``+``, never ``format``, so a
    ``(str, Enum)`` member writes its value on every Python.  An int past
    the digit limit raises ValueError, and any other type (float too)
    TypeError."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, dict):
        items = {str(key): item for key, item in value.items()}
        return "{" + ",".join([_json_str(key) + ":" + to_json(items[key])
                               for key in sorted(items)]) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([to_json(item) for item in value]) + "]"
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cannot_write(out_path, exc):
    return UsageError(f"cannot write --out {shorten(out_path, repr)}: {exc.strerror}")


def render(report, output_format, out_path):
    """Write ``report`` once, all of it or (on a usage error) none of it: its
    trace lines, then the report as JSON, Markdown or text, to ``out_path``
    or stdout.  A number with more digits than Python converts to text
    (``sys.get_int_max_str_digits``) is blamed on the report's flags."""
    try:
        body = ([to_json(report.payload)] if output_format == "json"
                else getattr(report, output_format)())
        text = "".join(f"{line}\n" for line in (*report.trace, *body))
    except ValueError:
        message = "a number in the result has too many digits to print"
        raise UsageError(f"{report.blame} too large: {message}") from None
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _cannot_write(out_path, exc) from None


# a subcommand: its handler, its help line, its positional as (dest, choices)
# or None, and its options, each with -h, --help and --json; an option's kind
# is int (read by read_int), str, bool (set by the bare flag) or None (help)
Command = namedtuple("Command", "handler help positional flags")
Flag = namedtuple("Flag", "dest kind default required choices help",
                  defaults=(None, False, None, ""))
_HELP = Flag("help", None, help="show this help and exit")
_N, _J, _K = (Flag(dest, int, required=True, help="required") for dest in "njk")
_COMMANDS = {name: Command(handler, text, positional, {
                 "-h": _HELP, "--help": _HELP, **flags,
                 "--json": Flag("json", bool, False, help="emit JSON")})
             for name, handler, text, positional, flags in [
    ("bott", _cmd_bott, "cohomology table of a weight on P^n", None,
     {"--n": _N, "--weight": Flag("weight", str, required=True, help='required, "l1,...,ln|t"')}),
    ("cohomology", _cmd_cohomology, "cohomology of O(j) (x) pi*O(k)", None, {
        "--n": _N, "--side": Flag("side", str, "x", choices=("x", "xplus"), help="x or xplus"),
        "--j": _J, "--k": _K}),
    ("functor", _cmd_functor, "apply phi, phiprime or psi to a class",
     ("name", ("phi", "phiprime", "psi")), {"--n": _N, "--j": _J, "--k": _K}),
    ("flop", _cmd_flop, "lattice data of the flop: picard", ("what", ("picard",)), {"--n": _N}),
    ("koszul", _cmd_koszul, "Koszul resolution of the ideal sheaf", None, {"--n": _N}),
    ("ext", _cmd_ext, "Ext computations: oy-oy or ideal-self", ("what", ("oy-oy", "ideal-self")),
     {"--n": _N, "--trace": Flag("trace", bool, False, help="emit chase traces")}),
    ("verify", _cmd_verify, "run verification suites (a check id or 'all')", ("check", None), {
        "--n": Flag("n", int, help="default 2"), "--max-n": Flag("max_n", int, help="for 'all'"),
        "--markdown": Flag("markdown", bool, False, help="emit Markdown"),
        "--out": Flag("out", str, help="write the report to this path")}),
]}


def _help(name=None):
    """Help for ``flopcalc`` or for subcommand ``name``, from the table."""
    if name is None:
        usage, title = "{%s} ..." % ",".join(_COMMANDS), __doc__.splitlines()[0]
        rows = [(cmd, command.help) for cmd, command in _COMMANDS.items()]
    else:
        command = _COMMANDS[name]
        usage, title = f"{name} [options] {(command.positional or [''])[0].upper()}", command.help
        rows = [(f"{option} {flag.dest.upper() * (flag.kind in (int, str))}", flag.help)
                for option, flag in command.flags.items()]
    lines = [f"usage: flopcalc {usage}", "", title, "", *(f"  {a:<22}{b}" for a, b in rows)]
    return "".join(f"{line.rstrip()}\n" for line in lines)


def _choice(name, choices, value):
    if choices is not None and value not in choices:
        raise UsageError(f"argument {name}: invalid choice: {shorten(value, repr)} "
                         f"(choose from {', '.join(map(repr, choices))})")
    return value


def _parse_command(name, tokens):
    """The arguments of subcommand ``name``, or None once help is written."""
    flags, positional = _COMMANDS[name].flags, _COMMANDS[name].positional
    values = {flag.dest: flag.default for flag in flags.values() if flag.kind}
    given, extras, i = set(), [], 0
    while i < len(tokens):
        token, i = tokens[i], i + 1
        if not token.startswith("-"):
            if positional:
                values[positional[0]], positional = _choice(*positional, token), None
            else:
                extras.append(token)
            continue
        option, eq, value = token.partition("=")
        flag = flags.get(option)
        if flag is None:
            extras.append(token)
            continue
        if flag.dest in given:
            raise UsageError(f"argument {option}: given more than once")
        given.add(flag.dest)
        if flag.kind in (int, str) and not eq:
            # the next token is the value, unless it is a flag of this subcommand
            if i == len(tokens) or tokens[i].partition("=")[0] in flags:
                raise UsageError(f"argument {option}: expected one argument")
            value, i = tokens[i], i + 1
        elif flag.kind in (bool, None) and eq:
            named = "/".join(other for other in flags if flags[other] is flag)
            raise UsageError(f"argument {named}: ignored explicit argument {value!r}")
        if flag is _HELP:
            sys.stdout.write(_help(name))
            return None
        if flag.kind is int:  # a ValueError, which main reports as a usage error
            value = read_int(value, f"argument {option}: invalid int value: "
                             f"{shorten(value, repr)}", f"argument {option}: an integer")
        values[flag.dest] = True if flag.kind is bool else _choice(option, flag.choices, value)
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(map(shorten, extras))}")
    missing = [*(positional or ())[:1], *(option for option, flag in flags.items()
                                          if flag.required and values[flag.dest] is None)]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=name, **values)


def _parse_args(argv):
    """The parsed arguments, or None once help is written to stdout."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        raise UsageError("the following arguments are required: command")
    if argv[0] in _COMMANDS:
        return _parse_command(argv[0], argv[1:])
    if argv[0] not in ("-h", "--help"):
        if argv[0].startswith("-"):
            raise UsageError(f"unrecognized arguments: {shorten(argv[0])}")
        _choice("command", _COMMANDS, argv[0])  # not a subcommand, so it raises
    sys.stdout.write(_help())
    return None


def _claim_out(out_path):
    """Open ``out_path`` for appending, which changes no byte of it, so an
    unwritable path fails before any check runs; True if that made the file."""
    made = not os.path.lexists(out_path)
    try:
        open(out_path, "ab").close()
    except OSError as exc:
        raise _cannot_write(out_path, exc) from None
    return made


def main(argv=None):
    made = False  # a file --out made that a failed run must not leave behind
    try:
        args = _parse_args(argv)
        if args is None:
            return 0
        out_path = getattr(args, "out", None)
        made = out_path is not None and _claim_out(out_path)
        report = _COMMANDS[args.command].handler(args)
        output_format = "markdown" if getattr(args, "markdown", False) else "text"
        render(report, "json" if args.json else output_format, out_path)
        made = False
    except (UsageError, ValueError) as exc:  # FunctorRangeError is a ValueError
        print(f"flopcalc: error: {exc}", file=sys.stderr)
        return 2
    except homalg.ChaseUnderdeterminedError as exc:
        print(f"flopcalc: underdetermined: {exc}", file=sys.stderr)
        return 3
    except homalg.ChaseInconsistencyError as exc:
        print(f"flopcalc: inconsistent: {exc}", file=sys.stderr)
        return 1
    finally:
        if made:
            os.remove(out_path)
    return report.code
