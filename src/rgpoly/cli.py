"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 bad input: a parse or
validation error, an unreadable or non-UTF-8 input file, a bad cap, a bad
substitution target, or a negative verify count or size; 141 (128 +
SIGPIPE) when the reader closes standard output early, as ``head`` does.
The cap (24 edges for br/rtutte, 20 classical crossings for bracket/jones)
may be overridden with the RGPOLY_CAP environment variable or the --cap
flag; either must be a nonnegative integer.  rtutte, bracket and jones
add up their 2^m states through ``util.tally``.  Where its rule picks the
frontier pass, as on a Tait graph or a large bracket, the cap is a size
cap only, the cost set by the frontier width, not 2^m; --cap=30 on a
30-crossing link runs in about a second.  Otherwise, and for br always,
one depth-first sweep enumerates them, whose memory stays O(m^2) plus
bounded tables beyond the output, so the cap bounds time.  Each command checks its cap before
compiling.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import sys

from . import formats, poly, verify
from .convert import link_to_tait, plane_to_ribbon, ribbon_to_plane
from .errors import RgpolyError
from .links import DEFAULT_CROSSING_CAP, jones, kauffman_bracket
from .planemap import dual, relative_tutte
from .ribbon import DEFAULT_EDGE_CAP, bollobas_riordan

# command -> (help, file reader, state sum, default enumeration cap)
_POLYNOMIALS = {
    "br": ("Bollobas-Riordan polynomial of a .rg file",
           formats.parse_ribbon, bollobas_riordan, DEFAULT_EDGE_CAP),
    "rtutte": ("relative Tutte polynomial of a .rpg file",
               formats.parse_rpg, relative_tutte, DEFAULT_EDGE_CAP),
    "bracket": ("Kauffman bracket of a .vld file",
                formats.parse_vld, kauffman_bracket, DEFAULT_CROSSING_CAP),
    "jones": ("Jones polynomial of a .vld file",
              formats.parse_vld, jones, DEFAULT_CROSSING_CAP),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgpoly",
        description="Bollobas-Riordan and relative Tutte polynomial toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_, *_) in _POLYNOMIALS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--substitute", action="append", default=[],
                       metavar="VAR=EXPR[,VAR=EXPR…]",
                       help="substitutions applied before printing; "
                            "VAR may be a glob like x_*")
        p.add_argument("--cap", type=int, default=None,
                       help="enumeration cap override")
        p.add_argument("file")

    conv = sub.add_parser("convert", help="convert between representations")
    conv.add_argument("--to", required=True,
                      choices=("plane", "ribbon", "tait"))
    conv.add_argument("file")

    dualp = sub.add_parser("dual", help="planar dual of a .rpg file")
    dualp.add_argument("file")

    ver = sub.add_parser("verify", help="run the theorem suite")
    for name in verify.CHECKS:
        ver.add_argument(f"--{name}", action="store_true")
    ver.add_argument("--random", type=int, default=20, metavar="N")
    ver.add_argument("--seed", type=int, default=0, metavar="S")
    ver.add_argument("--max-size", type=int, default=5, metavar="K")

    sub.add_parser("selftest", help="run a fixed small verification suite")
    return parser


def _cap(args, default: int) -> int:
    cap = args.cap
    if cap is None:
        text = os.environ.get("RGPOLY_CAP")
        if text is None:
            return default
        try:
            cap = int(text)
        except ValueError:
            raise RgpolyError(f"RGPOLY_CAP is not an integer: {text!r}") from None
    if cap < 0:
        raise RgpolyError(f"the enumeration cap must be nonnegative, got {cap}")
    return cap


def _apply_substitutions(p: poly.Polynomial, specs: list) -> poly.Polynomial:
    mapping = {}
    for spec in specs:
        for item in spec.split(","):
            if "=" not in item:
                raise RgpolyError(f"bad substitution {item!r}, expected VAR=EXPR")
            pattern, expr = item.split("=", 1)
            value = poly.parse(expr)
            matched = [name for name in sorted(p.variables())
                       if fnmatch.fnmatchcase(name, pattern)]
            if not matched and "*" not in pattern and "?" not in pattern:
                matched = [pattern]
            for name in matched:
                mapping[name] = value
    try:
        return p.subs(mapping) if mapping else p
    except ValueError as exc:   # register() rejects a VAR that is no name
        raise RgpolyError(f"bad substitution: {exc}") from None


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:      # missing, a directory, unreadable
        raise RgpolyError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise RgpolyError(f"{path} is not UTF-8 text: {exc}") from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except RgpolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send the rest of the output to devnull, so
        # that flushing stdout at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _dispatch(args) -> int:
    cmd = args.command
    if cmd in _POLYNOMIALS:
        _, read, polynomial, default_cap = _POLYNOMIALS[cmd]
        p = polynomial(read(_read(args.file)), cap=_cap(args, default_cap))
        print(_apply_substitutions(p, args.substitute).canonical())
        return 0
    if cmd == "convert":
        return _convert(args)
    if cmd == "dual":
        G = formats.parse_rpg(_read(args.file))
        print(formats.serialize_rpg(dual(G)), end="")
        return 0
    if cmd == "verify":
        return _verify(args)
    failures = _report(list(verify.CHECKS), count=5, seed=2024, max_size=4)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


def _convert(args) -> int:
    text = _read(args.file)
    if args.to == "plane":
        R = formats.parse_ribbon(text)
        G, cert = ribbon_to_plane(R)
        for g_label, r_label in cert.label_pairs(G, R):
            print(f"# cert: {g_label} <-> {r_label}")
        print(formats.serialize_rpg(G), end="")
    elif args.to == "ribbon":
        G = formats.parse_rpg(text)
        print(formats.serialize_ribbon(plane_to_ribbon(G)), end="")
    else:
        L = formats.parse_vld(text)
        print(formats.serialize_rpg(link_to_tait(L)), end="")
    return 0


def _verify(args) -> int:
    for flag, value in (("--random", args.random), ("--max-size", args.max_size)):
        if value < 0:
            raise RgpolyError(f"{flag} must be nonnegative, got {value}")
    checks = [name for name in verify.CHECKS if getattr(args, name)]
    failures = _report(checks or list(verify.CHECKS), args.random, args.seed,
                       args.max_size)
    return 1 if failures else 0


def _report(checks: list, count: int, seed: int, max_size: int) -> int:
    """Print one line per seeded check; return the number that failed."""
    failures = 0
    for report, size in verify.run_suite(checks, count, seed, max_size):
        print(report.line(size))
        failures += not report.passed
    return failures


if __name__ == "__main__":
    sys.exit(main())
