"""Command-line front end.

  isekit check P.lp Q.lp --semantics lpmln     equivalence verdict + witness
  isekit discover K M N [--mode ...]           run the condition search
  isekit simplify report.json                  compress a search report
  isekit transform prog.lp --op s-rp ...       apply one set transformation
  isekit regress [--shapes K-M-N,...]          compare runs to the known counts
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .program import Universe, parse_program, render_program
from .semantics import Semantics, equivalent, CapExceededError
from .discovery import KNOWN_COUNTS, CheckpointError, RunConfig, SearchReport, discover
from .simplify import simplify
from .transforms import TransformKind, apply_transform
from .program import concat_tuple


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_check(args) -> int:
    uni = Universe()
    try:
        with open(args.program_p) as f:
            p = parse_program(f.read(), uni)
        with open(args.program_q) as f:
            q = parse_program(f.read(), uni)
        verdict, witness = equivalent(p, q, Semantics(args.semantics))
    except (OSError, ValueError, CapExceededError) as e:   # ValueError: ParseError, bad UTF-8
        return _error(e)
    if verdict:
        print("equivalent")
        return 0
    print("inequivalent")
    print(f"witness: {witness.format(uni)}")
    return 1


def _write_replacing(path: str, text: str):
    """Write to a temp file in the same directory, then rename it into place,
    so that path holds either its old content or all of the new."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cmd_discover(args) -> int:
    shape = (args.k, args.m, args.n)
    if sum(shape) > 10:
        return _error("shapes beyond 10 rules are unsupported")
    t0 = time.monotonic()
    try:
        config = RunConfig(
            max_layer=args.max_layer,
            mode=args.mode,
            checkpoint_path=args.checkpoint,
        )
        report = discover(shape, config)
    except (OSError, ValueError, CapExceededError, CheckpointError) as e:
        return _error(e)
    elapsed = time.monotonic() - t0
    payload = report.dumps()
    if args.out:
        try:
            _write_replacing(args.out, payload)
        except OSError as e:
            return _error(e)
    else:
        sys.stdout.write(payload)
    print(f"{report.summary_line()} ({elapsed:.1f}s)", file=sys.stderr)
    return 0


def cmd_simplify(args) -> int:
    try:
        with open(args.report) as f:
            report = SearchReport.from_json(json.load(f))
        result = simplify(report.mgic)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        return _error(f"bad report: {e}")
    sys.stdout.write(json.dumps(result.to_json(), sort_keys=True,
                                separators=(",", ":")) + "\n")
    for d in result.disjuncts:
        print(d.format(), file=sys.stderr)
    return 0


def cmd_transform(args) -> int:
    uni = Universe()
    try:
        with open(args.program) as f:
            p = parse_program(f.read(), uni)
        T = concat_tuple([p])
        T2 = apply_transform(T, TransformKind(args.op), args.iset,
                             atom=args.atom, fresh=args.fresh)
    except (OSError, ValueError) as e:
        return _error(e)
    sys.stdout.write(render_program(T2.programs[0]))
    return 0


def _known_shape(text: str) -> tuple:
    try:
        shape = tuple(int(x) for x in text.split("-"))
    except ValueError:
        shape = ()
    if len(shape) != 3:
        raise ValueError(f"--shapes: {text!r} is not of the form k-m-n")
    if shape not in KNOWN_COUNTS:
        raise ValueError(f"--shapes: no known counts for {text}")
    return shape


def cmd_regress(args) -> int:
    try:
        shapes = ([_known_shape(s) for s in args.shapes.split(",")] if args.shapes
                  else list(KNOWN_COUNTS))
    except ValueError as e:
        return _error(e)
    failures = 0
    for shape in shapes:
        expect = KNOWN_COUNTS[shape]
        t0 = time.monotonic()
        report = discover(shape, RunConfig(mode=args.mode))
        elapsed = time.monotonic() - t0
        got = {
            "is": report.stats.get("is"),
            "is_prime": report.stats.get("is_prime"),
            "is_dprime": report.stats.get("is_dprime"),
            "tr": report.tr,
            "mgic": len(report.mgic),
            "mnse": len(report.mnse),
            "max_nse": report.max_nse,
        }
        diffs = [f"{k}: got {got[k]} expected {v}"
                 for k, v in expect.items() if got[k] != v]
        tag = "PASS" if not diffs else "FAIL"
        line = f"{tag} {shape[0]}-{shape[1]}-{shape[2]} ({elapsed:.1f}s)"
        if diffs:
            failures += 1
            line += "  " + "; ".join(diffs)
        print(line)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="isekit",
                                 description="equivalence checking and SE-condition discovery")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="compare two programs")
    c.add_argument("program_p")
    c.add_argument("program_q")
    c.add_argument("--semantics", choices=["asp", "lpmln"], default="lpmln")
    c.set_defaults(fn=cmd_check)

    d = sub.add_parser("discover", help="search SE-conditions of a k-m-n problem")
    d.add_argument("k", type=int)
    d.add_argument("m", type=int)
    d.add_argument("n", type=int)
    d.add_argument("--mode", choices=["sound", "conjectural"], default="sound")
    d.add_argument("--max-layer", type=int, default=None)
    d.add_argument("--out", default=None)
    d.add_argument("--checkpoint", default=None)
    d.set_defaults(fn=cmd_discover)

    s = sub.add_parser("simplify", help="compress a search report")
    s.add_argument("report")
    s.set_defaults(fn=cmd_simplify)

    t = sub.add_parser("transform", help="apply one independent-set transformation")
    t.add_argument("program")
    t.add_argument("--op", required=True,
                   choices=["s-rp", "s-dl", "s-rd", "s-ad", "s-ex"])
    t.add_argument("--iset", required=True, type=int)
    t.add_argument("--atom", default=None)
    t.add_argument("--fresh", default=None)
    t.set_defaults(fn=cmd_transform)

    r = sub.add_parser("regress", help="compare discovery runs to the known counts")
    r.add_argument("--mode", choices=["sound", "conjectural"], default="sound")
    r.add_argument("--shapes", default=None, help="comma-separated k-m-n overrides")
    r.set_defaults(fn=cmd_regress)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
