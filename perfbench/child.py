"""One benchmark operation, run in a fresh interpreter by perfbench/run.py.

Modes:

  child.py setup [--catalog N] SPEC...
      import padicamen.cli and build (so validate) every group named,
      plus catalog(N) when given; this is what setup_s times.
  child.py cli --trace FILE -- CLI-ARGS...
      run the padicamen CLI under the outside-in tracer and write the
      trace summary to FILE; exits with the CLI's exit code.
  child.py catalog --out FILE [--trace] --primes P,... SPEC...
      build the groups, then time the in-process loop of
      render_json(certify(group, p)) over every group and prime; write
      the loop time, the documents and (traced) the trace summary.

Untraced CLI operations do not come here: run.py starts
`python -m padicamen` for them, so they measure the real entry point.
The package is found through PYTHONPATH, which run.py sets to src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _import_all():
    import padicamen.cli  # noqa: F401  (imports every module of the package)
    return padicamen


def _traced(fn):
    """Run fn() with the tracer installed; return (result, summary)."""
    from tracer import Tracer
    with Tracer() as tracer:
        result = fn()
    return result, tracer.summary()


def cmd_setup(args) -> int:
    pkg = _import_all()
    for spec in args.specs:
        pkg.from_spec(spec)
    if args.catalog:
        pkg.catalog(args.catalog)
    return 0


def cmd_cli(args) -> int:
    pkg = _import_all()
    code, summary = _traced(lambda: pkg.cli.main(args.argv))
    with open(args.trace, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


def cmd_catalog(args) -> int:
    pkg = _import_all()
    primes = [int(p) for p in args.primes.split(",")]
    groups = [pkg.from_spec(spec) for spec in args.specs]

    def loop():
        docs = []
        t0 = time.perf_counter()
        for group in groups:
            for p in primes:
                docs.append(pkg.render_json(pkg.certify(group, p)))
        return time.perf_counter() - t0, docs

    summary = None
    if args.trace:
        (loop_s, docs), summary = _traced(loop)
    else:
        loop_s, docs = loop()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"loop_s": loop_s, "docs": docs, "trace": summary}, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("setup")
    sp.add_argument("--catalog", type=int, default=0)
    sp.add_argument("specs", nargs="*")
    sp.set_defaults(func=cmd_setup)
    sp = sub.add_parser("cli")
    sp.add_argument("--trace", required=True)
    sp.add_argument("argv", nargs=argparse.REMAINDER)
    sp.set_defaults(func=cmd_cli)
    sp = sub.add_parser("catalog")
    sp.add_argument("--out", required=True)
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--primes", required=True)
    sp.add_argument("specs", nargs="+")
    sp.set_defaults(func=cmd_catalog)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
