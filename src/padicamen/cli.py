"""Command line front end.

Four subcommands: `check` produces the full certificate for one
(group, prime); `sweep` tabulates the two amenability verdicts across the
built-in catalog; `verify` runs the structural checks (Hopf axioms, dual
action identity, quotient isomorphism); `derivations` certifies that the
derivations into the stock bimodules are all inner, and counts them.

Output contract: stdout carries the rendering selected by --format (text
by default, the canonical JSON document with --format structured); --out
always receives the JSON document.  Exit status reflects internal-check
integrity, not mathematical verdicts: 0 on success even when a group
fails Schikhof amenability, 1 for usage or input errors and for an --out
file that cannot be written, 2 when an exact internal cross-check fails
(an implementation bug, never a data issue).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .amenability import (STOCK_BIMODULES, certify, derivation_spaces,
                          johnson_check, render_json, schikhof_check,
                          stock_bimodules)
from .errors import (GroupValidationError, InternalCheckError, OrderCapError,
                     OutputError, SpecParseError)
from .finite_group import (FiniteGroup, catalog, enumerate_subgroups,
                           parse_spec, require_within_cap)
from .hopf import eq1_check, lemma2_data, lemma2_iso_check, verify_hopf_axioms
from .valued_field import is_prime

DEFAULT_SWEEP_PRIMES = (2, 3, 5, 7)
DEFAULT_SWEEP_MAX_ORDER = 16


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage failures routed to exit code 1."""

    def error(self, message):
        raise SpecParseError("%s: %s" % (self.prog, message))


def _require_prime(p: int) -> int:
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from None
    if not prime:
        raise SpecParseError("%d is not a prime" % p)
    return p


def _parse_primes(text: str) -> List[int]:
    out: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            p = int(part)
        except ValueError:
            raise SpecParseError("bad prime list entry %r" % part) from None
        if p in out:
            raise SpecParseError("prime %d repeated in the prime list" % p)
        out.append(_require_prime(p))
    if not out:
        raise SpecParseError("empty prime list")
    return out


def _emit(args, doc: dict, text: str) -> None:
    """Write --out first, so a failed write leaves stdout empty, then the
    document or its text on stdout; the document is rendered once."""
    rendered = render_json(doc) \
        if args.out or args.format == "structured" else None
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise OutputError("cannot write %s: %s"
                              % (args.out, exc.strerror or exc)) from None
    sys.stdout.write(rendered if args.format == "structured" else text)


def _load_group(spec: str, stage: str) -> FiniteGroup:
    """The group of --group, refused by the order cap in the words of the
    command's first capped stage: a built-in spec by its declared order,
    before its n^2-entry table is built, and a table file by its declared
    order, once parsed and before its table is validated."""
    order, build = parse_spec(spec)
    require_within_cap(order, stage)
    return build()


def _label_set(labels) -> str:
    return "{%s}" % ", ".join(labels)


def cmd_check(args) -> int:
    group = _load_group(args.group, "certificate run")
    prime = _require_prime(args.prime)
    doc = certify(group, prime)

    lines = [
        "certificate: %s at p=%d" % (group.name, prime),
        "order: %d" % group.order,
        "johnson_amenable: %s" % str(doc["johnson"]["amenable"]).lower(),
        "mean_norm_exponent: %s" % doc["johnson"]["mean_norm_exponent"],
        "schikhof_amenable: %s" % str(doc["schikhof"]["amenable"]).lower(),
    ]
    norm = doc["schikhof"]["method_norm"]
    lines.append(
        "schikhof_norm_method: %s (mean norm exponent %s)"
        % ("pass" if norm["pass"] else "fail", norm["mean_norm_exponent"]))
    lattice = doc["schikhof"]["method_lattice"]
    if lattice["pass"]:
        lines.append(
            "schikhof_lattice_method: pass (%d containment pairs, no index "
            "divisible by %d)" % (lattice["pairs_checked"], prime))
    else:
        w = lattice["witness"]
        lines.append(
            "schikhof_lattice_method: fail (index %d of %s inside %s "
            "divisible by %d)"
            % (w["index"], _label_set(w["s1"]), _label_set(w["s2"]), prime))
    lines.append(
        "diagonal_norm_exponent: %s" % doc["diagonal"]["norm_exponent"])
    for name, status in doc["checks"].items():
        lines.append("check %s: %s" % (name, status))
    lines.append("checks_passed: %d/%d"
                 % (len(doc["checks"]), len(doc["checks"])))
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def cmd_sweep(args) -> int:
    if args.max_order < 1:
        raise SpecParseError("--max-order must be at least 1, got %d"
                             % args.max_order)
    primes = _parse_primes(args.primes)
    groups = catalog(args.max_order)
    rows = []
    for group in groups:
        subgroups = enumerate_subgroups(group)
        mean = johnson_check(group)
        for p in primes:
            sv = schikhof_check(group, p, subgroups, mean)
            rows.append({
                "group": group.name,
                "order": group.order,
                "prime": p,
                "johnson_amenable": True,
                "schikhof_amenable": sv.amenable,
                "mean_norm_exponent": sv.mean_norm_exponent,
                "p_divides_order": group.order % p == 0,
            })
    doc = {
        "schema": "padicamen.sweep/1",
        "max_order": args.max_order,
        "primes": primes,
        "rows": rows,
    }
    header = ["group", "order", "prime", "johnson", "schikhof",
              "mean_norm_exponent", "p_divides_order"]
    lines = ["\t".join(header)]
    for r in rows:
        lines.append("\t".join([
            r["group"], str(r["order"]), str(r["prime"]),
            str(r["johnson_amenable"]).lower(),
            str(r["schikhof_amenable"]).lower(),
            str(r["mean_norm_exponent"]),
            str(r["p_divides_order"]).lower(),
        ]))
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    group = _load_group(args.group, "Hopf structure verification")
    prime = _require_prime(args.prime)
    hopf = verify_hopf_axioms(group)
    eq1 = eq1_check(group)
    l2 = lemma2_iso_check(group, lemma2_data(group))
    all_pass = hopf.all_pass and eq1.all_pass and l2.all_pass
    doc = {
        "schema": "padicamen.verify/1",
        "group": {
            "name": group.name,
            "order": group.order,
            "labels": list(group.labels),
        },
        "prime": prime,
        # the checks hold at every prime; the document names the one asked
        "hopf": dict(hopf.to_doc(), prime=prime),
        "dual_action_identity": dict(eq1.to_doc(), prime=prime),
        "quotient_isomorphism": dict(l2.to_doc(), prime=prime),
        "all_pass": all_pass,
    }
    lines = ["verify: %s at p=%d" % (group.name, prime)]
    for name, result in hopf.axioms.items():
        lines.append("hopf %s: %s"
                     % (name, "pass" if result.passed else "FAIL"))
    lines.append("dual_action_identity: %s (%d/%d elements)"
                 % ("pass" if eq1.all_pass else "FAIL",
                    sum(1 for ok in eq1.per_c.values() if ok),
                    len(eq1.per_c)))
    lines.append(
        "quotient_isomorphism: %s (dim %d, expected %d)"
        % ("pass" if l2.all_pass else "FAIL", l2.quotient_dim,
           l2.expected_dim))
    lines.append("all: %s" % ("pass" if all_pass else "FAIL"))
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0 if all_pass else 2


def cmd_derivations(args) -> int:
    group = _load_group(args.group, "derivation certificate")
    prime = _require_prime(args.prime)
    names = STOCK_BIMODULES if args.bimodule == "all" else (args.bimodule,)
    reports = {name: derivation_spaces(bim)
               for name, bim in stock_bimodules(group, names).items()}
    doc = {
        "schema": "padicamen.derivations/1",
        "group": {
            "name": group.name,
            "order": group.order,
            "labels": list(group.labels),
        },
        "prime": prime,
        "bimodules": {name: rep.to_doc() for name, rep in reports.items()},
        "all_inner": True,
    }
    lines = ["derivations: %s at p=%d" % (group.name, prime)]
    for name, rep in reports.items():
        lines.append(
            "bimodule %s: module_dim %d, derivation_dim %d, inner_dim %d, "
            "all_inner true"
            % (name, rep.module_dim, rep.derivation_dim, rep.inner_dim))
    lines.append("all_inner: true")
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="padicamen",
        description="Exact amenability certificates for finite-group "
                    "convolution algebras over p-adic scalars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None,
                        help="write the JSON document to this file")
        sp.add_argument("--format", choices=("text", "structured"),
                        default="text",
                        help="stdout rendering (default: text)")

    sp = sub.add_parser(
        "check", help="full certificate for one (group, prime)")
    sp.add_argument("--group", required=True,
                    help="group spec, e.g. cyclic:6, dihedral:4, "
                         "symmetric:3, quaternion:8, product:cyclic:2,"
                         "cyclic:4, or a Cayley table JSON file")
    sp.add_argument("--prime", required=True, type=int)
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser(
        "sweep", help="both amenability verdicts across the catalog")
    sp.add_argument("--max-order", type=int,
                    default=DEFAULT_SWEEP_MAX_ORDER)
    sp.add_argument("--primes", default=",".join(
        str(p) for p in DEFAULT_SWEEP_PRIMES))
    common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser(
        "verify", help="structural checks: Hopf axioms, dual action "
                       "identity, quotient isomorphism")
    sp.add_argument("--group", required=True)
    sp.add_argument("--prime", required=True, type=int)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser(
        "derivations", help="derivation spaces for the stock bimodules")
    sp.add_argument("--group", required=True)
    sp.add_argument("--prime", required=True, type=int)
    sp.add_argument("--bimodule", default="all",
                    choices=("all",) + STOCK_BIMODULES)
    common(sp)
    sp.set_defaults(func=cmd_derivations)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except (SpecParseError, GroupValidationError, OrderCapError,
            OutputError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 2


def console_main() -> None:
    """main, with stdout flushed inside it: a reader that closes the pipe
    before all the output is written, as `| head -c 1` can, gives one
    error line and exit 1, like every other input or output failure."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; on /dev/null that
        # flush cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before all the output was written",
              file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
