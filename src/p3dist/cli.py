"""Command-line interface: parse input documents, run the analyses, and
emit deterministic JSON reports.

The five file commands, analyze, analyze-vf, find-subfoliation, log-build
and log-audit, are rows of one table, `_FILE_COMMANDS`: the input kind a
command reads, that kind's class, its analysis and its report document.
One runner serves them all. It checks --mod-p where the command takes it,
parses the document (`-` reads stdin), refuses a document of another kind,
runs the analysis, adds the mod-p cross-check of the saturated singular
ideal when asked, and prints the report. table1 and verify-paper-examples
read no file and keep their own functions.

Exit codes: 0 success, 1 validation error, 2 internal inconsistency. A
closed stdout keeps the command's exit code and writes nothing to stderr.
Output is plain JSON with sorted keys (no color, so NO_COLOR is honored
trivially).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import isqrt

from . import corpus, distribution, foliation, logarithmic
from .errors import InternalInconsistency, NumericContradiction, ParseError, ValidationError
from .exterior import ExtForm, VField, _of_rows, _rows_of
from .grammar import _format_row, _parse
from .groebner import PRIME, _engine_ideal, leading_monomials_mod_p
from .linalg import compute_tF
from .logarithmic import LogType
from .poly import integer_rows, row_poly

SCHEMA_VERSION = 1

# primes tried for the modular consistency check, in rotation order
_CHECK_PRIMES = (PRIME, 31991, 31981, 31973, 31963)


def _read_text(path):
    """The text of the input file, `-` for stdin; a file that cannot be
    read, or bytes that are not UTF-8, raise a ValidationError naming it.
    Stdin's bytes are decoded strictly, whatever the locale."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        name = "stdin" if path == "-" else path
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read {name}: {reason}") from None


def _rows_from_strings(entries, key):
    """Parse the polynomial entries of doc[key] into rows of packed monomial
    -> int or Fraction; an error names the entry, as in coeffs[3], and a
    syntax error keeps the line and column within it."""
    rows = []
    for i, s in enumerate(entries):
        if not isinstance(s, str):
            raise ParseError(f"{key}[{i}]: polynomial entries must be strings, "
                             f"got {json.dumps(s)}")
        try:
            rows.append(_parse(s))
        except ParseError as exc:
            raise ParseError(f"{key}[{i}]: {exc.args[0]}", exc.line, exc.col,
                             exc.expected) from None
    return rows


class _FloatLiteral(float):
    """A JSON number with a fraction or exponent part: the float json.loads
    would give, which keeps its literal text so that a weight is read exactly."""

    def __new__(cls, text):
        self = super().__new__(cls, text)
        self.text = text
        return self


def _weight(w):
    """A weight as a Fraction, read exactly from its literal. Exponent
    notation is refused: Fraction('1e5000') builds 10**5000 before any check
    runs, and any such weight is some p/q. So are `_` digit separators,
    which Fraction accepts from Python 3.11 on only."""
    s = w.text if isinstance(w, _FloatLiteral) else str(w)
    if "e" in s.lower() or "_" in s:
        raise ValueError(s)
    return Fraction(s)


def parse_input(text):
    """Parse an input document into an ExtForm, VField, or LogType. A form
    or field keeps its parsed rows scaled once to integers
    (`poly.integer_rows`), and builds no Poly until one is read."""
    try:
        doc = json.loads(text, parse_float=_FloatLiteral)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
    except (ValueError, RecursionError) as exc:
        # an integer literal past the interpreter's digit limit, or nesting
        # past the recursion limit
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("input document must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind in ("oneform", "vfield"):
        key = "components" if kind == "vfield" and "components" in doc else "coeffs"
        entries = doc.get(key)
        if not isinstance(entries, list) or len(entries) != 4:
            raise ParseError(f"'{key}' must be a list of 4 polynomial strings")
        cls = ExtForm if kind == "oneform" else VField
        return _of_rows(cls, *integer_rows(_rows_from_strings(entries, key)))
    if kind == "logtype":
        polys = doc.get("polys")
        weights = doc.get("lambdas", doc.get("weights"))
        if not isinstance(polys, list) or not isinstance(weights, list):
            raise ParseError("'logtype' needs 'polys' and 'lambdas' lists")
        try:
            weights = tuple(_weight(w) for w in weights)
        except (ValueError, ZeroDivisionError):
            raise ParseError("'lambdas' entries must be rational numbers p/q "
                             "without exponent notation or digit separators")
        return LogType(
            polys=tuple(map(row_poly, _rows_from_strings(polys, "polys"))), weights=weights
        )
    raise ParseError(f"unknown input kind {kind!r}")


# ---------------------------------------------------------------------------
# report serialization


def _rows_doc(x):
    """The texts of a 1-form's coefficients or a field's components, printed
    from its integer rows."""
    scale, rows = _rows_of(x)
    return [_format_row(row, scale) for row in rows]


def _ideal_doc(ideal):
    return sorted(ideal.basis_strings())


def _chern_doc(c):
    return {"c1": c.c1, "c2": c.c2, "c3": c.c3}


def _sing_doc(sing):
    return {
        "degC": sing.degC,
        "pa": sing.pa,
        "lenU": sing.lenU,
        "sat_ideal": _ideal_doc(sing.sat_ideal),
    }


def split_cell(split_type):
    """Render a split type (a, b) the way the summands are usually written."""
    if split_type is None:
        return "×"

    def o(n):
        return "O" if n == 0 else f"O({n})"

    a, b = split_type
    return f"{o(a)}⊕{o(b)}"


def dist_report_doc(report):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "distribution",
        "degree": report.degree,
        "integrable": report.integrable,
        "regular": report.regular,
        "chern": _chern_doc(report.chern),
        "sing": _sing_doc(report.sing),
        "tF": report.tF,
        "h0_at_tF": report.h0_at_tF,
        "minimal_section": _rows_doc(report.minimal_section),
        "stability": {
            "epsilon": report.stability.epsilon,
            "class": report.stability.klass,
            "order": report.stability.order,
            "max_order": report.stability.max_order_flag,
            "family": report.stability.family,
        },
        "split_type": list(report.split_type) if report.split_type else None,
        "notes": list(report.notes),
    }


def foliation_report_doc(report):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "foliation-by-curves",
        "degree": report.degree,
        "chern": _chern_doc(report.chern),
        "sing": _sing_doc(report.sing),
        "degree1_case": report.degree1_case,
    }


def log_audit_doc(report):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "log-audit",
        "degrees": list(report.degrees),
        "form_degree": report.form_degree,
        "integrable": report.integrable,
        "expected": {"degC": report.expected_degC, "lenU": report.expected_lenU},
        "actual": {"degC": report.actual_degC, "lenU": report.actual_lenU},
        "non_generic": report.non_generic,
        "distribution": dist_report_doc(report.dist_report),
    }


def _subfoliation_doc(omega):
    # no ideal is printed, so none is saturated
    d, _, _ = distribution._oneform_numbers(omega)
    tF, section, sdim = compute_tF(omega)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "subfoliation",
        "degree": d,
        "tF": tF,
        "h0_at_tF": sdim.h0,
        "section": _rows_doc(section),
        # linalg._certified checked that the section annihilates the form,
        # the scan's below t_F = d + 1 and the Koszul field at d + 1
        "in_distribution": True,
    }


def _oneform_doc(omega):
    """An input document of kind 'oneform', which `analyze -` reads back."""
    return {"kind": "oneform", "coeffs": _rows_doc(omega)}


def _emit(doc):
    try:
        json.dump(doc, sys.stdout, sort_keys=True, indent=2, ensure_ascii=False)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so that the
        # interpreter's final flush cannot raise, and keep the exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ---------------------------------------------------------------------------
# modular consistency check


def mod_p_check(ideal, prime):
    """Compare modular and rational leading-term ideals, rotating the prime
    when it divides a denominator of the reduced basis. Returns a small
    result document; "agrees" is null when every prime divided one, so
    that nothing was compared.

    The reduced basis is monic, so when p divides none of its denominators
    every S-pair's standard representation has p-integral quotients, and
    its image mod p is a Groebner basis with the same leading terms: a
    disagreement is an engine fault, not an unlucky prime. The basis is
    read as the engine's primitive integer rows, so no Poly is built.
    """
    basis = _engine_ideal(ideal._basis())
    rational = ideal.leading_monomials()
    primes = [prime] + [p for p in _CHECK_PRIMES if p != prime]
    for rotations, p in enumerate(primes):
        try:
            modular = leading_monomials_mod_p(basis, p)
        except ZeroDivisionError:
            continue
        if modular != rational:
            raise NumericContradiction(
                f"leading terms mod {p} disagree with the rational basis")
        return {"prime": p, "agrees": True, "rotations": rotations}
    return {"prime": primes[-1], "agrees": None, "rotations": len(primes)}


# ---------------------------------------------------------------------------
# subcommands


def _check_mod_p(p):
    """--mod-p takes 0 (off) or a prime below 2**31, found by trial division."""
    if p and not (2 <= p < 2 ** 31 and all(p % q for q in range(2, isqrt(p) + 1))):
        raise ValidationError(f"--mod-p must be 0 or a prime below 2**31, got {p}")


# command -> (input kind, its class, analysis, report document, takes --mod-p).
# Each analysis looks its function up when it runs, so a patched module
# attribute is the one called; find-subfoliation's document does its own.
_FILE_COMMANDS = {
    "analyze": ("oneform", ExtForm, lambda x: distribution.classify(x), dist_report_doc, True),
    "analyze-vf": ("vfield", VField, lambda x: foliation.analyze(x), foliation_report_doc, True),
    "find-subfoliation": ("oneform", ExtForm, lambda x: x, _subfoliation_doc, False),
    "log-build": ("logtype", LogType, lambda x: logarithmic.build_log_form(x), _oneform_doc, False),
    "log-audit": ("logtype", LogType, lambda x: logarithmic.audit_log_form(x), log_audit_doc, False),
}


def _run_file_command(args):
    """Read the input document, check its kind, analyse it and print the
    report; with --mod-p, cross-check the saturated singular ideal."""
    kind, cls, analysis, document, with_mod_p = _FILE_COMMANDS[args.command]
    mod_p = args.mod_p if with_mod_p else 0
    _check_mod_p(mod_p)
    given = parse_input(_read_text(args.file))
    if not isinstance(given, cls):
        raise ParseError(f"{args.command} expects a '{kind}' input document")
    report = analysis(given)
    doc = document(report)
    if mod_p:
        doc["mod_p_check"] = mod_p_check(report.sing.sat_ideal, mod_p)
    _emit(doc)
    return 0


def render_table1(d_max):
    """Rows of rendered split-type cells for 0 <= d <= d_max."""
    return [
        [split_cell(cell) for cell in row] for row in distribution.table1(d_max)
    ]


def _cmd_table1(args):
    rows = render_table1(args.dmax)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "kind": "table1",
        "dmax": args.dmax,
        "tF_columns": list(range(args.dmax // 2 + 1)),
        "rows": [{"d": d, "cells": cells} for d, cells in enumerate(rows)],
    })
    return 0


def verify_examples():
    """Recompute the bundled reference examples and compare every pinned
    invariant. Returns (all_ok, checks)."""
    checks = []

    def check(name, ok):
        checks.append({"name": name, "ok": bool(ok)})

    for name, chern, curve, family in (
        ("example1", (-1, 1, 3), (10, 12, 3), 1),
        ("example2", (-1, 2, 6), (9, 10, 6), 2),
    ):
        r = distribution.classify(corpus.load_oneform(name))
        check(f"{name}.degree", r.degree == 3)
        check(f"{name}.chern", r.chern == chern)
        check(f"{name}.curve", (r.sing.degC, r.sing.pa, r.sing.lenU) == curve)
        check(f"{name}.tF", r.tF == 1)
        check(f"{name}.stability",
              r.stability.klass == "unstable" and r.stability.order == 1
              and r.stability.max_order_flag and r.stability.family == family)

    rn = distribution.classify(corpus.load_oneform("nullcorrelation"))
    check("nullcorrelation.regular", rn.regular)
    check("nullcorrelation.chern", rn.chern == (2, 2, 0))
    check("nullcorrelation.tF_h0", rn.tF == 1 and rn.h0_at_tF == 5)
    check("nullcorrelation.nonintegrable", not rn.integrable)
    check("nullcorrelation.stable", rn.stability.klass == "stable")

    for name, case in (
        ("four_points", "stable-points"),
        ("line_plus_points", "semistable-line"),
        ("double_line", "split-skew-or-double"),
    ):
        rep = foliation.analyze(corpus.load_vfield(name))
        check(f"vfield.{name}", rep.degree1_case == case)

    audit = logarithmic.audit_log_form(corpus.load_logtype("quadric_pencil"))
    check("logtype.quadric_pencil",
          audit.integrable and not audit.non_generic
          and audit.actual_degC == 4 and audit.actual_lenU == 4)

    return all(c["ok"] for c in checks), checks


def _cmd_verify(args):
    ok, checks = verify_examples()
    _emit({
        "schema_version": SCHEMA_VERSION,
        "kind": "verification",
        "all_ok": ok,
        "checks": checks,
    })
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="p3dist",
        description="Exact analysis of codimension-one distributions and "
        "foliations by curves on projective 3-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, _, _, _, with_mod_p) in _FILE_COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("file", help="input JSON document, or - for stdin")
        if with_mod_p:
            p.add_argument("--mod-p", type=int, default=0, metavar="P",
                           help="cross-check Groebner leading terms mod P, "
                           "a prime below 2**31 (0: off)")
        p.set_defaults(func=_run_file_command)
    t1 = sub.add_parser("table1")
    t1.add_argument("--dmax", type=int, required=True)
    t1.set_defaults(func=_cmd_table1)
    sub.add_parser("verify-paper-examples").set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, InternalInconsistency) as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            doc["line"] = exc.line
            doc["col"] = exc.col
        json.dump(doc, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1 if isinstance(exc, ValidationError) else 2


if __name__ == "__main__":
    sys.exit(main())
