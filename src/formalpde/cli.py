"""Command-line interface: analyze, involution, hilbert, inverse, purity, examples.

Reports are plain text by default or deterministic JSON (`--report json`):
for a fixed input and seed the serialized report is byte-identical across
runs.  `--seed` draws the frames of the delta-regularity search; it reaches
only `analyze`, `involution` and `purity`, whose reports name the winning
frame.  Exit codes: 0 success, 1 analysis inconclusive within the window, 2
corpus mismatch, 3 input error (unreadable file, parse error, usage error or
invalid option value, a negative count included), 4 internal error (any
other exception); 3 and 4 print one line, and so does 1 from
`hilbert --file`, `inverse` and `purity`, which print no report then.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus as corpus_mod
from . import jetspace as js
from .completion import characteristic_matrix, codimension, complete, involutive_order
from .hilbert import compare, hilbert_function, principal_class_series
from .inverse import SPENCER_SIGN_NOTE, generating_sections, socle, top_generators
from .parser import ParseError, digest, parse
from .pdesystem import LinearSystem, stable_dimension
from .purity import is_pure, localize, localized_generators
from .spencer import cohomology, is_involutive_symbol, sealed_order

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_CORPUS_MISMATCH = 2
EXIT_PARSE_ERROR = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """A command-line usage error: main prints it on one line and exits 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # not an ArgumentError, which each enclosing parser would prefix again
        raise UsageError(f"{self.prog}: {message}")


def natural(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return int(text)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return text, parse(text)


def _involution_dict(res) -> dict:
    return {
        "involutive": res.involutive,
        "order": res.tableau.order,
        "beta": list(res.tableau.beta),
        "alpha": list(res.tableau.alpha),
        "frame": [[str(x) for x in row] for row in res.tableau.frame.matrix],
        "certificate": {
            "method": res.certificate.method,
            "frames_tried": res.certificate.frames_tried,
            "dim_next_symbol": res.certificate.dim_next_symbol,
            "multiplicative_sum": res.certificate.multiplicative_sum,
            "window": res.certificate.window,
            "window_limited": res.certificate.window_limited,
            "nonzero_cohomology": [list(t) for t in res.certificate.nonzero_cohomology],
        },
    }


def _inverse_section(final: LinearSystem, top: bool = False) -> dict:
    """Dimension, generating sections and socle dimension of the inverse
    system of a completed system, with its Nakayama generators when `top` is
    set; raises ValueError when the system is not finite type."""
    out = {
        "finite_dimension": stable_dimension(final),
        "generators": [g.body() for g in generating_sections(final)],
    }
    if top:
        out["top_generators"] = [g.body() for g in top_generators(final)]
    out["socle_dimension"] = len(socle(final))
    return out


def _purity_section(purity) -> dict:
    return {
        "codimension": purity.codimension,
        "localized_dimension": purity.localized_dimension,
        "torsion": [str(t) for t in purity.torsion],
        "pure": purity.pure,
        "alpha_crosscheck": purity.alpha_crosscheck,
    }


def build_report(text: str, sys_: LinearSystem, seed: int = 0, trunc: int | None = None) -> dict:
    """Full analysis of one system as a JSON-ready dictionary."""
    notes = [SPENCER_SIGN_NOTE, "characteristic minors are emitted un-radicalized"]
    report: dict = {"input": {"digest": digest(text), "n": sys_.n, "m": sys_.m, "order": sys_.order}}
    completion = complete(sys_)
    report["completion"] = {
        "verdict": completion.verdict,
        "steps": completion.steps,
        "gained": [
            [js.jet_name(e.leading_jet(), sys_.m) for e in step.gained] for step in completion.trace
        ],
        "acyclic_order": completion.acyclic_order,
        "projection_surjective": [list(f) for f in completion.projection_flags],
        "window_limited": completion.window_limited,
    }
    if not completion.integrable:
        report["notes"] = notes + ["completion inconclusive within the window"]
        return report
    final = completion.final_system
    q = max(final.order, 1)
    if trunc is None:
        trunc = 2 * q + final.n + 1
    inv = is_involutive_symbol(final, seed=seed)
    report["involution"] = _involution_dict(inv)
    # every spot at or above the seal is zero, so it is read off without a rank
    seal, acyclicity = sealed_order(final), {}
    for s in range(1, final.n + 1):
        acyclicity[str(s)] = {
            str(o): 0 if seal is not None and o >= seal else cohomology(final, s, o).dim_cohomology
            for o in range(q, q + final.n + 1)
        }
    report["acyclicity"] = acyclicity
    try:
        if not inv.involutive:
            order, res = involutive_order(final, seed=seed)
            report["involution"]["involutive_prolongation_order"] = order
        report["codimension"] = codimension(final, seed=seed)
    except ValueError as exc:
        report["codimension"] = None
        report["inconclusive"] = True
        report["notes"] = notes + [str(exc)]
        return report
    counted = hilbert_function(final, trunc)
    report["hilbert"] = {"function": list(counted.coefficients), "truncation": trunc}
    degrees = sorted((e.order for e in sys_.equations), reverse=True)
    # the series needs one generator of degree >= 1 per unit of codimension
    if sys_.m == 1 and len(degrees) == report["codimension"] and degrees and degrees[-1] >= 1:
        series = principal_class_series(degrees, sys_.n, trunc)
        cmp_result = compare(counted, series)
        report["hilbert"]["principal_class_series"] = list(series.coefficients)
        report["hilbert"]["generator_degrees"] = degrees
        report["hilbert"]["series_matches"] = cmp_result.agrees
        report["hilbert"]["first_mismatch"] = cmp_result.first_mismatch
        if not cmp_result.agrees:
            notes.append("counted Hilbert function differs from the generator-degree series")
    report["characteristic_ideal"] = [str(p) for p in characteristic_matrix(final).minors]
    try:
        report["inverse"] = _inverse_section(final)
    except ValueError:
        report["inverse"] = {"finite_dimension": None}
        notes.append("inverse system is infinite dimensional; apply relative localization")
    try:
        purity = is_pure(sys_, seed=seed)
        report["purity"] = _purity_section(purity)
        notes.extend(purity.notes)
    except ValueError as exc:
        report["purity"] = {"codimension": report["codimension"], "pure": None}
        report["inconclusive"] = True
        notes.append(f"purity undecided: {exc}")
    r = report["purity"]["codimension"]
    if r is not None and r != final.n and report["inverse"].get("finite_dimension") is None:
        try:
            loc = localize(final, r)
            report["inverse"]["localized_generators"] = [g.body() for g in localized_generators(loc)]
        except ValueError:
            pass
    report["notes"] = notes
    return report


def _emit(report: dict, mode: str) -> None:
    if mode == "json":
        print(json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False))
        return
    _emit_text(report)


def _emit_text(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in report:
        value = report[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        else:
            print(f"{pad}{key}: {value}")


def cmd_analyze(args) -> int:
    text, doc = _load(args.file)
    report = build_report(text, doc.system, seed=args.seed, trunc=args.trunc)
    _emit(report, args.report)
    if report["completion"]["verdict"] == "window_inconclusive" or report.get("inconclusive"):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_involution(args) -> int:
    text, doc = _load(args.file)
    res = is_involutive_symbol(doc.system, order=args.order, seed=args.seed)
    _emit({"involution": _involution_dict(res)}, args.report)
    if res.certificate.window_limited:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_hilbert(args) -> int:
    if args.file is None and (args.vars is None or args.degrees is None):
        print("hilbert needs --file or both --vars and --degrees", file=sys.stderr)
        return EXIT_PARSE_ERROR
    doc = _load(args.file)[1] if args.file is not None else None
    series = None
    if args.degrees is not None:
        n = doc.system.n if doc is not None else args.vars
        try:
            series = principal_class_series([int(d) for d in args.degrees.split(",")], n, args.trunc)
        except ValueError as exc:
            print(f"invalid --degrees {args.degrees!r}: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
    if doc is not None:
        completion = complete(doc.system)
        if not completion.integrable:
            return _inconclusive("completion inconclusive; Hilbert function undecided")
        counted = hilbert_function(completion.final_system, args.trunc)
        out = {"function": list(counted.coefficients)}
        if series is not None:
            out["series"] = list(series.coefficients)
            out["matches"] = compare(counted, series).agrees
        _emit(out, args.report)
        return EXIT_OK
    if args.report == "json":
        _emit({"series": list(series.coefficients)}, "json")
    else:
        print(str(series))
    return EXIT_OK


def _inconclusive(reason) -> int:
    print(f"inconclusive: {reason}", file=sys.stderr)
    return EXIT_INCONCLUSIVE


def cmd_inverse(args) -> int:
    text, doc = _load(args.file)
    try:
        out = _inverse_report(complete(doc.system))
    except ValueError as exc:
        return _inconclusive(exc)
    _emit(out, args.report)
    return EXIT_OK


def _inverse_report(completion) -> dict:
    if not completion.integrable:
        raise ValueError("completion inconclusive; inverse system undecided")
    final = completion.final_system
    try:
        out = _inverse_section(final, top=True)
    except ValueError:
        r = codimension(final)
        gens = [g.body() for g in localized_generators(localize(final, r))]
        out = {"finite_dimension": None, "codimension": r, "localized_generators": gens}
    out["note"] = SPENCER_SIGN_NOTE
    return out


def cmd_purity(args) -> int:
    text, doc = _load(args.file)
    try:
        purity = is_pure(doc.system, seed=args.seed)
    except ValueError as exc:
        return _inconclusive(exc)
    out = _purity_section(purity)
    out["notes"] = list(purity.notes)
    _emit(out, args.report)
    return EXIT_OK


def cmd_examples(args) -> int:
    if args.action == "list":
        if args.name is not None:
            raise UsageError(f"examples list takes no entry name, got {args.name!r}")
        for name in corpus_mod.ENTRIES:
            print(f"{name}: {corpus_mod.SOURCES[name]}")
        return EXIT_OK
    names = None if args.name in (None, "all") else [args.name]
    try:
        results = corpus_mod.run_corpus(names)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    failed = False
    payload = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if args.report == "text":
            print(f"{status} {res.name}  [{res.source}]")
            for check in res.checks:
                if not check.ok:
                    print(f"  value {check.key} ({check.provenance}):")
                    print(f"    expected {check.expected!r}")
                    print(f"    actual   {check.actual!r}")
            for note in res.notes:
                print(f"  note: {note}")
        payload.append(
            {
                "name": res.name,
                "source": res.source,
                "passed": res.passed,
                "notes": list(res.notes),
                "checks": [
                    {
                        "key": c.key,
                        "provenance": c.provenance,
                        "ok": c.ok,
                        "expected": repr(c.expected),
                        "actual": repr(c.actual),
                    }
                    for c in res.checks
                ],
            }
        )
        failed = failed or not res.passed
    if args.report == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False))
    return EXIT_CORPUS_MISMATCH if failed else EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="formalpde",
        description="Exact analysis of linear constant-coefficient PDE systems",
    )
    parser.add_argument("--seed", type=int, default=0, help="frame-search seed of analyze, involution and purity")
    parser.add_argument("--report", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report: completion, involution, Hilbert, purity")
    p.add_argument("file")
    p.add_argument("--trunc", type=natural, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("involution", help="involution test of the symbol")
    p.add_argument("file")
    p.add_argument("--order", type=natural, default=None)
    p.set_defaults(func=cmd_involution)

    p = sub.add_parser("hilbert", help="principal-class series / counted Hilbert function")
    source = p.add_mutually_exclusive_group()  # a file sets its own variable count
    source.add_argument("--file")
    source.add_argument("--vars", type=natural)
    p.add_argument("--degrees")
    p.add_argument("--trunc", type=natural, default=8)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("inverse", help="inverse-system generators and socle")
    p.add_argument("file")
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("purity", help="relative localization and purity verdict")
    p.add_argument("file")
    p.set_defaults(func=cmd_purity)

    p = sub.add_parser("examples", help="run the built-in corpus")
    p.add_argument("action", choices=("run", "list"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
