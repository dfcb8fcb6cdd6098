"""Command-line front end.

Product and sequence specifications use a line-oriented key=value grammar::

    base=B; exponent=<kind>(args); factors=k1:c1,k2:c2,...

with kinds

    thue_morse                      parity of binary ones, +-1 valued
    digit_sum_pow(w)                w ** digit_sum(n)
    count_digit_pow(w,j)            w ** (occurrences of digit j)
    count_set_pow(w,J=j1|j2|...)    w ** (occurrences of any digit in J)
    periodic_pow(q,p)               exp(2*pi*i*p/q) ** n
    table(u1,...,uB-1)              strongly multiplicative table, u(0) = 1

Factor multipliers are complex literals like ``-1``, ``i`` or ``0.5+0.5i``
(whitespace-insensitive); a bare residue gets multiplier 1.  Start indices
default to 1 for residue 0 and 0 otherwise.  Omitting ``factors`` yields a
bare exponent sequence (accepted by ``summatory``).

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
parse error, 3 convergence hypothesis violation.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import re
import sys
from collections import Counter

from .digits import DigitStat, check_base, check_nonnegative, digits_of, thue_morse
from .errors import (
    ConvergenceHypothesisViolated,
    DigitprodError,
    HypothesisFailed,
    ParseError,
    ProfileMismatch,
    ValidationError,
)
from .gammaproducts import (
    GammaQuotient,
    odd_base_products,
    partial_quotient,
    quotient_limit,
)
from .identities import CATALOG_TOL, claim_by_name, estimate_qr, verify_all, verify_claim
from .products import (
    Factor,
    ProductSpec,
    evaluate_abel,
    evaluate_direct,
    evaluate_moments,
    resolve_threads,
)
from .sequences import (
    DigitStatPower,
    ExponentSeq,
    PeriodicPower,
    StronglyMultiplicative,
    recursion_profile,
    thue_morse_seq,
)
from .summatory import growth_check

__all__ = ["parse_spec", "render_spec", "main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGENT = 3


# ---------------------------------------------------------------------------
# complex literals

_IMAG_UNIT = re.compile(r"(?<![0-9.])i")


def parse_complex(text: str, position: int = 0) -> complex:
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty complex literal", position)
    normalized = _IMAG_UNIT.sub("1i", s).replace("i", "j")
    try:
        z = complex(normalized)
    except ValueError:
        raise ParseError(f"bad complex literal {text!r}", position) from None
    if not cmath.isfinite(z):
        raise ParseError(f"non-finite complex literal {text!r}", position)
    return z


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def render_complex(z: complex) -> str:
    z = complex(z)
    re_s = _fmt_real(z.real)
    if z.imag == 0.0:
        return re_s
    mag = _fmt_real(abs(z.imag))
    unit = "i" if mag == "1" else f"{mag}i"
    sign = "+" if z.imag > 0 else "-"
    if z.real == 0.0:
        return unit if z.imag > 0 else f"-{unit}"
    return f"{re_s}{sign}{unit}"


# ---------------------------------------------------------------------------
# specification grammar

_KIND_RE = re.compile(r"^([a-z_]+)(?:\((.*)\))?$")
# base-2 parity sequence; ``exponent=thue_morse`` names it under any base
_THUE_MORSE = thue_morse_seq()


def _parse_exponent(text: str, base: int, position: int) -> ExponentSeq:
    m = _KIND_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad exponent specification {text!r}", position)
    kind, argtext = m.group(1), m.group(2)
    args = [a.strip() for a in argtext.split(",")] if argtext else []

    def need(n: int):
        if len(args) != n:
            raise ParseError(
                f"exponent {kind} expects {n} argument(s), got {len(args)}", position
            )

    if kind == "thue_morse":
        need(0)
        return _THUE_MORSE
    if kind == "digit_sum_pow":
        need(1)
        return DigitStatPower(base, parse_complex(args[0], position), DigitStat.digit_sum())
    if kind == "count_digit_pow":
        need(2)
        w = parse_complex(args[0], position)
        try:
            j = int(args[1])
        except ValueError:
            raise ParseError(f"bad digit {args[1]!r}", position) from None
        return DigitStatPower(base, w, DigitStat.count(j))
    if kind == "count_set_pow":
        need(2)
        w = parse_complex(args[0], position)
        if not args[1].startswith("J="):
            raise ParseError(f"expected J=j1|j2|... in {text!r}", position)
        try:
            js = [int(p) for p in args[1][2:].split("|")]
        except ValueError:
            raise ParseError(f"bad digit set {args[1]!r}", position) from None
        return DigitStatPower(base, w, DigitStat.count_set(js))
    if kind == "periodic_pow":
        need(2)
        try:
            q, p = int(args[0]), int(args[1])
        except ValueError:
            raise ParseError(f"bad periodic_pow arguments {argtext!r}", position) from None
        return PeriodicPower(base, q, p)
    if kind == "table":
        if not args:
            raise ParseError("table needs at least one value", position)
        return StronglyMultiplicative(
            base, [parse_complex(a, position) for a in args]
        )
    raise ParseError(f"unknown exponent kind {kind!r}", position)


def _parse_factors(text: str, position: int) -> list[Factor]:
    factors = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty factor entry", position)
        if ":" in chunk:
            k_text, c_text = chunk.split(":", 1)
            mult = parse_complex(c_text, position)
        else:
            k_text, mult = chunk, 1.0
        try:
            k = int(k_text)
        except ValueError:
            raise ParseError(f"bad residue {k_text!r}", position) from None
        factors.append(Factor(k, mult))
    return factors


def parse_spec(text: str) -> ProductSpec | ExponentSeq:
    """Parse the key=value grammar into a ProductSpec (or a bare sequence)."""
    return _parse_stated(text)[1]


def _parse_stated(text: str) -> tuple[int, ProductSpec | ExponentSeq]:
    """The spec's stated base and its parse: a bare ``thue_morse`` keeps
    the base-2 sequence, so only the stated base says which base it is in."""
    fields: dict[str, tuple[str, int]] = {}
    offset = 0
    for segment in text.split(";"):
        stripped = segment.strip()
        if not stripped:
            offset += len(segment) + 1
            continue
        if "=" not in stripped:
            raise ParseError(f"expected key=value, got {stripped!r}", offset)
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in ("base", "exponent", "factors"):
            raise ParseError(f"unknown key {key!r}", offset)
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", offset)
        fields[key] = (value.strip(), offset)
        offset += len(segment) + 1

    if "base" not in fields:
        raise ParseError("missing base=...")
    base_text, base_pos = fields["base"]
    try:
        base = int(base_text)
    except ValueError:
        raise ParseError(f"bad base {base_text!r}", base_pos) from None
    check_base(base)

    if "exponent" not in fields:
        raise ParseError("missing exponent=...")
    seq = _parse_exponent(fields["exponent"][0], base, fields["exponent"][1])

    if "factors" not in fields:
        return base, seq
    factors = _parse_factors(*fields["factors"])
    return base, ProductSpec(base, factors, seq)


def _render_exponent(seq: ExponentSeq) -> str:
    if isinstance(seq, DigitStatPower):
        w = render_complex(seq.w)
        if seq.stat.kind == "digit_sum":
            return f"digit_sum_pow({w})"
        js = sorted(seq.stat.digits)
        if len(js) == 1:
            return f"count_digit_pow({w},{js[0]})"
        return f"count_set_pow({w},J={'|'.join(str(j) for j in js)})"
    if isinstance(seq, PeriodicPower):
        return f"periodic_pow({seq.q},{seq.p})"
    if isinstance(seq, StronglyMultiplicative):
        return "table(%s)" % ",".join(render_complex(v) for v in seq.values)
    raise ValidationError(f"no grammar for sequence {type(seq).__name__}")


def render_spec(spec: ProductSpec | ExponentSeq) -> str:
    """Inverse of parse_spec for grammar-expressible specifications.

    Raises ValidationError for a product the grammar cannot state: a factor
    with a non-default start, or a sequence in another base than the
    product's, unless it is the base-2 parity sequence (``thue_morse``).
    """
    if not isinstance(spec, ProductSpec):
        return f"base={spec.base}; exponent={_render_exponent(spec)}"
    for f in spec.factors:
        if f.start != Factor(f.residue).start:
            raise ValidationError(
                f"no grammar for start={f.start} on residue {f.residue}"
            )
    if spec.seq.base == spec.base:
        exponent = _render_exponent(spec.seq)
    elif spec.seq == _THUE_MORSE:
        exponent = "thue_morse"
    else:
        raise ValidationError(
            f"no grammar for a base-{spec.seq.base} sequence in base {spec.base}"
        )
    factors = ",".join(
        f"{f.residue}:{render_complex(f.multiplier)}" for f in spec.factors
    )
    return f"base={spec.base}; exponent={exponent}; factors={factors}"


# ---------------------------------------------------------------------------
# output helpers

def _emit_json(obj) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or an infinity, which JSON cannot state
        raise ValidationError(f"output is not valid JSON: {exc}") from None
    print(text)


def _require_product(parsed) -> ProductSpec:
    if not isinstance(parsed, ProductSpec):
        raise ValidationError(
            "this command needs a product specification with factors=..."
        )
    return parsed


def _spec_text(args) -> str:
    if args.spec and args.spec_file:
        raise ValidationError("give either --spec or --spec-file, not both")
    if args.spec:
        return args.spec
    if args.spec_file:
        with open(args.spec_file, "r", encoding="utf-8") as fh:
            try:
                return fh.read().strip()
            except UnicodeDecodeError as exc:
                raise ValidationError(
                    f"spec file {args.spec_file!r} is not UTF-8: {exc}") from None
    raise ValidationError("missing --spec or --spec-file")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_eval(args) -> int:
    spec = _require_product(parse_spec(_spec_text(args)))
    threads = resolve_threads(args.threads)  # refused for every method
    if args.method == "naive":
        result = evaluate_direct(spec, args.terms, threads=threads)
    elif args.method == "moments":
        result = evaluate_moments(spec, args.terms)
    else:
        result = evaluate_abel(spec, args.terms, threads=threads)
    payload = result.to_json_dict()
    if args.output == "plain":
        for key in sorted(payload):
            print(f"{key}={payload[key]}")
    elif args.output == "csv":
        keys = sorted(payload)
        print(",".join(keys))
        print(",".join(str(payload[k]) for k in keys))
    else:
        _emit_json(payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    claim = claim_by_name(args.claim)
    if args.tol is not None:
        claim = dataclasses.replace(claim, tol=args.tol)
    report = verify_claim(claim, args.terms)
    if args.output == "plain":
        _print_verify_line(report)
    else:
        _emit_json(report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _print_verify_line(report) -> None:
    tag = "PASS" if report.passed else "FAIL"
    print(
        f"{tag} {report.name:28s} computed={report.computed.real:.12g} "
        f"expected={report.expected.real:.12g} rel_err={report.rel_err:.3e} "
        f"terms={report.terms} seconds={report.seconds:.2f}"
    )


def _cmd_verify_all(args) -> int:
    summary = verify_all(args.terms, threads=args.threads)
    if args.output == "json":
        _emit_json(
            {
                "claims": [r.to_json_dict() for r in summary.reports],
                "pass_count": summary.passed_count,
                "total": summary.total,
                "worst_rel_err": summary.worst_rel_err,
                "seconds": summary.seconds,
            }
        )
    else:
        for report in summary.reports:
            _print_verify_line(report)
        print(
            f"{summary.passed_count}/{summary.total} passed, "
            f"worst rel err {summary.worst_rel_err:.3e}, "
            f"{summary.seconds:.1f}s"
        )
    return EXIT_OK if summary.all_passed else EXIT_VERIFY_FAIL


def _cmd_summatory(args) -> int:
    base, parsed = _parse_stated(_spec_text(args))
    seq = parsed.seq if isinstance(parsed, ProductSpec) else parsed
    check_nonnegative(args.terms)
    profile = recursion_profile(seq, base=base)
    checkpoints = []
    n = base
    while n <= args.terms:
        checkpoints.append(n)
        n *= base
    rows = []
    if checkpoints:
        report = growth_check(profile, seq, checkpoints)
        for j, (n, f, ratio) in enumerate(zip(checkpoints, report.sums, report.ratios), 1):
            if not cmath.isfinite(f):
                raise ValidationError(f"partial sum F(N) is not finite at N = {base}**{j}")
            try:
                fa = abs(f)
            except OverflowError:
                raise ValidationError(
                    f"|F(N)| overflows a float at N = {base}**{j}: F(N) = {f!r}") from None
            rows.append((n, f.real, f.imag, fa, ratio))
    if args.output == "json":
        _emit_json(
            [
                {"N": n, "re_F": fr, "im_F": fi, "abs_F": fa, "ratio": ratio}
                for n, fr, fi, fa, ratio in rows
            ]
        )
    else:
        print("N,re_F,im_F,abs_F,ratio")
        for n, fr, fi, fa, ratio in rows:
            print(f"{n},{fr!r},{fi!r},{fa!r},{ratio!r}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    if args.what.lower() != "qr":
        raise ValidationError(f"unknown estimate target {args.what!r}")
    report = estimate_qr(args.terms)
    if args.output == "plain":
        for key in ("Q", "R", "product_check"):
            print(f"{key}={report[key]!r}")
    else:
        _emit_json(report)
    return EXIT_OK


_QUOTIENT_RE = re.compile(r"^a=(.+?)[;,]b=(.+)$")


def _cmd_gamma(args) -> int:
    if (args.quotient is None) == (args.odd_base is None):
        raise ValidationError("give exactly one of --quotient or --odd-base")
    if args.quotient is not None:
        m = _QUOTIENT_RE.match(args.quotient.replace(" ", ""))
        if not m:
            raise ParseError(
                f"expected a=x1,x2,...;b=y1,y2,... got {args.quotient!r}"
            )
        try:
            a = [float(x) for x in m.group(1).split(",")]
            b = [float(x) for x in m.group(2).split(",")]
        except ValueError:
            raise ParseError(f"bad quotient parameter in {args.quotient!r}") from None
        quotient = GammaQuotient(a, b)
        payload = {
            "a": list(quotient.a),
            "b": list(quotient.b),
            "limit": quotient_limit(quotient),
        }
        if args.terms:
            payload["partial"] = partial_quotient(quotient, args.terms)
            payload["partial_terms"] = args.terms
        _emit_json(payload)
        return EXIT_OK
    closed = odd_base_products(args.odd_base)
    payload = {
        "base": args.odd_base,
        "even_k": closed.even_k,
        "odd_k": closed.odd_k,
        "wallis": closed.wallis,
    }
    if not args.terms:
        _emit_json(payload)
        return EXIT_OK
    # in an odd base (-1)**n has the digit recursion v(k) = (-1)**k; every
    # factor starts at n = 1, as the closed forms do
    b, rel = args.odd_base, 0.0
    for name, parity in (("even_k", 0), ("odd_k", 1)):
        factors = [Factor(k, 1, 1) for k in range(parity, b, 2)]
        side = evaluate_moments(ProductSpec(b, factors, PeriodicPower(b, 2, 1)), args.terms)
        payload[f"{name}_computed"] = side.value.real
        rel = max(rel, abs(side.value.real - payload[name]) / payload[name])
    payload.update({"max_rel_err": rel, "pass": rel <= CATALOG_TOL, "terms": side.terms})
    _emit_json(payload)
    return EXIT_OK if payload["pass"] else EXIT_VERIFY_FAIL


def _cmd_digits(args) -> int:
    ds = digits_of(args.n, args.base)
    rendered = "".join(str(d) for d in reversed(ds)) if ds else "0"
    # every statistic from the one digit list: a digit_stat call per count
    # would build and cache level tables for each of the base's digits
    tally = Counter(ds)
    counts = {str(j): tally[j] for j in range(args.base)}
    payload = {
        "n": args.n,
        "base": args.base,
        "digits": rendered,
        "length": len(ds),
        "digit_sum": sum(ds),
        "counts": counts,
    }
    if args.base == 2:
        payload["thue_morse"] = thue_morse(args.n)
    if args.output == "json":
        _emit_json(payload)
    else:
        print(rendered)
        stats = " ".join(
            [f"length={payload['length']}", f"digit_sum={payload['digit_sum']}"]
            + [f"count[{j}]={counts[str(j)]}" for j in range(args.base)]
            + ([f"thue_morse={payload['thue_morse']}"] if args.base == 2 else [])
        )
        print(stats)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitprod",
        description="Evaluate and verify infinite products with digit-indexed exponents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # outputs: the formats a subcommand renders, its default first
    def common(p, outputs, threads=True):
        p.add_argument("--terms", type=int, default=10**6)
        p.add_argument("--output", choices=outputs, default=outputs[0])
        if threads:
            p.add_argument("--threads", type=int, default=0)

    p = sub.add_parser("eval", help="evaluate one product specification")
    common(p, ("json", "csv", "plain"))
    p.add_argument("--spec", help="inline specification text")
    p.add_argument("--spec-file", help="file containing the specification")
    p.add_argument(
        "--method",
        choices=("naive", "abel", "moments"),
        default="moments",
    )
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("verify", help="verify one catalogued identity")
    common(p, ("json", "plain"), threads=False)
    p.add_argument("--claim", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("verify-all", help="verify the whole identity catalog")
    common(p, ("plain", "json"))
    p.set_defaults(handler=_cmd_verify_all)

    p = sub.add_parser("summatory", help="partial sums of an exponent sequence")
    common(p, ("csv", "json"), threads=False)
    p.add_argument("--spec", help="inline specification text")
    p.add_argument("--spec-file", help="file containing the specification")
    p.set_defaults(handler=_cmd_summatory)

    p = sub.add_parser("estimate", help="estimate the open constants (QR)")
    common(p, ("json", "plain"), threads=False)
    p.add_argument("what", help="what to estimate: qr")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("gamma", help="Gamma quotients and odd-base closed forms")
    p.add_argument("--quotient", help="a=x1,x2,...;b=y1,y2,...")
    p.add_argument("--odd-base", type=int, default=None)
    p.add_argument("--terms", type=int, default=0)
    p.add_argument("--output", choices=("json",), default="json")
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("digits", help="digit expansion and statistics of one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--output", choices=("json", "plain"), default="plain")
    p.set_defaults(handler=_cmd_digits)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except (ConvergenceHypothesisViolated, HypothesisFailed, ProfileMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except (DigitprodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
