"""Batch command-line front end.

One subcommand per library operation, scriptable text I/O: series and
group-element payloads arrive as literals on stdin or via --in FILE,
numeric parameters as flags.  Output is machine-readable (key=value lines
or CSV) unless --human asks for prose.  Exit status: 0 success and, for
verifier commands, a passing verdict; 1 a failing verdict or violation;
2 usage errors, malformed literals, and violated preconditions.

The parser is built once per process, on the first call of main(), and
reused by every later call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .group import format_riordan, parse_riordan, rinv, rmul, to_matrix
from .index_sets import (
    FiltrationSpec,
    Jxi,
    admissible_check,
    classify_pair,
    density,
    format_index_set,
    hausdorff_dim,
    parse_index_set,
    spectrum_sample,
)
from .quotients import (
    QuotientGroup,
    _lcs_depth,
    _quotient_params,
    _require_fits,
    _tower_samples,
    _width_depth,
    generation_check,
    hm_generation_check,
    sigma_filtration_check,
    tower_consistency,
    verify_lcs_formula,
    width_report,
)
from .series import (
    comp_inverse,
    compose,
    format_series,
    inv_unit,
    mul,
    parse_series,
    poly_str,
)


def _bool(b):
    return "true" if b else "false"


def _frac(f):
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _payload_lines(args):
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="ascii") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def _payload_series(args, count):
    lines = _payload_lines(args)
    if len(lines) != count:
        raise ValueError(f"expected {count} series literal line(s), got {len(lines)}")
    return [parse_series(ln) for ln in lines]


def _payload_riordan(args, count=None):
    lines = _payload_lines(args)
    if len(lines) % 3 or not lines:
        raise ValueError("riordan literals occupy 3 lines each (riordan / h / g)")
    if count is not None and len(lines) != 3 * count:
        raise ValueError(f"expected {count} riordan literal(s), got {len(lines) // 3}")
    return [parse_riordan("\n".join(lines[k : k + 3])) for k in range(0, len(lines), 3)]


def _payload_index_sets(args, count):
    lines = _payload_lines(args)
    if len(lines) != count:
        raise ValueError(f"expected {count} index-set literal line(s), got {len(lines)}")
    return [parse_index_set(ln) for ln in lines]


def _emit_series(s, human):
    print(poly_str(s) if human else format_series(s))


def _xi(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--xi must be a rational like 1/9, got {text!r}") from None


def _parse_filtration(text):
    if text == "identity":
        return FiltrationSpec.identity()
    if text == "ceilhalf":
        return FiltrationSpec.ceil_half()
    if text.startswith("table:"):
        with open(text[len("table:") :], "r", encoding="ascii") as fh:
            return FiltrationSpec.from_table_lines(fh)
    raise ValueError("filtration must be identity, ceilhalf, or table:<file>")


# -- series commands -----------------------------------------------------


def _cmd_series_mul(args):
    a, b = _payload_series(args, 2)
    _emit_series(mul(a, b), args.human)
    return 0


def _cmd_series_inv(args):
    (a,) = _payload_series(args, 1)
    _emit_series(inv_unit(a.as_unit()), args.human)
    return 0


def _cmd_series_compose(args):
    f, g = _payload_series(args, 2)
    _emit_series(compose(f, g), args.human)
    return 0


def _cmd_series_compinv(args):
    (g,) = _payload_series(args, 1)
    _emit_series(comp_inverse(g.as_nott()), args.human)
    return 0


# -- group commands ------------------------------------------------------


def _cmd_riordan_mul(args):
    a, b = _payload_riordan(args, 2)
    print(format_riordan(rmul(a, b)))
    return 0


def _cmd_riordan_inv(args):
    (a,) = _payload_riordan(args, 1)
    print(format_riordan(rinv(a)))
    return 0


def _cmd_riordan_array(args):
    (a,) = _payload_riordan(args, 1)
    mat = to_matrix(a, args.size)
    print(mat.csv())
    return 0


# -- quotient commands -----------------------------------------------------


def _cmd_lcs_verify(args):
    p, level = _quotient_params(args.p, args.level)
    depth = _lcs_depth(args.depth, p)
    rows = verify_lcs_formula(QuotientGroup(p, level), depth)
    ok = True
    for r in rows:
        verdict = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        if args.human:
            print(
                f"gamma_{r.i} at p={args.p}, level={args.level}: brute order "
                f"{r.brute_order}, formula order {r.formula_order} -> {verdict}"
            )
        else:
            print(
                f"i={r.i} tau={r.tau} brute_order={r.brute_order} "
                f"formula_order={r.formula_order} {verdict}"
            )
    return 0 if ok else 1


def _cmd_width(args):
    p, level = _quotient_params(args.p, args.level)
    depth = _width_depth(args.depth)
    entries = width_report(QuotientGroup(p, level), depth)
    print("i,gamma_order,width,boundary_flag")
    for e in entries:
        print(f"{e.i},{e.gamma_order},{e.width},{1 if e.boundary_flag else 0}")
    return 0


def _cmd_gens_check(args):
    p, level = _quotient_params(args.p, args.level)
    candidates = _payload_riordan(args)
    for a in candidates:
        _require_fits(a, p, level)
    report = generation_check(QuotientGroup(p, level), candidates)
    print(
        f"level={args.level} p={args.p} subgroup=closure "
        f"order={report.closure_order} generators={report.generators}"
    )
    print(f"group_order={report.group_order}")
    print(f"generates={_bool(report.generates)}")
    return 0 if report.generates else 1


def _cmd_hm_check(args):
    report = hm_generation_check(args.p, args.level, args.m)
    print(
        f"level={args.level} p={args.p} subgroup=H^{args.m} "
        f"order={report.closure_order} generators={report.generators}"
    )
    print(f"expected_order={report.expected_order}")
    print(f"matches={_bool(report.matches)}")
    return 0 if report.matches else 1


def _cmd_tower_check(args):
    if args.level < 3:
        raise ValueError("tower-check needs --level >= 3 (compares level with level-1)")
    p, level = _quotient_params(args.p, args.level)
    samples = _tower_samples(p, level, args.samples)
    hi, lo = QuotientGroup(p, level), QuotientGroup(p, level - 1)
    report = tower_consistency(hi, lo, samples=samples, seed=args.seed)
    print(f"mode={report.mode}")
    print(f"pairs={report.pairs_checked}")
    print(f"surjective={_bool(report.surjective)}")
    print(f"passed={_bool(report.passed)}")
    return 0 if report.passed else 1


def _cmd_sigma_check(args):
    spec = _parse_filtration(args.filtration)
    report = sigma_filtration_check(args.p, args.level, spec.value, args.i, args.j)
    print(
        f"i={report.i} j={report.j} commutator_order={report.commutator_order} "
        f"target={report.target_name} target_order={report.target_order}"
    )
    print(f"contained={_bool(report.contained)}")
    return 0 if report.contained else 1


# -- index commands ---------------------------------------------------------


def _cmd_admissible(args):
    I, J = _payload_index_sets(args, 2)
    report = admissible_check(I, J, args.p, bound=args.bound)
    if report.passed:
        print(
            f"verdict=pass-up-to-bound bound={report.bound} "
            f"condition2_certified={_bool(report.condition2_certified)}"
        )
        return 0
    v = report.violation
    n = "-" if v.n is None else v.n
    print(
        f"verdict=violation bound={report.bound} condition={v.condition} "
        f"index={v.index} n={n} partner={v.partner} value={v.value}"
    )
    return 1


def _cmd_density(args):
    (s,) = _payload_index_sets(args, 1)
    d = density(s)
    print(f"density={_frac(d.value)} ldense={_frac(d.lower)} udense={_frac(d.upper)}")
    return 0


def _cmd_jxi(args):
    out = Jxi(_xi(args.xi), args.p, emit_bound=args.emit_bound)
    print(format_index_set(out))
    print(f"density={_frac(density(out).value)}")
    return 0


def _cmd_hdim(args):
    I, J = _payload_index_sets(args, 2)
    spec = _parse_filtration(args.filtration)
    report = hausdorff_dim(
        I,
        J,
        args.p,
        filtration=spec,
        check_admissible=not args.skip_admissible,
        grid_bound=args.grid,
        admissible_bound=args.bound,
    )
    print("n,numerator_count,denominator,estimate")
    for row in report.rows:
        print(f"{row.n},{row.numerator},{row.denominator},{float(row.estimate):.10f}")
    print(f"exact={_frac(report.exact)}" if report.exact is not None else "exact=NA")
    return 0


def _cmd_spectrum(args):
    if args.xi is not None:
        _xi(args.xi)  # the family re-reads the text; this only names the flag
    params = {}
    for key in ("xi", "r", "s", "u"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    report = spectrum_sample(args.p, args.family, params)
    # every line is formatted before the first prints, so a failure prints none
    lines = [f"family={report.family}"]
    lines += [f"param_{key}={report.params[key]}" for key in ("s", "r", "u", "xi") if key in report.params]
    lines += [f"I={format_index_set(report.I)}", f"J={format_index_set(report.J)}"]
    lines.append(f"dimension={_frac(report.closed_form)}")
    print("\n".join(lines))
    return 0


def _cmd_classify(args):
    I, J = _payload_index_sets(args, 2)
    result = classify_pair(I, J, args.p)
    parts = [f"case={result.case}"]
    for key in ("s", "r", "v", "t", "u"):
        if key in result.params:
            parts.append(f"{key}={result.params[key]}")
    parts.append(f"density={_frac(result.j_density)}")
    print(" ".join(parts))
    return 0


# -- parser ------------------------------------------------------------------


def _add_payload(sp):
    sp.add_argument("--in", dest="infile", metavar="FILE", help="read the payload from FILE instead of stdin")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Riordan-group series arithmetic, finite quotients, and index-subgroup dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, help_text, payload=False, human=False):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        if payload:
            _add_payload(sp)
        if human:
            sp.add_argument("--human", action="store_true", help="pretty output")
        else:
            sp.set_defaults(human=False)
        return sp

    cmd("series-mul", _cmd_series_mul, "multiply two series literals", payload=True, human=True)
    cmd("series-inv", _cmd_series_inv, "multiplicative inverse of a unit series", payload=True, human=True)
    cmd("series-compose", _cmd_series_compose, "substitute the second series into the first", payload=True, human=True)
    cmd("series-compinv", _cmd_series_compinv, "compositional inverse of a depth-1 series", payload=True, human=True)

    cmd("riordan-mul", _cmd_riordan_mul, "product of two group elements", payload=True)
    cmd("riordan-inv", _cmd_riordan_inv, "inverse of a group element", payload=True)
    sp = cmd("riordan-array", _cmd_riordan_array, "lower-triangular matrix of an element", payload=True)
    sp.add_argument("--size", type=int, required=True, help="matrix size m (rows 0..m-1)")

    sp = cmd("lcs-verify", _cmd_lcs_verify, "brute-force lower central series vs the closed form", human=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--depth", type=int, required=True)

    sp = cmd("width", _cmd_width, "widths of the lower central series")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--depth", type=int, required=True)

    sp = cmd("gens-check", _cmd_gens_check, "do the payload elements generate the quotient?", payload=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)

    sp = cmd("hm-check", _cmd_hm_check, "twists of 1+x generate the depth-m unit subgroup")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)

    sp = cmd("tower-check", _cmd_tower_check, "projection to the next level is a homomorphism")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--samples", type=int, default=None, help="sampled pairs (default: exhaustive)")
    sp.add_argument("--seed", type=int, default=0)

    sp = cmd("sigma-check", _cmd_sigma_check, "commutator containment for a sigma filtration")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--filtration", default="identity", help="identity | ceilhalf | table:<file>")

    sp = cmd("admissible", _cmd_admissible, "binomial admissibility of an index pair", payload=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--bound", type=int, default=1000)

    cmd("density", _cmd_density, "exact density of an index set", payload=True)

    sp = cmd("jxi", _cmd_jxi, "progression decomposition of J(xi)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--xi", required=True, help="rational like 1/9")
    sp.add_argument("--emit-bound", type=int, default=10**4, dest="emit_bound")

    sp = cmd("hdim", _cmd_hdim, "Hausdorff dimension of an index subgroup", payload=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--filtration", default="identity", help="identity | ceilhalf | table:<file>")
    sp.add_argument("--grid", type=int, default=2048)
    sp.add_argument("--bound", type=int, default=1000, help="admissibility scan bound")
    sp.add_argument("--skip-admissible", action="store_true", dest="skip_admissible")

    sp = cmd("spectrum", _cmd_spectrum, "verified witness pair for a spectrum family")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--family", required=True, help="interval-point | p-power | half-plus | band | lattice")
    sp.add_argument("--xi", default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--u", type=int, default=None)

    sp = cmd("classify", _cmd_classify, "structural case of an admissible pair", payload=True)
    sp.add_argument("--p", type=int, required=True)

    return parser


# Reusing one parser is safe: nothing mutates it after construction,
# parse_args fills a fresh Namespace on each call, every default is
# immutable, and argparse looks up sys.stdout, sys.stderr and the terminal
# width when it prints, not when it is built.
@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
