"""index_spectrum: admissibility, densities, J(xi) and dimensions over p in {3, 5, 7}.

The index_sets residue, scan and Fraction loops dominate here.  The group
layer runs only as the trunc-20 oracle inside group_closure_crosscheck and
quotients is idle.  The O(period) paths (literals with periods near 10^5
and 10^6, J(xi) with period p^K) set wall_s; the cheap verdicts (density,
classify, small admissibility checks) set op_p50_ms.  About half of the
operations go through the command line, which re-parses every literal.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import oracles as orc
from literals import malformed_payloads
from ops import cli_op, contract_ops, lib_op, pinned

FAMILIES = ("interval-point", "p-power", "half-plus", "band", "lattice")
# Each family runs at one prime so that a batch's cost does not hinge on
# which prime a seed draws; the primes still cover 3, 5 and 7.
FAMILY_P = {"interval-point": 3, "p-power": 5, "half-plus": 7, "band": 5, "lattice": 3}
ALPHA = {"identity": Fraction(1), "ceilhalf": Fraction(1, 2)}

FULL = {
    # (p, K): xi = k/p^K.  Every call re-verifies 10^4 indices (~0.15 s), so
    # the small-K calls are the steady band op_p90_ms falls in.
    "jxi": ((3, 11), (3, 6), (5, 7), (5, 4), (7, 6), (7, 3),
            (3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)),
    "cli-jxi": ((3, 8), (5, 5), (7, 4)),
    "big": (10**5, 10**6),  # periods of the large literals
    "convergence": ((3, 6), (5, 4)),
    "counts": {"density": 14, "classify": 12, "violate": 5, "hdim": 4,
               "cli-density": 4, "cli-classify": 6, "cli-admissible": 4, "cli-hdim": 2,
               "cli-spectrum": 2},
}
TINY = {
    "jxi": ((3, 4), (5, 3)),
    "cli-jxi": ((3, 3),),
    "big": (10**3,),
    "convergence": ((3, 3),),
    "counts": {"density": 2, "classify": 2, "violate": 1, "hdim": 2,
               "cli-density": 1, "cli-classify": 1, "cli-admissible": 2, "cli-hdim": 1,
               "cli-spectrum": 1},
}


# -- seeded inputs -------------------------------------------------------------


def _xi(rng, p, K):
    """k/p^K in (0, 1/p] with k coprime to p, so the period is exactly p^K."""
    while True:
        k = rng.randint(1, p ** (K - 1))
        if k % p:
            return f"{k}/{p**K}"


def _coprime(rng, p, hi):
    return rng.choice([s for s in range(1, hi + 1) if s % p])


def _family_params(rng, family, p):
    if family == "interval-point":
        return {"xi": _xi(rng, p, 4)}
    if family in ("p-power", "half-plus"):
        return {"r": rng.randint(1, 2)}
    if family == "band":
        return {"s": rng.randint(1, p - 1), "xi": _xi(rng, p, 3)}
    return {"s": _coprime(rng, p, 4), "r": rng.randint(1, 2), "u": rng.randint(1, 4)}


def _next_prime(n):
    while any(n % d == 0 for d in range(2, int(n**0.5) + 1)):
        n += 1
    return n


def _big_literal(rng, scale):
    """A literal with a prime period near `scale` and a third of its classes."""
    m = _next_prime(rng.randint(scale, scale + scale // 20))
    return orc.LiteralSet(0, (), m, rng.sample(range(m), m // 3)).literal()


def _small_literal(rng):
    t = rng.randint(0, 6)
    m = rng.randint(1, 30)
    exc = [e for e in range(1, t) if rng.random() < 0.5]
    return orc.LiteralSet(t, exc, m, rng.sample(range(m), rng.randint(1, m))).literal()


def _violating_pair(rng, p):
    """I = qN with p not dividing q, J a class mod d meeting q's complement.

    i = q, n = 1 breaks condition 3 (C(q, 1) = q is a unit mod p and
    q + j is not a multiple of q), so the pair is never admissible.
    """
    q = rng.choice([s for s in range(2, 13) if s % p])
    while True:
        d = rng.randint(2, 12)
        J = orc.union_classes((rng.randint(1, d - 1), d))
        if any(j in J and j % q for j in range(1, 2 * d * q)):
            return orc.multiples(q).literal(), J.literal()


def _violating_spec(rng, kind, k):
    p = (3, 5, 7)[k % 3]
    return {"kind": kind, "p": p, "pair": _violating_pair(rng, p)}


def _family_spec(rng, family):
    p = FAMILY_P[family]
    return {"p": p, "family": family, "params": _family_params(rng, family, p)}


def generate(rng, tiny=False):
    plan = TINY if tiny else FULL
    n = plan["counts"]
    ops = []
    ops += [{"kind": "density", "set": _small_literal(rng)} for _ in range(n["density"])]
    ops += [{"kind": "density", "set": _big_literal(rng, s)} for s in plan["big"]]
    ops += [{"kind": "classify", **_family_spec(rng, FAMILIES[k % 5])} for k in range(n["classify"])]
    ops += [{"kind": "admissible", **_family_spec(rng, f)} for f in FAMILIES]
    ops += [_violating_spec(rng, "violate", k) for k in range(n["violate"])]
    ops += [{"kind": "hdim", "filtration": ("identity", "ceilhalf")[k % 2],
             **_family_spec(rng, FAMILIES[k % 5])} for k in range(n["hdim"])]
    ops += [{"kind": "spectrum", **_family_spec(rng, f)} for f in FAMILIES]
    ops += [{"kind": "jxi", "p": p, "xi": _xi(rng, p, K)} for p, K in plan["jxi"]]
    ops += [{"kind": "convergence", "p": p, "s": _coprime(rng, p, 4), "xi": _xi(rng, p, K)}
            for p, K in plan["convergence"]]
    ops += [{"kind": "crosscheck", **_family_spec(rng, "lattice")},
            {"kind": "crosscheck-violate", "p": 3,
             "pair": (orc.multiples(2).literal(), orc.multiples(1).literal())}]
    # the command line, about half of the operations
    ops += [{"kind": "cli-density", "set": _small_literal(rng)} for _ in range(n["cli-density"])]
    ops += [{"kind": "cli-density", "set": _big_literal(rng, s)} for s in plan["big"]]
    ops += [{"kind": "cli-classify", **_family_spec(rng, FAMILIES[k % 5])}
            for k in range(n["cli-classify"])]
    ops += [{"kind": "cli-admissible", **_family_spec(rng, FAMILIES[k % 5])}
            for k in range(n["cli-admissible"] // 2)]
    ops += [_violating_spec(rng, "cli-violate", k)
            for k in range(n["cli-admissible"] - n["cli-admissible"] // 2)]
    ops += [{"kind": "cli-hdim", "filtration": ("identity", "ceilhalf")[k % 2],
             **_family_spec(rng, FAMILIES[(k + 2) % 5])} for k in range(n["cli-hdim"])]
    ops += [{"kind": "cli-spectrum", **_family_spec(rng, FAMILIES[(k + 1) % 5])}
            for k in range(n["cli-spectrum"])]
    ops += [{"kind": "cli-jxi", "p": p, "xi": _xi(rng, p, K)} for p, K in plan["cli-jxi"]]
    rng.shuffle(ops)
    return {"ops": ops, "probes": malformed_payloads(rng)}


# -- the spectrum families, built and solved apart from the library --------------


def family_pair(p, family, params):
    """(I, J) of a spectrum family as LiteralSets."""
    pm1 = (p - 1, p)
    if family == "interval-point":
        return orc.multiples(p), _jxi_set(p, Fraction(params["xi"]))
    if family == "p-power":
        return orc.multiples(p), orc.union_classes((0, p ** params["r"]), pm1)
    if family == "half-plus":
        return orc.multiples(1), orc.union_classes((0, p ** params["r"]), pm1)
    if family == "band":
        s = params["s"]
        return orc.multiples(s), _jxi_set(p, Fraction(params["xi"])).intersect(orc.multiples(s))
    s, r, u = params["s"], params["r"], params["u"]
    return orc.multiples(s * p**r), orc.multiples(s * u)


def family_dimension(p, family, params):
    """The closed-form dimension of each spectrum family (identity filtration)."""
    if family == "interval-point":
        return Fraction(1, 2 * p) + Fraction(params["xi"]) / 2
    if family == "p-power":
        return Fraction(1, p) + Fraction(1, 2 * p ** params["r"])
    if family == "half-plus":
        return Fraction(1, 2) + Fraction(1, 2 * p) + Fraction(1, 2 * p ** params["r"])
    if family == "band":
        return (1 + Fraction(params["xi"])) / (2 * params["s"])
    s, r, u = params["s"], params["r"], params["u"]
    return Fraction(1, 2 * s * p**r) + Fraction(1, 2 * s * u)


def family_case(p, family, params):
    """The structural case classify_pair must report, with its parameters."""
    if family == "interval-point":
        return "2i", {"s": 1, "r": 1}
    if family == "band":
        return "2i", {"s": params["s"], "r": 0}
    if family in ("p-power", "half-plus"):
        r = params["r"]
        return "2iii", {"s": 1, "r": int(family == "p-power"), "v": r, "t": p ** (r - 1), "u": 1}
    return "2ii", {"s": params["s"], "r": params["r"], "u": params["u"]}


def _jxi_set(p, xi):
    return orc.from_predicate(xi.denominator, lambda j: orc.in_jxi(j, p, xi))


def _jxi_ok(p, xi, J):
    """Density xi and membership on a sample, against the direct digit scan."""
    sample = list(range(1, 300)) + [J.period * k + r for k in (1, 7) for r in range(0, 400, 7)]
    return J.density == xi and all((j in J) == orc.in_jxi(j, p, xi) for j in sample)


def _conv_count(p, s, xi, n):
    return sum(1 for j in range(s, n + 1, s) if orc.in_jxi(j, p, xi))


# -- operations ------------------------------------------------------------------


def build(R, call, inputs):
    """Parse every index-set literal once (set-up), then return the operations."""
    parsed = {}

    def parse(text):
        if text not in parsed:
            parsed[text] = call("index_sets.parse_index_set", R.parse_index_set, text)
        return parsed[text]

    ops = [_op(R, spec, parse) for spec in inputs["ops"]]
    return ops + contract_ops(R, "index", inputs["probes"])


def _periods(*sets):
    return {"index_sets.period_total": sum(s.period for s in sets)}


def _frac(f):
    return f"{f.numerator}/{f.denominator}"


def _op(R, spec, parse):
    kind = spec["kind"]
    if kind in ("density", "cli-density"):
        lit = orc.parse_literal(spec["set"])
        want = lit.density
        if kind == "cli-density":
            d = _frac(want)
            return pinned(R, ["density"], spec["set"] + "\n", 0,
                          f"density={d} ldense={d} udense={d}\n", "cli density")
        s = parse(spec["set"])
        return lib_op(f"density period={lit.period}", "index_sets.density", R.density, (s,),
                      lambda d: d.lower == d.upper == want, lambda d: _periods(s))

    p = spec["p"]
    if kind in ("jxi", "cli-jxi"):
        xi = Fraction(spec["xi"])
        if kind == "cli-jxi":
            def jxi_out(out):
                line, dens = out.splitlines()
                return dens == f"density={spec['xi']}" and _jxi_ok(p, xi, orc.parse_literal(line))

            return cli_op(R, ["jxi", "--p", str(p), "--xi", spec["xi"]], "", 0, jxi_out)
        return lib_op(f"Jxi p={p} xi={spec['xi']}", "index_sets.Jxi", R.Jxi, (xi, p),
                      lambda J: _jxi_ok(p, xi, orc.LiteralSet(J.threshold, J.exceptional, J.period,
                                                              J.residues)),
                      lambda J: _periods(J))

    if kind == "convergence":
        s, xi, limit = spec["s"], Fraction(spec["xi"]), 10**5

        def conv_ok(rep):
            rows = {row.n: row.count for row in rep.rows}
            return rep.exact == xi / s and all(rows[n] == _conv_count(p, s, xi, n)
                                               for n in (2**14, limit))

        return lib_op(f"density_convergence p={p}", "index_sets.density_convergence",
                      R.density_convergence, (p, s, xi, limit), conv_ok,
                      lambda rep: {"index_sets.period_total": rep.period})

    if kind in ("violate", "cli-violate", "crosscheck-violate"):
        Ilit, Jlit = spec["pair"]
        I_ref, J_ref = orc.parse_literal(Ilit), orc.parse_literal(Jlit)
        if kind == "cli-violate":
            def violation_out(out):
                fields = orc.key_values(out)
                v = SimpleNamespace(**{k: None if fields[k] == "-" else int(fields[k])
                                       for k in ("condition", "index", "n", "partner", "value")})
                return fields["verdict"] == "violation" and orc.witness_holds(v, I_ref, J_ref, p)

            return cli_op(R, ["admissible", "--p", str(p)], f"{Ilit}\n{Jlit}\n", 1, violation_out)
        I, J = parse(Ilit), parse(Jlit)
        if kind == "crosscheck-violate":
            return lib_op("crosscheck violating", "index_sets.group_closure_crosscheck",
                          R.group_closure_crosscheck, (I, J, p),
                          lambda r: not r.consistent and "degree 3" in r.escape,
                          lambda r: _periods(I, J))
        return lib_op(f"admissible violating p={p}", "index_sets.admissible_check",
                      R.admissible_check, (I, J, p),
                      lambda r: not r.passed and orc.witness_holds(r.violation, I_ref, J_ref, p),
                      lambda r: _periods(I, J))

    family, params = spec["family"], spec["params"]
    I_ref, J_ref = family_pair(p, family, params)
    Ilit, Jlit = I_ref.literal(), J_ref.literal()
    dim = family_dimension(p, family, params)
    label = f"{kind} {family} p={p}"

    if kind == "spectrum":
        lib_params = {k: Fraction(v) if k == "xi" else v for k, v in params.items()}
        return lib_op(label, "index_sets.spectrum_sample", R.spectrum_sample, (p, family, lib_params),
                      lambda r: r.closed_form == r.report.exact == dim,
                      lambda r: _periods(r.I, r.J))
    if kind == "cli-spectrum":
        argv = ["spectrum", "--p", str(p), "--family", family]
        for k, v in params.items():
            argv += [f"--{k}", str(v)]
        return cli_op(R, argv, "", 0, lambda out: out.startswith(f"family={family}\n")
                      and out.endswith(f"\ndimension={_frac(dim)}\n"))
    if kind in ("hdim", "cli-hdim"):
        name = spec["filtration"]
        want = orc.dimension(I_ref.density, J_ref.density, ALPHA[name])
        if kind == "cli-hdim":
            return cli_op(R, ["hdim", "--p", str(p), "--filtration", name], f"{Ilit}\n{Jlit}\n", 0,
                          lambda out: out.endswith(f"\nexact={_frac(want)}\n"))
        I, J = parse(Ilit), parse(Jlit)
        spec_obj = R.FiltrationSpec.identity() if name == "identity" else R.FiltrationSpec.ceil_half()
        return lib_op(f"{label} {name}", "index_sets.hausdorff_dim", R.hausdorff_dim,
                      (I, J, p, spec_obj), lambda r: r.exact == want and r.agrees,
                      lambda r: _periods(I, J))
    if kind in ("classify", "cli-classify"):
        case, want = family_case(p, family, params)
        if kind == "cli-classify":
            line = " ".join([f"case={case}"] + [f"{k}={v}" for k, v in want.items()]
                            + [f"density={_frac(J_ref.density)}"])
            return cli_op(R, ["classify", "--p", str(p)], f"{Ilit}\n{Jlit}\n", 0,
                          lambda out: out == line + "\n")
        I, J = parse(Ilit), parse(Jlit)
        return lib_op(label, "index_sets.classify_pair", R.classify_pair, (I, J, p),
                      lambda r: (r.case, r.params, r.j_density) == (case, want, J_ref.density),
                      lambda r: _periods(I, J))
    if kind in ("admissible", "cli-admissible"):
        if kind == "cli-admissible":
            return cli_op(R, ["admissible", "--p", str(p)], f"{Ilit}\n{Jlit}\n", 0,
                          lambda out: out == "verdict=pass-up-to-bound bound=1000 "
                                             "condition2_certified=true\n")
        I, J = parse(Ilit), parse(Jlit)
        return lib_op(label, "index_sets.admissible_check", R.admissible_check, (I, J, p),
                      lambda r: r.passed and r.condition2_certified, lambda r: _periods(I, J))
    if kind == "crosscheck":
        I, J = parse(Ilit), parse(Jlit)
        return lib_op(label, "index_sets.group_closure_crosscheck", R.group_closure_crosscheck,
                      (I, J, p), lambda r: r.consistent and r.samples == 200,
                      lambda r: _periods(I, J))
    raise ValueError(kind)

