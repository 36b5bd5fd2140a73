"""quotient_lcs: lower central series, widths and generation in finite quotients.

Closure BFS (_extend), re-verification (_verify_closed) and
commutator_subgroup do almost all the work here; the series kernels run
only on tuples of length <= 9 and index_sets is idle.  Library
operations reuse one QuotientGroup per (p, level), built at set-up, while
the command-line operations build a fresh one per call, so a caching
change shows on the first path and not on the second.
"""

from __future__ import annotations

from itertools import product

import oracles as orc
from literals import elem_lit, malformed_payloads
from ops import cli_op, contract_ops, lib_op, pinned

FULL = {
    "lcs": ((3, 5, 4), (3, 6, 4), (3, 7, 4), (5, 4, 4), (5, 5, 4)),
    "width": ((3, 7, 7), (5, 5, 5), (5, 6, 6), (2, 8, 8)),
    "hm": ((3, 6), (2, 3, 4, 5)),
    "sigma": ((3, 6), 4),  # every (i, j) with i + j <= 4, both filtrations
    # 4000 sampled pairs at (3,5) take ~0.13 s, above every two-generator
    # check and level with the larger sigma and (5,5) checks; sixteen equal
    # towers are the band op_p90_ms falls in whichever way the coin-flip
    # three-generator checks go
    "tower": (((3, 5),) * 16, 4000),
    # (p, level): number of checks with 1, 2, 3 random generators.  Three
    # random generators usually generate, and a full closure at (3,6) or
    # (7,4) takes 3-5 s, so three-generator sets stay at (3,5); two of them
    # keep the coin flip from moving op_p90_ms.  The many one-generator
    # checks put op_p50_ms in the middle of the malformed-payload band.
    "gens": {(3, 5): (16, 6, 2), (5, 4): (16, 6, 0), (7, 4): (16, 4, 0), (3, 6): (16, 6, 0)},
    "cli-lcs": ((3, 5, 4), (5, 4, 4)),
    "cli-width": ((3, 5, 5), (5, 4, 4), (2, 6, 6)),
    "cli-gens": {(3, 5): 2, (5, 4): 2},
}
TINY = {
    "lcs": ((3, 4, 3),),
    "width": ((3, 4, 4), (2, 4, 4)),
    "hm": ((3, 5), (2, 3)),
    "sigma": ((3, 5), 3),
    "tower": (((3, 4),), 50),
    "gens": {(3, 4): (2, 2, 1)},
    "cli-lcs": ((3, 4, 3),),
    "cli-width": ((3, 4, 4),),
    "cli-gens": {(3, 4): 1},
}
SIGMA = {"identity": lambda n: n, "ceilhalf": lambda n: (n + 1) // 2}


def generate(rng, tiny=False):
    plan = TINY if tiny else FULL
    ops = [{"kind": "lcs", "p": p, "level": L, "depth": d} for p, L, d in plan["lcs"]]
    ops += [{"kind": "width", "p": p, "level": L, "depth": d} for p, L, d in plan["width"]]
    (p, L), ms = plan["hm"]
    ops += [{"kind": "hm", "p": p, "level": L, "m": m} for m in ms]
    (p, L), most = plan["sigma"]
    ops += [{"kind": "sigma", "p": p, "level": L, "filtration": name, "i": i, "j": j}
            for name in SIGMA for i, j in product(range(1, most), repeat=2) if i + j <= most]
    groups, samples = plan["tower"]
    ops += [{"kind": "tower", "p": p, "level": L, "samples": samples, "seed": rng.randrange(2**31)}
            for p, L in groups]
    for (p, L), counts in plan["gens"].items():
        for k, reps in enumerate(counts, start=1):
            ops += [{"kind": "gens", "p": p, "level": L, "elems": _elems(rng, p, L, k)}
                    for _ in range(reps)]
    ops += [{"kind": "cli-lcs", "p": p, "level": L, "depth": d} for p, L, d in plan["cli-lcs"]]
    ops += [{"kind": "cli-width", "p": p, "level": L, "depth": d} for p, L, d in plan["cli-width"]]
    for (p, L), reps in plan["cli-gens"].items():
        ops += [{"kind": "cli-gens", "p": p, "level": L, "elems": _elems(rng, p, L, 2)}
                for _ in range(reps)]
    rng.shuffle(ops)
    return {"ops": ops, "probes": malformed_payloads(rng)}


def _elems(rng, p, level, k):
    return [elem_lit(rng, f"Fp:{p}", level) for _ in range(k)]


def build(R, call, inputs):
    """Build one QuotientGroup per (p, level) and parse elements (set-up)."""
    groups = {}

    def group(p, level):
        if (p, level) not in groups:
            groups[p, level] = call("quotients.QuotientGroup", R.QuotientGroup, p, level)
        return groups[p, level]

    ops = []
    for spec in inputs["ops"]:
        ops.append(_op(R, spec, group))
    return ops + contract_ops(R, "quotient", inputs["probes"])


def _lcs_stdout(p, level, depth):
    return "".join(
        f"i={i} tau={orc.lcs_tau(i, p)} brute_order={orc.lcs_order(p, level, i)} "
        f"formula_order={orc.lcs_order(p, level, i)} PASS\n"
        for i in range(2, depth + 1)
    )


def _widths_ok(p, level, rows):
    """rows: (i, gamma_order, width, boundary_flag) from the report or the CSV."""
    orders = [o for _, o, _, _ in rows]
    if [i for i, _, _, _ in rows] != list(range(1, len(rows) + 1)):
        return False
    if p > 2:
        for i, o, w, flag in rows:
            want = orc.lcs_order(p, level, i)
            if (o, o // orc.lcs_order(p, level, i + 1), flag) != (
                    want, p**w, orc.lcs_tau(i + 1, p) + 1 > level):
                return False
            if not flag and w > 4:
                return False
        return True
    # p = 2 has no closed form: check the chain's own consistency
    if orders[0] != p ** (2 * (level - 1)) or not all(orc.is_power_of(o, p) for o in orders):
        return False
    for (_, o1, w, flag), o2 in zip(rows, orders[1:]):
        if o1 != o2 * p**w or flag != (o2 == 1):
            return False
    return True


def _width_csv(out):
    head, *lines = out.splitlines()
    if head != "i,gamma_order,width,boundary_flag":
        return None
    return [(i, o, w, bool(f)) for i, o, w, f in (map(int, ln.split(",")) for ln in lines)]


def _op(R, spec, group):
    kind, p, L = spec["kind"], spec["p"], spec["level"]
    label = f"{kind} ({p},{L})"
    if kind == "lcs":
        G, d = group(p, L), spec["depth"]
        want = [(i, orc.lcs_tau(i, p), orc.lcs_order(p, L, i), orc.lcs_order(p, L, i), True)
                for i in range(2, d + 1)]
        return lib_op(label, "quotients.verify_lcs_formula", R.verify_lcs_formula, (G, d),
                      lambda rows: [(r.i, r.tau, r.brute_order, r.formula_order, r.passed)
                                    for r in rows] == want,
                      lambda rows: {"quotients.elements_built": sum(r.brute_order for r in rows)})
    if kind == "width":
        G, d = group(p, L), spec["depth"]
        return lib_op(label, "quotients.width_report", R.width_report, (G, d),
                      lambda rows: len(rows) == d
                      and all(r.exceeds_bound == (r.width > 4) for r in rows)
                      and _widths_ok(p, L, [(r.i, r.gamma_order, r.width, r.boundary_flag)
                                            for r in rows]),
                      lambda rows: {"quotients.elements_built": sum(r.gamma_order for r in rows)})
    if kind == "hm":
        m = spec["m"]
        return lib_op(label + f" m={m}", "quotients.hm_generation_check", R.hm_generation_check,
                      (p, L, m),
                      lambda r: r.matches and r.closure_order == r.expected_order == p ** (L - m),
                      lambda r: {"quotients.elements_built": r.closure_order})
    if kind == "sigma":
        name, i, j = spec["filtration"], spec["i"], spec["j"]
        sigma = SIGMA[name]
        target = orc.band_order(p, L, sigma(i + j), i + j)
        return lib_op(f"{label} {name} {i},{j}", "quotients.sigma_filtration_check",
                      R.sigma_filtration_check, (p, L, sigma, i, j),
                      lambda r: r.contained and r.target_order == target
                      and orc.is_power_of(r.commutator_order, p) and target % r.commutator_order == 0,
                      lambda r: {"quotients.elements_built": r.commutator_order})
    if kind == "tower":
        hi, lo, n = group(p, L), group(p, L - 1), spec["samples"]
        # truncation is a surjective homomorphism: zero padding lifts every tuple
        return lib_op(label, "quotients.tower_consistency", R.tower_consistency,
                      (hi, lo, n, spec["seed"]),
                      lambda r: (r.passed, r.pairs_checked, r.mode, r.surjective)
                      == (True, n, "sampled", True))

    if kind == "cli-lcs":
        d = spec["depth"]
        return pinned(R, ["lcs-verify", "--p", str(p), "--level", str(L), "--depth", str(d)], "",
                      0, _lcs_stdout(p, L, d), "cli lcs-verify")
    if kind == "cli-width":
        d = spec["depth"]

        def width_out(out):
            rows = _width_csv(out)
            return rows is not None and len(rows) == d and _widths_ok(p, L, rows)

        argv = ["width", "--p", str(p), "--level", str(L), "--depth", str(d)]
        return cli_op(R, argv, "", 0, width_out)

    elems = [R.parse_riordan(t) for t in spec["elems"]]
    coords = [e.h.coeffs[1:L] + e.g.coeffs[2:L + 1] for e in elems]
    generates = orc.generates_by_burnside(coords, p, L)
    order = p ** (2 * (L - 1))

    def closure_ok(closure, group_order, gens_generate):
        return (group_order == order and gens_generate == generates
                and (closure == order) == generates and orc.is_power_of(closure, p)
                and (len(coords) > 1 or closure == _element_order(group(p, L), coords[0])))

    if kind == "gens":
        G = group(p, L)
        return lib_op(f"{label} k={len(elems)}", "quotients.generation_check", R.generation_check,
                      (G, elems), lambda r: closure_ok(r.closure_order, r.group_order, r.generates),
                      lambda r: {"quotients.elements_built": r.closure_order})
    if kind == "cli-gens":
        def gens_out(out):
            head, total, verdict = out.splitlines()
            fields = orc.key_values(head)
            return (fields["level"], fields["p"]) == (str(L), str(p)) and closure_ok(
                int(fields["order"]), int(total.split("=")[1]), verdict == "generates=true")

        argv = ["gens-check", "--p", str(p), "--level", str(L)]
        return cli_op(R, argv, "\n".join(spec["elems"]) + "\n", 0 if generates else 1, gens_out)

    raise ValueError(kind)


def _element_order(G, x):
    """Order of x by repeated p-th powers under the quotient law."""
    order, y = 1, x
    while y != G.identity:
        z = y
        for _ in range(G.p - 1):
            z = G.mul(z, y)
        y, order = z, order * G.p
    return order
