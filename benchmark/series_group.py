"""series_group: seeded Riordan elements over F_3, F_5 and Z.

The only workload where the series and group kernels do most of the
work.  Most operations run at N=12 (they set op_p50_ms), a share at N=48
(op_p90_ms) and a few at N=96, where the O(N^4) reversion inside rinv
and comp_inverse sets wall_s.  A kernel change that wins at one size and
loses at another therefore shows in a different metric.
"""

from __future__ import annotations

import oracles as orc
from literals import any_lit, elem_lit, malformed_payloads, nott_lit, unit_lit
from ops import cli_op, contract_ops, lib_op

RINGS = ("Fp:3", "Fp:5", "Z")
LIB_OPS = ("rmul", "rinv", "to_matrix", "compose", "comp_inverse", "inv_unit", "mul", "twist")
CLI_OPS = ("riordan-mul", "riordan-inv", "riordan-array", "series-compose", "series-compinv")

# Operations at N=96: (operation, ring).  Reversion over Z at N=96 takes
# seconds (coefficients grow to ~150 bits), so the two reversions run
# over F_5 and F_3 and the cheap products carry the Z share.
N96 = (("rinv", "Fp:5"), ("comp_inverse", "Fp:3"), ("rmul", "Z"), ("compose", "Z"),
       ("to_matrix", "Fp:3"), ("twist", "Fp:5"), ("mul", "Z"), ("inv_unit", "Z"))


def _args(rng, op, ring, n):
    """Payload literals an operation consumes, in call order."""
    if op in ("rmul", "riordan-mul"):
        return [elem_lit(rng, ring, n), elem_lit(rng, ring, n)]
    if op in ("rinv", "riordan-inv"):
        return [elem_lit(rng, ring, n)]
    if op in ("to_matrix", "riordan-array"):
        # the second literal is the oracle's test vector, not an argument
        return [elem_lit(rng, ring, n), any_lit(rng, ring, n)]
    if op in ("compose", "series-compose"):
        return [any_lit(rng, ring, n), nott_lit(rng, ring, n)]
    if op in ("comp_inverse", "series-compinv"):
        return [nott_lit(rng, ring, n)]
    if op == "inv_unit":
        return [unit_lit(rng, ring, n)]
    if op == "mul":
        return [any_lit(rng, ring, n), any_lit(rng, ring, n)]
    if op == "twist":
        return [unit_lit(rng, ring, n), nott_lit(rng, ring, n)]
    raise ValueError(op)


def generate(rng, tiny=False):
    plan = []
    for ring in RINGS:
        plan += [(op, ring, 12) for op in LIB_OPS] * (1 if tiny else 4)
        plan += [(op, ring, 12) for op in CLI_OPS]
    plan += [(op, ring, 48) for ring in RINGS[:1 if tiny else 3] for op in LIB_OPS]
    if not tiny:
        # the reversions at N=48 are the band op_p90_ms falls in
        plan += [(op, ring, 48) for ring in RINGS for op in ("rinv", "comp_inverse")] * 2
        plan += [(op, RINGS[k % 3], 48) for k, op in enumerate(CLI_OPS)]
        plan += [(op, ring, 96) for op, ring in N96]
    rng.shuffle(plan)
    return {
        "ops": [{"op": op, "ring": ring, "n": n, "args": _args(rng, op, ring, n)}
                for op, ring, n in plan],
        "probes": malformed_payloads(rng),
    }


def build(R, call, inputs):
    """Parse every literal (set-up), then return the batch's operations."""
    parsed = {}

    def parse(text):
        if text not in parsed:
            parsed[text] = R.parse_riordan(text) if text.startswith("riordan") else R.parse_series(text)
        return parsed[text]

    ops = []
    for spec in inputs["ops"]:
        args = [parse(t) for t in spec["args"]]
        ops.append(_op(R, spec, args))
    return ops + contract_ops(R, "series", inputs["probes"])


def _op(R, spec, args):
    op, n = spec["op"], spec["n"]
    ring = args[0].ring
    mod = ring.p
    label = f"{op} {spec['ring']} n{n}"
    size = f"n{n}"
    one, x = orc.identity_coeffs(n, True), orc.identity_coeffs(n, False)

    def rmul_ok(r, a, b):
        return R.to_matrix(r, n + 1) == R.to_matrix(a, n + 1) * R.to_matrix(b, n + 1)

    def rinv_ok(r, a):
        return R.rmul(a, r) == R.RiordanElem.identity(ring, n)

    def matrix_ok(rows, a, f):
        # fundamental theorem of Riordan arrays: M(h, g) f = h * f(g)
        return orc.mat_vec(rows, f.coeffs, mod) == R.mul(a.h, R.compose(f, a.g)).coeffs

    def compose_ok(c, f, g):
        m = R.to_matrix(R.RiordanElem(R.UnitSeries.one(ring, n), g.as_nott()), n + 1)
        return c.coeffs == orc.mat_vec(m.entries, f.coeffs, mod)

    def compinv_ok(r, g):
        return R.compose(g, r).coeffs == x and R.compose(r, g).coeffs == x

    if op == "rmul":
        a, b = args
        return lib_op(label, f"group.rmul.{size}", R.rmul, (a, b), lambda r: rmul_ok(r, a, b))
    if op == "rinv":
        (a,) = args
        return lib_op(label, f"group.rinv.{size}", R.rinv, (a,), lambda r: rinv_ok(r, a))
    if op == "to_matrix":
        a, f = args
        return lib_op(label, f"group.to_matrix.{size}", R.to_matrix, (a, n + 1),
                      lambda m: matrix_ok(m.entries, a, f))
    if op == "compose":
        f, g = args
        return lib_op(label, f"series.compose.{size}", R.compose, (f, g), lambda c: compose_ok(c, f, g))
    if op == "comp_inverse":
        (g,) = args
        return lib_op(label, f"series.comp_inverse.{size}", R.comp_inverse, (g,),
                      lambda r: compinv_ok(r, g))
    if op == "inv_unit":
        (h,) = args
        return lib_op(label, f"series.inv_unit.{size}", R.inv_unit, (h,),
                      lambda r: orc.conv(h.coeffs, r.coeffs, mod) == one)
    if op == "mul":
        a, b = args
        return lib_op(label, f"series.mul.{size}", R.mul, (a, b),
                      lambda r: r.coeffs == orc.conv(a.coeffs, b.coeffs, mod))
    if op == "twist":
        h, g = args
        h, g = h.as_unit(), g.as_nott()
        return lib_op(label, f"series.twist.{size}", R.twist, (h, g),
                      lambda t: orc.conv(t.coeffs, h.coeffs, mod) == R.compose(h, g).coeffs)

    payload = "\n".join(spec["args"][:1] if op == "riordan-array" else spec["args"]) + "\n"
    if op == "riordan-mul":
        a, b = args
        return cli_op(R, [op], payload, 0, lambda out: rmul_ok(R.parse_riordan(out), a, b))
    if op == "riordan-inv":
        (a,) = args
        return cli_op(R, [op], payload, 0, lambda out: rinv_ok(R.parse_riordan(out), a))
    if op == "riordan-array":
        a, f = args
        return cli_op(R, [op, "--size", str(n + 1)], payload, 0, lambda out: matrix_ok(
            [[int(c) for c in row.split(",")] for row in out.splitlines()], a, f))
    if op == "series-compose":
        f, g = args
        return cli_op(R, [op], payload, 0, lambda out: compose_ok(R.parse_series(out), f, g))
    if op == "series-compinv":
        (g,) = args
        return cli_op(R, [op], payload, 0, lambda out: compinv_ok(R.parse_series(out), g))
    raise ValueError(op)

