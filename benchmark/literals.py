"""Payload text: seeded literals, the README's pinned examples, malformed probes.

Generated inputs are plain strings and numbers, so a workload's inputs
serialize to JSON and hash to the same digest for the same seed.
"""

from __future__ import annotations


def coeff(rng, ring):
    """A random coefficient: uniform mod p, or in [-2, 2] over Z."""
    return rng.randint(-2, 2) if ring == "Z" else rng.randrange(int(ring[3:]))


def series_lit(ring, coeffs):
    return f"ring={ring}; trunc={len(coeffs) - 1}; coeffs={','.join(str(c) for c in coeffs)}"


def unit_lit(rng, ring, n):
    return series_lit(ring, [1] + [coeff(rng, ring) for _ in range(n)])


def nott_lit(rng, ring, n):
    return series_lit(ring, [0, 1] + [coeff(rng, ring) for _ in range(n - 1)])


def any_lit(rng, ring, n):
    return series_lit(ring, [coeff(rng, ring) for _ in range(n + 1)])


def elem_lit(rng, ring, n):
    return f"riordan\n{unit_lit(rng, ring, n)}\n{nott_lit(rng, ring, n)}"


# -- README examples, stdout byte for byte --------------------------------

PASCAL5 = (
    "riordan\n"
    "ring=Fp:5; trunc=5; coeffs=1,1,1,1,1,1\n"
    "ring=Fp:5; trunc=5; coeffs=0,1,1,1,1,1\n"
)
SINGLE_GEN = (
    "riordan\n"
    "ring=Fp:3; trunc=4; coeffs=1,1,0,0,0\n"
    "ring=Fp:3; trunc=4; coeffs=0,1,0,0,0\n"
)

# (argv, stdin payload, exit code, stdout)
README_PINS = {
    "series": [
        (["riordan-array", "--size", "6"], PASCAL5, 0,
         "1,0,0,0,0,0\n1,1,0,0,0,0\n1,2,1,0,0,0\n1,3,3,1,0,0\n1,4,1,4,1,0\n1,0,0,0,0,1\n"),
    ],
    "quotient": [
        (["lcs-verify", "--p", "3", "--level", "4", "--depth", "4"], "", 0,
         "i=2 tau=2 brute_order=27 formula_order=27 PASS\n"
         "i=3 tau=3 brute_order=3 formula_order=3 PASS\n"
         "i=4 tau=5 brute_order=1 formula_order=1 PASS\n"),
        (["width", "--p", "3", "--level", "4", "--depth", "4"], "", 0,
         "i,gamma_order,width,boundary_flag\n1,729,3,0\n2,27,2,0\n3,3,1,1\n4,1,0,1\n"),
        (["gens-check", "--p", "3", "--level", "4"], SINGLE_GEN, 1,
         "level=4 p=3 subgroup=closure order=9 generators=1\ngroup_order=729\ngenerates=false\n"),
    ],
    "index": [
        (["admissible", "--p", "3"],
         "T=0; except=; period=2; residues=0\nT=0; except=; period=1; residues=0\n", 1,
         "verdict=violation bound=1000 condition=3 index=2 n=1 partner=1 value=3\n"),
        (["density"], "T=0; except=; period=9; residues=0,2,5,8\n", 0,
         "density=4/9 ldense=4/9 udense=4/9\n"),
        (["jxi", "--p", "3", "--xi", "1/9"], "", 0,
         "T=0; except=; period=9; residues=8\ndensity=1/9\n"),
        (["spectrum", "--p", "3", "--family", "lattice", "--s", "1", "--r", "1", "--u", "1"], "", 0,
         "family=lattice\nparam_s=1\nparam_r=1\nparam_u=1\n"
         "I=T=0; except=; period=3; residues=0\nJ=T=0; except=; period=1; residues=0\n"
         "dimension=2/3\n"),
    ],
}


def malformed_payloads(rng):
    """(argv, payload, known defect?) for one malformed payload per class.

    The contract (README, exit codes) says each exits 2 with a message.
    Every front end is probed.  Three classes break the contract today
    and count as failed operations:
    ``jxi --xi k/0`` and ``spectrum --xi k/0`` escape as ZeroDivisionError,
    and ``tower-check --samples -k`` exits 0 reporting ``pairs=-k``.
    Literals whose rejection takes longer than a run (a period near 10^9,
    ``jxi --xi 1/3^32``, ``width --depth 10^9``) are not timed at all.
    """
    p = rng.choice((3, 5, 7))
    k = rng.randint(1, 9)
    ring = f"Fp:{p}"
    return [
        (["series-mul"], unit_lit(rng, ring, 4), False),
        (["series-inv"], series_lit(ring, [0, k % p, 1]), False),
        (["series-compose"], unit_lit(rng, ring, 3) + "\n" + unit_lit(rng, ring, 3), False),
        (["series-compinv"], series_lit(ring, [0, 1, 1]).replace("trunc=2", f"trunc={k + 3}"), False),
        (["riordan-mul"], elem_lit(rng, ring, 3) + "\n" + elem_lit(rng, "Z", 3), False),
        (["riordan-array", "--size", "0"], elem_lit(rng, ring, 3), False),
        (["lcs-verify", "--p", str(p + 1), "--level", "4", "--depth", "3"], "", False),
        (["width", "--p", str(p), "--level", "4", "--depth", "0"], "", False),
        (["hm-check", "--p", str(p), "--level", "5", "--m", "1"], "", False),
        (["tower-check", "--p", "3", "--level", "6"], "", False),
        (["tower-check", "--p", str(p), "--level", "4", "--samples", str(-k)], "", True),
        (["density"], f"T=0; except=; period=0; residues={k}", False),
        (["admissible", "--p", str(p), "--bound", str(k % 4)],
         "T=0; except=; period=1; residues=0\nT=0; except=; period=1; residues=0", False),
        (["jxi", "--p", str(p), "--xi", f"{p - 1}/{p}"], "", False),
        (["jxi", "--p", str(p), "--xi", f"{k}/0"], "", True),
        (["spectrum", "--p", str(p), "--family", "interval-point", "--xi", f"{k}/0"], "", True),
        (["classify", "--p", str(p)], f"T=0; except=; period={k}; residues=x", False),
    ]
