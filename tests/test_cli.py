"""Command-line surface: exact output pins, exit codes, determinism."""

import io
import subprocess
import sys
import time

from riordan import FiltrationSpec, cli, hausdorff_dim, parse_index_set, sigma_filtration_check
from riordan.cli import main

PASCAL5 = "riordan\nring=Fp:5; trunc=5; coeffs=1,1,1,1,1,1\nring=Fp:5; trunc=5; coeffs=0,1,1,1,1,1\n"
PAIR_3N_J = "T=0; except=; period=3; residues=0\nT=0; except=; period=9; residues=0,2,5,8\n"
PAIR_2N_N = "T=0; except=; period=2; residues=0\nT=0; except=; period=1; residues=0\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def payload(tmp_path, text, name="payload.txt"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_series_commands(capsys, tmp_path):
    two = payload(tmp_path, "ring=Z; trunc=4; coeffs=1,1,0,0,0\nring=Z; trunc=4; coeffs=1,-1,0,0,0\n")
    code, out, _ = run_cli(capsys, "series-mul", "--in", two)
    assert code == 0
    assert out == "ring=Z; trunc=4; coeffs=1,0,-1,0,0\n"
    code, out, _ = run_cli(capsys, "series-mul", "--human", "--in", two)
    assert (code, out) == (0, "1 - x^2\n")

    geo = payload(tmp_path, "ring=Z; trunc=6; coeffs=1,1,0,0,0,0,0\n")
    code, out, _ = run_cli(capsys, "series-inv", "--in", geo)
    assert out == "ring=Z; trunc=6; coeffs=1,-1,1,-1,1,-1,1\n"

    comp = payload(tmp_path, "ring=Fp:3; trunc=9; coeffs=1,0,0,1,0,0,0,0,0,0\nring=Fp:3; trunc=9; coeffs=0,1,0,1,0,0,0,0,0,0\n")
    code, out, _ = run_cli(capsys, "series-compose", "--in", comp)
    assert out == "ring=Fp:3; trunc=9; coeffs=1,0,0,1,0,0,0,0,0,1\n"

    cinv = payload(tmp_path, "ring=Z; trunc=5; coeffs=0,1,1,0,0,0\n")
    code, out, _ = run_cli(capsys, "series-compinv", "--in", cinv)
    assert out == "ring=Z; trunc=5; coeffs=0,1,-1,2,-5,14\n"


def test_riordan_mul_and_inv(capsys, tmp_path):
    a = "riordan\nring=Fp:3; trunc=4; coeffs=1,1,0,0,0\nring=Fp:3; trunc=4; coeffs=0,1,1,0,0\n"
    code, out, _ = run_cli(capsys, "riordan-mul", "--in", payload(tmp_path, a + a))
    assert code == 0
    assert out == "riordan\nring=Fp:3; trunc=4; coeffs=1,2,2,1,0\nring=Fp:3; trunc=4; coeffs=0,1,2,2,1\n"

    b = "riordan\nring=Fp:3; trunc=3; coeffs=1,1,0,0\nring=Fp:3; trunc=3; coeffs=0,1,1,0\n"
    code, inv_out, _ = run_cli(capsys, "riordan-inv", "--in", payload(tmp_path, b))
    assert inv_out == "riordan\nring=Fp:3; trunc=3; coeffs=1,2,2,1\nring=Fp:3; trunc=3; coeffs=0,1,2,2\n"
    # multiplying back yields the identity element
    code, out, _ = run_cli(capsys, "riordan-mul", "--in", payload(tmp_path, b + inv_out, "pair.txt"))
    assert out == "riordan\nring=Fp:3; trunc=3; coeffs=1,0,0,0\nring=Fp:3; trunc=3; coeffs=0,1,0,0\n"


def test_riordan_array(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "riordan-array", "--size", "6", "--in", payload(tmp_path, PASCAL5))
    rows = out.splitlines()
    assert code == 0
    assert rows[4] == "1,4,1,4,1,0"
    assert rows[5] == "1,0,0,0,0,1"
    small = "riordan\nring=Fp:3; trunc=3; coeffs=1,1,0,0\nring=Fp:3; trunc=3; coeffs=0,1,0,0\n"
    code, out, _ = run_cli(capsys, "riordan-array", "--size", "4", "--in", payload(tmp_path, small, "s.txt"))
    assert out == "1,0,0,0\n1,1,0,0\n0,1,1,0\n0,0,1,1\n"


def test_lcs_verify_lines(capsys):
    code, out, _ = run_cli(capsys, "lcs-verify", "--p", "3", "--level", "4", "--depth", "4")
    assert code == 0
    assert out.splitlines() == [
        "i=2 tau=2 brute_order=27 formula_order=27 PASS",
        "i=3 tau=3 brute_order=3 formula_order=3 PASS",
        "i=4 tau=5 brute_order=1 formula_order=1 PASS",
    ]
    code, out, _ = run_cli(capsys, "lcs-verify", "--p", "3", "--level", "4", "--depth", "3", "--human")
    assert out.splitlines() == [
        "gamma_2 at p=3, level=4: brute order 27, formula order 27 -> PASS",
        "gamma_3 at p=3, level=4: brute order 3, formula order 3 -> PASS",
    ]


def test_lcs_verify_reach_past_the_element_cap(capsys):
    # gamma_2 has 3^19 elements, far past the 2^20 enumeration cap; orders
    # come from the pc basis, equality from order plus containment
    code, out, _ = run_cli(capsys, "lcs-verify", "--p", "3", "--level", "12", "--depth", "6")
    assert code == 0
    assert out.splitlines() == [
        "i=2 tau=2 brute_order=1162261467 formula_order=1162261467 PASS",
        "i=3 tau=3 brute_order=129140163 formula_order=129140163 PASS",
        "i=4 tau=5 brute_order=1594323 formula_order=1594323 PASS",
        "i=5 tau=6 brute_order=177147 formula_order=177147 PASS",
        "i=6 tau=8 brute_order=2187 formula_order=2187 PASS",
    ]


def test_width_csv(capsys):
    code, out, _ = run_cli(capsys, "width", "--p", "3", "--level", "4", "--depth", "4")
    assert code == 0
    assert out.splitlines() == [
        "i,gamma_order,width,boundary_flag",
        "1,729,3,0",
        "2,27,2,0",
        "3,3,1,1",
        "4,1,0,1",
    ]


def test_gens_check_exit_codes(capsys, tmp_path):
    single = "riordan\nring=Fp:3; trunc=4; coeffs=1,1,0,0,0\nring=Fp:3; trunc=4; coeffs=0,1,0,0,0\n"
    code, out, _ = run_cli(capsys, "gens-check", "--p", "3", "--level", "4", "--in", payload(tmp_path, single))
    assert code == 1
    assert out.splitlines() == [
        "level=4 p=3 subgroup=closure order=9 generators=1",
        "group_order=729",
        "generates=false",
    ]
    three = (
        "riordan\nring=Fp:3; trunc=3; coeffs=1,1,0,0\nring=Fp:3; trunc=3; coeffs=0,1,0,0\n"
        "riordan\nring=Fp:3; trunc=3; coeffs=1,0,0,0\nring=Fp:3; trunc=3; coeffs=0,1,1,0\n"
        "riordan\nring=Fp:3; trunc=3; coeffs=1,0,0,0\nring=Fp:3; trunc=3; coeffs=0,1,0,1\n"
    )
    code, out, _ = run_cli(capsys, "gens-check", "--p", "3", "--level", "3", "--in", payload(tmp_path, three, "t.txt"))
    assert code == 0
    assert out.splitlines() == [
        "level=3 p=3 subgroup=closure order=81 generators=3",
        "group_order=81",
        "generates=true",
    ]


def test_hm_tower_sigma(capsys):
    code, out, _ = run_cli(capsys, "hm-check", "--p", "3", "--level", "4", "--m", "2")
    assert code == 0
    assert out.splitlines() == [
        "level=4 p=3 subgroup=H^2 order=9 generators=2",
        "expected_order=9",
        "matches=true",
    ]
    code, out, _ = run_cli(capsys, "tower-check", "--p", "2", "--level", "3")
    assert code == 0
    assert out.splitlines() == ["mode=exhaustive", "pairs=256", "surjective=true", "passed=true"]
    code, out, _ = run_cli(capsys, "sigma-check", "--p", "3", "--level", "5", "--i", "2", "--j", "2")
    assert code == 0
    assert out.splitlines() == [
        "i=2 j=2 commutator_order=3 target=H^4xN^4 target_order=9",
        "contained=true",
    ]


def test_admissible_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "admissible", "--p", "3", "--in", payload(tmp_path, PAIR_3N_J))
    assert code == 0
    assert out == "verdict=pass-up-to-bound bound=1000 condition2_certified=true\n"
    code, out, _ = run_cli(capsys, "admissible", "--p", "3", "--in", payload(tmp_path, PAIR_2N_N, "v.txt"))
    assert code == 1
    assert out == "verdict=violation bound=1000 condition=3 index=2 n=1 partner=1 value=3\n"


def test_admissible_reaches_bound_100000(capsys, tmp_path):
    # the scan decides each base from the classes of its dominated n, so it
    # no longer visits bound^1.63 (base, n) pairs
    code, out, err = run_cli(capsys, "admissible", "--p", "3", "--bound", "100000",
                             "--in", payload(tmp_path, PAIR_3N_J))
    assert (code, err) == (0, "")
    assert out == "verdict=pass-up-to-bound bound=100000 condition2_certified=true\n"


def test_admissible_reaches_bound_100000_past_a_threshold(capsys, tmp_path):
    # {6, 9, 12, ...} keeps threshold 4: bases past a target threshold take
    # the class path too, only the bases below it walk every dominated n
    pair = "T=4; except=; period=3; residues=0\nT=4; except=; period=3; residues=0\n"
    code, out, err = run_cli(capsys, "admissible", "--p", "3", "--bound", "100000",
                             "--in", payload(tmp_path, pair))
    assert (code, err) == (0, "")
    assert out == "verdict=pass-up-to-bound bound=100000 condition2_certified=true\n"


def test_density_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("T=0; except=; period=9; residues=0,2,5,8\n"))
    code, out, _ = run_cli(capsys, "density")
    assert (code, out) == (0, "density=4/9 ldense=4/9 udense=4/9\n")


def test_jxi_hdim_spectrum_classify(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "jxi", "--p", "3", "--xi", "1/9")
    assert (code, out) == (0, "T=0; except=; period=9; residues=8\ndensity=1/9\n")

    pair = payload(tmp_path, PAIR_3N_J)
    code, out, _ = run_cli(capsys, "hdim", "--p", "3", "--grid", "8", "--in", pair)
    assert code == 0
    assert out.splitlines() == [
        "n,numerator_count,denominator,estimate",
        "2,0,2,0.0000000000",
        "4,2,6,0.3333333333",
        "8,4,14,0.2857142857",
        "exact=7/18",
    ]
    code, out, _ = run_cli(capsys, "hdim", "--p", "3", "--grid", "8", "--filtration", "ceilhalf", "--in", pair)
    assert out.splitlines()[-1] == "exact=11/27"

    code, out, _ = run_cli(capsys, "spectrum", "--p", "3", "--family", "lattice", "--s", "1", "--r", "1", "--u", "1")
    assert code == 0
    assert out.splitlines() == [
        "family=lattice",
        "param_s=1",
        "param_r=1",
        "param_u=1",
        "I=T=0; except=; period=3; residues=0",
        "J=T=0; except=; period=1; residues=0",
        "dimension=2/3",
    ]

    cls = payload(tmp_path, "T=0; except=; period=9; residues=0\nT=0; except=; period=3; residues=0\n", "c.txt")
    code, out, _ = run_cli(capsys, "classify", "--p", "3", "--in", cls)
    assert (code, out) == (0, "case=2ii s=1 r=2 u=3 density=1/3\n")


def test_error_paths(capsys, tmp_path):
    code, _, err = run_cli(capsys, "spectrum", "--p", "3", "--family", "band", "--s", "3", "--xi", "1/9")
    assert code == 2
    assert err.startswith("error:")
    empty = payload(tmp_path, "\n")
    code, _, err = run_cli(capsys, "gens-check", "--p", "3", "--level", "3", "--in", empty)
    assert code == 2
    assert "riordan literals" in err
    code, _, err = run_cli(capsys, "series-mul", "--in", payload(tmp_path, "ring=Z; trunc=1; coeffs=1,junk\n", "j.txt"))
    assert code == 2
    assert err.startswith("error:")
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "hm-check", "--p", "3", "--level", "4")[0] == 2  # missing --m
    assert run_cli(capsys, "jxi", "--p", "3", "--xi", "1/6")[0] == 2
    for bound in ("0", "-5"):
        code, out, err = run_cli(capsys, "jxi", "--p", "3", "--xi", "1/9", "--emit-bound", bound)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "emit_bound" in err
    for argv in (
        ("jxi", "--p", "3", "--xi", "2/0"),
        ("spectrum", "--p", "5", "--family", "interval-point", "--xi", "3/0"),
        ("tower-check", "--p", "3", "--level", "4", "--samples", "-4"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        if "--xi" in argv:
            assert "--xi" in err and argv[-1] in err


def test_index_enumerations_past_the_cap_are_refused(capsys, tmp_path):
    # J(xi) with period 3^20, a pair whose set operations run over the lcm
    # of the periods (3000009 for the first one classify tries), and scans
    # over 2*bound or emit_bound integers
    far = payload(tmp_path, "T=0; except=; period=1000003; residues=0\nT=0; except=; period=1000033; residues=2\n")
    pair = payload(tmp_path, PAIR_3N_J, "pair.txt")
    for argv in (
        ("jxi", "--p", "3", "--xi", "1162261466/3486784401"),
        ("classify", "--p", "3", "--in", far),
        ("admissible", "--p", "3", "--bound", "1000000000000", "--in", pair),
        ("hdim", "--p", "3", "--bound", "1000000000000", "--in", pair),
        ("jxi", "--p", "3", "--xi", "1/9", "--emit-bound", "1000000000000"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "cap" in err


def test_quotient_enumerations_past_the_cap_are_refused(capsys, monkeypatch):
    # hm-check builds 3^18 twist candidates (the elements of H^2), and the
    # sampled tower check would draw 10^10 pairs
    for argv in (
        ("hm-check", "--p", "3", "--level", "20", "--m", "2"),
        ("tower-check", "--p", "3", "--level", "4", "--samples", "10000000000"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "cap" in err
    # the exhaustive tower check counts its 16^2 pairs against the same cap
    monkeypatch.setenv("RIORDAN_MAX_ELEMS", "100")
    code, out, err = run_cli(capsys, "tower-check", "--p", "2", "--level", "3")
    assert (code, out) == (2, "")
    assert "256 pairs" in err and "cap" in err


def test_malformed_quotient_payloads_build_no_group(capsys, monkeypatch):
    # The sample count, the exhaustive pair count p^(4(level-1)), the width
    # and lower-central-series depths, the prime of the closed form and the
    # gens-check payload are refused before any quotient (and its spot check)
    # is built.
    def built(self, p, level):
        raise AssertionError(f"QuotientGroup({p}, {level}) was built")

    monkeypatch.setattr(cli.QuotientGroup, "__init__", built)
    monkeypatch.delenv("RIORDAN_MAX_ELEMS", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    for argv, err in (
        (("tower-check", "--p", "3", "--level", "6"),
         "exhaustive tower check needs 3486784401 pairs (pass samples=); the cap is 1048576"),
        # counts past the interpreter's int-to-str limit of 4300 digits print as p^k
        (("tower-check", "--p", "3", "--level", "3000"),
         "exhaustive tower check needs 3^11996 pairs (pass samples=); the cap is 1048576"),
        (("hm-check", "--p", "3", "--level", "10000", "--m", "2"),
         "hm-check would build 3^9998 twist candidates; the cap is 1048576"),
        (("tower-check", "--p", "3", "--level", "6", "--samples", "-4"), "samples must be >= 1, got -4"),
        (("tower-check", "--p", "3", "--level", "4", "--samples", "10000000000"),
         "the tower check would draw 10000000000 sample pairs; the cap is 1048576"),
        (("width", "--p", "3", "--level", "4", "--depth", "0"), "depth must be >= 1"),
        (("lcs-verify", "--p", "3", "--level", "1500", "--depth", "1"), "depth must be >= 2"),
        (("lcs-verify", "--p", "2", "--level", "1500", "--depth", "3"),
         "the lower-central-series closed form requires p > 2; lower_central_series still works at p = 2"),
        # the empty payload on stdin
        (("gens-check", "--p", "3", "--level", "1500"), "riordan literals occupy 3 lines each (riordan / h / g)"),
        # the prime and the level are still checked first, then the closed form's prime
        (("tower-check", "--p", "4", "--level", "6", "--samples", "-4"), "modulus must be prime, got 4"),
        (("width", "--p", "3", "--level", "1", "--depth", "0"), "quotient level must be >= 2"),
        (("lcs-verify", "--p", "4", "--level", "1", "--depth", "1"), "modulus must be prime, got 4"),
        (("lcs-verify", "--p", "3", "--level", "1", "--depth", "1"), "quotient level must be >= 2"),
        (("lcs-verify", "--p", "2", "--level", "3", "--depth", "1"),
         "the lower-central-series closed form requires p > 2; lower_central_series still works at p = 2"),
        (("gens-check", "--p", "4", "--level", "1"), "modulus must be prime, got 4"),
        (("gens-check", "--p", "3", "--level", "1"), "quotient level must be >= 2"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"error: {err}\n"), argv


def test_lcs_verify_over_a_large_prime_is_cheap(capsys):
    # a pc slot takes its powers by square-and-multiply: O(log p) products
    for p in ("1000003", "1000000000000000003"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "lcs-verify", "--p", p, "--level", "3", "--depth", "2")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (0, f"i=2 tau=2 brute_order={p} formula_order={p} PASS\n", "")


def test_series_inverse_over_a_large_prime_is_cheap(capsys, monkeypatch):
    # primality of the modulus is decided by Miller-Rabin, not trial division
    literal = "ring=Fp:1000000000000000003; trunc=3; coeffs=1,1,0,0\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(literal))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "series-inv")
    assert time.perf_counter() - start < 1
    inverse = "ring=Fp:1000000000000000003; trunc=3; coeffs=1,1000000000000000002,1,1000000000000000002\n"
    assert (code, out, err) == (0, inverse, "")


CEILHALF_TABLE = "# n sigma(n)\n" + "".join(f"{n} {(n + 1) // 2}\n" for n in range(1, 17))


def test_table_filtrations(capsys, tmp_path):
    table = payload(tmp_path, CEILHALF_TABLE, "sigma.txt")
    spec = FiltrationSpec.from_table_lines(CEILHALF_TABLE.splitlines())
    I, J = (parse_index_set(line) for line in PAIR_3N_J.splitlines())
    report = hausdorff_dim(I, J, 3, filtration=spec)
    want = "n,numerator_count,denominator,estimate\n" + "".join(
        f"{r.n},{r.numerator},{r.denominator},{float(r.estimate):.10f}\n" for r in report.rows
    )
    code, out, err = run_cli(capsys, "hdim", "--p", "3", "--filtration", "table:" + table,
                             "--in", payload(tmp_path, PAIR_3N_J))
    assert (code, out, err) == (0, want + "exact=NA\n", "")
    assert [r.n for r in report.rows] == [2, 4, 8, 16]  # the table's domain caps the grid

    rep = sigma_filtration_check(3, 6, spec.value, 2, 3)
    code, out, err = run_cli(capsys, "sigma-check", "--p", "3", "--level", "6", "--i", "2", "--j", "3",
                             "--filtration", "table:" + table)
    assert (code, err) == (0 if rep.contained else 1, "")
    assert out == (
        f"i=2 j=3 commutator_order={rep.commutator_order} target={rep.target_name} "
        f"target_order={rep.target_order}\ncontained={'true' if rep.contained else 'false'}\n"
    )


def test_bad_filtrations_exit_2(capsys, tmp_path):
    pair = payload(tmp_path, PAIR_3N_J)
    bad = {  # --filtration value: what the error names
        "bogus": "filtration must be",
        "table:" + payload(tmp_path, "1 1\n2 1 1\n", "three.txt"): "malformed table line",
        "table:" + payload(tmp_path, "1 1\n2 3\n3 3\n", "superadd.txt"): "subadditive",
        "table:" + str(tmp_path / "absent.txt"): "absent.txt",
    }
    for filtration, named in bad.items():
        for argv in (
            ("hdim", "--p", "3", "--filtration", filtration, "--in", pair),
            ("sigma-check", "--p", "3", "--level", "5", "--i", "1", "--j", "2", "--filtration", filtration),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and named in err


def test_output_is_deterministic(capsys, tmp_path):
    pair = payload(tmp_path, PAIR_3N_J)
    first = run_cli(capsys, "hdim", "--p", "3", "--grid", "16", "--in", pair)
    second = run_cli(capsys, "hdim", "--p", "3", "--grid", "16", "--in", pair)
    assert first == second
    assert run_cli(capsys, "lcs-verify", "--p", "3", "--level", "4", "--depth", "4") == run_cli(
        capsys, "lcs-verify", "--p", "3", "--level", "4", "--depth", "4"
    )


def test_parser_is_built_once_per_process(capsys, monkeypatch, tmp_path):
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    pair = payload(tmp_path, PAIR_2N_N)
    codes = [
        run_cli(capsys, "jxi", "--p", "3", "--xi", "1/9")[0],
        run_cli(capsys, "hm-check", "--p", "3", "--level", "4")[0],
        run_cli(capsys, "--help")[0],
        run_cli(capsys, "jxi", "--p", "3", "--xi", "2/0")[0],
        run_cli(capsys, "admissible", "--p", "3", "--in", pair)[0],
        run_cli(capsys, "width", "--p", "3", "--level", "4", "--depth", "4")[0],
    ]
    assert codes == [0, 2, 0, 2, 1, 0]
    assert len(builds) == 1


def test_no_state_carries_over_between_calls(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "tower-check", "--p", "3", "--level", "4", "--samples", "5", "--seed", "9")
    assert (code, out.splitlines()[0]) == (0, "mode=sampled")
    code, out, _ = run_cli(capsys, "tower-check", "--p", "2", "--level", "3")
    assert (code, out) == (0, "mode=exhaustive\npairs=256\nsurjective=true\npassed=true\n")

    violating = payload(tmp_path, PAIR_2N_N)
    code, _, _ = run_cli(capsys, "hdim", "--p", "3", "--grid", "8", "--skip-admissible", "--in", violating)
    assert code == 0
    code, out, err = run_cli(capsys, "hdim", "--p", "3", "--grid", "8", "--in", violating)
    assert (code, out) == (2, "")
    assert err.startswith("error: pair is not admissible")


def test_help_and_usage_text_are_stable_across_calls(capsys):
    cli._parser.cache_clear()
    first_help = run_cli(capsys, "--help")
    first_usage = run_cli(capsys, "hm-check", "--p", "3", "--level", "4")
    for _ in range(5):
        run_cli(capsys, "jxi", "--p", "3", "--xi", "1/9")
        run_cli(capsys, "density", "--in", "/nonexistent/payload.txt")
    assert run_cli(capsys, "--help") == first_help
    assert run_cli(capsys, "hm-check", "--p", "3", "--level", "4") == first_usage
    assert first_help[0] == 0 and first_help[1].startswith("usage: riordan ")
    assert first_usage[:2] == (2, "")
    assert "the following arguments are required: --m" in first_usage[2]


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "riordan.cli", "density"],
        input="T=0; except=; period=3; residues=0\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "density=1/3 ldense=1/3 udense=1/3\n"


def test_one_line_density_payloads_are_cheap():
    # a huge period, or a long run of non-members below the threshold, must
    # cost O(|residues|), not O(period) or O(threshold)
    pins = {
        "T=0; except=; period=1000000000000000003; residues=5": "1/1000000000000000003",
        "T=1000000000000; except=; period=1; residues=": "0/1",
        "T=1000000000000000000; except=3; period=1000000000000000000; residues=5": "1/1000000000000000000",
    }
    for line, d in pins.items():
        proc = subprocess.run(
            [sys.executable, "-m", "riordan.cli", "density"],
            input=line + "\n",
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0
        assert proc.stdout == f"density={d} ldense={d} udense={d}\n"
