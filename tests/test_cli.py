import json
import math
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitprod import cli
from digitprod.cli import main, parse_complex, parse_spec, render_complex, render_spec
from digitprod.digits import DigitStat, _stat_record, digits_of
from digitprod.errors import ParseError, ValidationError
from digitprod.identities import catalog, r_product_spec
from digitprod.products import Factor, ProductSpec, evaluate_moments
from digitprod.sequences import (DigitStatPower, PeriodicPower, SignedResidue,
                                 StronglyMultiplicative, thue_morse_seq)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_complex_forms():
    cases = {
        "1": 1 + 0j,
        "-1": -1 + 0j,
        "i": 1j,
        "-i": -1j,
        "2i": 2j,
        "0.5+0.5i": 0.5 + 0.5j,
        "1-i": 1 - 1j,
        " 1 + 2 i ": 1 + 2j,
        "1e-3": 1e-3 + 0j,
    }
    for text, expected in cases.items():
        assert parse_complex(text) == expected
    with pytest.raises(ParseError):
        parse_complex("one")
    with pytest.raises(ParseError):
        parse_complex("")


def test_render_complex_round_trip():
    for z in (1, -1, 1j, -1j, 2j, 0.5 + 0.5j, 1 - 1j, -0.25, 3 - 2j, 0):
        assert parse_complex(render_complex(complex(z))) == complex(z)


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(finite_floats, finite_floats)
def test_render_complex_round_trip_random(re_part, im_part):
    z = complex(re_part, im_part)
    assert parse_complex(render_complex(z)) == z


def test_parse_woods_robbins():
    spec = parse_spec("base=2; exponent=count_digit_pow(-1,1); factors=1:1")
    assert spec == ProductSpec(
        2, [Factor(1, 1.0)], DigitStatPower(2, -1.0, DigitStat.count(1))
    )


def test_parse_sum_digits_b6():
    spec = parse_spec("base=6; exponent=digit_sum_pow(-1); factors=1:1,3:1,5:1")
    assert isinstance(spec, ProductSpec)
    assert spec.base == 6
    assert [f.residue for f in spec.factors] == [1, 3, 5]


def test_parse_defaults_to_unit_multiplier():
    spec = parse_spec("base=2; exponent=thue_morse; factors=1")
    assert spec.factors[0].multiplier == 1


def test_parse_bare_sequence():
    seq = parse_spec("base=5; exponent=periodic_pow(4,1)")
    assert seq == PeriodicPower(5, 4, 1)


def test_parse_table():
    seq = parse_spec("base=3; exponent=table(0.5,-0.5)")
    assert seq == StronglyMultiplicative(3, (0.5, -0.5))
    assert render_spec(seq) == "base=3; exponent=table(0.5,-0.5)"


def test_parse_errors():
    for text in (
        "exponent=thue_morse",
        "base=2",
        "base=x; exponent=thue_morse",
        "base=2; exponent=unknown_kind(1)",
        "base=2; exponent=digit_sum_pow(1,2)",
        "base=2; exponent=thue_morse; factors=a:1",
        "base=2; exponent=thue_morse; nonsense=1",
        "base=2; base=3; exponent=thue_morse",
    ):
        with pytest.raises(ParseError):
            parse_spec(text)
    # each refusal branch of the grammar, by its message
    for text, message in (
        ("base=2; exponent=digit_sum_pow(1", "bad exponent specification"),
        ("base=3; exponent=count_digit_pow(-1,x)", "bad digit 'x'"),
        ("base=3; exponent=count_set_pow(-1,1|2)", "expected J=j1|j2|..."),
        ("base=3; exponent=count_set_pow(-1,J=1|x)", "bad digit set 'J=1|x'"),
        ("base=5; exponent=periodic_pow(4,one)", "bad periodic_pow arguments '4,one'"),
        ("base=3; exponent=table()", "table needs at least one value"),
        ("base=2; exponent=thue_morse; factors=1,,2", "empty factor entry"),
        ("base=2; exponent=thue_morse; factors", "expected key=value, got 'factors'"),
    ):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_spec(text)
    # an empty segment is skipped
    assert parse_spec("base=2;; exponent=thue_morse") == thue_morse_seq()
    with pytest.raises(ValidationError):
        parse_spec("base=1; exponent=thue_morse")
    with pytest.raises(ValidationError):
        parse_spec("base=2; exponent=count_digit_pow(-1,7); factors=1:1")


def test_render_round_trip_over_catalog():
    seen = set()
    for claim in catalog():
        for part in claim.parts:
            spec = part.spec
            if spec in seen:
                continue
            seen.add(spec)
            assert parse_spec(render_spec(spec)) == spec


@pytest.mark.parametrize("base", [3, 4])
def test_render_thue_morse_under_another_base(base):
    spec = parse_spec(f"base={base}; exponent=thue_morse; factors=1")
    assert spec.seq.base == 2
    text = render_spec(spec)
    assert text == f"base={base}; exponent=thue_morse; factors=1:1"
    assert parse_spec(text) == spec
    # a bare sequence keeps its own base
    assert render_spec(spec.seq) == "base=2; exponent=count_digit_pow(-1,1)"


def test_render_refuses_what_the_grammar_cannot_state():
    with pytest.raises(ValidationError, match="start"):
        render_spec(r_product_spec())
    with pytest.raises(ValidationError, match="no grammar for sequence SignedResidue"):
        render_spec(SignedResidue(3, (1.0, -1.0)))
    with pytest.raises(ValidationError, match="base-3"):
        render_spec(
            ProductSpec(9, [Factor(1)], DigitStatPower(3, 0.5, DigitStat.digit_sum()))
        )


def test_cli_digits(capsys):
    code, out = run(capsys, ["digits", "--n", "13", "--base", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1101"
    assert "digit_sum=3" in lines[1]
    assert "count[0]=1" in lines[1]


def test_cli_digits_json(capsys):
    code, out = run(capsys, ["digits", "--n", "13", "--base", "2", "--output", "json"])
    payload = json.loads(out)
    assert payload["digits"] == "1101"
    assert payload["thue_morse"] == -1


def test_cli_digits_reads_one_digit_list(capsys):
    # one count per digit of base 4096 must not build a level table each
    n = 10**60 + 12345
    before = _stat_record.cache_info().currsize
    code, out = run(capsys, ["digits", "--n", str(n), "--base", "4096", "--output", "json"])
    assert code == 0
    assert _stat_record.cache_info().currsize == before
    payload = json.loads(out)
    ds = digits_of(n, 4096)
    assert payload["length"] == len(ds) and payload["digit_sum"] == sum(ds)
    assert payload["counts"] == {str(j): ds.count(j) for j in range(4096)}


def test_cli_eval_json_fields(capsys):
    code, out = run(
        capsys,
        [
            "eval",
            "--spec",
            "base=2; exponent=count_digit_pow(-1,1); factors=1:1",
            "--terms",
            "100000",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "value_re",
        "value_im",
        "log_re",
        "log_im",
        "err_est",
        "terms",
        "method",
    }
    assert payload["value_re"] == pytest.approx(2**-0.5, rel=1e-5)


def test_cli_eval_method_moments(capsys):
    argv = ["eval", "--spec", "base=5; exponent=periodic_pow(4,1); factors=1:1-i,2:2,3:1+i",
            "--terms", "100000"]
    code, out = run(capsys, [*argv, "--method", "abel"])
    assert code == 0
    assert json.loads(out)["method"] == "abel"
    assert main([*argv, "--method", "abel+extrapolation"]) == 2
    code, out = run(capsys, argv)  # the default method
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "moments"
    assert payload["terms"] == 5**5
    assert payload["log_re"] == pytest.approx(-math.log(5), abs=1e-14)
    assert abs(payload["log_im"]) <= 1e-14
    assert 0 < payload["err_est"] <= 1e-13


def test_cli_eval_complex_multipliers_hit_closed_form(capsys):
    # base-5 fourth-root spec with multipliers 1 - i**k: the complex log of
    # the product is -log(5), so the value is 1/5 with tiny imaginary part
    code, out = run(
        capsys,
        [
            "eval",
            "--spec",
            "base=5; exponent=periodic_pow(4,1); factors=1:1-i,2:2,3:1+i",
            "--terms",
            "100000",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["log_re"] == pytest.approx(-math.log(5), abs=1e-6)
    assert abs(payload["log_im"]) <= 1e-6
    assert payload["value_re"] == pytest.approx(0.2, abs=1e-6)


def test_cli_eval_plain_and_csv_outputs(capsys):
    argv = [
        "eval",
        "--spec",
        "base=2; exponent=thue_morse; factors=1:1",
        "--terms",
        "10000",
    ]
    code, out = run(capsys, argv + ["--output", "plain"])
    assert code == 0
    assert any(line.startswith("value_re=") for line in out.splitlines())
    code, out = run(capsys, argv + ["--output", "csv"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert "value_re" in header.split(",")
    assert len(header.split(",")) == len(row.split(","))


def test_cli_eval_deterministic_output(capsys):
    argv = [
        "eval",
        "--spec",
        "base=2; exponent=digit_sum_pow(0.5); factors=1:1",
        "--terms",
        "200000",
        "--threads",
        "3",
    ]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_cli_verify_pass_and_fail(capsys):
    code, _ = run(capsys, ["verify", "--claim", "woods_robbins", "--terms", "100000"])
    assert code == 0
    # a budget of 27 terms leaves a ~1e-10 error: it fails a 1e-15 override
    # tolerance and passes a loose one
    argv = ["verify", "--claim", "eta_count_b3", "--terms", "27", "--tol"]
    code, _ = run(capsys, [*argv, "1e-15"])
    assert code == 1
    code, _ = run(capsys, [*argv, "1e-6"])
    assert code == 0


def test_cli_divergent_spec_exit_3(capsys):
    code, _ = run(
        capsys,
        [
            "eval",
            "--spec",
            "base=2; exponent=count_set_pow(-1,J=0|1); factors=0:1,1:1",
            "--terms",
            "1000",
        ],
    )
    assert code == 3


def test_naive_evaluates_a_spec_without_digit_recursion(capsys):
    # omega**n with omega = exp(2*pi*i/3) has no base-2 digit recursion, so
    # abel and moments refuse it and only the plain truncated sum serves it.
    # Split n = 3m + r: the product is prod_r (Gamma((2r+2)/6) /
    # Gamma((2r+1)/6))**(omega**r); the divergent parts cancel as sum omega**r = 0
    spec = "base=2; exponent=periodic_pow(3,1); factors=1"
    argv = ["eval", "--spec", spec, "--terms", "100000", "--method"]
    for method in ("abel", "moments"):
        assert main([*argv, method]) == 3
    code, out = run(capsys, [*argv, "naive"])
    assert code == 0
    payload = json.loads(out)
    omega = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    expected = sum(
        omega**r * (math.lgamma((2 * r + 2) / 6) - math.lgamma((2 * r + 1) / 6))
        for r in range(3)
    )
    # the truncation error is ~0.29/N
    assert abs(complex(payload["log_re"], payload["log_im"]) - expected) <= 3e-6


def test_cli_table_exceeding_unit_bound_exit_3(capsys):
    code, _ = run(
        capsys,
        ["eval", "--spec", "base=2; exponent=table(2); factors=1:1", "--terms", "1000"],
    )
    assert code == 3


def test_cli_overflowing_table_exit_2(capsys):
    code, _ = run(
        capsys,
        ["eval", "--spec", "base=3; exponent=table(1e308,1); factors=1:1",
         "--terms", "1000"],
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--spec", "base=2; exponent=thue_morse; factors=1:1"],
        ["eval", "--method", "naive", "--spec", "base=2; exponent=thue_morse; factors=1:1"],
        ["verify", "--claim", "woods_robbins"],
        ["verify-all"],
        ["estimate", "qr"],
    ],
    ids=["eval", "eval-naive", "verify", "verify-all", "estimate"],
)
def test_cli_terms_beyond_exact_index_cap_exit_2(capsys, argv):
    code = main([*argv, "--terms", str(2**53 // 2 + 1)])
    assert code == 2
    assert "2**53" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--spec", "base=2; exponent=thue_morse; factors=1:1"],
        ["verify", "--claim", "woods_robbins"],
        ["verify-all"],
        ["estimate", "qr"],
    ],
    ids=["eval", "verify", "verify-all", "estimate"],
)
def test_cli_negative_threads_exit_2(capsys, argv):
    code = main([*argv, "--terms", "3000", "--threads", "-1"])
    assert code == 2
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--claim", "woods_robbins", "--output", "csv"],
        ["estimate", "qr", "--output", "csv"],
        ["verify-all", "--output", "csv"],
        ["summatory", "--spec", "base=2; exponent=thue_morse", "--output", "plain"],
        ["summatory", "--spec", "base=2; exponent=thue_morse", "--threads", "-5"],
    ],
    ids=["verify-csv", "estimate-csv", "verify-all-csv", "summatory-plain",
         "summatory-threads"],
)
def test_cli_options_a_command_does_not_render_exit_2(capsys, argv):
    code, out = run(capsys, [*argv, "--terms", "3000"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv, log", [
    *[(["eval", "--method", method, "--spec",
        "base=2; exponent=thue_morse; factors=1:-3000", "--terms", "100000"],
       "1039.72077083991") for method in ("moments", "abel", "naive")],
    (["gamma", "--quotient", "a=150,150;b=1e-300,300"], "899.95865425797"),
    (["gamma", "--quotient", "a=150,150;b=1e-300,300", "--terms", "10"],
     "899.95865425797"),
], ids=["eval-moments", "eval-abel", "eval-naive", "gamma", "gamma-partial"])
def test_cli_value_overflowing_a_float_exit_2(capsys, argv, log):
    # a finite log whose exponential is no float: a domain error, not a
    # failed verification
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "overflows a float" in lines[0] and log in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "woods_robbins", "--terms", "1000", "--tol", "inf"],
    ["eval", "--method", "naive", "--spec", "base=2; exponent=table(1e308); factors=1",
     "--terms", "100"],
], ids=["verify-tol-inf", "eval-naive-overflow"])
def test_cli_json_output_is_strict_or_exit_2(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 2
    assert out == ""


def test_cli_emit_json_refuses_non_finite_numbers(capsys):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="not valid JSON"):
            cli._emit_json({"x": value})
    assert capsys.readouterr().out == ""


def test_cli_budget_below_the_moment_method_exit_2(capsys):
    # base 5 is the first catalog base whose least budget 5**2 exceeds 10
    code = main(["verify-all", "--terms", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: n_terms = 10 is below 25, the least budget of the moment "
        "method in base 5\n")


def test_cli_usage_errors(capsys):
    code, _ = run(capsys, ["eval", "--terms", "100"])
    assert code == 2
    code, _ = run(capsys, ["verify", "--claim", "no_such_claim"])
    assert code == 2
    code, _ = run(capsys, ["eval", "--spec", "base=2; exponent=table(2)", "--terms", "10"])
    assert code == 2  # no factors: not a product
    code, _ = run(capsys, ["estimate", "nothing", "--terms", "2000"])
    assert code == 2


@pytest.mark.parametrize("literal", ["nan", "inf", "1e999", "nan+1i"])
def test_cli_non_finite_literals_exit_2(capsys, literal):
    with pytest.raises(ParseError):
        parse_complex(literal)
    for spec in (
        f"base=2; exponent=thue_morse; factors=1:{literal}",
        f"base=2; exponent=digit_sum_pow({literal}); factors=1",
    ):
        code, out = run(capsys, ["eval", "--spec", spec, "--terms", "1000"])
        assert code == 2
        assert out == ""


def test_cli_summatory_csv(capsys):
    code, out = run(
        capsys,
        ["summatory", "--spec", "base=2; exponent=digit_sum_pow(0.5)", "--terms", "4096"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,re_F,im_F,abs_F,ratio"
    assert len(lines) == 13  # powers of 2 from 2 to 4096
    first = lines[1].split(",")
    assert first[0] == "2"
    assert float(first[1]) == 1.5  # u(0) + u(1) = 1 + 1/2


def test_cli_summatory_beyond_float_range(capsys):
    # N = 999**133 > 1.8e308 is no float; (-1)**n sums to 1 over odd N
    code, out = run(capsys, ["summatory", "--spec",
                             "base=999; exponent=periodic_pow(2,1)",
                             "--terms", str(10**400)])
    assert code == 0
    n, re_f, _, _, ratio = out.strip().splitlines()[-1].split(",")
    assert int(n) == 999**133 and float(re_f) == 1.0
    assert float(ratio) == pytest.approx(math.exp(-0.5 * math.log(999**133)))


@pytest.mark.parametrize("base", [10, 63, 100])
def test_cli_summatory_seed_at_twice_the_base(capsys, base):
    # no n in [B, 2B) avoids digit 1, so the seed is 2B; F(B**j) counts the
    # n < B**j without a digit 1: (B - 1)**j
    code, out = run(capsys, ["summatory", "--spec",
                             f"base={base}; exponent=count_digit_pow(0,1)",
                             "--terms", str(base**4)])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [base**j for j in range(1, 5)]
    assert [(float(row[1]), float(row[2])) for row in rows] == [
        (float((base - 1)**j), 0.0) for j in range(1, 5)]


def test_cli_summatory_non_finite_partial_sum_exit_2(capsys):
    # F(100**j) = 95.2**j overflows a float from j = 156
    code, out = run(capsys, ["summatory", "--spec",
                             "base=100; exponent=digit_sum_pow(0.999)",
                             "--terms", str(10**400)])
    assert code == 2
    assert out == ""


def test_cli_summatory_first_non_finite_partial_sum_is_named(capsys):
    # F(2**j) = 1.99**j is finite up to j = 1031; every later checkpoint is
    # computed too before the first non-finite row is refused
    code = main(["summatory", "--spec", "base=2; exponent=digit_sum_pow(0.99)",
                 "--terms", str(2**1100)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: partial sum F(N) is not finite at N = 2**1032\n"


def test_cli_summatory_modulus_overflowing_a_float_exit_2(capsys):
    # F(2**3821) = -1.217e308 + 1.544e308i is finite, but |F| is no float
    code = main(["summatory", "--spec", "base=2; exponent=digit_sum_pow(-0.2+0.9i)",
                 "--terms", str(2**4000)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: |F(N)| overflows a float at N = 2**3821")


@pytest.mark.parametrize("output", ["csv", "json"])
def test_cli_summatory_values_above_modulus_one_exit_2(capsys, output):
    # the float sums of u cancel (F(6) = 1 + 0.4 - 1e200 + 1e200 + 2 + 0 =
    # 3.4 reads 2.0), so summatory refuses |u| > 1 with eval's message
    spec = "base=6; exponent=table(0.4,-1e200,1e200,2,0)"
    errors = []
    for argv in (["summatory", "--spec", spec, "--output", output],
                 ["eval", "--spec", f"{spec}; factors=1"]):
        assert main([*argv, "--terms", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1] == "error: sequence values exceed modulus 1\n"


@pytest.mark.parametrize("output, expected", [
    ("csv", "N,re_F,im_F,abs_F,ratio\n"), ("json", "[]\n")], ids=["csv", "json"])
@pytest.mark.parametrize("terms", ["0", "3"])
def test_cli_summatory_below_the_base_has_no_rows(capsys, output, expected, terms):
    code, out = run(capsys, ["summatory", "--spec", "base=4; exponent=thue_morse",
                             "--terms", terms, "--output", output])
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("output", ["csv", "json"])
def test_cli_summatory_negative_terms_exit_2(capsys, output):
    code, out = run(capsys, ["summatory", "--spec", "base=2; exponent=thue_morse",
                             "--terms", "-5", "--output", output])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("factors", ["", "; factors=1"])
def test_cli_summatory_bare_thue_morse_takes_the_stated_base(capsys, factors):
    # Thue-Morse keeps a digit recursion in base 4 = 2**2, and none in base 3
    code, out = run(capsys, ["summatory", "--spec", f"base=4; exponent=thue_morse{factors}",
                             "--terms", "100"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [4, 16, 64]
    code, out = run(capsys, ["summatory", "--spec", f"base=3; exponent=thue_morse{factors}",
                             "--terms", "100"])
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("exponent, message", [
    # v is read at n0 = 1, so the recursion first breaks at n = 2
    ("base=5; exponent=periodic_pow(3,1)", "digit recursion fails at n=2, k=0 (deviation 1.732e+00)"),
    ("base=3; exponent=thue_morse", "a base-2 digit family has no digit recursion in base 3"),
])
def test_cli_sequences_without_a_usable_recursion_exit_3(capsys, exponent, message):
    for argv in (["eval", "--method", "moments", "--spec", f"{exponent}; factors=1",
                  "--terms", "1000"],
                 ["summatory", "--spec", exponent, "--terms", "1000"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("method", ["moments", "abel", "naive"])
def test_cli_eval_one_then_zeros_is_one_half(capsys, method):
    # u = 1, 0, 0, ...: the product is its n = 0 factor, 1/2, and its digit
    # recursion holds with v = 0
    spec = "base=2; exponent=count_digit_pow(0,1); factors=1"
    code, out = run(capsys, ["eval", "--spec", spec, "--method", method,
                             "--terms", "1000", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["log_re"] == -math.log(2) and payload["log_im"] == 0.0
    assert abs(payload["log_re"] + math.log(2)) <= payload["err_est"]


def test_cli_summatory_one_then_zeros(capsys):
    code, out = run(capsys, ["summatory", "--spec", "base=2; exponent=digit_sum_pow(0)",
                             "--terms", "1000"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [2**j for j in range(1, 10)]
    assert all(row[1:4] == ["1.0", "0.0", "1.0"] for row in rows)


def test_cli_eval_abstract_example_base_3(capsys):
    # prod ((3n+1)/(3n+2))**((-1)**N_1(n)) = 1/sqrt(3), N_1 the count of 1s
    spec = "base=3; exponent=count_digit_pow(-1,1); factors=1:1"
    code, out = run(capsys, ["eval", "--spec", spec])
    assert code == 0
    assert json.loads(out)["value_re"] == 0.5773502691896258


def test_cli_estimate_qr(capsys):
    code, out = run(capsys, ["estimate", "qr", "--terms", "100000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["product_check"] == pytest.approx(1.5, abs=1e-3)
    assert payload["Q"] > 0 and payload["R"] > 0


def test_cli_gamma_quotient(capsys):
    code, out = run(capsys, ["gamma", "--quotient", "a=1,1;b=0.5,1.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["limit"] == pytest.approx(1.5707963267948966, rel=1e-11)
    # comma separator between the lists is accepted too
    code, out = run(capsys, ["gamma", "--quotient", "a=1,1,b=0.5,1.5"])
    assert code == 0
    assert json.loads(out)["limit"] == payload["limit"]


@pytest.mark.parametrize(
    "quotient",
    ["a=1,x;b=0.5,1.5", "a=inf,1;b=inf,1", "a=1e308,1e308;b=1e308,1e308",
     "a=1e306,1;b=1e306,1"],
    ids=["not-a-number", "infinite", "sum-overflows", "log-gamma-overflows"],
)
def test_cli_gamma_quotient_bad_input_exit_2(capsys, quotient):
    code = main(["gamma", "--quotient", quotient])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_gamma_odd_base(capsys):
    # --terms is a moment-method budget; terms reports the 3**7 used
    code, out = run(capsys, ["gamma", "--odd-base", "3", "--terms", "1000000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["wallis"] == pytest.approx(1.5707963267948966, rel=1e-12)
    assert payload["pass"] is True
    assert payload["terms"] == 3**7
    assert payload["max_rel_err"] <= 1e-15
    assert payload["even_k_computed"] == pytest.approx(math.pi * math.sqrt(3) / 4, rel=1e-15)
    assert payload["odd_k_computed"] == pytest.approx(2 / math.sqrt(3), rel=1e-15)


def _odd_base_side(base, parity):
    # prod over k = parity, parity + 2, ... < B of prod_{n >= 1}
    # ((B n + k) / (B n + k + 1))**(-1)**n
    return ProductSpec(base, [Factor(k, 1, 1) for k in range(parity, base, 2)],
                       PeriodicPower(base, 2, 1))


@pytest.mark.parametrize("base", [*range(3, 22, 2), 101])
def test_cli_gamma_odd_base_through_the_moments(capsys, base):
    code, out = run(capsys, ["gamma", "--odd-base", str(base), "--terms", str(10**6)])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["max_rel_err"] <= 1e-15
    for parity, key in ((0, "even_k"), (1, "odd_k")):
        side = evaluate_moments(_odd_base_side(base, parity), 10**6)
        assert side.terms == payload["terms"]
        assert side.value.real == payload[f"{key}_computed"]
        assert abs(side.log_value - math.log(payload[key])) <= side.err_est


def test_cli_gamma_odd_base_budget_below_the_moment_method_exit_2(capsys):
    code = main(["gamma", "--odd-base", "3", "--terms", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: n_terms = 2 is below 9, the least budget of the moment "
        "method in base 3\n")


def test_cli_gamma_odd_base_truncating_budget_exit_1(capsys):
    # 9 = 3**2 is accepted, but its tail bound leaves a relative 8.7e-6
    code, out = run(capsys, ["gamma", "--odd-base", "3", "--terms", "9"])
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["terms"] == 9
    assert 1e-12 < payload["max_rel_err"] < 1e-4


@pytest.mark.slow
def test_cli_verify_all_passes_at_default_terms(capsys):
    code, out = run(capsys, ["verify-all", "--terms", "1000000"])
    assert code == 0
    pass_lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(pass_lines) >= 14
    assert not any(l.startswith("FAIL") for l in out.splitlines())


def test_cli_verify_all_fails_under_truncation(capsys):
    # 36 = 6**2 is the smallest budget every catalog base accepts; it leaves
    # a truncation error of up to ~1e-7
    code, out = run(capsys, ["verify-all", "--terms", "36"])
    assert code == 1
    assert any(l.startswith("FAIL") for l in out.splitlines())


def test_cli_readme_examples_run(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [l for l in block.splitlines() if l.startswith("digitprod ")]
    assert len(lines) >= 9
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"  # verify_all passed


def _run_child(*args):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import digitprod

    # the child imports the same package, installed or not
    src = str(Path(digitprod.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = _run_child("-m", "digitprod", "digits", "--n", "13", "--base", "2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1101"


def test_cli_import_loads_no_thread_pool():
    # concurrent.futures (with logging, queue, traceback) loads only when an
    # evaluation fans out to threads
    proc = _run_child(
        "-c",
        "import sys, digitprod.cli; print('concurrent.futures' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_spec_file(tmp_path, capsys):
    path = tmp_path / "spec.txt"
    path.write_text("base=2; exponent=count_digit_pow(-1,1); factors=1:1\n")
    code, out = run(capsys, ["eval", "--spec-file", str(path), "--terms", "10000"])
    assert code == 0
    assert json.loads(out)["value_re"] == pytest.approx(2**-0.5, rel=1e-3)


@pytest.mark.parametrize("command", ["eval", "summatory"])
def test_cli_spec_file_not_utf8_exit_2(tmp_path, capsys, command):
    path = tmp_path / "spec.txt"
    path.write_bytes(b"\xff\xfe bad")
    code = main([command, "--spec-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "UTF-8" in captured.err
