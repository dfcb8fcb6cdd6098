import json
import math
import shlex
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitprod.cli import main, parse_complex, parse_spec, render_complex, render_spec
from digitprod.digits import DigitStat, _level_tables, digits_of
from digitprod.errors import ParseError, ValidationError
from digitprod.identities import catalog, r_product_spec
from digitprod.products import Factor, ProductSpec
from digitprod.sequences import DigitStatPower, PeriodicPower, StronglyMultiplicative


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
    before = _level_tables.cache_info().currsize
    code, out = run(capsys, ["digits", "--n", str(n), "--base", "4096", "--output", "json"])
    assert code == 0
    assert _level_tables.cache_info().currsize == before
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


def test_cli_summatory_non_finite_partial_sum_exit_2(capsys):
    # F(100**j) = 95.2**j overflows a float from j = 156
    code, out = run(capsys, ["summatory", "--spec",
                             "base=100; exponent=digit_sum_pow(0.999)",
                             "--terms", str(10**400)])
    assert code == 2
    assert out == ""


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
    code, out = run(capsys, ["gamma", "--odd-base", "3", "--terms", "100000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["wallis"] == pytest.approx(1.5707963267948966, rel=1e-12)
    assert payload["pass"] is True


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
