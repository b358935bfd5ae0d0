import csv
import math
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sl3maass import specfun
from sl3maass.cli import main
from sl3maass.coeffio import (CoefficientFileError, load_coefficient_file,
                              write_coefficient_file)
from sl3maass.langlands import LanglandsParams
from sl3maass.maass import expand_coefficients
from sl3maass.whittaker import (WhittakerArgs, default_stade_grid, w_eval, w_series_origin,
                                w_stade, w_stade_report)

PARAMS = ["--alpha-im", "-1.3", "--beta-im", "2.1"]
GEN_PARAMS = ["--alpha-im", "-3.7", "--beta-im", "1.2"]
LIFT_PARAMS = ["--alpha-im", "-19.06739", "--beta-im", "19.06739"]
README = Path(__file__).resolve().parent.parent / "README.md"


def printed_rows(out: str) -> dict:
    """label -> (value, err) of each value row a command printed."""
    rows = {}
    for line in out.splitlines():
        if "err~" in line:
            re_part, im_part, err, _ = line[28:].split()
            rows[line[:28].strip()] = (complex(float(re_part), float(im_part[:-1])),
                                       float(err.removeprefix("err~")))
    return rows


def write_sample_c1(path: Path, n_max: int = 12) -> Path:
    rng = np.random.default_rng(23)
    lines = ["# synthetic sample", "alpha_im -1.3", "beta_im 2.1", "gamma_im -0.8"]
    lines.append("c1 1 1.0 0.0")
    for n in range(2, n_max + 1):
        lines.append(f"c1 {n} {rng.normal(scale=0.5):.6f} {rng.normal(scale=0.5):.6f}")
    p = path / "sample_c1.txt"
    p.write_text("\n".join(lines) + "\n")
    return p


def test_whittaker_auto_routes_smallarg(capsys):
    rc = main(["whittaker", *PARAMS, "--y1", "0.05", "--y2", "3.0", "--algo", "auto"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[smallarg]" in out


def test_whittaker_stade_reports_its_step_rule(capsys, monkeypatch):
    # the printed value is one w_stade_report call on the default grid: its
    # step and node count are reported, the err column is its stated error
    # relative to |W| rounded up at the third digit, and that error covers
    # the value's distance from an eighth of the default step
    reads = []
    read = specfun._KTable.read

    def spy(table, x):  # both Bessel arguments of every node
        reads.append(x.size // 2)
        return read(table, x)

    monkeypatch.setattr(specfun._KTable, "read", spy)
    rc = main(["whittaker", *GEN_PARAMS, "--y1", "1.0", "--y2", "3.853", "--algo", "stade",
               "--digits", "17"])
    assert rc == 0
    out = capsys.readouterr().out
    settings = dict(line.strip().split(": ", 1) for line in out.splitlines()
                    if line.startswith("  "))
    p, a = LanglandsParams(-3.7, 1.2), WhittakerArgs(1.0, 3.853)
    grid = default_stade_grid(p, a)
    assert float(settings["h"]) == grid.h
    assert len(reads) == 1 and int(settings["nodes"]) == reads[0]
    v, err_log, _ = w_stade_report(p, a)
    stated = math.exp(err_log - v.log_abs())
    assert stated < 1e-12
    value, err = printed_rows(out)["unscaled value"]
    assert stated <= err < stated + 10.0 ** (math.floor(math.log10(stated)) - 2)
    ref = w_stade(p, a, replace(grid, h=grid.h / 8.0)).to_complex(extra_log=-p.scale_shift)
    assert abs(value - ref) <= err * abs(ref)


@pytest.mark.parametrize("y1, y2", [(3.0, 0.05), (0.8, 0.4)])
def test_whittaker_smallarg_runs_at_the_smaller_argument(y1, y2, capsys):
    # either order evaluates the series at the order w_eval routes, so the
    # two rows are conjugates bit for bit; the series in the larger
    # argument raised at (3.0, 0.05) and was 1.3e-12 off at (0.8, 0.4)
    rows = []
    for args in ((y1, y2), (y2, y1)):
        rc = main(["whittaker", *GEN_PARAMS, "--y1", str(args[0]), "--y2", str(args[1]),
                   "--algo", "smallarg", "--digits", "17"])
        assert rc == 0
        rows.append(printed_rows(capsys.readouterr().out))
    for label in ("scaled mantissa", "log scale", "unscaled value"):
        (v, err_v), (w, err_w) = rows[0][label], rows[1][label]
        assert (v, err_v) == (w.conjugate(), err_w), label


@pytest.mark.parametrize("algo", ["smallarg", "origin"])
def test_series_rows_state_a_true_error(algo, tmp_path, capsys):
    # at GEN (0.989, 1.257) the series cancel: smallarg printed err 2e-16
    # there, and origin 3.4e-6, for values 6.1e-10 and 1.9e-5 from w_stade.
    # In both argument orders the stated error, read at full precision from
    # the CSV file, covers the distance to a w_stade at a quarter step
    p = LanglandsParams(-3.7, 1.2)
    for y1, y2 in ((0.989, 1.257), (1.257, 0.989)):
        path = tmp_path / f"{y1}.csv"
        rc = main(["whittaker", *GEN_PARAMS, "--y1", str(y1), "--y2", str(y2),
                   "--algo", algo, "--csv", str(path)])
        assert rc == 0
        capsys.readouterr()
        with open(path, newline="") as fh:
            row = next(r for r in csv.DictReader(fh) if r["label"] == "unscaled value")
        value, err = complex(float(row["value_re"]), float(row["value_im"])), float(row["error"])
        a = WhittakerArgs(y1, y2)
        grid = default_stade_grid(p, a)
        ref = w_stade(p, a, replace(grid, h=grid.h / 4.0)).to_complex(extra_log=-p.scale_shift)
        assert abs(value - ref) <= err * abs(value), (y1, y2)


def test_printed_error_is_rounded_up(tmp_path, capsys):
    # at GEN (0.989, 1.257) smallarg states 6.07318e-10 and printed it to
    # nearest as err~6.07e-10, below the 6.0723e-10 its value lies from
    # w_stade: the console's three digits now round every err up
    path = tmp_path / "rows.csv"
    rc = main(["whittaker", *GEN_PARAMS, "--y1", "0.989", "--y2", "1.257",
               "--algo", "smallarg", "--csv", str(path)])
    assert rc == 0
    printed = printed_rows(capsys.readouterr().out)
    with open(path, newline="") as fh:
        stated = {r["label"]: float(r["error"]) for r in csv.DictReader(fh)}
    assert printed and printed.keys() == stated.keys()
    for label, (_, err) in printed.items():
        assert stated[label] <= err <= stated[label] * (1.0 + 2e-2), label
    p, a = LanglandsParams(-3.7, 1.2), WhittakerArgs(0.989, 1.257)
    grid = default_stade_grid(p, a)
    ref = w_stade(p, a, replace(grid, h=grid.h / 4.0)).to_complex(extra_log=-p.scale_shift)
    value, err = printed["unscaled value"]
    assert abs(value - ref) <= err * abs(value)


@pytest.mark.parametrize("params, p", [(GEN_PARAMS, LanglandsParams(-3.7, 1.2)),
                                       (LIFT_PARAMS, LanglandsParams(-19.06739, 19.06739))],
                         ids=["GEN", "LIFT"])
def test_whittaker_auto_prints_w_eval_bit_for_bit(params, p, capsys):
    # a series point, its mirror and an integral point
    for y1, y2, algo in ((0.3, 0.8, "smallarg"), (0.8, 0.3, "smallarg"), (1.5, 2.0, "stade")):
        rc = main(["whittaker", *params, "--y1", str(y1), "--y2", str(y2),
                   "--algo", "auto", "--digits", "17"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"[{algo}]" in out
        line = next(l for l in out.splitlines() if l.startswith("scaled value = "))
        mantissa, scale = line.removeprefix("scaled value = ").removesuffix(")").split("*exp(")
        w = w_eval(p, WhittakerArgs(y1, y2))
        assert (complex(mantissa), float(scale)) == (w.mantissa, w.log_scale), (y1, y2)


def test_whittaker_stade_origin_agree(capsys):
    vals = {}
    for algo in ("stade", "origin"):
        rc = main(["whittaker", "--alpha-im", "-19.06739", "--beta-im", "19.06739",
                   "--y1", "0.3", "--y2", "0.3", "--algo", algo, "--digits", "14"])
        assert rc == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("unscaled")][0]
        vals[algo] = line
        err_line = [l for l in out.splitlines() if "err~" in l][0]
        assert "err~" in err_line
    # printed error estimates are tiny, so the leading digits agree
    a = float(vals["stade"].split()[2])
    b = float(vals["origin"].split()[2])
    assert abs(a - b) <= 1e-8 * abs(a)


def test_whittaker_swapped_args_conjugate(capsys):
    outs = []
    for y1, y2 in ((0.05, 3.0), (3.0, 0.05)):
        rc = main(["whittaker", *PARAMS, "--y1", str(y1), "--y2", str(y2),
                   "--algo", "auto", "--digits", "14"])
        assert rc == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("unscaled")][0]
        outs.append((float(line.split()[2]), float(line.split()[3].rstrip("j"))))
    assert math.isclose(outs[0][0], outs[1][0], rel_tol=1e-12)
    assert math.isclose(outs[0][1], -outs[1][1], rel_tol=1e-12)


def test_xcheck_passes_and_fails(capsys):
    args = ["xcheck", *PARAMS, "--y-grid", "0.4,0.8"]
    assert main(args + ["--tol", "1e-6"]) == 0
    capsys.readouterr()
    # unachievable tolerance at binary64 exits nonzero
    assert main(args + ["--tol", "1e-30"]) == 2
    capsys.readouterr()


def test_xcheck_single_point(capsys):
    rc = main(["xcheck", *PARAMS, "--y-grid", "0.5", "--tol", "1e-6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert sum(1 for l in out.splitlines() if l.startswith("y=(")) == 1


def test_xcheck_fails_where_fewer_than_two_algorithms_answer(capsys):
    # at GEN and y >= 6 only stade returns a value, so no pair is compared
    # and a deviation of 0 would vouch for nothing
    rc = main(["xcheck", "--alpha-im", "-3.7", "--beta-im", "1.2", "--y-grid", "6,9"])
    err = capsys.readouterr().err
    assert rc == 2
    fails = [l for l in err.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 4
    assert any("y=(6,9)" in l for l in fails)


def test_whittaker_smallarg_exits_2_where_products_cancel(capsys):
    # at GEN (5.34, 10) the series products cancel inside each term; the
    # guard raises instead of printing a value 1e41 off
    rc = main(["whittaker", "--alpha-im", "-3.7", "--beta-im", "1.2",
               "--y1", "5.336699231206312", "--y2", "10", "--algo", "smallarg"])
    assert rc == 2
    assert "cancellation" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["whittaker", "--alpha-im", "-1.3"])
    assert exc.value.code == 1


@pytest.mark.parametrize("h", ["0", "-0.1", "inf", "nan"])
def test_grid_h_must_be_positive_and_finite(h, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["whittaker", *PARAMS, "--y1", "0.4", "--y2", "0.6",
              "--algo", "mellin", f"--grid-h={h}"])
    assert exc.value.code == 1
    assert "--grid-h" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_xcheck_tol_must_be_positive_and_finite(tol, capsys):
    # a NaN or infinite tolerance passed every deviation, a negative one
    # failed every run
    with pytest.raises(SystemExit) as exc:
        main(["xcheck", *PARAMS, "--y-grid", "0.4", f"--tol={tol}"])
    assert exc.value.code == 1
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["whittaker", *PARAMS, "--y1", "0.4", "--y2", "0.6", "--digits", "-3"],
    ["whittaker", *PARAMS, "--y1", "0.4", "--y2", "0.6", "--digits", "2.5"],
    ["xcheck", *PARAMS, "--y-grid", "0.4,-1"],
    ["xcheck", *PARAMS, "--y-grid", "0.4,abc"],
    ["xcheck", *PARAMS, "--y-grid", "0.4,inf"],
], ids=["digits-negative", "digits-float", "y-grid-negative", "y-grid-text", "y-grid-inf"])
def test_digits_and_y_grid_checked_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-2] in captured.err


@pytest.mark.parametrize("n", ["0", "-3", "2.5"])
def test_grid_n_must_be_an_integer_of_at_least_one(n, capsys):
    # smallarg uses no grid, so only the parser can reject the value
    with pytest.raises(SystemExit) as exc:
        main(["whittaker", *PARAMS, "--y1", "0.4", "--y2", "0.6",
              "--algo", "smallarg", f"--grid-n={n}"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid-n" in captured.err


@pytest.mark.parametrize("override", [["--grid-h", "0.05"],
                                      ["--sigma1", "2.5", "--sigma2", "1.5"],
                                      ["--grid-n", "900"]],
                         ids=["grid-h", "sigma", "grid-n"])
def test_mellin_grid_overrides_are_applied(override, capsys):
    base = ["whittaker", *GEN_PARAMS, "--y1", "0.5", "--y2", "0.7",
            "--algo", "mellin", "--digits", "17"]
    values = []
    for argv in (base, base + override):
        assert main(argv) == 0
        values.append(printed_rows(capsys.readouterr().out)["unscaled value"][0])
    default, overridden = values
    assert overridden != default
    assert abs(overridden - default) <= 1e-10 * abs(default)


def test_grid_n_override_reaches_both_grids(capsys):
    point = ["whittaker", *GEN_PARAMS, "--y1", "0.5", "--y2", "0.7", "--grid-n", "3"]
    # three steps cannot cover the stade integrand's tails
    assert main(point + ["--algo", "stade"]) == 2
    capsys.readouterr()
    # nor the Mellin lines, and validation says so
    assert main(point + ["--algo", "mellin"]) == 0
    _, err = printed_rows(capsys.readouterr().out)["scaled mantissa"]
    assert err > 0.1


def test_mellin_error_is_measured_at_the_printed_point(capsys):
    # validated over [y2/2, 2 y2] the printed err was a fifth of the value's
    # deviation from the origin series and from stade at half step
    rc = main(["whittaker", *LIFT_PARAMS, "--y1", "0.1", "--y2", "0.2", "--algo", "mellin",
               "--digits", "17"])
    assert rc == 0
    value, err = printed_rows(capsys.readouterr().out)["unscaled value"]
    p, a = LanglandsParams(-19.06739, 19.06739), WhittakerArgs(0.1, 0.2)
    refs = [w.to_complex(extra_log=-p.scale_shift) for w in
            (w_series_origin(p, a), w_stade(p, a, default_stade_grid(p).halved()))]
    assert abs(refs[0] - refs[1]) < 1e-13 * abs(refs[0])
    assert err >= 0.5 * abs(value - refs[0]) / abs(refs[0])


def test_whittaker_prints_log10_beyond_float_range(capsys):
    rc = main(["whittaker", *PARAMS, "--y1", "100", "--y2", "100", "--algo", "stade"])
    assert rc == 0
    rows = printed_rows(capsys.readouterr().out)
    assert "unscaled value" not in rows
    assert rows["unscaled log10|W|"][0].real == pytest.approx(-769.2, abs=0.05)


def readme_cli_examples() -> list[list[str]]:
    """The whittaker and xcheck lines of the README's Command line block;
    the other subcommands there need a coefficient file."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()]
    return [c[1:] for c in commands if c[1] in ("whittaker", "xcheck")]


def test_readme_cli_examples_run(capsys):
    examples = readme_cli_examples()
    assert {argv[0] for argv in examples} == {"whittaker", "xcheck"}
    for argv in examples:
        assert main(argv) == 0, argv
        capsys.readouterr()


@pytest.mark.parametrize("flag", ["--sigma1", "--sigma2"])
@pytest.mark.parametrize("sigma", ["0", "-0.5", "-3", "inf", "nan"])
def test_sigma_must_be_positive_and_finite(flag, sigma, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["whittaker", *PARAMS, "--y1", "0.4", "--y2", "0.6",
              "--algo", "mellin", f"{flag}={sigma}"])
    assert exc.value.code == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
def test_non_finite_parameter_exits_1(alpha, capsys):
    rc = main(["whittaker", f"--alpha-im={alpha}", "--beta-im", "2.1",
               "--y1", "0.4", "--y2", "0.6"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "r_alpha must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("eps", ["10", "inf"])
def test_maass_eval_eps_must_be_below_one(eps, tmp_path, capsys):
    coeffs = write_sample_c1(tmp_path)
    rc = main(["maass-eval", "--coeffs", str(coeffs), "--eps", eps,
               "--point", "0.2,0.3,0.4,1.1,1.0"])
    assert rc == 1
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("point, name", [("nan,0.1,0.2,1,1", "x1"),
                                         ("0.1,inf,0.3,1,1", "x2"),
                                         ("0.1,0.2,-inf,1,1", "x3"),
                                         ("0.1,0.2,0.3,nan,1", "y1"),
                                         ("0.1,0.2,0.3,inf,1", "y1"),
                                         ("0.1,0.2,0.3,1,inf", "y2")])
def test_maass_eval_non_finite_point_exits_1(point, name, tmp_path, capsys):
    coeffs = write_sample_c1(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["maass-eval", "--coeffs", str(coeffs), "--eps", "1e-6",
              f"--point={point}"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"{name} must be finite" in err
    assert "Traceback" not in err


def test_maass_eval_and_periodicity(tmp_path, capsys):
    coeffs = write_sample_c1(tmp_path)
    base = ["maass-eval", "--coeffs", str(coeffs), "--eps", "1e-6", "--digits", "14"]
    rc = main(base + ["--point", "0.2,0.3,0.4,1.1,1.0"])
    out1 = capsys.readouterr().out
    assert rc == 0
    rc = main(base + ["--point", "1.2,0.3,0.4,1.1,1.0"])
    out2 = capsys.readouterr().out
    assert rc == 0
    v1 = [l for l in out1.splitlines() if l.startswith("f(z)")][0]
    v2 = [l for l in out2.splitlines() if l.startswith("f(z)")][0]
    a1 = float(v1.split()[1])
    a2 = float(v2.split()[1])
    assert math.isclose(a1, a2, rel_tol=0, abs_tol=1e-12)
    assert "max contributing m2" in out1
    assert "distinct D caches" in out1
    assert "D ruled out (this eval)" in out1
    # a fresh form forms the columns of every D it builds or rules out
    rows = dict(line.rsplit(None, 4)[:2] for line in out1.splitlines() if "[count]" in line)
    assert float(rows["kernel columns formed (this eval)"]) >= (
        float(rows["D caches built (this eval)"]) + float(rows["D ruled out (this eval)"]) > 0)


def test_maass_eval_missing_coefficient(tmp_path, capsys):
    # a c2-only file with a single entry cannot cover the expansion
    p = tmp_path / "short.txt"
    p.write_text("alpha_im -1.3\nbeta_im 2.1\ngamma_im -0.8\nc2 1 1 1.0 0.0\n")
    rc = main(["maass-eval", "--coeffs", str(p), "--point", "0,0,0,1,1",
               "--eps", "1e-6"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "A(" in err


def test_automorphy_translation(tmp_path, capsys):
    coeffs = write_sample_c1(tmp_path)
    rc = main(["automorphy", "--coeffs", str(coeffs), "--eps", "1e-6",
               "--point", "0.2,0.3,0.4,1.1,1.0", "--word", "T3"])
    out = capsys.readouterr().out
    assert rc == 0
    resid = [l for l in out.splitlines() if l.startswith("residual")][0]
    assert float(resid.split()[2]) < 1e-10


def test_automorphy_empty_word(tmp_path, capsys):
    coeffs = write_sample_c1(tmp_path)
    rc = main(["automorphy", "--coeffs", str(coeffs), "--eps", "1e-6",
               "--point", "0.2,0.3,0.4,1.1,1.0", "--word", ""])
    out = capsys.readouterr().out
    assert rc == 0
    resid = [l for l in out.splitlines() if l.startswith("residual")][0]
    assert float(resid.split()[2]) == 0.0


def test_export_round_trip(tmp_path, capsys):
    coeffs = write_sample_c1(tmp_path)
    out_path = tmp_path / "exported.txt"
    rc = main(["export-coeffs", "--coeffs", str(coeffs), "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    form1 = load_coefficient_file(coeffs)
    form2 = load_coefficient_file(out_path)
    assert form1.params == form2.params
    assert form1.coeffs == form2.coeffs
    # and a second export of the re-parsed table is byte-identical
    out2 = tmp_path / "exported2.txt"
    write_coefficient_file(out2, form2)
    assert out_path.read_text() == out2.read_text()


def test_csv_output_deterministic(tmp_path, capsys):
    csvs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = main(["whittaker", *PARAMS, "--y1", "0.4", "--y2", "0.6",
                   "--algo", "origin", "--csv", str(path)])
        assert rc == 0
        capsys.readouterr()
        csvs.append(path.read_text())
    assert csvs[0] == csvs[1]
    assert csvs[0].splitlines()[0] == "label,value_re,value_im,error,algorithm"


HEADER = "alpha_im -1.3\nbeta_im 2.1\ngamma_im -0.8\n"


def test_coefficient_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("c1 1 1.0 0.0\nalpha_im 1.0\n")
    with pytest.raises(CoefficientFileError):
        load_coefficient_file(p)
    p.write_text("alpha_im -1.3\nbeta_im 2.1\ngamma_im -0.8\n"
                 "c1 1 1.0 0.0\nc2 1 2 0.5 0.0\n")
    with pytest.raises(CoefficientFileError):
        load_coefficient_file(p)
    p.write_text("alpha_im -1.3\nbeta_im 2.1\ngamma_im -0.8\n"
                 "c1 1 1.0 0.0\nc1 1 2.0 0.0\n")
    with pytest.raises(CoefficientFileError):
        load_coefficient_file(p)
    # each key takes its exact field count, and each header key comes once
    for text, line in [
        ("alpha_im -1.3 9\nbeta_im 2.1\ngamma_im -0.8\nc1 1 1.0 0.0\n", 1),
        (HEADER + "c1 1 1.0 0.0 7 7\n", 4),
        (HEADER + "c2 1 1 1.0 0.0 0.25\n", 4),
        (HEADER + "c2 1 1 1.0\n", 4),
        (HEADER + "c1 1 1.0 0.0\nc1\n", 5),
        ("alpha_im -1.3\nbeta_im 2.1\nalpha_im 0.5\ngamma_im -0.8\nc1 1 1.0 0.0\n", 3),
    ]:
        p.write_text(text)
        with pytest.raises(CoefficientFileError, match=f"bad.txt:{line}: "):
            load_coefficient_file(p)


# rows after HEADER, named by the rows, then a non-finite header value,
# named by the value
@pytest.mark.parametrize("text", [pytest.param(HEADER + rows, id=rows) for rows in (
    "c2 1 1 nan 0\n",
    "c2 1 1 1.0 0.0\nc2 1 2 inf 0\n",
    "c1 1 1.0 0.0\nc1 2 nan 0\n",
    "c1 1 1.0 -inf\n",
)] + [pytest.param(HEADER.replace(*change) + "c1 1 1.0 0.0\n", id=change[1]) for change in (
    ("-1.3", "inf"),
    ("2.1", "1e400"),
)])
def test_coefficient_file_rejects_non_finite(tmp_path, capsys, text):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    line = next(k for k, row in enumerate(text.splitlines(), 1)
                if "nan" in row or "inf" in row or "e400" in row)
    with pytest.raises(CoefficientFileError, match=f"bad.txt:{line}: .*finite"):
        load_coefficient_file(p)
    rc = main(["maass-eval", "--coeffs", str(p), "--point", "0.1,0.2,-0.3,1.0,1.1",
               "--eps", "1e-4"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "nan" not in out and f"bad.txt:{line}" in err


def test_c1_expansion_matches_direct(tmp_path):
    coeffs = write_sample_c1(tmp_path, n_max=8)
    form = load_coefficient_file(coeffs)
    # reconstruct A(1, n) and re-expand independently
    a = {n: form.coeffs[(1, n)] for n in range(1, 9)}
    direct = expand_coefficients(a, 8)
    for k, v in direct.items():
        assert abs(form.coeffs[k] - v) < 1e-14


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sl3maass.cli", "whittaker", *PARAMS,
         "--y1", "0.4", "--y2", "0.6", "--algo", "smallarg"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "scaled value" in proc.stdout
