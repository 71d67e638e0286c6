import csv
import json

import pytest

from wmwdesign import cli, exceedance, moments
from wmwdesign.cli import main
from wmwdesign.power import MAX_GRID_DESIGNS

NORMAL_SHIFTED = '{"family":"normal","params":{"mean":0.75,"sd":1}}'
NORMAL_STD = '{"family":"normal","params":{"mean":0,"sd":1}}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_power_subcommand(capsys):
    code, out, _ = run(
        capsys, "power", "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
        "--n", "50", "--omega", "0.5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["design"] == {"m": 25, "n": 25, "omega": 0.5}
    assert data["method"] == "wmw_normal_approx"
    assert 0.80 < data["approx_power"] < 0.83


def test_power_with_explicit_group_sizes(capsys):
    code, out, _ = run(
        capsys, "power", "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
        "--m", "20", "--n2", "30",
    )
    assert code == 0
    assert json.loads(out)["design"]["m"] == 20


def test_power_rejects_malformed_spec(capsys):
    code, _, err = run(
        capsys, "power", "--f-spec", '{"family":"normal","params":{"mean":0}}',
        "--g-spec", NORMAL_STD,
    )
    assert code == 1
    assert "params.sd" in err


@pytest.mark.parametrize("spec", [
    '{"family":["normal"]}',
    '{"family":"normal","params":["mean","sd"]}',
    '{"family":"normal","params":5}',
    '{"family":"normal","params":{"mean":"abc","sd":1}}',
    '{"family":"normal","params":{"mean":true,"sd":1}}',
    '{"family":"normal","params":{"mean":0,"sd":1},"shift":"x"}',
], ids=["family list", "params list", "params number", "mean string", "mean true",
        "shift string"])
def test_malformed_spec_is_one_line_usage_error(capsys, spec):
    code, out, err = run(capsys, "power", "--f-spec", spec, "--g-spec", NORMAL_STD)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: --f-spec: spec.")


@pytest.mark.parametrize("command", [
    ("exact-null", "--m", "3", "--n", "2"),
    ("optimal-design", "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD, "--n", "20"),
], ids=["exact-null", "optimal-design"])
def test_unwritable_out_is_one_line_error(tmp_path, capsys, command):
    # the CSV is written before the JSON, so a failed write prints nothing
    code, out, err = run(capsys, *command, "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "x.csv" in err


def test_optimal_design_subcommand(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code, out, _ = run(
        capsys, "optimal-design", "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
        "--n", "50", "--out", str(curve),
    )
    assert code == 0
    data = json.loads(out)
    assert data["optimal"]["m"] == 25
    assert data["deficiency_at_half"] == 0.0
    with open(curve) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "m", "n", "power"]
    assert len(rows) == 1 + 41  # m from 5 to 45


def test_power_curve_with_monte_carlo_columns(tmp_path, capsys):
    out_path = tmp_path / "pc.csv"
    code, _, _ = run(
        capsys, "power-curve", "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
        "--n", "50", "--grid", "0.3,0.5,0.7", "--mc-trials", "2000",
        "--seed", "4", "--out", str(out_path),
    )
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "m", "n", "power_approx", "power_mc", "mc_se"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert abs(float(row[3]) - float(row[4])) < 0.05


def test_deficiency_symmetric(capsys):
    code, out, _ = run(capsys, "deficiency", "--omega", "0.25")
    assert code == 0
    data = json.loads(out)
    assert data["deficiency"] == pytest.approx(1 / 3, abs=1e-9)
    assert data["method"] == "symmetric_closed_form"


@pytest.mark.parametrize("flags", [
    ("--n", "50", "--epsilon", "0.4"),
    ("--alpha", "0.01", "--side", "two_sided"),
    ("--n", "50"),
], ids=["n epsilon", "alpha side", "n"])
def test_deficiency_general_flags_without_specs_are_usage_errors(capsys, flags):
    # the closed form takes only --omega; it must not silently ignore the rest
    code, out, err = run(capsys, "deficiency", "--omega", "0.3", *flags)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert all(flag in err for flag in flags if flag.startswith("--"))


@pytest.mark.parametrize("flags", [
    ("--f-spec", NORMAL_SHIFTED),
    ("--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD),
    ("--g-spec", NORMAL_STD, "--n", "50"),
], ids=["f-spec", "no n", "no f-spec"])
def test_deficiency_general_without_both_specs_and_n_is_usage_error(capsys, flags):
    code, out, err = run(capsys, "deficiency", "--omega", "0.5", *flags)
    assert code == 1
    assert out == ""
    assert err == "error: general deficiency needs --f-spec, --g-spec and --n\n"


def test_deficiency_general_passes_its_flags_on(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "deficiency_general",
                        lambda *args, **kwargs: calls.append((args[2:], kwargs)) or 0.0)
    specs = ("--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD, "--n", "30")
    assert run(capsys, "deficiency", "--omega", "0.2", *specs)[0] == 0
    assert run(capsys, "deficiency", "--omega", "0.2", *specs, "--alpha", "0.01",
               "--side", "two_sided", "--epsilon", "0.2")[0] == 0
    assert calls == [((30, 0.2), {}),
                     ((30, 0.2), {"alpha": 0.01, "side": "two_sided", "epsilon": 0.2})]


@pytest.mark.parametrize("grid", [",", "", " , ", "0.3,abc"])
def test_power_curve_empty_grid_is_usage_error(capsys, grid):
    code, out, err = run(
        capsys, "power-curve", "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
        "--n", "20", "--grid", grid,
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "--grid" in err


@pytest.mark.parametrize("n", ["0", "1", "-3"])
@pytest.mark.parametrize("argv", [
    ("power-curve",), ("power-curve", "--grid", "0.5"), ("power", "--omega", "0.5"),
], ids=" ".join)
def test_total_below_two_is_usage_error(capsys, argv, n):
    code, out, err = run(capsys, *argv, "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
                         "--n", n)
    assert code == 1
    assert out == ""
    assert err == f"error: total sample size N must be an int >= 2, got {n}\n"


@pytest.mark.parametrize("argv", [
    ("power",), ("power-curve",), ("optimal-design",), ("deficiency", "--omega", "0.5"),
    ("simulate",),
], ids=" ".join)
def test_total_past_the_float_range_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
                         "--n", "1" + "0" * 400)
    assert code == 1
    assert out == ""
    assert err == "error: int too large to convert to float\n"


@pytest.mark.parametrize("n", ["1099511627776", "18446744073709551617"])
@pytest.mark.parametrize("argv", [
    ("optimal-design",), ("power-curve",), ("deficiency", "--omega", "0.5"),
], ids=" ".join)
def test_total_past_the_grid_limit_is_usage_error(monkeypatch, capsys, argv, n):
    # these totals used to end in numpy's _ArrayMemoryError traceback or its
    # "Maximum allowed size exceeded"; the grid's size is checked before any
    # array or integral
    def no_quadrature(F, G):
        raise AssertionError("second_moment_integrals called")

    monkeypatch.setattr(moments, "second_moment_integrals", no_quadrature)
    code, out, err = run(capsys, *argv, "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
                         "--n", n)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: N={n} with epsilon=")
    assert err.endswith(f"more than the limit of {MAX_GRID_DESIGNS} a scan walks\n")


def test_deficiency_general(capsys):
    code, out, _ = run(
        capsys, "deficiency", "--omega", "0.5", "--f-spec", NORMAL_SHIFTED,
        "--g-spec", NORMAL_STD, "--n", "50",
    )
    assert code == 0
    assert json.loads(out)["deficiency"] == 0.0


def test_exact_null_subcommand(tmp_path, capsys):
    pmf_path = tmp_path / "pmf.csv"
    code, out, _ = run(
        capsys, "exact-null", "--m", "3", "--n", "2", "--out", str(pmf_path),
    )
    assert code == 0
    data = json.loads(out)
    assert data["mean"] == 3.0
    assert data["variance"] == 3.0
    with open(pmf_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "probability"]
    assert len(rows) == 8
    assert sum(float(r[1]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("epsilon", ["inf", "nan", "-0.5"])
@pytest.mark.parametrize("command", [["optimal-design"], ["deficiency", "--omega", "0.5"]],
                         ids=["optimal-design", "deficiency"])
def test_epsilon_not_finite_and_nonnegative_is_a_usage_error(capsys, command, epsilon):
    code, out, err = run(
        capsys, *command, "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
        "--n", "50", f"--epsilon={epsilon}",
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: epsilon must be finite and >= 0")


def test_exact_null_resource_limit(capsys):
    code, _, err = run(capsys, "exact-null", "--m", "2000", "--n", "2000")
    assert code == 3
    assert "resource limit" in err


@pytest.mark.parametrize("m,n", [(3, 2), (2000, 2000)], ids=["small", "too large"])
@pytest.mark.parametrize("alpha", ["0.5", "0.7", "0", "nan"])
def test_exact_null_rejects_alpha_before_building_the_table(monkeypatch, capsys, m, n, alpha):
    # a 300 x 300 table took 2.3 s to build before alpha 0.7 was rejected; a
    # request that is also too large is a usage error, not a resource limit
    def build_table(*args, **kwargs):
        raise AssertionError("the exact table was built")

    monkeypatch.setattr(cli, "build_table", build_table)
    code, out, err = run(capsys, "exact-null", "--m", str(m), "--n", str(n), "--alpha", alpha)
    assert code == 1
    assert out == ""
    assert err == f"error: alpha must be in (0, 0.5), got {float(alpha)}\n"


def test_simulate_subcommand(capsys):
    code, out, _ = run(
        capsys, "simulate", "--f-spec", NORMAL_STD, "--g-spec", NORMAL_STD,
        "--n", "20", "--trials", "2000", "--seed", "8",
    )
    assert code == 0
    data = json.loads(out)
    assert data["test_used"] == "wmw_exact"
    assert abs(data["rejection_rate"] - 0.05) < 0.03


def test_check_identities_subcommand(capsys):
    code, out, _ = run(
        capsys, "check-identities", "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
    )
    assert code == 0
    data = json.loads(out)
    assert data["complement_residual"] < 1e-7
    assert data["nested_residual"] < 1e-7
    # the summary converges, the identity integrals over the singular edge do not
    code, out, err = run(
        capsys, "check-identities",
        "--f-spec", '{"family":"normal","params":{"mean":0,"sd":0.05}}',
        "--g-spec", '{"family":"chisquare","params":{"df":0.5},"shift":1.0}',
    )
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: identity integrals did not converge")


def test_reproduce_deficiency_csv(tmp_path, capsys):
    out_path = tmp_path / "d.csv"
    code, _, _ = run(capsys, "reproduce", "--figure", "deficiency", "--out", str(out_path))
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "deficiency"]
    assert len(rows) == 100
    values = {float(r[0]): float(r[1]) for r in rows[1:]}
    assert values[0.5] == 0.0
    # monotone away from 0.5 on both sides
    left = [values[i / 100] for i in range(1, 51)]
    right = [values[i / 100] for i in range(50, 100)]
    assert all(a >= b for a, b in zip(left, left[1:]))
    assert all(b >= a for a, b in zip(right, right[1:]))


def test_reproduce_epping(capsys):
    code, out, _ = run(capsys, "reproduce", "--figure", "epping")
    assert code == 0
    data = json.loads(out)
    assert 0.40 <= data["optimal"]["omega"] <= 0.50
    assert data["deficiency_at_half"] <= 0.02


def test_reproduce_epping_out_writes_report(tmp_path, capsys):
    out_path = tmp_path / "epping.json"
    code, out, _ = run(capsys, "reproduce", "--figure", "epping", "--out", str(out_path))
    assert code == 0
    assert out == ""
    code, stdout_report, _ = run(capsys, "reproduce", "--figure", "epping")
    assert code == 0
    assert out_path.read_text() == stdout_report


@pytest.mark.parametrize("n", ["0", "-5", "1"])
def test_deficiency_general_total_without_allocations_is_usage_error(capsys, n):
    # --n 0 used to be taken for a missing --n; the grid applies the total rule first
    code, out, err = run(
        capsys, "deficiency", "--omega", "0.5", "--f-spec", NORMAL_SHIFTED,
        "--g-spec", NORMAL_STD, "--n", n,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: total sample size N must be an int >= 2, got {n}\n"


@pytest.mark.parametrize("argv", [
    ("power-curve", "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD, "--n", "30",
     "--grid", "0.3,0.5", "--mc-trials", "200", "--seed", "3"),
    ("reproduce", "--figure", "deficiency"),
    ("reproduce", "--figure", "panel-h", "--trials", "100", "--seed", "2"),
], ids=["power-curve", "reproduce deficiency", "reproduce panel"])
def test_json_and_csv_carry_the_same_rows(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    out_path = tmp_path / "rows.csv"
    code, csv_out, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert csv_out == ""
    with open(out_path) as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = json.loads(out)
    assert [list(r) for r in json_rows] == [list(r) for r in csv_rows]
    # both round to 10 significant digits, so the values are equal, not close
    assert json_rows == [{k: v if k == "scenario" else json.loads(v) for k, v in r.items()}
                         for r in csv_rows]


def test_deficiency_search_failure_is_numeric_exit(capsys):
    code, out, err = run(
        capsys, "deficiency", "--omega", "0.5", "--n", "50",
        "--f-spec", '{"family":"chi_square","params":{"df":3}}',
        "--g-spec", '{"family":"chi_square","params":{"df":5}}',
    )
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure:")
    assert err.count("\n") == 1


def test_distribution_too_narrow_for_its_location_is_numeric_exit(capsys):
    code, out, err = run(
        capsys, "power", "--f-spec", '{"family":"normal","params":{"mean":1e300,"sd":1}}',
        "--g-spec", NORMAL_STD, "--n", "50",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure:")
    assert "too narrow for its location" in err


def test_simulate_t_test_group_of_one_is_usage_error(capsys):
    code, out, err = run(
        capsys, "simulate", "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
        "--m", "1", "--n2", "5", "--trials", "100", "--test", "t_hom",
    )
    assert code == 1
    assert out == ""
    assert "at least 2" in err


def test_simulate_t_test_out_of_range_scale_is_usage_error(capsys):
    code, out, err = run(
        capsys, "simulate", "--f-spec", NORMAL_SHIFTED,
        "--g-spec", '{"family":"normal","params":{"mean":0,"sd":1e160}}',
        "--m", "20", "--n2", "30", "--trials", "100", "--test", "t_het",
    )
    assert code == 1
    assert out == ""
    assert "finite normal float" in err


def test_simulate_negative_seed_is_usage_error(capsys):
    code, out, err = run(
        capsys, "simulate", "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD,
        "--n", "20", "--trials", "100", "--seed", "-1",
    )
    assert code == 1
    assert out == ""
    assert "seed" in err


@pytest.mark.parametrize("command", ["power", "simulate"])
@pytest.mark.parametrize("sizes", [
    ("--m", "10"),
    ("--n2", "7"),
    ("--m", "10", "--n2", "7", "--omega", "0.3"),
    ("--m", "10", "--omega", "0.3"),
], ids=["m alone", "n2 alone", "m n2 omega", "m omega"])
def test_group_sizes_need_both_flags_and_no_omega(capsys, command, sizes):
    # a lone --m or --n2 must not fall back to the default --n 50 at omega 0.5
    code, out, err = run(
        capsys, command, "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD, *sizes,
        *(("--trials", "100") if command == "simulate" else ()),
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "--m" in err and "--n2" in err


def test_reproduce_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys, "reproduce", "--figure", "panel-h", "--trials", "500",
            "--seed", "12", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_spec_file_input(tmp_path, capsys):
    spec_path = tmp_path / "f.json"
    spec_path.write_text(NORMAL_SHIFTED)
    code, out, _ = run(
        capsys, "power", "--f-spec", str(spec_path), "--g-spec", NORMAL_STD,
        "--n", "50", "--omega", "0.5",
    )
    assert code == 0
    assert 0.80 < json.loads(out)["approx_power"] < 0.83


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing file", "directory"])
def test_unreadable_spec_file_is_one_line_usage_error(tmp_path, capsys, name):
    code, out, err = run(capsys, "power", "--f-spec", str(tmp_path / name),
                         "--g-spec", NORMAL_STD)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: --f-spec: cannot read spec file: ")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["power"])  # missing required flags
    assert exc.value.code == 1


def test_omega_outside_unit_interval_is_usage_error(capsys):
    for argv in (
        ("deficiency", "--omega", "0", "--n", "50"),
        ("power-curve", "--n", "50", "--grid", "1.5,-3"),
        ("power", "--n", "50", "--omega", "-0.2"),
        ("simulate", "--n", "50", "--omega", "1", "--trials", "100"),
    ):
        code, out, err = run(capsys, *argv, "--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD)
        assert code == 1
        assert out == ""
        assert "omega must be in (0, 1)" in err


def test_unconverged_integrals_are_numeric_exit(monkeypatch, capsys):
    # every integral's bound, from the first-pass exit or from QUADPACK,
    # passes through _integrate
    integrate = exceedance._integrate
    monkeypatch.setattr(exceedance, "_integrate",
                        lambda *integrals: [(result, 1e-6) for result, _ in integrate(*integrals)])
    code, out, err = run(
        capsys, "power", "--f-spec", '{"family":"normal","params":{"mean":0.5432,"sd":1.1}}',
        "--g-spec", NORMAL_STD, "--n", "50",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure:")


def test_json_key_order(capsys):
    specs = ("--f-spec", NORMAL_SHIFTED, "--g-spec", NORMAL_STD)
    design = ["m", "n", "omega"]
    _, out, _ = run(capsys, "power", *specs, "--n", "50")
    data = json.loads(out)
    assert list(data) == ["design", "approx_power", "mu_n", "sigma2_n", "method",
                          "low_confidence", "degenerate_variance"]
    assert list(data["design"]) == design
    _, out, _ = run(capsys, "simulate", *specs, "--n", "20", "--trials", "200")
    data = json.loads(out)
    assert list(data) == ["design", "rejection_rate", "standard_error", "test_used",
                          "trials", "fell_back_to_normal"]
    assert list(data["design"]) == design
    _, out, _ = run(capsys, "check-identities", *specs)
    assert list(json.loads(out)) == ["complement_residual", "nested_residual", "p_x_ge_y",
                                     "int_g2_f", "int_1mf2_g", "quadrature_error_bound"]
    _, out, _ = run(capsys, "optimal-design", *specs, "--n", "50")
    data = json.loads(out)
    assert list(data) == ["optimal", "optimal_power", "deficiency_at_half", "epsilon",
                          "power_curve"]
    assert list(data["optimal"]) == design
    assert list(data["power_curve"][0]) == ["omega", "m", "n", "power"]
