import json
import math

import numpy as np
import pytest

from kitaev_bures import cli
from kitaev_bures.quadrature import GridSpec
from kitaev_bures.spectrum import Couplings
from kitaev_bures.thermal_metric import (
    ParameterIndex as P,
    ThermoPoint,
    nonclassical_corrections,
    tensor_thermodynamic,
)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# phase


def test_phase_gapless(capsys):
    code, out, _ = run(capsys, ["phase", "--jx", "0.3333", "--jy", "0.3333", "--jz", "0.3334"])
    assert code == 0
    assert out.startswith("gapless-B")
    assert "dirac=[(" in out


def test_phase_gapped(capsys):
    code, out, _ = run(capsys, ["phase", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8"])
    assert code == 0
    assert out.strip() == "gapped-Az gap=1.2"


def test_phase_critical(capsys):
    code, out, _ = run(capsys, ["phase", "--jx", "0.25", "--jy", "0.25", "--jz", "0.5"])
    assert code == 0
    assert out.strip() == "critical"


def test_phase_writes_its_line_to_out(tmp_path, capsys):
    path = tmp_path / "phase.txt"
    code, out, _ = run(
        capsys, ["phase", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8", "--out", str(path)]
    )
    assert code == 0 and out == ""
    assert path.read_text() == "gapped-Az gap=1.2\n"


def test_phase_missing_coupling(capsys):
    code, _, err = run(capsys, ["phase", "--jx", "0.1", "--jy", "0.1"])
    assert code == 2
    assert "jz" in err


def test_unknown_command(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 2


# ---------------------------------------------------------------------------
# tensor


def test_tensor_decoupled_point_closed_forms(capsys):
    code, out, _ = run(
        capsys, ["tensor", "--jx", "0", "--jy", "0", "--jz", "1", "--temp", "1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["phase"]["region"] == "gapped-Az"
    c_bb = doc["classical"][0][0]
    nc_xx = doc["nonclassical"][1][1]
    assert c_bb == pytest.approx(1.0 / (2.0 * (math.cosh(2.0) + 1.0)), rel=1e-8)
    assert nc_xx == pytest.approx(math.tanh(1.0) ** 2 / 16.0, rel=1e-8)
    assert doc["nonclassical"][0] == [0.0, 0.0, 0.0, 0.0]


def test_tensor_critical_phase_field(capsys):
    code, out, _ = run(
        capsys,
        ["tensor", "--jx", "0.25", "--jy", "0.25", "--jz", "0.5", "--temp", "0.05",
         "--size", "31"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["phase"]["region"] == "critical"
    assert doc["evaluation"]["method"] == "finite"


@pytest.mark.parametrize(
    "couplings", [("0.3", "0.2", "0.5"), ("0.5", "0.2", "0.3"), ("0.2", "0.5", "0.3"),
                  ("-0.3", "0.2", "0.5")]
)
def test_tensor_generic_critical_coupling_converges(capsys, couplings):
    jx, jy, jz = couplings
    code, out, _ = run(
        capsys, ["tensor", "--jx", jx, "--jy", jy, "--jz", jz, "--temp", "0.05"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["phase"]["region"] == "critical"
    (corner,) = doc["phase"]["dirac_points"]
    assert {abs(p) for p in corner} <= {0.0, math.pi}


@pytest.mark.parametrize(
    "couplings, name, line",
    [(("0", "0.5", "0.5"), "jx", "p_y = pi"), (("0.5", "0.5", "0"), "jz", "p_x - p_y = pi")],
)
def test_tensor_zero_coupling_on_boundary_fails_early(capsys, couplings, name, line):
    # the dispersion zeros form a line there, which point disks cannot refine
    jx, jy, jz = couplings
    code, _, err = run(
        capsys, ["tensor", "--jx", jx, "--jy", jy, "--jz", jz, "--temp", "0.05"]
    )
    assert code == 2
    assert f"{name} = 0 on the critical boundary" in err
    assert f"line {line}" in err


def test_tensor_even_size_rejected(capsys):
    code, _, err = run(
        capsys, ["tensor", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8", "--temp", "1",
                 "--size", "100"]
    )
    assert code == 2
    assert "odd" in err


def test_tensor_temperature_whose_beta_squared_overflows_rejected(capsys):
    # below T = 1 / sqrt(DBL_MAX) the classical kernel's beta^2 overflowed
    # and the tensor held NaN, which is not JSON
    code, out, err = run(
        capsys, ["tensor", "--jx", "0.3", "--jy", "0.3", "--jz", "0.3", "--temp", "1e-160",
                 "--size", "5"]
    )
    assert code == 2 and out == ""
    assert "sqrt(DBL_MAX)" in err and "NaN" not in err


def test_tensor_refine_levels_zero_rejected(capsys):
    # the lowest disk ladder's highest pair is (1, 2); 0 names no ladder
    code, out, err = run(
        capsys, ["tensor", "--jx", "0.3333", "--jy", "0.3333", "--jz", "0.3334", "--temp", "0.05",
                 "--refine-levels", "0"]
    )
    assert code == 2 and out == ""
    assert "refine_levels must be >= 1" in err


def test_tensor_refuses_flags_it_does_not_read(capsys):
    code, out, err = run(
        capsys, ["tensor", "--jx", "0", "--jy", "0", "--jz", "1", "--temp", "1",
                 "--threads", "2"]
    )
    assert code == 2 and out == ""
    assert "--threads" in err


@pytest.mark.parametrize("command", [
    ["tensor", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8", "--temp", "0.5", "--size", "5"],
    ["sweep", "--path", "start=0.2,0.2,0.6", "end=0.6,0.2,0.2", "--steps", "2", "--temp", "0.5",
     "--size", "5"],
    ["ratio-map", "--res", "8x8", "--synthetic-check"],
])
@pytest.mark.parametrize("flag", [["--grid-n", "32"], ["--tol", "1e-3"], ["--refine-levels", "2"],
                                  ["--threads", "2"]])
def test_size_refuses_quadrature_flags(tmp_path, capsys, command, flag):
    # a finite L x L sum and the synthetic map read no quadrature flag (nor
    # --threads, which only ratio-map has); one given with them is refused
    path = tmp_path / "out"
    code, out, err = run(capsys, command + [*flag, "--out", str(path)])
    assert code == 2 and out == ""
    assert flag[0] in err
    assert not path.exists()
    code, _, _ = run(capsys, command + ["--out", str(path)])
    assert code == 0


def test_tensor_nonconvergence_exit_code(capsys):
    code, _, err = run(
        capsys,
        ["tensor", "--jx", "0.3333", "--jy", "0.3333", "--jz", "0.3334", "--temp", "0.001",
         "--grid-n", "16", "--tol", "1e-15"],
    )
    assert code == 3


def test_tensor_file_output(tmp_path, capsys):
    path = tmp_path / "tensor.json"
    code, out, _ = run(
        capsys,
        ["tensor", "--jx", "0", "--jy", "0", "--jz", "1", "--temp", "0.5",
         "--out", str(path)],
    )
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["command"] == "tensor"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_step_row_per_element(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--path", "start=0.2,0.2,0.6", "end=0.6,0.2,0.2", "--steps", "1",
         "--temp", "0.7", "--size", "21", "--elements", "jz-jz,beta-beta"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,jx,jy,jz,temp,element,classical,nonclassical"
    assert len(lines) == 3
    assert lines[1].split(",")[5] == "jz-jz"
    assert lines[2].split(",")[5] == "beta-beta"


def test_sweep_default_elements_and_determinism(capsys):
    argv = ["sweep", "--path", "start=0.2,0.2,0.6", "end=0.3,0.3,0.4", "--steps", "3",
            "--temp", "0,0.5", "--size", "21"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    assert out1 == out2  # byte-identical output
    lines = out1.strip().splitlines()
    # header + 2 temps * 3 steps * 10 element pairs
    assert len(lines) == 1 + 2 * 3 * 10
    # zero-temperature rows carry zero classical part
    zero_rows = [l for l in lines[1:] if l.split(",")[4] == "0"]
    assert zero_rows and all(float(l.split(",")[6]) == 0.0 for l in zero_rows)


def test_sweep_temperature_list_matches_single_temperature_runs(capsys):
    # near-critical gapped path (refined): each path point integrates both
    # temperatures in one batch; rows stay temperature-major and agree with
    # single-temperature runs within the tolerance
    base = ["sweep", "--path", "start=0.2,0.2,0.6", "end=0.22,0.22,0.56", "--steps", "2",
            "--elements", "jz-jz,beta-jz", "--grid-n", "64", "--tol", "1e-6"]
    code, out, _ = run(capsys, base + ["--temp", "0.05,0.2"])
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    single = []
    for temp in ("0.05", "0.2"):
        code, text, _ = run(capsys, base + ["--temp", temp])
        assert code == 0
        single += [l.split(",") for l in text.strip().splitlines()[1:]]
    assert [r[:6] for r in rows] == [r[:6] for r in single]
    assert [r[4] for r in rows] == ["0.050000000000000003"] * 4 + ["0.20000000000000001"] * 4
    got = np.array([[float(v) for v in r[6:]] for r in rows])
    want = np.array([[float(v) for v in r[6:]] for r in single])
    for k in range(0, len(rows), 2):  # one tensor per (temperature, path point)
        scale = np.max(np.abs(want[k : k + 2]))
        assert np.max(np.abs(got[k : k + 2] - want[k : k + 2])) <= 2e-6 * scale


def test_sweep_path_validation(capsys):
    code, _, err = run(capsys, ["sweep", "--path", "start=1,2", "end=0,0,1"])
    assert code == 2


# ---------------------------------------------------------------------------
# scaling


def test_scaling_auto_dispatch_gapped_classical(tmp_path, capsys):
    path = tmp_path / "fit.json"
    code, _, _ = run(
        capsys,
        ["scaling", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8",
         "--tmin", "0.005", "--tmax", "0.015", "--points", "8",
         "--element", "c:beta-beta", "--grid-n", "64", "--out", str(path)],
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["params"]["model"] == "gapped-c"
    assert doc["fit"]["model"] == "GappedClassicalFit"
    assert doc["fit"]["params"]["alpha"] == pytest.approx(1.0, abs=0.15)
    assert doc["fit"]["params"]["gap"] == pytest.approx(1.2, rel=0.05)
    assert len(doc["samples"]) == 8


def test_scaling_gapped_classical_warns_past_transverse_scale(tmp_path, capsys):
    # at (0.1, 0.1, 0.8) the gap is 1.2 but the weak couplings set the
    # curvature scale s = min(gap, 2|jx|, 2|jy|) = 0.2; [0.04, 0.12] reaches
    # past s/3 (its exponents are off by up to 0.7) while [0.005, 0.015]
    # stays inside it
    warned = {}
    for tmin, tmax in (("0.04", "0.12"), ("0.005", "0.015")):
        path = tmp_path / f"fit-{tmin}.json"
        code, _, _ = run(
            capsys,
            ["scaling", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8",
             "--tmin", tmin, "--tmax", tmax, "--points", "6",
             "--element", "c:jz-jz", "--grid-n", "32", "--out", str(path)],
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["params"]["model"] == "gapped-c"
        warned[tmax] = [w for w in doc["fit"]["warnings"] if "transverse" in w]
    assert len(warned["0.12"]) == 1 and "s/3 = 0.0667" in warned["0.12"][0]
    assert warned["0.015"] == []


def test_scaling_auto_dispatch_log_at_gapless(tmp_path, capsys):
    path = tmp_path / "fit.json"
    code, _, _ = run(
        capsys,
        ["scaling", "--jx", "0.333333333333", "--jy", "0.333333333333",
         "--jz", "0.333333333334", "--tmin", "0.001", "--tmax", "0.01",
         "--points", "6", "--element", "nc:jz-jz", "--out", str(path)],
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["params"]["model"] == "log"
    assert doc["fit"]["model"] == "LogDivergenceFit"
    assert doc["fit"]["r_squared"] > 0.99


def test_scaling_gapped_nonclassical_fits_the_thermal_correction(tmp_path, capsys):
    # the samples are the corrections g^nc(T) - g^nc(0), integrated as one
    # zone integral, and the offset is the T = 0 element
    path = tmp_path / "fit.json"
    code, _, _ = run(
        capsys,
        ["scaling", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8",
         "--tmin", "0.1", "--tmax", "0.3", "--points", "6", "--element", "nc:jz-jz",
         "--model", "gapped-nc", "--grid-n", "32", "--tol", "1e-6", "--out", str(path)],
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["params"]["model"] == "gapped-nc"
    assert doc["fit"]["model"] == "GappedNonclassicalFit"
    couplings, grid = Couplings(0.1, 0.1, 0.8), GridSpec(base_n=32, target_rel_tol=1e-6)
    els = [("nc", P.JZ, P.JZ)]
    cold = ThermoPoint.from_temperature(couplings, 0.0)
    offset = tensor_thermodynamic(cold, grid, elements=els).element("nonclassical", P.JZ, P.JZ)
    assert doc["fit"]["params"]["offset"] == offset
    temps = np.geomspace(0.1, 0.3, 6)
    points = [ThermoPoint.from_temperature(couplings, t) for t in temps]
    corrections = nonclassical_corrections(points, grid, elements=els)
    assert doc["samples"] == [
        [t, c.element("nonclassical", P.JZ, P.JZ)] for t, c in zip(temps.tolist(), corrections)
    ]
    assert all(g < 0.0 for _, g in doc["samples"])


def test_scaling_fit_failure_exit_code(tmp_path, capsys):
    # the jx-jy classical element vanishes identically at the decoupled
    # point, so a power-law fit on it cannot proceed
    code, _, err = run(
        capsys,
        ["scaling", "--jx", "0", "--jy", "0", "--jz", "1",
         "--tmin", "0.5", "--tmax", "1.0", "--points", "6",
         "--element", "c:jx-jy", "--model", "power", "--grid-n", "32",
         "--out", str(tmp_path / "fit.json")],
    )
    assert code == 4
    assert "fit failure" in err


def test_scaling_fit_whose_prefactor_overflows_exit_code(tmp_path, capsys):
    # deep in the gapped phase c:jz-jz falls as e^{-gap/T}: a power law
    # through it has the intercept ln(prefactor) ~ 2091, which overflows
    path = tmp_path / "fit.json"
    code, _, err = run(
        capsys,
        ["scaling", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8",
         "--tmin", "0.002", "--tmax", "0.004", "--element", "c:jz-jz", "--model", "power",
         "--out", str(path)],
    )
    assert code == 4
    assert "fit failure" in err and "overflows" in err and "Traceback" not in err
    assert not path.exists()


@pytest.mark.parametrize(
    "couplings, flags, message",
    [
        # refused by the library before integrating
        (("0", "0.5", "0.5"), [], "jx = 0 on the critical boundary"),
        # the gap is computed before any sample is integrated
        (("0.3", "0.3", "0.4"), ["--model", "gapped-c", "--element", "c:jz-jz"],
         "fermion gap undefined"),
        (("0.25", "0.25", "0.5"), ["--model", "gapped-c", "--element", "c:jz-jz"],
         "needs a gap"),
        # the library's long part names are not CLI part names
        (("0.3", "0.3", "0.4"), ["--element", "classical:jz-jz"],
         "unknown tensor part 'classical'"),
        # refused before the temperatures are spaced
        (("0.3", "0.3", "0.4"), ["--tmax", "inf"], "need 0 < tmin < tmax < inf"),
    ],
)
def test_scaling_input_failures_are_usage_errors(tmp_path, capsys, couplings, flags, message):
    # exit 4 is kept for a fit that fails on computed samples
    jx, jy, jz = couplings
    path = tmp_path / "fit.json"
    code, _, err = run(
        capsys,
        ["scaling", "--jx", jx, "--jy", jy, "--jz", jz, "--tmin", "0.01", "--tmax", "0.1",
         "--points", "6", "--grid-n", "32", *flags, "--out", str(path)],
    )
    assert code == 2
    assert message in err
    assert "fit failure" not in err and not path.exists()


def test_scaling_element_validation(capsys):
    code, _, err = run(
        capsys,
        ["scaling", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8",
         "--tmin", "0.1", "--tmax", "0.2", "--element", "nc:beta-jz"],
    )
    assert code == 2


# ---------------------------------------------------------------------------
# ratio map


def test_ratio_map_synthetic_contour(tmp_path, capsys):
    path = tmp_path / "map.csv"
    code, _, _ = run(
        capsys,
        ["ratio-map", "--synthetic-check", "--res", "15x12", "--contour", "1.0",
         "--out", str(path)],
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "jz,temp,ratio"
    assert len(lines) == 1 + 15 * 12
    sidecar = json.loads((tmp_path / "map.contour.json").read_text())
    assert sidecar["exponent"] == pytest.approx(1.0, abs=1e-6)
    contour_lines = (tmp_path / "map.contour.csv").read_text().strip().splitlines()
    assert contour_lines[0] == "jz,temp"
    assert len(contour_lines) == sidecar["n_points"] + 1


def test_ratio_map_real_cells(tmp_path, capsys):
    path = tmp_path / "map.csv"
    code, _, _ = run(
        capsys,
        ["ratio-map", "--jz-min", "0.62", "--jz-max", "0.7", "--t-min", "0.5",
         "--t-max", "1.0", "--res", "8x8", "--grid-n", "32", "--tol", "1e-3",
         "--threads", "2", "--out", str(path)],
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 64
    ratios = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert np.all(ratios >= 0.0) and np.all(np.isfinite(ratios))


def test_ratio_map_names_failed_cells(tmp_path, capsys):
    # a 1e-15 tolerance on a 16-point base grid fails the refined
    # near-critical column jz = 0.62 (gap 0.48), whose combined estimates
    # stay at 9e-14 to 3e-13 from T = 0.02 to 0.1 (the grid climbs to
    # 16 * 2^6 = 1024); the gapped columns beside it converge at the
    # round-off floor of their trapezoid
    code, _, err = run(
        capsys,
        ["ratio-map", "--jz-min", "0.62", "--jz-max", "0.7", "--t-min", "0.02",
         "--t-max", "0.1", "--res", "8x8", "--grid-n", "16", "--tol", "1e-15",
         "--threads", "2", "--out", str(tmp_path / "map.csv")],
    )
    assert code == 3
    lines = err.strip().splitlines()
    named = [line for line in lines if line.startswith("cell jz=")]
    assert lines[-1] == f"{len(named)} cells failed quadrature"
    assert named
    for line in named:
        assert line.startswith("cell jz=0.62 T=")
        assert "did not reach the requested tolerance at T = " in line
    # every cell is written, and the ratio field is empty at the named ones
    assert _empty_ratio_cells(tmp_path / "map.csv") == _named_cells(named)


def test_ratio_map_vanished_ratio_is_undefined_not_a_quadrature_failure(tmp_path, capsys):
    # at jz = 1 the figure-of-merit trajectory decouples (jx = jy = 0), so
    # nc:jz-jz is exactly 0 at every temperature of that column: every
    # cell converged, and the ratio is undefined there, which is a usage
    # error (exit 2), not non-convergence (exit 3).  The map and the
    # contour sidecars are written from the other cells all the same
    code, _, err = run(
        capsys,
        ["ratio-map", "--res", "8x8", "--jz-min", "0.93", "--jz-max", "1.0", "--t-min", "0.2",
         "--t-max", "0.5", "--tol", "1e-3", "--contour", "100",
         "--out", str(tmp_path / "map.csv")],
    )
    assert code == 2
    lines = err.strip().splitlines()
    assert lines[-1] == "8 cells have no defined ratio"
    assert len(lines) == 9
    for line in lines[:-1]:
        assert line.startswith("cell jz=1 T=")
        assert line.endswith(" failed: nonclassical element vanished")
    assert _empty_ratio_cells(tmp_path / "map.csv") == _named_cells(lines[:-1])
    points = (tmp_path / "map.contour.csv").read_text().splitlines()[1:]
    assert points and all(0.93 <= float(p.split(",")[0]) <= 0.99 for p in points)
    assert json.loads((tmp_path / "map.contour.json").read_text())["n_points"] == len(points)


def _empty_ratio_cells(path):
    # the (jz, temp) fields of the rows of a 64-cell map without a ratio
    rows = path.read_text().splitlines()
    assert rows[0] == "jz,temp,ratio" and len(rows) == 65
    cells = [row.split(",") for row in rows[1:]]
    assert all(len(cell) == 3 for cell in cells)
    assert all(float(ratio) > 0.0 for _, _, ratio in cells if ratio)
    return {(jz, t) for jz, t, ratio in cells if not ratio}


def _named_cells(lines):
    # the (jz, T) of each "cell jz=... T=... failed: ..." line
    return {tuple(field.split("=")[1] for field in line.split()[1:3]) for line in lines}


def test_scaling_critical_power_dispatch(tmp_path, capsys):
    path = tmp_path / "fit.json"
    code, _, _ = run(
        capsys,
        ["scaling", "--jx", "0.25", "--jy", "0.25", "--jz", "0.5",
         "--tmin", "0.001", "--tmax", "0.01", "--points", "6",
         "--element", "nc:jz-jz", "--out", str(path)],
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["params"]["model"] == "power"
    assert doc["fit"]["model"] == "PowerLawFit"
    # the precise -0.5 law over [1e-4, 1e-2] is an acceptance criterion;
    # this checks dispatch plus a loose exponent sanity band
    assert -0.75 < doc["fit"]["params"]["exponent"] < -0.35


def test_ratio_map_resolution_validation(capsys):
    code, _, err = run(capsys, ["ratio-map", "--res", "1x1"])
    assert code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--t-max", "inf"], "ranges must be finite"),
        (["--jz-max", "inf"], "ranges must be finite"),
        (["--threads", "-3"], "threads must be unset or >= 0"),
    ],
    ids=["t-max-inf", "jz-max-inf", "negative-threads"],
)
def test_ratio_map_input_failures_are_usage_errors(tmp_path, capsys, flags, message):
    # refused before any cell is integrated: exit 2, not the exit 3 of
    # failed cells
    path = tmp_path / "map.csv"
    code, _, err = run(capsys, ["ratio-map", "--res", "8x8", *flags, "--out", str(path)])
    assert code == 2
    assert message in err
    assert not path.exists()


def test_ratio_map_invalid_contour_level_writes_nothing(tmp_path, capsys):
    path = tmp_path / "map.csv"
    code, _, err = run(
        capsys, ["ratio-map", "--synthetic-check", "--contour", "-1", "--out", str(path)]
    )
    assert code == 2
    assert "positive" in err
    assert list(tmp_path.iterdir()) == []


def test_synthetic_check_takes_the_computed_map_axes(tmp_path, capsys):
    for bad in (["--t-min", "0.05", "--t-max", "0.002"], ["--res", "8x7"]):
        path = tmp_path / "map.csv"
        code, _, _ = run(capsys, ["ratio-map", "--synthetic-check", *bad, "--out", str(path)])
        assert code == 2
        assert not path.exists()


def test_ratio_map_contour_requires_file_output(capsys):
    code, _, err = run(capsys, ["ratio-map", "--synthetic-check", "--contour", "0.5"])
    assert code == 2
    assert "--out" in err


# ---------------------------------------------------------------------------
# config file


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# couplings\njx = 0.1\njy = 0.1\njz = 0.8\n")
    code, out, _ = run(capsys, ["phase", "--config", str(cfg)])
    assert code == 0
    assert out.strip() == "gapped-Az gap=1.2"
    # flags override the file
    code, out, _ = run(capsys, ["phase", "--config", str(cfg), "--jz", "0.05"])
    assert code == 0
    assert out.startswith("gapless-B")


def test_config_unknown_key_is_diagnosed(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for key in ("bogus-key", "threads"):  # only ratio-map has --threads
        cfg.write_text(f"jx = 0.1\n{key} = 3\n")
        code, out, err = run(capsys, ["phase", "--config", str(cfg), "--jy", "0.1", "--jz", "0.8"])
        assert code == 2 and out == ""
        assert f"unknown config key {key!r}" in err


def test_config_invalid_value_is_diagnosed(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jx = banana\n")
    code, _, err = run(capsys, ["phase", "--config", str(cfg), "--jy", "0.1", "--jz", "0.8"])
    assert code == 2
    assert "argument --jx: invalid float value: 'banana'" in err
    assert f"config {cfg}" in err


def test_config_file_that_cannot_be_read_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    code, _, err = run(capsys, ["phase", "--config", str(missing)])
    assert code == 2
    assert "missing.cfg" in err


def test_config_single_value_flag_keeps_the_whole_string(tmp_path, capsys):
    argv = ["sweep", "--path", "start=0.2,0.2,0.6", "end=0.6,0.2,0.2", "--steps", "2",
            "--size", "5", "--elements", "jz-jz"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("temp = 0.5, 0.7\n")
    code, from_file, _ = run(capsys, argv + ["--config", str(cfg)])
    assert code == 0
    code, from_flags, _ = run(capsys, argv + ["--temp", "0.5,0.7"])
    assert code == 0
    assert from_file == from_flags


MAP_AXES = ["ratio-map", "--jz-min", "0.62", "--jz-max", "0.7", "--t-min", "0.5",
            "--t-max", "1.0", "--res", "8x8"]
# the computed map also takes quadrature flags, which the synthetic one refuses
REAL_MAP = MAP_AXES + ["--grid-n", "32", "--tol", "1e-3"]


def test_config_switch_takes_a_boolean(tmp_path, capsys):
    # a switch set in the file means what its value says, not "present"
    outputs = {}
    for value, argv in (("false", REAL_MAP), ("yes", MAP_AXES)):
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text(f"synthetic-check = {value}\n")
        outputs[value] = tmp_path / f"{value}.csv"
        code, _, _ = run(capsys, argv + ["--config", str(cfg), "--out", str(outputs[value])])
        assert code == 0
    real, synthetic = tmp_path / "real.csv", tmp_path / "synthetic.csv"
    assert run(capsys, REAL_MAP + ["--out", str(real)])[0] == 0
    assert run(capsys, MAP_AXES + ["--synthetic-check", "--out", str(synthetic)])[0] == 0
    assert outputs["false"].read_text() == real.read_text()
    assert outputs["yes"].read_text() == synthetic.read_text()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("synthetic-check = maybe\n")
    code, _, err = run(capsys, REAL_MAP + ["--config", str(cfg)])
    assert code == 2
    assert "synthetic-check" in err


def test_config_multi_value_flag_splits_on_whitespace(tmp_path, capsys):
    argv = ["sweep", "--steps", "2", "--temp", "0.5", "--size", "5", "--elements", "jz-jz"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("path = start=0.2,0.2,0.6  end=0.6,0.2,0.2\n")
    code, from_file, _ = run(capsys, argv + ["--config", str(cfg)])
    assert code == 0
    code, from_flags, _ = run(
        capsys, argv + ["--path", "start=0.2,0.2,0.6", "end=0.6,0.2,0.2"]
    )
    assert code == 0
    assert from_file == from_flags
    cfg.write_text("path = start=0.2,0.2,0.6\n")
    code, _, err = run(capsys, argv + ["--config", str(cfg)])
    assert code == 2
    assert "path" in err


SWEEP = ["sweep", "--path", "start=0.2,0.2,0.6", "end=0.6,0.2,0.2", "--steps", "2",
         "--size", "5", "--temp", "0.5"]
SCALING = ["scaling", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8", "--tmin", "0.1",
           "--tmax", "0.2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (SWEEP + ["--elements", "jz-qq"], "invalid element 'jz-qq'"),
        (["phase", "--config", "{cfg}"], "run.cfg:2: expected 'key = value'"),
        (SWEEP + ["--path", "start=a,0.2,0.6", "end=0.6,0.2,0.2"],
         "invalid path coordinates in 'start=a,0.2,0.6'"),
        (SWEEP + ["--path", "start=0.2,0.2,0.6", "start=0.6,0.2,0.2"],
         "path requires both start= and end="),
        (SWEEP + ["--steps", "0"], "steps must be >= 1"),
        (SWEEP + ["--temp", "0.1,warm"], "invalid temp list '0.1,warm'"),
        (SCALING + ["--points", "5"], "points must be >= 6 for the fits"),
        (SCALING + ["--element", "jz-jz"], "element must look like part:pair"),
        (["ratio-map", "--res", "8by8"], "invalid res '8by8', expected NxM"),
    ],
    ids=["element-token", "config-line", "path-coordinates", "path-missing-end", "steps-0",
         "temp-list", "points-5", "element-without-part", "res"],
)
def test_malformed_values_are_named_usage_errors(tmp_path, capsys, argv, message):
    # refused before anything is computed: exit 2 and one error line that
    # names the value
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jx = 0.1\njy 0.1\n")
    code, out, err = run(capsys, [str(cfg) if a == "{cfg}" else a for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_usage_without_a_command(capsys):
    code, out, _ = run(capsys, [])
    assert code == 2
    assert out == cli._USAGE
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert out == cli._USAGE


# ---------------------------------------------------------------------------
# output layout


def test_json_documents_keep_their_key_order(tmp_path, capsys):
    tensor, fit = tmp_path / "tensor.json", tmp_path / "fit.json"
    couplings = ["--jx", "0.1", "--jy", "0.1", "--jz", "0.8"]
    assert run(capsys, ["tensor", *couplings, "--temp", "0.5", "--grid-n", "32",
                        "--out", str(tensor)])[0] == 0
    assert run(capsys, ["scaling", *couplings, "--tmin", "0.005", "--tmax", "0.015",
                        "--points", "6", "--element", "c:beta-beta", "--grid-n", "32",
                        "--out", str(fit)])[0] == 0
    assert run(capsys, ["ratio-map", "--synthetic-check", "--contour", "1.0",
                        "--out", str(tmp_path / "map.csv")])[0] == 0
    keys = {
        name: list(json.loads((tmp_path / name).read_text()))
        for name in ("tensor.json", "fit.json", "map.contour.json")
    }
    assert keys == {
        "tensor.json": ["schema_version", "command", "params", "phase", "index_order",
                        "classical", "nonclassical", "evaluation"],
        "fit.json": ["schema_version", "command", "params", "samples", "fit"],
        "map.contour.json": ["schema_version", "command", "level", "n_points", "exponent",
                             "intercept", "r_squared", "exponent_below", "exponent_above"],
    }
