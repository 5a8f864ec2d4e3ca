"""CLI surface: subcommands, config parsing, file formats, manifests."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ygraph.cli import main, parse_config, read_field_csv, read_trace_csv
from ygraph.errors import ConfigError
from ygraph.forcing import forcing_class
from ygraph.fracops import riemann_liouville
from ygraph.graphsim import ScenarioConfig
from ygraph.linops import GridFunction, airy_group
from ygraph.specfun import airy_scaled_with_deriv
from ygraph.vertex import CouplingKind, VertexCoupling, admissible_scan

MINIMAL = """
[coupling]
type = 1
a2 = 1.0
a3 = 1.0
b2 = 0.0
b3 = 0.0
c2 = 1.0
c3 = 1.0
"""

SCENARIO = """
[grid]
L = 20
h = 0.1
[time]
dt = 0.02
T = 0.2
mode = linear
[coupling]
type = 1
a2 = 1.0
a3 = 1.0
b2 = 0.5
b3 = 0.5
c2 = 1.0
c3 = 1.0
[initial]
v = gaussian amplitude=0.5 center=6 width=0.9
[sponge]
fraction = 0.0
strength = 0.0
"""

CONSTRUCT_DATA = """[initial]
u = gaussian amplitude=1.0 center=-8 width=1.2
v = gaussian amplitude=0.7 center=7 width=1.1
w = gaussian amplitude=0.5 center=9 width=1.3
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_table(path, header, formats):
    """The columns of a CSV table, once its header is ``header`` and every
    entry is its column's %-format of the double it parses to, so that it
    parses back bit-exactly."""
    lines = Path(path).read_text().splitlines()
    assert lines[0] == header
    fmts = formats.split(",")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        assert [f % float(tok) for f, tok in zip(fmts, row)] == row
    cols = np.array(rows, dtype=float).reshape(len(rows), len(fmts)).T
    return dict(zip(header.split(","), cols))


# every key of SCENARIO; [coupling] keys have no default, the others take
# the ScenarioConfig field's default when omitted
SCENARIO_KEYS = {("grid", "L"): "L", ("grid", "h"): "h", ("time", "dt"): "dt",
                 ("time", "T"): "T", ("time", "mode"): "mode",
                 ("coupling", "type"): None,
                 **{("coupling", k): None
                    for k in ("a2", "a3", "b2", "b3", "c2", "c3")},
                 ("sponge", "fraction"): "sponge_fraction",
                 ("sponge", "strength"): "sponge_strength"}
DELETE, UNKNOWN_KEY, UNKNOWN_SECTION = "<delete>", "<unknown key>", "<unknown section>"
BAD_VALUES = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "+Infinity", "1e999", "-1e999"]),
    st.text("abcdefghijklmnopqrstuvwxyz", min_size=1).filter(
        lambda v: v not in ("linear", "nonlinear")))


def corrupt(section, key, how):
    """SCENARIO with one key given a bad value, deleted, joined by an
    unknown key, or with its section renamed to an unknown one."""
    line = re.compile(rf"^{key} = .*$", re.M)
    if how == DELETE:
        return line.sub("", SCENARIO)
    if how == UNKNOWN_KEY:
        return line.sub(lambda m: f"{m.group()}\n{key}x = 1", SCENARIO)
    if how == UNKNOWN_SECTION:
        return SCENARIO.replace(f"[{section}]", f"[{section}x]")
    return line.sub(f"{key} = {how}", SCENARIO)


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, "min.cfg", MINIMAL))
        assert (cfg.L, cfg.h, cfg.dt, cfg.T) == (50.0, 0.05, 1e-3, 1.0)
        assert cfg.mode == "linear"
        assert cfg.initial_u.kind == "zero"

    def test_compatibility_violation_reported(self, tmp_path):
        text = MINIMAL + "[initial]\nu = gaussian amplitude=1 center=0 width=2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "bad.cfg", text))
        assert any("a2 v0(0)" in p for p in err.value.problems)

    @pytest.mark.parametrize("edge", ["u", "w"])
    def test_nan_amplitude_rejected(self, tmp_path, capsys, edge):
        text = MINIMAL + f"[initial]\n{edge} = gaussian amplitude=nan center=0\n"
        path = write(tmp_path, "nan.cfg", text)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any("line 11" in p and "must be finite" in p
                   for p in err.value.problems)
        assert main(["simulate", "--config", path,
                     "--out", str(tmp_path / "run")]) == 2

    def test_malformed_numeric_with_line(self, tmp_path):
        text = "[grid]\nL = fifty\nh = 0.05\n" + MINIMAL
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "bad.cfg", text))
        assert any("line 2" in p for p in err.value.problems)

    def test_aggregated_problems(self, tmp_path):
        text = "[grit]\nL = 5\n[grid]\nq = 3\nh = -1\n" + MINIMAL
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "bad.cfg", text))
        probs = "\n".join(err.value.problems)
        assert "unknown section" in probs
        assert "unknown key" in probs

    def test_missing_coupling(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "empty.cfg", "[grid]\nL = 50\n"))

    @pytest.mark.parametrize("section,key", list(SCENARIO_KEYS),
                             ids=[f"{s}-{k}" for s, k in SCENARIO_KEYS])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(how=st.one_of(BAD_VALUES,
                         st.sampled_from([DELETE, UNKNOWN_KEY, UNKNOWN_SECTION])))
    def test_corrupted_key(self, section, key, how):
        # one corrupted key is a ConfigError, never another class, and
        # simulate exits 2 before writing anything
        field = SCENARIO_KEYS[(section, key)]
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "scenario.cfg", corrupt(section, key, how))
            if how == DELETE and field is not None:
                cfg = parse_config(path)
                assert getattr(cfg, field) == getattr(ScenarioConfig, field)
                return
            with pytest.raises(ConfigError):
                parse_config(path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["simulate", "--config", path,
                             "--out", os.path.join(tmp, "run")]) == 2
            assert err.getvalue().startswith("configuration errors:\n")
            assert os.listdir(tmp) == ["scenario.cfg"]


class TestAiry:
    def test_point_evaluation(self, capsys):
        assert main(["airy", "--x", "0"]) == 0
        out = capsys.readouterr().out
        assert "0.2461" in out and "-0.1244" in out

    def test_table(self, tmp_path):
        out = str(tmp_path / "table.csv")
        assert main(["airy", "--table", "-1", "1", "5", "--out", out]) == 0
        cols = read_table(out, "x,A,Aprime", "%.12g,%.17g,%.17g")
        a, ap = airy_scaled_with_deriv(np.linspace(-1.0, 1.0, 5))
        assert np.array_equal(cols["x"], [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert np.array_equal(cols["A"], a) and np.array_equal(cols["Aprime"], ap)

    @pytest.mark.parametrize("n", ["2.5", "-1", "0", "nan", "inf"])
    def test_table_rejects_bad_count(self, tmp_path, capsys, n):
        out = tmp_path / "table.csv"
        assert main(["airy", "--table", "-1", "1", n, "--out", str(out)]) == 2
        assert "--table" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--x=-1e200"], ["--x", "nan"],
                                      ["--table", "-100000000000", "0", "3"],
                                      ["--x", "-1e200"],
                                      ["--table", "-1e11", "0", "3"]],
                             ids=["x", "x-nan", "table", "x-exponent",
                                  "table-exponent"])
    def test_rejects_argument_outside_domain(self, tmp_path, capsys, argv):
        out = tmp_path / "table.csv"
        assert main(["airy", *argv, "--out", str(out)]) == 2
        cap = capsys.readouterr()
        assert argv[0].split("=")[0] in cap.err
        assert cap.out == "" and not out.exists()


    @pytest.mark.parametrize("argv,want", [
        (["--x", "-1e-3"], "A(-0.001) = 0.2462"),
        (["--x", "-.5"], "A(-0.5) = 0.3064"),
        (["--table", "-1e-3", "0", "2"], "-0.001,0.2462")],
        ids=["x", "x-no-leading-digit", "table"])
    def test_negative_exponent_form_is_a_value(self, capsys, argv, want):
        # argparse before 3.13 took "-1e-3" for an option name
        assert main(["airy", *argv]) == 0
        assert want in capsys.readouterr().out


class TestRoundTrips:
    def test_fracint(self, tmp_path, capsys):
        dt = 1e-3
        t = dt * np.arange(501)
        path = write(tmp_path, "trace.csv",
                     "t,value\n" + "\n".join(f"{tt:.12g},{v:.17g}"
                                             for tt, v in zip(t, t ** 2)))
        out = str(tmp_path / "out.csv")
        assert main(["fracint", "--alpha", "-1", "--in", path, "--out", out]) == 0
        tr = read_trace_csv(out)
        m = t >= 0.1
        assert np.abs(tr.samples[m] - 2 * t[m]).max() <= 1e-5
        assert os.path.exists(out + ".manifest.json")
        cols = read_table(out, "t,value", "%.12g,%.17g")
        want = riemann_liouville(read_trace_csv(path), -1.0)
        assert np.array_equal(cols["value"], want.samples)

    def test_group(self, tmp_path):
        h = 0.05
        x = np.arange(-100.0, 100.0, h)
        path = write(tmp_path, "field.csv",
                     "x,value\n" + "\n".join(f"{xx:.12g},{v:.17g}"
                                             for xx, v in
                                             zip(x, np.exp(-x ** 2 / 2))))
        out = str(tmp_path / "evolved.csv")
        assert main(["group", "--t", "0.3", "--in", path, "--out", out]) == 0
        g = read_field_csv(out)
        n0 = np.linalg.norm(np.exp(-x ** 2 / 2))
        assert abs(np.linalg.norm(g.samples) - n0) / n0 <= 1e-9
        cols = read_table(out, "x,value", "%.12g,%.17g")
        want = airy_group(read_field_csv(path), 0.3).samples
        assert np.array_equal(cols["value"], want)

    def test_forcing(self, tmp_path):
        dt = 1e-3
        t = dt * np.arange(301)
        path = write(tmp_path, "g.csv",
                     "t,value\n" + "\n".join(f"{tt:.12g},{v:.17g}"
                                             for tt, v in
                                             zip(t, t ** 2 * np.exp(-t))))
        out = str(tmp_path / "field.csv")
        assert main(["forcing", "--lambda", "0.25", "--sign", "minus",
                     "--g", path, "--grid", "10,0.05",
                     "--times", "0,0.15,0.3", "--out", out]) == 0
        made = [p for p in os.listdir(tmp_path) if p.startswith("field_t")]
        assert len(made) == 3
        times = np.array([0.0, 0.15, 0.3])
        grid = GridFunction(-10.0, 0.05, np.zeros(401))
        for sign, header in (("minus", "x,value"), ("plus", "x,re,im")):
            out = str(tmp_path / f"{sign}.csv")
            assert main(["forcing", "--lambda", "0.25", "--sign", sign,
                         "--g", path, "--grid", "10,0.05",
                         "--times", "0,0.15,0.3", "--out", out]) == 0
            want = forcing_class(0.25, sign, read_trace_csv(path), grid, times)
            for m, stamp in enumerate(("0", "0p15", "0p3")):
                cols = read_table(tmp_path / f"{sign}_t{stamp}.csv", header,
                                  "%.12g" + ",%.17g" * header.count(","))
                got = cols["value"] if sign == "minus" else cols["re"] + 1j * cols["im"]
                assert np.array_equal(got, want.levels[m])
        # no suffix: the levels take .csv, beside a dot in a directory name
        outdir = tmp_path / "run.v1"
        outdir.mkdir()
        assert main(["forcing", "--lambda", "0.25", "--sign", "minus", "--g", path,
                     "--grid", "10,0.05", "--times", "0,0.15",
                     "--out", str(outdir / "field")]) == 0
        assert sorted(os.listdir(outdir)) == ["field.manifest.json", "field_t0.csv",
                                              "field_t0p15.csv"]

    @pytest.mark.parametrize("option, value", [
        ("--grid", "30,0.07"), ("--grid", "30,0"), ("--grid", "30,-0.05"),
        ("--grid", "30,nan"), ("--grid", "inf,0.05"), ("--grid", "0,0.05"),
        ("--grid", "30"), ("--times", "0,nan"), ("--times", "0"),
        ("--times", "0,0.15,0.2"), ("--times", "0.1,0.2"), ("--times", "0,0.5"),
        ("--lambda", "nan"), ("--lambda", "inf")])
    def test_forcing_rejects_bad_grid_or_times(self, tmp_path, capsys, option,
                                               value):
        t = 1e-3 * np.arange(301)
        path = write(tmp_path, "g.csv",
                     "t,value\n" + "\n".join(f"{tt:.12g},{v:.17g}"
                                             for tt, v in zip(t, t ** 2)))
        argv = ["forcing", "--lambda", "0.25", "--sign", "minus", "--g", path,
                "--out", str(tmp_path / "field.csv")]
        for opt, val in {"--grid": "10,0.05", "--times": "0,0.15,0.3",
                         option: value}.items():
            argv += [opt, val]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert option in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["g.csv"]

    def test_forcing_rejects_nan_row(self, tmp_path, capsys):
        path = write(tmp_path, "g.csv",
                     "t,value\n0,0\n0.001,1e-6\n0.002,nan\n0.003,9e-6\n")
        out = tmp_path / "field.csv"
        assert main(["forcing", "--lambda", "0.25", "--sign", "minus",
                     "--g", path, "--grid", "10,0.05", "--times", "0,0.003",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err
        assert "g.csv" in err and "data row 3" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["g.csv"]


class TestVertexCommands:
    def test_det(self, capsys):
        eps = 0.1
        lam2 = 3.0 * eps / math.pi
        rc = main(["vertex", "det", "--type", "1",
                   "--coeffs", "1,1,0,0,1,1",
                   "--lambda", f"0,{lam2},0,0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1.03749929" in out
        assert "invertible: yes" in out

    def test_scan(self, tmp_path, capsys):
        out = str(tmp_path / "region.csv")
        rc = main(["vertex", "scan", "--s", "0", "--type", "1",
                   "--coeffs", "1,1,0,0,1,1", "--resolution", "11",
                   "--out", out])
        assert rc == 0
        rows = Path(out).read_text().splitlines()
        assert rows[0] == "lambda,lambda2,absdet,threshold,invertible"
        assert len(rows) == 12
        cols = read_table(out, rows[0], "%.12g,%.12g,%.17g,%.17g,%d")
        rep = admissible_scan(0.0, VertexCoupling(CouplingKind.TYPE1, 1, 1, 0, 0, 1, 1),
                              resolution=11)
        assert np.array_equal(cols["absdet"], [r.absdet for r in rep.rows])
        assert np.array_equal(cols["threshold"], [r.threshold for r in rep.rows])
        assert np.array_equal(cols["invertible"], [r.invertible for r in rep.rows])

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_scan_rejects_bad_resolution(self, tmp_path, capsys, resolution):
        out = tmp_path / "region.csv"
        assert main(["vertex", "scan", "--s", "0", "--type", "1",
                     "--coeffs", "1,1,0,0,1,1", "--resolution", resolution,
                     "--out", str(out)]) == 2
        assert "--resolution" in capsys.readouterr().err
        assert not out.exists()

    def test_construct_uses_given_spacing(self, tmp_path, capsys):
        # np.linspace would put x = 0 about 1e-15 off the grid node here
        text = MINIMAL.replace("[coupling]", "[grid]\nL = 55\n[time]\nT = 0.01\n"
                               "[coupling]")
        cfgp = write(tmp_path, "construct.cfg", text)
        out = str(tmp_path / "traj")
        assert main(["vertex", "construct", "--config", cfgp, "--h", "0.0125",
                     "--levels", "11", "--out", out]) == 0
        assert "not checked" in capsys.readouterr().out
        man = json.loads(Path(out, "manifest.json").read_text())
        assert man["metrics"]["worst_relative_residual"] is None
        u = read_field_csv(os.path.join(out, "edge_u_t0p01.csv"))
        assert u.spacing == pytest.approx(0.0125, rel=1e-12)
        read_table(os.path.join(out, "vertex_residuals.csv"),
                   "t,dirichlet:u-a2v,dirichlet:u-a3w,neumann:u-b2v-b3w,"
                   "second:u-c2v-c3w", "%.12g" + ",%.17g" * 4)

    @pytest.mark.parametrize("h", ["0", "nan", "-0.1", "0.03"],
                             ids=["zero", "nan", "negative", "not-dividing-L"])
    def test_construct_rejects_bad_spacing(self, tmp_path, capsys, h):
        cfgp = write(tmp_path, "construct.cfg", MINIMAL)
        out = tmp_path / "traj"
        assert main(["vertex", "construct", "--config", cfgp, "--h", h,
                     "--out", str(out)]) == 2
        assert "--h" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels", ["0", "1", "4"])
    def test_construct_rejects_bad_level_count(self, tmp_path, capsys, levels):
        # T/dt = 25 steps: 0 and 1 levels are too few, 4 - 1 does not divide 25
        text = MINIMAL.replace("[coupling]", "[grid]\nL = 20\nh = 0.1\n[time]\n"
                               "dt = 0.002\nT = 0.05\n[coupling]")
        cfgp = write(tmp_path, "construct.cfg", text)
        out = tmp_path / "traj"
        assert main(["vertex", "construct", "--config", cfgp, "--h", "0.1",
                     "--levels", levels, "--out", str(out)]) == 2
        assert "--levels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("h, code", [("0.00625", 0), ("0.05", 1)],
                             ids=["fine-passes", "coarse-fails"])
    def test_construct_gates_on_residual(self, tmp_path, capsys, h, code):
        # criterion 6's data on a shorter line and ladder: the worst residual
        # after the start-up window is 1.4e-2 at h = 0.00625 and 1.1 at 0.05
        text = MINIMAL.replace("[coupling]", "[grid]\nL = 20\n[time]\ndt = 0.001\n"
                               "T = 0.2\n[coupling]") + CONSTRUCT_DATA
        cfgp = write(tmp_path, "construct.cfg", text)
        out = tmp_path / "traj"
        assert main(["vertex", "construct", "--config", cfgp, "--h", h,
                     "--levels", "3", "--out", str(out)]) == code
        cap = capsys.readouterr()
        assert "on t >= 0.1" in cap.out
        assert ("tolerance 0.02" in cap.err) == (code == 1)
        man = json.loads((out / "manifest.json").read_text())
        assert (man["metrics"]["worst_relative_residual"] > 2e-2) == (code == 1)


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        cfgp = write(tmp_path, "scenario.cfg", SCENARIO)
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", cfgp, "--out", out,
                     "--snapshots", "2"]) == 0
        summary = json.loads(Path(out, "summary.json").read_text())
        listed = {os.path.basename(p) for p in summary["outputs"]}
        on_disk = set(os.listdir(out))
        assert on_disk <= listed
        assert "diagnostics.csv" in on_disk
        assert summary["metrics"]["max_coupling_residual"] <= 1e-10
        keys = ("t,mass_u,mass_v,mass_w,u0,v0,w0,ux,vx,wx,uxx,vxx,wxx,flux,"
                "flux_integrand,coupling_residual")
        cols = read_table(Path(out, "diagnostics.csv"), "step," + keys,
                          "%d" + ",%.17g" * 16)
        assert np.array_equal(cols["step"], np.arange(11))
        residual = cols["coupling_residual"]
        assert residual[1:].max() == summary["metrics"]["max_coupling_residual"]
        assert residual[0] == summary["metrics"]["data_coupling_residual"]

    def test_data_residual_reported_apart(self, tmp_path):
        # type-2 data off the type-2 Dirichlet relation u = a2 v + a3 w: the
        # t = 0 row carries the data's backward error |u0(0)| / (|row| |x|)
        # with |row| = |(1, -2, -2)| = 3; every solved step meets the relations
        text = SCENARIO.replace("type = 1", "type = 2").replace(
            "a2 = 1.0\na3 = 1.0", "a2 = 2.0\na3 = 2.0").replace(
            "dt = 0.02", "dt = 0.01").replace(
            "v = gaussian amplitude=0.5 center=6 width=0.9",
            "u = gaussian amplitude=0.8 center=-3")
        cfgp = write(tmp_path, "scenario.cfg", text)
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", cfgp, "--out", out,
                     "--snapshots", "1"]) == 0
        metrics = json.loads(Path(out, "summary.json").read_text())["metrics"]
        assert metrics["max_coupling_residual"] <= 1e-10
        u0 = 0.8 * np.exp(-((np.linspace(-20.0, 0.0, 201) + 3.0) ** 2) / 2.0)
        want = u0[-1] / (3.0 * np.linalg.norm(u0))
        assert metrics["data_coupling_residual"] == pytest.approx(want, rel=1e-9)
        assert metrics["data_coupling_residual"] == pytest.approx(8.8e-4, rel=1e-2)

    def test_determinism(self, tmp_path):
        cfgp = write(tmp_path, "scenario.cfg", SCENARIO)
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            assert main(["simulate", "--config", cfgp, "--out", out,
                         "--snapshots", "2"]) == 0
            outs.append(Path(out, "diagnostics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.cfg", "[grid]\nL = zero\n" + MINIMAL)
        assert main(["simulate", "--config", bad, "--out", str(tmp_path / "x")]) == 2
        assert "configuration errors" in capsys.readouterr().err

    @pytest.mark.parametrize("text,frag", [
        ("[grid]\nL = inf\n", "L must be positive and finite"),
        ("[grid]\nh = nan\n", "h must be positive and finite"),
        ("[grid]\nL = 50.01\n", "L/h"),
        ("[time]\nT = 0.1\ndt = 0.03\n", "T/dt"),
        ("[sponge]\nstrength = inf\n", "sponge_strength"),
    ], ids=["L-inf", "h-nan", "L-fractional", "T-fractional", "sponge-inf"])
    def test_non_finite_or_fractional_sizes(self, tmp_path, capsys, text, frag):
        bad = write(tmp_path, "bad.cfg", text + MINIMAL)
        assert main(["simulate", "--config", bad, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "configuration errors" in err and frag in err
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("ctype,text,frag", [
        ("1", "u = soliton c=-1", "soliton speed c must be positive"),
        ("2", "u = soliton c=-1", "soliton speed c must be positive"),
        ("2", "v = gaussian amplitude=inf", "must be finite"),
        ("2", "w = gaussian center=nan", "must be finite"),
        ("2", "v = gaussian width=0", "width must be positive"),
        ("2", "u = soliton c=inf", "must be finite"),
    ], ids=["type1-soliton-c", "type2-soliton-c", "amplitude-inf", "center-nan",
            "width-zero", "soliton-c-inf"])
    def test_bad_profile_parameters(self, tmp_path, capsys, ctype, text, frag):
        text = MINIMAL.replace("type = 1", f"type = {ctype}") + f"[initial]\n{text}\n"
        bad = write(tmp_path, "bad.cfg", text)
        assert main(["simulate", "--config", bad, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "configuration errors" in err and frag in err
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("snapshots", ["0", "-3"])
    def test_snapshot_count_range(self, tmp_path, capsys, snapshots):
        cfgp = write(tmp_path, "scenario.cfg", SCENARIO)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfgp, "--out", str(out),
                     "--snapshots", snapshots]) == 2
        assert "--snapshots" in capsys.readouterr().err
        assert not out.exists()


class TestOtherCommands:
    def test_scaling_check(self, tmp_path, capsys):
        cfgp = write(tmp_path, "scenario.cfg", SCENARIO)
        rc = main(["scaling-check", "--config", cfgp, "--lam", "1.0"])
        assert rc == 0
        assert "discrepancy u" in capsys.readouterr().out

    def test_picard(self, tmp_path, capsys):
        text = SCENARIO.replace("T = 0.2", "T = 0.2")
        cfgp = write(tmp_path, "scenario.cfg", text)
        out = str(tmp_path / "pic")
        rc = main(["picard", "--config", cfgp, "--iters", "2", "--out", out])
        assert rc == 0
        cols = read_table(os.path.join(out, "picard_history.csv"),
                          "iterate,distance", "%d,%.17g")
        assert np.array_equal(cols["iterate"], [1, 2])
        final = json.loads(Path(out, "manifest.json").read_text())["metrics"]
        assert cols["distance"][-1] == final["final_distance"]

    @pytest.mark.parametrize("iters", ["0", "-1", "11"])
    def test_picard_iteration_count_range(self, tmp_path, capsys, iters):
        cfgp = write(tmp_path, "scenario.cfg", SCENARIO)
        out = tmp_path / "pic"
        assert main(["picard", "--config", cfgp, "--iters", iters,
                     "--out", str(out)]) == 2
        assert "--iters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["vertex", "det", "--type", "1", "--coeffs", "1,1,0,0,1,1",
          "--lambda", "nan,0.1,0,0"], "--lambda"),
        (["vertex", "det", "--type", "1", "--coeffs", "1,1,0,0,1",
          "--lambda", "0,0.1,0,0"], "--coeffs"),
        (["vertex", "scan", "--s", "nan", "--type", "1", "--coeffs", "1,1,0,0,1,1",
          "--out", "{tmp}/scan.csv"], "--s"),
        (["vertex", "scan", "--s", "0", "--eps", "inf", "--type", "1",
          "--coeffs", "1,1,0,0,1,1", "--out", "{tmp}/scan.csv"], "--eps"),
        (["vertex", "scan", "--s", "0", "--type", "1", "--coeffs", "1,1,0,0,1,1,1",
          "--out", "{tmp}/scan.csv"], "--coeffs"),
        (["vertex", "construct", "--config", "{tmp}/scenario.cfg", "--h", "0.1",
          "--lambda", "0.05,0.3,0.05", "--out", "{tmp}/traj"], "--lambda"),
        (["picard", "--config", "{tmp}/scenario.cfg", "--lambda",
          "0.05,inf,0.05,0.05", "--out", "{tmp}/pic"], "--lambda"),
        (["fracint", "--alpha", "nan", "--in", "{tmp}/trace.csv",
          "--out", "{tmp}/out.csv"], "--alpha"),
        (["group", "--t=-inf", "--in", "{tmp}/field.csv",
          "--out", "{tmp}/out.csv"], "--t"),
        (["scaling-check", "--config", "{tmp}/scenario.cfg", "--lam", "nan",
          "--out", "{tmp}/scaling.json"], "--lam"),
        # a separate "-inf" or "-nan" is a value, not an option name
        (["group", "--t", "-inf", "--in", "{tmp}/field.csv",
          "--out", "{tmp}/out.csv"], "--t"),
        (["fracint", "--alpha", "-Infinity", "--in", "{tmp}/trace.csv",
          "--out", "{tmp}/out.csv"], "--alpha"),
        (["scaling-check", "--config", "{tmp}/scenario.cfg", "--lam", "-NaN",
          "--out", "{tmp}/scaling.json"], "--lam"),
    ], ids=["det-lambda-nan", "det-coeffs-count", "scan-s-nan", "scan-eps-inf",
            "scan-coeffs-count", "construct-lambda-count", "picard-lambda-inf",
            "fracint-alpha-nan", "group-t-inf", "scaling-lam-nan",
            "group-t-minus-inf", "fracint-alpha-minus-infinity",
            "scaling-lam-minus-nan"])
    def test_option_values_rejected(self, tmp_path, capsys, argv, option):
        inputs = {"scenario.cfg": SCENARIO,
                  "trace.csv": "t,value\n0,0\n0.001,1\n0.002,2\n0.003,3\n0.004,4\n",
                  "field.csv": "x,value\n-0.1,0\n0,1\n0.1,0\n"}
        for name, text in inputs.items():
            write(tmp_path, name, text)
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        cap = capsys.readouterr()
        assert cap.err.startswith("configuration errors:\n")
        assert f"  {option} must be " in cap.err and cap.out == ""
        assert sorted(os.listdir(tmp_path)) == sorted(inputs)

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        with pytest.raises(SystemExit):
            main(["unknown-subcommand"])

    def test_unexpected_error_one_line(self, monkeypatch, capsys):
        from ygraph import cli

        def broken(args):
            raise RuntimeError("unforeseen state")

        monkeypatch.setattr(cli, "_cmd_vertex_det", broken)
        assert main(["vertex", "det", "--type", "1", "--coeffs", "1,1,0,0,1,1",
                     "--lambda", "0.1,0.1,0.1,0.1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: RuntimeError: unforeseen state\n"

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "nonuniform.csv", "t,value\n0,1\n0.1,1\n0.3,1\n")
        rc = main(["fracint", "--alpha", "0.5", "--in", bad,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err
