import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fockladder
from fockladder.cli import (
    _COMMANDS,
    ENTROPY_PHI_MIN,
    RunConfig,
    _MirroredLegs,
    _write_json,
    load_sidecar_config,
    main,
    parse_args,
    run,
)
from fockladder.experiments import (
    DEFAULT_MU_GRID,
    DEFAULT_PHI_GRID,
    band_panels,
    find_mu_max,
    finite_size_extrapolation,
    interaction_scan,
    scan_flux,
)
from fockladder import floquet
from fockladder.floquet import BranchAmbiguityError, SystemParams
from fockladder.meanfield import mu_critical
from fockladder.observables import PHASE_MASK_THRESHOLD


def subprocess_env(**variables):
    # pytest's pythonpath setting does not reach a subprocess: put the
    # package's source directory on its PYTHONPATH.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fockladder.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **variables, "PYTHONPATH": path}


def usage_exit(argv):
    with pytest.raises(SystemExit) as excinfo:
        parse_args(argv)
    return excinfo.value.code


class TestParseArgs:
    def test_defaults(self):
        config = parse_args(["current-scan"])
        assert config.command == "current-scan"
        assert config.n == 100
        assert config.mu == 0.0
        assert config.xi == 0.5
        assert config.tau == 0.01
        assert config.format == "csv"
        assert config.phi_points == 121
        assert config.phi_min == 0.0
        assert config.phi_max == pytest.approx(math.pi / 2)

    def test_mu_scan_grid_defaults(self):
        config = parse_args(["mu-scan"])
        assert (config.mu_min, config.mu_max, config.mu_points) == (-0.6, 0.1, 71)

    def test_entropy_scan_starts_inside_zone(self):
        config = parse_args(["entropy-scan"])
        assert config.phi_min == ENTROPY_PHI_MIN > 0.0
        assert config.phi_points == 120

    def test_fss_size_list(self):
        config = parse_args(["fss", "--xi", "0.5", "--ns", "20,40,60,80,100"])
        assert config.ns == (20, 40, 60, 80, 100)

    def test_flux_list_auto_and_explicit(self):
        assert parse_args(["bands", "--fluxes", "auto"]).fluxes is None
        assert parse_args(["bands"]).fluxes is None
        assert parse_args(["bands", "--fluxes", "0.3,0.7"]).fluxes == (0.3, 0.7)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ground", "--n", "101"],
            ["ground", "--n", "0"],
            ["ground", "--tau", "0"],
            ["ground", "--bogus"],
            ["bogus-command"],
            ["fss", "--ns", "20,40"],
            ["fss", "--ns", "20,21,40"],
            ["fss", "--ns", "20,20,40"],
            ["bands", "--fluxes", ""],
            ["current-scan", "--phi-min", "0.8", "--phi-max", "0.2"],
            ["current-scan", "--phi-max", "3.2"],
            ["entropy-scan", "--phi-min", "0"],
            ["mu-scan", "--mu-min", "0.2", "--mu-max", "0.1"],
            ["mu-scan", "--mu-points", "2"],
            ["ground", "--tau", "nan"],
            ["ground", "--mu", "inf"],
            ["ground", "--xi", "-1"],
            ["ground", "--n", "abc"],
            ["current-scan", "--phi-points", "1"],
            ["bands", "--fluxes", "0.3,inf"],
            ["mu-scan", "--phi-min", "-0.1"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        assert usage_exit(argv) == 2

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["ground", "--n", "101"], "101"),
            (["ground", "--tau", "0"], "0.0"),
            (["ground", "--xi", "-1"], "-1.0"),
            (["current-scan", "--phi-points", "1"], "1"),
            (["fss", "--ns", "20,40"], "(20, 40)"),
            (["ground", "--format", "xml"], "'xml'"),
        ],
        ids=["n", "tau", "xi", "phi-points", "ns", "format"],
    )
    def test_usage_message_names_flag_and_value(self, capsys, argv, shown):
        usage_exit(argv)
        err = capsys.readouterr().err
        assert f"error: {argv[1]} must be" in err and f"got {shown}" in err


class TestRunConfig:
    def test_dict_roundtrip(self):
        config = parse_args(["mu-scan", "--n", "20", "--mu-points", "11"])
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_rejects_unknown_command(self):
        with pytest.raises(ValueError, match="command"):
            RunConfig(command="explode")

    @pytest.mark.parametrize(
        "field, value",
        [("n", 101), ("n", True), ("n", 2.0), ("n", np.int64(7)), ("tau", 0.0),
         ("phi_points", 1), ("ns", (20, 40)), ("mu", math.nan), ("fluxes", ()), ("out", 5)],
        ids=["n", "n-bool", "n-float", "n-odd-int64", "tau", "phi_points", "ns", "mu", "fluxes",
             "out"],
    )
    def test_rejects_out_of_rule_values(self, field, value):
        flag = "--" + field.replace("_", "-")
        with pytest.raises(ValueError, match=f"^{flag} must be"):
            RunConfig(command="ground", **{field: value})

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "command, fields",
        [("ground", {"n": np.int64(8)}),
         ("fss", {"ns": tuple(np.array([8, 12, 16])), "mu_min": -0.7, "mu_max": -0.2,
                  "mu_points": 6, "phi_points": 9}),
         ("fss", {"ns": [8, 12, 16], "mu_min": -0.7, "mu_max": -0.2,
                  "mu_points": 6, "phi_points": 9}),
         ("bands", {"n": 8, "fluxes": [0.3]}),
         ("bands", {"n": 8, "fluxes": np.array([0.3, 0.6])})],
        ids=["ground", "fss", "fss-list", "bands-list", "bands-array"],
    )
    def test_numpy_integers_run_and_round_trip(self, tmp_path, command, fields, fmt):
        # The rules accept numpy integers, so the writers must spell them;
        # a list or array ns or fluxes is held as the tuple a sidecar loads.
        out = tmp_path / f"run.{fmt}"
        config = RunConfig(command=command, format=fmt, out=str(out), **fields)
        assert run(config) == 0
        assert load_sidecar_config(f"{out}.meta.json") == config

    @pytest.mark.parametrize(
        "edit, named",
        [({"phi_points": 1}, "^--phi-points must be"),
         ({"xi": "0.5"}, "^--xi must be finite, got '0.5'"),
         ({"ns": 5}, "^--ns must be .*, got 5"),
         ({"bogus": 1}, "unknown config field.*bogus"),
         ({"command": ...}, "^missing config field: command$")],
        ids=["out-of-rule", "quoted-number", "scalar-list", "unknown-key", "missing-command"],
    )
    def test_sidecar_is_checked_on_load(self, tmp_path, edit, named):
        out = tmp_path / "scan.csv"
        assert run(parse_args(["current-scan", "--n", "8", "--phi-points", "5",
                               "--out", str(out)])) == 0
        sidecar = tmp_path / "scan.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["config"].update(edit)
        meta["config"] = {key: value for key, value in meta["config"].items()
                          if value is not ...}  # ... drops the field
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=named):
            load_sidecar_config(sidecar)

    @pytest.mark.parametrize("meta", [{"version": "x"}, [1, 2], {"config": [1]}],
                             ids=["no-config", "top-level-list", "config-list"])
    def test_sidecar_without_config_object_is_refused(self, tmp_path, meta):
        sidecar = tmp_path / "run.csv.meta.json"
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="no 'config' object"):
            load_sidecar_config(sidecar)

    def test_default_output_name(self):
        assert parse_args(["ground"]).out_path() == "ground.csv"
        assert parse_args(["bands", "--format", "json"]).out_path() == "bands.json"


# Defaults the help spells symbolically, and the values they stand for.
SYMBOLIC_DEFAULTS = {"pi/2": math.pi / 2, "auto": None, "<command>.<format>": None}


class TestCommandTable:
    """_COMMANDS is the one command table; each flag's default is stated once."""

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_parsed_defaults_are_the_config_defaults(self, command):
        overrides = _COMMANDS[command][3]
        assert parse_args([command]) == RunConfig(command=command, **overrides)

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_help_shows_the_parsed_defaults(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        usage, options = " ".join(capsys.readouterr().out.split()).split(" options: ")
        shown = dict(re.findall(r"--([a-z-]+) (?:[A-Z_]+|\{[a-z,]+\}) [^()]*?\(default ([^)]*)\)",
                                options))
        assert set(shown) == set(re.findall(r"\[--([a-z-]+)", usage)) - {"help"}
        config = parse_args([command])
        for flag, text in shown.items():
            value = getattr(config, flag.replace("-", "_"))
            if text in SYMBOLIC_DEFAULTS:
                assert value == SYMBOLIC_DEFAULTS[text], flag
            elif isinstance(value, tuple):
                assert text == ",".join(map(str, value)), flag
            elif isinstance(value, str):
                assert text == value, flag
            else:
                assert float(text) == pytest.approx(value, rel=1e-5), flag

    def test_defaults_are_the_library_defaults(self):
        config = parse_args(["mu-scan"])
        assert config.tau == SystemParams.tau
        for pipeline in (scan_flux, interaction_scan, find_mu_max, finite_size_extrapolation,
                         band_panels):
            tau = inspect.signature(pipeline).parameters["tau"].default
            assert tau == SystemParams.tau, pipeline.__name__
        phi_grid = np.linspace(config.phi_min, config.phi_max, config.phi_points)
        mu_grid = np.linspace(config.mu_min, config.mu_max, config.mu_points)
        assert phi_grid.tobytes() == DEFAULT_PHI_GRID.tobytes()
        assert mu_grid.tobytes() == DEFAULT_MU_GRID.tobytes()

    def test_entropy_scan_config_needs_its_own_phi_min(self):
        # The inner-zone grid is a flag default only, not a RunConfig default.
        with pytest.raises(ValueError, match="--phi-min must be positive for entropy-scan"):
            RunConfig(command="entropy-scan")


class TestRunGround:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        config = parse_args(["ground", "--n", "8", "--phi", "0.5", "--out", str(out)])
        assert run(config) == 0
        lines = out.read_bytes().split(b"\r\n")
        assert lines[0] == b"leg [m],rung [n],density [prob],phase [rad]"
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 1 + 2 * 9
        densities = [float(r[2]) for r in rows[1:]]
        assert sum(densities) == pytest.approx(1.0, abs=1e-12)
        meta = json.loads((tmp_path / "g.csv.meta.json").read_text())
        assert meta["result"]["jc_numeric"] == pytest.approx(
            meta["result"]["jc_analytic"], rel=0.35
        )
        # phi = 0.5 lies below phi_c: the Meissner ground state is separable.
        assert meta["result"]["entropy_analytic"] == 0.0
        assert "quasienergy" in meta["result"]
        assert capsys.readouterr().out.startswith("ground:")

    def test_full_precision_cells(self, tmp_path):
        out = tmp_path / "g.csv"
        config = parse_args(["ground", "--n", "8", "--phi", "0.5", "--out", str(out)])
        run(config)
        meta = json.loads((tmp_path / "g.csv.meta.json").read_text())
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        total = sum(float(r[2]) for r in rows)
        # 17 significant digits reproduce the binary doubles exactly.
        recomputed = sum(
            float(format(float(r[2]), ".17g")) == float(r[2]) for r in rows
        )
        assert recomputed == len(rows)
        assert meta["config"]["n"] == 8
        assert total == pytest.approx(1.0, abs=5e-16)

    def test_out_of_domain_flux_leaves_analytic_null(self, tmp_path):
        # Outside [0, pi/2] neither closed form applies; at phi = 0 the
        # current's does (0.0) but the entropy formula is singular.
        for phi, jc_analytic in (("2.5", None), ("-0.4", None), ("0", 0.0)):
            out = tmp_path / "g.csv"
            config = parse_args(["ground", "--n", "8", "--phi", phi, "--out", str(out)])
            assert run(config) == 0
            meta = json.loads((tmp_path / "g.csv.meta.json").read_text())
            assert meta["result"]["jc_analytic"] == jc_analytic
            assert meta["result"]["entropy_analytic"] is None


class TestRunScans:
    @pytest.mark.parametrize(
        "argv",
        [["current-scan", "--n", "8", "--phi-points", "11"],
         ["bands", "--n", "8", "--format", "json"]],
        ids=["current-scan", "bands-json"],
    )
    def test_rerun_is_byte_identical(self, tmp_path, argv):
        first = tmp_path / "a.out"
        second = tmp_path / "b.out"
        assert run(parse_args(argv + ["--out", str(first)])) == 0
        assert run(parse_args(argv + ["--out", str(second)])) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_blas_thread_count_does_not_change_the_data(self, tmp_path):
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"scan-{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "fockladder", "current-scan", "--n", "20",
                 "--phi-points", "11", "--out", str(out)],
                env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            rows = list(csv.reader(out.read_text().splitlines()))[1:]
            tables.append(np.array(rows, dtype=float))
        assert tables[0].shape == (11, 3)
        np.testing.assert_allclose(tables[1], tables[0], rtol=0, atol=1e-12)

    def test_json_format(self, tmp_path):
        out = tmp_path / "scan.json"
        config = parse_args(
            ["current-scan", "--n", "8", "--phi-points", "5",
             "--format", "json", "--out", str(out)]
        )
        assert run(config) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "phi [rad]"
        assert len(payload["rows"]) == 5
        assert payload["rows"][0][0] == 0.0

    def test_sidecar_roundtrip(self, tmp_path):
        out = tmp_path / "scan.csv"
        config = parse_args(
            ["current-scan", "--n", "8", "--phi-points", "7", "--out", str(out)]
        )
        assert run(config) == 0
        assert load_sidecar_config(tmp_path / "scan.csv.meta.json") == config

    @pytest.mark.parametrize(
        "command, header, keys",
        [
            ("current-scan", ["phi [rad]", "jc_numeric [2J_C/(N J)]", "jc_analytic [2J_C/(N J)]"],
             ["peak_phi", "peak_jc", "points"]),
            ("entropy-scan", ["phi [rad]", "entropy_numeric [nats]", "entropy_analytic [nats]"],
             ["max_entropy", "argmax_phi", "points"]),
        ],
    )
    def test_flux_scan_rows_and_summary(self, tmp_path, command, header, keys):
        out = tmp_path / "scan.csv"
        config = parse_args([command, "--n", "8", "--phi-min", "0.1", "--phi-points", "9",
                             "--out", str(out)])
        assert run(config) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == header
        assert len(rows) == 1 + 9
        result = json.loads((tmp_path / "scan.csv.meta.json").read_text())["result"]
        assert list(result) == keys
        table = np.array(rows[1:], dtype=float)
        phi, value = table[int(np.argmax(table[:, 1])), :2]
        summary = {"peak_phi": phi, "peak_jc": value, "argmax_phi": phi, "max_entropy": value,
                   "points": 9}
        assert result == {key: summary[key] for key in keys}

    def test_bands_json_nested_panels(self, tmp_path):
        out = tmp_path / "bands.json"
        config = parse_args(
            ["bands", "--n", "8", "--fluxes", "0.4,0.9",
             "--format", "json", "--out", str(out)]
        )
        assert run(config) == 0
        payload = json.loads(out.read_text())
        assert [p["flux"] for p in payload["panels"]] == [0.4, 0.9]
        panel = payload["panels"][0]
        assert len(panel["thetas"]) == 9
        assert len(panel["density"]) == 2
        assert len(panel["density"][0]) == 18
        assert len(panel["quasienergies"]) == 18

    def test_mu_scan_sidecar_holds_refined_maximum(self, tmp_path):
        out = tmp_path / "m.csv"
        config = parse_args(
            ["mu-scan", "--n", "8", "--mu-min", "-0.6", "--mu-max", "-0.2",
             "--mu-points", "5", "--phi-points", "9", "--out", str(out)]
        )
        assert run(config) == 0
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
        assert -0.6 < meta["result"]["mu_max"] < -0.2
        assert meta["result"]["max_jc"] > 0.0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["mu [dimensionless]", "peak_phi [rad]", "peak_jc [2J_C/(N J)]"]
        assert len(rows) == 6

    def test_fss_writes_fit_and_per_size_rows(self, tmp_path):
        out = tmp_path / "f.csv"
        config = parse_args(
            ["fss", "--ns", "8,12,16", "--mu-min", "-0.7", "--mu-max", "-0.2",
             "--mu-points", "6", "--phi-points", "9", "--out", str(out)]
        )
        assert run(config) == 0
        meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
        assert set(meta["result"]) == {"slope", "intercept", "r_squared", "mu_c"}
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 4
        assert [int(r[0]) for r in rows[1:]] == [8, 12, 16]
        # The CLI rows are the library pipeline's per-size results, bit for bit.
        fit, mu_maxes = finite_size_extrapolation(
            ns=(8, 12, 16), xi=config.xi, tau=config.tau,
            mu_grid=np.linspace(config.mu_min, config.mu_max, config.mu_points),
            phi_grid=np.linspace(config.phi_min, config.phi_max, config.phi_points))
        target = mu_critical(config.xi)
        assert [float(r[2]) for r in rows[1:]] == list(mu_maxes)
        assert [float(r[3]) for r in rows[1:]] == [abs(m - target) for m in mu_maxes]
        assert meta["result"]["intercept"] == fit.intercept
        assert meta["result"]["slope"] == fit.slope


class TestMaskedPhaseCells:
    # A phase at a site whose density is below PHASE_MASK_THRESHOLD is
    # written as an empty CSV cell or a JSON null, never as a number.
    def test_ground_csv_and_json(self, tmp_path):
        argv = ["ground", "--n", "100", "--phi", "1.2"]
        assert run(parse_args(argv + ["--out", str(tmp_path / "g.csv")])) == 0
        assert run(parse_args(argv + ["--format", "json", "--out", str(tmp_path / "g.json")])) == 0
        csv_rows = list(csv.reader((tmp_path / "g.csv").read_text().splitlines()))[1:]
        json_rows = json.loads((tmp_path / "g.json").read_text())["rows"]
        for rows, empty in ((csv_rows, ""), (json_rows, None)):
            below = [float(row[2]) < PHASE_MASK_THRESHOLD for row in rows]
            assert [row[3] == empty for row in rows] == below
            assert sum(below) == 56
        assert [float(row[3]) for row in csv_rows if row[3]] == [
            row[3] for row in json_rows if row[3] is not None
        ]

    def test_bands_json_nulls_follow_the_mask(self, tmp_path):
        out = tmp_path / "bands.json"
        assert run(parse_args(["bands", "--n", "60", "--format", "json", "--out", str(out)])) == 0
        written = [panel["ground_phase"] for panel in json.loads(out.read_text())["panels"]]
        panels = band_panels(60, 0.5)
        for phase, panel in zip(written, panels):
            assert [[v is None for v in row] for row in phase] == panel.ground_phase.mask.tolist()
            assert [v for row in phase for v in row if v is not None] == panel.ground_phase.compressed().tolist()
        assert [int(panel.ground_phase.mask.sum()) for panel in panels] == [18, 32, 16]


def _stdlib_json(value):
    # An ndarray as its .tolist(), and so a numpy scalar as its .item().
    return json.dumps(value, indent=2, default=lambda item: item.tolist()) + "\n"


class TestJsonWriter:
    RNG = np.random.default_rng(7)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [[], {}, [[]]], "d": ()},
            [1.5, None, math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1],
            np.array([0.5, math.nan, math.inf, -math.inf, -0.0, 1e-300]),
            [np.float64(0.1), np.float64(-2.5e-8), True, False, 3, -7, None, np.int64(-4),
             np.bool_(True)],
            {"x": np.float64(1 / 3), "flag": True, "count": 12, "none": None, "n": np.int64(8),
             "rows": [[0, 1.25, "text", None], [1, math.nan, "", False]]},
            np.arange(5.0) / 3.0,
            RNG.standard_normal((3, 4)) ** 5,
            RNG.random((2, 3, 4)) * 1e-12,
            np.zeros((2, 0)),
            {"panels": [{"flux": 0.4, "density": np.arange(12.0).reshape(2, 3, 2)}]},
            {"naïve ☃ key": "Fock-Zustände ψ", "list": ["é", "\u2028", "\"q\""]},
            {"a": np.float64(0.1), "b": np.int64(3), "c": math.nan, "d": None,
             "e": np.bool_(False), "f": "x"},
            (0.25, None, math.inf),
            [10**400, 1.5, -0.0],
        ],
        ids=["empty-dict", "empty-list", "nested-empty", "float-row-specials", "ndarray-specials",
             "numpy-scalars-bools-ints", "mixed-dict", "ndarray-1d", "ndarray-2d",
             "ndarray-3d", "ndarray-empty-rows", "ndarray-in-dict", "non-ascii",
             "scalar-dict", "tuple-row", "huge-int-row"],
    )
    def test_bytes_match_stdlib_indent_2(self, tmp_path, value):
        path = tmp_path / "out.json"
        _write_json(path, value)
        assert path.read_bytes() == _stdlib_json(value).encode("ascii")

    def test_mirrored_legs_match_stdlib_indent_2(self, tmp_path):
        # A right-leg row is its left row's text split and rejoined, so the
        # json spellings of non-finite values must survive that too.
        left = self.RNG.random((3, 5))
        left[1, [1, 3]] = math.nan, math.inf
        left[2, 4] = -math.inf
        mirror = np.array([0, 4, 3, 2, 1])
        path = tmp_path / "out.json"
        _write_json(path, {"panels": [{"density": _MirroredLegs(left, mirror), "flux": 0.4}]})
        expected = {"panels": [{"density": np.stack([left, left[:, mirror]]), "flux": 0.4}]}
        assert path.read_bytes() == _stdlib_json(expected).encode("ascii")

    @pytest.mark.parametrize(
        "argv",
        [["bands", "--n", "8", "--fluxes", "0.4,0.9"],
         ["bands", "--n", "60"],
         ["ground", "--n", "8", "--phi", "0.5"],
         ["current-scan", "--n", "8", "--phi-points", "5"],
         ["validate"]],
        ids=["bands", "bands-default-panels", "ground", "current-scan", "validate"],
    )
    def test_cli_json_files_are_stdlib_indent_2(self, tmp_path, argv):
        out = tmp_path / "data.json"
        assert run(parse_args(argv + ["--format", "json", "--out", str(out)])) == 0
        for path in (out, tmp_path / "data.json.meta.json"):
            text = path.read_text(encoding="utf-8")
            assert text == _stdlib_json(json.loads(text))


class TestDecoupledLegs:
    # At xi = 0 the parser accepts the flag; no closed form applies.
    def test_ground_leaves_analytic_null(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(parse_args(["ground", "--n", "8", "--xi", "0", "--phi", "0.5",
                               "--out", str(out)])) == 0
        result = json.loads((tmp_path / "g.csv.meta.json").read_text())["result"]
        assert result["jc_analytic"] is None and result["entropy_analytic"] is None
        assert result["jc_numeric"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("command", ["current-scan", "entropy-scan"])
    def test_flux_scan_leaves_analytic_cells_empty(self, tmp_path, command):
        out = tmp_path / "scan.csv"
        assert run(parse_args([command, "--n", "8", "--xi", "0", "--phi-min", "0.1",
                               "--phi-points", "5", "--out", str(out)])) == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert len(rows) == 5
        assert all(row[1] != "" and row[2] == "" for row in rows)

    def test_mu_scan_has_no_current_maximum(self, tmp_path, capsys):
        config = parse_args(["mu-scan", "--n", "8", "--xi", "0", "--out", str(tmp_path / "m.csv")])
        assert run(config) == 1
        assert "xi = 0" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()


class TestRunErrors:
    def test_unwritable_output_directory(self, tmp_path, capsys):
        config = parse_args(
            ["ground", "--n", "8", "--out", str(tmp_path / "missing" / "g.csv")]
        )
        assert run(config) == 1
        assert "not writable" in capsys.readouterr().err

    def test_compute_error_names_parameter(self, tmp_path, capsys):
        config = parse_args(
            ["mu-scan", "--n", "8", "--mu-min", "-0.2", "--mu-max", "0.1",
             "--mu-points", "4", "--phi-points", "9",
             "--out", str(tmp_path / "m.csv")]
        )
        assert run(config) == 1
        assert "widen the mu bracket" in capsys.readouterr().err

    def test_branch_ambiguity_names_the_point(self, tmp_path, capsys, monkeypatch):
        # Under a certificate floor above 1 the point takes the full sector
        # spectra, which here meet the zone edge.
        def refuse(u, tau):
            raise BranchAmbiguityError("edge")

        monkeypatch.setattr(floquet, "_COS_FLOOR", 2.0)
        monkeypatch.setattr(floquet, "spectrum", refuse)
        out = tmp_path / "g.csv"
        config = parse_args(["ground", "--n", "8", "--mu", "-0.1", "--phi", "1.3", "--out", str(out)])
        assert run(config) == 1
        assert capsys.readouterr().err == "fockladder: error: at mu=-0.1, phi=1.3: edge\n"
        assert not out.exists()


    def test_tau_lost_to_rounding_is_a_compute_error(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        config = parse_args(["ground", "--n", "8", "--phi", "0.5", "--tau", "1e-100",
                             "--out", str(out)])
        assert run(config) == 1
        assert "error: kick interval tau must be >= " in capsys.readouterr().err
        assert not out.exists()

    def test_failed_allocation_is_a_compute_error(self, tmp_path, capsys, monkeypatch):
        def refuse(config):
            raise MemoryError("Unable to allocate 71.1 PiB")

        monkeypatch.setitem(_COMMANDS, "ground", (refuse, *_COMMANDS["ground"][1:]))
        out = tmp_path / "g.csv"
        assert run(RunConfig(command="ground", out=str(out))) == 1
        assert capsys.readouterr().err == "fockladder: error: Unable to allocate 71.1 PiB\n"
        assert not out.exists()


class TestValidateCommand:
    def test_all_checks_pass(self, tmp_path, capsys):
        config = parse_args(["validate", "--out", str(tmp_path / "v.csv")])
        assert run(config) == 0
        out = capsys.readouterr().out
        check_lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert check_lines and all(l.startswith("PASS") for l in check_lines)
        rows = list(csv.reader((tmp_path / "v.csv").read_text().splitlines()))
        assert rows[0] == ["check [name]", "passed [bool]", "detail [text]"]
        assert all(r[1] == "true" for r in rows[1:])


class TestEntryPoints:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fockladder", "ground", "--n", "8",
             "--out", str(tmp_path / "g.csv")],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert (tmp_path / "g.csv").exists()
