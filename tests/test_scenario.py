import json
from dataclasses import replace

import numpy as np
import pytest

from modaldyn.cli import main as cli_main
from modaldyn.errors import ScenarioValidationError
from modaldyn.io import complex_from_json, complex_to_json
from modaldyn.pipeline import run
from modaldyn.scenario import (BUILTINS, Scenario, builtin_scenarios, load_scenario,
                               scenario_from_dict, scenario_to_dict)


class TestBuiltins:
    def test_at_least_five(self):
        names = builtin_scenarios()
        assert len(names) >= 5
        for required in ("easyexample", "albert-free", "singlet",
                         "measured-possessed-property", "interacting-two-spin"):
            assert required in names

    def test_each_validates(self):
        for name in builtin_scenarios():
            BUILTINS[name]().validate()

    def test_easyexample_generates_crossing_weights(self):
        sc = BUILTINS["easyexample"](t1=0.3)
        from modaldyn.pipeline import compute_joint_family
        fam = compute_joint_family(sc)
        w = fam.factor_trajectories[0].weights
        assert np.abs(w[:, 0] - np.cos(fam.grid) ** 2).max() <= 1e-10

    def test_theta_configurable(self):
        sc = BUILTINS["easyexample"](theta=2.0, t1=0.2)
        from modaldyn.pipeline import compute_joint_family
        fam = compute_joint_family(sc)
        w = fam.factor_trajectories[0].weights
        assert np.abs(w[:, 0] - np.cos(2.0 * fam.grid) ** 2).max() <= 1e-10

    def test_measurement_keeps_property_and_correlates_pointer(self):
        from modaldyn.sampler import ensemble_marginals
        sc = small(load_scenario("measured-possessed-property"), n=4000)
        result = run(sc, report_only=True)
        # The measured factor's label never jumps on any path.
        for path in result.paths:
            seq = [path.initial] + [dest for _, dest in path.events]
            assert all(a[0] == b[0] for a, b in zip(seq, seq[1:]))
        # At completion the pointer label determines the measured label.
        fam = result.family
        t_end = fam.grid[-1]
        stats = ensemble_marginals(result.paths, [t_end], fam.states)
        pair_mass = {}
        for k, s in enumerate(fam.states):
            key = (s[0], s[1])
            pair_mass[key] = pair_mass.get(key, 0.0) + stats.frequencies[0][k]
        association = sum(
            max(v for (i, _), v in pair_mass.items() if i == lab)
            for lab in (0, 1)
        )
        assert association >= 1.0 - 3.0 / np.sqrt(sc.ensemble.n_paths)
        # The Born side of the same statement, from the joint probabilities.
        born_pairs = {}
        for k, s in enumerate(fam.states):
            key = (s[0], s[1])
            born_pairs[key] = born_pairs.get(key, 0.0) + fam.probabilities[-1][k]
        born_assoc = sum(
            max(v for (i, _), v in born_pairs.items() if i == lab)
            for lab in (0, 1)
        )
        assert born_assoc >= 1.0 - 1e-6


class TestSerialization:
    @pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 3, 4)],
                             ids=["rank1", "rank2", "rank3"])
    def test_complex_json_roundtrip(self, rng, shape):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        back = complex_from_json(json.loads(json.dumps(complex_to_json(a))))
        assert back.shape == a.shape
        assert np.array_equal(back, a)

    @pytest.mark.parametrize("data", [[[1], [0, 0]], [[1, 0, 0]], [[np.nan, 0]],
                                      [[1, "0"]], [[1, None]], [], [1, 2, 3]],
                             ids=["short-pair", "three-numbers", "nan", "string", "none",
                                  "empty", "triple"])
    def test_complex_json_rejects_malformed_entries(self, data):
        with pytest.raises(ValueError, match=r"finite \[re, im\] pairs"):
            complex_from_json(data)

    def test_scenario_roundtrip(self):
        sc = load_scenario("easyexample")
        back = scenario_from_dict(scenario_to_dict(sc))
        assert back.name == sc.name
        assert np.array_equal(back.hamiltonian, sc.hamiltonian)
        assert np.array_equal(back.initial_state, sc.initial_state)
        assert back.ensemble == sc.ensemble
        assert back.thresholds == sc.thresholds

    def test_builder_reference_with_overrides(self, tmp_path):
        doc = {
            "hamiltonian": {"builder": "easyexample", "params": {"theta": 2.0}},
            "name": "custom",
            "ensemble": {"n_paths": 10, "master_seed": 3, "query_times": [0.1]},
        }
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        sc = load_scenario(str(path))
        assert sc.name == "custom"
        assert sc.ensemble.n_paths == 10
        assert abs(sc.hamiltonian[3, 0] + 2.0) < 1e-12

    def test_unknown_source(self):
        with pytest.raises(ScenarioValidationError, match="builtin"):
            load_scenario("no-such-scenario")

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioValidationError, match="line"):
            load_scenario(str(path))

    def test_validation_names_field(self):
        sc = load_scenario("singlet")
        bad = replace(sc, initial_state=sc.initial_state * 2.0)
        with pytest.raises(ScenarioValidationError, match="norm"):
            bad.validate()
        bad = replace(sc, hamiltonian=sc.hamiltonian * np.nan)
        with pytest.raises(ScenarioValidationError, match="entries must be finite"):
            bad.validate()
        bad = replace(sc, current="bogus")
        with pytest.raises(ScenarioValidationError, match="current"):
            bad.validate()
        bad = replace(sc, time=replace(sc.time, grid_step=-1.0))
        with pytest.raises(ScenarioValidationError, match="grid_step"):
            bad.validate()

    def test_negative_master_seed_rejected(self):
        # Rejected before any stage runs, not deep in the sampling stage.
        with pytest.raises(ScenarioValidationError, match="master_seed"):
            run(BUILTINS["easyexample"](), master_seed=-1)


def small(sc, n=200):
    return replace(sc, ensemble=replace(sc.ensemble, n_paths=n))


class TestPipelineExports:
    def test_export_files_and_determinism(self, tmp_path):
        sc = small(load_scenario("singlet"))
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        run(sc, out_dir=out1)
        run(sc, out_dir=out2)
        names = ["manifest.json", "scenario.json", "state_space.json",
                 "currents.csv", "rates.csv", "paths.jsonl", "stats.csv",
                 "report.json", "trajectory_factor0.csv",
                 "trajectory_factor0_projectors.json"]
        for name in names:
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} not byte-identical"

    def test_state_space_export_content(self, tmp_path):
        sc = small(load_scenario("singlet"))
        run(sc, out_dir=tmp_path)
        rows = json.loads((tmp_path / "state_space.json").read_text())
        assert len(rows) == 4
        probs = sorted(round(r["probability"], 6) for r in rows)
        assert probs == [0.0, 0.0, 0.5, 0.5]

    def test_paths_jsonl_schema(self, tmp_path):
        sc = small(load_scenario("easyexample"), n=50)
        run(sc, out_dir=tmp_path)
        lines = (tmp_path / "paths.jsonl").read_text().strip().splitlines()
        assert len(lines) == 50
        rec = json.loads(lines[0])
        assert set(rec) == {"seed", "initial", "events"}

    def test_kernel_export_when_available(self, tmp_path):
        sc = small(load_scenario("easyexample"), n=20)
        run(sc, out_dir=tmp_path)
        kern = json.loads((tmp_path / "kernel.json").read_text())
        assert set(kern) >= {"s", "t", "matrix", "n_max", "deficit"}
        assert len(kern["matrix"]) == 4
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["kernel_terms"] == kern["n_max"] >= 1

    def test_kernel_terms_null_without_kernel(self):
        result = run(small(BUILTINS["easyexample"](t1=0.005), n=10), report_only=True)
        assert result.kernels is None
        assert result.report.kernel_terms is None
        assert result.report.to_dict()["kernel_terms"] is None

    def test_run_validates_once(self, monkeypatch):
        calls = []
        validate = Scenario.validate

        def counting(self):
            calls.append(self.name)
            return validate(self)

        sc = load_scenario("easyexample")
        monkeypatch.setattr(Scenario, "validate", counting)
        run(sc, n_paths=10)
        assert calls == ["easyexample"]

    def test_report_passes_thresholds(self):
        sc = small(load_scenario("easyexample"), n=20_000)
        result = run(sc, report_only=True)
        assert result.report.failures(sc.thresholds) == []

    def test_small_ensembles_fail_variation_threshold(self):
        # The Born-agreement bound is calibrated for the configured ensemble
        # size; a 30-path run cannot demonstrate it and must report failure.
        sc = small(load_scenario("easyexample"), n=30)
        result = run(sc, report_only=True)
        msgs = result.report.failures(sc.thresholds)
        assert any("variation" in m for m in msgs)


def read_table(path):
    """Header and rows of an exported CSV; every line must end in CRLF."""
    lines = path.read_bytes().split(b"\r\n")
    assert lines[-1] == b""
    assert not any(b"\r" in line or b"\n" in line for line in lines)
    header, *rows = [line.decode("utf-8").split(",") for line in lines[:-1]]
    return header, [list(col) for col in zip(*rows)]


class TestExportRoundTrip:
    """Every exported number reads back exactly, in the documented row order."""

    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("easyexample")
        return run(BUILTINS["easyexample"](t1=0.2, n_paths=50), out_dir=out), out

    @staticmethod
    def assert_floats(column, expected):
        assert np.array_equal([float(x) for x in column],
                              np.asarray(expected, dtype=float).reshape(-1))

    def test_currents(self, exported):
        result, out = exported
        header, (t, i, j, flow) = read_table(out / "currents.csv")
        assert header == ["time", "i", "j", "j_ji"]
        lo, hi = np.triu_indices(result.currents.size, 1)
        self.assert_floats(t, np.repeat(result.family.grid, len(lo)))
        assert [int(x) for x in i] == hi.tolist() * len(result.family.grid)
        assert [int(x) for x in j] == lo.tolist() * len(result.family.grid)
        self.assert_floats(flow, result.currents.upper[:, lo, hi])

    def test_rates(self, exported):
        result, out = exported
        header, (t, i, j, rate, flag) = read_table(out / "rates.csv")
        assert header == ["time", "i", "j", "rate", "pole_flag"]
        src, dst = np.nonzero(~np.eye(result.rate_matrices.size, dtype=bool))
        self.assert_floats(t, np.repeat(result.family.grid, len(src)))
        assert [int(x) for x in i] == src.tolist() * len(result.family.grid)
        assert [int(x) for x in j] == dst.tolist() * len(result.family.grid)
        self.assert_floats(rate, result.rate_matrices.matrix[:, dst, src])
        assert [int(x) for x in flag] == (
            result.rate_matrices.pole_mask[:, dst, src].reshape(-1).astype(int).tolist())

    def test_stats(self, exported):
        result, out = exported
        header, (t, label, freq, born) = read_table(out / "stats.csv")
        assert header == ["time", "label", "frequency", "quantum_probability"]
        stats, grid = result.stats, result.family.grid
        n_labels = len(stats.labels)
        self.assert_floats(t, np.repeat(stats.times, n_labels))
        assert label == ["|".join(map(str, s)) for s in stats.labels] * len(stats.times)
        self.assert_floats(freq, stats.frequencies)
        nodes = np.searchsorted(grid, stats.times)
        self.assert_floats(born, result.family.probabilities[nodes])

    def test_trajectory_and_directions(self, exported):
        result, out = exported
        traj = result.family.factor_trajectories[0]
        header, (t, label, weight, ref) = read_table(out / "trajectory_factor0.csv")
        assert header == ["time", "label", "weight", "projector_ref"]
        self.assert_floats(t, np.repeat(traj.grid, traj.n_labels))
        assert [int(x) for x in label] == list(range(traj.n_labels)) * len(traj.grid)
        self.assert_floats(weight, traj.weights)
        n, d = traj.weights.shape
        assert ref == [f"f0_t{k}_l{i}" for k in range(n) for i in range(d)]
        side = json.loads((out / "trajectory_factor0_projectors.json").read_text())
        assert sorted(side) == sorted(ref)
        v = np.array([complex_from_json(side[r]) for r in ref]).reshape(n, d, -1)
        rebuilt = np.einsum("kix,kiy->kixy", v, v.conj())
        assert np.abs(rebuilt - traj.projectors).max() <= 1e-15


def write_quick_scenario(tmp_path, name="quick", builder="singlet", **params):
    """Scenario file with thresholds loose enough for tiny test ensembles."""
    doc = {
        "hamiltonian": {"builder": builder, "params": params},
        "name": name,
        "ensemble": {"n_paths": 200, "master_seed": 9, "query_times": [0.1, 0.3]},
        "thresholds": {"continuity": 1e-5, "master": 1e-5, "chapman": 1e-5,
                       "honesty": 1e-6, "total_variation": 0.5,
                       "crossing_gap": 1e-2},
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCli:
    def test_list_builtins(self, capsys):
        assert cli_main(["list-builtins"]) == 0
        out = capsys.readouterr().out.split()
        assert "singlet" in out

    def test_validate_builtin(self, capsys):
        assert cli_main(["validate", "easyexample"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_unknown(self, capsys):
        assert cli_main(["validate", "missing.json"]) == 2

    def test_run_scenario_file(self, tmp_path, capsys):
        path = write_quick_scenario(tmp_path)
        code = cli_main(["run", path, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert (tmp_path / "out" / "report.json").exists()
        assert "deterministic" in captured.out

    def test_run_report_only_writes_nothing(self, tmp_path, capsys):
        path = write_quick_scenario(tmp_path)
        code = cli_main(["run", path, "--paths", "50", "--report-only",
                         "--out", str(tmp_path / "none")])
        assert code == 0
        assert not (tmp_path / "none").exists()

    def test_env_out_dir(self, tmp_path, capsys, monkeypatch):
        path = write_quick_scenario(tmp_path)
        monkeypatch.setenv("MODALDYN_OUT", str(tmp_path / "env_out"))
        assert cli_main(["run", path, "--paths", "50"]) == 0
        assert (tmp_path / "env_out" / "report.json").exists()

    def test_current_override(self, tmp_path, capsys):
        path = write_quick_scenario(tmp_path, builder="easyexample")
        code = cli_main(["run", path, "--paths", "100",
                         "--current", "minimal_flow", "--report-only"])
        assert code == 0
        assert "minimal_flow" in capsys.readouterr().out

    def test_diagnostic_failure_exit_code(self, tmp_path, capsys):
        # Tiny ensembles cannot meet the default Born-agreement bound.
        code = cli_main(["run", "easyexample", "--paths", "30", "--report-only"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().err

    def test_pole_abort_exit_code(self, tmp_path, capsys):
        # The least-norm current drives paths through zero-probability
        # relay states; the abort policy must reject that with exit 4.
        doc = {
            "hamiltonian": {"builder": "easyexample", "params": {}},
            "name": "abort-pole", "current": "minimal_flow",
            "pole_policy": "abort",
            "ensemble": {"n_paths": 500, "master_seed": 3, "query_times": [0.2]},
        }
        path = tmp_path / "abort.json"
        path.write_text(json.dumps(doc))
        code = cli_main(["run", str(path), "--report-only"])
        assert code == 4
        assert "pole abort" in capsys.readouterr().err

    def test_negative_seed_exit_code(self, capsys):
        assert cli_main(["run", "easyexample", "--seed", "-3"]) == 2
        assert "validation error: ensemble: master_seed" in capsys.readouterr().err

    def test_short_grid_rejected(self, tmp_path, capsys):
        doc = {
            "hamiltonian": {"builder": "singlet", "params": {}},
            "name": "two-nodes", "time": {"t0": 0.0, "t1": 0.001, "grid_step": 0.001},
        }
        with pytest.raises(ScenarioValidationError, match="at least 3 nodes"):
            scenario_from_dict(doc)
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 2
        assert "at least 3 nodes" in capsys.readouterr().err

    def test_validate_directory(self, tmp_path, capsys):
        assert cli_main(["validate", str(tmp_path)]) == 2
        assert "nor a readable file" in capsys.readouterr().err

    def test_validate_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        assert cli_main(["validate", str(path)]) == 2
        assert "is not UTF-8 text (invalid continuation byte)" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", "3", '"easyexample"'])
    def test_validate_top_level_not_object(self, tmp_path, capsys, text):
        path = tmp_path / "list.json"
        path.write_text(text)
        assert cli_main(["validate", str(path)]) == 2
        assert "top level must be an object" in capsys.readouterr().err

    def test_validate_field_of_wrong_type(self, tmp_path, capsys):
        doc = {"hamiltonian": {"builder": "easyexample", "params": {}}, "thresholds": []}
        path = tmp_path / "thresholds.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 2
        assert "validation error: malformed scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ({"time": {"t0": -np.inf, "t1": 0.7, "grid_step": 1e-3}}, "time: t0, t1"),
        ({"time": {"t0": 0.0, "t1": np.inf, "grid_step": 1e-3}}, "time: t0, t1"),
        ({"time": {"t0": 0.0, "t1": 0.7, "grid_step": np.nan}}, "time: t0, t1"),
        ({"thresholds": {"continuity": np.nan}}, "thresholds: continuity"),
        ({"thresholds": {"master": np.inf}}, "thresholds: master"),
        ({"general_rate_offset": np.nan}, "general_rate_offset"),
        ({"general_rate_offset": np.inf}, "general_rate_offset"),
        ({"ensemble": {"n_paths": 10, "master_seed": 1, "query_times": [np.nan]}},
         "ensemble: query time nan"),
    ], ids=["t0-inf", "t1-inf", "grid_step-nan", "continuity-nan", "master-inf",
            "offset-nan", "offset-inf", "query-nan"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, override, message):
        # json writes these as the Infinity / NaN tokens that json.load accepts.
        doc = {"hamiltonian": {"builder": "easyexample", "params": {}},
               "name": "non-finite", **override}
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 2
        assert f"validation error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, entry", [
        (("hamiltonian", "matrix", 0, 0), [1]),
        (("initial_state", 3), [0]),
        (("hamiltonian", "matrix", 1, 2), [0.0, 0.0, 1.0]),
        (("hamiltonian", "matrix", 0, 0), [np.nan, 0.0]),
    ], ids=["hamiltonian-short-pair", "state-short-pair", "three-numbers",
            "hamiltonian-nan"])
    def test_malformed_complex_entries_rejected(self, tmp_path, capsys, keys, entry):
        doc = scenario_to_dict(load_scenario("easyexample"))
        *parents, last = keys
        target = doc
        for key in parents:
            target = target[key]
        target[last] = entry
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 2
        assert (f"validation error: {keys[0]}: complex entries must be finite "
                "[re, im] pairs") in capsys.readouterr().err

    @pytest.mark.parametrize("time", [
        {"t0": 0.0, "t1": 1e300, "grid_step": 1e-300},
        {"t0": 0.0, "t1": 1e6, "grid_step": 1e-9},
    ], ids=["node-count-overflows", "grid-too-large-to-allocate"])
    def test_unbuildable_grid_rejected(self, tmp_path, capsys, time):
        doc = {"hamiltonian": {"builder": "easyexample", "params": {}},
               "name": "huge-grid", "time": time}
        path = tmp_path / "huge_grid.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 2
        assert "validation error: time: the grid cannot be built" in capsys.readouterr().err

    def test_validate_and_run_share_the_norm_check(self, tmp_path, capsys):
        # Amplitudes typed to eight digits leave a norm error of 1.7e-9:
        # validate and run must both reject the state, naming the field.
        amp = [0.70710678, 0.0]
        doc = {
            "name": "eight-digits", "factor_dims": [2, 2],
            "hamiltonian": {"matrix": complex_to_json(np.zeros((4, 4)))},
            "initial_state": [amp, [0.0, 0.0], [0.0, 0.0], amp],
            "time": {"t0": 0.0, "t1": 0.1, "grid_step": 0.01},
            "ensemble": {"n_paths": 10, "master_seed": 1, "query_times": [0.05]},
        }
        path = tmp_path / "eight_digits.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["run", str(path), "--report-only"]):
            assert cli_main(argv) == 2
            assert "validation error: initial_state: ket is not normalized" \
                in capsys.readouterr().err

    def test_tracking_failure_exit_code(self, tmp_path, capsys):
        # A fast random (3, 3) system on a coarse grid cannot be tracked:
        # AmbiguousContinuation must end as a stage error, exit 1.
        rng = np.random.default_rng([7, 0])
        a = (rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))) / np.sqrt(2)
        psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        doc = {
            "name": "untrackable", "factor_dims": [3, 3],
            "hamiltonian": {"matrix": complex_to_json(20.0 * (a + a.conj().T))},
            "initial_state": complex_to_json(psi / np.linalg.norm(psi)),
            "time": {"t0": 0.0, "t1": 1.0, "grid_step": 0.1},
            "ensemble": {"n_paths": 10, "master_seed": 1, "query_times": [0.5]},
        }
        path = tmp_path / "untrackable.json"
        path.write_text(json.dumps(doc))
        code = cli_main(["run", str(path), "--report-only"])
        err = capsys.readouterr().err
        assert code == 1
        assert "stage error: [stage: spectral tracking] label" in err
        assert "t=0.1;" in err

    def test_stage_error_exit_code_names_stage(self, tmp_path, capsys):
        # General rates demand full support; bipartite pure scenarios
        # always carry zero-probability joint states.
        doc = {
            "hamiltonian": {"builder": "easyexample", "params": {}},
            "name": "gen-on-zero", "rate_choice": "general",
            "ensemble": {"n_paths": 50, "master_seed": 1, "query_times": [0.2]},
        }
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(doc))
        code = cli_main(["run", str(path), "--report-only"])
        assert code == 1
        assert "stage: rates" in capsys.readouterr().err
