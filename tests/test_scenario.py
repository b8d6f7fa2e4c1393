import _pyio
import builtins
import csv
import hashlib
import io
import json
import os
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modaldyn.cli import main as cli_main
from modaldyn.errors import ScenarioValidationError
from modaldyn.currents import KINDS, CurrentMatrix
from modaldyn.io import (complex_from_json, complex_to_json, write_currents_csv,
                         write_paths_jsonl, write_rates_csv, write_stats_csv,
                         write_trajectory_csv)
from modaldyn.kinetics import RateMatrix
from modaldyn import pipeline
from modaldyn.pipeline import run
from modaldyn.sampler import EnsembleStats, PathEnsemble
from modaldyn.scenario import (BUILTINS, EnsembleSpec, Scenario, Thresholds, TimeSpec,
                               builtin_scenarios, load_scenario, scenario_from_dict,
                               scenario_to_dict)
from modaldyn.spectral import SpectralTrajectory

from conftest import random_hermitian, random_ket


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
        stats = ensemble_marginals(result.paths, [t_end])
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


ROUNDTRIP = settings(derandomize=True, database=None, deadline=None, max_examples=60)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def other_than(key, values):
    """``values`` without the default of Scenario field or Thresholds field ``key``."""
    default = {f.name: f.default for f in fields(Scenario) + fields(Thresholds)}[key]
    return values.filter(lambda v: v != default)


@st.composite
def overridable_fields(draw):
    """Every Scenario field a builder leaves to the document."""
    t0 = draw(st.floats(-10.0, 10.0))
    step = draw(st.floats(1e-3, 0.5))
    t1 = t0 + step * draw(st.integers(2, 50))
    return {
        "name": draw(st.text()),
        "time": TimeSpec(t0, t1, step),
        "ensemble": EnsembleSpec(draw(st.integers(1, 10**6)), draw(st.integers(0, 2**63 - 1)),
                                 tuple(draw(st.lists(st.floats(t0, t1), max_size=5)))),
        "thresholds": Thresholds(**{f.name: draw(other_than(f.name, POSITIVE))
                                    for f in fields(Thresholds)}),
        "general_rate_offset": draw(other_than("general_rate_offset", st.floats(0.0, 1e6))),
        "current": draw(other_than("current", st.sampled_from(KINDS))),
    }


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

    @ROUNDTRIP
    @given(data=st.data())
    def test_every_field_roundtrips(self, data):
        # An explicit document carries every field; a builder document every
        # field but the three its builder fixes.  Values differ from the
        # defaults, so a key the reader dropped would show.
        over = data.draw(overridable_fields())
        dims = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 2, 2)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dim = int(np.prod(dims))
        explicit = Scenario(factor_dims=dims, hamiltonian=random_hermitian(rng, dim),
                            initial_state=random_ket(rng, dim), **over).validate()
        builder = data.draw(st.sampled_from(builtin_scenarios()))
        from_builder = replace(BUILTINS[builder](), **over).validate()
        builder_doc = scenario_to_dict(from_builder)
        for key in ("factor_dims", "initial_state"):
            del builder_doc[key]
        builder_doc["hamiltonian"] = {"builder": builder, "params": {}}
        for sc, doc in ((explicit, scenario_to_dict(explicit)), (from_builder, builder_doc)):
            back = scenario_from_dict(json.loads(json.dumps(doc)))
            for f in fields(Scenario):
                a, b = getattr(sc, f.name), getattr(back, f.name)
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name

    @pytest.mark.parametrize("t1, step", [(0.3, 0.1), (0.7, 1e-3), (1.571, 1e-3)])
    def test_grid_step_divides_window(self, t1, step):
        # The last node may miss t1 by rounding alone.
        sc = replace(load_scenario("singlet"), time=TimeSpec(0.0, t1, step),
                     ensemble=EnsembleSpec(10, 1, (t1,)))
        assert abs(sc.validate().grid()[-1] - t1) <= 1e-15

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

    def test_path_count_beyond_the_streams_rejected(self, tmp_path, capsys, monkeypatch):
        # The sampler has 2**32 streams, one per path.  A larger count is
        # rejected at validation, before any stage runs, not after every grid
        # stage in the sampling stage.  2**32 itself is valid (never sampled).
        def no_stage(scenario):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(pipeline, "compute_joint_family", no_stage)
        message = "ensemble: n_paths must lie in [1, 2**32]"
        easy = load_scenario("easyexample")
        assert replace(easy, ensemble=replace(easy.ensemble, n_paths=2**32)).validate()
        doc = {"hamiltonian": {"builder": "easyexample"},
               "ensemble": {"n_paths": 2**32 + 1, "master_seed": 1, "query_times": [0.1]}}
        path = tmp_path / "many.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(str(path))
        assert str(err.value) == message
        for argv in (["validate", str(path)], ["run", str(path), "--report-only"],
                     ["run", "easyexample", "--report-only", "--paths", str(2**32 + 1)]):
            assert cli_main(argv) == 2
            assert f"validation error: {message}" in capsys.readouterr().err
        with pytest.raises(ScenarioValidationError) as err:
            run(easy, n_paths=2**32 + 1)
        assert str(err.value) == message


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

    def test_chapman_midpoint_is_grid_node(self, monkeypatch):
        # measured-possessed-property's kernel window spans an odd number of
        # grid intervals, so the time halfway between its ends is no node.
        windows = []
        ode = pipeline.forward_ode_kernel

        def recording(rates, s, t):
            windows.append((s, t))
            return ode(rates, s, t)

        monkeypatch.setattr(pipeline, "forward_ode_kernel", recording)
        result = run(load_scenario("measured-possessed-property"), n_paths=1)
        grid = result.family.grid
        (s, t), (s1, mid), (mid2, t2) = windows
        assert (s, t) == result.report.kernel_window
        assert (s1, mid2, t2) == (s, mid, t)
        a, mid_node, b = (int(np.abs(grid - x).argmin()) for x in (s, mid, t))
        assert (b - a) % 2 == 1
        assert mid_node == (a + b) // 2 and grid[mid_node] == mid
        assert result.report.chapman_residual is not None

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
        self.assert_floats(flow, result.currents.matrix[:, lo, hi])

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


BYTES = settings(derandomize=True, database=None, deadline=None, max_examples=40)
# Floats whose repr is easy to get wrong: signed zero, the smallest subnormal,
# the switches to exponent notation at 1e-4 and 1e16, and a float above 2**53
# with a short repr.
SPECIAL = (-0.0, 0.0, 5e-324, 1e-05, 1e16, 1e22)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
# At 11 or more nodes the refs "t9" and "t10" sort one way as numbers and the
# other way as strings.
NODES = st.integers(11, 13)


def float_arrays(shape, elements=FLOATS):
    size = int(np.prod(shape))
    return st.lists(elements, min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=float).reshape(shape))


def reference_csv(rows):
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def written(writer, *args, names=("out",)):
    """The bytes of each file that ``writer(*paths, *args)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in names]
        writer(*paths, *args)
        return [path.read_bytes() for path in paths]


class TestByteContract:
    """The templated writers write the bytes of independent references:
    ``csv.writer`` for every table, ``json.dumps`` for side files and paths."""

    @BYTES
    @given(data=st.data())
    def test_rates(self, data):
        n, d = data.draw(NODES), data.draw(st.integers(2, 4))
        grid = data.draw(float_arrays((n,)))
        values = data.draw(float_arrays((n, d, d)))
        poles = data.draw(float_arrays((n, d, d), st.sampled_from([0.0, np.inf])))
        flags = data.draw(float_arrays((n, d, d), st.sampled_from([0.0, 1.0]))).astype(bool)
        flags &= ~np.eye(d, dtype=bool)
        matrix = np.where(flags, poles, np.where(values < 0, -values, values))
        m, f = matrix.tolist(), flags.astype(int).tolist()
        rows = [["time", "i", "j", "rate", "pole_flag"]] + [
            [t, i, j, m[k][j][i], f[k][j][i]] for k, t in enumerate(grid.tolist())
            for i in range(d) for j in range(d) if i != j]
        assert written(write_rates_csv, grid, RateMatrix(matrix, flags)) == [reference_csv(rows)]

    @BYTES
    @given(data=st.data())
    def test_currents(self, data):
        n, d = data.draw(NODES), data.draw(st.integers(2, 4))
        grid = data.draw(float_arrays((n,)))
        upper = np.triu(data.draw(float_arrays((n, d, d))), 1)
        u = upper.tolist()
        rows = [["time", "i", "j", "j_ji"]] + [
            [t, hi, lo, u[k][lo][hi]] for k, t in enumerate(grid.tolist())
            for lo in range(d) for hi in range(lo + 1, d)]
        assert written(write_currents_csv, grid, CurrentMatrix(upper - np.swapaxes(upper, 1, 2))) == [reference_csv(rows)]

    @BYTES
    @given(data=st.data())
    def test_trajectory_and_directions(self, data):
        n, d, dim = data.draw(NODES), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        traj = SpectralTrajectory(
            data.draw(float_arrays((n,))), data.draw(float_arrays((n, d))),
            data.draw(float_arrays((n, d, dim, 2))).view(complex)[..., 0])
        w = traj.weights.tolist()
        rows = [["time", "label", "weight", "projector_ref"]] + [
            [t, i, w[k][i], f"f2_t{k}_l{i}"] for k, t in enumerate(traj.grid.tolist())
            for i in range(d)]
        side = {f"f2_t{k}_l{i}": complex_to_json(traj.vectors[k, i])
                for k in range(n) for i in range(d)}
        assert written(write_trajectory_csv, traj, "f2", names=("t.csv", "t.json")) == [
            reference_csv(rows),
            (json.dumps(side, indent=1, sort_keys=True) + "\n").encode("utf-8")]

    @BYTES
    @given(data=st.data())
    def test_stats(self, data):
        n, n_labels = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        factors = data.draw(st.integers(3, 4))
        labels = tuple(tuple(data.draw(st.lists(st.integers(0, 11), min_size=factors,
                                                max_size=factors)))
                       for _ in range(n_labels))
        counts = data.draw(float_arrays((n, n_labels), st.integers(0, 10 ** 6))).astype(int)
        stats = EnsembleStats(data.draw(float_arrays((n,))), labels, counts,
                              data.draw(st.integers(1, 10 ** 6)))
        born = data.draw(float_arrays((n, n_labels)))
        f, q = stats.frequencies.tolist(), born.tolist()
        rows = [["time", "label", "frequency", "quantum_probability"]] + [
            [t, "|".join(map(str, lab)), f[k][i], q[k][i]]
            for k, t in enumerate(stats.times.tolist()) for i, lab in enumerate(labels)]
        assert written(write_stats_csv, stats, born) == [reference_csv(rows)]

    @BYTES
    @given(data=st.data())
    def test_paths(self, data):
        factors = data.draw(st.integers(3, 4))
        states = tuple(data.draw(st.lists(
            st.lists(st.integers(0, 11), min_size=factors, max_size=factors).map(tuple),
            min_size=1, max_size=6, unique=True)))
        state = st.integers(0, len(states) - 1)
        # Bounded so that the ensemble's check of increasing times cannot overflow.
        times = st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(-1e300, 1e300)),
                         max_size=4, unique=True).map(sorted)
        events = data.draw(st.lists(times, min_size=1, max_size=6))
        paths = PathEnsemble(
            states=states,
            initial=np.array([data.draw(state) for _ in events]),
            offsets=np.cumsum([0] + [len(e) for e in events]),
            times=np.array([t for e in events for t in e], dtype=float),
            dest=np.array([data.draw(state) for e in events for _ in e], dtype=int))
        lines = [json.dumps({"seed": k, "initial": p.initial, "events": p.events},
                            separators=(",", ":")) + "\n" for k, p in enumerate(paths)]
        assert written(write_paths_jsonl, paths) == ["".join(lines).encode("utf-8")]


def generic_2222_short():
    rng = np.random.default_rng(2222)
    return Scenario(name="generic-2x2x2x2", factor_dims=(2, 2, 2, 2),
                    hamiltonian=random_hermitian(rng, 16), initial_state=random_ket(rng, 16),
                    time=TimeSpec(0.0, 0.2, 1e-3),
                    ensemble=EnsembleSpec(50, 9, (0.1, 0.2))).validate()


def digests(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}


# SHA-256 of every file of two run directories, recorded from the writers
# that formatted row by row with ``str.format`` and ``json.dumps`` (commit
# 00f2a67).  A change of format must bump ``tool_version`` instead of these.
# The two ``kernel.json`` digests and generic-2x2x2x2's ``report.json`` were
# re-recorded when the series integral became blocked matrix products: kernel
# entries moved by at most 3.3e-16, and the report's ``honesty_deficit_max``
# and ``kernel_cross_check`` past their 12th significant digit.
# generic-2x2x2x2's currents, rates, kernel, paths and report were re-recorded
# when the generalized current took exact factor connections in place of the
# 3-point stencil rotation; the currents moved by the stencil's h^2 error.
# Both directories' scenario.json, manifest.json and report.json were
# re-recorded for schema 0.3.0: the scenario drops pole_policy and
# thresholds.crossing_gap, the manifest takes the new hash and version, and
# the report gains the sampler's counters and a master residual measured
# against the current's divergence (rounding, was the continuity value).
# Both manifest.json digests were re-recorded for version 0.3.1, whose
# "general" rates are another dynamics: only tool_version moved.  Both
# directories' scenario.json, manifest.json and report.json were re-recorded
# for version 0.4.0, whose scenario names a dynamics by two keys: the
# scenario drops extra_term and rate_choice, the manifest takes the new hash
# and version, and the report's rate_choice becomes general_rate_offset.
# Both manifest.json digests were re-recorded for version 0.4.1, whose psi
# row blocks move other BLAS kernels' exports at rounding: only tool_version
# moved.
GOLDEN_RUN_DIRS = {
    "easyexample": {
        "currents.csv": "f0fa1d38213ffe71733edc7f9472e2a1ff8347023bf13e4108cb0aa9e250577a",
        "kernel.json": "15dc2523d107758d4a58f734894819e657467979802f462ca4226f47d04399a4",
        "manifest.json": "5c02b0937eb7049f566102cdc248bcac1ff1ac020a7dbdd053b7eddfb4e1de39",
        "paths.jsonl": "e8d38de91da06c88b252d04c28589262b8acc108e1041a0566b7e60e11122fc9",
        "rates.csv": "559d89c790b0c398169e5de6f1982ab423e32651b8e30699852ee002db8234c0",
        "report.json": "61301927f33525263c01cd465c2d0401ab358a084e1d798df575d98a475376ce",
        "scenario.json": "783b48c3b90b16896f0f34256d8cf8c0f703d3b9fa5271d82004bdf366aba925",
        "state_space.json": "d2c091fb2f085f08bb7cee0dacd9528fc6da52f84c7127a5f12fb90aa2d6ba6d",
        "stats.csv": "5171153bf9d778e175fa831d2af5b1e2df8fdcbad91a7bfd28738f698c583fee",
        "trajectory_factor0.csv":
            "0e9e937a8febdaa3e55521b08f322ec4188816c111cf0d477cda1dfd69663345",
        "trajectory_factor0_projectors.json":
            "af3974ef97c25398dcd4ff35a6137567ea7793b0af6fdd109b6574b224360974",
        "trajectory_factor1.csv":
            "12828a04efb5e7a25c683f02826887bbe6687c07a59a2af9fd2662466f3e710c",
        "trajectory_factor1_projectors.json":
            "0a7fb817d2de73c27ca23b3a0fc88e61f443b761a76abe4fd718d913fe69dfc5",
    },
    "generic-2x2x2x2": {
        "currents.csv": "25f16c0f24f5cf02519f390be364990834f32249085c20f0efca541057979172",
        "kernel.json": "8c88a0d6283236d6b96e126185e99477d0c39dec7ce2ca996886347098a9d584",
        "manifest.json": "a8580532b7ba5f6cfaad17c7129ed28742a88e9f12deb0b74977909cc2f71d75",
        "paths.jsonl": "6946d4badaf7cdb498598855321d89f2a102140b3abdb5729b4ca1730866259f",
        "rates.csv": "e489256007e17af380d7a0b8ec92d8d929af4c7eb716c7fba1d71b33bd1900e2",
        "report.json": "1a11197796041de521b98aec396033f1e278d877debdf1150548500e104e008d",
        "scenario.json": "f140b0e99e4244325cffe0a26f6f347d684ee9b297acaef648948f319833b4f2",
        "state_space.json": "63e6b3f6286029cb96c4fd91df6c34dba4d6d7de119c8a637600383b557c0e72",
        "stats.csv": "6a40353212366a05267fe6589460bb040dd4b39a08b463c4fcb2bac48cf2d783",
        "trajectory_factor0.csv":
            "4dc4c603f46dd955fcdcdae7eff8ee54adfcec664092a83615269af884564a76",
        "trajectory_factor0_projectors.json":
            "4107f12520aee67f7e3f847860cee9f946ef17db77b28b0a40e23af73b33e12f",
        "trajectory_factor1.csv":
            "0c654dba04f61f0185df767f0bc7980622b13755a596eb981050da73a0695305",
        "trajectory_factor1_projectors.json":
            "f93d72bd0a655a7453e95dc392ddec3daf4d3d165fcb2255f41faf200e2e2357",
        "trajectory_factor2.csv":
            "4117e992769e04a89a060958234049ba329df8e652344528d08e866512f79839",
        "trajectory_factor2_projectors.json":
            "2e0ac89e808c3771108a0cc9a01e36b698897d1e2e1dd5ea68fcd6cdd0325feb",
        "trajectory_factor3.csv":
            "911331248b81d05ca2f928d09d888c7dda944ff2b414bb617450247662ae7c93",
        "trajectory_factor3_projectors.json":
            "581f2a140c9384f629eb6984e04577ec1f5304b0e8974a6656820f1448d3cca0",
    },
}


@pytest.mark.golden
@pytest.mark.parametrize("scenario", [
    lambda: BUILTINS["easyexample"](t1=0.2, n_paths=50), generic_2222_short],
    ids=list(GOLDEN_RUN_DIRS))
def test_run_directory_digests(scenario, tmp_path):
    sc = scenario()
    run(sc, out_dir=tmp_path)
    assert digests(tmp_path) == GOLDEN_RUN_DIRS[sc.name]


@pytest.mark.golden
def test_run_directory_bytes_do_not_depend_on_the_os(tmp_path, monkeypatch):
    # Text mode writes "\n" as os.linesep, "\r\n" on Windows.  The pure-Python
    # io module reads os.linesep when a file is opened, so with it every file
    # is written as on Windows.
    monkeypatch.setattr(os, "linesep", "\r\n")
    monkeypatch.setattr(builtins, "open", _pyio.open)
    monkeypatch.setattr(io, "open", _pyio.open)
    run(BUILTINS["easyexample"](t1=0.2, n_paths=50), out_dir=tmp_path)
    monkeypatch.undo()
    assert digests(tmp_path) == GOLDEN_RUN_DIRS["easyexample"]


# SHA-256 of the joint-family and current arrays, recorded before the joint
# family and the currents were rewritten to drop each temporary stack early.
# The run directories above never see ``rotation`` or ``pdot``, nor any
# current but the scenario's own.
GOLDEN_ARRAYS = {
    "generic-2x2x2x2": {
        "connections": "2e2567afcb1e9775afc0a7e014334d0323fe2393b468178bf8e9de75a7fb569a",
        "probabilities": "63f30acf2e5b445ec1f12753635df9b3ea06d9d4cedd7c4e2927c304f4563110",
        "pdot": "2cd98fa34444f6e9fc987327c41a9ef1cc8a7437007c1fdf44307a1c0da75bbd",
        "paired": "f71f6eed99caaa27f8003de1832395f34c969068f73e38840a5073e18b663975",
        "minimal_flow_like": "ab5b929fcb93cf95be7ce7d5b69c6467d55f36e28fa3c12e18d97d639cd1a673",
        "static_schrodinger": "a8df367b4c7c16e5654399d1434a08fd9843d043be0a4866db9c6fd98b9e475e",
    },
    "measured-possessed-property": {
        "connections": "41868fe448d0880e9caffc0f40041b8e977e28e603de2063f7f3af3cbd50a90b",
        "probabilities": "b7d72e3c69a87ef9f5f506ff6f5c6db80d6767c08682b588814084d06b9fc3f2",
        "pdot": "05517140ba5a408e90063cd4d6ed0d767742e0190693b2701537fb56793e259a",
        "paired": "7e65b047803a9fd9098be7a49b1ae4fc279d282987078c51f7634b1e4b35bb49",
        "minimal_flow_like": "6bd66e448a4c6b98718a0a353a8b7ba7b676d855c79ec265bf13c9fe434dca56",
        "static_schrodinger": "7ee97fb2c6c78cc9c8367bc3326d0a54e3fa8eb73471e38829606acae2a710b1",
    },
}


@pytest.mark.golden
@pytest.mark.parametrize("scenario", [generic_2222_short, BUILTINS["measured-possessed-property"]],
                         ids=list(GOLDEN_ARRAYS))
def test_joint_family_and_current_digests(scenario):
    family = pipeline.compute_joint_family(scenario())
    arrays = {"connections": np.concatenate([c.ravel() for c in family.connections]),
              "probabilities": family.probabilities}
    arrays["pdot"] = pipeline.pdot_target(family)
    for name, kind in (("paired", "generalized_schrodinger"),
                       ("minimal_flow_like", "minimal_flow_like"),
                       ("static_schrodinger", "static_schrodinger")):
        arrays[name] = np.triu(pipeline.compute_currents(family, kind).matrix, 1)
    got = {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}
    assert got == GOLDEN_ARRAYS[family.scenario.name]


def write_quick_scenario(tmp_path, name="quick", builder="singlet", **params):
    """Scenario file with thresholds loose enough for tiny test ensembles."""
    doc = {
        "hamiltonian": {"builder": builder, "params": params},
        "name": name,
        "ensemble": {"n_paths": 200, "master_seed": 9, "query_times": [0.1, 0.3]},
        "thresholds": {"continuity": 1e-5, "master": 1e-5, "chapman": 1e-5,
                       "honesty": 1e-6, "total_variation": 0.5},
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
        assert "max jumps           0 (forced 0, pole crossings 0, relays 0)" in captured.out

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

    @pytest.mark.parametrize("current, offset", [("minimal_flow_like", 0.0),
                                                 ("generalized_schrodinger", 2.0)])
    def test_report_names_the_dynamics(self, tmp_path, capsys, current, offset):
        # The two free choices, the current and the rate offset c, are all a
        # run's report needs to name its dynamics; c = 0 is Bell's rates.
        path = Path(write_quick_scenario(tmp_path, builder="easyexample"))
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "general_rate_offset": offset}))
        code = cli_main(["run", str(path), "--current", current, "--out", str(tmp_path / "out")])
        assert code == 0
        assert f"[{current} / c = {offset}]" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert (report["current"], report["general_rate_offset"]) == (current, offset)
        assert "rate_choice" not in report

    def test_diagnostic_failure_exit_code(self, tmp_path, capsys):
        # Tiny ensembles cannot meet the default Born-agreement bound.
        code = cli_main(["run", "easyexample", "--paths", "30", "--report-only"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", [["validate"], ["run", "--report-only"]],
                             ids=["validate", "run"])
    @pytest.mark.parametrize("builder, params, message", [
        ("measured-possessed-property", {"coupling": 0.0}, "float division by zero"),
        ("measured-possessed-property", {"coupling": 1e-310},
         "cannot convert float infinity to integer"),
        ("easyexample", {"t1": 1e308}, "cannot convert float infinity to integer"),
    ], ids=["zero-coupling", "tiny-coupling", "huge-t1"])
    def test_builder_arithmetic_errors_are_malformed(self, tmp_path, capsys, command,
                                                     builder, params, message):
        # A builder's own arithmetic on its parameters (t1 = pi / (2 coupling),
        # the grid rounding of t1) fails before any stage runs: exit 2.
        path = tmp_path / "builder.json"
        path.write_text(json.dumps({"hamiltonian": {"builder": builder, "params": params}}))
        assert cli_main([command[0], str(path), *command[1:]]) == 2
        assert f"validation error: malformed scenario: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("explicit, override, message", [
        (False, {"extra_trem": "paired"}, "unknown key 'extra_trem'"),
        (False, {"initial_state": complex_to_json(np.eye(4)[3])},
         "initial_state: fixed by builder 'easyexample'"),
        (False, {"factor_dims": [4, 1]}, "factor_dims: fixed by builder 'easyexample'"),
        (False, {"hamiltonian": {"builder": "easyexample",
                                 "matrix": complex_to_json(np.eye(4))}},
         "hamiltonian: unknown key 'matrix' beside builder 'easyexample'"),
        (False, {"time": {"t0": 0.0, "t1": 0.7, "grid_step": 1e-3, "dt": 0.1}},
         "time: unknown key 'dt'"),
        (False, {"ensemble": {"n_paths": 10, "master_seed": 1, "query_times": [0.1],
                              "seed": 5}}, "ensemble: unknown key 'seed'"),
        (False, {"thresholds": {"continuity": 1e-4, "contnuity": 1e-3}},
         "thresholds: unknown key 'contnuity'"),
        (True, {"seed": 5}, "unknown key 'seed'"),
        (True, {"hamiltonian": {"matrix": complex_to_json(np.eye(4)), "params": {}}},
         "hamiltonian: unknown key 'params'"),
        (False, {"rate_choice": "bell_note9"}, "unknown key 'rate_choice'"),
        (False, {"pole_policy": "resample"}, "unknown key 'pole_policy'"),
        (False, {"extra_term": "paired"}, "unknown key 'extra_term'"),
        (False, {"rate_choice": "general"}, "unknown key 'rate_choice'"),
        (False, {"current": "paired"}, "current: unknown kind 'paired'"),
        (False, {"thresholds": {"crossing_gap": 1e-2}}, "thresholds: unknown key 'crossing_gap'"),
    ], ids=["misspelt-key", "builder-state", "builder-dims", "builder-matrix", "time-key",
            "ensemble-key", "thresholds-key", "explicit-key", "explicit-hamiltonian-key",
            "retired-rate-alias", "removed-pole-policy", "removed-extra-term",
            "removed-rate-choice", "extra-term-as-current", "removed-crossing-gap"])
    def test_unread_keys_rejected(self, tmp_path, capsys, explicit, override, message):
        # Every choice reproduces the same Born statistics, so only the loader
        # can tell that a key was dropped.
        base = (scenario_to_dict(load_scenario("easyexample")) if explicit
                else {"hamiltonian": {"builder": "easyexample"}})
        path = tmp_path / "unread.json"
        path.write_text(json.dumps({**base, **override}))
        assert cli_main(["validate", str(path)]) == 2
        assert f"validation error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("explicit, override, message", [
        (False, {"n_paths": 10.9, "master_seed": 1}, "n_paths: expected an integer, got 10.9"),
        (False, {"n_paths": 10, "master_seed": 1.5}, "master_seed: expected an integer, got 1.5"),
        (False, {"n_paths": "12", "master_seed": 1}, "n_paths: expected an integer, got '12'"),
        (False, {"n_paths": 12, "master_seed": True},
         "master_seed: expected an integer, got True"),
        (True, [2, 2.0], "factor_dims: expected an integer, got 2.0"),
    ], ids=["fraction", "fractional-seed", "string", "boolean", "float-dimension"])
    def test_integer_fields_take_integers(self, tmp_path, capsys, explicit, override, message):
        # int() would read 10.9 as 10, "12" as 12 and true as 1.
        if explicit:
            doc = {**scenario_to_dict(load_scenario("easyexample")), "factor_dims": override}
        else:
            message = f"ensemble: {message}"
            doc = {"hamiltonian": {"builder": "easyexample"},
                   "ensemble": {**override, "query_times": [0.1]}}
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == message
        path = tmp_path / "integers.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 2
        assert f"validation error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, error", [
        (True, "expected a number, got True"), ("0.7", "expected a number, got '0.7'"),
        (10 ** 400, "number out of the float range")], ids=["boolean", "string", "huge"])
    @pytest.mark.parametrize("key, field", [
        *(("time", f.name) for f in fields(TimeSpec)),
        *(("thresholds", f.name) for f in fields(Thresholds)),
        ("general_rate_offset", None), ("ensemble", "query_times")],
        ids=lambda x: x)
    def test_number_fields_take_numbers(self, tmp_path, capsys, key, field, value, error):
        # float() would read true as 1.0 and "0.7" as 0.7, and raise a bare
        # OverflowError on an integer past the float range.
        doc = {"hamiltonian": {"builder": "easyexample"}}
        message = f"{key}: {field}: {error}"
        if key == "time":
            doc["time"] = {"t0": 0.0, "t1": 0.7, "grid_step": 1e-3, field: value}
        elif key == "thresholds":
            doc["thresholds"] = {field: value}
        elif key == "ensemble":
            doc["ensemble"] = {"n_paths": 10, "master_seed": 1, "query_times": [0.1, value]}
        else:
            doc[key] = value
            message = f"{key}: {error}"
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == message
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 2
        assert f"validation error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, True], ids=["number", "boolean"])
    @pytest.mark.parametrize("key", ["name", "current"])
    def test_string_fields_take_strings(self, tmp_path, capsys, key, value):
        # str() would read 5 as '5' and true as 'True'.
        doc = {"hamiltonian": {"builder": "easyexample"}, key: value}
        message = f"{key}: expected a string, got {value!r}"
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == message
        path = tmp_path / "strings.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 2
        assert f"validation error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("step", [0.3, 0.2])
    def test_grid_step_must_divide_window(self, tmp_path, capsys, step):
        # Step 0.3 built [0, 0.3, 0.6], past t1 = 0.5; step 0.2 built
        # [0, 0.2, 0.4] and reported the query time 0.5 at node 0.4.
        doc = {"hamiltonian": {"builder": "singlet"},
               "time": {"t0": 0.0, "t1": 0.5, "grid_step": step},
               "ensemble": {"n_paths": 10, "master_seed": 1, "query_times": [0.5]}}
        path = tmp_path / "step.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 2
        assert "validation error: time: grid_step must divide t1 - t0" \
            in capsys.readouterr().err

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

    def test_general_rates_run_on_zero_probabilities(self, tmp_path, capsys):
        # Bipartite pure scenarios always carry zero-probability joint
        # states; the general rates divide by nothing, so the run ends in a
        # report (exit 0, or 3 for a failed threshold), not a stage error.
        doc = {
            "hamiltonian": {"builder": "easyexample", "params": {}},
            "name": "gen-on-zero", "general_rate_offset": 1.0,
            "ensemble": {"n_paths": 50, "master_seed": 1, "query_times": [0.2]},
        }
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(doc))
        code = cli_main(["run", str(path), "--report-only"])
        assert code in (0, 3)
        assert "stage" not in capsys.readouterr().err
