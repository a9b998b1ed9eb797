import dataclasses
import json
import math

import numpy as np
import pytest

import sagd
from sagd.data_io import (
    CSV_HEADER,
    RunManifest,
    TrajectorySeries,
    emit_svg_plot,
    parse_libsvm,
    read_results_csv,
    synth_gaussian,
    synth_uniform,
    write_libsvm,
    write_results_csv,
)
from reference_methods import ScalarRng
from sagd.exceptions import InvalidInputError, ParseError
from sagd.solver import TrajectoryPoint


class TestParseLibsvm:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("+1 1:0.5 3:2.0\n")
        data = parse_libsvm(path)
        assert data.n == 1 and data.d == 3
        assert data.indptr.tolist() == [0, 2]
        assert data.indices.tolist() == [0, 2]
        assert data.values.tolist() == [0.5, 2.0]
        assert data.labels.tolist() == [1.0]

    def test_empty_feature_list_is_zero_row(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("-1\n+1 2:1.0\n")
        data = parse_libsvm(path)
        assert data.indptr.tolist() == [0, 0, 1]
        assert data.indices.tolist() == [1]
        assert data.labels.tolist() == [-1.0, 1.0]

    def test_nonincreasing_indices_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.svm"
        path.write_text("+1 1:1.0\n-1 3:1.0 2:1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm(path)

    def test_malformed_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.svm"
        path.write_text("+1 1:1.0 oops\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.svm"
        path.write_text("one 1:1.0\n")
        with pytest.raises(ParseError):
            parse_libsvm(path)

    def test_d_override(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("+1 2:1.5\n")
        assert parse_libsvm(path).d == 2
        assert parse_libsvm(path, d=10).d == 10
        with pytest.raises(InvalidInputError):
            parse_libsvm(path, d=1)

    def test_write_then_parse_round_trip(self, tmp_path):
        data = synth_gaussian(20, 6, seed=99)
        path = tmp_path / "round.svm"
        write_libsvm(data, path)
        back = parse_libsvm(path)
        assert back.n == data.n and back.d == data.d
        assert np.array_equal(back.labels, data.labels)
        assert np.array_equal(back.indptr, data.indptr)
        assert np.array_equal(back.indices, data.indices)
        assert np.array_equal(back.values, data.values)

    def test_parse_serialize_fixed_point(self, tmp_path):
        p1 = tmp_path / "a.svm"
        p2 = tmp_path / "b.svm"
        p1.write_text("+1  1:0.25   3:-2\n-1 2:1e-3\n")
        write_libsvm(parse_libsvm(p1), p2)
        text = p2.read_text()
        p3 = tmp_path / "c.svm"
        write_libsvm(parse_libsvm(p2), p3)
        assert p3.read_text() == text


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a = synth_gaussian(15, 4, seed=5)
        b = synth_gaussian(15, 4, seed=5)
        c = synth_gaussian(15, 4, seed=6)
        assert np.array_equal(a.dense_matrix(), b.dense_matrix())
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.dense_matrix(), c.dense_matrix())

    def test_gaussian_moments(self):
        data = synth_gaussian(10_000, 10, seed=1)
        entries = data.dense_matrix().ravel()
        m = entries.size
        assert abs(entries.mean()) <= 3 / math.sqrt(m)
        assert abs(entries.var() - 1.0) <= 3 * math.sqrt(2.0 / m)

    @pytest.mark.parametrize("n,d", [(1, 1), (7, 3), (300, 10), (2000, 10)])
    def test_draws_entries_row_by_row_then_labels(self, n, d):
        # (7, 3): the last entry and the first label share a Box-Muller pair;
        # (2000, 10): 22 000 words, drawn from one 512-lane chunk
        for synth, draw in ((synth_gaussian, ScalarRng.normal), (synth_uniform, ScalarRng.uniform)):
            data = synth(n, d, seed=2**64 - 1)
            ref = ScalarRng(2**64 - 1)
            a = np.array([[draw(ref) for _ in range(d)] for _ in range(n)])
            labels = np.array([draw(ref) for _ in range(n)])
            assert data.dense_matrix().tobytes() == a.tobytes()
            assert data.labels.tobytes() == labels.tobytes()

    def test_dataset_keeps_the_drawn_buffer(self):
        # the n x d block is not copied: values and labels view one draw
        for synth in (synth_gaussian, synth_uniform):
            data = synth(50, 4, seed=3)
            assert data.values.base is not None and data.values.base is data.labels.base

    def test_uniform_range(self):
        data = synth_uniform(500, 3, seed=2)
        entries = data.dense_matrix().ravel()
        assert np.all((entries >= 0.0) & (entries < 1.0))
        assert np.all((data.labels >= 0.0) & (data.labels < 1.0))


MANIFEST = RunManifest.new("synth", "ridge", 0.001, 0.5, 2, 0.01, [1])


def _series(n=4, with_lyap=False):
    points = [
        TrajectoryPoint(0, n, 0.0, 1.0, 2.5 if with_lyap else None),
        TrajectoryPoint(10, n + 10, 0.125, 1e-7, 0.25 if with_lyap else None),
    ]
    return TrajectorySeries("sagd", 0.5, 2, 7, n, points)


class TestResultsCsv:
    def test_header_only_for_empty_series(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results_csv([TrajectorySeries("sagd", 0.0, 1, 0, 4, [])], path, MANIFEST)
        lines = path.read_text().strip().splitlines()
        assert lines == [",".join(CSV_HEADER)]

    def test_one_point_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        series = TrajectorySeries("saga", 0.0, 1, 3, 4, [TrajectoryPoint(0, 4, 0.0, 0.5, None)])
        write_results_csv([series], path, MANIFEST)
        assert len(path.read_text().strip().splitlines()) == 2

    def test_numeric_round_trip(self, tmp_path):
        path = tmp_path / "rt.csv"
        series = _series(with_lyap=True)
        series.points[1].error = math.pi * 1e-9
        series.points[1].wall_seconds = 1.0 / 3.0
        write_results_csv([series], path, MANIFEST)
        rows = read_results_csv(path)
        assert rows[1]["error"] == math.pi * 1e-9
        assert rows[1]["wall_seconds"] == 1.0 / 3.0
        assert rows[1]["lyapunov"] == 0.25
        assert rows[0]["effective_passes"] == 1.0
        assert rows[1]["grad_evals"] == 14

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,q,tau\nsagd,0.5,2\n")
        with pytest.raises(ParseError, match="missing columns"):
            read_results_csv(path)

    def test_manifest_json_beside_csv(self, tmp_path):
        manifest = RunManifest.new("synth", "ridge", 0.001, 0.5, 2, 0.01, [1, 2])
        assert manifest.build == f"sagd-{sagd.__version__}"
        path = tmp_path / "res.csv"
        write_results_csv([_series()], path, manifest)
        text = (tmp_path / "res.csv.manifest.json").read_text()
        assert json.loads(text) == dict(dataclasses.asdict(manifest), seeds=[1, 2])


class TestSvgPlot:
    def test_single_series_one_polyline(self, tmp_path):
        csv_path = tmp_path / "r.csv"
        write_results_csv([_series()], csv_path, MANIFEST)
        out = tmp_path / "r.svg"
        emit_svg_plot(csv_path, "effective_passes", out)
        text = out.read_text()
        assert text.count("<polyline") == 1
        assert text.startswith("<svg")

    def test_integer_decade_ticks(self, tmp_path):
        csv_path = tmp_path / "r.csv"
        points = [TrajectoryPoint(k, 4 * (k + 1), 0.0, 10.0 ** (-k), None) for k in range(11)]
        write_results_csv([TrajectorySeries("sagd", 1.0, 2, 0, 4, points)], csv_path, MANIFEST)
        out = tmp_path / "r.svg"
        emit_svg_plot(csv_path, "effective_passes", out)
        text = out.read_text()
        for dec in range(-10, 1):
            assert f">1e{dec}</text>" in text

    def test_four_series_four_legend_entries(self, tmp_path):
        csv_path = tmp_path / "r.csv"
        series = []
        for k, (q, tau) in enumerate([(0.0, 1), (0.5, 2), (1.0, 4), (1.0, 8)]):
            pts = [TrajectoryPoint(0, 8, 0.0, 1.0, None), TrajectoryPoint(5, 16, 0.1, 1e-3, None)]
            series.append(TrajectorySeries("sagd", q, tau, k, 8, pts))
        write_results_csv(series, csv_path, MANIFEST)
        out = tmp_path / "r.svg"
        emit_svg_plot(csv_path, "effective_passes", out)
        text = out.read_text()
        assert text.count('class="legend-entry"') == 4
        assert text.count("<polyline") == 4

    def test_bad_axis_rejected(self, tmp_path):
        csv_path = tmp_path / "r.csv"
        write_results_csv([_series()], csv_path, MANIFEST)
        with pytest.raises(InvalidInputError):
            emit_svg_plot(csv_path, "iterations", tmp_path / "x.svg")

    def test_multi_seed_config_stays_one_polyline(self, tmp_path):
        csv_path = tmp_path / "r.csv"
        series = []
        for seed in (1, 2, 3):
            pts = [
                TrajectoryPoint(0, 8, 0.0, 1.0, None),
                TrajectoryPoint(5, 16 + seed, 0.1, 10.0 ** (-3 - 0.1 * seed), None),
            ]
            series.append(TrajectorySeries("sagd", 0.5, 2, seed, 8, pts))
        write_results_csv(series, csv_path, MANIFEST)
        out = tmp_path / "r.svg"
        emit_svg_plot(csv_path, "effective_passes", out)
        text = out.read_text()
        assert text.count("<polyline") == 1
        assert text.count('class="legend-entry"') == 1
