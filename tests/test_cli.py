import dataclasses
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tsvote.core as core
from tsvote import (
    CorpusConfig, Label, LabeledDataset, Provenance, TimeSeries, VotingParams, make_detection_corpus,
    split_topics,
)
from tsvote.classify import MapKernel, VotingKernel
from tsvote.cli import main
from tsvote import dataio
from tsvote import config
from tsvote.config import SCHEMA, load_config
from tsvote.errors import ConfigError


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


GEN_ARGS = [
    "--set", "generator.m=4",
    "--set", "generator.series_length=30",
    "--set", "generator.smoothing_scale=3.0",
    "--set", "model.delta_max=3",
    "--set", "experiment.beta=4.0",
    "--set", "experiment.test_size=10",
]


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = load_config(None, ["seed=9", "voting.gamma=0.5"])
        assert cfg["seed"] == 9
        assert cfg["voting.gamma"] == 0.5
        assert cfg["pipeline.alpha"] == 1.2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            load_config(None, ["generator.em=4"])

    def test_field_validation_names_the_field(self):
        with pytest.raises(ConfigError, match="model.delta_max"):
            load_config(None, ["model.delta_max=-1"])

    def test_file_parsing(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# a comment\nseed = 3\nexperiment.t_grid = 5, 10\nvoting.shift_mode = sum\n"
        )
        cfg = load_config(cfg_file, [])
        assert cfg["seed"] == 3
        assert cfg["experiment.t_grid"] == [5, 10]
        assert cfg["voting.shift_mode"] == "sum"

    def test_duplicate_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 3\nseed = 4\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(cfg_file, [])

    # keys that feed no field of their section's class, and fields that have no key
    KEYS_NOT_FIELDS = {
        "detection.gamma_grid", "detection.t_grid", "detection.t_smooth_grid",
        "detection.h_grid", "detection.theta_grid", "detection.window_hours",
        "bounds.delta", "bounds.g_star", "bounds.T", "experiment.t_grid", "experiment.mode",
    }
    FIELDS_NOT_KEYS = {"corpus.spike_rate"}  # CorpusConfig keeps its default

    def test_section_keys_are_field_names(self, monkeypatch):
        # a renamed field or key must fail here rather than silently drop a setting
        sections, build = set(), config._section

        def spy(cfg, cls, section, **given):
            sections.add((cls, section, frozenset(given)))
            return build(cfg, cls, section, **given)

        monkeypatch.setattr(config, "_section", spy)
        cfg = load_config(None, [])
        for builder in (
            config.generator_config, config.noise_spec, config.voting_params,
            config.pipeline_params, config.experiment_config, config.detection_config,
            config.sweep_grid, config.corpus_config, config.bound_inputs,
        ):
            builder(cfg)
        assert {section for _, section, _ in sections} == {
            "generator", "voting", "pipeline", "experiment", "detection", "corpus", "bounds"
        }
        for cls, section, given in sections:
            keys = {k for k in SCHEMA if k.startswith(section + ".")} - self.KEYS_NOT_FIELDS
            names = {f"{section}.{f.name}" for f in dataclasses.fields(cls) if f.name not in given}
            assert keys == names - self.FIELDS_NOT_KEYS, cls.__name__

    @pytest.mark.parametrize(
        "override",
        [
            "voting.gamma=Infinity",
            "voting.gamma=1e400",
            "voting.theta=NaN",
            "bounds.gap=-Infinity",
            "detection.gamma_grid=1, Infinity",
            "experiment.beta_grid=[2, 1e400]",
        ],
    )
    def test_non_finite_numbers_rejected(self, override):
        with pytest.raises(ConfigError, match=override.split("=")[0] + ".*finite"):
            load_config(None, [override])


class TestSerialization:
    def test_dataset_round_trip(self, tmp_path, rng):
        pos = tuple(TimeSeries(-2, rng.standard_normal(8), id=f"p{i}") for i in range(3))
        neg = (TimeSeries(-2, rng.standard_normal(8), id="n0"),)
        data = LabeledDataset(pos, neg, (Provenance(0, 1),) * 3, (Provenance(1, 0),))
        path = tmp_path / "data.jsonl"
        dataio.write_dataset(path, data)
        back = dataio.read_dataset(path)
        assert back == data

    def test_rate_round_trip(self, tmp_path, rng):
        from tsvote import RateSeries

        rates = [
            RateSeries(rng.uniform(1, 5, 12), 2.0, "a", onset_index=7),
            RateSeries(rng.uniform(1, 5, 9), 2.0, "b"),
        ]
        path = tmp_path / "rates.jsonl"
        dataio.write_rates(path, rates)
        back = dataio.read_rates(path)
        for x, y in zip(rates, back):
            assert np.array_equal(x.counts, y.counts)
            assert (x.topic_id, x.onset_index, x.bucket_width_minutes) == (
                y.topic_id,
                y.onset_index,
                y.bucket_width_minutes,
            )

    def test_rate_csv_import(self, tmp_path):
        path = tmp_path / "rate.csv"
        path.write_text("t,value\n1,5\n2,6\n3,2\n")
        rate = dataio.read_rate_csv(path, topic_id="demo")
        assert np.array_equal(rate.counts, [5.0, 6.0, 2.0])

    def test_rate_csv_header_may_follow_blank_lines(self, tmp_path):
        # only line 1 used to be a possible header: this exited 1 with
        # "invalid literal for int() with base 10: 't'"
        path = tmp_path / "rate.csv"
        path.write_text("\n ,\nt,value\n1,5\n2,6\n")
        assert np.array_equal(dataio.read_rate_csv(path).counts, [5.0, 6.0])
        path.write_text("\n1,5\nt,value\n")  # a header after a row is a bad row
        with pytest.raises(ConfigError, match="rate.csv:3: invalid literal"):
            dataio.read_rate_csv(path)

    def test_rate_csv_rejects_gaps(self, tmp_path):
        path = tmp_path / "rate.csv"
        path.write_text("1,5\n3,6\n")
        with pytest.raises(ConfigError, match="rate.csv:2"):
            dataio.read_rate_csv(path)

    def test_jsonl_parse_error_has_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"id": "a"}\nnot-json\n')
        with pytest.raises(ConfigError, match="broken.jsonl:2"):
            dataio.read_jsonl(path)

    SERIES = {"start_index": 1, "values": [0.0, 1.0]}
    # reader, its file, a good record, and each malformed line 4 with the error it must give
    LOCATED_READERS = {
        "read_dataset": (dataio.read_dataset, "train.jsonl", {**SERIES, "label": 1}, [
            (json.dumps({**SERIES, "values": [], "label": 1}), "bad series record"),
            (json.dumps(SERIES), "dataset records must carry a label"),
        ]),
        "read_series_file": (dataio.read_series_file, "series.jsonl", SERIES, [
            (json.dumps({**SERIES, "label": 2}), "bad series record"),
        ]),
        "read_model": (dataio.read_model, "sources.jsonl", {**SERIES, "label": -1}, [
            (json.dumps({**SERIES, "start_index": 1.5, "label": -1}), "bad series record"),
            (json.dumps(SERIES), "source records need a label"),
        ]),
        "read_rates": (dataio.read_rates, "rates.jsonl", {"counts": [1.0, 2.0]}, [
            (json.dumps({"counts": [1.0, -2.0]}), "bad rate record"),
        ]),
    }

    @pytest.mark.parametrize("reader", sorted(LOCATED_READERS))
    def test_a_bad_record_is_located_by_its_file_line(self, tmp_path, reader):
        # line 4, after two blank lines: a field error used to name the record's
        # index (2), and invalid JSON on a later line (5) used to be raised first
        read, name, good, defects = self.LOCATED_READERS[reader]
        path = tmp_path / name
        (tmp_path / "model.json").write_text("{}")  # read_model parses it before its sources
        for line, reason in defects + [("not-json", "invalid JSON")]:
            for tail in ("", "{\n"):
                path.write_text(f"{json.dumps(good)}\n\n\n{line}\n{tail}")
                with pytest.raises(ConfigError) as info:
                    read(tmp_path if read is dataio.read_model else path)
                assert str(info.value).startswith(f"{path}:4: {reason}"), str(info.value)


class TestGenerate:
    def test_writes_everything_and_round_trips(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(["generate", "--seed", "1", "--out", str(out)] + GEN_ARGS, capsys)
        assert code == 0
        for name in ("model.json", "sources.jsonl", "train.jsonl", "test.jsonl", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["counts"]["m"] == 4
        train = dataio.read_dataset(out / "train.jsonl")
        assert train.n == manifest["counts"]["n_train"]
        model = dataio.read_model(out)
        assert model.m == 4 and model.delta_max == 3
        summary = json.loads(stdout)
        assert summary["manifest"]["config_hash"] == manifest["config_hash"]

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code, _, _ = run_cli(["generate", "--seed", "7", "--out", str(out)] + GEN_ARGS, capsys)
            assert code == 0
        assert read_tree_bytes(out_a) == read_tree_bytes(out_b)

    def test_malformed_config_names_field(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["generate", "--out", str(tmp_path), "--set", "model.delta_max=-2"], capsys
        )
        assert code == 1
        assert "model.delta_max" in err

    def test_full_profile_manifest_size(self, tmp_path, capsys):
        # the full-scale profile records roughly 8479 training series
        out = tmp_path / "big"
        args = [
            "generate", "--seed", "0", "--out", str(out),
            "--set", "generator.m=200",
            "--set", "generator.series_length=12",
            "--set", "generator.smoothing_scale=30",
            "--set", "model.delta_max=0",
            "--set", "experiment.beta=8.0",
            "--set", "experiment.test_size=1",
        ]
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert abs(manifest["counts"]["n_train"] - 8479) <= 2


@pytest.fixture
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main(["generate", "--seed", "1", "--out", str(out)] + GEN_ARGS)
    assert code == 0
    return out


class TestClassify:
    def test_training_member_is_positive(self, generated, tmp_path, capsys):
        train = dataio.read_dataset(generated / "train.jsonl")
        member = train.positives[0]
        series_file = tmp_path / "series.jsonl"
        observed = TimeSeries(1, member.window(1, 20), id="probe")
        dataio.write_jsonl(series_file, [dataio.series_to_record(observed)])
        code, stdout, _ = run_cli(
            [
                "classify", "--train", str(generated / "train.jsonl"),
                "--series", str(series_file), "--method", "wmv",
                "--gamma", "2.0", "--T", "20", "--delta-max", "3",
                "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        verdict = json.loads(stdout.splitlines()[0])
        assert verdict["label"] == 1
        assert verdict["nearest_id"] == member.id
        assert verdict["nearest_distance"] == 0.0

    def test_nn_and_sharp_wmv_agree(self, generated, tmp_path, capsys):
        test_series = dataio.read_series_file(generated / "test.jsonl")
        series_file = tmp_path / "series.jsonl"
        dataio.write_jsonl(
            series_file,
            [dataio.series_to_record(ts) for ts, _ in test_series],
        )
        labels = {}
        for method, gamma in (("nn", "1.0"), ("wmv", "1e6")):
            code, stdout, _ = run_cli(
                [
                    "classify", "--train", str(generated / "train.jsonl"),
                    "--series", str(series_file), "--method", method,
                    "--gamma", gamma, "--T", "20", "--delta-max", "3",
                    "--out", str(tmp_path / method),
                ],
                capsys,
            )
            assert code == 0
            labels[method] = [json.loads(line)["label"] for line in stdout.splitlines()]
        assert labels["nn"] == labels["wmv"]

    def test_map_method_uses_model(self, generated, tmp_path, capsys):
        test_series = dataio.read_series_file(generated / "test.jsonl")
        series_file = tmp_path / "series.jsonl"
        dataio.write_jsonl(series_file, [dataio.series_to_record(test_series[0][0])])
        code, stdout, _ = run_cli(
            [
                "classify", "--model", str(generated), "--series", str(series_file),
                "--method", "map", "--gamma", "0.5", "--T", "20", "--delta-max", "3",
                "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        verdict = json.loads(stdout.splitlines()[0])
        assert verdict["label"] in (1, -1)

    METHODS = (("wmv", None), ("nn", 1), ("knn", 3), ("map", None))

    def classify_args(self, generated, series_file, method, k, out, *extra):
        source = ["--train", str(generated / "train.jsonl")]
        if method == "map":
            source = ["--model", str(generated)]
        elif method == "knn":
            source += ["--k", str(k)]
        return [
            "classify", *source, "--series", str(series_file), "--method", method,
            "--gamma", "0.5", "--T", "20", "--delta-max", "3", *extra, "--out", str(out),
        ]

    @pytest.mark.parametrize("block_values", [1, 2**30])  # one series a block; one block
    @pytest.mark.parametrize("shift_mode", ["min", "sum"])
    def test_verdicts_equal_the_per_series_library(
        self, generated, tmp_path, capsys, monkeypatch, block_values, shift_mode
    ):
        params = VotingParams(0.5, 20, 3, shift_mode=shift_mode)
        train = dataio.read_dataset(generated / "train.jsonl")
        kernel = VotingKernel(train, params)
        oracle = MapKernel(dataio.read_model(generated), params)
        series = [ts for ts, _ in dataio.read_series_file(generated / "test.jsonl")]
        want = {}
        for method, k in self.METHODS:
            lines = []
            for s in series:
                if method == "map":
                    outcome, nn_id, nn_dist = oracle.classify(s), None, None
                else:
                    outcome, (idx, nn_dist, _) = kernel.verdict_and_nearest(s, k)
                    nn_id = train.examples()[idx].id
                lines.append(dataio.dumps_canonical({
                    "schema_version": dataio.SCHEMA_VERSION,
                    "id": s.id,
                    "method": method,
                    "label": int(outcome.label),
                    "log_lambda": outcome.log_lambda,
                    "log_votes_pos": outcome.per_class_log_votes[0],
                    "log_votes_neg": outcome.per_class_log_votes[1],
                    "nearest_id": nn_id,
                    "nearest_distance": nn_dist,
                }) + "\n")
            want[method] = "".join(lines)
        monkeypatch.setattr(core, "BLOCK_VALUES", block_values)
        for method, k in self.METHODS:
            out = tmp_path / method
            argv = self.classify_args(
                generated, generated / "test.jsonl", method, k, out, "--shift-mode", shift_mode
            )
            code, stdout, _ = run_cli(argv, capsys)
            assert code == 0
            assert (out / "verdicts.jsonl").read_text() == want[method], method
            assert stdout == want[method], method

    @pytest.mark.parametrize("method, k", METHODS)
    def test_a_short_last_series_prints_no_verdict(self, generated, tmp_path, capsys, method, k):
        series = [ts for ts, _ in dataio.read_series_file(generated / "test.jsonl")]
        short = TimeSeries(1, series[-1].values[:19], id="short")  # T is 20
        series_file = tmp_path / "series.jsonl"
        dataio.write_jsonl(series_file, [dataio.series_to_record(ts) for ts in series + [short]])
        argv = self.classify_args(generated, series_file, method, k, tmp_path / "out")
        code, stdout, err = run_cli(argv, capsys)
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "'short'" in err
        assert stdout == ""
        assert not (tmp_path / "out" / "verdicts.jsonl").exists()

    def test_single_class_dataset_is_an_error(self, generated, tmp_path, capsys):
        train = dataio.read_dataset(generated / "train.jsonl")
        only_pos = tmp_path / "pos.jsonl"
        dataio.write_jsonl(
            only_pos, [dataio.series_to_record(ts, Label.POSITIVE) for ts in train.positives]
        )
        series_file = tmp_path / "series.jsonl"
        dataio.write_jsonl(series_file, [dataio.series_to_record(train.positives[0])])
        code, stdout, err = run_cli(
            [
                "classify", "--train", str(only_pos), "--series", str(series_file),
                "--T", "20", "--delta-max", "3", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 3
        assert "non-empty" in err
        assert stdout == ""


    def test_undefined_vote_ratio_exits_3(self, generated, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy must stay quiet
            code, stdout, err = run_cli(
                [
                    "classify", "--train", str(generated / "train.jsonl"),
                    "--series", str(generated / "test.jsonl"), "--method", "wmv",
                    "--gamma", "1e308", "--T", "20", "--delta-max", "3", "--out", str(tmp_path),
                ],
                capsys,
            )
        assert code == 3
        assert "undefined" in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert stdout == ""

    def test_overflowing_distance_exits_3_quietly(self, tmp_path):
        # the squared distances themselves overflow, so no gamma helps; numpy's
        # overflow warning must not reach stderr ahead of the one error line
        train, series = tmp_path / "train.jsonl", tmp_path / "series.jsonl"
        dataio.write_jsonl(train, [
            dataio.series_to_record(TimeSeries(1, np.full(5, v), id=f"r{i}"), label)
            for i, (v, label) in enumerate(((1e200, Label.POSITIVE), (-1e200, Label.NEGATIVE)))
        ])
        dataio.write_jsonl(series, [dataio.series_to_record(TimeSeries(1, np.zeros(5), id="q"))])
        result = subprocess.run(
            [
                sys.executable, "-m", "tsvote.cli", "classify", "--train", str(train),
                "--series", str(series), "--method", "wmv", "--T", "5", "--delta-max", "0",
                "--gamma", "0.1", "--out", str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
        assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")
        assert "squared distance" in result.stderr
        assert result.stdout == ""

    def test_infinite_gamma_setting_exits_1(self, generated, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "classify", "--train", str(generated / "train.jsonl"),
                "--series", str(generated / "test.jsonl"), "--set", "voting.gamma=Infinity",
                "--T", "20", "--delta-max", "3", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 1
        assert "voting.gamma" in err


class TestPreprocessCommand:
    def test_worked_example(self, tmp_path, capsys):
        rates = tmp_path / "rates.jsonl"
        dataio.write_jsonl(
            rates,
            [{"topic_id": "w", "bucket_width_minutes": 2.0, "counts": [1.0, 1.0, 2.0]}],
        )
        out = tmp_path / "out"
        code, _, _ = run_cli(
            [
                "preprocess", "--rates", str(rates), "--out", str(out),
                "--set", "pipeline.alpha=1.0",
                "--set", "pipeline.t_smooth=2",
            ],
            capsys,
        )
        assert code == 0
        rec = dataio.read_jsonl(out / "preprocessed.jsonl")[0]
        assert np.allclose(rec["values"], [0.0, 0.40546, -0.69315], atol=1e-5)
        csv_text = (out / "preprocessed.csv").read_text().splitlines()
        assert csv_text[0] == "topic_id,t,value"
        assert len(csv_text) == 4

    def test_csv_import_with_slice(self, tmp_path, capsys, rng):
        csv_in = tmp_path / "rate.csv"
        counts = rng.uniform(1, 10, 120)
        csv_in.write_text("t,value\n" + "\n".join(f"{t},{v}" for t, v in enumerate(counts, 1)))
        out = tmp_path / "out"
        code, _, _ = run_cli(
            [
                "preprocess", "--csv", str(csv_in), "--topic-id", "demo",
                "--onset-index", "100", "--slice-mode", "pre_onset",
                "--slice-hours", "1.0", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        rec = dataio.read_jsonl(out / "preprocessed.jsonl")[0]
        assert len(rec["values"]) == 30
        assert rec["start_index"] == 71

    @pytest.mark.parametrize("count", ["nan", "inf", "-3"])
    def test_a_bad_csv_count_exits_1_naming_the_file(self, tmp_path, capsys, count):
        # such a count used to exit 3 without naming the file, unlike a rate JSONL's
        csv_in = tmp_path / "rate.csv"
        csv_in.write_text(f"t,value\n1,5\n2,{count}\n3,2\n")
        out = tmp_path / "out"
        code, stdout, err = run_cli(["preprocess", "--csv", str(csv_in), "--out", str(out)], capsys)
        assert code == 1
        reason = "topic 'rate': counts must be nonnegative and finite"
        assert err == f"error: {csv_in}: bad rate record ({reason})\n"
        assert stdout == "" and not out.exists()
        # an --onset-index past the file comes from the command line: still exit 3
        csv_in.write_text("t,value\n1,5\n2,6\n3,2\n")
        argv = ["preprocess", "--csv", str(csv_in), "--onset-index", "4", "--out", str(out)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 3
        assert err == "error: topic 'rate': onset_index 4 outside [1, 3]\n"
        assert stdout == "" and not out.exists()

    def test_a_window_far_past_the_series_smooths_as_the_whole_series(self, tmp_path, capsys, rng):
        csv_in = tmp_path / "t.csv"
        counts = rng.uniform(1, 10, 50)
        csv_in.write_text("t,value\n" + "\n".join(f"{t},{v}" for t, v in enumerate(counts, 1)))
        trees = []
        for t_smooth in (1_000_000_000_000, 51):  # 51: one bucket past the series
            out = tmp_path / f"out-{t_smooth}"
            argv = ["preprocess", "--csv", str(csv_in), "--set", f"pipeline.t_smooth={t_smooth}",
                    "--out", str(out)]
            code, _, err = run_cli(argv, capsys)
            assert (code, err) == (0, "")
            trees.append(read_tree_bytes(out))
        assert trees[0] == trees[1]


class TestGapAndBounds:
    def test_gap_command(self, generated, tmp_path, capsys):
        code, stdout, _ = run_cli(
            [
                "gap", "--train", str(generated / "train.jsonl"),
                "--T", "20", "--delta-max", "2", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["gap"] >= 0.0
        assert json.loads((tmp_path / "gap.json").read_text()) == doc

    def test_overflowing_gap_exits_3(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        dataio.write_jsonl(
            train,
            [
                dataio.series_to_record(TimeSeries(1, [1e160, 0.0], id="p"), Label.POSITIVE),
                dataio.series_to_record(TimeSeries(1, [-1e160, 0.0], id="n"), Label.NEGATIVE),
            ],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy must stay quiet
            code, stdout, err = run_cli(
                [
                    "gap", "--train", str(train), "--T", "2", "--delta-max", "0",
                    "--out", str(tmp_path / "out"),
                ],
                capsys,
            )
        assert code == 3
        assert "overflows" in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert stdout == ""
        assert not (tmp_path / "out" / "gap.json").exists()

    def test_flag_beats_set(self, generated, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "gap", "--train", str(generated / "train.jsonl"), "--out", str(tmp_path),
                "--set", "voting.T=5", "--T", "20",
                "--delta-max", "1", "--set", "voting.delta_max=3",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads((tmp_path / "gap.json").read_text())
        assert (doc["T"], doc["delta_max"]) == (20, 1)

    def test_bounds_worked_example(self, tmp_path, capsys):
        code, stdout, _ = run_cli(
            [
                "bounds", "--out", str(tmp_path),
                "--set", "bounds.m=4", "--set", "bounds.m_plus=2", "--set", "bounds.m_minus=2",
                "--set", "bounds.n=10", "--set", "bounds.beta=2.0", "--set", "bounds.sigma=1.0",
                "--set", "bounds.gamma=0.125", "--set", "bounds.theta=1.0",
                "--set", "bounds.delta_max=0", "--set", "bounds.gap=32.0",
                "--set", "bounds.delta=0.05", "--set", "bounds.g_star=40.0", "--set", "bounds.T=250",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(stdout)
        expected = 10.0 * np.exp(-2.0) + 0.25
        assert doc["wmv_bound"] == pytest.approx(expected, abs=1e-5)
        assert doc["nn_bound"] == pytest.approx(expected, abs=1e-5)
        assert doc["wmv_vacuous"] is True
        assert doc["conditions"]["g_star_ok"] is True
        assert doc["conditions"]["t_ok"] is True

    @pytest.mark.parametrize("sets, key", [
        (["bounds.delta=5"], "bounds.delta"),
        (["bounds.delta=1"], "bounds.delta"),
        (["bounds.delta=0"], "bounds.delta"),
        (["bounds.g_star=10", "bounds.T=50", "bounds.delta=1.5"], "bounds.delta"),
        (["bounds.T=-5"], "bounds.T"),
        (["bounds.T=0"], "bounds.T"),
        (["bounds.g_star=-3"], "bounds.g_star"),
    ])
    def test_bounds_inputs_out_of_range_name_their_key(self, tmp_path, capsys, sets, key):
        out = tmp_path / "out"
        argv = ["bounds", "--out", str(out)] + [a for s in sets for a in ("--set", s)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1
        assert f"field {key!r}" in err
        assert stdout == "" and not out.exists()


class TestExperimentCommand:
    SMOKE_ARGS = [
        "--seed", "2",
        "--set", "generator.m=4",
        "--set", "generator.series_length=26",
        "--set", "generator.smoothing_scale=3.0",
        "--set", "model.delta_max=3",
        "--set", "experiment.beta=4.0",
        "--set", "experiment.t_grid=[10, 20]",
        "--set", "experiment.trials=1",
        "--set", "experiment.test_size=10",
    ]

    def test_smoke_emits_rows(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code, stdout, _ = run_cli(
            ["experiment", "--mode", "T", "--out", str(out)] + self.SMOKE_ARGS, capsys
        )
        assert code == 0
        rows = (out / "curves_T.csv").read_text().splitlines()
        assert rows[0] == "T,classifier,mean_error,std_error"
        assert len(rows) == 1 + 2 * 3  # two grid points, three classifiers
        doc = json.loads((out / "experiment.json").read_text())
        assert set(doc["curves_T"]["classifiers"]) == {"map", "nn", "wmv"}

    def test_mode_flag_beats_set(self, tmp_path, capsys):
        args = self.SMOKE_ARGS + ["--out", str(tmp_path), "--set", "experiment.mode=both"]
        code, _, _ = run_cli(["experiment", "--mode", "beta"] + args, capsys)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["curves_beta.csv", "experiment.json"]
        assert json.loads((tmp_path / "experiment.json").read_text())["mode"] == "beta"

    @pytest.mark.parametrize(
        "override",
        [
            "experiment.t_grid=0",
            "experiment.t_grid=[10, -5]",
            "experiment.t_grid=[]",
            "experiment.beta_grid=-1",
            "experiment.beta_grid=[2, 0]",
            "experiment.beta_grid=[]",
            "experiment.beta_grid=0.01",  # a one-draw pool cannot hold both classes
            "experiment.beta_grid=[2, 1]",
        ],
    )
    def test_grids_must_be_positive(self, tmp_path, capsys, override):
        args = ["experiment", "--mode", "both", "--out", str(tmp_path), "--set", override]
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert override.split("=")[0] in err
        assert not any(tmp_path.iterdir())  # rejected before any work


class TestDetectCommand:
    DETECT_ARGS = [
        "--set", "corpus.n_trends=12",
        "--set", "corpus.n_non_trends=12",
        "--set", "corpus.length=300",
        "--set", "corpus.onset_low=120",
        "--set", "corpus.onset_high=200",
        "--set", "corpus.ramp_buckets=60",
        "--set", "detection.h_hours=1.0",
        "--set", "detection.T=15",
        "--set", "detection.gamma=1.0",
        "--set", "pipeline.t_smooth=20",
        "--set", "detection.theta_grid=[0.5, 2.0]",
    ]

    def test_synthetic_sweep(self, tmp_path, capsys):
        out = tmp_path / "det"
        code, stdout, _ = run_cli(["detect", "--seed", "3", "--out", str(out)] + self.DETECT_ARGS, capsys)
        assert code == 0
        doc = json.loads((out / "roc.json").read_text())
        assert len(doc["points"]) == 2
        tprs = [t for _, t in doc["envelope"]]
        assert tprs == sorted(tprs)
        rows = dataio.read_jsonl(out / "detections.jsonl")
        assert len(rows) == 2 * 12  # per grid point, one row per test topic
        csv_lines = (out / "roc.csv").read_text().splitlines()
        assert len(csv_lines) == 3

    def test_detect_deterministic(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code, _, _ = run_cli(["detect", "--seed", "3", "--out", str(out)] + self.DETECT_ARGS, capsys)
            assert code == 0
        assert read_tree_bytes(out_a) == read_tree_bytes(out_b)

    def test_multi_setting_grid_deterministic(self, tmp_path, capsys):
        grid = ["--set", "detection.t_grid=[12, 15]", "--set", "detection.h_grid=[1.0, 1.5]"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            argv = ["detect", "--seed", "3", "--out", str(out)] + self.DETECT_ARGS + grid
            code, _, _ = run_cli(argv, capsys)
            assert code == 0
        assert read_tree_bytes(out_a) == read_tree_bytes(out_b)
        doc = json.loads((out_a / "roc.json").read_text())
        # T, then h, then theta (the innermost axis)
        got = [(p["params"]["T"], p["params"]["h_hours"], p["params"]["theta"]) for p in doc["points"]]
        assert got == [(T, h, th) for T in (12, 15) for h in (1.0, 1.5) for th in (0.5, 2.0)]

    def test_two_topics_per_class_run(self, tmp_path, capsys):
        counts = ["--set", "corpus.n_trends=2", "--set", "corpus.n_non_trends=2"]
        out = tmp_path / "det"
        code, _, _ = run_cli(["detect", "--out", str(out)] + self.DETECT_ARGS + counts, capsys)
        assert code == 0
        doc = json.loads((out / "roc.json").read_text())
        assert (doc["n_train"], doc["n_test"]) == (2, 2)

    @pytest.mark.parametrize("lonely", ["trends", "non-trends"])
    def test_a_one_topic_file_names_its_class(self, tmp_path, capsys, lonely):
        trends, bgs = make_detection_corpus(CorpusConfig(n_trends=2, n_non_trends=2))
        files = {"trends": trends, "non-trends": bgs}
        files[lonely] = files[lonely][:1]
        argv = ["detect"]
        for flag, rates in files.items():
            dataio.write_rates(tmp_path / f"{flag}.jsonl", rates)
            argv += [f"--{flag}", str(tmp_path / f"{flag}.jsonl")]
        out = tmp_path / "out"
        code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
        name = "trend" if lonely == "trends" else "non-trend"
        assert code == 3
        assert f"need >= 2 {name} topics to split in half, got 1" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("width, hours", [("2", "1"), ("5", "2")])
    def test_topic_files_count_the_configured_bucket_width(self, tmp_path, capsys, width, hours):
        # 5-minute topics: h = 1 h would be 30 buckets of 2 minutes, 150 of their minutes
        trends, bgs = make_detection_corpus(CorpusConfig(
            n_trends=4, n_non_trends=4, length=300, onset_low=120, onset_high=200,
            bucket_width_minutes=5.0,
        ))
        argv = ["detect", "--config", str(CONFIGS / "detect.cfg"),
                "--set", f"detection.bucket_width_minutes={width}",
                "--set", f"detection.h_hours={hours}"]
        for flag, rates in (("trends", trends), ("non-trends", bgs)):
            dataio.write_rates(tmp_path / f"{flag}.jsonl", rates)
            argv += [f"--{flag}", str(tmp_path / f"{flag}.jsonl")]
        out = tmp_path / "out"
        code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
        if width == "5":
            assert code == 0
            rows = dataio.read_jsonl(out / "detections.jsonl")
            minutes = {r["relative_minutes"] for r in rows if r["detected"]}
            assert minutes and all(m % 5 == 0 and -120 <= m <= 120 for m in minutes)
            return
        assert code == 3
        assert len(err.splitlines()) == 1
        assert "has 5.0-minute buckets, but detection counts 2.0-minute buckets" in err
        assert stdout == "" and not out.exists()

    def run_with_short_backgrounds(self, tmp_path, capsys, length):
        """detect on topic files whose background topics hold `length` buckets,
        firing everywhere (theta 1e-300); returns (code, err, out, test background id)."""
        trends, bgs = make_detection_corpus(CorpusConfig(
            n_trends=2, n_non_trends=2, length=300, onset_low=120, onset_high=200, seed=4
        ))
        bgs = [dataclasses.replace(rate, counts=rate.counts[:length]) for rate in bgs]
        _, test = split_topics(trends, bgs, np.random.SeedSequence(0).spawn(2)[0])
        argv = ["detect", "--seed", "0"] + self.DETECT_ARGS + ["--set", "detection.theta_grid=[1e-300]"]
        for flag, rates in (("trends", trends), ("non-trends", bgs)):
            dataio.write_rates(tmp_path / f"{flag}.jsonl", rates)
            argv += [f"--{flag}", str(tmp_path / f"{flag}.jsonl")]
        out = tmp_path / "out"
        code, _, err = run_cli(argv + ["--out", str(out)], capsys)
        bg_id = next(rate.topic_id for rate, label in test if label == Label.NEGATIVE)
        return code, err, out, bg_id

    def test_a_background_exactly_the_region_long_is_its_whole_region(self, tmp_path, capsys):
        half, T = 30, 15  # one hour of 2-minute buckets
        code, _, out, bg_id = self.run_with_short_backgrounds(tmp_path, capsys, 2 * half + T)
        assert code == 0
        row = next(r for r in dataio.read_jsonl(out / "detections.jsonl") if r["topic_id"] == bg_id)
        # fired at the region's first window, which ends at bucket T: the region starts at 1
        assert (row["detection_index"], row["relative_minutes"]) == (T, -2.0 * half)

    def test_a_background_shorter_than_the_region_names_it(self, tmp_path, capsys):
        code, err, out, bg_id = self.run_with_short_backgrounds(tmp_path, capsys, 2 * 30 + 15 - 1)
        assert code == 3
        assert err.splitlines() == [
            f"error: series {bg_id!r} has 74 entries, shorter than the 75-bucket window"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0.5", "9"])
    def test_window_hours_is_retired(self, tmp_path, capsys, value):
        argv = ["detect", "--set", f"detection.window_hours={value}", "--out", str(tmp_path)]
        code, _, err = run_cli(argv + self.DETECT_ARGS, capsys)
        assert code == 1
        assert "detection.window_hours" in err


class TestOutputDirResolution:
    def test_env_var_sets_default(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("TSVOTE_OUTPUT_DIR", str(env_dir))
        code, _, _ = run_cli(["bounds"], capsys)
        assert code == 0
        assert (env_dir / "bounds.json").exists()

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TSVOTE_OUTPUT_DIR", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        code, _, _ = run_cli(["bounds", "--out", str(explicit)], capsys)
        assert code == 0
        assert (explicit / "bounds.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["gap", "--train", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path)], capsys
        )
        assert code == 2
        code, _, err = run_cli(["bounds", "--config", str(tmp_path / "absent.cfg")], capsys)
        assert code == 2
        assert "absent.cfg" in err

    @pytest.mark.parametrize("argv", [["--set", "seed=-1"], ["--seed", "-1"]])
    def test_a_negative_seed_is_refused_before_any_output(self, tmp_path, capsys, argv):
        # it used to exit 1 with a numpy traceback, leaving an empty --out behind
        out = tmp_path / "out"
        code, stdout, err = run_cli(["generate", "--out", str(out)] + argv + GEN_ARGS, capsys)
        assert code == 1
        assert "field 'seed'" in err and "Traceback" not in err
        assert stdout == "" and not out.exists()

    def test_a_kernel_beyond_block_values_is_refused_before_any_output(self, tmp_path, capsys):
        # it used to raise MemoryError in make_latent_sources, after creating --out
        out = tmp_path / "out"
        argv = ["generate", "--out", str(out), *GEN_ARGS, "--set", "generator.smoothing_scale=1e15"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1
        assert "field 'generator.smoothing_scale': must be > 0 and <= 8191.75" in err
        assert stdout == "" and not out.exists()

    def test_a_second_call_sees_none_of_the_first_calls_settings(self, monkeypatch):
        # the parser is built once per process; every call parses into a namespace of its own
        seen = []
        monkeypatch.setattr(config, "load_config", lambda path, sets: seen.append(sets) or 1 / 0)
        for argv in (["bounds", "--set", "bounds.gap=40", "--set", "bounds.n=12"], ["bounds"]):
            with pytest.raises(ZeroDivisionError):
                main(argv)
        assert seen == [["bounds.gap=40", "bounds.n=12"], []]

    def test_bad_flag_is_validation(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["classify", "--series", "s.jsonl", "--gamma", "-1"], "voting.gamma"),
            (["classify", "--series", "s.jsonl", "--theta", "0"], "voting.theta"),
            (["classify", "--series", "s.jsonl", "--T", "0"], "voting.T"),
            (["classify", "--series", "s.jsonl", "--delta-max", "-1"], "voting.delta_max"),
            (["classify", "--series", "s.jsonl", "--gamma", "inf"], "voting.gamma"),
            (["gap", "--train", "t.jsonl", "--T", "0"], "voting.T"),
            (["gap", "--train", "t.jsonl", "--delta-max", "-2"], "voting.delta_max"),
            (["preprocess", "--rates", "r.jsonl", "--slice-hours", "0"], "detection.h_hours"),
        ],
    )
    def test_bad_flag_value_names_its_key(self, tmp_path, capsys, argv, key):
        # each flag is shorthand for a --set key, so the schema check covers it
        code, stdout, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert code == 1
        assert key in err
        assert stdout == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["detect", "--set", "detection.gamma_grid=1,-1"], "detection.gamma_grid"),
            (["detect", "--set", "detection.gamma_grid="], "detection.gamma_grid"),
            (["detect", "--set", "detection.t_grid=0"], "detection.t_grid"),
            (["detect", "--set", "detection.t_smooth_grid=20,0"], "detection.t_smooth_grid"),
            (["detect", "--set", "detection.h_grid=0"], "detection.h_grid"),
            (["detect", "--set", "detection.theta_grid=-1"], "detection.theta_grid"),
            (["detect", "--set", "detection.theta_grid="], "detection.theta_grid"),
            (["detect", "--set", "detection.delta_max=-1"], "detection.delta_max"),
            (["detect", "--set", "corpus.onset_high=400"], "corpus.onset_high"),
            (["detect", "--set", "corpus.n_patterns=5"], "corpus.n_patterns"),
            (["generate", "--set", "model.weights=0.1,0.9"], "model.weights"),
            (["generate", "--set", "generator.m=2", "--set", "model.weights=0.5,0.4"], "model.weights"),
            (["generate", "--set", "generator.m=2", "--set", "model.weights=-1,2"], "model.weights"),
            # cross-field checks of the builders each command calls before any work
            (["experiment", "--config", str(CONFIGS / "desk.cfg"),
              "--set", "experiment.t_grid=10,200"], "experiment.t_grid"),
            (["detect", "--config", str(CONFIGS / "detect.cfg"),
              "--set", "detection.h_grid=1,50"], "detection.h_grid"),
            (["detect", "--config", str(CONFIGS / "detect.cfg"),
              "--set", "detection.h_hours=4"], "detection.h_hours"),
            (["detect", "--config", str(CONFIGS / "detect.cfg"),
              "--set", "detection.h_grid=0.01"], "detection.h_grid"),
            (["detect", "--config", str(CONFIGS / "detect.cfg"),
              "--set", "detection.t_grid=15,31"], "detection.h_hours"),
            (["detect", "--config", str(CONFIGS / "detect.cfg"),
              "--set", "detection.delta_max=8"], "detection.delta_max"),
            # the split halves each class, so a class of one topic has no test half
            (["detect", "--set", "corpus.n_trends=1"], "corpus.n_trends"),
            (["detect", "--set", "corpus.n_non_trends=1"], "corpus.n_non_trends"),
        ],
    )
    def test_bad_setting_names_its_key(self, tmp_path, capsys, argv, key):
        # checked in load_config, before any corpus or model is drawn
        code, stdout, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert code == 1
        assert key in err
        assert stdout == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["classify", "--series", "s.jsonl", "--shift-mode", "max"], "--shift-mode"),
            (["experiment", "--mode", "gamma"], "--mode"),
            (["classify", "--series", "s.jsonl", "--method", "knn", "--k", "0"], "--k"),
        ],
    )
    def test_bad_choice_flag_names_the_flag(self, tmp_path, capsys, argv, flag):
        code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert code == 1
        assert flag in err
        assert not any(tmp_path.iterdir())

    BAD_RECORDS = [
        ("preprocess", "rates", {"counts": [1.0, 2.0, 3.0, 4.0], "onset_index": 3.7}),
        ("preprocess", "rates", {"counts": [1.0, -2.0, 3.0, 4.0]}),
        ("preprocess", "rates", {"counts": [1.0, 2.0, 3.0, 4.0], "onset_index": 5}),
        ("classify", "series", {"start_index": 1, "values": [0.5, float("nan"), 0.25, 1.0]}),
        ("classify", "series", {"start_index": 1, "values": [0.5, 0.0, 0.25, 1.0], "label": 2}),
        ("classify", "train",
         {"start_index": 1, "values": [0.5, float("inf"), 0.25, 1.0], "label": 1}),
        ("gap", "train", {"start_index": 1, "values": [0.5, float("nan"), 0.25, 1.0], "label": 1}),
        ("detect", "rates", {"counts": [1.0, -2.0, 3.0, 4.0]}),
        # integer fields that used to be truncated or parsed: one case per field
        ("classify", "series", {"start_index": 2.9, "values": [0.5, 0.0, 0.25, 1.0]}),
        ("classify", "series", {"start_index": "4", "values": [0.5, 0.0, 0.25, 1.0]}),
        ("classify", "train", {"start_index": 1, "values": [0.5, 0.0, 0.25, 1.0], "label": 1.7}),
        ("classify", "train", {"start_index": 1, "values": [0.5, 0.0, 0.25, 1.0], "label": -1.2}),
        ("classify", "train",
         {"start_index": 1, "values": [0.5, 0.0, 0.25, 1.0], "label": 1, "source_index": 3.8}),
        ("classify", "train",
         {"start_index": 1, "values": [0.5, 0.0, 0.25, 1.0], "label": 1, "source_index": 3,
          "shift": 2.5}),
    ]

    @pytest.mark.parametrize(
        "command, file, record",
        # ids name the file and the case, as they did before the command was a parameter
        [pytest.param(*case, id=f"{case[1]}-record{i}") for i, case in enumerate(BAD_RECORDS)],
    )
    def test_a_bad_record_names_its_file_and_line(self, tmp_path, capsys, command, file, record):
        # record errors that the series and rate types raise used to exit 3
        # without the location that the reader's own checks give; no command
        # creates its output directory before its inputs are read
        good = {
            "rates": {"counts": [1.0, 2.0, 3.0, 4.0]},
            "series": {"start_index": 1, "values": [0.0, 1.0, 0.0, 1.0]},
            "train": {"start_index": 1, "values": [0.0, 1.0, 0.0, 1.0], "label": -1},
        }
        paths = {name: tmp_path / f"{name}.jsonl" for name in good}
        for name, path in paths.items():
            lines = [good[name], record if name == file else good[name]]
            if name == "train":
                lines.append({**good[name], "label": 1})
            dataio.write_jsonl(path, lines)
        argv = {
            "preprocess": ["preprocess", "--rates", str(paths["rates"])],
            "classify": ["classify", "--train", str(paths["train"]),
                         "--series", str(paths["series"]), "--T", "4", "--delta-max", "0"],
            "gap": ["gap", "--train", str(paths["train"]), "--T", "4", "--delta-max", "0"],
            "detect": ["detect", "--trends", str(paths["rates"]),
                       "--non-trends", str(paths["rates"])],
        }[command]
        out = tmp_path / "out"
        code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 1
        assert err.startswith(f"error: {paths[file]}:2: ") and err.count("\n") == 1, err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "field, value", [("delta_max", 2.5), ("window_start", 1.5), ("window_length", "4")]
    )
    def test_a_non_integral_model_field_is_refused(self, tmp_path, capsys, field, value):
        # model.json's integer fields used to be truncated (or parsed) by int()
        generated = tmp_path / "gen"
        code, _, _ = run_cli(["generate", "--seed", "1", "--out", str(generated)] + GEN_ARGS, capsys)
        assert code == 0
        meta_path = generated / "model.json"
        meta = json.loads(meta_path.read_text())
        meta[field] = value
        meta_path.write_text(json.dumps(meta))
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            ["classify", "--model", str(generated), "--series", str(generated / "test.jsonl"),
             "--method", "map", "--T", "4", "--out", str(out)], capsys,
        )
        assert code == 1
        reason = f"{field} must be an integer, got {value!r}"
        assert err == f"error: {meta_path}: bad model record ({reason})\n"
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("case", ["weights=5", "weights=1,-1,...", "empty sources"])
    def test_a_bad_model_names_its_file(self, tmp_path, capsys, case):
        # weights used to be read outside the model record: 5 ended in a
        # TypeError traceback and a negative weight exited 3 naming no file;
        # an empty sources.jsonl exited 3 with "the model needs at least one source"
        generated = tmp_path / "gen"
        code, _, _ = run_cli(["generate", "--seed", "1", "--out", str(generated)] + GEN_ARGS, capsys)
        assert code == 0
        meta_path, sources = generated / "model.json", generated / "sources.jsonl"
        meta = json.loads(meta_path.read_text())
        m = len(dataio.read_jsonl(sources))
        if case == "empty sources":
            sources.write_text("\n", encoding="utf-8")
            want = f"{sources}: source file is empty"
        elif case == "weights=5":
            meta["weights"] = 5
            want = f"{meta_path}: bad model record ('int' object is not iterable)"
        else:
            meta["weights"] = [1, -1] + [1] * (m - 2)
            want = f"{meta_path}: bad model record (weights must be finite and >= 0, got -1)"
        meta_path.write_text(json.dumps(meta))
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            ["classify", "--model", str(generated), "--series", str(generated / "test.jsonl"),
             "--method", "map", "--T", "4", "--out", str(out)], capsys,
        )
        assert code == 1
        assert err == f"error: {want}\n"
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command", ["preprocess", "detect"])
    def test_an_empty_rate_file_is_refused(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        argv = {
            "preprocess": ["preprocess", "--rates", str(empty)],
            "detect": ["detect", "--trends", str(empty), "--non-trends", str(empty)],
        }[command]
        out = tmp_path / "out"
        code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 1
        assert err == f"error: {empty}: no rate records found\n"
        assert stdout == "" and not out.exists()

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "tsvote.cli", "bounds", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["command"] == "bounds"
