from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordiff.cli import main


def run_dir_files(path: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


BASE = ["--corpus", "synth", "--synth-programs", "25", "--seed", "11"]


class TestExitCodes:
    def test_success(self, tmp_path):
        assert main(["annotate", *BASE, "--out", str(tmp_path / "a")]) == 0

    def test_missing_corpus_is_input_error(self, tmp_path):
        code = main(
            ["annotate", "--corpus", "/no/such/place", "--out", str(tmp_path / "b")]
        )
        assert code == 2

    def test_infeasible_probe_is_exit_4(self, tmp_path):
        code = main(
            ["probe", *BASE, "--probe-k", "40", "--n-samples", "5",
             "--out", str(tmp_path / "c")]
        )
        assert code == 4

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["annotate", "--schedule", "bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["corrupt", "--t", "2"],
            ["sample", "--steps", "0"],
            ["sample", "--temperature", "0"],
            ["eval", "--steps", "0"],
            ["probe", "--probe-t", "1.5"],
            ["sample", "--strategy", "bogus"],
            ["annotate", "--config", "BAD_JSON"],
            ["sample", "--config", "BOGUS_PREDICTOR"],
            ["probe", "--n-samples", "1"],
            ["eval", "--split-identifiers", "3"],
            ["sample", "--config", "LIST"],
            ["sample", "--config", "NUMBER"],
            ["sample", "--config", "TEXT_N_SAMPLES"],
            ["sample", "--config", "TEXT_WORKERS"],
            ["sample", "--config", "TEXT_SEED"],
            ["sample", "--config", "TEXT_TEMPERATURE"],
            ["annotate", "--config", "TEXT_GAMMA"],
            ["probe", "--config", "BOGUS_RULE"],
            ["probe", "--probe-k", "-1"],
            ["eval", "--n-samples", "0"],
        ],
        ids=["corrupt-t", "sample-steps", "sample-temperature", "eval-steps",
             "probe-t", "sample-strategy", "malformed-config", "config-predictor",
             "probe-single", "eval-split", "config-list", "config-number",
             "config-n-samples", "config-workers", "config-seed", "config-temperature",
             "config-gamma", "config-probe-rule", "probe-k", "eval-n-samples"],
    )
    def test_rejected_input_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        configs = {
            "BAD_JSON": "{not json",
            "BOGUS_PREDICTOR": '{"predictor": "bogus"}',
            "LIST": "[1, 2]",
            "NUMBER": "42",
            "TEXT_N_SAMPLES": '{"n_samples": "5"}',
            "TEXT_WORKERS": '{"workers": "2"}',
            "TEXT_SEED": '{"seed": "x"}',
            "TEXT_TEMPERATURE": '{"temperature": "hot"}',
            "TEXT_GAMMA": '{"gamma": "x"}',
            "BOGUS_RULE": '{"probe_rule": "bogus"}',
        }
        for name, text in configs.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in configs else a for a in argv]
        out = tmp_path / "run"
        assert main([*argv, *BASE, "--out", str(out)]) == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    def test_value_error_inside_a_run_is_not_an_input_error(self, tmp_path, monkeypatch):
        def broken(texts):
            raise ValueError("broken inside the run")

        monkeypatch.setattr("anchordiff.cli.validity_eval", broken)
        with pytest.raises(ValueError, match="broken inside the run"):
            main(["sample", *BASE, "--steps", "2", "--n-samples", "1",
                  "--out", str(tmp_path / "s")])

    def test_residual_mask_exits_3(self, tmp_path, capsys, monkeypatch):
        from anchordiff.denoisers import MarginalAnchorProfile
        from anchordiff.sampler import AnchoredPair

        from .test_sampler import MaskingPredictor

        def masking_pair(corpus, strategy, kind):
            return AnchoredPair(
                MaskingPredictor(corpus.vocab), MarginalAnchorProfile.zeros(corpus.length)
            )

        monkeypatch.setattr("anchordiff.cli.build_strategy_predictors", masking_pair)
        code = main(["sample", *BASE, "--steps", "2", "--n-samples", "1",
                     "--out", str(tmp_path / "s")])
        assert code == 3
        assert "mask tokens" in capsys.readouterr().err


# Zero, negative, non-numeric and wrong-typed values, plus a few valid ones.
CONFIG_VALUES = st.one_of(
    st.integers(-2, 1),
    st.floats(-1.0, 1.0),
    st.sampled_from(["x", "", "1", "0.5", "1,x"]),
    st.booleans(),
    st.none(),
    st.just([1]),
)
# The count, step, noise and temperature options.
DRAWN_KEYS = ("n_samples", "workers", "probe_k", "length", "steps", "t", "probe_t",
              "remask_rate", "temperature")


class TestArgumentSpace:
    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(["annotate", "corrupt", "sample", "probe", "eval"]),
        st.dictionaries(st.sampled_from(DRAWN_KEYS), CONFIG_VALUES, max_size=3),
    )
    def test_exit_code_contract(self, command, drawn):
        # Small valid values for the options not drawn keep each run short;
        # they live in the config file, because a flag would override it.
        config = {"steps": "2", "n_samples": 2, "probe_k": 2, "probe_t": "0.9", **drawn}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(config))
            out = Path(tmp) / "run"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--config", str(cfg), *BASE, "--out", str(out)])
            assert code in (0, 2, 3, 4)
            if code == 2:
                assert not out.exists()


class TestManifest:
    def test_written_with_anchor_defaults(self, tmp_path):
        out = tmp_path / "m"
        main(["annotate", *BASE, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["anchor"] == {
            "strategy": "anchor_tree", "gamma": 0.03, "beta": 0.7, "d0": 2,
        }
        assert manifest["config"]["seed"] == 11
        assert "created_unix" in manifest

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "keyword", "seed": 5}))
        out = tmp_path / "n"
        main(
            ["annotate", "--config", str(cfg), "--corpus", "synth",
             "--synth-programs", "10", "--strategy", "identifier",
             "--out", str(out)]
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["anchor"]["strategy"] == "identifier"
        assert manifest["anchor"]["gamma"] == 0.01
        assert manifest["config"]["seed"] == 5  # from config file


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["annotate"],
            ["corrupt", "--t", "0.5"],
            ["sample", "--steps", "4", "--n-samples", "3"],
            ["probe", "--probe-k", "3", "--probe-t", "0.9", "--n-samples", "20"],
            ["eval", "--strategy", "null,anchor_tree", "--steps", "2,4",
             "--n-samples", "2"],
        ],
        ids=["annotate", "corrupt", "sample", "probe", "eval"],
    )
    def test_byte_identical_reruns(self, tmp_path, argv):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, *BASE, "--out", str(a)]) == 0
        assert main([*argv, *BASE, "--out", str(b)]) == 0
        files_a, files_b = run_dir_files(a), run_dir_files(b)
        assert files_a.keys() == files_b.keys()
        assert files_a == files_b


class TestOutputs:
    def test_annotate_dataset_loads(self, tmp_path):
        from anchordiff import load_dataset

        out = tmp_path / "d"
        main(["annotate", *BASE, "--out", str(out)])
        records, config = load_dataset(out / "dataset.jsonl")
        assert len(records) == 25
        summary = json.loads((out / "summary.json").read_text())
        assert summary["anchor_density"]["null"] == 0.0
        assert summary["anchor_density"]["anchor_tree"] > 0.3

    def test_corrupt_extremes(self, tmp_path):
        out0 = tmp_path / "t0"
        main(["corrupt", *BASE, "--t", "0", "--out", str(out0)])
        rows = [
            json.loads(ln)
            for ln in (out0 / "corrupted.jsonl").read_text().splitlines()
        ]
        assert all(r["masked"] == 0 for r in rows)
        assert all("?" not in r["text"] for r in rows)
        out1 = tmp_path / "t1"
        main(["corrupt", *BASE, "--t", "1", "--out", str(out1)])
        rows = [
            json.loads(ln)
            for ln in (out1 / "corrupted.jsonl").read_text().splitlines()
        ]
        assert all(r["masked"] == 64 for r in rows)

    def test_sample_outputs_parse(self, tmp_path):
        from anchordiff import is_syntactically_valid

        out = tmp_path / "s"
        main(["sample", *BASE, "--steps", "8", "--n-samples", "3",
              "--out", str(out)])
        texts = [
            (out / "samples" / f"{i:04d}.txt").read_text() for i in range(3)
        ]
        assert all(is_syntactically_valid(t) for t in texts)
        validity = json.loads((out / "validity.json").read_text())
        assert validity["fraction"] == 1.0
        trace = (out / "traces" / "0000.jsonl").read_text().splitlines()
        event = json.loads(trace[0])
        assert set(event) == {"pos", "step", "event", "token", "stage"}

    def test_eval_reserves_pass_at_1(self, tmp_path):
        out = tmp_path / "e"
        main(["eval", *BASE, "--strategy", "null", "--steps", "2",
              "--n-samples", "2", "--out", str(out)])
        header, row = (out / "eval.csv").read_text().splitlines()[:2]
        assert header.endswith(",pass_at_1")
        assert row.endswith(",unavailable")

    def test_probe_csv_columns(self, tmp_path):
        out = tmp_path / "p"
        main(["probe", *BASE, "--probe-k", "2", "--probe-t", "0.9",
              "--n-samples", "10", "--out", str(out)])
        header = (out / "probe.csv").read_text().splitlines()[0]
        assert header == (
            "ordering,t,j,n,mean_prob,stderr_prob,mean_log_prob,stderr_log_prob"
        )
        summary = json.loads((out / "probe_summary.json").read_text())
        assert summary["achievable_k"] >= 3

    def test_probe_rule_flag_recorded_and_runs(self, tmp_path):
        # In this grammar keywords lead their constructs, so the two
        # designation rules build identical chains; the flag must still be
        # honored, recorded, and deterministic.
        a, b = tmp_path / "kw", tmp_path / "ft"
        argv = ["probe", *BASE, "--probe-k", "3", "--probe-t", "0.9",
                "--n-samples", "30"]
        assert main([*argv, "--probe-rule", "keyword_first", "--out", str(a)]) == 0
        assert main([*argv, "--probe-rule", "first_token", "--out", str(b)]) == 0
        man_a = json.loads((a / "manifest.json").read_text())["config"]
        man_b = json.loads((b / "manifest.json").read_text())["config"]
        assert man_a["probe_rule"] == "keyword_first"
        assert man_b["probe_rule"] == "first_token"
        assert (a / "probe.csv").read_text() == (b / "probe.csv").read_text()

    def test_split_identifiers_flag(self, tmp_path):
        from anchordiff import load_dataset

        plain = tmp_path / "plain"
        split = tmp_path / "split"
        main(["annotate", *BASE, "--out", str(plain)])
        main(["annotate", *BASE, "--split-identifiers", "3", "--out", str(split)])
        rec_plain, _ = load_dataset(plain / "dataset.jsonl")
        rec_split, _ = load_dataset(split / "dataset.jsonl")
        assert sum(len(r) for r in rec_split) > sum(len(r) for r in rec_plain)
        # chunk spans still tile the source exactly
        for rec in rec_split[:3]:
            for tok in rec.tokens:
                assert tok.text == rec.source[tok.start : tok.end]

    @pytest.mark.parametrize(
        "argv",
        [
            ["corrupt", "--t", "0.5"],
            ["sample", "--steps", "4", "--n-samples", "2"],
            ["probe", "--probe-k", "3", "--probe-t", "0.9", "--n-samples", "5"],
        ],
        ids=["corrupt", "sample", "probe"],
    )
    def test_split_identifiers_runs(self, tmp_path, argv):
        # The vocabulary must hold the split chunks the records carry.
        out = tmp_path / "run"
        assert main([*argv, *BASE, "--split-identifiers", "3", "--out", str(out)]) == 0

    def test_backoff_sample_matches_library_generate(self, tmp_path):
        from anchordiff import (
            AnchorConfig, AnchorStrategy, annotate_program, build_corpus,
            build_vocab, synth_corpus,
        )
        from anchordiff.cli import SYNTH_SEED
        from anchordiff.experiments import build_strategy_predictors, render_ids
        from anchordiff.sampler import SamplerConfig, default_remask_rate, generate
        from anchordiff.schedule import NoiseSchedule

        out = tmp_path / "b"
        assert main(["sample", *BASE, "--steps", "8", "--n-samples", "3",
                     "--predictor", "backoff", "--out", str(out)]) == 0
        sources = synth_corpus(seed=SYNTH_SEED, n_programs=25, max_depth=6)
        config = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
        records = [annotate_program(s, config, str(i)) for i, s in enumerate(sources)]
        vocab = build_vocab(sources)
        corpus = build_corpus(records, vocab, 64)
        predictors = build_strategy_predictors(corpus, config.strategy, "backoff")
        cfg = SamplerConfig(
            T=8, remask_rate=default_remask_rate(config.strategy), strategy=config
        )
        for j in range(3):
            ids, trace = generate(
                [], 64, predictors, cfg, NoiseSchedule(T=8), np.random.default_rng([11, j])
            )
            assert (out / "samples" / f"{j:04d}.txt").read_text() == render_ids(ids, vocab)
            assert (out / "traces" / f"{j:04d}.jsonl").read_text() == trace.to_jsonl()

    @pytest.mark.parametrize("strategy", ["anchor_tree", "null"])
    def test_worker_pool_matches_sequential(self, tmp_path, strategy):
        seq = tmp_path / "w1"
        par = tmp_path / "w2"
        argv = ["sample", *BASE, "--steps", "4", "--n-samples", "4", "--strategy", strategy]
        assert main([*argv, "--workers", "1", "--out", str(seq)]) == 0
        assert main([*argv, "--workers", "2", "--out", str(par)]) == 0
        assert run_dir_files(seq) == run_dir_files(par)
