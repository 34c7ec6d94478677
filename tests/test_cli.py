from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchordiff import AnchorConfig, AnchorStrategy, annotate_program
from anchordiff.cli import main
from anchordiff.corpus_io import dataset_to_jsonl
from anchordiff.minilang.parser import MAX_NESTING


def run_dir_files(path: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


BASE = ["--corpus", "synth", "--synth-programs", "25", "--seed", "11"]
JSONL_SAMPLE = ["--steps", "4", "--n-samples", "1"]


def inline_pool(sizes: list, tasks: list):
    """A stand-in for ProcessPoolExecutor that records each pool size and
    each task and runs the initializer and the tasks in this process."""

    class InlinePool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            tasks.extend(items)
            return map(fn, items)

    return InlinePool


def dataset_files() -> dict[str, str]:
    """A valid one-record dataset file, copies that each break one line, and
    a well-formed file with no record."""
    config = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
    payload = dataset_to_jsonl([annotate_program("x = 1\n", config, "0")], config)
    header, record = (json.loads(ln) for ln in payload.splitlines())

    def without(d, key):
        return {k: v for k, v in d.items() if k != key}

    lines = {
        "VALID": (header, record),
        "UNPARSEABLE_SOURCE": (header, {**record, "source": "x = (\n"}),
        "NO_TOKENS": (header, without(record, "tokens")),
        "NO_ANCHOR": (without(header, "anchor"), record),
        "LIST_HEADER": ([1, 2], record),
        "WRONG_NODE_ID": (header, {**record, "node_id": [999] * len(record["node_id"])}),
        "WRONG_COUNT": ({**header, "count": 50}, record),
        "INT_ID": (header, {**record, "id": 7}),
        "EMPTY": ({**header, "count": 0},),
    }
    return {name: "".join(json.dumps(v) + "\n" for v in pair) for name, pair in lines.items()}


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

    def test_probe_without_deep_chains_exits_4_and_writes_nothing(self, tmp_path, capsys):
        # No position of the corpus reaches k = 40: the probe draws nothing,
        # and no output is written.
        out = tmp_path / "run"
        argv = ["probe", *BASE, "--probe-k", "40", "--n-samples", "5", "--out", str(out)]
        assert main(argv) == 4
        assert "requested chain length 40" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_names_why_it_gave_up(self, tmp_path, capsys):
        # No position has a chain of 40: the depth message.
        argv = ["probe", *BASE, "--n-samples", "5"]
        assert main([*argv, "--probe-k", "40", "--out", str(tmp_path / "a")]) == 4
        assert "requested chain length 40, only 6" in capsys.readouterr().err
        # Chains of 3 exist, but every one runs past a corpus of length 5.
        assert main([*argv, "--length", "5", "--out", str(tmp_path / "b")]) == 4
        err = capsys.readouterr().err
        assert "skipping 250 draws: 250 ancestor chains ran past the corpus length 5" in err
        assert "requested chain length" not in err
        assert not (tmp_path / "b").exists()
        # At t = 0 only the chain is masked, so no draw has 3 other masked positions.
        assert main([*argv, "--probe-t", "0", "--out", str(tmp_path / "c")]) == 4
        err = capsys.readouterr().err
        assert "gave up at t=0.0 with 0 probes done after skipping 250 draws" in err
        assert "250 draws had fewer than 3 other positions masked" in err
        assert not (tmp_path / "c").exists()

    def test_valid_dataset_corpus_runs(self, tmp_path):
        # The base of the malformed dataset rows below is a working input.
        path = tmp_path / "valid.jsonl"
        path.write_text(dataset_files()["VALID"])
        argv = ["sample", "--corpus", str(path), *JSONL_SAMPLE, "--out", str(tmp_path / "r")]
        assert main(argv) == 0

    def test_d0_past_int64_runs_with_no_decay(self, tmp_path):
        # A d0 of 10**20 lies past every depth, so eta is gamma everywhere:
        # by flag, by config file, and from a dataset header that holds it.
        big = 10**20
        argv = ["annotate", *BASE]
        assert main([*argv, "--d0", str(big), "--out", str(tmp_path / "flag")]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"d0": big}))
        assert main([*argv, "--config", str(config), "--out", str(tmp_path / "file")]) == 0
        dataset = tmp_path / "flag" / "dataset.jsonl"
        header, *records = (json.loads(ln) for ln in dataset.read_text().splitlines())
        assert header["anchor"]["d0"] == big
        assert {e for rec in records for e in rec["eta"]} == {header["anchor"]["gamma"]}
        argv = ["sample", "--corpus", str(dataset), *JSONL_SAMPLE, "--out", str(tmp_path / "s")]
        assert main(argv) == 0

    def test_out_of_memory_is_an_input_error_at_load_and_a_runtime_error_after(
        self, tmp_path, monkeypatch, capsys
    ):
        # Nothing is allocated: the loader, then the subcommand, raises.
        from anchordiff import cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        def bare(*args, **kwargs):
            raise MemoryError

        argv = ["sample", *BASE, *JSONL_SAMPLE]
        monkeypatch.setattr(cli, "build_corpus", exhausted)
        assert main([*argv, "--out", str(tmp_path / "load")]) == 2
        assert "input error: Unable to allocate 74.5 GiB" in capsys.readouterr().err
        monkeypatch.undo()
        for command, message in [(exhausted, "Unable to allocate 74.5 GiB"), (bare, "MemoryError")]:
            monkeypatch.setitem(cli.COMMANDS, "sample", command)
            assert main([*argv, "--out", str(tmp_path / "run")]) == 3
            assert f"runtime error: {message}\n" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
            ["sample", "--temperature", "nan"],
            ["sample", "--temperature", "inf"],
            ["sample", "--gamma", "nan"],
            ["sample", "--beta", "inf"],
            ["eval", "--gamma", "nan"],
            ["annotate", "--config", "NAN_REMASK_RATE"],
            ["sample", "--config", "NAN_GAMMA"],
            ["sample", "--config", "INFINITE_BETA"],
            ["sample", "--config", "OVERFLOWING_GAMMA"],
            ["sample", "--config", "HUGE_INT_TEMPERATURE"],
            ["sample", "--corpus", "UNPARSEABLE_SOURCE", *JSONL_SAMPLE],
            ["sample", "--corpus", "NO_TOKENS", *JSONL_SAMPLE],
            ["sample", "--corpus", "NO_ANCHOR", *JSONL_SAMPLE],
            ["sample", "--corpus", "LIST_HEADER", *JSONL_SAMPLE],
            ["sample", "--corpus", "WRONG_NODE_ID", *JSONL_SAMPLE],
            ["sample", "--corpus", "WRONG_COUNT", *JSONL_SAMPLE],
            ["sample", "--corpus", "INT_ID", *JSONL_SAMPLE],
            ["sample", "--corpus", "VALID", "--split-identifiers", "3", *JSONL_SAMPLE],
            ["annotate", "--corpus", "EMPTY"],
            ["annotate", "--synth-programs", "0"],
            ["sample", "--workers", "0"],
            ["annotate", "--workers", "2"],
            ["corrupt", "--workers", "2"],
            ["probe", "--workers", "2"],
            ["eval", "--workers", "2"],
            ["eval", "--strategy", "null,null"],
            ["eval", "--strategy", "null,anchor_tree, null"],
            ["eval", "--steps", "2,2"],
            ["probe", "--probe-t", "0.9,0.9"],
            ["sample", "--config", "UNKNOWN_KEYS"],
            ["sample", "--config", "OUT_KEY"],
            ["sample", "--config", "CONFIG_KEY"],
            ["sample", "--config", "TEXT_PROBE_K"],
            ["annotate", "--strategy", "anchor_tree,bogus"],
            ["corrupt", "--strategy", "null,keyword"],
            ["sample", "--strategy", "null,anchor_tree"],
            ["probe", "--strategy", "anchor_tree,null"],
            ["sample", "--config", "STRATEGY_LIST"],
            ["probe", "--config", "STRATEGY_LIST"],
        ],
        ids=["corrupt-t", "sample-steps", "sample-temperature", "eval-steps",
             "probe-t", "sample-strategy", "malformed-config", "config-predictor",
             "probe-single", "config-list", "config-number",
             "config-n-samples", "config-workers", "config-seed", "config-temperature",
             "config-gamma", "config-probe-rule", "probe-k", "eval-n-samples",
             "sample-temperature-nan", "sample-temperature-inf", "sample-gamma-nan",
             "sample-beta-inf", "eval-gamma-nan", "annotate-unused-nan",
             "config-nan-literal", "config-infinity-literal", "config-overflowing-float",
             "config-huge-int-float", "jsonl-unparseable-source", "jsonl-no-tokens",
             "jsonl-no-anchor", "jsonl-list-header", "jsonl-wrong-node-id",
             "jsonl-wrong-count", "jsonl-int-id", "jsonl-split", "jsonl-empty",
             "synth-empty", "sample-workers-0", "annotate-workers-2", "corrupt-workers-2",
             "probe-workers-2", "eval-workers-2", "eval-strategy-repeat",
             "eval-strategy-repeat-spaced", "eval-steps-repeat", "probe-t-repeat",
             "config-unknown-keys", "config-out-key", "config-config-key",
             "config-other-command-key", "annotate-strategy-list", "corrupt-strategy-list",
             "sample-strategy-list", "probe-strategy-list", "sample-config-strategy-list",
             "probe-config-strategy-list"],
    )
    def test_rejected_input_exits_2_and_writes_nothing(self, tmp_path, capsys, request, argv):
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
            "NAN_GAMMA": '{"gamma": NaN}',
            # annotate takes no --remask-rate; a config file may still set it.
            "NAN_REMASK_RATE": '{"remask_rate": NaN}',
            "INFINITE_BETA": '{"beta": Infinity}',
            "OVERFLOWING_GAMMA": '{"gamma": 1e400}',
            "HUGE_INT_TEMPERATURE": '{"temperature": 1' + "0" * 400 + "}",
            "UNKNOWN_KEYS": '{"n_sample": 2, "stepz": 4}',
            "OUT_KEY": '{"out": "elsewhere"}',
            "CONFIG_KEY": '{"config": "other.json"}',
            # sample takes no --probe-k, but the value is checked as probe's flag checks it.
            "TEXT_PROBE_K": '{"probe_k": "x"}',
            # Only eval sweeps a comma list of strategies.
            "STRATEGY_LIST": '{"strategy": "null,anchor_tree"}',
        }
        paths = {name: tmp_path / name for name in configs}
        for name, text in configs.items():
            paths[name].write_text(text)
        for name, text in dataset_files().items():
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(text)
        command, *rest = [str(paths[a]) if a in paths else a for a in argv]
        out = tmp_path / "run"
        # BASE first, so that a row's own --corpus overrides BASE's.
        assert main([command, *BASE, *rest, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err
        if "strategy-list" in request.node.callspec.id:
            assert "--strategy takes a comma list on eval only" in err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_synth_programs_below_one_is_named(self, tmp_path, capsys, n):
        # The count is at fault, not the corpus it would make.
        out = tmp_path / "run"
        assert main(["annotate", "--synth-programs", n, "--out", str(out)]) == 2
        assert f"--synth-programs must be >= 1, got {n}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["sample"], ["sample", "--predictor", "backoff"], ["sample", "--strategy", "keyword"],
         ["eval", "--strategy", "null,anchor_tree"]],
        ids=["sample", "sample-backoff", "sample-keyword", "eval"],
    )
    def test_gamma_that_overflows_the_profile_is_named(self, tmp_path, capsys, argv):
        # 20 programs x 1e308 passes the float range: the anchor profile
        # would hold inf, so the gamma is rejected before anything runs.
        out = tmp_path / "run"
        code = main([*argv, "--gamma=1e308", "--synth-programs", "20", "--n-samples", "2",
                     "--steps", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "input error: --gamma 1e+308 is too large for 20 programs" in err
        assert not out.exists()

    def test_gamma_only_an_anchored_profile_sums_is_checked(self, tmp_path):
        # Null has no anchors, and a gamma within the bound samples as usual.
        for argv in (["--strategy", "null", "--gamma=1e308"], ["--gamma=1e306"]):
            out = tmp_path / argv[-1]
            assert main(["sample", *argv, "--synth-programs", "20", "--n-samples", "2",
                         "--steps", "2", "--out", str(out)]) == 0

    @pytest.mark.parametrize("command", ["annotate", "sample"])
    def test_corpus_without_tokens_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        # The one program is empty: it parses, but leaves nothing to count.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.mini").write_text("")
        out = tmp_path / "run"
        assert main([command, "--corpus", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "no tokens in corpus" in err
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
        assert not (tmp_path / "s").exists()

    def test_used_out_exits_2_and_is_left_as_it_was(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "same"
        assert main(["sample", *BASE, "--steps", "2", "--n-samples", "3", "--out", str(out)]) == 0
        first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        def unreached(*args):
            raise AssertionError("the corpus loaded")

        # The check comes before the corpus loads.
        monkeypatch.setattr("anchordiff.cli.load_records", unreached)
        used = tmp_path / "file.txt"
        used.write_text("kept")
        for argv, target in [
            (["sample", "--steps", "2", "--n-samples", "1", "--predictor", "backoff"], out),
            (["annotate"], out),
            (["annotate"], used),
        ]:
            assert main([argv[0], *BASE, *argv[1:], "--out", str(target)]) == 2
            assert "not an empty directory" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == first
        assert used.read_text() == "kept"
        monkeypatch.undo()
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["annotate", *BASE, "--out", str(empty)]) == 0
        assert (empty / "manifest.json").is_file()

    def test_runs_in_one_second_get_their_own_directories(self, tmp_path, capsys, monkeypatch):
        from anchordiff import cli

        monkeypatch.setenv("ANCHORDIFF_OUT", str(tmp_path / "runs"))
        monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20261019T120000")
        first = tmp_path / "runs" / "20261019T120000-annotate"
        assert main(["annotate", "--synth-programs", "5"]) == 0
        assert capsys.readouterr().out.endswith(f"-> {first}\n")
        kept = {p: p.read_bytes() for p in first.rglob("*")}
        for n in (2, 3):
            assert main(["annotate", "--synth-programs", str(n + 1)]) == 0
            assert capsys.readouterr().out.endswith(f"-> {first}-{n}\n")
        assert {p: p.read_bytes() for p in first.rglob("*")} == kept
        assert sorted(p.name for p in first.parent.iterdir()) == [
            first.name, f"{first.name}-2", f"{first.name}-3",
        ]
        lines = [(first.parent / d / "dataset.jsonl").read_text().count("\n")
                 for d in sorted(p.name for p in first.parent.iterdir())]
        assert lines == [6, 4, 5]  # a header line and one line per record

    def test_output_root_that_is_no_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        # A file, and a dangling symlink: a make-parents mkdir of each
        # suffixed name would find the symlink "taken" every time, forever.
        (tmp_path / "file").write_text("kept")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        for root in ("file", "dangling"):
            monkeypatch.setenv("ANCHORDIFF_OUT", str(tmp_path / root))
            assert main(["annotate", "--synth-programs", "3"]) == 2
            assert "input error" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "kept"
        assert not (tmp_path / "nowhere").exists()

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": "2", "stepz": 4}))
        assert main(["sample", *BASE, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "config key 'stepz'" in capsys.readouterr().err


# Zero, negative, non-numeric and wrong-typed values, plus a few valid ones.
CONFIG_VALUES = st.one_of(
    st.integers(-2, 1),
    st.floats(-1.0, 1.0),
    st.sampled_from(["x", "", "1", "0.5", "1,x"]),
    st.booleans(),
    st.none(),
    st.just([1]),
)
# The count, step, noise, temperature and anchor-weight options.
DRAWN_KEYS = ("n_samples", "workers", "probe_k", "length", "steps", "t", "probe_t",
              "remask_rate", "temperature", "gamma", "beta")
# Non-finite and huge floats. JSON has no literal for NaN or infinity, so
# they are passed as flags, each to the subcommands that have the flag.
EXTREME_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1e308])
FLAG_COMMANDS = {
    "temperature": ("sample", "eval"),
    "gamma": None,
    "beta": None,
    "remask-rate": ("sample", "eval"),
    "t": ("corrupt",),
    "probe-t": ("probe",),
}


class TestArgumentSpace:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["annotate", "corrupt", "sample", "probe", "eval"]),
        st.dictionaries(st.sampled_from(DRAWN_KEYS), CONFIG_VALUES, max_size=3),
        st.dictionaries(st.sampled_from(sorted(FLAG_COMMANDS)), EXTREME_FLOATS, max_size=2),
    )
    def test_exit_code_contract(self, command, drawn, extreme):
        # Small valid values for the options not drawn keep each run short;
        # they live in the config file, because a flag would override it.
        config = {"steps": "2", "n_samples": 2, "probe_k": 2, "probe_t": "0.9", **drawn}
        flags = [
            f"--{flag}={value!r}"
            for flag, value in extreme.items()
            if FLAG_COMMANDS[flag] is None or command in FLAG_COMMANDS[flag]
        ]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(config))
            out = Path(tmp) / "run"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(
                    [command, "--config", str(cfg), *flags, *BASE, "--out", str(out)]
                )
            assert code in (0, 2, 3, 4)
            if code == 0:
                manifest = (out / "manifest.json").read_text()
                json.loads(manifest, parse_constant=pytest.fail)
            else:
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

    def test_one_config_serves_a_pipeline(self, tmp_path):
        # Each subcommand accepts the keys of the others, checked by their flags.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "steps": "2", "n_samples": 2, "t": 0.3, "probe_k": 2, "probe_t": "0.9",
            "probe_rule": "first_token", "predictor": "backoff",
        }))
        for command in ("annotate", "corrupt", "sample", "probe", "eval"):
            out = tmp_path / command
            assert main([command, *BASE, "--config", str(cfg), "--out", str(out)]) == 0
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert (config["t"], config["probe_k"], config["predictor"]) == (0.3, 2, "backoff")


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

    def test_split_identifier_samples_parse(self, tmp_path):
        # With the exact predictor every sample is a corpus row, so each one
        # renders back to a program once its chunks are joined.
        out = tmp_path / "s"
        main(["sample", *BASE, "--split-identifiers", "3", "--predictor", "exact",
              "--steps", "8", "--n-samples", "4", "--out", str(out)])
        assert json.loads((out / "validity.json").read_text())["fraction"] == 1.0

    def test_eval_pivots_hold_the_cells_of_eval_csv(self, tmp_path):
        # No backoff sample is a corpus row, so the depth correlation is NaN:
        # an empty cell in both files.
        out = tmp_path / "e"
        assert main(["eval", *BASE, "--strategy", "null,anchor_tree", "--steps", "2,4",
                     "--n-samples", "2", "--predictor", "backoff", "--out", str(out)]) == 0
        header, *rows = [ln.split(",") for ln in (out / "eval.csv").read_text().splitlines()]
        for metric in ("syntax_fraction", "mean_unmask_depth_corr", "nelbo"):
            column = header.index(metric)
            pivot = (out / f"metric_{metric}.csv").read_text().splitlines()
            assert pivot[0] == "strategy,T2,T4"
            assert pivot[1:] == [
                ",".join([name] + [r[column] for r in rows if r[0] == name])
                for name in ("null", "anchor_tree")
            ]
        assert {r[header.index("mean_unmask_depth_corr")] for r in rows} == {""}

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
            ["eval", "--strategy", "null,anchor_tree", "--steps", "2", "--n-samples", "2"],
        ],
        ids=["corrupt", "sample", "probe", "eval"],
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

    @pytest.mark.parametrize(
        "workers,n_samples,cpus,pool_size",
        [(5000, 3, 4, 3), (3, 4, 2, 2), (2, 1, 8, None), (4, 4, None, None)],
    )
    def test_worker_pool_is_capped(
        self, tmp_path, monkeypatch, workers, n_samples, cpus, pool_size
    ):
        # The pool is replaced by a recorder that runs the tasks inline, so
        # no process is started whatever --workers says.
        from anchordiff import cli

        sizes = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", inline_pool(sizes, []))
        monkeypatch.setattr(cli, "_worker_predictors", None)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = ["sample", *BASE, "--steps", "4", "--n-samples", str(n_samples)]
        seq, par = tmp_path / "w1", tmp_path / "wn"
        assert main([*argv, "--workers", "1", "--out", str(seq)]) == 0
        assert main([*argv, "--workers", str(workers), "--out", str(par)]) == 0
        assert sizes == ([] if pool_size is None else [pool_size])
        assert run_dir_files(seq) == run_dir_files(par)

    @pytest.mark.parametrize("predictor", ["exact", "backoff"])
    def test_pool_tasks_leave_the_pair_out(self, tmp_path, monkeypatch, predictor):
        # The pair reaches each worker once, through the initializer; a task
        # pickles to its own small arguments only.
        from anchordiff import cli
        from anchordiff.sampler import AnchoredPair

        tasks = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", inline_pool([], tasks))
        monkeypatch.setattr(cli, "_worker_predictors", None)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["sample", *BASE, "--steps", "4", "--n-samples", "3",
                "--predictor", predictor, "--workers", "2", "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        assert len(tasks) == 3
        for task in tasks:
            assert not any(isinstance(part, AnchoredPair) for part in task)
            assert len(pickle.dumps(task)) < 1024
        assert isinstance(cli._worker_predictors, AnchoredPair)

    @pytest.mark.parametrize("strategy", ["anchor_tree", "null"])
    def test_worker_pool_matches_sequential(self, tmp_path, strategy):
        seq = tmp_path / "w1"
        par = tmp_path / "w2"
        argv = ["sample", *BASE, "--steps", "4", "--n-samples", "4", "--strategy", strategy]
        assert main([*argv, "--workers", "1", "--out", str(seq)]) == 0
        assert main([*argv, "--workers", "2", "--out", str(par)]) == 0
        assert run_dir_files(seq) == run_dir_files(par)


# Every subcommand that reads a corpus, on small settings.
CORPUS_COMMANDS = [
    ["annotate"],
    ["corrupt", "--t", "0.5"],
    ["sample", "--steps", "4", "--n-samples", "2"],
    ["probe", "--probe-k", "3", "--probe-t", "0.9", "--n-samples", "5"],
    ["eval", "--strategy", "null,anchor_tree", "--steps", "2", "--n-samples", "2"],
]
CORPUS_COMMAND_IDS = [argv[0] for argv in CORPUS_COMMANDS]


class TestOneFrontEnd:
    """Every corpus kind reaches the subcommands as the same annotated records."""

    @pytest.mark.parametrize("split", [None, "3"], ids=["unsplit", "split3"])
    @pytest.mark.parametrize("argv", CORPUS_COMMANDS, ids=CORPUS_COMMAND_IDS)
    def test_dataset_corpus_matches_synth(self, tmp_path, argv, split):
        # The dataset keeps its split: the run on it takes no split flag.
        flags = [] if split is None else ["--split-identifiers", split]
        assert main(["annotate", *BASE, *flags, "--out", str(tmp_path / "a")]) == 0
        dataset = str(tmp_path / "a" / "dataset.jsonl")
        synth, jsonl = tmp_path / "synth", tmp_path / "jsonl"
        assert main([*argv, *BASE, *flags, "--out", str(synth)]) == 0
        assert main([*argv, *BASE, "--corpus", dataset, "--out", str(jsonl)]) == 0
        assert run_dir_files(synth) == run_dir_files(jsonl)

    @pytest.mark.parametrize("kind", ["jsonl", "directory"])
    @pytest.mark.parametrize("argv", CORPUS_COMMANDS, ids=CORPUS_COMMAND_IDS)
    def test_each_program_is_parsed_once(self, tmp_path, monkeypatch, argv, kind):
        from anchordiff import corpus_io, synth_corpus

        sources = synth_corpus(seed=3, n_programs=12, max_depth=6)
        if kind == "jsonl":
            path = tmp_path / "data.jsonl"
            config = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
            records = [annotate_program(s, config, str(i)) for i, s in enumerate(sources)]
            path.write_text(dataset_to_jsonl(records, config))
        else:
            path = tmp_path / "programs"
            path.mkdir()
            for i, src in enumerate(sources):
                (path / f"p{i:02d}.mini").write_text(src)
        calls = []
        real = corpus_io.parse
        monkeypatch.setattr(corpus_io, "parse", lambda *a: calls.append(a) or real(*a))
        assert main([*argv, *BASE, "--corpus", str(path), "--out", str(tmp_path / "r")]) == 0
        assert len(calls) == len(sources)

    @pytest.mark.parametrize("kind", ["synth", "jsonl", "directory"])
    def test_load_records_parses_each_distinct_program_once(self, tmp_path, monkeypatch, kind):
        # The annotation is the front end's only parse on every corpus path:
        # the synth generator makes text, and each distinct program is
        # parsed where it is annotated.
        from anchordiff import cli, synth_corpus
        from anchordiff.minilang.parser import _Parser

        calls = []
        real = _Parser.parse_module
        monkeypatch.setattr(_Parser, "parse_module", lambda self: calls.append(self) or real(self))
        sources = synth_corpus(seed=cli.SYNTH_SEED, n_programs=60, max_depth=6)
        assert calls == []
        config = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
        corpus = tmp_path / "corpus"
        if kind == "synth":
            corpus = "synth"
        elif kind == "jsonl":
            corpus = tmp_path / "data.jsonl"
            records = [annotate_program(s, config, str(i)) for i, s in enumerate(sources)]
            corpus.write_text(dataset_to_jsonl(records, config))
            calls.clear()
        else:
            corpus.mkdir()
            for i, src in enumerate(sources):
                (corpus / f"p{i:02d}.mini").write_text(src)
        resolved = {**cli.DEFAULTS, "corpus": str(corpus), "synth_programs": len(sources)}
        records = cli.load_records(resolved, config)
        assert [rec.source for rec in records] == sources
        assert len(calls) == len(set(sources)) < len(sources)

    @pytest.mark.parametrize("argv", CORPUS_COMMANDS, ids=CORPUS_COMMAND_IDS)
    def test_subcommand_returns_its_files_and_writes_nothing(self, tmp_path, monkeypatch, argv):
        from anchordiff import cli

        out = tmp_path / "run"
        assert main([*argv, *BASE, "--out", str(out)]) == 0
        parser = cli.build_parser()
        resolved = cli.resolve_config(parser.parse_args([*argv, *BASE]))
        inputs = cli.load_inputs(resolved)
        work = tmp_path / "cwd"
        work.mkdir()
        monkeypatch.chdir(work)
        files, message = cli.COMMANDS[argv[0]](resolved, inputs)
        assert list(work.iterdir()) == []
        assert {k: v.encode() for k, v in files.items()} == run_dir_files(out)
        assert "->" not in message and "\n" not in message

    def test_annotate_directory_keeps_file_names(self, tmp_path):
        from anchordiff import load_dataset, synth_corpus

        programs = tmp_path / "programs"
        programs.mkdir()
        for i, src in enumerate(synth_corpus(seed=3, n_programs=3, max_depth=6)):
            (programs / f"p{i}.mini").write_text(src)
        (programs / "broken.mini").write_text("def f(:")
        out = tmp_path / "a"
        assert main(["annotate", "--corpus", str(programs), "--out", str(out)]) == 0
        records, _ = load_dataset(out / "dataset.jsonl")
        assert [r.record_id for r in records] == ["p0.mini", "p1.mini", "p2.mini"]

    def test_skipped_directory_files_are_reported_on_stderr(self, tmp_path, capsys):
        from anchordiff import synth_corpus

        good, mixed = tmp_path / "good", tmp_path / "mixed"
        for directory in (good, mixed):
            directory.mkdir()
            for i, src in enumerate(synth_corpus(seed=3, n_programs=2, max_depth=6)):
                (directory / f"p{i}.mini").write_text(src)
        (mixed / "broken.mini").write_text("def f(:")
        assert main(["annotate", "--corpus", str(good), "--out", str(tmp_path / "g")]) == 0
        assert capsys.readouterr().err == ""
        assert main(["annotate", "--corpus", str(mixed), "--out", str(tmp_path / "m")]) == 0
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"skipped {mixed / 'broken.mini'}: offset 6: expected")
        # The report goes to stderr only: the run's files are those of the good pair.
        assert run_dir_files(tmp_path / "m") == run_dir_files(tmp_path / "g")


class TestAnnotateSummary:
    """annotate's summary.json, byte for byte, and its depth histogram."""

    @pytest.mark.parametrize(
        "split, digest",
        [
            (None, "3858631733768b95f37aa9fef2e2c3c1f94fb5d013310143a849f44042ae8c36"),
            (3, "01f2a1b6331257ecc88236beafc35c4ca895f397a0ae9d38f456bdc95e3dee98"),
        ],
    )
    def test_summary_is_pinned(self, tmp_path, split, digest):
        argv = ["annotate", "--corpus", "synth", "--synth-programs", "200", "--out", str(tmp_path)]
        if split is not None:
            argv += ["--split-identifiers", str(split)]
        assert main(argv) == 0
        assert hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest() == digest

    def test_histogram_lists_only_depths_that_hold_tokens(self, tmp_path):
        # Without a final newline no token falls to the root, so depth 0 is absent.
        programs = tmp_path / "programs"
        programs.mkdir()
        (programs / "p.mini").write_text("x = 1")
        assert main(["annotate", "--corpus", str(programs), "--out", str(tmp_path / "a")]) == 0
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["depth_histogram"] == {"1": 1, "2": 2}


class TestDeepInput:
    """Input nested past the parser's limit or past the JSON decoder's
    recursion limit is a skipped file or an input error, never a
    RecursionError."""

    DEEP = "x = " + "(" * 1000 + "1" + ")" * 1000 + "\n"
    NESTING = f"offset {4 + MAX_NESTING}: nesting deeper than {MAX_NESTING} levels"

    def test_directory_file_is_skipped_and_named(self, tmp_path, capsys):
        programs = tmp_path / "programs"
        programs.mkdir()
        (programs / "deep.mini").write_text(self.DEEP)
        (programs / "ok.mini").write_text("x = (1)\n")
        assert main(["annotate", "--corpus", str(programs), "--out", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"skipped {programs / 'deep.mini'}: {self.NESTING}"
        ]

    def test_dataset_source_exits_2_naming_the_line(self, tmp_path, capsys):
        config = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
        records = [annotate_program(src, config, str(i)) for i, src in enumerate(["x = 1\n"] * 2)]
        header, first, second = (json.loads(ln) for ln in dataset_to_jsonl(records, config).splitlines())
        path = tmp_path / "deep.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in (header, first, {**second, "source": self.DEEP})))
        out = tmp_path / "a"
        assert main(["annotate", "--corpus", str(path), "--out", str(out)]) == 2
        assert f"line 3: malformed dataset line (ParseError: {self.NESTING})" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--corpus", "--config"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, flag):
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        out = tmp_path / "a"
        assert main(["annotate", flag, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "recursion" in err
        assert not out.exists()


# Every flag of the command line, with a valid value as typed and the value
# it parses to, and the subcommands that take it; None means all five.
FLAGS = {
    "--config": ("config", "cfg.json", "cfg.json", None),
    "--out": ("out", "runs/x", "runs/x", None),
    "--corpus": ("corpus", "progs", "progs", None),
    "--strategy": ("strategy", "null,keyword", "null,keyword", None),
    "--gamma": ("gamma", "0.5", 0.5, None),
    "--beta": ("beta", "0.25", 0.25, None),
    "--d0": ("d0", "3", 3, None),
    "--schedule": ("schedule", "linear", "linear", ("corrupt", "sample", "eval")),
    "--steps": ("steps", "8,16", "8,16", ("corrupt", "sample", "eval")),
    "--temperature": ("temperature", "1.5", 1.5, ("sample", "eval")),
    "--remask-rate": ("remask_rate", "0.2", 0.2, ("sample", "eval")),
    "--seed": ("seed", "7", 7, None),
    "--workers": ("workers", "2", 2, None),
    "--n-samples": ("n_samples", "5", 5, ("sample", "probe", "eval")),
    "--length": ("length", "32", 32, None),
    "--synth-programs": ("synth_programs", "12", 12, None),
    "--synth-depth": ("synth_depth", "4", 4, None),
    "--split-identifiers": ("split_max_len", "3", 3, None),
    "--t": ("t", "0.25", 0.25, ("corrupt",)),
    "--predictor": ("predictor", "backoff", "backoff", ("sample", "eval")),
    "--probe-k": ("probe_k", "4", 4, ("probe",)),
    "--probe-t": ("probe_t", "0.5,0.9", "0.5,0.9", ("probe",)),
    "--probe-rule": ("probe_rule", "first_token", "first_token", ("probe",)),
}
# Flags whose value argparse checks: a word is not a number, and a choice
# must be listed.
REJECTED_VALUES = {
    "--gamma": "x", "--beta": "x", "--d0": "1.5", "--schedule": "bogus",
    "--temperature": "x", "--remask-rate": "x", "--seed": "x", "--workers": "x",
    "--n-samples": "x", "--length": "x", "--synth-programs": "x", "--synth-depth": "x",
    "--split-identifiers": "x", "--t": "x", "--predictor": "bogus", "--probe-k": "x",
    "--probe-rule": "bogus",
}
# The resolved configuration of a bare subcommand, before its command and --out.
BARE_CONFIG = {
    "corpus": "synth",
    "strategy": "anchor_tree",
    "gamma": None,
    "beta": None,
    "d0": 2,
    "schedule": "cosine",
    "steps": "16",
    "temperature": 0.8,
    "remask_rate": None,
    "seed": 0,
    "workers": 1,
    "n_samples": 16,
    "t": 0.5,
    "probe_k": 3,
    "probe_t": "0.85,0.95",
    "predictor": "exact",
    "length": 64,
    "synth_programs": 200,
    "synth_depth": 6,
    "split_max_len": None,
    "probe_rule": "keyword_first",
}
COMMAND_NAMES = ("annotate", "corrupt", "sample", "probe", "eval")


def help_flags(command: str, capsys) -> set[str]:
    """The flags that ``<command> --help`` lists."""
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))


def takes(command: str) -> list[str]:
    return [f for f, (*_, commands) in FLAGS.items() if commands is None or command in commands]


class TestOptionSurface:
    """The command line as a user meets it: which flags each subcommand
    takes, what they parse to, and the defaults a bare run resolves."""

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_each_flag_parses_its_value(self, command):
        from anchordiff.cli import build_parser

        for flag in takes(command):
            dest, text, value, _ = FLAGS[flag]
            args = build_parser().parse_args([command, flag, text])
            assert (args.command, getattr(args, dest)) == (command, value), flag

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_a_flag_checks_its_value(self, command, capsys):
        from anchordiff.cli import build_parser

        for flag in set(takes(command)) & set(REJECTED_VALUES):
            with pytest.raises(SystemExit) as err:
                build_parser().parse_args([command, flag, REJECTED_VALUES[flag]])
            assert err.value.code == 2, flag
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_other_subcommands_flags_exit_2(self, command, capsys):
        from anchordiff.cli import build_parser

        others = [f for f in FLAGS if f not in takes(command)]
        assert others
        for flag in others:
            with pytest.raises(SystemExit) as err:
                main([command, flag, FLAGS[flag][1]])
            assert err.value.code == 2, flag
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["annotate", "--temperature", "5", "--steps", "3", "--n-samples", "9",
             "--schedule", "linear"],
            ["probe", "--schedule", "linear"],
            ["corrupt", "--n-samples", "9"],
        ],
        ids=["annotate-sampling-flags", "probe-schedule", "corrupt-n-samples"],
    )
    def test_a_flag_the_subcommand_does_not_use_exits_2_and_writes_nothing(
        self, tmp_path, capsys, argv
    ):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(out)])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_a_prefix_of_a_flag_exits_2(self, command, capsys):
        # No flag is read as an abbreviation: "--n" is not --n-samples.
        for flag in takes(command):
            prefix = flag[:-1]
            if len(prefix) > 2 and prefix not in FLAGS:  # "--" alone ends the options
                with pytest.raises(SystemExit) as err:
                    main([command, prefix, FLAGS[flag][1]])
                assert err.value.code == 2, prefix
                assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err

    def test_every_option_has_help(self):
        from anchordiff.cli import OPTIONS

        assert [name for name, option in OPTIONS.items() if not option.help] == []

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_help_lists_exactly_the_flags_it_takes(self, command, capsys):
        assert help_flags(command, capsys) == {"--help", *takes(command)}

    def test_readme_names_every_flag(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
        named = set(re.findall(r"`(--[a-z][a-z0-9-]*)", section))
        flags = set().union(*(help_flags(c, capsys) for c in COMMAND_NAMES)) - {"--help"}
        assert flags - named == set()

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_bare_subcommand_resolves_the_defaults(self, command, monkeypatch):
        seen = []

        def stop(resolved):
            seen.append(resolved)
            raise ValueError("stop before the corpus loads")

        monkeypatch.setattr("anchordiff.cli.load_inputs", stop)
        assert main([command]) == 2
        assert seen == [{**BARE_CONFIG, "command": command, "out": None}]
        assert list(seen[0]) == [*BARE_CONFIG, "command", "out"]
