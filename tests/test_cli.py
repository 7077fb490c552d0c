"""CLI plumbing: subcommand wiring, prerequisites, exit codes, idempotence."""
import argparse
import dataclasses
import json
import logging
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quarts import pipeline as P
from quarts import tensor as T
from quarts import train as TR
from quarts.checkpoint import load_arrays, save_arrays
from quarts.catalog import CatalogSpec
from quarts.cli import build_parser, main
from quarts.config import RunConfig, desk_profile, file_sha256, load_config
from quarts import ved as V
from quarts.data import read_pairs, write_pairs
from quarts.ved import build_triples


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus plus a run directory with phases 1-3 completed."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--out", str(data), "--items", "150",
                 "--labeled-pairs", "1200", "--logs-pairs", "400",
                 "--seed", "3"]) == 0
    cfg = ["--config", str(root / "tiny.cfg")]
    (root / "tiny.cfg").write_text(
        "hidden_size = 24\nembed_dim = 24\nbatch_size = 32\nlr = 0.001\n"
        "clf_epochs = 1\nved_epochs = 1\ne2e_epochs = 1\nseed = 3\n")
    base = ["--data-dir", str(data), "--run-dir", str(run)] + cfg
    assert main(["pretrain-classifier"] + base) == 0
    assert main(["build-triples"] + base) == 0
    assert main(["pretrain-ved"] + base) == 0
    return root, data, run, base


class TestGenData:
    def test_writes_all_files(self, workspace):
        _, data, _, _ = workspace
        for name in ["labeled.tsv", "logs.tsv", "catalog.json", "train.tsv",
                     "val.tsv", "test.tsv", "data_manifest.json"]:
            assert (data / name).exists(), name

    def test_manifest_counts(self, workspace):
        _, data, _, _ = workspace
        man = json.loads((data / "data_manifest.json").read_text())
        assert man["counts"]["labeled"] == 1200
        assert man["seed"] == 3

    def test_manifest_records_split(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--items", "50",
                     "--labeled-pairs", "200", "--logs-pairs", "20",
                     "--split", "0.14,0.06,0.80"]) == 0
        man = json.loads((tmp_path / "d" / "data_manifest.json").read_text())
        assert man["split"] == [0.14, 0.06, 0.80]

    def test_split_must_be_numbers(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "d"), "--split", "a,b,c"])
        assert code == 2
        assert "'a,b,c'" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--hard-fraction", "1.5"], "hard_fraction"),
        (["--items", "0"], "items"),
        (["--split", "0.5,0.5,0.5"], "sum to 1"),
        (["--split", "1.2,-0.1,-0.1"], "must be >= 0"),
        (["--split", "0,0.5,0.5"], "train ratio > 0"),
        (["--seed", "-1"], "seed must be >= 0"),
    ], ids=["hard_fraction", "items", "split_sum", "split_negative", "split_no_train",
            "negative_seed"])
    def test_bad_spec_writes_nothing(self, tmp_path, capsys, flags, message):
        code = main(["gen-data", "--out", str(tmp_path / "d"), "--items", "50",
                     "--labeled-pairs", "200", "--logs-pairs", "20",
                     "--positive-rate", "0.2"] + flags)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestCatalogFile:
    """A catalog.json that does not describe a spec fails with exit 2."""

    def _run(self, workspace, tmp_path, catalog_text):
        root, data, _, _ = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        (copy / "catalog.json").write_text(catalog_text)
        return main(["pretrain-classifier", "--data-dir", str(copy),
                     "--run-dir", str(tmp_path / "run"),
                     "--config", str(root / "tiny.cfg")]), copy / "catalog.json"

    @pytest.mark.parametrize("key", ["logs_items", "colour"])
    def test_unknown_key_names_file_and_key(self, workspace, tmp_path, capsys, key):
        _, data, _, _ = workspace
        spec = json.loads((data / "catalog.json").read_text())
        code, path = self._run(workspace, tmp_path, json.dumps({**spec, key: 0}))
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(key) in err

    @pytest.mark.parametrize("text", ['{"items": 150,', "[]"], ids=["truncated", "list"])
    def test_malformed_json(self, workspace, tmp_path, capsys, text):
        code, path = self._run(workspace, tmp_path, text)
        assert code == 2
        assert str(path) in capsys.readouterr().err


# what a phase's manifest entry records about its token ids
IDS_KEYS = ["max_query_len", "max_title_len", "vocab_q", "vocab_t"]

# each phase's epoch records in its manifest entry, key for key and in order
VAL_KEYS = ["epoch", "split", "aupr", "f1", "loss"]
RECORD_KEYS = {"classifier": VAL_KEYS, "dssm": VAL_KEYS, "augment": VAL_KEYS,
               "e2e": VAL_KEYS + ["s1_fraction"],
               "ved": ["epoch", "kl_weight", "loss", "nll", "kl"]}


def manifest_phases(run: Path) -> dict:
    return json.loads((run / "manifest.json").read_text())["phases"]


def phase_records(run: Path, phase: str) -> list[dict]:
    """The epoch records in the manifest entry of ``phase``, after checking
    each holds exactly that phase's keys."""
    recs = manifest_phases(run)[phase]["records"]
    assert recs and [list(r) for r in recs] == [RECORD_KEYS[phase]] * len(recs), phase
    return recs


def renamed_query_word(data: Path, tmp_path: Path) -> Path:
    """A copy of ``data`` whose train split renames one query word, so it
    builds another query vocabulary."""
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    lines = (copy / "train.tsv").read_text().splitlines(keepends=True)
    word = lines[0].split("\t")[1].split()[0]
    for i, line in enumerate(lines):
        fields = line.split("\t")
        fields[1] = " ".join("renamedword" if w == word else w for w in fields[1].split())
        lines[i] = "\t".join(fields)
    (copy / "train.tsv").write_text("".join(lines))
    return copy


class TestManifestFile:
    """A manifest.json that does not describe a manifest fails with exit 2,
    naming the file, before a phase trains or writes anything."""

    @pytest.mark.parametrize("text, named", [
        (b'{"seed": 3,', "malformed JSON"),
        (b'\xff{"seed": 3}', "malformed JSON"),
        (b"[]", "expected a JSON object"),
        (json.dumps({"datasets": {}}).encode(), "unknown manifest key 'datasets'"),
        (b'{"phases": []}', "'phases' must be a JSON object"),
        (json.dumps({"phases": {"classifier": {"checkpoint": P.CKPT_CLASSIFIER}}}).encode(),
         "phase 'classifier' must be an object of checkpoint, seconds, config, data, ids, "
         "records"),
    ], ids=["truncated", "not_utf8", "list", "unknown_key", "phases_list", "missing_key"])
    @pytest.mark.parametrize("argv", [["eval", "--checkpoint", P.CKPT_CLASSIFIER],
                                      ["pretrain-classifier"]], ids=["eval", "pretrain"])
    def test_bad_manifest_exits_2(self, workspace, tmp_path, capsys, argv, text, named):
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        (copy / "manifest.json").write_bytes(text)
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        code = main(argv + ["--data-dir", str(data), "--run-dir", str(copy),
                            "--config", str(root / "tiny.cfg")])
        assert code == 2
        assert f"{copy / 'manifest.json'}: {named}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before


class TestPhases:
    def test_checkpoints_written(self, workspace):
        _, _, run, _ = workspace
        assert (run / P.CKPT_CLASSIFIER).exists()
        assert (run / P.CKPT_TRIPLES).exists()
        assert (run / P.CKPT_VED).exists()
        # what the token ids mean lives in each phase's manifest entry, not in files
        assert not list(run.glob("vocab_*.txt"))
        phases = json.loads((run / "manifest.json").read_text())["phases"]
        for name in ("classifier", "triples", "ved"):
            assert sorted(phases[name]["ids"]) == IDS_KEYS, name

    def test_manifest_times_every_phase(self, workspace):
        _, _, run, _ = workspace
        phases = json.loads((run / "manifest.json").read_text())["phases"]
        for name in ("classifier", "triples", "ved"):
            assert phases[name]["seconds"] > 0.0, name

    def test_train_e2e_and_eval(self, workspace):
        _, data, run, base = workspace
        assert main(["train-e2e"] + base + ["--p", "0.3"]) == 0
        assert (run / P.CKPT_E2E).exists()
        assert main(["eval"] + base + ["--checkpoint", P.CKPT_E2E]) == 0
        phase_records(run, "e2e")

    def test_manifest_records_each_phase_data(self, workspace, tmp_path):
        """A phase's manifest entry holds the hash of each data file it read,
        so two runs on data dirs that differ in one file tell them apart."""
        root, data, _, _ = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        logs = (copy / P.LOGS_TSV).read_text().splitlines(keepends=True)
        (copy / P.LOGS_TSV).write_text("".join(logs[:-1]))
        entries = []
        for data_dir in (data, copy):
            run = tmp_path / f"run_{data_dir.name}"
            assert main(["build-triples", "--data-dir", str(data_dir), "--run-dir", str(run),
                         "--config", str(root / "tiny.cfg")]) == 0
            entries.append(json.loads((run / "manifest.json").read_text())
                           ["phases"]["triples"]["data"])
        assert sorted(entries[0]) == sorted(
            [P.CATALOG_JSON, P.LOGS_TSV] + [f"{s}.tsv" for s in P.SPLITS])
        assert entries[0][P.LOGS_TSV] == file_sha256(data / P.LOGS_TSV)
        assert entries[1][P.LOGS_TSV] == file_sha256(copy / P.LOGS_TSV)
        assert entries[0][P.LOGS_TSV] != entries[1][P.LOGS_TSV]
        assert {k: v for k, v in entries[0].items() if k != P.LOGS_TSV} == {
            k: v for k, v in entries[1].items() if k != P.LOGS_TSV}

    def test_classifier_records_carry_no_switch_share(self, workspace):
        # the switch share is e2e's measure; a phase without a switch leaves it out
        _, _, run, _ = workspace
        clf = phase_records(run, "classifier")
        assert not any("s1_fraction" in r for r in clf)

    def test_manifest_records_each_phase_config(self, workspace, tmp_path):
        """A rerun replaces its phase's entry whole, config and records: a
        shorter rerun leaves none of the longer run's records behind."""
        _, data_dir, run, base = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        argv = [str(copy) if a == str(run) else a for a in base]
        cfg = load_config(base[-1], base=desk_profile())
        hashes = []
        for p in ("0", "0.3"):
            assert main(["train-e2e"] + argv + ["--p", p]) == 0
            hashes.append(RunConfig(**manifest_phases(copy)["e2e"]["config"]).hash())
        assert hashes[0] != hashes[1]
        assert hashes[1] == cfg.replace(p=0.3).hash()
        assert main(["pretrain-classifier", "--epochs", "2"] + argv) == 0
        assert len(phase_records(copy, "classifier")) == 2
        cfg = cfg.replace(clf_epochs=1)
        _, records = P.phase_pretrain_classifier(cfg, P.load_data(data_dir, cfg), copy)
        assert phase_records(copy, "classifier") == [r.to_json() for r in records]
        assert RunConfig(**manifest_phases(copy)["classifier"]["config"]).hash() == cfg.hash()

    def test_missing_prerequisite_names_prior_command(self, workspace, capsys):
        root, data, _, _ = workspace
        empty_run = root / "empty_run"
        code = main(["train-e2e", "--data-dir", str(data),
                     "--run-dir", str(empty_run)])
        assert code == 2
        assert "pretrain-ved" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, command", [
        (["train-baseline", "--kind", "augment", "--resume", P.CKPT_VED], "pretrain-ved"),
        (["train-e2e", "--resume", P.CKPT_CLASSIFIER], "pretrain-classifier"),
    ], ids=["augment", "e2e"])
    def test_missing_resume_checkpoint_names_its_writer(self, workspace, tmp_path, capsys,
                                                        argv, command):
        root, data, _, _ = workspace
        code = main(argv + ["--data-dir", str(data), "--run-dir", str(tmp_path / "run"),
                            "--config", str(root / "tiny.cfg")])
        assert code == 2
        assert f"run `quarts {command}` first" in capsys.readouterr().err

    def test_p_zero_equals_resumed_augment(self, workspace):
        # at p=0 the switch never fires, so switched training is the
        # classifier loss on the same streams and leaves the generator as is
        _, _, run, base = workspace
        assert main(["train-e2e"] + base + ["--p", "0"]) == 0
        assert main(["train-baseline", "--kind", "augment",
                     "--resume", P.CKPT_VED] + base) == 0
        e2e = load_arrays(run / P.CKPT_E2E)
        augment = load_arrays(run / P.CKPT_AUGMENT)
        ved = load_arrays(run / P.CKPT_VED)
        phase_records(run, "augment")
        # the manifest is the run dir's one record of configs and epochs
        assert not (run / "metrics.jsonl").exists() and not (run / "config.cfg").exists()
        clf_names = sorted(k for k in e2e if k.startswith("clf."))
        assert len(clf_names) == 16 and sorted(augment) == clf_names
        for k in clf_names:
            assert e2e[k].dtype == augment[k].dtype
            assert e2e[k].tobytes() == augment[k].tobytes(), k
        ved_names = sorted(k for k in e2e if k.startswith("ved."))
        assert ved_names and ved_names == sorted(k for k in ved if k.startswith("ved."))
        for k in ved_names:
            assert e2e[k].tobytes() == ved[k].tobytes(), k

    @pytest.mark.parametrize("tool", [
        ["heatmap", "--title", "alvora running shoes", "--query", "insoles"],
        ["knn", "--text", "running shoes"],
    ], ids=["heatmap", "knn"])
    def test_tool_missing_checkpoint_names_command(self, workspace, capsys, tool):
        root, data, _, _ = workspace
        code = main(tool[:1] + ["--data-dir", str(data),
                                "--run-dir", str(root / "empty_run"),
                                "--config", str(root / "tiny.cfg")] + tool[1:])
        assert code == 2
        assert "train-e2e" in capsys.readouterr().err

    @pytest.mark.parametrize("tool", [
        ["heatmap", "--title", "alvora running shoes", "--query", "???"],
        ["knn", "--text", "!!!"],
    ], ids=["heatmap", "knn"])
    def test_tool_text_without_tokens_fails(self, workspace, capsys, tool):
        _, _, _, base = workspace
        code = main(tool[:1] + base + ["--checkpoint", P.CKPT_VED] + tool[1:])
        assert code == 2
        assert f"{tool[-1]!r} has no tokens" in capsys.readouterr().err

    def test_generate_needs_generator_arrays(self, workspace, capsys):
        root, _, _, base = workspace
        code = main(["generate"] + base + ["--checkpoint", P.CKPT_CLASSIFIER,
                                           "--out", str(root / "none.tsv")])
        assert code == 2
        assert "generator" in capsys.readouterr().err

    def test_load_bundle_applies_run_precision(self, workspace):
        root, data_dir, run, _ = workspace
        cfg = load_config(root / "tiny.cfg", base=desk_profile()).replace(
            precision="f64")
        data = P.load_data(data_dir, cfg)
        clf, ved = P.load_bundle(cfg, data, run, P.CKPT_VED, need="pretrain-ved")
        assert clf.emb_q.data.dtype == np.float64
        assert ved.dec.w_v.data.dtype == np.float64
        assert T.get_default_dtype() is np.float32

    def test_ved_phase_writes_epochs_to_metrics(self, workspace, monkeypatch):
        # the VED epochs go to its manifest entry like every other phase's,
        # with no val pass, and the classifier, which the phase does not train, stays as is
        root, data_dir, _, _ = workspace
        cfg = load_config(root / "tiny.cfg", base=desk_profile()).replace(
            ved_epochs=3, kl_anneal_epochs=4)
        data = P.load_data(data_dir, cfg)
        run = root / "ved_run"
        P.phase_pretrain_classifier(cfg, data, run)
        P.phase_build_triples(cfg, data, run)

        def no_val_pass(*args, **kwargs):
            raise AssertionError("the VED phase ran a val pass")

        monkeypatch.setattr(TR, "evaluate_probs", no_val_pass)
        _, records = P.phase_pretrain_ved(cfg, data, run)
        ved = phase_records(run, "ved")
        assert [r["kl_weight"] for r in ved] == [0.0, 1 / 3, 2 / 3]
        assert ved == [r.to_json() for r in records]
        assert not (run / "ved_history.json").exists()
        before = load_arrays(run / P.CKPT_CLASSIFIER)
        after = load_arrays(run / P.CKPT_VED)
        for k, v in before.items():
            assert after[k].tobytes() == v.tobytes(), k

    def test_eval_missing_data_dir(self, workspace, capsys):
        root, _, run, _ = workspace
        code = main(["eval", "--data-dir", str(root / "nowhere"),
                     "--run-dir", str(run), "--checkpoint", P.CKPT_CLASSIFIER])
        assert code == 2
        assert "gen-data" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["pretrain-classifier"], "clf_epochs"),
        (["pretrain-ved"], "ved_epochs"),
        (["train-e2e"], "e2e_epochs"),
        (["train-baseline", "--kind", "augment"], "clf_epochs"),
        (["train-baseline", "--kind", "augment", "--resume", P.CKPT_VED], "e2e_epochs"),
    ], ids=["classifier", "ved", "e2e", "augment", "augment-resumed"])
    def test_zero_epochs_fails_before_writing(self, workspace, capsys, argv, key):
        root, data, _, _ = workspace
        run = root / "zero_epochs_run"
        code = main(argv + ["--data-dir", str(data), "--run-dir", str(run),
                            "--config", str(root / "tiny.cfg"), "--epochs", "0"])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("line, key", [
        ("batch_size = 0", "batch_size"), ("hidden_size = 0", "hidden_size"),
        ("dropout = 1.5", "dropout"), ("lr = -1", "lr"),
        ("decay_factor = -1", "decay_factor"),
    ], ids=["batch_size", "hidden_size", "dropout", "lr", "decay_factor"])
    def test_bad_config_value_fails_before_writing(self, workspace, capsys, line, key):
        root, data, _, _ = workspace
        bad = root / f"bad_{key}.cfg"
        bad.write_text((root / "tiny.cfg").read_text() + line + "\n")
        run = root / "bad_value_run"
        code = main(["pretrain-classifier", "--data-dir", str(data), "--run-dir", str(run),
                     "--config", str(bad)])
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("command", ["pretrain-classifier", "train-e2e"])
    def test_negative_seed_fails_before_writing(self, workspace, capsys, command):
        root, data, _, _ = workspace
        run = root / "negative_seed_run"
        code = main([command, "--data-dir", str(data), "--run-dir", str(run),
                     "--seed", "-1"])
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not run.exists()

    def test_non_integer_label_names_file_and_line(self, workspace, tmp_path, capsys):
        root, data, _, _ = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        lines = (copy / "train.tsv").read_text().splitlines(keepends=True)
        fields = lines[2].split("\t")
        fields[2] = "yes"
        lines[2] = "\t".join(fields)
        (copy / "train.tsv").write_text("".join(lines))
        code = main(["pretrain-classifier", "--data-dir", str(copy), "--run-dir",
                     str(tmp_path / "run"), "--config", str(root / "tiny.cfg")])
        assert code == 2
        assert "train.tsv:3" in capsys.readouterr().err

    def test_short_triple_line_names_file_and_line(self, workspace, tmp_path, capsys):
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        triples = copy / P.CKPT_TRIPLES
        count = len(triples.read_text().splitlines())
        with open(triples, "a", encoding="utf-8") as fh:
            fh.write("a title\tonly two fields\n")
        code = main(["pretrain-ved", "--data-dir", str(data), "--run-dir", str(copy),
                     "--config", str(root / "tiny.cfg")])
        assert code == 2
        assert f"{P.CKPT_TRIPLES}:{count + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [0, 1, 2], ids=["title", "matched", "mismatched"])
    def test_tokenless_triple_field_names_file_and_line(self, workspace, tmp_path, capsys,
                                                        field):
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        (copy / P.CKPT_VED).unlink()
        triples = copy / P.CKPT_TRIPLES
        lines = triples.read_text().splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split("\t")
        fields[field] = "!!!"
        lines[1] = "\t".join(fields) + "\n"
        triples.write_text("".join(lines))
        code = main(["pretrain-ved", "--data-dir", str(data), "--run-dir", str(copy),
                     "--config", str(root / "tiny.cfg")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{P.CKPT_TRIPLES}:2" in err and "'!!!' has no tokens" in err
        assert not (copy / P.CKPT_VED).exists()

    def test_other_architecture_checkpoint_refused(self, workspace, tmp_path, capsys):
        """A classifier checkpoint trained at another hidden size exits 2
        naming the first parameter whose shape differs."""
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        (copy / P.CKPT_VED).unlink()
        other = tmp_path / "other.cfg"
        other.write_text((root / "tiny.cfg").read_text().replace("hidden_size = 24",
                                                                "hidden_size = 16"))
        code = main(["pretrain-ved", "--data-dir", str(data), "--run-dir", str(copy),
                     "--config", str(other)])
        assert code == 2
        assert "shape mismatch for 'clf.lstm_q.wx'" in capsys.readouterr().err
        assert not (copy / P.CKPT_VED).exists()

    def test_checkpoint_array_no_model_names_refused(self, workspace, tmp_path, capsys):
        """Every array a checkpoint holds must be a parameter of the models it
        loads into; a stray one exits 2 naming it."""
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        arrays = load_arrays(copy / P.CKPT_CLASSIFIER)
        save_arrays(copy / P.CKPT_CLASSIFIER, {**arrays, "stray.w": np.ones(2, np.float32)})
        code = main(["eval", "--checkpoint", P.CKPT_CLASSIFIER, "--data-dir", str(data),
                     "--run-dir", str(copy), "--config", str(root / "tiny.cfg")])
        assert code == 2
        assert "extra=['stray.w']" in capsys.readouterr().err

    def test_pre_npy_checkpoint_refused(self, workspace, tmp_path, capsys):
        """A checkpoint in the layout before npy records (``QRTS``, version
        1) exits 2 naming the file, until its phase is run again."""
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        path = copy / P.CKPT_CLASSIFIER
        arrays = load_arrays(path)
        old = [b"QRTS", struct.pack("<IQ", 1, len(arrays))]
        for name, arr in arrays.items():
            assert arr.dtype == np.float32   # dtype tag 0
            old += [struct.pack("<I", len(name)), name.encode(), struct.pack("<BQ", 0, arr.ndim),
                    struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.tobytes()]
        path.write_bytes(b"".join(old))
        base = ["--data-dir", str(data), "--run-dir", str(copy),
                "--config", str(root / "tiny.cfg")]
        evaluate = ["eval", "--checkpoint", P.CKPT_CLASSIFIER] + base
        assert main(evaluate) == 2
        assert f"{path}: not a checkpoint" in capsys.readouterr().err
        assert main(["pretrain-classifier"] + base) == 0
        assert main(evaluate) == 0

    def test_other_data_dir_vocabulary_refused(self, workspace, tmp_path, capsys):
        """A later phase on a data dir whose train split builds another
        vocabulary exits 2 instead of remapping the checkpoint's token ids."""
        root, data, run, _ = workspace
        copy, run_copy = renamed_query_word(data, tmp_path), tmp_path / "run"
        shutil.copytree(run, run_copy)
        (run_copy / P.CKPT_VED).unlink()
        base = ["--data-dir", str(copy), "--run-dir", str(run_copy),
                "--config", str(root / "tiny.cfg")]
        assert main(["build-triples"] + base) == 0
        assert main(["pretrain-ved"] + base) == 2
        assert "vocab_q = " in capsys.readouterr().err
        assert not (run_copy / P.CKPT_VED).exists()
        # a manifest entry that records no ids is malformed, not read unchecked
        man = json.loads((run_copy / "manifest.json").read_text())
        del man["phases"]["classifier"]["ids"]
        (run_copy / "manifest.json").write_text(json.dumps(man))
        assert main(["eval", "--checkpoint", P.CKPT_CLASSIFIER] + base) == 2
        assert "phase 'classifier' must be an object of" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["max_title_len", "max_query_len"])
    def test_other_max_length_refused(self, workspace, tmp_path, capsys, key):
        """An eval at another truncation length exits 2 naming the key, since
        the checkpoint was trained on ids cut at its own lengths."""
        root, data, run, _ = workspace
        ids = json.loads((run / "manifest.json").read_text())["phases"]["classifier"]["ids"]
        assert (ids["max_title_len"], ids["max_query_len"]) == (16, 8)
        other = tmp_path / "other.cfg"
        other.write_text((root / "tiny.cfg").read_text() + f"{key} = 3\n")
        code = main(["eval", "--data-dir", str(data), "--run-dir", str(run),
                     "--config", str(other), "--checkpoint", P.CKPT_CLASSIFIER,
                     "--split", "val"])
        assert code == 2
        assert f"{key} = " in capsys.readouterr().err
        assert not (run / "report_phase1_classifier_val.json").exists()

    def test_max_lengths_belong_to_their_checkpoint(self, workspace, tmp_path, capsys):
        """A later phase run at other max lengths does not vouch for an
        earlier checkpoint: the classifier still refuses an eval at them."""
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        other = tmp_path / "other.cfg"
        other.write_text((root / "tiny.cfg").read_text() + "max_query_len = 3\n")
        cfg = ["--data-dir", str(data), "--run-dir", str(copy), "--config", str(other)]
        assert main(["train-baseline", "--kind", "dssm"] + cfg) == 0
        assert main(["eval", "--checkpoint", P.CKPT_DSSM] + cfg) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", P.CKPT_CLASSIFIER] + cfg) == 2
        assert "max_query_len = 8" in capsys.readouterr().err

    def test_vocabulary_belongs_to_its_checkpoint(self, workspace, tmp_path, capsys):
        """A later phase on a data dir that builds another vocabulary does not
        vouch for an earlier checkpoint: the classifier still refuses that
        data dir and still accepts its own."""
        root, data, run, _ = workspace
        copy, run_copy = renamed_query_word(data, tmp_path), tmp_path / "run"
        shutil.copytree(run, run_copy)
        cfg = ["--run-dir", str(run_copy), "--config", str(root / "tiny.cfg")]
        assert main(["train-baseline", "--kind", "dssm", "--data-dir", str(copy)] + cfg) == 0
        capsys.readouterr()
        evaluate = ["eval", "--checkpoint", P.CKPT_CLASSIFIER] + cfg
        assert main(evaluate + ["--data-dir", str(copy)]) == 2
        assert "vocab_q = " in capsys.readouterr().err
        assert main(evaluate + ["--data-dir", str(data)]) == 0

    def test_triples_from_another_train_split_refused(self, workspace, tmp_path, capsys):
        """pretrain-ved refuses triples that build-triples made from another
        train split, naming both train.tsv hashes; a run dir whose manifest
        has no triples entry is read unchecked."""
        root, data, run, _ = workspace
        half, run_copy = tmp_path / "half", tmp_path / "run"
        shutil.copytree(data, half)
        lines = (half / "train.tsv").read_text().splitlines(keepends=True)
        (half / "train.tsv").write_text("".join(lines[:len(lines) // 2]))
        shutil.copytree(run, run_copy)
        (run_copy / P.CKPT_VED).unlink()
        cfg = ["--run-dir", str(run_copy), "--config", str(root / "tiny.cfg")]
        assert main(["build-triples", "--data-dir", str(half)] + cfg) == 0
        capsys.readouterr()
        assert main(["pretrain-ved", "--data-dir", str(data)] + cfg) == 2
        err = capsys.readouterr().err
        assert "build-triples" in err
        assert file_sha256(half / "train.tsv") in err and file_sha256(data / "train.tsv") in err
        assert not (run_copy / P.CKPT_VED).exists()
        # an entry that records no train.tsv hash is refused too
        man = json.loads((run_copy / "manifest.json").read_text())
        del man["phases"]["triples"]["data"]["train.tsv"]
        (run_copy / "manifest.json").write_text(json.dumps(man))
        assert main(["pretrain-ved", "--data-dir", str(data)] + cfg) == 2
        del man["phases"]["triples"]
        (run_copy / "manifest.json").write_text(json.dumps(man))
        assert main(["pretrain-ved", "--data-dir", str(data)] + cfg) == 0

    def test_empty_triples_fails_before_writing(self, workspace, tmp_path, capsys):
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        (copy / P.CKPT_VED).unlink()
        (copy / P.CKPT_TRIPLES).write_text("")
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        code = main(["pretrain-ved", "--data-dir", str(data), "--run-dir", str(copy),
                     "--config", str(root / "tiny.cfg")])
        assert code == 2
        assert "build-triples" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before

    def test_unknown_config_key_fails_fast(self, workspace, capsys):
        root, data, run, _ = workspace
        bad = root / "bad.cfg"
        bad.write_text("hiden_size = 24\n")
        code = main(["pretrain-classifier", "--data-dir", str(data),
                     "--run-dir", str(run), "--config", str(bad)])
        assert code == 2
        assert "hiden_size" in capsys.readouterr().err


@pytest.fixture(scope="module")
def no_val_workspace(tmp_path_factory):
    """A corpus whose val split is empty, plus a tiny config."""
    root = tmp_path_factory.mktemp("noval")
    assert main(["gen-data", "--out", str(root / "data"), "--items", "60",
                 "--labeled-pairs", "300", "--logs-pairs", "100",
                 "--split", "0.85,0,0.15"]) == 0
    (root / "tiny.cfg").write_text("hidden_size = 8\nembed_dim = 8\nclf_epochs = 1\n")
    return ["--data-dir", str(root / "data"), "--run-dir", str(root / "run"),
            "--config", str(root / "tiny.cfg")]


class TestEmptyValSplit:
    @pytest.mark.parametrize("argv", [["pretrain-classifier"],
                                      ["train-baseline", "--kind", "dssm"]],
                             ids=["classifier", "dssm"])
    def test_done_message_without_val_pass(self, no_val_workspace, capsys, caplog, argv):
        caplog.set_level(logging.INFO)
        assert main(argv + no_val_workspace) == 0
        assert "Logging error" not in capsys.readouterr().err
        done = [m for m in caplog.messages if " done" in m]
        assert len(done) == 1 and "aupr" not in done[0]

    def test_eval_of_empty_split_fails(self, no_val_workspace, capsys):
        assert main(["pretrain-classifier"] + no_val_workspace) == 0
        capsys.readouterr()
        code = main(["eval"] + no_val_workspace + ["--checkpoint", P.CKPT_CLASSIFIER,
                                                   "--split", "val"])
        assert code == 2
        assert "val split is empty" in capsys.readouterr().err


class TestAugmentFromScratch:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_empty_logs_gives_the_classifier_checkpoint(self, tmp_path, precision):
        # augment from scratch runs classifier pretraining's body on the
        # merged data, which is the train split when the logs are empty
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--items", "60",
                     "--labeled-pairs", "300", "--logs-pairs", "100"]) == 0
        (data / "logs.tsv").write_text("")
        (tmp_path / "tiny.cfg").write_text("hidden_size = 8\nembed_dim = 8\nclf_epochs = 2\n"
                                           f"precision = {precision}\n")
        base = ["--data-dir", str(data), "--run-dir", str(tmp_path / "run"),
                "--config", str(tmp_path / "tiny.cfg")]
        assert main(["pretrain-classifier"] + base) == 0
        assert main(["train-baseline", "--kind", "augment"] + base) == 0
        clf = (tmp_path / "run" / P.CKPT_CLASSIFIER).read_bytes()
        assert (tmp_path / "run" / P.CKPT_AUGMENT).read_bytes() == clf
        records = manifest_phases(tmp_path / "run")
        assert records["augment"]["records"] == records["classifier"]["records"]


class TestTools:
    def test_baseline_dssm(self, workspace):
        _, _, run, base = workspace
        assert main(["train-baseline", "--kind", "dssm"] + base) == 0
        assert (run / P.CKPT_DSSM).exists()
        phase_records(run, "dssm")

    def test_dssm_run_dir_guards_its_vocabulary(self, workspace, tmp_path, capsys):
        """A run dir holding only the pooled baseline records its vocabularies'
        digests, so evaluating it on a data dir that builds others exits 2."""
        root, data, _, _ = workspace
        run = tmp_path / "dssm_run"
        cfg = ["--run-dir", str(run), "--config", str(root / "tiny.cfg")]
        assert main(["train-baseline", "--kind", "dssm", "--data-dir", str(data)] + cfg) == 0
        ids = json.loads((run / "manifest.json").read_text())["phases"]["dssm"]["ids"]
        assert sorted(ids) == IDS_KEYS
        copy = renamed_query_word(data, tmp_path)
        capsys.readouterr()
        code = main(["eval", "--data-dir", str(copy), "--checkpoint", P.CKPT_DSSM] + cfg)
        assert code == 2
        assert "vocab_q = " in capsys.readouterr().err

    def test_freeze_generator_leaves_generator_arrays(self, workspace, tmp_path):
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        assert main(["train-e2e", "--freeze-generator", "--data-dir", str(data),
                     "--run-dir", str(copy), "--config", str(root / "tiny.cfg")]) == 0
        before, after = load_arrays(copy / P.CKPT_VED), load_arrays(copy / P.CKPT_E2E)
        assert before.keys() == after.keys()
        ved = [k for k in before if k.startswith("ved.")]
        assert len(ved) == 13
        for k in ved:
            np.testing.assert_array_equal(after[k], before[k], err_msg=k)
        assert any(not np.array_equal(after[k], before[k])
                   for k in before if k.startswith("clf."))

    def test_eval_generation_report(self, workspace, capsys):
        _, data, run, base = workspace
        assert main(["eval"] + base + ["--checkpoint", P.CKPT_VED, "--generation"]) == 0
        report = json.loads((run / "report_phase3_ved_test.json").read_text())
        assert len(report["bleu"]) == 4 and all(0.0 <= b <= 1.0 for b in report["bleu"])
        assert 0.0 <= report["generation_accuracy"] <= 1.0
        assert 0.0 <= report["unresolvable_rate"] <= 1.0
        test = read_pairs(data / "test.tsv")
        assert report["counts"]["generation_pairs"] == len(build_triples(test, cap=1)) > 0
        capsys.readouterr()
        code = main(["eval"] + base + ["--checkpoint", P.CKPT_CLASSIFIER, "--generation"])
        assert code == 2
        assert "generator" in capsys.readouterr().err

    def test_eval_generation_on_a_split_without_triples(self, workspace, tmp_path):
        # no test title carries both labels, so there is nothing to decode
        root, data, run, _ = workspace
        copy, run_copy = tmp_path / "data", tmp_path / "run"
        shutil.copytree(data, copy)
        shutil.copytree(run, run_copy)
        test = read_pairs(copy / "test.tsv")
        mismatched = {p.title for p in test if p.label == 1}
        write_pairs(copy / "test.tsv",
                    [p for p in test if p.label == 1 or p.title not in mismatched])
        assert build_triples(read_pairs(copy / "test.tsv"), cap=1) == []
        assert main(["eval", "--data-dir", str(copy), "--run-dir", str(run_copy), "--config",
                     str(root / "tiny.cfg"), "--checkpoint", P.CKPT_VED,
                     "--generation"]) == 0
        report = json.loads((run_copy / "report_phase3_ved_test.json").read_text())
        assert report["counts"]["generation_pairs"] == 0
        assert report["bleu"] == [0, 0, 0, 0]

    def test_eval_generation_without_generator_fails_before_scoring(
            self, workspace, tmp_path, capsys, monkeypatch):
        # the loader checks the parts its caller needs, so no pair is scored first
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        before = sorted(p.name for p in copy.iterdir())
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return TR.evaluate_probs(*args, **kwargs)

        monkeypatch.setattr(P, "evaluate_probs", counted)
        code = main(["eval", "--data-dir", str(data), "--run-dir", str(copy),
                     "--config", str(root / "tiny.cfg"), "--checkpoint", P.CKPT_CLASSIFIER,
                     "--generation"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: phase1_classifier.qrts holds no generator parameters; "
            "use a pretrain-ved or train-e2e checkpoint\n")
        assert calls == []
        assert sorted(p.name for p in copy.iterdir()) == before

    def test_baseline_dssm_refuses_resume(self, workspace, tmp_path, capsys):
        # the pooled baseline has no checkpoint to continue from
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        (copy / P.CKPT_DSSM).unlink(missing_ok=True)
        before = sorted(p.name for p in copy.iterdir())
        code = main(["train-baseline", "--kind", "dssm", "--resume", P.CKPT_CLASSIFIER,
                     "--epochs", "1", "--data-dir", str(data), "--run-dir", str(copy),
                     "--config", str(root / "tiny.cfg")])
        assert code == 2
        assert "--resume" in capsys.readouterr().err
        assert not (copy / P.CKPT_DSSM).exists()
        assert sorted(p.name for p in copy.iterdir()) == before

    @pytest.mark.parametrize("flag", ["--config", "--pairs"])
    def test_missing_input_file_names_path(self, workspace, tmp_path, capsys, flag):
        root, data, run, _ = workspace
        missing = tmp_path / "missing.txt"
        out = tmp_path / "gen.tsv"
        if flag == "--config":
            argv = ["pretrain-classifier", "--run-dir", str(tmp_path / "run"),
                    "--config", str(missing)]
        else:
            argv = ["generate", "--run-dir", str(run), "--config", str(root / "tiny.cfg"),
                    "--checkpoint", P.CKPT_VED, "--pairs", str(missing), "--out", str(out)]
        code = main(argv + ["--data-dir", str(data)])
        assert code == 2
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not out.exists()

    def test_generate_writes_tsv(self, workspace):
        root, _, _, base = workspace
        out = root / "gen.tsv"
        assert main(["generate"] + base + ["--checkpoint", P.CKPT_VED,
                                           "--limit", "4", "--beam", "1",
                                           "--out", str(out)]) == 0
        rows = [l.split("\t") for l in out.read_text().strip().splitlines()]
        assert rows and all(len(r) == 5 for r in rows)

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--beam", "0"], "beam_size must be >= 1"),
        (["generate", "--beam", "-1"], "beam_size must be >= 1"),
        (["generate", "--max-len", "0"], "gen_max_len must be >= 1"),
        (["generate", "--limit", "0"], "--limit must be >= 1"),
        (["generate", "--limit", "-1"], "--limit must be >= 1"),
        (["knn", "--text", "running shoes", "--top", "0"], "--top must be >= 1"),
        (["knn", "--text", "running shoes", "--top", "-1"], "--top must be >= 1"),
        (["knn", "--text", "running shoes", "--limit", "0"], "--limit must be >= 1"),
    ], ids=["beam0", "beam-1", "max_len0", "limit0", "limit-1", "top0", "top-1",
            "knn_limit0"])
    def test_count_flag_below_one_fails(self, workspace, tmp_path, capsys, argv, message):
        _, _, _, base = workspace
        out = tmp_path / "gen.tsv"
        extra = ["--out", str(out)] if argv[0] == "generate" else []
        code = main(argv[:1] + base + ["--checkpoint", P.CKPT_VED] + argv[1:] + extra)
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "source:" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("title, query", [
        ("alvora running shoes", "!!!"), ("???", "running shoes"),
    ], ids=["query", "title"])
    def test_generate_pair_without_tokens_fails(self, workspace, tmp_path, capsys,
                                                title, query):
        _, _, _, base = workspace
        pairs, out = tmp_path / "pairs.tsv", tmp_path / "gen.tsv"
        pairs.write_text(f"alvora trail shoes\tshoes\t0\tannotated\n"
                         f"{title}\t{query}\t0\tannotated\n")
        code = main(["generate"] + base + ["--checkpoint", P.CKPT_VED,
                                           "--pairs", str(pairs), "--out", str(out)])
        assert code == 2
        assert f"{title!r} / {query!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_untyped_title_fails_before_decoding(self, workspace, tmp_path,
                                                           capsys, monkeypatch):
        # every kept title must have a product type for the oracle to label
        # its generation; the check runs before any pair is decoded
        _, _, _, base = workspace
        pairs, out = tmp_path / "pairs.tsv", tmp_path / "gen.tsv"
        pairs.write_text("alvora running shoes black\trunning shoes\t0\tannotated\n"
                         "alvora wireless gadget\tgadget\t0\tannotated\n")
        calls, step = [], V.decode_step

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(V, "decode_step", counted)
        code = main(["generate"] + base + ["--checkpoint", P.CKPT_VED,
                                           "--pairs", str(pairs), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: item title has no product type: 'alvora wireless gadget'\n")
        assert calls == [] and not out.exists()

    def test_heatmap_export(self, workspace, capsys):
        root, _, _, base = workspace
        prefix = str(root / "hm")
        assert main(["heatmap"] + base + [
            "--checkpoint", P.CKPT_VED, "--title", "alvora running shoes navy",
            "--query", "insoles for running shoes", "--out", prefix]) == 0
        grid = Path(prefix + ".txt").read_text()
        assert grid.splitlines()[0].split("\t")[1:] == \
            ["alvora", "running", "shoes", "navy"]
        payload = json.loads(Path(prefix + ".json").read_text())
        norm = np.array(payload["normalized"])
        assert norm.shape == (4, 4)
        assert norm.min() >= 0.0 and norm.max() <= 1.0

    def test_knn_runs(self, workspace, capsys):
        _, _, _, base = workspace
        assert main(["knn"] + base + ["--checkpoint", P.CKPT_VED,
                                      "--text", "running shoes",
                                      "--limit", "30"]) == 0
        out = capsys.readouterr().out
        assert "source: running shoes" in out

    @pytest.mark.parametrize("argv, flag", [
        (["eval", "--checkpoint", P.CKPT_VED, "--scores-out"], "--scores-out"),
        (["generate", "--checkpoint", P.CKPT_VED, "--out"], "--out"),
        (["heatmap", "--checkpoint", P.CKPT_VED, "--title", "alvora running shoes",
          "--query", "insoles", "--out"], "--out"),
    ], ids=["eval", "generate", "heatmap"])
    def test_output_path_that_cannot_be_opened_fails_first(self, workspace, tmp_path,
                                                           capsys, monkeypatch, argv, flag):
        """An output file in a missing directory exits 2 naming the flag and the
        path before any data is read, and the run dir gains no report."""
        root, data, run, _ = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        out = tmp_path / "nodir" / "out"

        def no_work(*args, **kwargs):
            raise AssertionError("the command read its data before checking its output")

        monkeypatch.setattr(P, "load_data", no_work)
        code = main(argv[:1] + ["--data-dir", str(data), "--run-dir", str(copy), "--config",
                                str(root / "tiny.cfg")] + argv[1:] + [str(out)])
        assert code == 2
        assert f"{flag} {out}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before
        assert not (tmp_path / "nodir").exists()

    def test_scores_dump(self, workspace):
        root, _, _, base = workspace
        out = root / "scores.tsv"
        assert main(["eval"] + base + ["--checkpoint", P.CKPT_CLASSIFIER,
                                       "--scores-out", str(out)]) == 0
        rows = [l.split("\t") for l in out.read_text().strip().splitlines()]
        assert all(len(r) == 2 for r in rows)
        scores = np.array([float(r[0]) for r in rows])
        assert ((scores > 0) & (scores < 1)).all()


class TestRunDirEnv:
    def test_env_var_override(self, workspace, monkeypatch):
        root, data, run, _ = workspace
        monkeypatch.setenv("QUARTS_RUN_DIR", str(run))
        code = main(["eval", "--data-dir", str(data),
                     "--config", str(root / "tiny.cfg"),
                     "--checkpoint", P.CKPT_CLASSIFIER])
        assert code == 0


class TestIdempotence:
    def test_rerun_overwrites_deterministically(self, workspace):
        root, data, _, _ = workspace
        run2 = root / "run2"
        cfg = ["--config", str(root / "tiny.cfg")]
        argv = ["pretrain-classifier", "--data-dir", str(data),
                "--run-dir", str(run2)] + cfg
        assert main(argv) == 0
        first = (run2 / P.CKPT_CLASSIFIER).read_bytes()
        assert main(argv) == 0
        assert (run2 / P.CKPT_CLASSIFIER).read_bytes() == first


class TestFlags:
    """A flag sets the setting its dest names; the map is pinned here, so a
    new flag cannot override a config or catalog field without a word."""

    def test_dests_that_name_a_setting(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        fields = {f.name for cls in (RunConfig, CatalogSpec) for f in dataclasses.fields(cls)}
        named = {cmd: {a.dest for a in p._actions} & fields for cmd, p in sub.choices.items()}
        assert named == {
            "gen-data": {"items", "labeled_pairs", "logs_pairs", "positive_rate",
                         "hard_fraction", "seed"},
            "pretrain-classifier": {"seed", "clf_epochs"},
            "build-triples": {"seed"},
            "pretrain-ved": {"seed", "ved_epochs"},
            "train-e2e": {"seed", "p", "e2e_epochs"},
            # with --resume, main moves the value to e2e_epochs
            "train-baseline": {"seed", "clf_epochs"},
            "eval": {"seed"},
            "generate": {"seed", "beam_size", "gen_max_len"},
            "heatmap": {"seed"},
            "knn": {"seed"},
        }

    @pytest.mark.parametrize("argv, phase, key", [
        (["pretrain-classifier"], "classifier", "clf_epochs"),
        (["pretrain-ved"], "ved", "ved_epochs"),
        (["train-e2e"], "e2e", "e2e_epochs"),
        (["train-baseline", "--kind", "dssm"], "dssm", "clf_epochs"),
        (["train-baseline", "--kind", "augment", "--resume", P.CKPT_VED], "augment",
         "e2e_epochs"),
    ], ids=["classifier", "ved", "e2e", "dssm", "augment-resumed"])
    def test_epochs_sets_its_phase_key_alone(self, workspace, tmp_path, argv, phase, key):
        root, _, run, base = workspace
        copy = tmp_path / "run"
        shutil.copytree(run, copy)
        assert main(argv + [str(copy) if a == str(run) else a for a in base]
                    + ["--epochs", "2"]) == 0
        want = dataclasses.asdict(load_config(root / "tiny.cfg", base=desk_profile()))
        got = manifest_phases(copy)[phase]["config"]
        assert {k for k in want if got[k] != want[k]} == {key}
        assert got[key] == 2

    @pytest.mark.parametrize("given, want", [(None, "1"), ("2", "2")], ids=["unset", "two"])
    def test_one_blas_thread_unless_set(self, given, want):
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        code = ("import os, quarts.cli; "
                "print(*(os.environ[k] for k in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == [want, "1"]
