"""Checkpoint container format and configuration parsing."""
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.lib import format as npy

from quarts.checkpoint import CheckpointError, assign_params, load_arrays, save_arrays
from quarts.classifier import init_classifier, init_dssm
from quarts.config import (ConfigError, RunConfig, RunManifest, desk_profile,
                           load_config, paper_profile, parse_config)
from quarts.data import RawPair, write_pairs
from quarts import tensor as T
from quarts.optim import Adam
from quarts.tensor import Tensor
from quarts.ved import init_ved


class TestCheckpoint:
    def test_roundtrip_values(self, tmp_path):
        arrays = {"a.w": np.arange(6, dtype=np.float32).reshape(2, 3),
                  "b": np.array([1.5], dtype=np.float64)}
        path = tmp_path / "m.qrts"
        save_arrays(path, arrays)
        back = load_arrays(path)
        assert set(back) == {"a.w", "b"}
        np.testing.assert_array_equal(back["a.w"], arrays["a.w"])
        assert back["a.w"].dtype == np.float32
        assert back["b"].dtype == np.float64

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {f"p{i}": rng.normal(size=(3, i + 1)).astype(np.float32)
                  for i in range(4)}
        p1, p2 = tmp_path / "a.qrts", tmp_path / "b.qrts"
        save_arrays(p1, arrays)
        save_arrays(p2, load_arrays(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_checked(self, tmp_path):
        """A file that is not an npy record, such as one in the pre-npy
        ``QRTS`` layout, names the file and the magic string it holds."""
        old = tmp_path / "old.qrts"
        w = np.ones((2, 2), dtype=np.float32)
        old.write_bytes(b"QRTS" + struct.pack("<IQI", 1, 1, 1) + b"w"
                        + struct.pack("<BQQQ", 0, 2, 2, 2) + w.tobytes())
        junk = tmp_path / "bad.qrts"
        junk.write_bytes(b"NOPE" + b"\x00" * 16)
        for p in (old, junk):
            with pytest.raises(CheckpointError,
                               match=re.escape(f"{p}: not a checkpoint: ") + ".*magic"):
                load_arrays(p)

    def test_unknown_version_rejected(self, tmp_path):
        good = tmp_path / "good.qrts"
        save_arrays(good, {"w": np.ones(3, dtype=np.float32)})
        raw = bytearray(good.read_bytes())
        assert raw[:6] == b"\x93NUMPY" and raw[6] == 1   # the npy major version byte
        raw[6] = 9
        bad = tmp_path / "v9.qrts"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=re.escape(f"{bad}: ") + r".*version.*\(9, 0\)"):
            load_arrays(bad)

    def test_truncated_rejected(self, tmp_path):
        """A file cut anywhere, inside a header, inside the data or between
        two records, names the file."""
        good = tmp_path / "good.qrts"
        save_arrays(good, {"v": np.ones(3, dtype=np.float64),
                           "w": np.ones((4, 4), dtype=np.float32)})
        raw = good.read_bytes()
        second = raw.index(b"\x93NUMPY", raw.index(b"\x93NUMPY", 1) + 1)   # w's record
        bad = tmp_path / "cut.qrts"
        for cut in (20, second - 8, second, second + 20, len(raw) - 8):
            bad.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match=re.escape(f"{bad}: not a checkpoint")):
                load_arrays(bad)

    @pytest.mark.parametrize("arr", [np.arange(4, dtype=np.int32),
                                     np.array([{"w": 1.0}], dtype=object)],
                             ids=["int", "object"])
    def test_non_float_array_rejected(self, tmp_path, arr):
        """Only float32 and float64 arrays load; an object array is never
        unpickled. Neither can be saved."""
        p = tmp_path / "x.qrts"
        with open(p, "wb") as fh:
            npy.write_array(fh, np.array(["w"]))
            npy.write_array(fh, arr, allow_pickle=True)
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: not a checkpoint")):
            load_arrays(p)
        with pytest.raises(CheckpointError, match="unsupported dtype"):
            save_arrays(tmp_path / "y.qrts", {"w": arr})

    @pytest.mark.parametrize("names", [np.ones(2), np.array([["a"], ["b"]]), np.array("w")],
                             ids=["float", "2-D", "0-D"])
    def test_names_must_be_one_string_array(self, tmp_path, names):
        p = tmp_path / "x.qrts"
        with open(p, "wb") as fh:
            npy.write_array(fh, names)
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: not a checkpoint: the names")):
            load_arrays(p)

    def test_data_after_the_last_array_rejected(self, tmp_path):
        p = tmp_path / "x.qrts"
        save_arrays(p, {"w": np.ones(2, dtype=np.float32)})
        with open(p, "ab") as fh:
            npy.write_array(fh, np.ones(2, dtype=np.float32))
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: not a checkpoint: data after")):
            load_arrays(p)

    def test_params_roundtrip_through_model(self, tmp_path):
        clf = init_classifier(np.random.default_rng(1), 9, 9, 4, 4)
        path = tmp_path / "clf.qrts"
        save_arrays(path, {k: t.data for k, t in clf.named().items()})
        clf2 = init_classifier(np.random.default_rng(2), 9, 9, 4, 4)
        assign_params(clf2.named(), load_arrays(path))
        for k in clf.named():
            np.testing.assert_array_equal(clf.named()[k].data, clf2.named()[k].data)
        assert list(load_arrays(path)) == list(clf.named())

    def test_parameter_names_and_order(self):
        """The names and the order every checkpoint stores; ``HeadParams``'
        dropout setting is not a parameter."""
        rng = np.random.default_rng(0)
        lstm = ["wx", "wh", "b"]
        assert list(init_classifier(rng, 9, 9, 4, 4).named()) == [
            "clf.emb_q", "clf.emb_t", *(f"clf.lstm_q.{n}" for n in lstm),
            *(f"clf.lstm_t.{n}" for n in lstm), "clf.attn.w_h", "clf.attn.w",
            "clf.attn.w_r", "clf.attn.w_x", "clf.head.w1", "clf.head.b1",
            "clf.head.w2", "clf.head.b2"]
        assert list(init_ved(rng, 4, 4, 3, 9).named()) == [
            "ved.lat.w_mu", "ved.lat.b_mu", "ved.lat.w_logvar", "ved.lat.b_logvar",
            "ved.lat.w_init", "ved.lat.b_init", *(f"ved.dec.lstm.{n}" for n in lstm),
            "ved.dec.w_a", "ved.dec.w_c", "ved.dec.w_v", "ved.dec.b_v"]
        assert list(init_dssm(rng, 9, 9, 4, 4).named()) == [
            "dssm.emb_q", "dssm.emb_t", "dssm.w1", "dssm.b1", "dssm.w2", "dssm.b2"]

    def test_name_mismatch_fails_fast(self, tmp_path):
        path = tmp_path / "x.qrts"
        save_arrays(path, {"only": np.ones(2, dtype=np.float32)})
        with pytest.raises(CheckpointError, match="do not match"):
            assign_params({"other": Tensor(np.ones(2))}, load_arrays(path))

    def test_shape_mismatch_fails_fast(self, tmp_path):
        path = tmp_path / "x.qrts"
        save_arrays(path, {"w": np.ones((2, 2), dtype=np.float32)})
        with pytest.raises(CheckpointError, match="shape"):
            assign_params({"w": Tensor(np.ones((3, 2)))}, load_arrays(path))


class TestConfig:
    def test_defaults_mirror_reference_setup(self):
        cfg = paper_profile()
        assert cfg.hidden_size == 300
        assert cfg.embed_dim == 300
        assert cfg.lr == 1e-4
        assert cfg.ved_lr == 1e-3
        assert cfg.decay_factor == 0.8
        assert cfg.decay_every == 10
        assert cfg.dropout == 0.1
        assert cfg.batch_size == 128
        assert cfg.beta == 5.0

    def test_desk_profile_overrides(self):
        cfg = desk_profile()
        assert (cfg.hidden_size, cfg.embed_dim, cfg.batch_size) == (64, 64, 32)

    def test_parse_key_value(self):
        cfg = parse_config("hidden_size = 16\nlr = 0.01\n# comment\nseed=3\n")
        assert cfg.hidden_size == 16 and cfg.lr == 0.01 and cfg.seed == 3

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="hiden_size"):
            parse_config("hiden_size = 16\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config("batch_size = many\n")

    def test_roundtrip(self, tmp_path):
        cfg = desk_profile(seed=5, p=0.4)
        (tmp_path / "run.cfg").write_text(cfg.to_text())
        again = load_config(tmp_path / "run.cfg")
        assert again == cfg
        assert again.hash() == cfg.hash()

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(p=1.0)
        with pytest.raises(ConfigError):
            RunConfig(beta=0.5)
        with pytest.raises(ConfigError):
            RunConfig(precision="f16")
        for name in ("clf_epochs", "ved_epochs", "e2e_epochs"):
            with pytest.raises(ConfigError, match=name):
                RunConfig(**{name: 0})
        for name in ("hidden_size", "embed_dim", "latent_dim", "batch_size",
                     "max_title_len", "max_query_len", "gen_max_len", "beam_size",
                     "triple_cap", "min_count"):
            with pytest.raises(ConfigError, match=name):
                RunConfig(**{name: 0})
        for dropout in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError, match="dropout"):
                RunConfig(dropout=dropout)
        for name in ("lr", "ved_lr"):
            for value in (0.0, -1.0, float("nan")):
                with pytest.raises(ConfigError, match=name):
                    RunConfig(**{name: value})

    def test_decay_settings_validated(self):
        for value in (-1.0, 0.0, 1.5, float("nan")):
            with pytest.raises(ConfigError, match="decay_factor"):
                RunConfig(decay_factor=value)
        for value in (0, -3):
            with pytest.raises(ConfigError, match="decay_every"):
                RunConfig(decay_every=value)
        assert RunConfig(decay_factor=1.0, decay_every=1).decay_factor == 1.0

    def test_manifest_roundtrip(self, tmp_path):
        cfg = desk_profile(seed=5, p=0.4)
        m = RunManifest()
        m.record_phase("classifier", "phase1.qrts", 1.25, cfg, {"train.tsv": "abc123"}, IDS,
                       [{"epoch": 0, "loss": 0.5}])
        m.save(tmp_path / "manifest.json")
        back = RunManifest.load(tmp_path / "manifest.json")
        assert back == m
        entry = back.phases["classifier"]
        assert list(entry) == ["checkpoint", "seconds", "config", "data", "ids", "records"]
        assert RunConfig(**entry["config"]) == cfg
        assert RunConfig(**entry["config"]).hash() == cfg.hash()
        assert entry["checkpoint"] == "phase1.qrts"
        assert entry["data"] == {"train.tsv": "abc123"}
        assert entry["ids"] == IDS
        assert entry["records"] == [{"epoch": 0, "loss": 0.5}]

    def test_manifest_written_with_datasets_is_refused(self, tmp_path):
        """Manifests written before phases carried their data hashes have a
        top-level ``datasets`` field that nothing ever filled; it is an
        unknown key like any other."""
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "datasets": {}, "created": "then",
            "phases": {"classifier": {"checkpoint": "phase1.qrts", "seconds": 1.0,
                                      "config": {}, "data": {}, "ids": {}, "records": []}}}))
        with pytest.raises(ConfigError, match=f"{path}: unknown manifest key 'datasets'"):
            RunManifest.load(path)


def _manifest(data: dict) -> RunManifest:
    m = RunManifest()
    m.record_phase("classifier", "phase1.qrts", 1.0, desk_profile(), data, IDS, [])
    return m


IDS = {"vocab_q": "0a1b", "vocab_t": "2c3d", "max_title_len": 16, "max_query_len": 8}
PAIR = RawPair("red shoe", "shoe", 0, "annotated")

# (write a good file, write one that raises after some bytes are out, what it raises)
SAVERS = {
    "checkpoint": (lambda path: save_arrays(path, {"a": np.arange(3.0)}),
                   lambda path: save_arrays(path, {"a": np.ones(4), "b": np.ones(2, np.int32)}),
                   CheckpointError),
    "manifest": (lambda path: _manifest({"train.tsv": "abc"}).save(path),
                 lambda path: _manifest({"train.tsv": object()}).save(path), TypeError),
    "pairs": (lambda path: write_pairs(path, [PAIR]),
              lambda path: write_pairs(path, [PAIR, PAIR, ("red shoe", "box", 1)]),
              AttributeError),
}


@pytest.mark.parametrize("kind", SAVERS)
def test_failed_save_keeps_previous_file(tmp_path, kind):
    """A save that raises mid-write leaves the file it would replace bitwise
    intact and no temporary file behind."""
    good, bad, error = SAVERS[kind]
    path = tmp_path / "out"
    good(path)
    before = path.read_bytes()
    with pytest.raises(error):
        bad(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_matches_textbook_bitwise(dtype):
    """Three steps give the bits of the textbook update; a parameter absent
    from the gradient map keeps its values and moments."""
    rng = np.random.default_rng(4)
    shapes = {"w": (5, 3), "b": (3,), "skip": (2, 2)}
    with T.using_dtype(dtype):
        params = {k: Tensor(rng.standard_normal(s)) for k, s in shapes.items()}
    want = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros_like(a) for k, a in want.items()}
    v = {k: np.zeros_like(a) for k, a in want.items()}
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    opt = Adam(params, lr)
    assert (opt.BETA1, opt.BETA2, opt.EPS) == (b1, b2, eps)
    for t in range(1, 4):
        grads = {params[k]: rng.standard_normal(shapes[k]).astype(dtype) for k in ("w", "b")}
        opt.step(grads)
        for k in ("w", "b"):
            g = grads[params[k]]
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            want[k] = want[k] - (lr / (1.0 - b1 ** t)) * m[k] / (
                np.sqrt(v[k] / (1.0 - b2 ** t)) + eps)
        for k, p in params.items():
            assert p.data.dtype == dtype
            assert p.data.tobytes() == want[k].tobytes(), (k, t)
            assert opt.m[k].tobytes() == m[k].tobytes() and opt.v[k].tobytes() == v[k].tobytes()


def test_adam_step_allocates_at_most_one_parameter():
    """The update runs in place: one step on a 4 MB parameter raises the
    traced heap's peak by at most that parameter's size (numpy reports
    its buffers to tracemalloc), plus a little for Python objects."""
    p = Tensor(np.ones((1024, 1024), np.float32))
    grads = {p: np.full(p.shape, 0.5, np.float32)}
    opt = Adam({"w": p}, 1e-3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        opt.step(grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= p.data.nbytes + 64 * 1024, (peak - base) / p.data.nbytes
