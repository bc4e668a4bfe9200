import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vidmood import cli
from vidmood.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, _model_overrides,
                         load_run_config, main)
from vidmood.manifest import VideoRecord, save_manifest
from vidmood.models import default_config
from vidmood.pipeline import PipelineConfig, RawVideo
from vidmood.vten import read_vten, write_vten

from reference import preprocess_stack_reference


def _write_config(tmp_path, **extra):
    cfg = {
        "data": {"side": 16, "length": 16, "clip_len": 8},
        "model": {"name": "cnn_lstm", "channels": [2], "proj_dim": 8, "hidden": 8},
        "train": {"max_epochs": 2, "lr": 0.01, "batch_size": 4},
        "experiment": {"task": "binary", "aggregation": "subject"},
        "seed": 3,
    }
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _synth(tmp_path, out="corpus", subjects=3, seed=3):
    code = main(["synth", "--subjects", str(subjects), "--frame-size", "16",
                 "--video-frames", "16", "--seed", str(seed),
                 "--out", str(tmp_path / out)])
    assert code == EXIT_OK
    return tmp_path / out


def _preprocess(tmp_path, cfg, corpus, out="prep"):
    code = main(["preprocess", "--config", str(cfg),
                 "--manifest", str(corpus / "manifest.json"),
                 "--out", str(tmp_path / out)])
    assert code == EXIT_OK
    return tmp_path / out


# -- synth -----------------------------------------------------------------------


def test_synth_writes_sized_corpus(tmp_path):
    corpus = _synth(tmp_path, subjects=4)
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert len({rec["subject_id"] for rec in manifest}) == 4
    first = manifest[0]
    assert (corpus / first["video"]).exists()


def test_synth_is_byte_identical_across_runs(tmp_path):
    a = _synth(tmp_path, out="a")
    b = _synth(tmp_path, out="b")
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    rec = json.loads((a / "manifest.json").read_text())[0]
    assert (a / rec["video"]).read_bytes() == (b / rec["video"]).read_bytes()


def test_synth_zero_subjects_is_config_error(tmp_path, capsys):
    code = main(["synth", "--subjects", "0", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_synth_without_subjects_is_config_error(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x")]) == EXIT_CONFIG


# -- preprocess -------------------------------------------------------------------


def test_preprocess_emits_clips_and_manifest(tmp_path):
    cfg = _write_config(tmp_path)
    corpus = _synth(tmp_path)
    prep = _preprocess(tmp_path, cfg, corpus)
    manifest = json.loads((prep / "manifest.json").read_text())
    clips = read_vten(prep / manifest[0]["video"])
    assert clips.shape == (2, 8, 16, 16, 3)  # 16 frames / 8 per clip
    assert clips.dtype == np.float32


def test_preprocess_rerun_is_bit_identical(tmp_path):
    cfg = _write_config(tmp_path)
    corpus = _synth(tmp_path)
    a = _preprocess(tmp_path, cfg, corpus, out="p1")
    b = _preprocess(tmp_path, cfg, corpus, out="p2")
    rec = json.loads((a / "manifest.json").read_text())[0]
    assert (a / rec["video"]).read_bytes() == (b / rec["video"]).read_bytes()


def test_preprocess_missing_videos_exit_io_listing_them(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    corpus = _synth(tmp_path)
    victim = json.loads((corpus / "manifest.json").read_text())[0]["video"]
    (corpus / victim).unlink()
    code = main(["preprocess", "--config", str(cfg),
                 "--manifest", str(corpus / "manifest.json"),
                 "--out", str(tmp_path / "p")])
    assert code == EXIT_IO
    assert victim in capsys.readouterr().err


def test_preprocess_corrupt_video_exit_io_naming_file(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    corpus = _synth(tmp_path)
    victim = json.loads((corpus / "manifest.json").read_text())[0]["video"]
    raw = bytearray((corpus / victim).read_bytes())
    raw[:4] = b"XXXX"
    (corpus / victim).write_bytes(bytes(raw))
    code = main(["preprocess", "--config", str(cfg),
                 "--manifest", str(corpus / "manifest.json"),
                 "--out", str(tmp_path / "p")])
    assert code == EXIT_IO
    assert victim in capsys.readouterr().err


def _raw_corpus(tmp_path, name, shapes, seed=0):
    """Raw uint8 videos of the given (frames, height, width) and their manifest."""
    root = tmp_path / name
    (root / "videos").mkdir(parents=True)
    rng = np.random.default_rng(seed)
    records = []
    for i, (t, h, w) in enumerate(shapes):
        rel = f"videos/v{i}.vten"
        write_vten(root / rel, rng.integers(0, 256, (t, h, w, 3), dtype=np.uint8))
        records.append(VideoRecord(subject_id=f"s{i}", video=rel, task=1, state="ON",
                                   gds=3, site="test"))
    save_manifest(root / "manifest.json", records)
    return root


def test_preprocess_writes_the_stacked_chain_of_each_video(tmp_path):
    cfg = _write_config(tmp_path)   # side 16, length 16, clip_len 8
    corpus = _raw_corpus(tmp_path, "raw", [(20, 18, 24), (9, 16, 16), (16, 30, 17)])
    prep = _preprocess(tmp_path, cfg, corpus)
    pipe_cfg = PipelineConfig(side=16, length=16, clip_len=8)
    for row in json.loads((prep / "manifest.json").read_text()):
        raw = read_vten(corpus / "videos" / Path(row["video"]).name.replace("_clips", ""))
        want = preprocess_stack_reference(RawVideo(frames=raw, source_id="v"), pipe_cfg)
        got = read_vten(prep / row["video"])
        assert got.tobytes() == want.tobytes()


def test_preprocess_peak_memory_is_one_video_whatever_the_count(tmp_path):
    """The run's traced peak is bounded by one video and one clip stack: a
    3-video manifest peaks within one clip of a 1-video one."""
    cfg = _write_config(tmp_path, data={"side": 32, "length": 40, "clip_len": 10})
    shape = (48, 40, 36)
    one = _raw_corpus(tmp_path, "one", [shape], seed=1)
    three = _raw_corpus(tmp_path, "three", [shape] * 3, seed=2)
    clip_bytes = 10 * 32 * 32 * 3 * 4

    def peak(corpus, out):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _preprocess(tmp_path, cfg, corpus, out=out)
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(one, "warm")
        p1, p3 = peak(one, "p1"), peak(three, "p3")
    finally:
        tracemalloc.stop()
    assert p1 > 4 * clip_bytes, "the run should hold at least its clip stack"
    assert p3 - p1 <= clip_bytes, (
        f"3 videos peak {p3 - p1} B above 1 video; one clip is {clip_bytes} B")


# -- loso -------------------------------------------------------------------------


def _loso(tmp_path, cfg, prep, out="run", extra=()):
    return main(["loso", "--config", str(cfg),
                 "--manifest", str(prep / "manifest.json"),
                 "--out", str(tmp_path / out), *extra])


def test_loso_writes_reports_and_logs(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    prep = _preprocess(tmp_path, cfg, _synth(tmp_path))
    assert _loso(tmp_path, cfg, prep) == EXIT_OK

    out = tmp_path / "run"
    head = json.loads((out / "metrics.json").read_text())
    assert set(head) == {"spec", "accuracy", "precision_macro", "recall_macro",
                         "f1_macro", "per_class", "confusion", "folds"}
    assert head["spec"]["model"] == "cnn_lstm"
    assert head["spec"]["aggregation"] == "subject"
    assert len(head["folds"]) == 3
    assert (out / "metrics_clip.json").exists()
    assert (out / "metrics_video.json").exists()
    logs = sorted((out / "logs").glob("fold_*.jsonl"))
    assert len(logs) == 3
    rec = json.loads(logs[0].read_text().splitlines()[0])
    assert set(rec) == {"epoch", "train_loss", "val_loss", "lr"}
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert "acc" in summary and "f1" in summary


def test_loso_same_seed_metrics_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    prep = _preprocess(tmp_path, cfg, _synth(tmp_path))
    assert _loso(tmp_path, cfg, prep, out="r1") == EXIT_OK
    assert _loso(tmp_path, cfg, prep, out="r2") == EXIT_OK
    a = (tmp_path / "r1" / "metrics.json").read_bytes()
    b = (tmp_path / "r2" / "metrics.json").read_bytes()
    assert a == b


def test_loso_state_flag_is_echoed(tmp_path):
    cfg = _write_config(tmp_path)
    prep = _preprocess(tmp_path, cfg, _synth(tmp_path))
    assert _loso(tmp_path, cfg, prep, extra=["--state", "ON"]) == EXIT_OK
    head = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert head["spec"]["state_filter"] == "ON"


def test_loso_multiclass_emits_three_class_confusion(tmp_path):
    cfg = _write_config(tmp_path)
    prep = _preprocess(tmp_path, cfg, _synth(tmp_path, subjects=4))
    assert _loso(tmp_path, cfg, prep, extra=["--task", "multiclass"]) == EXIT_OK
    head = json.loads((tmp_path / "run" / "metrics.json").read_text())
    conf = head["confusion"]
    assert len(conf) == 3 and all(len(row) == 3 for row in conf)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_loso_numeric_blowup_exits_four(tmp_path):
    cfg = _write_config(tmp_path)
    config = json.loads(Path(cfg).read_text())
    config["train"]["lr"] = 1e30
    cfg.write_text(json.dumps(config))
    prep = _preprocess(tmp_path, cfg, _synth(tmp_path))
    assert _loso(tmp_path, cfg, prep) == EXIT_NUMERIC


def test_out_of_memory_exits_four_without_traceback(monkeypatch, capsys):
    def exhausted(args, config):
        raise MemoryError("Unable to allocate 1.21 GiB for an array with shape (1, 864, 376320)")

    monkeypatch.setitem(cli._COMMANDS, "report", exhausted)
    assert main(["report"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err == ("error: out of memory: Unable to allocate 1.21 GiB for an array "
                   "with shape (1, 864, 376320)\n")


# -- I/O failures --------------------------------------------------------------------


def _cli_child(args, cwd, fsize=None):
    """Run the CLI in a child process, with ``RLIMIT_FSIZE`` at ``fsize``
    bytes set on the child alone (so a write past it fails with EFBIG)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (fsize, fsize))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "vidmood.cli", *args], cwd=cwd, env=env,
                          preexec_fn=None if fsize is None else limit, capture_output=True,
                          text=True, timeout=300)


def _assert_io_exit(run, path):
    assert run.returncode == EXIT_IO, run.stderr
    assert run.stderr.startswith(f"error: {path}: ")
    assert "Traceback" not in run.stderr and len(run.stderr.splitlines()) == 1


def _leftovers(root, name):
    """Files under ``root`` named ``name``, or temp files of it."""
    return [p for p in root.rglob("*") if p.name == name or p.name.startswith(f".{name}.")]


def test_synth_over_file_size_limit_exits_io_naming_the_clip(tmp_path):
    run = _cli_child(["synth", "--subjects", "1", "--frame-size", "32", "--video-frames", "30",
                      "--out", "c"], tmp_path, fsize=20000)
    name = "s000_t1_ON.vten"
    _assert_io_exit(run, Path("c") / "videos" / name)
    assert "File too large" in run.stderr
    assert _leftovers(tmp_path, name) == [] and _leftovers(tmp_path, "manifest.json") == []


def test_preprocess_over_file_size_limit_exits_io_naming_the_clip(tmp_path):
    corpus = _synth(tmp_path)
    cfg = _write_config(tmp_path)
    run = _cli_child(["preprocess", "--config", str(cfg), "--manifest",
                      str(corpus / "manifest.json"), "--out", "p"], tmp_path, fsize=20000)
    name = "s000_t1_ON_clips.vten"
    _assert_io_exit(run, Path("p") / "clips" / name)
    assert _leftovers(tmp_path / "p", name) == []
    assert _leftovers(tmp_path / "p", "manifest.json") == []


def test_loso_over_file_size_limit_exits_io_naming_the_metrics(tmp_path):
    cfg = _write_config(tmp_path)
    prep = _preprocess(tmp_path, cfg, _synth(tmp_path))
    run = _cli_child(["loso", "--config", str(cfg), "--manifest", str(prep / "manifest.json"),
                      "--out", "run"], tmp_path, fsize=64)
    _assert_io_exit(run, Path("run") / "metrics.json")
    assert _leftovers(tmp_path / "run", "metrics.json") == []


@pytest.mark.parametrize("command", ["synth", "preprocess"])
def test_out_under_a_file_exits_io_naming_it(tmp_path, command):
    corpus = _synth(tmp_path)
    (tmp_path / "afile").write_text("")
    args = (["synth", "--subjects", "1", "--out", "afile/x"] if command == "synth" else
            ["preprocess", "--manifest", str(corpus / "manifest.json"), "--out", "afile"])
    run = _cli_child(args, tmp_path)
    assert run.returncode == EXIT_IO, run.stderr
    assert run.stderr.startswith("error: afile/") and "Not a directory" in run.stderr
    assert "Traceback" not in run.stderr
    assert (tmp_path / "afile").read_text() == ""


# -- config handling -----------------------------------------------------------------


def test_unknown_top_level_config_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"data": {}, "optimizer": "adam"}))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_run_config(path)


def test_unknown_section_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"train": {"learning_rate": 0.1}}))
    with pytest.raises(ValueError, match="train"):
        load_run_config(path)


@pytest.mark.parametrize("key, value", [("input_shape", [8, 16, 16, 3]), ("classes", 3)])
def test_model_keys_derived_from_clips_and_task_rejected(tmp_path, capsys, key, value):
    cfg = {"model": {"name": "cnn_lstm", key: value}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=f"model.{key}"):
        load_run_config(path)
    # loso names the key and exits 2 before reading any manifest
    assert main(["loso", "--config", str(path), "--manifest", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert f"model.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    ("synth", {"data": 5}),
    ("loso", {"model": ["vivit"]}),
])
def test_non_object_config_section_exits_two_naming_it(tmp_path, capsys, command, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    section = next(iter(config))
    with pytest.raises(ValueError, match=f"section '{section}' must be an object"):
        load_run_config(path)
    args = (["synth", "--subjects", "3"] if command == "synth"
            else ["loso", "--manifest", str(tmp_path / "none.json")])
    assert main(args + ["--config", str(path), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert f"'{section}'" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("data", "clip_len", 0),
    ("data", "side", 0),
    ("cnn_lstm", "hidden", 0),
    ("vivit", "heads", 0),
    ("vivit", "image_patch", 0),
    ("swin3d_t", "heads", [0, 2, 2, 2]),
])
def test_zero_extent_exits_two_naming_it(tmp_path, capsys, section, key, value):
    """An extent a config divides by or sizes arrays with is checked when
    the config is built: zero is a config error naming the field, not a
    ZeroDivisionError."""
    good = _write_config(tmp_path)
    corpus = _synth(tmp_path)
    config = json.loads(good.read_text())
    if section == "data":
        config["data"][key] = value
        args = ["preprocess", "--manifest", str(corpus / "manifest.json")]
    else:
        config["model"] = {"name": section, key: value}
        args = ["loso", "--manifest", str(_preprocess(tmp_path, good, corpus) / "manifest.json")]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(args + ["--config", str(path), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{key} must be positive" in err and "Traceback" not in err


def test_model_overrides_turn_lists_into_tuples_only():
    vivit = _model_overrides({"model": {"name": "vivit", "heads": 2, "input_shape": [8, 16, 16, 3]}})
    assert vivit == {"heads": 2, "input_shape": (8, 16, 16, 3)}
    assert default_config("vivit", **vivit).heads == 2
    swin = _model_overrides({"model": {"name": "swin3d_t", "heads": [1, 2], "depths": [1, 1]}})
    assert swin == {"heads": (1, 2), "depths": (1, 1)}
    assert default_config("swin3d_t", **swin).heads == (1, 2)


def test_bad_config_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nonsense": 1}))
    assert main(["synth", "--subjects", "3", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_seed_flag_wins_over_config(tmp_path):
    cfg = _write_config(tmp_path)  # config seed 3
    a = _synth(tmp_path, out="a", seed=9)
    code = main(["synth", "--subjects", "3", "--frame-size", "16",
                 "--video-frames", "16", "--config", str(cfg), "--seed", "9",
                 "--out", str(tmp_path / "b")])
    assert code == EXIT_OK
    assert ((tmp_path / "a" / "manifest.json").read_bytes()
            == (tmp_path / "b" / "manifest.json").read_bytes())


# -- report ---------------------------------------------------------------------------


def test_report_renders_rows_and_csv(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    prep = _preprocess(tmp_path, cfg, _synth(tmp_path))
    assert _loso(tmp_path, cfg, prep) == EXIT_OK
    capsys.readouterr()

    metrics = tmp_path / "run" / "metrics.json"
    clip_metrics = tmp_path / "run" / "metrics_clip.json"
    code = main(["report", str(metrics), str(clip_metrics),
                 "--out", str(tmp_path / "rep")])
    assert code == EXIT_OK
    text = (tmp_path / "rep" / "report.txt").read_text()
    csv_text = (tmp_path / "rep" / "report.csv").read_text()
    assert len(text.strip().splitlines()) == 3  # header + two rows
    assert len(csv_text.strip().splitlines()) == 3
    # identical numbers in both renderings
    head = json.loads(metrics.read_text())
    acc = f"{head['accuracy']:.4f}"
    assert acc in text and acc in csv_text
    assert capsys.readouterr().out.count("cnn_lstm") == 2


def test_report_single_row(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps({
        "spec": {"model": "vivit", "task": "binary", "state_filter": "both",
                 "aggregation": "subject"},
        "accuracy": 0.9, "precision_macro": 0.8, "recall_macro": 0.7,
        "f1_macro": 0.75, "per_class": [], "confusion": [], "folds": []}))
    assert main(["report", str(metrics)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.9000" in out and "vivit" in out


def test_report_malformed_metrics_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"accuracy": 0.5}))
    assert main(["report", str(bad)]) == EXIT_CONFIG


def test_report_without_inputs_exits_two(tmp_path):
    assert main(["report"]) == EXIT_CONFIG
