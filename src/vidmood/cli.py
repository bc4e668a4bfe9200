"""Batch command-line front end: synth, preprocess, loso, report.

Exit codes are a stable scripting contract: 0 success, 2 usage or config
error, 3 I/O error, 4 numeric failure during training or out of memory.
Every I/O failure (a missing, corrupt or unwritable file, an output path
under a regular file, a full disk or a file-size limit) exits 3 with
``error: <path>: <reason>`` on stderr and no traceback, and an atomic
write that fails leaves neither the target nor its temp file behind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .experiment import ExperimentSpec, run_experiment
from .manifest import ManifestError, VideoRecord, load_manifest, save_manifest
from .models import MODEL_NAMES, default_config
from .pipeline import PipelineConfig, RawVideo, clip_stack_shape, preprocess_video
from .synth import SynthSpec, generate_corpus
from .tensor import NumericError
from .training import TrainConfig, default_train_config
from .vten import VtenError, read_vten, write_vten

__all__ = ["main", "load_run_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_DATA_KEYS = {"manifest", "side", "length", "clip_len"}
_EXPERIMENT_KEYS = {"task", "state_filter", "aggregation"}
_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}
_TOP_KEYS = {"data", "model", "train", "experiment", "output", "seed"}
_DERIVED_MODEL_KEYS = {"input_shape", "classes"}  # loso sets them from the clips and the task


def load_run_config(path) -> dict:
    """Parse and shape-check a run-config JSON document."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"config root must be an object, got {type(raw).__name__}")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for section in ("data", "model", "train", "experiment"):
        if not isinstance(raw.get(section, {}), dict):
            raise ValueError(f"config section {section!r} must be an object, "
                             f"got {type(raw[section]).__name__}")
    for section, allowed in (("data", _DATA_KEYS), ("train", _TRAIN_KEYS),
                             ("experiment", _EXPERIMENT_KEYS)):
        extra = set(raw.get(section, {})) - allowed
        if extra:
            raise ValueError(f"unknown keys in config section {section!r}: {sorted(extra)}")
    model = raw.get("model", {})
    if model and "name" in model and model["name"] not in MODEL_NAMES:
        raise ValueError(f"config model.name must be one of {MODEL_NAMES}")
    for key in sorted(_DERIVED_MODEL_KEYS & set(model)):
        raise ValueError(f"config model.{key} is not settable: it comes from the clips and the task")
    return raw


def _model_overrides(config: dict) -> dict:
    # JSON arrays arrive as lists; model configs hold tuples
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in config.get("model", {}).items() if k != "name"}


# -- synth ---------------------------------------------------------------------


def cmd_synth(args, config: dict) -> int:
    data_cfg = config.get("data", {})
    spec_kwargs = {}
    if args.subjects is not None:
        spec_kwargs["n_subjects"] = args.subjects
    if args.frame_size is not None:
        spec_kwargs["frame_size"] = args.frame_size
    if args.video_frames is not None:
        spec_kwargs["length"] = args.video_frames
    elif "length" in data_cfg:
        spec_kwargs["length"] = data_cfg["length"]
    if "n_subjects" not in spec_kwargs:
        raise ValueError("synth needs --subjects")
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    spec = SynthSpec(seed=seed, **spec_kwargs)
    out = Path(args.out or config.get("output", "corpus"))
    manifest_path = generate_corpus(spec, out)
    print(f"wrote {spec.n_subjects}-subject corpus under {out} (manifest {manifest_path.name})")
    return EXIT_OK


# -- preprocess ------------------------------------------------------------------


def cmd_preprocess(args, config: dict) -> int:
    data_cfg = config.get("data", {})
    manifest_path = Path(args.manifest or data_cfg.get("manifest", ""))
    if not str(manifest_path):
        raise ValueError("preprocess needs --manifest or config data.manifest")
    records = load_manifest(manifest_path)
    src_root = manifest_path.parent

    missing = [r.video for r in records if not (src_root / r.video).exists()]
    if missing:
        raise FileNotFoundError("missing video files: " + ", ".join(sorted(missing)))

    pipe_cfg = PipelineConfig(
        side=data_cfg.get("side", 224),
        length=data_cfg.get("length", 300),
        clip_len=data_cfg.get("clip_len", 30),
    )
    out = Path(args.out or config.get("output", "preprocessed"))
    (out / "clips").mkdir(parents=True, exist_ok=True)

    # one clip stack for the whole run: each video's clips are normalized
    # into it and written from it, and nothing of a video outlives its turn
    stack = np.empty(clip_stack_shape(pipe_cfg), dtype=np.float32)
    new_records = []
    for rec in records:
        clip_rel = f"clips/{Path(rec.video).stem}_clips.vten"
        _preprocess_one(src_root / rec.video, rec.video, pipe_cfg, stack, out / clip_rel)
        new_records.append(dataclasses.replace(rec, video=clip_rel))
    save_manifest(out / "manifest.json", new_records)
    print(f"preprocessed {len(records)} videos -> {out} "
          f"({pipe_cfg.length // pipe_cfg.clip_len} clips each)")
    return EXIT_OK


def _preprocess_one(src: Path, source_id: str, cfg: PipelineConfig, stack: np.ndarray,
                    dst: Path) -> None:
    """Read one raw video, preprocess it into ``stack`` and write the stack."""
    video = RawVideo(frames=read_vten(src), source_id=source_id)
    preprocess_video(video, cfg, out=stack)
    write_vten(dst, stack)


# -- loso ------------------------------------------------------------------------


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path, "w") as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_loso(args, config: dict) -> int:
    manifest_path = Path(args.manifest or config.get("data", {}).get("manifest", ""))
    if not str(manifest_path):
        raise ValueError("loso needs --manifest or config data.manifest")
    records = load_manifest(manifest_path)
    if not records:
        raise ValueError(f"manifest {manifest_path} has no records")
    root = manifest_path.parent

    model_name = args.model or config.get("model", {}).get("name")
    if model_name is None:
        raise ValueError("loso needs --model or config model.name")

    exp_cfg = dict(config.get("experiment", {}))
    if args.task:
        exp_cfg["task"] = args.task
    if args.state:
        exp_cfg["state_filter"] = args.state
    spec = ExperimentSpec(model=model_name, **exp_cfg)

    train_kwargs = dict(config.get("train", {}))
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is not None:
        train_kwargs["seed"] = seed
    train_cfg = default_train_config(model_name, task=spec.task)
    train_cfg = dataclasses.replace(train_cfg, **train_kwargs)

    cache: dict[str, np.ndarray] = {}

    def load_clips(rec: VideoRecord) -> np.ndarray:
        if rec.video not in cache:
            cache[rec.video] = read_vten(root / rec.video)
        return cache[rec.video]

    probe = load_clips(records[0])
    model_cfg = default_config(model_name, input_shape=tuple(probe.shape[1:]),
                               classes=spec.n_classes, **_model_overrides(config))

    result = run_experiment(spec, records, load_clips, model_cfg, train_cfg)

    out = Path(args.out or config.get("output", "results"))
    (out / "logs").mkdir(parents=True, exist_ok=True)
    _write_json(out / "metrics.json", result.headline)
    for level in ("clip", "video", "subject"):
        if level != spec.aggregation:
            _write_json(out / f"metrics_{level}.json", result.reports[level])
    for i, fold in enumerate(result.folds):
        name = f"fold_{i:03d}_{'_'.join(fold.subjects)}.jsonl"
        _write_text(out / "logs" / name, "\n".join(fold.train_result.log_lines()) + "\n")

    head = result.headline
    print(f"{spec.model}  {spec.task}  {spec.state_filter}  {spec.aggregation}  "
          f"acc {head['accuracy']:.4f}  prec {head['precision_macro']:.4f}  "
          f"rec {head['recall_macro']:.4f}  f1 {head['f1_macro']:.4f}")
    return EXIT_OK


# -- report ------------------------------------------------------------------------


_REPORT_FIELDS = ("model", "task", "state", "aggregation",
                  "accuracy", "precision", "recall", "f1")


def _report_row(path: Path) -> dict:
    doc = json.loads(path.read_text())
    try:
        spec = doc["spec"]
        return {
            "model": spec["model"], "task": spec["task"],
            "state": spec["state_filter"], "aggregation": spec["aggregation"],
            "accuracy": f"{doc['accuracy']:.4f}",
            "precision": f"{doc['precision_macro']:.4f}",
            "recall": f"{doc['recall_macro']:.4f}",
            "f1": f"{doc['f1_macro']:.4f}",
        }
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed metrics file {path}: {exc}") from exc


def _render_text(rows: list[dict]) -> str:
    widths = {f: max(len(f), *(len(r[f]) for r in rows)) for f in _REPORT_FIELDS}
    lines = ["  ".join(f.ljust(widths[f]) for f in _REPORT_FIELDS)]
    for r in rows:
        lines.append("  ".join(r[f].ljust(widths[f]) for f in _REPORT_FIELDS))
    return "\n".join(lines) + "\n"


def _render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_REPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_report(args, config: dict) -> int:
    if not args.metrics:
        raise ValueError("report needs at least one metrics JSON path")
    rows = [_report_row(Path(p)) for p in args.metrics]
    text = _render_text(rows)
    print(text, end="")
    if args.out or config.get("output"):
        out = Path(args.out or config["output"])
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "report.txt", text)
        _write_text(out / "report.csv", _render_csv(rows))
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vidmood",
        description="Depression-grading experiments on facial video corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run-config JSON path")
        p.add_argument("--seed", type=int, help="master RNG seed (wins over config)")
        p.add_argument("--out", help="output directory (wins over config)")

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    common(p_synth)
    p_synth.add_argument("--subjects", type=int, help="number of subjects")
    p_synth.add_argument("--frame-size", type=int, help="square frame side in pixels")
    p_synth.add_argument("--video-frames", type=int, help="frames per video")

    p_pre = sub.add_parser("preprocess", help="crop, normalize, and segment videos into clips")
    common(p_pre)
    p_pre.add_argument("--manifest", help="input manifest path")

    p_loso = sub.add_parser("loso", help="leave-one-subject-out training and evaluation")
    common(p_loso)
    p_loso.add_argument("--manifest", help="preprocessed manifest path")
    p_loso.add_argument("--model", choices=MODEL_NAMES)
    p_loso.add_argument("--task", choices=("binary", "multiclass"))
    p_loso.add_argument("--state", choices=("ON", "OFF", "both"))

    p_rep = sub.add_parser("report", help="tabulate metrics JSON files")
    common(p_rep)
    p_rep.add_argument("metrics", nargs="*", help="metrics JSON paths")
    return parser


_COMMANDS = {"synth": cmd_synth, "preprocess": cmd_preprocess,
             "loso": cmd_loso, "report": cmd_report}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config) if args.config else {}
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _COMMANDS[args.command](args, config)
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (VtenError, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        reason = exc if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
