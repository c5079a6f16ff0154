"""Command-line pipeline: generate, saliency, ground, eval, render.

Every subcommand writes its outputs under ``--out`` together with a
``manifest.json`` recording the invoked configuration, and is fully
reproducible from its flags (no hidden state, no timestamps). Exit codes:
0 success, 1 runtime failure, 2 usage error. Set ``EBR_LOG`` to a level
name (e.g. ``INFO``) for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import multiprocessing
import os
import sys

import numpy as np

from .eb import PriorSpec, load_saliency, run_saliency, save_saliency
from .forward import load_clip, save_clip
from .grounding import (
    Segment,
    fixed_length_ground,
    localization_accuracy,
    segment_iou,
    spatial_point,
    temporal_ground,
)
from .model import (
    ModelManifest,
    NonNegativityError,
    parse_manifest,
    serialize_manifest,
    validate_eb_assumptions,
)
from .render import overlay_sequence, write_ppm
from .synth import build_toy_model, dataset_specs, gen_synthetic_clip, gt_class_probabilities

log = logging.getLogger("ebr")

# modes whose per-frame map sums cannot change sign at an action boundary:
# EB and EB-R sums are non-negative, a cEB frame sums to zero apart from leak
UNSIGNED_SUM_MODES = ("EB", "EB-R", "cEB")


class UsageError(Exception):
    """Configuration problem the user has to fix; maps to exit code 2."""


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _write_run_manifest(out_dir: str, command: str, args: argparse.Namespace) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("command", "func")}
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        {"format_version": 1, "command": command, "config": config},
    )


def _load_index(data_dir: str) -> dict:
    path = os.path.join(data_dir, "index.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no index.json under {data_dir}")
    return _read_json(path)


def _resolve_unit(model: ModelManifest, unit: str) -> int:
    if unit in model.labels:
        return model.labels.index(unit)
    try:
        idx = int(unit)
    except ValueError:
        raise UsageError(f"unknown output unit {unit!r}; labels are {model.labels}")
    if not 0 <= idx < len(model.labels):
        raise UsageError(f"unit index {idx} outside 0..{len(model.labels) - 1}")
    return idx


def _load_model(path: str) -> ModelManifest:
    model = parse_manifest(path)
    violations = validate_eb_assumptions(model)
    if violations:
        raise UsageError(str(NonNegativityError(violations)))
    return model


# ---------------------------------------------------------------------------
# gen-synth


def cmd_gen_synth(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    frame_shape = (1, args.height, args.width)
    gt_length = args.gt_length if args.gt_length is not None else args.t // 2
    specs = dataset_specs(
        num_clips=args.n,
        num_classes=args.classes,
        layout=args.layout,
        clip_length=args.t,
        gt_length=gt_length,
        noise=args.noise,
        seed=args.seed,
        frame_shape=frame_shape,
    )
    model = build_toy_model(args.classes, frame_shape, args.t, decay=args.decay)
    serialize_manifest(model, os.path.join(args.out, "model", "manifest.json"))
    entries = []
    for i, spec in enumerate(specs):
        sc = gen_synthetic_clip(spec)
        cid = f"{i:04d}"
        fname = f"clip_{cid}.ebt"
        save_clip(sc.clip, os.path.join(args.out, fname))
        entries.append({"id": cid, "file": fname, **sc.clip.meta})
        log.info("generated %s (%s, gt=[%d,%d])", fname, spec.layout, sc.gt.start, sc.gt.end)
    index = {
        "format_version": 1,
        "config": {
            "classes": args.classes,
            "t": args.t,
            "n": args.n,
            "layout": args.layout,
            "gt_length": gt_length,
            "noise": args.noise,
            "seed": args.seed,
            "height": args.height,
            "width": args.width,
            "decay": args.decay,
        },
        "clips": entries,
    }
    _write_json(os.path.join(args.out, "index.json"), index)
    _write_run_manifest(args.out, "gen-synth", args)
    print(f"wrote {len(entries)} clips + model to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# saliency


_WORKER: dict = {}


def _init_saliency_worker(model_path: str, cfg: dict) -> None:
    _WORKER["model"] = _load_model(model_path)
    _WORKER["cfg"] = cfg


def _saliency_one(job: dict) -> str:
    model: ModelManifest = _WORKER["model"]
    cfg = _WORKER["cfg"]
    clip = load_clip(job["clip_path"])
    step = cfg["step"] if cfg["step"] is not None else clip.length - 1
    prior = PriorSpec.one_hot(len(model.labels), job["unit"], step=step)
    seq = run_saliency(
        model, clip, prior, cfg["mode"], cfg["target"], absolute_grads=cfg["absolute"]
    )
    final = job["out_path"]
    tmp = final + ".tmp"
    save_saliency(seq, tmp)
    os.replace(tmp, final)
    os.replace(tmp + ".json", final + ".json")
    return job["id"]


def _saliency_jobs(args, model: ModelManifest) -> list[dict]:
    jobs = []
    if args.clip:
        clip = load_clip(args.clip)
        unit = (
            _resolve_unit(model, args.unit)
            if args.unit is not None
            else clip.meta.get("gt_class")
        )
        if unit is None:
            raise UsageError("--unit is required when the clip metadata has no gt_class")
        cid = os.path.splitext(os.path.basename(args.clip))[0]
        jobs.append(
            {
                "id": cid,
                "clip_path": args.clip,
                "out_path": os.path.join(args.out, f"sal_{cid}.ebt"),
                "unit": int(unit),
            }
        )
        return jobs
    index = _load_index(args.data)
    for entry in index["clips"]:
        unit = (
            _resolve_unit(model, args.unit) if args.unit is not None else entry["gt_class"]
        )
        jobs.append(
            {
                "id": entry["id"],
                "clip_path": os.path.join(args.data, entry["file"]),
                "out_path": os.path.join(args.out, f"sal_{entry['id']}.ebt"),
                "unit": int(unit),
            }
        )
    return jobs


def cmd_saliency(args) -> int:
    if bool(args.data) == bool(args.clip):
        raise UsageError("pass exactly one of --data or --clip")
    model = _load_model(args.model)
    os.makedirs(args.out, exist_ok=True)
    jobs = _saliency_jobs(args, model)
    cfg = {"mode": args.mode, "target": args.target, "step": args.step, "absolute": args.absolute}
    if args.jobs > 1 and len(jobs) > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(
            args.jobs, initializer=_init_saliency_worker, initargs=(args.model, cfg)
        ) as pool:
            for cid in pool.imap_unordered(_saliency_one, jobs, chunksize=8):
                log.info("saliency done for %s", cid)
    else:
        _WORKER["model"] = model
        _WORKER["cfg"] = cfg
        for job in jobs:
            _saliency_one(job)
            log.info("saliency done for %s", job["id"])
    _write_run_manifest(args.out, "saliency", args)
    print(f"wrote {len(jobs)} saliency sequences to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# ground


def _saliency_sums(sal_dir: str, cid: str) -> tuple[np.ndarray, dict]:
    path = os.path.join(sal_dir, f"sal_{cid}.ebt")
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing saliency file {path}")
    maps, meta = load_saliency(path)
    return maps.sum(axis=(1, 2)), meta


def cmd_ground(args) -> int:
    needs_sal = args.method in ("ceb-r", "combined")
    needs_prob = args.method in ("prob", "combined")
    if needs_sal and not args.saliency:
        raise UsageError(f"method {args.method} needs --saliency")
    if needs_prob and (not args.model or not args.data):
        raise UsageError(f"method {args.method} needs --model and --data")
    index = _load_index(args.data)
    if not index["clips"]:
        raise UsageError(f"{args.data} lists no clips")
    model = _load_model(args.model) if needs_prob else None
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for entry in index["clips"]:
        cid = entry["id"]
        label = entry["gt_class"]
        peak_sal = ""
        peak_prob = ""
        if needs_sal:
            sums, meta = _saliency_sums(args.saliency, cid)
            if args.length is None and meta.get("mode") in UNSIGNED_SUM_MODES:
                raise UsageError(
                    f"saliency was computed with mode {meta['mode']}, whose per-frame map "
                    f"sums are non-negative (EB, EB-R) or zero apart from leak (cEB); "
                    f"unknown-length grounding needs a signed signal, so use cEB-R or "
                    f"pass --length"
                )
            peak_sal = int(np.argmax(sums))
            scores = sums
        if needs_prob:
            clip = load_clip(os.path.join(args.data, entry["file"]))
            probs = gt_class_probabilities(model, clip, label)
            peak_prob = int(np.argmax(probs))
            if args.method == "prob":
                scores = np.where(probs >= 0.5, 1.0, -1.0)
        if args.length is not None:
            seg = fixed_length_ground(scores, args.length)
            degenerate = False
        else:
            seg, degenerate = temporal_ground(scores)
        rows.append(
            {
                "video_id": cid,
                "label": label,
                "method": args.method,
                "start": seg.start,
                "end": seg.end,
                "degenerate": int(degenerate),
                "peak_sal": peak_sal,
                "peak_prob": peak_prob,
            }
        )
    out_csv = os.path.join(args.out, "segments.csv")
    with open(out_csv, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    _write_run_manifest(args.out, "ground", args)
    print(f"wrote {len(rows)} segments to {out_csv}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    index = _load_index(args.data)
    by_id = {e["id"]: e for e in index["clips"]}
    with open(args.segments, "r", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise UsageError(f"{args.segments} holds no rows")
    os.makedirs(args.out, exist_ok=True)
    preds, gts = [], []
    results = []
    hits_sal = hits_prob = hits_comb = hits_rand = 0
    n_sal = n_prob = n_comb = 0
    boundary_ok = 0
    rng = np.random.default_rng(args.seed)
    for row in rows:
        entry = by_id.get(row["video_id"])
        if entry is None:
            raise UsageError(f"clip id {row['video_id']} not present in the index")
        gt = Segment(*entry["gt_segment"], label=entry["gt_class"])
        pred = Segment(int(row["start"]), int(row["end"]))
        preds.append(pred)
        gts.append(gt)
        iou = segment_iou(pred, gt)
        within1 = abs(pred.start - gt.start) <= 1 and abs(pred.end - gt.end) <= 1
        boundary_ok += within1
        clip_len = index["config"]["t"]
        rand_peak = int(rng.integers(0, clip_len))
        hits_rand += gt.start <= rand_peak <= gt.end
        rec = {
            "video_id": row["video_id"],
            "label": row["label"],
            "start": pred.start,
            "end": pred.end,
            "iou": f"{iou:.6f}",
            "hit": int(iou >= args.alpha),
            "boundary_within_1": int(within1),
        }
        sal_hit = prob_hit = None
        if row.get("peak_sal"):
            sal_hit = gt.start <= int(row["peak_sal"]) <= gt.end
            hits_sal += sal_hit
            n_sal += 1
        if row.get("peak_prob"):
            prob_hit = gt.start <= int(row["peak_prob"]) <= gt.end
            hits_prob += prob_hit
            n_prob += 1
        if sal_hit is not None and prob_hit is not None:
            # the combined method scores a hit when either peak lands inside
            hits_comb += sal_hit or prob_hit
            n_comb += 1
        rec["peak_sal_hit"] = "" if sal_hit is None else int(sal_hit)
        rec["peak_prob_hit"] = "" if prob_hit is None else int(prob_hit)
        results.append(rec)
    spatial = None
    if args.saliency:
        frame_hw = (index["config"]["height"], index["config"]["width"])
        sp_hits = sp_total = 0
        for row in rows:
            entry = by_id[row["video_id"]]
            maps, _ = load_saliency(os.path.join(args.saliency, f"sal_{entry['id']}.ebt"))
            bbox = tuple(entry["bbox"])
            s, e = entry["gt_segment"]
            # the box annotates the action, so only frames showing it count
            for t in range(s, e + 1):
                point = spatial_point(maps, t, frame_hw, radius=args.radius)
                sp_hits += point.hits(bbox)
                sp_total += 1
        spatial = sp_hits / sp_total
    summary = {
        "format_version": 1,
        "alpha": args.alpha,
        "n": len(rows),
        "method": rows[0]["method"],
        "localization_accuracy": localization_accuracy(preds, gts, args.alpha),
        "mean_iou": float(np.mean([segment_iou(p, g) for p, g in zip(preds, gts)])),
        "boundary_within_1": boundary_ok / len(rows),
        "temporal_pointing": {
            "saliency": None if n_sal == 0 else hits_sal / n_sal,
            "probability": None if n_prob == 0 else hits_prob / n_prob,
            "combined": None if n_comb == 0 else hits_comb / n_comb,
            "random": hits_rand / len(rows),
        },
        "spatial_pointing": spatial,
        "radius": args.radius,
    }
    out_csv = os.path.join(args.out, "results.csv")
    with open(out_csv, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=list(results[0].keys()))
        writer.writeheader()
        writer.writerows(results)
    _write_json(os.path.join(args.out, "summary.json"), summary)
    _write_run_manifest(args.out, "eval", args)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if bool(args.data) == bool(args.clip):
        raise UsageError("pass exactly one of --data or --clip")
    pairs = []
    if args.clip:
        cid = os.path.splitext(os.path.basename(args.clip))[0]
        sal = args.saliency if os.path.isfile(args.saliency) else os.path.join(
            args.saliency, f"sal_{cid}.ebt"
        )
        pairs.append((cid, args.clip, sal))
    else:
        index = _load_index(args.data)
        for entry in index["clips"]:
            pairs.append(
                (
                    entry["id"],
                    os.path.join(args.data, entry["file"]),
                    os.path.join(args.saliency, f"sal_{entry['id']}.ebt"),
                )
            )
    count = 0
    for cid, clip_path, sal_path in pairs:
        clip = load_clip(clip_path)
        maps, _ = load_saliency(sal_path)
        if maps.shape[0] != clip.length:
            raise UsageError(
                f"{sal_path} holds {maps.shape[0]} maps but {clip_path} has "
                f"{clip.length} frames"
            )
        for t, rgb in enumerate(overlay_sequence(clip.frames, maps)):
            write_ppm(os.path.join(args.out, f"{cid}_f{t:03d}.ppm"), rgb)
            count += 1
        log.info("rendered %s", cid)
    _write_run_manifest(args.out, "render", args)
    print(f"wrote {count} frames to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ebr",
        description="Spatiotemporal saliency and grounding for recurrent video models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="generate a synthetic benchmark plus its toy model")
    g.add_argument("--out", required=True)
    g.add_argument("--classes", type=int, default=4)
    g.add_argument("--t", type=int, default=16, help="frames per clip")
    g.add_argument("--n", type=int, default=200, help="number of clips")
    g.add_argument(
        "--layout",
        choices=("gt-first", "rand-first", "rand-gt-rand", "mixed"),
        default="mixed",
    )
    g.add_argument("--gt-length", type=int, default=None, help="default: t // 2")
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--height", type=int, default=32)
    g.add_argument("--width", type=int, default=32)
    g.add_argument("--decay", type=float, default=0.5, help="recurrent memory decay")
    g.set_defaults(func=cmd_gen_synth)

    s = sub.add_parser("saliency", help="compute saliency sequences for clips")
    s.add_argument("--model", required=True, help="path to manifest.json")
    s.add_argument("--data", help="dataset directory with index.json")
    s.add_argument("--clip", help="single .ebt clip instead of --data")
    s.add_argument("--mode", required=True, choices=("EB", "cEB", "EB-R", "cEB-R", "BP", "BP-R"))
    s.add_argument("--target", required=True, help="layer name, or 'input'")
    s.add_argument("--unit", default=None, help="output unit (label or index); default: clip gt class")
    s.add_argument("--step", type=int, default=None, help="prior time step; default: last frame")
    s.add_argument("--absolute", action="store_true", help="absolute values for BP modes")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_saliency)

    gr = sub.add_parser("ground", help="derive temporal segments from saliency or probabilities")
    gr.add_argument("--method", required=True, choices=("ceb-r", "prob", "combined"))
    gr.add_argument("--saliency", help="directory produced by 'ebr saliency'")
    gr.add_argument("--model", help="needed for method prob/combined")
    gr.add_argument("--data", required=True, help="dataset directory with index.json")
    gr.add_argument("--length", type=int, default=None, help="known action length (frames)")
    gr.add_argument("--out", required=True)
    gr.set_defaults(func=cmd_ground)

    e = sub.add_parser("eval", help="score segments and pointing games against ground truth")
    e.add_argument("--segments", required=True, help="segments.csv from 'ebr ground'")
    e.add_argument("--data", required=True, help="dataset directory with index.json")
    e.add_argument("--alpha", type=float, default=0.5)
    e.add_argument("--saliency", default=None, help="also run the spatial pointing game")
    e.add_argument("--radius", type=float, default=7.5)
    e.add_argument("--seed", type=int, default=0, help="seed for the random pointing baseline")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("render", help="write per-frame PPM overlays")
    r.add_argument("--saliency", required=True, help="saliency directory or single .ebt file")
    r.add_argument("--data", help="dataset directory")
    r.add_argument("--clip", help="single clip instead of --data")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("EBR_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        log.debug("traceback", exc_info=True)
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
