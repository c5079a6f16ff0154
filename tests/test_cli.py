import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ebr.cli import main
from ebr.eb import load_saliency
from ebr.grounding import Segment, localization_accuracy


def run(*argv):
    return main([str(a) for a in argv])


def gen(out, **kw):
    args = ["gen-synth", "--out", out, "--classes", 4, "--t", 8, "--n", 6,
            "--layout", "mixed", "--noise", 0.05, "--seed", 3]
    for k, v in kw.items():
        args += [f"--{k}", v]
    assert run(*args) == 0


def dir_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            p = os.path.join(base, name)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


def test_full_pipeline(tmp_path):
    data = tmp_path / "data"
    gen(data)
    assert (data / "index.json").exists()
    assert (data / "model" / "manifest.json").exists()
    sal = tmp_path / "sal"
    assert run("saliency", "--model", data / "model" / "manifest.json", "--data", data,
               "--mode", "cEB-R", "--target", "conv1", "--out", sal) == 0
    gnd = tmp_path / "gnd"
    assert run("ground", "--method", "ceb-r", "--saliency", sal, "--data", data,
               "--out", gnd) == 0
    ev = tmp_path / "ev"
    assert run("eval", "--segments", gnd / "segments.csv", "--data", data,
               "--alpha", 0.5, "--saliency", sal, "--out", ev) == 0
    summary = json.loads((ev / "summary.json").read_text())
    assert summary["localization_accuracy"] >= 0.9
    assert summary["temporal_pointing"]["saliency"] >= 0.9
    img = tmp_path / "img"
    assert run("render", "--saliency", sal, "--data", data, "--out", img) == 0
    ppms = sorted(p.name for p in img.glob("*.ppm"))
    assert len(ppms) == 6 * 8
    assert ppms[0] == "0000_f000.ppm"


def test_gen_synth_deterministic(tmp_path):
    gen(tmp_path / "a")
    first = dir_bytes(tmp_path / "a")
    gen(tmp_path / "a")  # identical flags, same destination
    second = dir_bytes(tmp_path / "a")
    assert first.keys() == second.keys()
    assert all(first[k] == second[k] for k in first)


def test_pipeline_bytes_identical_across_runs_and_jobs(tmp_path):
    data = tmp_path / "data"
    gen(data)
    outs = []
    for name, jobs in (("s1", "1"), ("s2", "1"), ("s4", "4")):
        out = tmp_path / name
        assert run("saliency", "--model", data / "model" / "manifest.json",
                   "--data", data, "--mode", "cEB-R", "--target", "conv1",
                   "--jobs", jobs, "--out", out) == 0
        outs.append(dir_bytes(out))
    assert outs[0].keys() == outs[1].keys() == outs[2].keys()
    for k in outs[0]:
        if k == "manifest.json":
            continue  # records the differing --jobs flag
        assert outs[0][k] == outs[1][k] == outs[2][k], k


def test_invalid_layout_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as e:
        run("gen-synth", "--out", tmp_path / "x", "--layout", "sideways")
    assert e.value.code == 2


def test_eb_r_refused_for_unknown_length_grounding(tmp_path, capsys):
    data = tmp_path / "data"
    gen(data)
    for mode, reason in (("EB-R", "non-negative"), ("cEB", "zero apart from leak")):
        sal = tmp_path / f"sal_{mode}"
        assert run("saliency", "--model", data / "model" / "manifest.json", "--data", data,
                   "--mode", mode, "--target", "conv1", "--out", sal) == 0
        code = run("ground", "--method", "ceb-r", "--saliency", sal, "--data", data,
                   "--out", tmp_path / "gnd")
        assert code == 2
        err = capsys.readouterr().err
        assert f"mode {mode}," in err and reason in err
        # known-length grounding of the same maps is fine
        assert run("ground", "--method", "ceb-r", "--saliency", sal, "--data", data,
                   "--length", 4, "--out", tmp_path / "gnd2") == 0


def test_prob_method_and_combined(tmp_path, monkeypatch):
    import ebr.synth

    data = tmp_path / "data"
    gen(data)
    model = data / "model" / "manifest.json"
    forwarded = []
    forward_clip = ebr.synth.forward_clip
    monkeypatch.setattr(ebr.synth, "forward_clip",
                        lambda *a, **k: forwarded.append(1) or forward_clip(*a, **k))
    assert run("ground", "--method", "prob", "--model", model, "--data", data,
               "--out", tmp_path / "gp") == 0
    assert len(forwarded) == 6  # one forward pass per clip
    rows = (tmp_path / "gp" / "segments.csv").read_text().strip().splitlines()
    assert len(rows) == 7  # header + 6 clips
    assert rows[0].split(",")[2] == "method"
    sal = tmp_path / "sal"
    assert run("saliency", "--model", model, "--data", data, "--mode", "cEB-R",
               "--target", "conv1", "--out", sal) == 0
    assert run("ground", "--method", "combined", "--saliency", sal, "--model", model,
               "--data", data, "--out", tmp_path / "gc") == 0
    ev = tmp_path / "ev"
    assert run("eval", "--segments", tmp_path / "gc" / "segments.csv", "--data", data,
               "--out", ev) == 0
    summary = json.loads((ev / "summary.json").read_text())
    assert summary["temporal_pointing"]["combined"] is not None


def test_eval_alpha_consistent_with_library(tmp_path):
    data = tmp_path / "data"
    gen(data)
    model = data / "model" / "manifest.json"
    sal = tmp_path / "sal"
    run("saliency", "--model", model, "--data", data, "--mode", "cEB-R",
        "--target", "conv1", "--out", sal)
    gnd = tmp_path / "gnd"
    run("ground", "--method", "ceb-r", "--saliency", sal, "--data", data, "--out", gnd)
    ev = tmp_path / "ev"
    run("eval", "--segments", gnd / "segments.csv", "--data", data, "--alpha", 0.5,
        "--out", ev)
    summary = json.loads((ev / "summary.json").read_text())
    index = json.loads((data / "index.json").read_text())
    gts = {e["id"]: Segment(*e["gt_segment"]) for e in index["clips"]}
    preds, gt_list = [], []
    import csv

    with open(gnd / "segments.csv") as f:
        for row in csv.DictReader(f):
            preds.append(Segment(int(row["start"]), int(row["end"])))
            gt_list.append(gts[row["video_id"]])
    assert summary["localization_accuracy"] == localization_accuracy(preds, gt_list, 0.5)


def test_single_clip_saliency_and_missing_unit(tmp_path):
    data = tmp_path / "data"
    gen(data)
    model = data / "model" / "manifest.json"
    out = tmp_path / "one"
    assert run("saliency", "--model", model, "--clip", data / "clip_0000.ebt",
               "--mode", "EB-R", "--target", "conv1", "--out", out) == 0
    maps, meta = load_saliency(out / "sal_clip_0000.ebt")
    assert maps.shape[0] == 8
    assert meta["mode"] == "EB-R"
    # unit by label name
    assert run("saliency", "--model", model, "--clip", data / "clip_0000.ebt",
               "--mode", "EB-R", "--target", "conv1", "--unit", "class_2",
               "--out", tmp_path / "two") == 0


def test_missing_saliency_flag_usage_error(tmp_path):
    data = tmp_path / "data"
    gen(data)
    assert run("ground", "--method", "ceb-r", "--data", data,
               "--out", tmp_path / "g") == 2


def test_missing_data_runtime_error(tmp_path):
    code = run("ground", "--method", "ceb-r", "--saliency", tmp_path,
               "--data", tmp_path / "absent", "--out", tmp_path / "g")
    assert code == 1


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "ebr.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "gen-synth" in proc.stdout
