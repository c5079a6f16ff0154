"""Self-test of the benchmark harness at toy size.

    python3 benchmarks/selftest.py

Checks that
  * the reference in ``oracle.py`` still reproduces the fingerprints that
    ``ebr`` produced when the benchmark was defined (``golden.json``);
  * every workload, untraced and traced, emits exactly the metrics that
    BENCHMARK.json names, each with its unit, and passes its own gate;
  * a saliency map perturbed by 1e-6 is counted as failed, while one
    perturbed by 1e-12 (a change of summation order) is not.

``--write-golden`` regenerates ``golden.json`` from the package in this
checkout; do that only when the reference outputs are meant to change.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402

bench.pin_blas_threads()
ebr = bench.import_ebr()

import oracle  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
WORK = os.path.join(bench.ROOT, ".bench_run", f"selftest-{os.getpid()}")
GOLDEN_SEED = 11
GOLDEN_TARGETS = ("conv1", "pool1", "input")


def golden_inputs():
    cfg = workloads.TOY["query"]
    shape = (1, cfg["size"], cfg["size"])
    T = cfg["t"]
    model = ebr.synth.build_toy_model(workloads.CLASSES, shape, T)
    specs = ebr.synth.dataset_specs(2, workloads.CLASSES, "mixed", T, T // 2, workloads.NOISE, GOLDEN_SEED, shape)
    return model, [ebr.synth.gen_synthetic_clip(s) for s in specs], T


def golden_suite_dir():
    data = os.path.join(WORK, "golden-suite")
    argv = workloads._gen_argv(data, workloads.TOY["suite"]["n"], workloads.TOY["suite"], GOLDEN_SEED)
    if workloads._cli(ebr, argv):
        raise RuntimeError("gen-synth failed")
    return data


def write_golden() -> None:
    """Fingerprints and suite outputs of the package in this checkout."""
    model, clips, T = golden_inputs()
    queries = []
    for i, sc in enumerate(clips):
        prior = ebr.eb.PriorSpec.one_hot(workloads.CLASSES, sc.gt_class, T - 1)
        for target in GOLDEN_TARGETS:
            for mode in ebr.eb.MODES:
                seq = ebr.eb.run_saliency(model, sc.clip, prior, mode, target)
                queries.append({"clip": i, "target": target, "mode": mode,
                                "fingerprint": oracle.fingerprint(seq.maps)})
    data = golden_suite_dir()
    out = os.path.join(WORK, "golden-out")
    codes, _ = workloads._run_pass(ebr, data, out)
    if any(codes.values()):
        raise RuntimeError(f"suite pass failed: {codes}")
    with open(os.path.join(out, "seg", "segments.csv"), newline="", encoding="utf-8") as f:
        rows = list(workloads.csv.DictReader(f))
    with open(os.path.join(out, "eval", "summary.json"), encoding="utf-8") as f:
        summary = json.load(f)
    doc = {"seed": GOLDEN_SEED, "queries": queries, "suite_rows": rows, "suite_summary": summary}
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def check_golden(problems) -> None:
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    model, clips, T = golden_inputs()
    manifest = os.path.join(WORK, "golden-model", "manifest.json")
    ebr.model.serialize_manifest(model, manifest)
    ref = oracle.RefModel(manifest)
    for q in golden["queries"]:
        sc = clips[q["clip"]]
        maps = oracle.saliency_maps(ref, sc.clip.frames, sc.gt_class, T - 1, q["mode"], q["target"])
        if not oracle.fingerprints_close(oracle.fingerprint(maps), q["fingerprint"]):
            problems.append(f"oracle disagrees with golden.json on clip {q['clip']} {q['mode']} -> {q['target']}")
    suite = oracle.suite_reference(golden_suite_dir())
    if suite["rows"] != golden["suite_rows"]:
        problems.append("oracle segments differ from golden.json")
    for key, value in suite["summary"].items():
        if golden["suite_summary"].get(key) != value:
            problems.append(f"oracle summary {key}={value} differs from golden.json")


def check_metrics(problems) -> None:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for name in (w["name"] for w in spec["workloads"]):
            run = workloads.run_workload(ebr, name, os.path.join(WORK, name), 5, 0.5, bool(trace), workloads.TOY)
            got = workloads.metrics(run)
            tag = f"{name} --trace {trace}"
            if set(got) != set(want):
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want))} not both emitted and declared")
            for metric, v in got.items():
                if want.get(metric) != v["unit"] or not math.isfinite(v["value"]):
                    problems.append(f"{tag}: {metric} = {v}")
            if run.failed or run.attempted < 1:
                problems.append(f"{tag}: {run.failed} of {run.attempted} operations failed: {run.errors[:2]}")
            shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)


def check_perturbation(problems) -> None:
    original = ebr.eb.run_saliency
    for delta, expect_failures in ((1e-6, True), (1e-12, False)):
        def perturbed(*args, **kwargs):
            seq = original(*args, **kwargs)
            seq.maps[-1] = seq.maps[-1].copy()
            seq.maps[-1].flat[0] += delta
            return seq

        ebr.eb.run_saliency = perturbed
        try:
            run = workloads.run_workload(ebr, "query-128-input", os.path.join(WORK, "perturb"), 5, 0.5, False, workloads.TOY)
        finally:
            ebr.eb.run_saliency = original
        if expect_failures and run.failed != run.attempted:
            problems.append(f"maps perturbed by {delta}: only {run.failed} of {run.attempted} queries failed")
        if not expect_failures and run.failed:
            problems.append(f"maps perturbed by {delta}: {run.failed} of {run.attempted} queries failed")


def main(argv) -> int:
    os.makedirs(WORK, exist_ok=True)
    try:
        if "--write-golden" in argv:
            write_golden()
            print(f"wrote {GOLDEN}")
            return 0
        problems = []
        for check in (check_golden, check_metrics, check_perturbation):
            check(problems)
            print(f"{check.__name__}: {'ok' if not problems else 'FAILED'}", flush=True)
            if problems:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
