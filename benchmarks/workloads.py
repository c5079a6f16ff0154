"""The two benchmark workloads: set-up, timed loop and correctness gate.

Each workload is a closed loop with one caller in one process. Work is
done in units (one saliency query, or one pass of four CLI subcommands
over one shard of the suite) until the timed part of the units adds up to the
requested seconds. Only the call into ``ebr`` is timed; generating the
next clip, computing its reference and checking the outputs happen
between timed regions.

Every output is checked against ``oracle``. An operation (a query, or
one subcommand of a pass) that raises or fails a check is counted in
``failed`` and the loop goes on.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import os
import resource
import shutil
import statistics
import time
import traceback

import numpy as np

import oracle
import spans

CLASSES = 4
NOISE = 0.05
SETUP_REPEATS = {"query": 5, "suite": 3}  # set-ups per run; their median is setup_s
SPEC_POOL = 4096  # clips a query workload may draw from
EB_MODES = ("EB", "cEB", "EB-R", "cEB-R")

# The suite is cut into shards of n / shards clips, one gen-synth data set
# each; one unit of work is a pass over one shard. An odd shard count lets
# every shard alternate between traced and untraced units.
FULL = {
    "suite": {"n": 200, "shards": 5, "size": 32, "t": 16},
    "query": {"size": 128, "t": 64},
}
TOY = {
    "suite": {"n": 8, "shards": 1, "size": 32, "t": 16},
    "query": {"size": 32, "t": 16},
}

QUERY_WORKLOADS = {
    "query-128-input": ("input", ("cEB-R", "BP-R")),
}
# the saliency modes some workload runs; each gets a per-call median when traced
RUN_MODES = ("cEB-R", "BP-R")
WORKLOADS = ("cli-suite-32", *QUERY_WORKLOADS)


class Run:
    """State of one benchmark run: counters, samples and the optional tracer."""

    def __init__(self, ebr, work_dir, seed, seconds, trace, scale=FULL):
        self.ebr = ebr
        self.work_dir = work_dir
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.tracer = spans.Tracer(ebr) if trace else None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setup_s = []
        self.samples_ms = []  # latency samples of untraced units
        self.items = 0  # queries or clips behind samples_ms
        self.unit_ms = {True: [], False: []}  # unit wall time, keyed by traced
        self.traced_work = 0  # queries or passes run with tracing on
        self.details = {}

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    @contextlib.contextmanager
    def unit(self, index: int):
        """Run one unit of work, traced on odd units when tracing is on."""
        traced = self.tracer is not None and index % 2 == 1
        gc.collect()  # start every unit without garbage left by the last one
        if traced:
            self.tracer.unit = index
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            yield traced
        finally:
            self.unit_ms[traced].append((time.perf_counter() - t0) * 1e3)
            if traced:
                self.tracer.uninstall()


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# checks


def conservation_ok(seq, mode: str, length: int) -> bool:
    """Delivered mass plus CNN leak equals the mass the head delivered.

    After normalization each live branch carries mass 1 (per frame for EB
    and cEB), a zero branch carries 0 and the dual branch enters negated.
    """
    zero = seq.zero_branches
    if mode in ("EB-R", "cEB-R"):
        expected = float("pos" not in zero) - float(mode == "cEB-R" and "dual" not in zero)
    else:
        expected = length - sum(b.startswith("pos[") for b in zero)
        if mode == "cEB":
            expected -= length - sum(b.startswith("dual[") for b in zero)
    delivered = sum(float(np.sum(m)) for m in seq.maps)
    if not oracle.close(delivered + seq.leaked["cnn"], expected):
        return False
    return all(oracle.close(mass + leak, expected) for _, mass, leak in seq.layer_records or ())


def query_problem(seq, mode, ref_fp, length) -> str | None:
    """None when a run_saliency result passes the gate; else what failed.

    ``seq`` is the result, or the traceback text when the query raised."""
    if isinstance(seq, str):
        return seq
    try:
        if not oracle.fingerprints_close(oracle.fingerprint(seq.maps), ref_fp):
            return "map sums or L1 norms differ from reference"
        if mode in EB_MODES and not conservation_ok(seq, mode, length):
            return "delivered plus leaked mass is not conserved"
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        return f"unreadable result: {type(e).__name__}: {e}"
    return None


# ---------------------------------------------------------------------------
# library queries at 128x128


def run_queries(run: Run, target: str, modes) -> None:
    ebr = run.ebr
    cfg = run.scale["query"]
    size, T = cfg["size"], cfg["t"]
    shape = (1, size, size)

    def setup():
        model = ebr.synth.build_toy_model(CLASSES, shape, T)
        specs = ebr.synth.dataset_specs(SPEC_POOL, CLASSES, "mixed", T, T // 2, NOISE, run.seed, shape)
        sc = ebr.synth.gen_synthetic_clip(specs[0])
        prior = ebr.eb.PriorSpec.one_hot(CLASSES, sc.gt_class, T - 1)
        for mode in modes:  # warm-up unit
            ebr.eb.run_saliency(model, sc.clip, prior, mode, target)
        return model, specs

    for _ in range(SETUP_REPEATS["query"]):
        (model, specs), dt = _timed(setup)
        run.setup_s.append(dt)
    manifest = os.path.join(run.work_dir, "model", "manifest.json")
    ebr.model.serialize_manifest(model, manifest)
    ref_model = oracle.RefModel(manifest)

    timed = 0.0
    for i in range(1, len(specs)):
        if timed >= run.seconds:
            break
        timed += query_clip(run, model, ref_model, specs[i], i, target, modes)
    run.details["queries_per_unit"] = len(modes)


def query_clip(run: Run, model, ref_model, spec, index, target, modes) -> float:
    """Generate one clip, query it in every mode as one unit of work, check
    the results; returns the seconds spent inside ``run_saliency``.

    Everything here is local, so the clip and its reference are freed
    before the next clip is generated."""
    ebr = run.ebr
    sc = ebr.synth.gen_synthetic_clip(spec)
    T = sc.clip.length
    prior = ebr.eb.PriorSpec.one_hot(CLASSES, sc.gt_class, T - 1)
    cache = oracle.RefCache(ref_model, sc.clip.frames)
    refs = {
        m: oracle.fingerprint(oracle.saliency_maps(ref_model, sc.clip.frames, sc.gt_class, T - 1, m, target, cache))
        for m in modes
    }
    timed = 0.0
    problems = {}
    with run.unit(index) as traced:
        for mode in modes:
            t0 = time.perf_counter()
            try:
                seq = ebr.eb.run_saliency(model, sc.clip, prior, mode, target)
            except Exception:
                seq = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            timed += dt
            if traced:
                run.traced_work += 1
            else:
                run.samples_ms.append(dt * 1e3)
                run.items += 1
            # checked now so that no earlier result is alive during the next query
            problems[mode] = query_problem(seq, mode, refs[mode], T)
            seq = None
    for mode, problem in problems.items():
        run.record(problem is None, f"clip {index} {mode}: {problem}")
    return timed


# ---------------------------------------------------------------------------
# the batch CLI path on the 200-clip suite


def _cli(ebr, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return ebr.cli.main(argv)


def _gen_argv(out, n, cfg, seed):
    return [
        "gen-synth", "--out", out, "--n", str(n), "--classes", str(CLASSES), "--t", str(cfg["t"]),
        "--height", str(cfg["size"]), "--width", str(cfg["size"]),
        "--layout", "mixed", "--noise", str(NOISE), "--seed", str(seed),
    ]


def _pass_argvs(data, out):
    model = os.path.join(data, "model", "manifest.json")
    sal = os.path.join(out, "sal")
    return [
        ("saliency", ["saliency", "--model", model, "--data", data, "--mode", "cEB-R",
                      "--target", "conv1", "--jobs", "1", "--out", sal]),
        ("ground", ["ground", "--method", "combined", "--saliency", sal, "--model", model,
                    "--data", data, "--out", os.path.join(out, "seg")]),
        ("eval", ["eval", "--segments", os.path.join(out, "seg", "segments.csv"), "--data", data,
                  "--saliency", sal, "--out", os.path.join(out, "eval")]),
        ("render", ["render", "--saliency", sal, "--data", data, "--out", os.path.join(out, "render")]),
    ]


def _stale(path, since_ns) -> str | None:
    """Outputs are overwritten in place, so a file older than the pass is a leftover."""
    if os.stat(path).st_mtime_ns < since_ns:
        return f"{path} was not rewritten by this pass"
    return None


def _check_saliency(ref, out, since_ns) -> str | None:
    for cid, clip in ref["clips"].items():
        path = os.path.join(out, "sal", f"sal_{cid}.ebt")
        problem = _stale(path, since_ns)
        if problem:
            return problem
        if not oracle.fingerprints_close(oracle.fingerprint(oracle.read_ebt(path)), clip["fingerprint"]):
            return f"saliency maps of clip {cid} differ from reference"
    return None


def _check_ground(ref, out, since_ns) -> str | None:
    path = os.path.join(out, "seg", "segments.csv")
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    if rows != ref["rows"]:
        bad = next((r for r, g in zip(rows, ref["rows"]) if r != g), None)
        return f"segments.csv differs from reference (first differing row: {bad})"
    return _stale(path, since_ns)


def _check_eval(ref, out, since_ns) -> str | None:
    path = os.path.join(out, "eval", "summary.json")
    with open(path, encoding="utf-8") as f:
        summary = json.load(f)
    got = {k: summary.get(k) for k in ref["summary"]}
    if got != ref["summary"]:
        return f"summary.json {got} != reference {ref['summary']}"
    return _stale(path, since_ns)


def _check_render(ref, out, since_ns) -> str | None:
    for cid, clip in ref["clips"].items():
        want = oracle.overlay(oracle.read_ebt(os.path.join(ref["data_dir"], clip["file"])), clip["maps"])
        for t in range(ref["length"]):
            path = os.path.join(out, "render", f"{cid}_f{t:03d}.ppm")
            problem = _stale(path, since_ns)
            if problem:
                return problem
            img = oracle.read_ppm(path)
            if img.shape != want[t].shape or np.abs(img - want[t]).max() > 0.51:
                return f"overlay {cid} frame {t} differs from reference"
    return None


CHECKS = {"saliency": _check_saliency, "ground": _check_ground, "eval": _check_eval, "render": _check_render}


def _run_pass(ebr, data, out):
    """The four timed subcommands; returns ({stage: exit code or traceback}, {stage: seconds})."""
    codes, times = {}, {}
    for name, argv in _pass_argvs(data, out):
        t0 = time.perf_counter()
        try:
            codes[name] = _cli(ebr, argv)
        except Exception:
            codes[name] = traceback.format_exc(limit=3)
        times[name] = time.perf_counter() - t0
    return codes, times


def run_suite(run: Run) -> None:
    """Set-up, three times over (the median counts): generate the sharded
    suite and run one warm-up pass over every shard, each into fresh
    directories. The units then go round the shards of the last set-up, so
    a run holds many short samples rather than a few passes over all 200
    clips. Each shard's passes write into the output directory its warm-up
    pass created: on ext4, creating the overlay files anew costs about
    0.5 ms each and swings from pass to pass, while overwriting them reuses
    their inodes."""
    ebr = run.ebr
    cfg = run.scale["suite"]
    shards = cfg["shards"]
    per_shard = cfg["n"] // shards
    gen_s, warm_s = [], []
    for rep in range(SETUP_REPEATS["suite"]):
        if rep:
            shutil.rmtree(os.path.join(run.work_dir, f"set{rep - 1}"))
        base = os.path.join(run.work_dir, f"set{rep}")
        datas = [os.path.join(base, "data", f"shard{k}") for k in range(shards)]
        outs = [os.path.join(base, "out", f"shard{k}") for k in range(shards)]
        t0 = time.perf_counter()
        for k, data in enumerate(datas):
            code = _cli(ebr, _gen_argv(data, per_shard, cfg, run.seed * shards + k))
            if code:
                raise RuntimeError(f"gen-synth exited with {code}")
        t1 = time.perf_counter()
        for data, out in zip(datas, outs):
            codes, _ = _run_pass(ebr, data, out)
            if any(codes.values()):
                raise RuntimeError(f"warm-up pass failed: {codes}")
        gen_s.append(t1 - t0)
        warm_s.append(time.perf_counter() - t1)
    run.setup_s = [g + w for g, w in zip(gen_s, warm_s)]
    run.details["setup_parts_s"] = {"gen_synth": gen_s, "warm_up_pass": warm_s}
    refs = [oracle.suite_reference(data) for data in datas]

    stages = {name: [] for name, _ in _pass_argvs(datas[0], outs[0])}
    timed = 0.0
    i = 0
    while timed < run.seconds:
        i += 1
        k = (i - 1) % shards
        since_ns = time.time_ns() - 20_000_000  # file times come from a coarser clock
        with run.unit(i) as traced:
            codes, times = _run_pass(ebr, datas[k], outs[k])
        total = sum(times.values())
        timed += total
        if traced:
            run.traced_work += 1
        else:
            run.samples_ms.append(total * 1e3)
            run.items += per_shard
            for name, dt in times.items():
                stages[name].append(dt)
        for name, code in codes.items():
            try:
                problem = f"exit {code}" if code != 0 else CHECKS[name](refs[k], outs[k], since_ns)
            except (OSError, ValueError, KeyError) as e:
                problem = f"{type(e).__name__}: {e}"
            run.record(problem is None, f"pass {i} shard {k} {name}: {problem}")
    run.details["clips_per_unit"] = per_shard
    run.details["stage_median_s"] = {k: statistics.median(v) for k, v in stages.items() if v}
    run.details["loc_acc"] = [r["summary"]["localization_accuracy"] for r in refs]
    run.details["spatial_pointing"] = [r["summary"]["spatial_pointing"] for r in refs]


# ---------------------------------------------------------------------------
# metrics


def tail(samples):
    """Highest percentile with at least 10 samples beyond it, as (value, pct, n).

    With fewer than 21 samples that percentile lies below the median, so
    the median is reported in its place with pct 50.
    """
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(run: Run) -> dict:
    """The gated metrics, and the median and throughput in the details.

    On a shared host whose speed swings about 2x for seconds at a time, the
    median of a run moves with the share of the run spent slow: up to half
    its value between runs of the same code. The tail sits in the slow
    state on most runs: over ten 30-second runs its interquartile range
    was 0.05 to 0.18 of its median on each workload, against 0.13 to 0.48
    for the median, so only the tail is gated."""
    value, pct, n = tail(run.samples_ms)
    run.details["latency_samples"] = n
    run.details["latency_samples_ms"] = [round(v, 3) for v in run.samples_ms]
    run.details["latency_tail_percentile"] = pct
    run.details["latency_p50_ms"] = statistics.median(run.samples_ms)
    run.details["throughput_per_s"] = run.items / (sum(run.samples_ms) / 1e3)
    run.details["setup_samples"] = len(run.setup_s)
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "latency_tail_ms": (value, "ms"),
    }


SPAN_METRICS = [
    ("forward.forward_clip.calls", "count", "forward.forward_clip", "calls"),
    ("forward.forward_clip.ms", "ms", "forward.forward_clip", "ms"),
    ("forward.im2col.ms", "ms", "forward.im2col", "ms"),
    ("forward.im2col.bytes_computed", "B", "forward.im2col", "bytes"),
    ("forward.conv2d_forward.ms", "ms", "forward.conv2d_forward", "ms"),
    ("forward.maxpool_forward.ms", "ms", "forward.maxpool_forward", "ms"),
    ("forward.col2im.ms", "ms", "forward.col2im", "ms"),
    ("eb.eb_conv_backward.ms", "ms", "eb.eb_conv_backward", "ms"),
    ("eb.eb_pool_backward.ms", "ms", "eb.eb_pool_backward", "ms"),
    ("eb.eb_linear_backward.ms", "ms", "eb.eb_linear_backward", "ms"),
    ("eb.eb_recurrent_backward.ms", "ms", "eb.eb_recurrent_backward", "ms"),
    ("gradients.bp_saliency.ms", "ms", "gradients.bp_saliency", "ms"),
    ("gradients.bp_saliency.self_ms", "ms", "gradients.bp_saliency", "self_ms"),
    ("synth.gt_class_probabilities.ms", "ms", "synth.gt_class_probabilities", "ms"),
    ("grounding.temporal_ground.ms", "ms", "grounding.temporal_ground", "ms"),
    ("grounding.spatial_point.ms", "ms", "grounding.spatial_point", "ms"),
    ("tensorfile.load_tensor.calls", "count", "tensorfile.load_tensor", "calls"),
    ("tensorfile.load_tensor.ms", "ms", "tensorfile.load_tensor", "ms"),
    ("tensorfile.load_tensor.bytes", "B", "tensorfile.load_tensor", "bytes"),
    ("tensorfile.save_tensor.calls", "count", "tensorfile.save_tensor", "calls"),
    ("tensorfile.save_tensor.ms", "ms", "tensorfile.save_tensor", "ms"),
    ("tensorfile.save_tensor.bytes", "B", "tensorfile.save_tensor", "bytes"),
    ("render.overlay_sequence.ms", "ms", "render.overlay_sequence", "ms"),
    ("render.write_ppm.ms", "ms", "render.write_ppm", "ms"),
    ("render.write_ppm.bytes", "B", "render.write_ppm", "bytes"),
    ("model.parse_manifest.calls", "count", "model.parse_manifest", "calls"),
    ("model.parse_manifest.ms", "ms", "model.parse_manifest", "ms"),
] + [
    (f"cli.cmd_{c}.{f}", "ms", f"cli.cmd_{c}", f)
    for c in ("saliency", "ground", "eval", "render")
    for f in ("ms", "self_ms")
]

COL2IM_CALLERS = ("eb.eb_conv_backward", "gradients.bp_saliency")


def per_layer(run: Run) -> dict:
    tracer = run.tracer
    summary = tracer.summarize(max(run.traced_work, 1))
    have = tracer.functions
    zero = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "bytes": 0, "frames": 0}
    out, missing = {}, set()
    for metric, unit, name, field in SPAN_METRICS:
        if name not in have:
            missing.add(name)
            continue
        out[metric] = (summary["per_unit"].get(name, zero)[field], unit)
    raw = summary["raw"]
    if "forward.forward_clip" in have and "eb.run_saliency" in have:
        queried = raw.get("eb.run_saliency", zero)["frames"]
        forwarded = raw.get("forward.forward_clip", zero)["frames"]
        out["forward.frames_forwarded_per_query_frame"] = (forwarded / queried if queried else 0.0, "ratio")
    else:
        missing.update({"forward.forward_clip", "eb.run_saliency"} - set(have))
    for caller in COL2IM_CALLERS:
        if "forward.col2im" in have and caller in have:
            out[f"forward.col2im.under.{caller}.ms"] = (summary["col2im_by_parent_ms"].get(caller, 0.0), "ms")
        else:
            missing.update({"forward.col2im", caller} - set(have))
    if "eb.run_saliency" in have:
        for mode in RUN_MODES:
            out[f"eb.run_saliency.{mode}.p50_ms"] = (summary["mode_p50_ms"][mode], "ms")
    traced, plain = run.unit_ms[True], run.unit_ms[False]
    if traced and plain:
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    else:
        overhead = 0.0
    out["trace_overhead_frac"] = (overhead, "frac")
    run.details["missing_public_names"] = sorted(missing)
    run.details["traced_work"] = run.traced_work
    run.details["run_saliency_samples"] = summary["mode_samples"]
    run.details["binding_sites"] = {k: sorted(v) for k, v in sorted(tracer.sites.items())}
    return out


def run_workload(ebr, name: str, work_dir: str, seed: int, seconds: float, trace: bool, scale=FULL) -> Run:
    run = Run(ebr, work_dir, seed, seconds, trace, scale)
    if name == "cli-suite-32":
        run_suite(run)
    elif name in QUERY_WORKLOADS:
        run_queries(run, *QUERY_WORKLOADS[name])
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return run


def metrics(run: Run) -> dict:
    pairs = per_layer(run) if run.tracer is not None else end_to_end(run)
    return {k: {"value": float(v), "unit": u} for k, (v, u) in pairs.items()}
