"""gelid benchmark: seeded synthetic worlds through gelid's public CLI.

    python3 benchmarks/run.py --workload catalog --seed 1 --seconds 42 --trace 0

Run from the root of a checkout. gelid is imported from the checkout's
``src/``; worlds, outputs and traces go under ``.bench_work/`` there.

Each *execution* is one timed pass over the workload in a fresh interpreter,
so it pays what a user's ``gelid`` invocation pays. Executions run one after
another (a closed loop with one client) until ``--seconds`` is used up, and
every one's outputs are checked. With ``--trace 0`` the run reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it spends half
its time on untraced executions and half on traced ones, and reports the
per-layer metrics.

The bounded time metrics are CPU times scaled to a host of nominal speed.
On a shared virtual machine the same code takes up to 1.5 times the CPU
time it took an hour earlier: the slowdown comes from the machine's other
tenants, so CPU time does not leave it out, and it lasts from seconds to
hours. Every execution starts with the same work that gelid never changes,
starting the interpreter and importing numpy and scipy (``reference_s``,
see ``execute.py``), which slows down with the host as gelid's own work
does. ``run_cpu_s`` and ``setup_s`` are the mean CPU times of a run's
executions times ``NOMINAL_REFERENCE_S`` over their mean ``reference_s``.
Medians of the raw CPU times and of the wall times are printed beside
them; the reference mean is printed as ``reference_s``.

The next-to-last line of standard output is ``detail: `` and a JSON object
with everything the run measured (every metric, absent spans, hashes,
environment, each execution's times); the last line is the result object of ``BENCHMARK.json``'s
contract. The exit status is non-zero when an execution failed or an
output check did.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# every matrix here is small: keep BLAS to one thread, here and in children
BLAS_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PINS)

import checks  # noqa: E402
import worlds  # noqa: E402
from worlds import WorldSpec  # noqa: E402

HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 150.0          # start no execution expected to end later
HARD_LIMIT_S = 170.0          # kill an execution still running by then
MIN_EXECUTIONS = 3            # per phase, even if --seconds is used up
CACHED_WORLDS = 8
# reference_s on a host of nominal speed, so that scaled times read as CPU
# seconds there (a 2.1 GHz Xeon virtual machine, Python 3.11, numpy 2.4,
# scipy 1.17, when its other tenants are busy)
NOMINAL_REFERENCE_S = 1.0

WORKLOADS = {
    # pairwise context and issue matrices dominate; per-video layers short
    "catalog": WorldSpec(
        videos=20, scenes_per_video=25, scene_ms=(18000, 22000),
        frame_step_ms=1000, contexts=16, informative=0.8, probed=0.5,
        cue_every_ms=(5000, 8000)),
    # frames, segmentation, subtitles and per-segment features dominate.
    # With ~40 informative segments one mixed-keyframe segment costs ~3
    # MoJoFM points, so no scene starts talking inside the silence window
    # here; catalog covers cuts snapped at scene boundaries.
    "longplay": WorldSpec(
        videos=2, scenes_per_video=120, scene_ms=(8000, 22000),
        frame_step_ms=200, contexts=4, informative=0.15, probed=0.5,
        cue_every_ms=(2000, 4000), early_speech=0.0),
    # the documented stage chain, then `gelid eval` on every issue group,
    # with a random forest, mean shift contexts and OPTICS issues. The
    # forest has 20 trees: at the default 100 its training took half of
    # run_s, and on a shared 2-vCPU virtual machine the spread of run_s
    # across seeds went past the bound. Group sizes are pinned and frames
    # carry no noise, so the groups (and the MoJoFM enumeration they cost)
    # barely vary with the seed. Groups stop at 5: segments misassigned
    # into a group of 7 made some seeds pay a Bell(9) enumeration (0.7 s
    # of a 2 s run) and others not, and into a group of 6 a Bell(8) one
    # (0.14 s).
    "stagewise": WorldSpec(
        videos=10, scenes_per_video=20, scene_ms=(12000, 20000),
        frame_step_ms=1000, contexts=8, informative=0.8, probed=0.5,
        cue_every_ms=(4000, 7000), issues_per_group=3,
        group_sizes=(2, 3, 4, 5, 5, 5, 4, 4), early_speech=0.0, noise=0.0,
        config={"model.kind": "random_forest", "model.n_trees": 20,
                "clustering.context_algorithm": "mean_shift",
                "clustering.issue_algorithm": "optics"}),
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _environment(root: Path) -> dict:
    import numpy
    import scipy
    try:
        from threadpoolctl import threadpool_info
        blas = [(p.get("internal_api"), p.get("num_threads"))
                for p in threadpool_info()]
    except ImportError:
        blas = "threadpoolctl absent; pinned by " + ",".join(
            f"{k}={v}" for k, v in BLAS_PINS.items())
    return {"commit": _commit(root), "src_sha256": src_digest(root / "src"),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GELID_")}
    env.update(BLAS_PINS)
    return env


def _evict_worlds(cache: Path, keep: Path) -> None:
    others = sorted((p for p in cache.iterdir() if p.is_dir() and p != keep),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in others[CACHED_WORLDS - 1:]:
        shutil.rmtree(stale, ignore_errors=True)


def _warm(world: Path) -> None:
    """Read every file of the world once so the page cache holds it."""
    for path in sorted(world.iterdir()):
        if path.is_file():
            path.read_bytes()


def _execute(root: Path, world: Path, scratch: Path, k: int, trace: bool,
             stagewise: bool, timeout: float) -> dict:
    out = scratch / f"e{k:03d}"
    spec = {"src": str(root / "src"), "world": str(world), "out": str(out),
            "result": str(scratch / f"e{k:03d}.result.json"),
            "trace": trace, "stagewise": stagewise, "execution": k}
    spec_path = scratch / f"e{k:03d}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [sys.executable, str(HERE / "execute.py"), str(spec_path)]
    t0 = time.monotonic()
    proc = subprocess.Popen(argv + [repr(t0)], cwd=root, env=_child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"out": out, "errors": [f"killed after {timeout:.0f} s"]}
    wall = time.monotonic() - t0
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.is_file():
        tail = stderr.strip().splitlines()[-3:]
        return {"out": out, "wall": wall,
                "errors": [f"exit status {proc.returncode}: "
                           + " | ".join(tail)]}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(out=out, wall=wall,
                  errors=checks.check_outputs(world, out, stagewise))
    result["hierarchy_sha256"] = checks.sha256(out / "hierarchy.json")
    return result


def _phase(root, world, scratch, first, trace, stagewise, seconds,
           run_start) -> list[dict]:
    """Executions, one after another, until ``seconds`` are used up."""
    results = []
    start = time.monotonic()
    while True:
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - run_start))
        results.append(_execute(root, world, scratch, first + len(results),
                                trace, stagewise, timeout))
        now = time.monotonic()
        walls = [r["wall"] for r in results if "wall" in r] or [now - start]
        estimate = statistics.median(walls)
        if now - run_start + estimate > RUN_BUDGET_S:
            break
        if len(results) >= MIN_EXECUTIONS and now - start + estimate > seconds:
            break
    return results


def _layer_metrics(dump: dict, run_s: float) -> dict[str, float]:
    metrics: dict[str, float] = {}
    layers: dict[str, float] = {}
    for name, entry in dump["summary"].items():
        metrics[f"{name}.self_s"] = entry["self_s"]
        metrics[f"{name}.calls"] = entry["calls"]
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    for layer, self_s in layers.items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / run_s  # of traced run_s
    metrics.update(dump["counts"])
    load_s = metrics.get("frames.load_track.self_s")
    if load_s:
        metrics["frames.load_track.frames_per_s"] = (
            metrics.get("frames.frames", 0) / load_s)
    return metrics


def _median_metrics(per_execution: list[dict[str, float]]) -> dict[str, float]:
    names = sorted({n for m in per_execution for n in m})
    return {n: statistics.median(m[n] for m in per_execution if n in m)
            for n in names}


def _print_metric(name, value, unit, note=""):
    print(f"  {name:<48} {value:>14.6g} {unit:<8} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "gelid" / "__init__.py").is_file():
        print(f"error: no gelid sources under {src}; run from the root of a "
              f"gelid checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    run_start = time.monotonic()

    env = _environment(root)
    print(f"gelid benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))

    work = root / ".bench_work"
    cache = work / "worlds"
    cache.mkdir(parents=True, exist_ok=True)
    spec = WORKLOADS[args.workload]
    stagewise = args.workload == "stagewise"
    t = time.monotonic()
    world = worlds.world(cache, args.workload, spec, args.seed)
    if stagewise:
        worlds.prepare_stagewise(world, env["src_sha256"])
    _evict_worlds(cache, world)
    footage = worlds.footage_s(world)
    print(f"world: {world.relative_to(root)} footage={footage:.1f} s "
          f"ready in {time.monotonic() - t:.2f} s (not timed)")
    _warm(world)

    scratch = work / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.trace:
            half = args.seconds / 2
            plain = _phase(root, world, scratch, 0, False, stagewise, half,
                           run_start)
            traced = _phase(root, world, scratch, len(plain), True, stagewise,
                            half, run_start)
        else:
            plain = _phase(root, world, scratch, 0, False, stagewise,
                           args.seconds, run_start)
            traced = []
        executions = plain + traced
        first_sha = next((r["hierarchy_sha256"] for r in executions
                          if not r["errors"]), None)
        for r in executions:
            if not r["errors"] and r["hierarchy_sha256"] != first_sha:
                r["errors"].append("hierarchy.json differs from the first "
                                   "execution's")
        good = next((r for r in executions if not r["errors"]), None)
        quality = checks.quality(world, good["out"]) if good else {}
        trace_dumps = [r["trace"] for r in traced if r.get("trace")]
        if trace_dumps:
            traces = work / "traces"
            traces.mkdir(exist_ok=True)
            (traces / f"{args.workload}-{args.seed}.json").write_text(
                json.dumps({"workload": args.workload, "seed": args.seed,
                            "executions": trace_dumps}), encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ok = [r for r in plain if not r["errors"]]
    failed = sum(1 for r in executions if r["errors"])
    failures = [f"execution {k}: {error}" for k, r in enumerate(executions)
                for error in r["errors"]]
    print(f"executions: {len(executions)} attempted, {failed} failed "
          f"(failed_frac={failed / len(executions):.4g})")
    for failure in failures:
        print(f"  FAILED {failure}")
    hashes = sorted({r["hierarchy_sha256"] for r in executions
                     if r.get("hierarchy_sha256")})
    print(f"hierarchy.json sha256: {', '.join(hashes) or 'none'}")
    for label, phase in (("untraced", plain), ("traced", traced)):
        if phase:
            print(f"raw run_cpu_s/run_s/reference_s per {label} execution: "
                  + " ".join(f"{r['run_cpu_s']:.3f}/{r['run_s']:.3f}/"
                             f"{r['reference_s']:.3f}" for r in phase
                             if "run_s" in r))

    metrics: dict[str, float] = {}
    if ok:
        # the host's speed often changes between one execution and the
        # next, so each execution's times alone are noisy; the ratio of
        # their sums weighs every execution by its length and holds steady
        # when the slow share of a run lies near one half, where a median
        # jumps between the two speeds
        scale = NOMINAL_REFERENCE_S / statistics.fmean(
            r["reference_s"] for r in ok)
        cpu = scale * statistics.fmean(r["run_cpu_s"] for r in ok)
        raw_q1, raw, raw_q3 = quartiles([r["run_cpu_s"] for r in ok])
        wall_q1, wall, wall_q3 = quartiles([r["run_s"] for r in ok])
        metrics.update(
            run_cpu_s=cpu, footage_s_per_cpu_s=footage / cpu,
            setup_s=scale * statistics.fmean(r["setup_s"] for r in ok),
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in ok),
            **quality,
            reference_s=NOMINAL_REFERENCE_S / scale,
            run_cpu_raw_s=raw,
            setup_raw_s=statistics.median(r["setup_s"] for r in ok),
            run_s=wall, footage_s_per_s=footage / wall,
            setup_wall_s=statistics.median(r["setup_wall_s"] for r in ok))
        print(f"over {len(ok)} untraced executions: run_cpu_s {cpu:.4f} s "
              f"(scaled); raw run CPU time median {raw:.4f} s, quartiles "
              f"{raw_q1:.4f} / {raw_q3:.4f} s; run_s (wall) median "
              f"{wall:.4f} s, quartiles {wall_q1:.4f} / {wall_q3:.4f} s")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print("end-to-end metrics, bounded in BENCHMARK.json:")
    for name, value in metrics.items():
        if name in units:
            _print_metric(name, value, units[name])
    print("printed only:")
    for name, value in metrics.items():
        if name not in units:
            _print_metric(name, value, "s/s" if "per" in name else "s")

    layer: dict[str, float] = {}
    absent: list[str] = []
    if args.trace:
        traced_ok = [r for r in traced if not r["errors"]]
        layer = _median_metrics([_layer_metrics(r["trace"], r["run_s"])
                                 for r in traced_ok]) if traced_ok else {}
        if traced_ok and ok:
            # scaled like run_cpu_s, so a change of the host's speed between
            # the two phases does not read as overhead
            traced_cpu = NOMINAL_REFERENCE_S * statistics.fmean(
                r["run_cpu_s"] for r in traced_ok) / statistics.fmean(
                r["reference_s"] for r in traced_ok)
            layer["trace.overhead_frac"] = traced_cpu / metrics["run_cpu_s"] - 1
        unwrapped = sorted({m for r in traced_ok for m in r["trace"]["missing"]})
        if unwrapped:
            print("not wrapped (absent in this gelid): " + ", ".join(unwrapped))
        print(f"per-layer metrics, median of {len(traced_ok)} traced "
              f"executions (self times are wall time):")
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name in sorted(layer):
            _print_metric(name, layer[name], units.get(name, ""))
        # a span that never fired is absent, not zero; the result line
        # needs a number for every listed metric, so it carries 0 there
        absent = [m["name"] for m in bench["per_layer"]
                  if m["name"] not in layer]
        for name in absent:
            print(f"  {name:<48} absent (never fired; 0 in the result line)")
        names = bench["per_layer"]
        report = layer
        measured = bool(traced_ok)
    else:
        names = bench["end_to_end"]
        report = metrics
        measured = all(m["name"] in metrics for m in names)

    correct = failed == 0 and measured
    print("detail: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "executions": len(executions), "failures": failures,
        "per_execution": [
            {k: r[k] for k in ("run_cpu_s", "run_s", "reference_s",
                               "setup_s")} for r in ok],
        "hierarchy_sha256": hashes, "environment": env,
        "end_to_end": metrics, "per_layer": layer, "absent": absent},
        sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {m["name"]: {"value": report.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
