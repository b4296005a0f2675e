"""One execution of a workload, in a fresh interpreter.

    python3 execute.py <spec.json> <t0>

``t0`` is the parent's ``time.monotonic()`` just before it started this
process. Set-up runs from interpreter start until gelid is imported and the
world's config and manifest are loaded; ``setup_s`` is the CPU time (user
plus system) this process used for it and ``setup_wall_s`` the wall time
since ``t0``. Its first part, starting the interpreter and importing numpy
and the scipy modules gelid uses, never changes with gelid: its CPU time,
``reference_s``, measures how fast the host runs this kind of work at the
moment. The run goes from the first ``gelid.cli.main`` call to the last
artifact written: ``run_cpu_s`` is the CPU time it used and ``run_s`` its
wall time. The result goes to the spec's ``result`` path as JSON; the exit
status is non-zero when a gelid command fails.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

WORLD = ["--manifest", "manifest.json", "--config", "run.conf"]


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _write_partition(path: Path, groups: dict) -> None:
    path.write_text(json.dumps({"groups": [sorted(m) for _, m in
                                           sorted(groups.items())]}),
                    encoding="utf-8")


def _eval_partitions(out: Path, truth: dict) -> list[list[str]]:
    """Partition files for ``gelid eval``: recovered against planted.

    One pair for the context partition, one per context x category group
    with at least two members (MoJoFM needs two objects).
    """
    hierarchy = json.loads((out / "hierarchy.json").read_text("utf-8"))
    pairs = []
    recovered, planted = {}, {}
    for context in hierarchy["contexts"]:
        for category in context["categories"]:
            issues, planted_issues = {}, {}
            for cluster in category["clusters"]:
                for member in cluster["members"]:
                    recovered.setdefault(context["context_id"], []).append(
                        member)
                    planted.setdefault(truth[member]["context"], []).append(
                        member)
                    issues.setdefault(cluster["cluster_id"], []).append(member)
                    planted_issues.setdefault(
                        str(truth[member]["issue"]), []).append(member)
            if sum(len(m) for m in issues.values()) >= 2:
                pairs.append((issues, planted_issues))
    pairs.insert(0, (recovered, planted))
    evals = out / "eval"
    evals.mkdir()
    argvs = []
    for k, (a, b) in enumerate(pairs):
        _write_partition(evals / f"{k:03d}.a.json", a)
        _write_partition(evals / f"{k:03d}.b.json", b)
        argvs.append(["eval", "--stat", "mojofm",
                      "--partition-a", str(evals / f"{k:03d}.a.json"),
                      "--partition-b", str(evals / f"{k:03d}.b.json"),
                      "--out", str(evals / f"{k:03d}.json")])
    return argvs


def _stagewise(cli, out: Path, truth: dict) -> list[int]:
    o = str(out)
    seg = ["--segments", f"{o}/segments.jsonl"]
    chain = [
        ["ingest", *WORLD, "--out", f"{o}/ingest"],
        ["segment", *WORLD, "--out", o],
        ["features", *WORLD, *seg, "--out", o],
        ["train", "--config", "run.conf", "--features", f"{o}/features.csv",
         "--vocabulary", f"{o}/vocabulary.json",
         "--labels", "seg_labels.jsonl", "--out", f"{o}/model.json"],
        ["classify", *WORLD, *seg, "--model", f"{o}/model.json", "--out", o],
        ["group", *WORLD, *seg, "--labels", f"{o}/labels.jsonl", "--out", o],
        ["cluster", *WORLD, *seg, "--labels", f"{o}/labels.jsonl",
         "--model", f"{o}/model.json", "--out", o],
        ["report", "--hierarchy", f"{o}/hierarchy.json", "--format", "html",
         "--out", f"{o}/report.html"],
    ]
    codes = []
    for argv in chain:
        codes.append(cli.main(argv))
        if codes[-1] != 0:
            return codes
    for argv in _eval_partitions(out, truth):
        codes.append(cli.main(argv))
        if codes[-1] != 0:
            break
    return codes


def main() -> int:
    t0 = float(sys.argv[2])
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    # the part of set-up no gelid change touches: it measures the host
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401
    import scipy.stats  # noqa: F401
    reference_s = _cpu_s()
    sys.path.insert(0, spec["src"])
    from gelid import cli
    from gelid.config import load_config
    from gelid.pipeline import load_manifest
    os.chdir(spec["world"])
    load_config("run.conf")
    load_manifest("manifest.json")
    setup_s = _cpu_s()
    setup_wall_s = time.monotonic() - t0

    out = Path(spec["out"])
    truth = (json.loads(Path("seg_truth.json").read_text("utf-8"))
             if spec["stagewise"] else None)
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer(execution=spec["execution"])
        tracer.install()
    start, cpu_start = time.perf_counter(), _cpu_s()
    if spec["stagewise"]:
        codes = _stagewise(cli, out, truth)
    else:
        codes = [cli.main(["run", *WORLD, "--out", str(out)])]
    run_s = time.perf_counter() - start
    run_cpu_s = _cpu_s() - cpu_start
    if tracer is not None:
        tracer.uninstall()
    result = {
        "reference_s": reference_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "exit_codes": codes,
        "trace": tracer.dump() if tracer is not None else None,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
