"""Child process of the benchmark: builds inputs, or runs the traced CLI.

    python3 perfbench/child.py build <workload> <seed> <workdir>
    python3 perfbench/child.py trace <workload> <seed> <workdir> <seconds>

`build` writes the workload's input files and env.json. `trace` times the
import of degcorr.cli, builds the inputs under the tracer, then alternates
untraced and traced in-process calls of degcorr.cli.main within <seconds>
(at least one pair), and writes trace.json. The orchestrator puts the
checkout's src/ on PYTHONPATH.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import tracer as tr
import workloads as wl

# Layers are the package's modules; the kernel package is one layer so its
# time reads the same whichever backend (compiled or pure Python) is active.
MODULES = ["graph", "measures", "ranking", "_exact", "_kernels", "config_model",
           "generators", "report", "cli", "theory"]
# the report and the randomization study reach spearman_uniform through this
ALIASES = {"measures._spearman_uniform_seeded": "measures.spearman_uniform"}


def _counters(captured: dict) -> dict:
    def balance(args, kwargs, result):
        captured["balanced_pairs"] = result[0]
        return {"attempts": result[1]}

    def ecm(args, kwargs, result):
        r = result[1]
        return {"edges_before": r.edges_before, "edges_after": r.edges_after}

    return {
        "graph.load_edge_list": lambda a, k, r: {"edges": r.graph.edge_count},
        "graph.write_edge_list": lambda a, k, r: {"edges": a[0].edge_count},
        "kernels.count_strict_inversions": lambda a, k, r: {"elements": len(a[0])},
        "config_model.erased_configuration_model": ecm,
        "config_model.balance_iid_sequence": balance,
    }


def environment() -> dict:
    import numpy

    import degcorr

    return {
        "kernel_backend": degcorr.kernel_backend,
        "degcorr_file": degcorr.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def build(workload: wl.Workload, seed: int, workdir: Path) -> None:
    wl.build_inputs(workload, seed, workdir)
    (workdir / "env.json").write_text(json.dumps(environment()))


def _spans(tracer: tr.Tracer) -> list:
    return [[s.name, s.start, s.end, s.parent, s.counts] for s in tracer.spans]


def _run_cli(main, argv: list[str], stdout_path: Path) -> tuple[int, float]:
    with open(stdout_path, "w", encoding="utf-8", newline="\n") as fh, contextlib.redirect_stdout(fh):
        t0 = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - t0
    return rc, elapsed


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trace(workload: wl.Workload, seed: int, workdir: Path, seconds: float) -> None:
    t0 = time.perf_counter()
    import degcorr.cli  # noqa: F401  (timed: cli.import_s)

    import_s = time.perf_counter() - t0
    import numpy as np

    captured: dict = {}
    counters = _counters(captured)

    setup_tracer = tr.Tracer()
    inst = tr.instrument(setup_tracer, "degcorr", MODULES, ALIASES, counters)
    t0 = time.perf_counter()
    wl.build_inputs(workload, seed, workdir)
    setup_s = time.perf_counter() - t0
    inst.restore()

    argv = workload.cli_args(seed)
    output = workdir / (wl.OUTPUT if workload.command == "generate" else "stdout.txt")
    runs = []
    loop_start = time.perf_counter()
    next_end = loop_start  # when the next pair should end, judged by the last
    # start another pair only if it should end within the window
    while not runs or next_end - loop_start <= seconds:
        # alternate which side goes first, so warm-up favours neither
        run = {}
        for traced in (False, True) if len(runs) % 2 == 0 else (True, False):
            if traced:
                run_tracer = tr.Tracer()
                inst = tr.instrument(run_tracer, "degcorr", MODULES, ALIASES, counters)
            try:
                rc, elapsed = _run_cli(degcorr.cli.main, argv, workdir / "stdout.txt")
            finally:
                if traced:
                    inst.restore()
            key = "traced" if traced else "untraced"
            run[f"{key}_s"] = elapsed
            run[f"{key}_rc"] = rc
            run[f"{key}_sha256"] = _digest(output)
            if traced:
                run["spans"] = _spans(run_tracer)
        runs.append(run)
        next_end = time.perf_counter() + run["traced_s"] + run["untraced_s"]
    if "balanced_pairs" in captured:
        np.save(workdir / "balanced.npy", captured["balanced_pairs"])
    doc = {"env": environment(), "import_s": import_s, "setup_s": setup_s,
           "setup_spans": _spans(setup_tracer), "runs": runs}
    (workdir / "trace.json").write_text(json.dumps(doc))


def main(argv: list[str]) -> int:
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    workload = wl.WORKLOADS[name]
    os.chdir(workdir)
    if mode == "build":
        build(workload, seed, workdir)
    else:
        trace(workload, seed, workdir, float(argv[4]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
