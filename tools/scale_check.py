"""Scale check: `degcorr compute --seed 7 --rho-reps 3` on perfbench's
compute graph at paper scale, for two checkouts in alternated child processes.

    python tools/scale_check.py PARENT CHANGE [--nodes N] [--pairs K] [--work DIR]

PARENT and CHANGE are the roots of two checkouts of this repository. The
input is built once, by perfbench's compute builder (perfbench/workloads.py,
imported read-only, with ECM_NODES set to --nodes: 10^6 nodes give 1,342,948
edges, 10^7 give 13,417,012 and 2.5*10^7 give 33,536,241) running on this
checkout's degcorr, and written to DIR/input.txt. Each of the K pairs then
runs the command once per checkout, PARENT first in even pairs and CHANGE
first in odd ones, and prints the run's wall time, peak RSS and the sha256
of its output. The input and output digests are compared with the ones
pinned for 10^6, 10^7 and 2.5*10^7 nodes. The last line is a JSON summary;
the exit status is 1 if a run failed or a digest differs from its pin.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # noqa: E402

SEED = 7
# nodes: (sha256 of the input, sha256 of the compute output)
PINNED = {
    10**6: ("368f0e0321c8a8fffef4b7881a8d2f6c84c22aa8f02a4b50287e0c86432d37bb",
            "f06fc0a9c9b473a0ecc7c430deffe99efad608dc4dc2839aa40c9ec36b3ec7d5"),
    10**7: ("29b72593a41642db79fe556810d77332fd379aad7238d7786d53088a08511421",
            "85c7f8d6e6682222cecd8bc2a33cff61cce5718625815f026178225e4eb5b509"),
    25_000_000: ("35ffbd36426f509bb1016ae3db435471f074bfbb92d91d3cd02cc524e2722060",
                 "6a61a0c35d331a76a16dc4faeea4396668a3a5810bcaeccd57f4a3eac9bcd893"),
}
CHILD = "import sys; from degcorr.cli import main; sys.exit(main(sys.argv[1:]))"


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run(checkout: Path, work: Path, args: list[str]) -> dict:
    """One CLI run of checkout in work: exit code, wall time, the child's own
    peak RSS (from wait4) and the sha256 of its stdout."""
    out_path = work / "out.json"
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD, *args], cwd=work, env=env, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "sha256": sha256(out_path)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--nodes", type=int, default=10**7)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--work", type=Path, help="directory for input.txt (default: a temporary one)")
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pinned_input, pinned_output = PINNED.get(args.nodes, (None, None))

    with tempfile.TemporaryDirectory(prefix="scale_check_") as tmp:
        work = args.work or Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        wl.ECM_NODES = args.nodes
        start = time.perf_counter()
        wl.build_inputs(wl.WORKLOADS["compute-ecm-100k"], SEED, work)
        input_sha = sha256(work / wl.INPUT)
        print(f"input: {args.nodes} nodes, built in {time.perf_counter() - start:.1f} s, sha256 {input_sha}"
              f" (pinned {pinned_input})", flush=True)
        cli_args = wl.WORKLOADS["compute-ecm-100k"].cli_args(SEED)
        runs = {side: [] for side in checkouts}
        for pair in range(args.pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                r = run(checkouts[side], work, cli_args)
                runs[side].append(r)
                print(f"pair {pair} {side}: exit {r['rc']}, {r['wall_s']:.3f} s, {r['peak_rss_mb']:.1f} MB,"
                      f" sha256 {r['sha256']}", flush=True)

    summary = {"nodes": args.nodes, "command": "degcorr " + " ".join(cli_args), "input_sha256": input_sha,
               "pairs": args.pairs, "order": "parent first in even pairs"}
    ok = pinned_input in (None, input_sha)
    for side, rs in runs.items():
        shas = sorted({r["sha256"] for r in rs})
        ok &= all(r["rc"] == 0 for r in rs) and (pinned_output is None or shas == [pinned_output])
        summary[side] = {
            "wall_s": [r["wall_s"] for r in rs], "peak_rss_mb": [r["peak_rss_mb"] for r in rs], "sha256": shas,
            "wall_s_median": statistics.median(r["wall_s"] for r in rs),
            "peak_rss_mb_median": statistics.median(r["peak_rss_mb"] for r in rs),
        }
    summary["pinned_sha256"] = pinned_output
    summary["matches_pins"] = ok
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
