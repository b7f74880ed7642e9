"""The fflab benchmark: runs one workload for one seed and prints its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign_n500 --seed 1 --seconds 15 --trace 0

With --trace 0 it prints the end-to-end metrics wall_s, trials_per_s,
setup_s and peak_rss_mb, and failed_frac on a line of its own.  With
--trace 1 it prints the per-layer metrics of a traced run.  The last line
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every output check passed.  The run
manifest, the raw unit results and the spans are written to .bench_out/.

setup_s is the median over SETUP_PROBES fresh interpreters, each timed
from start to exit, that import fflab and finish one trial of the
workload.  The workload itself runs in one more fresh interpreter
(measure.py), whose peak RSS and that of its pool workers give
peak_rss_mb.

wall_s and trials_per_s are medians over units, scaled to the reference
host's seconds by the host speed probe sampled around the units
(hostspeed.py); the times as measured are printed after the metrics and
kept in the result file.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_child(argv: list[str], env: dict, deadline: float, capture: bool) -> str:
    """Runs a child interpreter in its own process group; kills the group at the deadline."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{Path(argv[1]).name} did not finish in time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(argv[1]).name} exited with code {proc.returncode}")
    return out.decode() if capture else ""


def read_text(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_revision() -> str:
    head = read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    rev = read_text(ROOT / ".git" / ref)
    if rev is None:
        for line in (read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                rev = line.split()[0]
    return rev or "unknown"


def machine() -> dict:
    cpu = "unknown"
    for line in (read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read_text(index / f) for f in ("level", "type", "size"))
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "l2": caches.get("L2", "unknown"), "l3": caches.get("L3", "unknown")}


def end_to_end(raw: dict, setup_times: list[float], scaled: bool) -> dict[str, float]:
    """The end-to-end metrics; wall_s and trials_per_s in the reference
    host's seconds if scaled, by one factor for the whole run from the
    host speed samples taken around its units (hostspeed.py)."""
    f = hostspeed.factor(raw["host_speed_samples_s"], raw["params"]["workers"]) if scaled else 1.0
    units = raw["units"]
    return {
        "wall_s": statistics.median(u["wall_s"] for u in units) * f,
        "trials_per_s": statistics.median(u["trials"] / u["loop_s"] for u in units) / f,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": raw["rss_kb"] / 1024,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="tiny runs every workload at a toy size (smoke tests)")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    # so that a SIGTERM unwinds through run_child and stops its process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fflab" / "__init__.py").is_file():
        print(f"error: no fflab sources at {SRC}; run from the root of an fflab checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    OUT.mkdir(exist_ok=True)

    setup_times = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                t0 = time.perf_counter()
                run_child([sys.executable, str(HERE / "probe.py"), args.workload, args.scale],
                          env, deadline, capture=False)
                setup_times.append(time.perf_counter() - t0)
        out = run_child([sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
                         "--scale", args.scale, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)],
                        env, deadline, capture=True)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    raw = json.loads(out.strip().splitlines()[-1])
    correct = raw["failed"] == 0 and not raw["problems"]
    for problem in raw["problems"]:
        print(f"CHECK FAILED {problem}")
    if not raw["units"]:
        print(json.dumps({"correct": False, "attempted": raw["attempted"],
                          "failed": raw["failed"], "metrics": {}}))
        return 1

    if args.trace:
        metrics = raw["layer_metrics"]
        as_measured = {}
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics = end_to_end(raw, setup_times, scaled=True)
        as_measured = end_to_end(raw, setup_times, scaled=False)
        units = END_TO_END_UNITS
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    manifest = {
        "git_revision": git_revision(), **machine(), **raw.pop("versions"),
        "workload": args.workload, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "params": raw["params"],
        "unit_seeds": [u["seed"] for u in raw["units"]],
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as f:
        json.dump({"manifest": manifest, "metrics": metrics, "as_measured": as_measured,
                   "setup_times_s": setup_times, "raw": raw}, f, indent=1)

    print(f"workload {args.workload} ({args.scale}) seed {args.seed} "
          f"trace {args.trace}: {len(raw['units'])} units")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if as_measured:
        print("wall_s and trials_per_s are in the reference host's seconds (hostspeed.py); "
              "as measured: " + ", ".join(f"{name} {as_measured[name]:.6g} {units[name]}"
                                          for name in ("wall_s", "trials_per_s")))
    print(f"failed_frac = {raw['failed'] / raw['attempted']:.6g} ratio "
          f"({raw['failed']} of {raw['attempted']} trials)")
    same = {None: "", True: ", same as the reference", False: ", differs from the reference"}
    print(f"record digest of unit 0 (depends on the basis, not gated): "
          f"{raw['units'][0]['full_digest']}{same[raw['full_digest_matches_ref']]}")
    print(f"manifest and raw results: {(OUT / f'result-{tag}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
