"""Benchmark of salpeter1d: CLI commands, spectral fields, double-sum oracle.

Run one workload (run from the repository root):

    python3 bench/run.py --workload <cli|spectral|oracle> --seed N
                         --seconds S --trace <0|1>

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics traced.

Collect ten runs of every workload into a result file, then compare two:

    python3 bench/run.py --sweep bench/results/a.json [--runs 10] [--first-seed 1]
    python3 bench/run.py --compare bench/results/a.json bench/results/b.json

Every part of a run is a fresh interpreter (``worker.py``): the workload's
own part repeats for ``--seconds``; each other part runs one round, so that
every run reports every metric.  The program is imported from ``src/`` of the
checkout; nothing is installed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PARTS = ("cli", "spectral", "oracle")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(args, cwd, capture_stderr=False):
    """Run a child interpreter to its end; return its stdout (and stderr)."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=_env(), text=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else None,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited with {proc.returncode}")
    return (proc.stdout, proc.stderr) if capture_stderr else proc.stdout


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def _worker(part, seed, seconds, trace, cwd, trace_out=None, setup_only=False):
    args = [str(BENCH / "worker.py"), part, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        args += ["--trace-out", str(trace_out)]
    if setup_only:
        args.append("--setup-only")
    return _last_json(_python(args, cwd))


def _import_times():
    """Cumulative import seconds of salpeter1d and scipy.special (-X importtime)."""
    samples = {"import.salpeter1d_s": [], "import.scipy_special_s": []}
    wanted = {"salpeter1d": "import.salpeter1d_s",
              "scipy.special": "import.scipy_special_s"}
    for _ in range(IMPORT_SAMPLES):
        _, err = _python(["-X", "importtime", "-c", "import salpeter1d"], ROOT, True)
        for line in err.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3:
                metric = wanted.get(fields[2].strip())
                if metric:
                    samples[metric].append(int(fields[1]) * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}


def run_workload(workload, seed, seconds, trace):
    if not (SRC / "salpeter1d" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'salpeter1d'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # untimed: fills the byte-code cache, as any installed package has it
        _python(["-c", "import salpeter1d"], work)
        metrics = {}
        if trace:
            metrics.update(_import_times())
            (WORK / "traces").mkdir(exist_ok=True)
        else:
            setups = [_worker(workload, seed, 0, 0, work, setup_only=True)["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
            metrics["setup_s"] = statistics.median(setups)
        results = []
        for part in [workload] + [p for p in PARTS if p != workload]:
            cwd = work / part
            cwd.mkdir()
            trace_out = WORK / "traces" / f"{workload}-{part}.json" if trace else None
            part_seconds = seconds if part == workload else 0
            results.append(_worker(part, seed, part_seconds, trace, cwd, trace_out))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in results:
        print(f"# {r['part']}: {r['rounds']} round(s) of "
              f"{statistics.median(r['round_s']):.3f} s, {r['ops']} ops, "
              f"{r['failed']} failed")
        for e in r["errors"]:
            print(f"# CHECK FAILED: {e}", file=sys.stderr)
        if trace:
            for k, v in r["layers"].items():
                metrics[k] = metrics.get(k, 0) + v
        else:
            metrics.update(r["metrics"])
    if not trace:
        metrics["peak_rss_mb"] = results[0]["peak_rss_mb"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    missing = [n for n in wanted if n not in metrics]
    if missing:
        sys.exit(f"bench: no measurement for {missing}")
    return {
        "correct": not any(r["errors"] for r in results),
        "attempted": sum(r["ops"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted},
    }


# ------------------------------------------------------- sweep and compare


def _summary(runs, metric):
    """Median, first and third quartile of one metric over a set of runs."""
    values = [r["metrics"][metric]["value"] for r in runs]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def sweep(out, runs, first_seed, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = seconds or spec["run_seconds"]
    data = {"seconds": seconds, "trace": trace, "started": time.time(), "runs": {}}
    for w in PARTS:
        data["runs"][w] = []
        for seed in range(first_seed, first_seed + runs):
            t0 = time.perf_counter()
            text = _python([str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)], ROOT)
            result = _last_json(text)
            result["seed"], result["wall_s"] = seed, time.perf_counter() - t0
            data["runs"][w].append(result)
            print(f"{w} seed {seed}: {result['wall_s']:.1f} s, correct={result['correct']}",
                  flush=True)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(json.dumps(data, indent=1))


def compare(path_a, path_b):
    """Medians and quartiles of two result files, ratio b/a, and the bound.

    Two sets agree on a metric when each median is within the bound of the
    other, in both directions: b/a - 1 and a/b - 1 are both at most the bound.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(path_a).read_text())["runs"]
    b = json.loads(Path(path_b).read_text())["runs"]
    print(f"{'workload':10} {'metric':18} {'median a':>11} {'q1-q3 a':>23} "
          f"{'median b':>11} {'q1-q3 b':>23} {'b/a':>7} {'bound':>6}  verdict")
    all_ok = True
    for w in [w for w in a if w in b]:
        for m in spec["end_to_end"]:
            ma, qa1, qa3 = _summary(a[w], m["name"])
            mb, qb1, qb3 = _summary(b[w], m["name"])
            ratio = mb / ma
            ok = max(ratio, 1 / ratio) - 1 <= m["bound"]
            all_ok &= ok
            print(f"{w:10} {m['name']:18} {ma:11.5g} {qa1:11.5g}-{qa3:<11.5g} "
                  f"{mb:11.5g} {qb1:11.5g}-{qb3:<11.5g} {ratio:7.3f} {m['bound']:6.2f}  "
                  f"{'within' if ok else 'OUTSIDE'}")
        share_a = sorted({r["failed"] / r["attempted"] for r in a[w]})
        share_b = sorted({r["failed"] / r["attempted"] for r in b[w]})
        same = share_a == share_b and len(share_a) == 1
        all_ok &= same
        print(f"{w:10} failed share a={share_a} b={share_b}  {'same' if same else 'DIFFERENT'}")
    print("all within bounds" if all_ok else "SOME METRIC OUTSIDE ITS BOUND")
    return 0 if all_ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=PARTS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", metavar="OUT", help="write runs of every workload to OUT")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.sweep:
        sweep(args.sweep, args.runs, args.first_seed, args.seconds, args.trace)
        return 0
    if args.workload is None or args.seconds is None:
        ap.error("--workload and --seconds are required for a run")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
