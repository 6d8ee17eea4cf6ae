"""One part of a benchmark run, alone in a fresh interpreter.

    python3 bench/worker.py <cli|spectral|oracle> --seed N --seconds S
        [--trace 0|1] [--trace-out PATH] [--setup-only]

A part builds its inputs from the seed, then repeats whole rounds of the same
operations until ``--seconds`` have passed (``--seconds 0``: one round), then
checks the outputs against the benchmark's own computations in
``reference.py``.  The last stdout line is one JSON object.  With
``--setup-only`` it prints only the seconds spent on import and inputs.

Only the standard library is imported at the top, so that the set-up timer
starts in an interpreter that has not loaded numpy or salpeter1d yet.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# ---------------------------------------------------------------- cli part

CLI_COMMANDS = (
    ("covariance", ["covariance"], ["covariance.csv"]),
    ("figure1", ["figure1", "--svg"], ["figure1.csv", "figure1.svg"]),
    ("figure2", ["figure2", "--normalization", "unit-area"], ["figure2.csv"]),
    ("continuity", ["continuity"], ["continuity.csv"]),
    ("dirac-check", ["dirac-check"], ["dirac-check.csv"]),
    ("series-check", ["series-check"], ["series-check.csv"]),
)
CLI_GROUPS = {
    "covariance_s": ("covariance",),
    "figures_s": ("figure1", "figure2"),
    "reports_s": ("continuity", "dirac-check", "series-check"),
}
CLI_TIMEOUT_S = 120


class CliPart:
    """The six commands as users run them: `python -m salpeter1d <command>`."""

    def setup(self, seed, traced):
        import salpeter1d  # noqa: F401  (set-up time of a fresh interpreter)

        # the traced run calls cli.main in-process, so its spans are recorded
        self.main = sys.modules["salpeter1d.cli"].main if traced else None
        self.digests = None

    def round(self):
        times, failed, digests = {}, 0, {}
        for name, argv, outputs in CLI_COMMANDS:
            t0 = time.perf_counter()
            if self.main is None:
                rc = subprocess.run(
                    [sys.executable, "-m", "salpeter1d", *argv],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    timeout=CLI_TIMEOUT_S,
                ).returncode
            else:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = self.main(list(argv))
            times[name] = time.perf_counter() - t0
            failed += rc != 0
            for out in outputs:
                if os.path.exists(out):
                    with open(out, "rb") as fh:
                        digests[out] = hashlib.sha256(fh.read()).hexdigest()
        errors = []
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            errors.append("CLI outputs differ between rounds of one run")
        metrics = {m: [sum(times[c] for c in group)] for m, group in CLI_GROUPS.items()}
        return len(CLI_COMMANDS), failed, metrics, errors

    def peak_rss_mb(self):
        # the largest command subprocess (the worker itself only waits)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def check(self):
        import numpy as np
        import reference as ref

        errors = []

        def table(path):
            with open(path) as fh:
                header = fh.readline().strip().split(",")
                rows = [line.rstrip("\n").split(",") for line in fh]
            return header, rows

        def columns(path):
            header, rows = table(path)
            data = np.array(rows, dtype=float)
            return {name: data[:, i] for i, name in enumerate(header)}

        # figure1: Born column is the normalised sin^2 box state (L = 1, n = 2,
        # 4096 points, 4x padding), cut to the window [-L/2, 3L/2]
        fig1 = columns("figure1.csv")
        x = -1.5 + (4.0 / 4096) * np.arange(4096)
        rho = ref.box_born_density(1.0, 2, x)
        window = (x >= -0.5) & (x <= 1.5)
        if not np.array_equal(fig1["x"], x[window]):
            errors.append("figure1: x column is not the window of the box grid")
        elif ref.rel_gap(fig1["rho_born"], rho[window]) > ref.REL_TOL:
            errors.append("figure1: rho_born is not the normalised sin^2 box state")
        with open("figure1.svg") as fh:
            svg = fh.read()
        if not svg.startswith("<svg") or svg.count("<polyline") != 2:
            errors.append("figure1: SVG does not hold two polylines")

        # figure2 --normalization unit-area: each column integrates to one
        fig2 = columns("figure2.csv")
        dx = 4.0 * 0.5 / 4096
        for name in ("rho_born", "rho_scalar", "rho_half"):
            area = float(np.sum(fig2[name]) * dx)
            if not abs(area - 1.0) < 1e-9:
                errors.append(f"figure2: {name} integrates to {area!r}, not 1")

        header, rows = table("covariance.csv")
        if len(rows) != 3 * 380 * 5 + 1:
            errors.append(f"covariance: {len(rows)} rows, expected 5701")
        worst = max((max(float(r[4]), float(r[5])) for r in rows
                     if r[0] in ("scalar", "spinhalf")), default=math.inf)
        if not worst <= 1e-10:
            errors.append(f"covariance: scalar/spinhalf residual {worst!r} > 1e-10")
        witness = rows[-1] if rows else ["?"] * 6
        if witness[:4] != ["born", "0.5", "-0.5", "0.5"] or not min(
                float(witness[4]), float(witness[5])) > 1e-2:
            errors.append(f"covariance: Born witness row {witness!r} shows no failure")

        _, rows = table("continuity.csv")
        ratios = {r[0]: float(r[4]) for r in rows}
        if sorted(ratios) != ["born", "scalar", "spinhalf"] or not all(
                3.5 <= v <= 4.5 for v in ratios.values()):
            errors.append(f"continuity: ratios {ratios!r} outside [3.5, 4.5]")

        _, rows = table("dirac-check.csv")
        gaps = {r[0]: max(float(r[1]), float(r[2])) for r in rows}
        if not (gaps.get("superposition", math.inf) < 1e-12
                and gaps.get("box", math.inf) < 1e-8):
            errors.append(f"dirac-check: residuals {gaps!r} exceed 1e-12 / 1e-8")

        _, rows = table("series-check.csv")
        values = {r[0]: float(r[1]) for r in rows}
        if not (values.get("series_gap", math.inf) < 1e-8
                and values.get("divergence_detector_fired") == 1.0):
            errors.append(f"series-check: {values!r} breaks gap < 1e-8 / detector")
        return errors


# ----------------------------------------------------------- library parts


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes() if hasattr(a, "tobytes") else repr(a).encode())
    return h.hexdigest()


class LibraryPart:
    """Shared round bookkeeping: the first round's outputs are kept for the
    checks, later rounds must reproduce them bit for bit.  Every library
    call goes through ``op``: one that raises counts as a failed operation,
    its output is None, and the round goes on."""

    def setup(self, seed, traced):
        import numpy as np
        import salpeter1d

        self.s = salpeter1d
        self.np = np
        self.rng = np.random.default_rng(seed)
        self.first = None
        self.first_digest = None
        self.build()

    def op(self, call):
        self.ops += 1
        try:
            return call()
        except Exception:
            self.failed += 1
            return None

    def round(self):
        self.ops = self.failed = 0
        outputs, metrics = self.timed()
        errors = []
        digest = _digest(v for group in outputs.values() for v in group)
        if self.first is None:
            self.first, self.first_digest = outputs, digest
        elif digest != self.first_digest:
            errors.append(f"{self.name}: outputs differ between rounds of one run")
        return self.ops, self.failed, metrics, errors

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def energy_checks(self, label, psi, rho_scalar):
        """The paper's density integrates to <H>, and is non-negative."""
        import reference as ref

        errors = []
        if rho_scalar is None:
            return errors
        total = float(self.np.sum(rho_scalar) * psi.grid.dx)
        want = ref.mean_energy(psi.values, psi.grid.dx)
        if not abs(total - want) <= ref.REL_TOL * abs(want):
            errors.append(f"{label}: integral of rho_scalar {total!r} != <H> {want!r}")
        low = float(self.np.min(rho_scalar))
        if not low >= ref.POSITIVITY_FLOOR:
            errors.append(f"{label}: rho_scalar dips to {low!r}")
        return errors

    def wave_checks(self, label, grid, cases):
        """Compare program fields with the closed-form plane-wave double sum.

        ``cases`` holds (field name, kernel, current?, program values).
        """
        import reference as ref

        errors = []
        x = grid.x_min + grid.dx * self.np.arange(grid.n_points)
        for field, kernel, is_current, got in cases:
            if got is None:
                continue
            want = ref.planewave_field(kernel, self.amps, self.momenta, x, is_current)
            gap = ref.rel_gap(got, want)
            if not gap <= ref.REL_TOL:
                errors.append(f"{label}: {field} off the double sum by {gap:.3e}")
        return errors


# The small operations are timed in short batches, half before the large
# operations of a round and half after them, and a round reports its fastest
# batch.  The host's speed moves by up to 60 % in stretches of a second to
# minutes; the fastest batch is the one least slowed by it, and its spread
# between runs was a half or less of the median batch's.
SMALL_BATCHES, SMALL_BATCH = 64, 5
CONTINUITY_DT = 1e-4


class SpectralPart(LibraryPart):
    """Field sets on a box state at N = 2^20 (FFT and memory traffic) and
    N = 2^12 (per-call overhead)."""

    name = "spectral"
    sizes = (2**20, 2**12)

    def build(self):
        s = self.s
        # seeded box width; n = 2, grid four times the box, centred on it
        self.box_width = float(self.rng.uniform(0.5, 2.0))
        half, centre = 2.0 * self.box_width, 0.5 * self.box_width
        self.psi = {}
        for n in self.sizes:
            grid = s.make_grid(centre - half, centre + half, n)
            self.psi[n] = s.box_state(self.box_width, 2, grid)

    def field_set(self, psi):
        s, op = self.s, self.op
        return (
            op(lambda: s.density(psi, s.BORN).values),
            op(lambda: s.density(psi, s.SCALAR).values),
            op(lambda: s.density(psi, s.SPIN_HALF).values),
            op(lambda: s.current(psi, s.SPIN_HALF).values),
            op(lambda: s.continuity_residual(psi, s.SPIN_HALF, CONTINUITY_DT)),
        )

    def small_batches(self, samples):
        for _ in range(SMALL_BATCHES // 2):
            t0 = time.perf_counter()
            for _ in range(SMALL_BATCH):
                out = self.field_set(self.psi[self.sizes[1]])
            samples.append((time.perf_counter() - t0) * 1e3 / SMALL_BATCH)
        return out

    def timed(self):
        large, small = self.sizes
        batches = []
        self.small_batches(batches)
        t0 = time.perf_counter()
        out_large = self.field_set(self.psi[large])
        metrics = {"fields_large_s": [time.perf_counter() - t0]}
        out_small = self.small_batches(batches)
        metrics["fields_small_ms"] = [min(batches)]
        return {large: out_large, small: out_small}, metrics

    def check(self):
        import reference as ref

        s, np = self.s, self.np
        errors = []
        for n in self.sizes:
            label = f"spectral N={n}"
            rho_b, rho_s, rho_h, j_h, cont = self.first[n]
            errors += self.energy_checks(label, self.psi[n], rho_s)
            if cont is not None and not cont <= ref.CONTINUITY_BOUND:
                errors.append(f"{label}: continuity residual {cont!r} "
                              f"> {ref.CONTINUITY_BOUND}")
            if rho_b is not None and ref.rel_gap(
                    rho_b, np.abs(self.psi[n].values) ** 2) > ref.REL_TOL:
                errors.append(f"{label}: Born density is not |psi|^2")
        # lattice-aligned plane waves on [-16, 16]: the fast paths against the
        # closed-form double sum.  At 2^12 only: the code path is the same at
        # 2^20, where the check would add two seconds to every run.
        self.amps, self.momenta = ref.seeded_waves(self.rng, 2.0 * np.pi / 32.0)
        grid = s.make_grid(-16.0, 16.0, self.sizes[1])
        psi = s.sample_on_grid(s.PlaneWaveSuperposition(self.amps, self.momenta), grid)
        rho_s = s.density(psi, s.SCALAR).values
        errors += self.energy_checks("spectral waves", psi, rho_s)
        errors += self.wave_checks("spectral waves", grid, [
            ("density born", "born", False, s.density(psi, s.BORN).values),
            ("density scalar", "scalar", False, rho_s),
            ("density spinhalf", "spinhalf", False, s.density(psi, s.SPIN_HALF).values),
            ("current spinhalf", "spinhalf", True, s.current(psi, s.SPIN_HALF).values),
        ])
        return errors


# spread out, and reported as the fastest, as the small field sets are
ORACLE_SMALL_PAIRS = 10


class OraclePart(LibraryPart):
    """The O(N^2) double-sum oracle at N = 2048 and 512, and the scalar
    current, which the default path still sends to the oracle."""

    name = "oracle"
    sizes = (2048, 512)

    def build(self):
        import reference as ref

        s = self.s
        # lattice-aligned plane waves on [-16, 16] (dp = 2 pi / 32)
        self.amps, self.momenta = ref.seeded_waves(self.rng, 2.0 * self.np.pi / 32.0)
        waves = s.PlaneWaveSuperposition(self.amps, self.momenta)
        self.psi = {n: s.sample_on_grid(waves, s.make_grid(-16.0, 16.0, n))
                    for n in self.sizes}

    def pair(self, psi):
        s, op = self.s, self.op
        return (
            op(lambda: s.density(psi, s.SCALAR, path="generic").values),
            op(lambda: s.current(psi, s.BORN, path="generic").values),
        )

    def small_pairs(self, samples):
        for _ in range(ORACLE_SMALL_PAIRS // 2):
            t0 = time.perf_counter()
            out = self.pair(self.psi[self.sizes[1]])
            samples.append((time.perf_counter() - t0) * 1e3)
        return out

    def timed(self):
        large, small = self.sizes
        s, psi = self.s, self.psi[large]
        pairs = []
        self.small_pairs(pairs)
        t0 = time.perf_counter()
        out_large = self.pair(psi)
        t1 = time.perf_counter()
        j_scalar = self.op(lambda: s.current(psi, s.SCALAR).values)
        t2 = time.perf_counter()
        out_small = self.small_pairs(pairs)
        metrics = {"oracle_large_s": [t1 - t0], "scalar_current_s": [t2 - t1],
                   "oracle_small_ms": [min(pairs)]}
        outputs = {large: out_large + (j_scalar,), small: out_small}
        return outputs, metrics

    def check(self):
        s = self.s
        large, small = self.sizes
        errors = []
        rho_s, j_b, j_s = self.first[large]
        errors += self.energy_checks(f"oracle N={large}", self.psi[large], rho_s)
        errors += self.wave_checks(f"oracle N={large}", self.psi[large].grid, [
            ("generic density scalar", "scalar", False, rho_s),
            ("generic current born", "born", True, j_b),
            ("default current scalar", "scalar", True, j_s),
        ])
        psi = self.psi[small]
        rho_s, j_b = self.first[small]
        errors += self.energy_checks(f"oracle N={small}", psi, rho_s)
        cases = [
            ("generic density scalar", "scalar", False, rho_s),
            ("generic current born", "born", True, j_b),
            ("generic current scalar", "scalar", True,
             s.current(psi, s.SCALAR, path="generic").values),
        ]
        for kind in (s.BORN, s.SCALAR, s.SPIN_HALF):
            for path in ("fast", "generic"):
                cases.append((f"{path} density {kind}", kind.name, False,
                              s.density(psi, kind, path=path).values))
        for path in ("fast", "generic"):
            cases.append((f"{path} current spinhalf", "spinhalf", True,
                          s.current(psi, s.SPIN_HALF, path=path).values))
        errors += self.wave_checks(f"oracle N={small}", psi.grid, cases)
        return errors


PARTS = {"cli": CliPart, "spectral": SpectralPart, "oracle": OraclePart}

# ------------------------------------------------------------- entry point


def _flat_layers(rows):
    """{span: [calls, s, self_s, points]} -> metric name -> value."""
    out = {}
    for name, (calls, total, self_s, points) in rows.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = self_s
        if points:
            out["grids.points_transformed"] = out.get("grids.points_transformed", 0) + points
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("part", choices=sorted(PARTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    part = PARTS[args.part]()
    tracer = None
    if args.trace:
        import salpeter1d.cli  # noqa: F401  (every module the tracer patches)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    part.setup(args.seed, tracer is not None)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    marks = [tracer.mark()] if tracer else []
    samples, round_s, ops, failed, errors = {}, [], 0, 0, []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        n_ops, n_failed, metrics, round_errors = part.round()
        round_s.append(time.perf_counter() - r0)
        if tracer:
            marks.append(tracer.mark())
        ops += n_ops
        failed += n_failed
        errors += round_errors
        for k, v in metrics.items():
            samples.setdefault(k, []).extend(v)
        # a measured part runs at least two rounds, so the median of one
        # run never rests on a single slow sample of the longest operation
        if time.perf_counter() - start >= args.seconds and (
                len(round_s) >= 2 or args.seconds == 0):
            break
    peak_rss_mb = part.peak_rss_mb()
    if tracer:
        tracer.enabled = False
    try:
        errors += part.check()
    except Exception as exc:
        errors.append(f"{args.part}: output check raised {exc!r}")

    result = {
        "part": args.part,
        "rounds": len(round_s),
        "ops": ops,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "round_s": round_s,
        "metrics": {k: statistics.median(v) for k, v in samples.items()},
    }
    if tracer:
        # set-up spans once, plus the mean over rounds, so counts repeat exactly
        per_round = {}
        for a, b in zip(marks, marks[1:]):
            for name, row in tracer.layers(a, b).items():
                acc = per_round.setdefault(name, [0, 0.0, 0.0, 0])
                for i, v in enumerate(row):
                    acc[i] += v
        rows = tracer.layers(0, marks[0])
        for name, acc in per_round.items():
            row = rows.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(acc):
                row[i] += v / len(round_s)
            row[0], row[3] = round(row[0]), round(row[3])
        result["layers"] = _flat_layers(rows)
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
