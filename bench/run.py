"""gdakit benchmark: gradient-evaluation throughput of the harness commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-reference

Run from anywhere; gdakit is imported from the sibling src/ directory. One
run makes the workload's config from --seed, calls the harness command
in-process once on the reference config (warm-up, checked against
bench/reference.json), then calls it on the seed's config, closed-loop, one
call at a time, for --seconds. Every call must pass the correctness gate:
no exception, the workload's invariants, and artifacts byte-identical to the
run's first call on the same config.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median
over the timed calls of each call's grad evals per wall second, scaled to
the reference machine speed by calibration passes run just before and just
after the call, on as many threads as the call's seeds use
(bench/calibrate.py; the raw rate of all calls, the call count and the
calibration time go to stderr), the median set-up time of several fresh
interpreters (bench/setup_probe.py) and the process's peak RSS. --trace 1
spends half the time on untraced calls, then makes up to MAX_TRACED_CALLS
calls with every layer wrapped (bench/tracer.py), and reports the per-layer
metrics per command call, trace.overhead_s (median traced minus untraced
call time) and failed_frac; the spans go to .bench_run/spans-NAME.csv.gz.
BLAS thread counts default to 1 (see main).

The last stdout line is the result JSON; a provenance record goes to
stderr and, with the result, to .bench_run/results.jsonl (read by
bench/compare.py). Exit status is 0 only when every call passed the gate.
--write-reference rewrites bench/reference.json from the current program.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# per-layer metrics are per-call means; a few calls pin them, and fewer
# spans keep the self-time sweep and the span file small
MAX_TRACED_CALLS = 4
# untimed calibration passes before the first timed one (numpy warm-up)
CALIBRATION_WARMUP = 3


def _artifacts(out_dir: Path) -> dict[str, str]:
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


class Runner:
    """One workload's calls, their timings and the correctness gate."""

    def __init__(self, name: str, seed: int, scale: float = 1.0, commands=None):
        import gdakit.harness.commands as harness_commands
        import workloads

        self.wl = workloads
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.scale = scale
        self.cfg = workloads.make_config(name, seed, scale)
        self.ref_cfg = workloads.make_config(name, workloads.REFERENCE_SEED, scale)
        self.command = (commands or {}).get(
            self.workload.command, getattr(harness_commands, self.workload.command)
        )
        self.out_dir = OUT / f"{name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.first_artifacts: dict[str, str] | None = None

    def _fail(self, msg: str) -> None:
        self.failed += 1
        print(f"bench: FAIL {self.workload.name} seed={self.seed}: {msg}", file=sys.stderr)

    def call(self, cfg: dict, tracer=None, call_id: str = ""):
        """One command call; returns (summary, wall seconds) or None on failure."""
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        try:
            t0 = time.perf_counter()
            if tracer is None:
                self.command(cfg, self.out_dir)
            else:
                tracer.command("harness.commands", self.command, call_id, cfg, self.out_dir)
            wall = time.perf_counter() - t0
            summary = json.loads((self.out_dir / self.workload.summary_file).read_text())
        except Exception:  # a failing call is counted, and the run goes on
            self._fail(traceback.format_exc())
            return None
        errs = self.wl.invariant_errors(self.workload.name, cfg, summary)
        if errs:
            self._fail("; ".join(errs))
            return None
        return summary, wall

    def reference_call(self) -> None:
        """Warm-up on the reference config, gated on the stored key numbers."""
        got = self.call(self.ref_cfg)
        if got is None or self.scale != 1.0:
            return
        want = json.loads(REFERENCE.read_text())[self.workload.name]
        errs = self.wl.reference_errors(self.wl.key_numbers(self.workload.name, got[0]), want)
        if errs:
            self._fail("reference mismatch: " + "; ".join(errs))

    def timed_call(self, tracer=None) -> tuple[float, int] | None:
        """(wall seconds, grad evals) of one call on the seed's config, or
        None on failure."""
        got = self.call(self.cfg, tracer, f"{self.workload.name}/{self.seed}/{self.attempted}")
        if got is None:
            return None
        summary, wall = got
        arts = _artifacts(self.out_dir)
        if self.first_artifacts is None:
            self.first_artifacts = arts
        elif arts != self.first_artifacts:
            changed = sorted(
                k for k in set(arts) | set(self.first_artifacts)
                if arts.get(k) != self.first_artifacts.get(k)
            )
            self._fail(f"artifacts differ from the run's first call: {changed}")
            return None
        return wall, self.wl.grad_evals(self.workload.name, self.cfg, summary)

    def calls_for(
        self, seconds: float, tracer=None, between=None, max_calls=None, calibrate=None
    ) -> list[tuple]:
        """Closed loop until the calls took `seconds` (at least one call) and
        `between`, run after each call and not timed, returns False; or
        until `max_calls` calls. Returns a (wall, evals) pair per passing
        call. With `calibrate`, a calibration pass runs before the first
        call and after each `between`, and each pair gets a third item: the
        mean of the passes just before and just after its call."""
        out = []
        spent = 0.0
        cal = calibrate() if calibrate is not None else None
        while True:
            t0 = time.perf_counter()
            got = self.timed_call(tracer)
            spent += time.perf_counter() - t0
            more = between() if between is not None else False
            if calibrate is not None:
                cal_after = calibrate()
                if got is not None:
                    got = (*got, (cal + cal_after) / 2)
                cal = cal_after
            if got is not None:
                out.append(got)
            if (spent >= seconds and not more) or len(out) == max_calls:
                return out

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def setup_seconds(command: str, cfg: dict) -> float:
    """Set-up time of one fresh interpreter (bench/setup_probe.py)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), command, json.dumps(cfg)],
        env=env,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0, commands=None
) -> tuple[dict, dict]:
    """One benchmark run; returns the result object printed as the last line
    and the extra figures that go to stderr and .bench_run/results.jsonl."""
    runner = Runner(name, seed, scale, commands)
    try:
        if not trace:
            import calibrate

            setups: list[float] = []

            def probe() -> bool:
                # interleaved with the timed calls, so both see the same load
                if len(setups) < SETUP_PROBES:
                    setups.append(setup_seconds(runner.workload.command, runner.cfg))
                return len(setups) < SETUP_PROBES

            threads = runner.wl.pool_threads(name, runner.cfg)

            def calibration() -> float:
                return calibrate.loop_seconds(threads)

            runner.reference_call()
            for _ in range(CALIBRATION_WARMUP):
                calibration()
            timed = runner.calls_for(seconds, between=probe, calibrate=calibration)
            # each call's rate at the reference machine speed (bench/calibrate.py)
            scaled = [e / w * c / calibrate.REF_S for w, e, c in timed]
            wall = sum(w for w, _, _ in timed)
            raw = sum(e for _, e, _ in timed) / wall if wall else 0.0
            metrics = {
                "grad_evals_per_s": _metric(statistics.median(scaled) if scaled else 0.0, "1/s"),
                "setup_s": _metric(statistics.median(setups), "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
                ),
            }
            extra = {
                "timed_calls": len(timed),
                "raw_grad_evals_per_s": raw,
                "calibration_s_median": statistics.median(c for _, _, c in timed) if timed else 0.0,
            }
        else:
            import tracer as tracing

            runner.reference_call()
            plain = runner.calls_for(seconds / 2)
            tr = tracing.Tracer()
            saved = tracing.instrument(tr)
            try:
                traced = runner.calls_for(seconds / 2, tr, max_calls=MAX_TRACED_CALLS)
            finally:
                tracing.restore(saved)
            metrics = tracing.summarize(tr, max(len(traced), 1))
            overhead = (
                statistics.median(w for w, _ in traced) - statistics.median(w for w, _ in plain)
                if traced and plain
                else 0.0
            )
            metrics["trace.overhead_s"] = _metric(overhead, "s")
            extra = {"plain_calls": len(plain), "traced_calls": len(traced)}
            OUT.mkdir(parents=True, exist_ok=True)
            tracing.write_spans(tr, OUT / f"spans-{name}.csv.gz")
    finally:
        runner.close()
    if trace:
        metrics["failed_frac"] = _metric(runner.failed / runner.attempted, "ratio")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, extra


def provenance(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "gdakit").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        git_sha = proc.stdout.strip() or None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("openblas configuration") or deps[k].get("version") for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def write_reference() -> None:
    """Store the key numbers of every workload's reference-seed call."""
    import workloads

    refs = {}
    for name in workloads.WORKLOADS:
        runner = Runner(name, workloads.REFERENCE_SEED)
        try:
            got = runner.call(runner.ref_cfg)
        finally:
            runner.close()
        if got is None:
            raise SystemExit(f"bench: reference call of {name} failed")
        refs[name] = workloads.key_numbers(name, got[0])
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "gdakit" / "__init__.py").is_file():
        print(f"bench: no gdakit sources at {SRC / 'gdakit'}", file=sys.stderr)
        return 2
    # Before numpy loads: on a small shared machine, BLAS worker threads that
    # spin for a second core make call times swing by 2x between runs.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")

    prov = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": prov}, sort_keys=True), file=sys.stderr)
    result, extra = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        record = {"provenance": prov, "result": result, "extra": extra}
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for key, m in result["metrics"].items():
        print(f"bench: {key} = {m['value']!r} {m['unit']}", file=sys.stderr)
    for key, value in extra.items():
        print(f"bench: {key} = {value!r}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
